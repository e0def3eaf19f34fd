//! k-feasible cut enumeration on AIGs.
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path from
//! the PIs to `n` passes through a leaf. k-feasible cuts (≤ k leaves) are
//! the unit of technology mapping; the XMG mapper uses `k = 4` to mirror
//! CirKit's `xmglut -k 4`.
//!
//! Cut merging — the inner loop of enumeration — works in an inline stack
//! buffer and allocates only when a candidate actually survives the size
//! bound, and every cut carries a 64-bit leaf signature (a Bloom-style
//! fingerprint) so dominance checks reject most pairs with two bit ops.

use qda_logic::aig::Aig;

/// Upper bound on `k` supported by the inline merge buffer.
pub const MAX_CUT_SIZE: usize = 16;

/// A cut: sorted leaf node indices plus a leaf-set signature.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cut {
    leaves: Vec<usize>,
    /// Bloom fingerprint: bit `l mod 64` set for every leaf `l`. A cut can
    /// only be a subset of another if its signature bits are.
    sig: u64,
}

fn signature(leaves: &[usize]) -> u64 {
    leaves.iter().fold(0u64, |s, &l| s | 1 << (l & 63))
}

impl Cut {
    /// The trivial cut `{node}`.
    pub fn trivial(node: usize) -> Self {
        Self::from_leaves(vec![node])
    }

    /// A cut from explicit leaves (sorted and deduplicated internally).
    pub fn from_leaves(mut leaves: Vec<usize>) -> Self {
        leaves.sort_unstable();
        leaves.dedup();
        let sig = signature(&leaves);
        Self { leaves, sig }
    }

    /// The leaves, ascending.
    pub fn leaves(&self) -> &[usize] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// Merges two cuts if the union stays within `k` leaves. The union is
    /// computed in an inline buffer; nothing is allocated unless the merge
    /// succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `k > MAX_CUT_SIZE`.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        assert!(k <= MAX_CUT_SIZE, "cut size {k} exceeds {MAX_CUT_SIZE}");
        // Early bounds: the union is at least as large as either operand,
        // and at least as large as the popcount of the combined signature.
        if self.leaves.len() > k || other.leaves.len() > k {
            return None;
        }
        let sig = self.sig | other.sig;
        if sig.count_ones() as usize > k {
            return None;
        }
        let mut buf = [0usize; MAX_CUT_SIZE];
        let mut len = 0;
        let (a, b) = (&self.leaves, &other.leaves);
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!("loop condition"),
            };
            if len == k {
                return None;
            }
            buf[len] = next;
            len += 1;
        }
        Some(Cut {
            leaves: buf[..len].to_vec(),
            sig,
        })
    }

    /// Whether this cut's leaves are a subset of `other`'s (then `other`
    /// is dominated and redundant). Signature reject first, then a linear
    /// two-pointer subset test over the sorted leaves.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.sig & !other.sig != 0 || self.leaves.len() > other.leaves.len() {
            return false;
        }
        let mut j = 0;
        for &l in &self.leaves {
            while j < other.leaves.len() && other.leaves[j] < l {
                j += 1;
            }
            if j == other.leaves.len() || other.leaves[j] != l {
                return false;
            }
            j += 1;
        }
        true
    }
}

/// Enumerates up to `max_cuts` k-feasible cuts per node (plus the trivial
/// cut). Returns one cut list per node index. Dominated candidates are
/// filtered incrementally (a candidate dominated by a kept cut is dropped
/// on arrival; kept cuts dominated by a new candidate are evicted in
/// place), so the per-node list is never rebuilt.
///
/// # Panics
///
/// Panics if `k > MAX_CUT_SIZE` (the [`Cut::merge`] inline-buffer bound).
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    for (i, c) in cuts.iter_mut().enumerate().take(aig.num_pis() + 1) {
        *c = vec![Cut::trivial(i)];
    }
    for n in (aig.num_pis() + 1)..aig.num_nodes() {
        let [a, b] = aig.fanins(n);
        let mut list: Vec<Cut> = Vec::new();
        for ca in &cuts[a.node()] {
            for cb in &cuts[b.node()] {
                let Some(c) = ca.merge(cb, k) else { continue };
                // Equal cuts dominate each other, so this also dedupes.
                if list.iter().any(|d| d.size() <= c.size() && d.dominates(&c)) {
                    continue;
                }
                list.retain(|d| !(c.size() <= d.size() && c.dominates(d)));
                list.push(c);
            }
        }
        list.sort_by_key(Cut::size);
        list.truncate(max_cuts);
        list.push(Cut::trivial(n));
        cuts[n] = list;
    }
    cuts
}

/// Evaluates cut functions on one reused buffer: a `(stamp, value)` slot
/// per AIG node, whose value belongs to the current evaluation when its
/// stamp does. Nothing is cleared or allocated between cuts.
pub(crate) struct CutEvaluator {
    slots: Vec<(u32, u16)>,
    stamp: u32,
}

impl CutEvaluator {
    /// An evaluator for AIGs of up to `num_nodes` nodes.
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self {
            slots: vec![(0, 0); num_nodes],
            stamp: 0,
        }
    }

    /// The truth table of `root` as a function of the cut leaves (≤ 4
    /// leaves → `u16` table; leaf `i` is variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the cut has more than 4 leaves.
    pub(crate) fn truth_table(&mut self, aig: &Aig, root: usize, cut: &Cut) -> u16 {
        assert!(cut.size() <= 4, "cut too large for u16 table");
        const VAR_PAT: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];
        if self.stamp == u32::MAX {
            self.slots.fill((0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
        self.slots[0] = (self.stamp, 0); // constant false node
        for (i, &leaf) in cut.leaves().iter().enumerate() {
            self.slots[leaf] = (self.stamp, VAR_PAT[i]);
        }
        self.eval(aig, root)
    }

    fn eval(&mut self, aig: &Aig, node: usize) -> u16 {
        let (stamp, value) = self.slots[node];
        if stamp == self.stamp {
            return value;
        }
        assert!(aig.is_and(node), "node {node} unreachable from cut leaves");
        let [a, b] = aig.fanins(node);
        let va = self.eval(aig, a.node()) ^ if a.is_complement() { 0xFFFF } else { 0 };
        let vb = self.eval(aig, b.node()) ^ if b.is_complement() { 0xFFFF } else { 0 };
        let v = va & vb;
        self.slots[node] = (self.stamp, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_logic::aig::Lit;

    fn sample_aig() -> (Aig, Lit) {
        let mut aig = Aig::new(4);
        let pis: Vec<Lit> = (0..4).map(|i| aig.pi(i)).collect();
        let x = aig.xor(pis[0], pis[1]);
        let y = aig.and(pis[2], pis[3]);
        let f = aig.or(x, y);
        aig.add_po(f);
        (aig, f)
    }

    #[test]
    fn merge_respects_k() {
        let a = Cut::from_leaves(vec![1, 2, 3]);
        let b = Cut::from_leaves(vec![3, 4, 5]);
        assert!(a.merge(&b, 4).is_none());
        let m = a.merge(&b, 5).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_handles_signature_collisions() {
        // Leaves 64 apart collide in the signature but must still merge
        // into distinct entries.
        let a = Cut::from_leaves(vec![1, 65]);
        let b = Cut::from_leaves(vec![129]);
        let m = a.merge(&b, 4).unwrap();
        assert_eq!(m.leaves(), &[1, 65, 129]);
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn every_node_has_trivial_cut() {
        let (aig, _) = sample_aig();
        let cuts = enumerate_cuts(&aig, 4, 8);
        for (n, node_cuts) in cuts.iter().enumerate().skip(1) {
            assert!(
                node_cuts.iter().any(|c| c.leaves() == [n]),
                "node {n} missing trivial cut"
            );
        }
    }

    #[test]
    fn root_has_pi_cut() {
        let (aig, f) = sample_aig();
        let cuts = enumerate_cuts(&aig, 4, 8);
        let root_cuts = &cuts[f.node()];
        assert!(
            root_cuts.iter().any(|c| c.leaves() == [1, 2, 3, 4]),
            "expected the full-PI cut, got {root_cuts:?}"
        );
    }

    #[test]
    fn no_duplicate_or_dominated_cuts() {
        let (aig, _) = sample_aig();
        let cuts = enumerate_cuts(&aig, 4, 8);
        for node_cuts in &cuts {
            for (i, c) in node_cuts.iter().enumerate() {
                for (j, d) in node_cuts.iter().enumerate() {
                    if i != j {
                        assert!(!c.dominates(d), "{c:?} dominates {d:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cut_function_matches_semantics() {
        let (aig, f) = sample_aig();
        let cuts = enumerate_cuts(&aig, 4, 8);
        let cut = cuts[f.node()]
            .iter()
            .find(|c| c.leaves() == [1, 2, 3, 4])
            .unwrap()
            .clone();
        let tt = CutEvaluator::new(aig.num_nodes()).truth_table(&aig, f.node(), &cut);
        for x in 0..16u64 {
            let expected = aig.eval(x) & 1 == 1;
            // f is not complemented at the PO in this construction;
            // evaluate the node itself.
            let got = (tt >> x) & 1 == 1;
            assert_eq!(got ^ f.is_complement(), expected, "x={x}");
        }
    }

    #[test]
    fn domination_filtering() {
        let small = Cut::from_leaves(vec![1]);
        let big = Cut::from_leaves(vec![1, 2]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        // Signature-colliding non-subset: 65 maps to the same bit as 1.
        let aliased = Cut::from_leaves(vec![65, 2]);
        assert!(!small.dominates(&aliased));
    }
}
