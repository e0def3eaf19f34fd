//! And-inverter graphs (AIGs).
//!
//! An [`Aig`] is a DAG whose internal nodes are two-input ANDs and whose
//! edges may be complemented. It is the workhorse of the logic-synthesis
//! level: the Verilog frontend bit-blasts into an AIG, `qda-classical`
//! optimizes it, and all three reversible back-ends consume it (after
//! collapsing to a BDD, extracting an ESOP, or mapping to an XMG).
//!
//! Nodes are stored in topological order (fanins always precede fanouts),
//! node 0 is the constant false, nodes `1..=num_pis` are the primary
//! inputs. Structural hashing makes node construction canonical.

use crate::hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::fmt;

/// A literal: a reference to an AIG node together with a complement flag.
///
/// # Example
///
/// ```
/// use qda_logic::aig::Aig;
///
/// let mut aig = Aig::new(2);
/// let a = aig.pi(0);
/// let b = aig.pi(1);
/// let f = aig.and(a, !b);
/// aig.add_po(f);
/// assert_eq!(aig.eval(0b01), 0b1); // a & !b with a=1, b=0
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node index and complement flag.
    pub fn new(node: usize, complement: bool) -> Self {
        Lit((node as u32) << 1 | u32::from(complement))
    }

    /// Node index this literal points at.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the two constants.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// Raw encoding (`2*node + complement`), the AIGER convention.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// An And-inverter graph.
#[derive(Clone)]
pub struct Aig {
    /// `fanins[i]` for `i > num_pis` holds the two fanin literals of AND
    /// node `i`; entries for the constant and the PIs are unused.
    fanins: Vec<[Lit; 2]>,
    num_pis: usize,
    pos: Vec<Lit>,
    strash: FxHashMap<(Lit, Lit), usize>,
}

impl Aig {
    /// Creates an AIG with `num_pis` primary inputs and no outputs.
    pub fn new(num_pis: usize) -> Self {
        Self {
            fanins: vec![[Lit::FALSE; 2]; num_pis + 1],
            num_pis,
            pos: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Number of AND nodes (excludes constant and PIs).
    pub fn num_ands(&self) -> usize {
        self.fanins.len() - self.num_pis - 1
    }

    /// Total node count including constant and PIs.
    pub fn num_nodes(&self) -> usize {
        self.fanins.len()
    }

    /// The literal of primary input `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_pis`.
    pub fn pi(&self, i: usize) -> Lit {
        assert!(i < self.num_pis, "PI {i} out of range");
        Lit::new(i + 1, false)
    }

    /// The primary-output literals.
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Registers a primary output and returns its index.
    pub fn add_po(&mut self, lit: Lit) -> usize {
        self.pos.push(lit);
        self.pos.len() - 1
    }

    /// Whether node `i` is an AND gate (vs. constant/PI).
    pub fn is_and(&self, node: usize) -> bool {
        node > self.num_pis
    }

    /// Fanins of AND node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an AND node.
    pub fn fanins(&self, node: usize) -> [Lit; 2] {
        assert!(self.is_and(node), "node {node} is not an AND");
        self.fanins[node]
    }

    /// Creates (or reuses) the AND of two literals, applying trivial
    /// simplification rules and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Normalize operand order for canonical hashing.
        let (a, b) = if a.index() <= b.index() {
            (a, b)
        } else {
            (b, a)
        };
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        let next = self.fanins.len();
        match self.strash.entry((a, b)) {
            Entry::Occupied(node) => Lit::new(*node.get(), false),
            Entry::Vacant(slot) => {
                slot.insert(next);
                self.fanins.push([a, b]);
                Lit::new(next, false)
            }
        }
    }

    /// Reserves room for at least `additional` more AND nodes.
    pub fn reserve(&mut self, additional: usize) {
        self.fanins.reserve(additional);
        self.strash.reserve(additional);
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR composed of three ANDs (no structural XOR nodes in an AIG).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.and(a, !b);
        let m = self.and(!a, b);
        self.or(n, m)
    }

    /// XNOR.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Multiplexer `s ? t : e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Majority-of-three.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Conjunction of many literals (balanced tree).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::TRUE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let (lo, hi) = lits.split_at(mid);
                let a = self.and_many(lo);
                let b = self.and_many(hi);
                self.and(a, b)
            }
        }
    }

    /// Evaluates all outputs on one assignment (bit `i` of `x` = PI `i`),
    /// returning the output word. Usable for up to 64 PIs and 64 POs.
    pub fn eval(&self, x: u64) -> u64 {
        let mut values = vec![false; self.fanins.len()];
        for i in 0..self.num_pis {
            values[i + 1] = (x >> i) & 1 == 1;
        }
        for n in (self.num_pis + 1)..self.fanins.len() {
            let [a, b] = self.fanins[n];
            values[n] =
                (values[a.node()] ^ a.is_complement()) && (values[b.node()] ^ b.is_complement());
        }
        let mut y = 0u64;
        for (j, po) in self.pos.iter().enumerate() {
            if values[po.node()] ^ po.is_complement() {
                y |= 1 << j;
            }
        }
        y
    }

    /// Evaluates all outputs on many assignments: `out[k] = self.eval(xs[k])`.
    /// The assignments run 64 per simulation word through one reused node
    /// buffer, so each AND costs one word operation per 64 assignments.
    /// Usable for up to 64 PIs and 64 POs, as [`Aig::eval`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn eval_many(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "one output word per assignment");
        let mut values = vec![0u64; self.fanins.len()];
        for (xs, out) in xs.chunks(64).zip(out.chunks_mut(64)) {
            for (i, value) in values[1..=self.num_pis].iter_mut().enumerate() {
                *value = xs
                    .iter()
                    .enumerate()
                    .fold(0, |word, (k, &x)| word | ((x >> i) & 1) << k);
            }
            self.simulate_ands(&mut values);
            out.fill(0);
            for (j, po) in self.pos.iter().enumerate() {
                let word = Self::lit_value(&values, *po);
                for (k, y) in out.iter_mut().enumerate() {
                    *y |= ((word >> k) & 1) << j;
                }
            }
        }
    }

    /// Fills the AND nodes' words of `values` (one word per node) from the
    /// constant's and the PIs' words already in it.
    fn simulate_ands(&self, values: &mut [u64]) {
        for n in (self.num_pis + 1)..self.fanins.len() {
            let [a, b] = self.fanins[n];
            values[n] = Self::lit_value(values, a) & Self::lit_value(values, b);
        }
    }

    /// Value of a literal given per-node simulation words.
    pub fn lit_value(values: &[u64], lit: Lit) -> u64 {
        values[lit.node()] ^ if lit.is_complement() { u64::MAX } else { 0 }
    }

    /// Logic level (depth) of every node; PIs and the constant are level 0.
    pub fn levels(&self) -> Vec<usize> {
        let mut lv = vec![0usize; self.fanins.len()];
        for n in (self.num_pis + 1)..self.fanins.len() {
            let [a, b] = self.fanins[n];
            lv[n] = 1 + lv[a.node()].max(lv[b.node()]);
        }
        lv
    }

    /// Depth of the AIG (max output level).
    pub fn depth(&self) -> usize {
        let lv = self.levels();
        self.pos.iter().map(|po| lv[po.node()]).max().unwrap_or(0)
    }

    /// The nodes some output reaches: `live[n]` holds for every node in
    /// the transitive fanin of a primary output (the constant and a PI only
    /// when reached). One backward sweep over the node order, which is
    /// topological, marks them.
    pub fn live_nodes(&self) -> Vec<bool> {
        let mut live = vec![false; self.fanins.len()];
        for po in &self.pos {
            live[po.node()] = true;
        }
        for n in (self.num_pis + 1..self.fanins.len()).rev() {
            if live[n] {
                let [a, b] = self.fanins[n];
                live[a.node()] = true;
                live[b.node()] = true;
            }
        }
        live
    }

    /// Removes nodes not reachable from any output, preserving PIs.
    /// Returns the cleaned AIG (node indices change).
    ///
    /// The kept AND nodes are renumbered in order, and the result is the
    /// AIG that rebuilding them in order through [`Aig::and`] would make,
    /// without a single lookup. Every AIG is built by `and`, so each node's
    /// fanin pair is ordered, has no constant and no literal twice (or
    /// with its complement), and no two nodes share a pair. An
    /// order-preserving renumbering keeps all of that, so each kept pair is
    /// pushed and entered into the structural hash once.
    pub fn cleanup(&self) -> Aig {
        let live = self.live_nodes();
        let first_and = self.num_pis + 1;
        let kept = live[first_and..].iter().filter(|&&l| l).count();
        let mut out = Aig::new(self.num_pis);
        out.reserve(kept);
        let mut map: Vec<Lit> = (0..first_and).map(|i| Lit::new(i, false)).collect();
        map.resize(self.fanins.len(), Lit::FALSE);
        for n in first_and..self.fanins.len() {
            if !live[n] {
                continue;
            }
            let [a, b] = self.fanins[n];
            let pair = (
                map[a.node()] ^ a.is_complement(),
                map[b.node()] ^ b.is_complement(),
            );
            let m = out.fanins.len();
            out.fanins.push([pair.0, pair.1]);
            out.strash.insert(pair, m);
            map[n] = Lit::new(m, false);
        }
        out.pos = self
            .pos
            .iter()
            .map(|po| map[po.node()] ^ po.is_complement())
            .collect();
        out
    }

    /// Explicit truth tables of all outputs (`num_pis ≤ 20` recommended).
    pub fn to_truth_tables(&self) -> crate::tt::MultiTruthTable {
        use crate::tt::{var_word, word_count, MultiTruthTable, TruthTable};
        let n = self.num_pis;
        // Word `w` of every table is one 64-assignment batch: the PIs take
        // word `w` of their projections, and one buffer is re-simulated.
        let num_words = word_count(n);
        let mut words: Vec<Vec<u64>> = (0..self.pos.len())
            .map(|_| Vec::with_capacity(num_words))
            .collect();
        let mut values = vec![0u64; self.fanins.len()];
        for w in 0..num_words {
            for (i, value) in values[1..=n].iter_mut().enumerate() {
                *value = var_word(i, w);
            }
            self.simulate_ands(&mut values);
            for (out, po) in words.iter_mut().zip(&self.pos) {
                out.push(Self::lit_value(&values, *po));
            }
        }
        MultiTruthTable::from_outputs(
            words
                .into_iter()
                .map(|w| TruthTable::from_words(n, w))
                .collect(),
        )
    }
}

impl std::ops::BitXor<bool> for Lit {
    type Output = Lit;
    fn bitxor(self, rhs: bool) -> Lit {
        Lit(self.0 ^ u32::from(rhs))
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig({} PIs, {} ANDs, {} POs, depth {})",
            self.num_pis,
            self.num_ands(),
            self.pos.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_rules() {
        let mut aig = Aig::new(1);
        let a = aig.pi(0);
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_reuses_nodes() {
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        let b = aig.pi(1);
        let f = aig.and(a, b);
        let g = aig.and(b, a);
        assert_eq!(f, g);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn xor_mux_maj_semantics() {
        let mut aig = Aig::new(3);
        let a = aig.pi(0);
        let b = aig.pi(1);
        let c = aig.pi(2);
        let x = aig.xor(a, b);
        let m = aig.mux(a, b, c);
        let j = aig.maj(a, b, c);
        aig.add_po(x);
        aig.add_po(m);
        aig.add_po(j);
        for input in 0..8u64 {
            let (va, vb, vc) = (input & 1, (input >> 1) & 1, (input >> 2) & 1);
            let y = aig.eval(input);
            assert_eq!(y & 1, va ^ vb, "xor at {input}");
            assert_eq!(
                (y >> 1) & 1,
                if va == 1 { vb } else { vc },
                "mux at {input}"
            );
            assert_eq!((y >> 2) & 1, u64::from(va + vb + vc >= 2), "maj at {input}");
        }
    }

    #[test]
    fn truth_tables_match_eval() {
        let mut aig = Aig::new(4);
        let pis: Vec<Lit> = (0..4).map(|i| aig.pi(i)).collect();
        let t = aig.xor(pis[0], pis[1]);
        let u = aig.maj(t, pis[2], pis[3]);
        aig.add_po(u);
        let tts = aig.to_truth_tables();
        for x in 0..16u64 {
            assert_eq!(u64::from(tts.outputs()[0].get(x)), aig.eval(x));
        }
    }

    #[test]
    fn cleanup_drops_dead_nodes() {
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        let b = aig.pi(1);
        let _dead = aig.xor(a, b);
        let live = aig.and(a, b);
        aig.add_po(live);
        let cleaned = aig.cleanup();
        assert_eq!(cleaned.num_ands(), 1);
        for x in 0..4u64 {
            assert_eq!(cleaned.eval(x), aig.eval(x));
        }
    }

    #[test]
    fn and_many_balanced() {
        let mut aig = Aig::new(5);
        let lits: Vec<Lit> = (0..5).map(|i| aig.pi(i)).collect();
        let all = aig.and_many(&lits);
        aig.add_po(all);
        for x in 0..32u64 {
            assert_eq!(aig.eval(x), u64::from(x == 31));
        }
        assert_eq!(aig.and_many(&[]), Lit::TRUE);
    }

    #[test]
    fn depth_and_levels() {
        let mut aig = Aig::new(4);
        let pis: Vec<Lit> = (0..4).map(|i| aig.pi(i)).collect();
        let chain = pis
            .iter()
            .copied()
            .reduce(|acc, p| aig.and(acc, p))
            .unwrap();
        aig.add_po(chain);
        assert_eq!(aig.depth(), 3);
    }
}
