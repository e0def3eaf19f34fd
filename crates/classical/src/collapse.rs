//! Collapsing an AIG into per-output BDDs (ABC `collapse`).
//!
//! The ESOP flow extracts minimized ESOPs from these BDDs (the functional
//! flow reads the AIG's truth tables directly). Two paths build them:
//!
//! * up to 16 inputs, the AIG is simulated bit-parallel into one truth
//!   table per output, and each table is reduced bottom-up into the
//!   manager ([`BddManager::from_truth_table`]). Intermediate AIG nodes
//!   never get a BDD, so only the output BDDs are ever allocated;
//! * wider AIGs are collapsed node by node with `and`/`not` apply, where an
//!   intermediate BDD can blow up.
//!
//! On both paths a node budget aborts the attempt, mirroring how the paper
//! notes that "collapsing does not scale to these high bitwidths". The
//! ROBDD of a function under a fixed variable order is canonical, so both
//! paths yield the same output BDDs.

use qda_bdd::{Bdd, BddManager};
use qda_logic::aig::{Aig, Lit};
use std::fmt;

/// Error: the BDD grew past the node budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollapseError {
    /// The budget that was exceeded.
    pub node_limit: usize,
}

impl fmt::Display for CollapseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BDD collapse exceeded {} nodes", self.node_limit)
    }
}

impl std::error::Error for CollapseError {}

/// Widest AIG collapsed through its simulated truth tables: simulation
/// costs `2^n / 64` words per AND node, which grows too fast beyond it.
const TRUTH_TABLE_INPUTS: usize = 16;

/// Collapses an AIG into one BDD per primary output, sharing a manager.
///
/// PI `i` of the AIG becomes BDD variable `i`.
///
/// # Errors
///
/// Returns [`CollapseError`] when the manager exceeds `node_limit` nodes.
///
/// # Example
///
/// ```
/// use qda_logic::aig::Aig;
/// use qda_classical::collapse::collapse_to_bdds;
///
/// let mut aig = Aig::new(2);
/// let a = aig.pi(0);
/// let b = aig.pi(1);
/// let f = aig.xor(a, b);
/// aig.add_po(f);
/// let (mgr, bdds) = collapse_to_bdds(&aig, 1_000)?;
/// assert_eq!(mgr.sat_count(bdds[0]), 2);
/// # Ok::<(), qda_classical::collapse::CollapseError>(())
/// ```
pub fn collapse_to_bdds(
    aig: &Aig,
    node_limit: usize,
) -> Result<(BddManager, Vec<Bdd>), CollapseError> {
    if aig.num_pis() > TRUTH_TABLE_INPUTS {
        return collapse_by_apply(aig, node_limit);
    }
    let mut mgr = BddManager::new(aig.num_pis());
    if aig.num_pos() == 0 {
        return Ok((mgr, Vec::new()));
    }
    let mut outs = Vec::with_capacity(aig.num_pos());
    for tt in aig.to_truth_tables().outputs() {
        outs.push(mgr.from_truth_table(tt));
        if mgr.num_nodes() > node_limit {
            return Err(CollapseError { node_limit });
        }
    }
    Ok((mgr, outs))
}

/// Node-by-node collapse: one `and` apply per AIG node.
fn collapse_by_apply(
    aig: &Aig,
    node_limit: usize,
) -> Result<(BddManager, Vec<Bdd>), CollapseError> {
    let mut mgr = BddManager::new(aig.num_pis());
    let mut map: Vec<Bdd> = vec![Bdd::FALSE; aig.num_nodes()];
    for i in 0..aig.num_pis() {
        map[i + 1] = mgr.var(i);
    }
    let read = |mgr: &mut BddManager, map: &[Bdd], l: Lit| -> Bdd {
        let b = map[l.node()];
        if l.is_complement() {
            mgr.not(b)
        } else {
            b
        }
    };
    for n in (aig.num_pis() + 1)..aig.num_nodes() {
        let [a, b] = aig.fanins(n);
        let ba = read(&mut mgr, &map, a);
        let bb = read(&mut mgr, &map, b);
        map[n] = mgr.and(ba, bb);
        if mgr.num_nodes() > node_limit {
            return Err(CollapseError { node_limit });
        }
    }
    let outs: Vec<Bdd> = aig
        .pos()
        .iter()
        .map(|&po| read(&mut mgr, &map, po))
        .collect();
    Ok((mgr, outs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_logic::hash::FxHashSet;

    /// Distinct internal nodes reachable from `roots`.
    fn reachable(mgr: &BddManager, roots: &[Bdd]) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = roots.to_vec();
        while let Some(f) = stack.pop() {
            if f.is_const() || !seen.insert(f) {
                continue;
            }
            let (lo, hi) = mgr.branches(f, mgr.top_var(f));
            stack.push(lo);
            stack.push(hi);
        }
        seen.len()
    }

    /// A ripple-carry adder of two `bits`-bit words with interleaved
    /// inputs (`a_i` = PI `2i`, `b_i` = PI `2i + 1`), all sum bits and the
    /// carry out as outputs.
    fn adder(bits: usize) -> Aig {
        let mut aig = Aig::new(2 * bits);
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let (a, b) = (aig.pi(2 * i), aig.pi(2 * i + 1));
            let half = aig.xor(a, b);
            let sum = aig.xor(half, carry);
            aig.add_po(sum);
            carry = aig.maj(a, b, carry);
        }
        aig.add_po(carry);
        aig
    }

    #[test]
    fn collapse_matches_aig_semantics() {
        let mut aig = Aig::new(5);
        let pis: Vec<Lit> = (0..5).map(|i| aig.pi(i)).collect();
        let s = aig.xor(pis[0], pis[1]);
        let t = aig.maj(s, pis[2], pis[3]);
        let u = aig.or(t, !pis[4]);
        aig.add_po(u);
        aig.add_po(s);
        let (mgr, bdds) = collapse_to_bdds(&aig, 10_000).unwrap();
        for x in 0..32u64 {
            let y = aig.eval(x);
            assert_eq!(mgr.eval(bdds[0], x), y & 1 == 1);
            assert_eq!(mgr.eval(bdds[1], x), (y >> 1) & 1 == 1);
        }
        // Only the output BDDs were allocated (plus both terminals).
        assert_eq!(mgr.num_nodes(), reachable(&mgr, &bdds) + 2);
    }

    #[test]
    fn wide_aig_collapses_by_apply() {
        let aig = adder(10);
        assert!(aig.num_pis() > TRUTH_TABLE_INPUTS);
        let (mgr, bdds) = collapse_to_bdds(&aig, 100_000).unwrap();
        assert_eq!(bdds.len(), 11);
        // Apply keeps the BDDs of intermediate AIG nodes too.
        assert!(mgr.num_nodes() > reachable(&mgr, &bdds) + 2);
        let mut x = 1u64;
        for _ in 0..256 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let input = (x >> 32) & ((1 << 20) - 1);
            let y = aig.eval(input);
            for (j, &b) in bdds.iter().enumerate() {
                assert_eq!(mgr.eval(b, input), (y >> j) & 1 == 1, "x={input} out={j}");
            }
        }
        assert_eq!(
            collapse_to_bdds(&aig, 8).unwrap_err(),
            CollapseError { node_limit: 8 }
        );
    }

    #[test]
    fn aig_without_outputs_collapses_to_no_bdds() {
        for num_pis in [3, TRUTH_TABLE_INPUTS + 1] {
            let (mgr, bdds) = collapse_to_bdds(&Aig::new(num_pis), 10).unwrap();
            assert!(bdds.is_empty());
            assert_eq!(mgr.num_vars(), num_pis);
        }
    }

    #[test]
    fn node_limit_aborts() {
        // A multiplier's middle bits have exponential BDDs; the output BDD
        // of this 12-input mix alone exceeds a tiny limit.
        let mut aig = Aig::new(12);
        let a: Vec<Lit> = (0..6).map(|i| aig.pi(i)).collect();
        let b: Vec<Lit> = (0..6).map(|i| aig.pi(6 + i)).collect();
        // Poor-man's multiplier high bit: chain of MAJ/XOR mixing.
        let mut acc = Lit::FALSE;
        for i in 0..6 {
            for j in 0..6 {
                let pp = aig.and(a[i], b[j]);
                acc = aig.maj(acc, pp, a[(i + j) % 6]);
            }
        }
        aig.add_po(acc);
        let r = collapse_to_bdds(&aig, 40);
        assert!(r.is_err());
    }
}
