//! AIG → XMG mapping over 4-feasible cuts (CirKit `xmglut -k 4`).
//!
//! Every AIG node in the chosen cover is re-expressed over
//! {XOR, MAJ, INV} by recursive decomposition of its 4-input cut function:
//!
//! 1. XOR extraction (`f = xᵥ ⊕ g` whenever the cofactors are antivalent) —
//!    this is what makes XMGs so effective for arithmetic, because XOR
//!    gates cost zero T gates downstream;
//! 2. literal AND/OR factoring (`f = xᵥ ∧ g`, `f = xᵥ ∨ g`, …);
//! 3. direct MAJ-of-literals detection;
//! 4. Shannon expansion on the most binate variable otherwise
//!    (a mux = 3 MAJ gates).
//!
//! Cuts are chosen by area flow. A cut's local cost is 10 000 per MAJ and
//! 1 000 per XOR of that decomposition, and depends only on the cut's
//! 16-bit function, so [`map_to_xmg`] computes it once per function, in a
//! 65 536-entry table filled on first use within the call. Cut functions
//! are evaluated on one reused per-node buffer. Replacing the greedy
//! decomposition by exact multiplicative complexity (ROADMAP 2(b)) would
//! change what fills the table, not how it is used.

use crate::cut::{enumerate_cuts, CutEvaluator};
use qda_logic::aig::{Aig, Lit};
use qda_logic::xmg::Xmg;

const VAR_PAT: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

fn cof(tt: u16, v: usize, value: bool) -> u16 {
    let pat = VAR_PAT[v];
    let shift = 1usize << v;
    if value {
        let hi = tt & pat;
        hi | (hi >> shift)
    } else {
        let lo = tt & !pat;
        lo | (lo << shift)
    }
}

fn depends(tt: u16, v: usize) -> bool {
    cof(tt, v, false) != cof(tt, v, true)
}

/// Synthesizes a ≤4-variable function over the given leaf literals into an
/// XMG, returning the output literal.
///
/// # Panics
///
/// Panics if fewer than 4 leaf literals are provided for a function that
/// depends on the missing variables.
pub fn xmg_from_tt4(xmg: &mut Xmg, tt: u16, leaves: &[Lit]) -> Lit {
    let active: Vec<usize> = (0..4.min(leaves.len()))
        .filter(|&v| depends(tt, v))
        .collect();
    synth(xmg, tt, leaves, &active)
}

fn synth(xmg: &mut Xmg, tt: u16, leaves: &[Lit], active: &[usize]) -> Lit {
    if tt == 0 {
        return Lit::FALSE;
    }
    if tt == 0xFFFF {
        return Lit::TRUE;
    }
    // Single literal?
    for &v in active {
        if tt == VAR_PAT[v] {
            return leaves[v];
        }
        if tt == !VAR_PAT[v] {
            return !leaves[v];
        }
    }
    // XOR extraction: f = x_v ⊕ f0 when f0 == !f1.
    for &v in active {
        let f0 = cof(tt, v, false);
        let f1 = cof(tt, v, true);
        if f0 == !f1 {
            let rest: Vec<usize> = active.iter().copied().filter(|&u| u != v).collect();
            let g = synth(xmg, f0, leaves, &rest);
            return xmg.xor(leaves[v], g);
        }
    }
    // Literal AND/OR factoring.
    for &v in active {
        let f0 = cof(tt, v, false);
        let f1 = cof(tt, v, true);
        let rest: Vec<usize> = active.iter().copied().filter(|&u| u != v).collect();
        if f0 == 0 {
            let g = synth(xmg, f1, leaves, &rest);
            return xmg.and(leaves[v], g);
        }
        if f1 == 0 {
            let g = synth(xmg, f0, leaves, &rest);
            return xmg.and(!leaves[v], g);
        }
        if f0 == 0xFFFF {
            let g = synth(xmg, f1, leaves, &rest);
            return xmg.or(!leaves[v], g);
        }
        if f1 == 0xFFFF {
            let g = synth(xmg, f0, leaves, &rest);
            return xmg.or(leaves[v], g);
        }
    }
    // Direct MAJ of three literals (any polarities, output polarity via
    // self-duality).
    if active.len() == 3 {
        let (a, b, c) = (active[0], active[1], active[2]);
        for pa in [false, true] {
            for pb in [false, true] {
                for pc in [false, true] {
                    let ta = VAR_PAT[a] ^ if pa { 0xFFFF } else { 0 };
                    let tb = VAR_PAT[b] ^ if pb { 0xFFFF } else { 0 };
                    let tc = VAR_PAT[c] ^ if pc { 0xFFFF } else { 0 };
                    let maj = (ta & tb) | (ta & tc) | (tb & tc);
                    if tt == maj {
                        let (la, lb, lc) = (leaves[a] ^ pa, leaves[b] ^ pb, leaves[c] ^ pc);
                        return xmg.maj(la, lb, lc);
                    }
                }
            }
        }
    }
    // Shannon expansion on the most binate variable.
    let v = *active
        .iter()
        .max_by_key(|&&v| {
            let f0 = cof(tt, v, false);
            let f1 = cof(tt, v, true);
            (f0 ^ f1).count_ones()
        })
        .expect("non-constant function must have support");
    let rest: Vec<usize> = active.iter().copied().filter(|&u| u != v).collect();
    let g1 = synth(xmg, cof(tt, v, true), leaves, &rest);
    let g0 = synth(xmg, cof(tt, v, false), leaves, &rest);
    xmg.mux(leaves[v], g1, g0)
}

/// Local area-flow cost of a 4-input function: 10 000 per MAJ and 1 000
/// per XOR gate of its [`xmg_from_tt4`] decomposition.
fn local_cost(tt: u16) -> u32 {
    let mut scratch = Xmg::new(4);
    let leaves: Vec<Lit> = (0..4).map(|i| scratch.pi(i)).collect();
    let _ = xmg_from_tt4(&mut scratch, tt, &leaves);
    10_000 * scratch.num_majs() as u32 + 1_000 * scratch.num_xors() as u32
}

/// Maps an AIG into an XMG via a 4-feasible cut cover.
///
/// # Example
///
/// ```
/// use qda_logic::aig::Aig;
/// use qda_classical::xmg_map::map_to_xmg;
///
/// let mut aig = Aig::new(2);
/// let a = aig.pi(0);
/// let b = aig.pi(1);
/// let f = aig.xor(a, b); // three ANDs in the AIG
/// aig.add_po(f);
/// let xmg = map_to_xmg(&aig);
/// assert_eq!(xmg.num_xors(), 1); // recovered as one XOR gate
/// assert_eq!(xmg.num_majs(), 0);
/// ```
pub fn map_to_xmg(aig: &Aig) -> Xmg {
    let aig = aig.cleanup();
    let cuts = enumerate_cuts(&aig, 4, 8);
    // Choose the best non-trivial cut per node by *area flow*: the local
    // resynthesis cost (MAJ gates weighted 10×, XOR 1×, since MAJ gates
    // carry all the downstream T-cost) plus the amortized flow of the cut
    // leaves. This avoids locally-cheap cuts over internal nodes that pull
    // the whole cone into the cover anyway.
    let fanout = {
        let mut counts = vec![0usize; aig.num_nodes()];
        for n in (aig.num_pis() + 1)..aig.num_nodes() {
            let [a, b] = aig.fanins(n);
            counts[a.node()] += 1;
            counts[b.node()] += 1;
        }
        for po in aig.pos() {
            counts[po.node()] += 1;
        }
        counts
    };
    // best_cut[n] indexes the chosen cut in cuts[n].
    let mut best_cut: Vec<usize> = vec![0; aig.num_nodes()];
    let mut best_tt: Vec<u16> = vec![0; aig.num_nodes()];
    // flow[n] = estimated amortized cost (scaled by 1000) of providing n.
    let mut flow: Vec<u64> = vec![0; aig.num_nodes()];
    // costs[tt] = local_cost(tt), filled on first use (u32::MAX = not yet).
    let mut costs: Vec<u32> = vec![u32::MAX; 1 << 16];
    let mut evaluator = CutEvaluator::new(aig.num_nodes());
    for n in (aig.num_pis() + 1)..aig.num_nodes() {
        let mut best: Option<(u64, usize, usize, u16)> = None;
        for (index, cut) in cuts[n].iter().enumerate() {
            if cut.leaves() == [n] {
                continue;
            }
            let tt = evaluator.truth_table(&aig, n, cut);
            let cost = &mut costs[usize::from(tt)];
            if *cost == u32::MAX {
                *cost = local_cost(tt);
            }
            let leaf_flow: u64 = cut
                .leaves()
                .iter()
                .map(|&l| flow[l] / fanout[l].max(1) as u64)
                .sum();
            let total = u64::from(*cost) + leaf_flow;
            let better = match best {
                None => true,
                Some(b) => (total, cut.size()) < (b.0, b.1),
            };
            if better {
                best = Some((total, cut.size(), index, tt));
            }
        }
        let (total, _, index, tt) = best.expect("AND node always has a non-trivial cut");
        flow[n] = total;
        best_tt[n] = tt;
        best_cut[n] = index;
    }
    // Cover selection: walk back from POs marking required nodes.
    let mut required = vec![false; aig.num_nodes()];
    let mut stack: Vec<usize> = aig.pos().iter().map(|p| p.node()).collect();
    while let Some(n) = stack.pop() {
        if required[n] || !aig.is_and(n) {
            required[n] = true;
            continue;
        }
        required[n] = true;
        for &leaf in cuts[n][best_cut[n]].leaves() {
            stack.push(leaf);
        }
    }
    // Build the XMG in topological order.
    let mut xmg = Xmg::new(aig.num_pis());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for (i, m) in map.iter_mut().enumerate().take(aig.num_pis() + 1) {
        *m = Lit::new(i, false);
    }
    for n in (aig.num_pis() + 1)..aig.num_nodes() {
        if !required[n] {
            continue;
        }
        let cut = &cuts[n][best_cut[n]];
        let leaves: Vec<Lit> = cut.leaves().iter().map(|&l| map[l]).collect();
        map[n] = xmg_from_tt4(&mut xmg, best_tt[n], &leaves);
    }
    for po in aig.pos() {
        let l = map[po.node()] ^ po.is_complement();
        xmg.add_po(l);
    }
    xmg.cleanup()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::{optimize_aig, OptimizeOptions};

    fn check_equiv(aig: &Aig, xmg: &Xmg) {
        assert_eq!(aig.num_pis(), xmg.num_pis());
        assert_eq!(aig.num_pos(), xmg.num_pos());
        let n = aig.num_pis();
        assert!(n <= 12, "test helper is exhaustive");
        for x in 0..(1u64 << n) {
            assert_eq!(aig.eval(x), xmg.eval(x), "x={x}");
        }
    }

    fn optimized_design(verilog: &str) -> Aig {
        let module = qda_verilog::parse_module(verilog).expect("generated Verilog parses");
        let aig = qda_verilog::elaborate(&module).expect("generated Verilog elaborates");
        optimize_aig(&aig, &OptimizeOptions::default())
    }

    #[test]
    fn table4_covers_are_pinned() {
        // The hierarchical flow maps the optimized AIG. Pins the chosen
        // cuts through the gate counts of the XMG they build.
        for (name, verilog, want) in [
            ("INTDIV(16)", qda_arith::intdiv_verilog(16), (613, 155)),
            ("NEWTON(8)", qda_arith::newton_verilog(8), (2_091, 1_435)),
        ] {
            let xmg = map_to_xmg(&optimized_design(&verilog));
            assert_eq!((xmg.num_majs(), xmg.num_xors()), want, "{name}");
        }
    }

    #[test]
    fn maps_full_adder_with_xor_and_maj() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        let axb = aig.xor(a, b);
        let sum = aig.xor(axb, c);
        let carry = aig.maj(a, b, c);
        aig.add_po(sum);
        aig.add_po(carry);
        let xmg = map_to_xmg(&aig);
        check_equiv(&aig, &xmg);
        // A good mapping recovers the arithmetic structure: no more than a
        // couple of MAJ gates, XORs for the sum.
        assert!(xmg.num_majs() <= 2, "{xmg:?}");
        assert!(xmg.num_xors() >= 1, "{xmg:?}");
    }

    #[test]
    fn maps_ripple_adder() {
        // 3-bit adder from word helpers: heavy XOR content.
        let mut aig = Aig::new(6);
        let a: Vec<Lit> = (0..3).map(|i| aig.pi(i)).collect();
        let b: Vec<Lit> = (0..3).map(|i| aig.pi(3 + i)).collect();
        let mut carry = Lit::FALSE;
        for i in 0..3 {
            let axb = aig.xor(a[i], b[i]);
            let s = aig.xor(axb, carry);
            let c = aig.maj(a[i], b[i], carry);
            aig.add_po(s);
            carry = c;
        }
        aig.add_po(carry);
        let xmg = map_to_xmg(&aig);
        check_equiv(&aig, &xmg);
        // The mapped XMG should use XORs (zero-T) generously.
        assert!(xmg.num_xors() >= 3, "{xmg:?}");
    }

    #[test]
    fn maps_random_logic() {
        let mut aig = Aig::new(5);
        let pis: Vec<Lit> = (0..5).map(|i| aig.pi(i)).collect();
        let t1 = aig.and(pis[0], !pis[1]);
        let t2 = aig.or(t1, pis[2]);
        let t3 = aig.xor(t2, pis[3]);
        let t4 = aig.mux(pis[4], t3, t1);
        let t5 = aig.maj(t2, t3, t4);
        aig.add_po(t4);
        aig.add_po(t5);
        let xmg = map_to_xmg(&aig);
        check_equiv(&aig, &xmg);
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        let mut aig = Aig::new(2);
        let a = aig.pi(0);
        aig.add_po(Lit::FALSE);
        aig.add_po(Lit::TRUE);
        aig.add_po(a);
        aig.add_po(!a);
        let xmg = map_to_xmg(&aig);
        check_equiv(&aig, &xmg);
        assert_eq!(xmg.num_gates(), 0);
    }

    #[test]
    fn xmg_from_tt_handles_all_two_var_functions() {
        for tt16 in 0..16u16 {
            // Expand a 2-var function to a 4-var table on vars {0,1}.
            let mut tt = 0u16;
            for x in 0..16u16 {
                let idx = x & 3;
                if (tt16 >> idx) & 1 == 1 {
                    tt |= 1 << x;
                }
            }
            let mut xmg = Xmg::new(2);
            let leaves = [xmg.pi(0), xmg.pi(1), Lit::FALSE, Lit::FALSE];
            let f = xmg_from_tt4(&mut xmg, tt, &leaves);
            xmg.add_po(f);
            for x in 0..4u64 {
                let expected = (tt16 >> x) & 1 == 1;
                assert_eq!(xmg.eval(x) == 1, expected, "tt={tt16:04b} x={x}");
            }
        }
    }
}
