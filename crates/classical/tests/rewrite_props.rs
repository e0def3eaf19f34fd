//! Pins `optimize_aig`, node for node, to the round-by-round composition
//! of the public passes: a cleanup of the input, then `balance` and
//! `fraig_exact` per round (each cleaning its output), stopping at the
//! first round that does not shrink the AIG.

use proptest::prelude::*;
use qda_classical::rewrite::{balance, fraig_exact, optimize_aig, OptimizeOptions};
use qda_logic::aig::{Aig, Lit};
use std::ops::Range;

/// `optimize_aig` as a composition of cleaned passes: the reference.
fn optimize_by_rounds(aig: &Aig, options: &OptimizeOptions) -> Aig {
    let mut cur = aig.cleanup();
    for _ in 0..options.rounds {
        let balanced = balance(&cur);
        let fraiged = if balanced.num_pis() <= options.fraig_limit {
            fraig_exact(&balanced)
        } else {
            balanced
        };
        if fraiged.num_ands() >= cur.num_ands() {
            break;
        }
        cur = fraiged;
    }
    cur
}

/// Node-for-node equality: the same nodes with the same fanins, and the
/// same outputs.
fn assert_same_aig(got: &Aig, want: &Aig, what: &str) {
    assert_eq!(
        (got.num_pis(), got.num_nodes()),
        (want.num_pis(), want.num_nodes()),
        "{what}"
    );
    for n in (got.num_pis() + 1)..got.num_nodes() {
        assert_eq!(got.fanins(n), want.fanins(n), "{what}: node {n}");
    }
    assert_eq!(got.pos(), want.pos(), "{what}");
}

fn check(aig: &Aig, options: &OptimizeOptions, what: &str) {
    assert_same_aig(
        &optimize_aig(aig, options),
        &optimize_by_rounds(aig, options),
        what,
    );
}

/// A random AIG with its input count drawn from `num_pis`, fewer than
/// `max_ands` gates (three in four an AND, else an XOR of three ANDs) and
/// 1–4 outputs. Operands are literals built so far, the constant and the
/// inputs included. Half the first operands are the last literal,
/// complemented one time in four, so single-fanout AND chains form for
/// balance to rebuild; every other pick is uniform and complemented at
/// random. The first output is the last literal and the rest are uniform
/// picks, so most AIGs keep dead ANDs.
fn arb_aig(num_pis: Range<usize>, max_ands: usize) -> impl Strategy<Value = Aig> {
    (
        num_pis,
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..max_ands),
        prop::collection::vec(any::<u64>(), 1..5),
    )
        .prop_map(|(n, ands, outputs)| {
            let mut aig = Aig::new(n);
            let mut lits = vec![Lit::FALSE];
            lits.extend((0..n).map(|i| aig.pi(i)));
            let pick = |lits: &[Lit], r: u64| {
                if r & 2 == 2 {
                    lits[lits.len() - 1] ^ ((r >> 2) & 3 == 3)
                } else {
                    lits[(r >> 4) as usize % lits.len()] ^ (r & 1 == 1)
                }
            };
            for (ra, rb) in ands {
                let (a, b) = (pick(&lits, ra), pick(&lits, rb & !2));
                let f = match ra >> 62 {
                    3 => aig.xor(a, b),
                    _ => aig.and(a, b),
                };
                lits.push(f);
            }
            let last = *lits.last().expect("the constant is in the pool");
            aig.add_po(last ^ (outputs[0] & 1 == 1));
            for &r in &outputs[1..] {
                aig.add_po(pick(&lits, r & !2));
            }
            aig
        })
}

proptest! {
    #[test]
    fn optimize_is_the_cleaned_rounds_with_dead_nodes(
        aig in arb_aig(0..13, 160),
        rounds in 0usize..5,
    ) {
        let options = OptimizeOptions { rounds, ..OptimizeOptions::default() };
        check(&aig, &options, &format!("{aig:?}, {rounds} rounds"));
    }

    #[test]
    fn optimize_is_the_cleaned_rounds_without_fraig(aig in arb_aig(17..25, 200)) {
        // Past the default fraig limit of 16 inputs every round is
        // balance only.
        check(&aig, &OptimizeOptions::default(), &format!("{aig:?}"));
    }
}

fn design_aig(verilog: &str) -> Aig {
    let module = qda_verilog::parse_module(verilog).expect("generated Verilog parses");
    qda_verilog::elaborate(&module).expect("generated Verilog elaborates")
}

#[test]
fn optimize_is_the_cleaned_rounds_on_the_paper_designs() {
    let options = OptimizeOptions::default();
    for n in 4..=10 {
        check(
            &design_aig(&qda_arith::intdiv_verilog(n)),
            &options,
            &format!("INTDIV({n})"),
        );
        check(
            &design_aig(&qda_arith::newton_verilog(n)),
            &options,
            &format!("NEWTON({n})"),
        );
    }
    check(
        &design_aig(&qda_arith::intdiv_verilog(16)),
        &options,
        "INTDIV(16)",
    );
}
