//! Property-based tests for the core Boolean data structures.

use proptest::prelude::*;
use qda_logic::aig::{Aig, Lit};
use qda_logic::cube::Cube;
use qda_logic::esop::Esop;
use qda_logic::tt::TruthTable;

fn arb_tt(n: usize) -> impl Strategy<Value = TruthTable> {
    prop::collection::vec(any::<u64>(), 1usize.max(1 << n.saturating_sub(6)))
        .prop_map(move |words| TruthTable::from_words(n, words))
}

fn arb_cube(n: usize) -> impl Strategy<Value = Cube> {
    (any::<u64>(), any::<u64>()).prop_map(move |(care, pol)| {
        let mask = (1u64 << n) - 1;
        Cube::from_masks(care & mask, pol)
    })
}

/// A random AIG of 0–8 inputs, up to 39 ANDs and 1–4 outputs. Every AND
/// operand and every output is a literal built so far (the constant and
/// the inputs included), complemented at random.
fn arb_aig() -> impl Strategy<Value = Aig> {
    (
        0usize..9,
        prop::collection::vec(any::<u64>(), 0..40),
        prop::collection::vec(any::<u64>(), 1..5),
    )
        .prop_map(|(n, ands, outputs)| {
            let mut aig = Aig::new(n);
            let mut lits = vec![Lit::FALSE];
            lits.extend((0..n).map(|i| aig.pi(i)));
            let pick = |lits: &[Lit], r: u64| lits[(r >> 1) as usize % lits.len()] ^ (r & 1 == 1);
            for r in ands {
                let (a, b) = (pick(&lits, r), pick(&lits, r >> 32));
                let and = aig.and(a, b);
                lits.push(and);
            }
            for r in outputs {
                aig.add_po(pick(&lits, r));
            }
            aig
        })
}

proptest! {
    #[test]
    fn aig_truth_tables_match_eval(aig in arb_aig()) {
        let tables = aig.to_truth_tables();
        for x in 0..(1u64 << aig.num_pis()) {
            prop_assert_eq!(tables.eval(x), aig.eval(x));
        }
    }

    #[test]
    fn cube_covers_matches_literal_scan(a in arb_cube(8), b in arb_cube(8)) {
        // The factoring pass asks whether a pairwise common cube covers a
        // cube; that pair always covers.
        for (sub, c) in [(a, b), (a.common(&b), b)] {
            prop_assert_eq!(
                sub.covers(&c),
                sub.literals().all(|(v, pos)| c.literal(v) == Some(pos))
            );
        }
    }

    #[test]
    fn tt_double_complement_is_identity(tt in arb_tt(7)) {
        prop_assert_eq!(&!&!&tt, &tt);
    }

    #[test]
    fn tt_xor_self_is_zero(tt in arb_tt(7)) {
        prop_assert!((&tt ^ &tt).is_zero());
    }

    #[test]
    fn tt_de_morgan(a in arb_tt(6), b in arb_tt(6)) {
        let lhs = !&(&a & &b);
        let rhs = &!&a | &!&b;
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn tt_cofactor_shannon_expansion(tt in arb_tt(6), var in 0usize..6) {
        // f = (!x & f0) | (x & f1)
        let f0 = tt.cofactor(var, false);
        let f1 = tt.cofactor(var, true);
        let x = TruthTable::var(6, var);
        let rebuilt = &(&!&x & &f0) | &(&x & &f1);
        prop_assert_eq!(rebuilt, tt);
    }

    #[test]
    fn cube_distance_is_metric(a in arb_cube(8), b in arb_cube(8), c in arb_cube(8)) {
        prop_assert_eq!(a.distance(&a), 0);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c));
    }

    #[test]
    fn cube_merge_distance_one_preserves_function(a in arb_cube(6), b in arb_cube(6)) {
        if let Some(m) = a.merge_distance_one(&b) {
            for x in 0..64u64 {
                prop_assert_eq!(m.eval(x), a.eval(x) ^ b.eval(x));
            }
        }
    }

    #[test]
    fn cube_exorlink2_preserves_function(a in arb_cube(6), b in arb_cube(6), which in 0usize..2) {
        if let Some((a1, b1)) = a.exorlink2(&b, which) {
            for x in 0..64u64 {
                prop_assert_eq!(
                    a1.eval(x) ^ b1.eval(x),
                    a.eval(x) ^ b.eval(x)
                );
            }
        }
    }

    #[test]
    fn esop_reduce_preserves_function(tt in arb_tt(6)) {
        let mut esop = Esop::from_truth_table(&tt);
        esop.reduce();
        prop_assert_eq!(esop.to_truth_table(), tt);
    }
}
