//! Property-based tests: synthesis back-ends realize their specifications
//! on randomly generated functions.

use proptest::prelude::*;
use qda_logic::esop::{Esop, MultiEsop};
use qda_logic::tt::{MultiTruthTable, TruthTable};
use qda_rev::equiv::{verify_computes, VerifyOptions};
use qda_rev::testkit::arb_permutation;
use qda_revsynth::embed::{bennett_embedding, optimum_embedding};
use qda_revsynth::esop::{synthesize_esop, EsopSynthOptions};
use qda_revsynth::tbs::{transformation_based_synthesis, TbsDirection};

fn arb_multi_fn(n: usize, m: usize) -> impl Strategy<Value = MultiTruthTable> {
    prop::collection::vec(
        prop::collection::vec(any::<u64>(), 1usize.max(1 << n.saturating_sub(6))),
        m,
    )
    .prop_map(move |words| {
        MultiTruthTable::from_outputs(
            words
                .into_iter()
                .map(|w| TruthTable::from_words(n, w))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tbs_realizes_random_permutations(perm in arb_permutation(5), bidir in any::<bool>()) {
        let dir = if bidir { TbsDirection::Bidirectional } else { TbsDirection::Unidirectional };
        let c = transformation_based_synthesis(&perm, dir);
        for (x, &y) in perm.iter().enumerate() {
            prop_assert_eq!(c.simulate_u64(x as u64), y);
        }
    }

    #[test]
    fn embeddings_are_valid(f in arb_multi_fn(4, 3)) {
        let b = bennett_embedding(&f);
        prop_assert!(b.validate(&f));
        let o = optimum_embedding(&f);
        prop_assert!(o.validate(&f));
        prop_assert!(o.num_lines() <= b.num_lines());
    }

    #[test]
    fn tbs_of_optimum_embedding_computes_f(f in arb_multi_fn(4, 2)) {
        let e = optimum_embedding(&f);
        let m = e.num_outputs();
        let c = transformation_based_synthesis(e.permutation(), TbsDirection::Bidirectional);
        for x in 0..16u64 {
            prop_assert_eq!(c.simulate_u64(x) & ((1 << m) - 1), f.eval(x));
        }
    }

    #[test]
    fn esop_synthesis_computes_f(f in arb_multi_fn(4, 3), p in 0usize..3) {
        let esops: Vec<Esop> = f.outputs().iter().map(Esop::from_truth_table).collect();
        let esop = MultiEsop::from_single_outputs(&esops);
        let s = synthesize_esop(&esop, &EsopSynthOptions { factoring_passes: p });
        let outcome = verify_computes(
            &s.circuit,
            &s.input_lines,
            &s.output_lines,
            |x| f.eval(x),
            &VerifyOptions {
                check_ancilla_clean: true,
                check_inputs_preserved: true,
                ..Default::default()
            },
        );
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}
