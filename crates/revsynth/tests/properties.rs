//! Property-based tests: synthesis back-ends realize their specifications
//! on randomly generated functions, and transformation-based synthesis
//! emits exactly the gates of its plain `Gate`-based reference.

use proptest::prelude::*;
use qda_logic::esop::{Esop, MultiEsop};
use qda_logic::tt::{MultiTruthTable, TruthTable};
use qda_rev::circuit::Circuit;
use qda_rev::equiv::{verify_computes, VerifyOptions};
use qda_rev::gate::{Control, Gate};
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

/// The reference transformation-based synthesis: the same moves as
/// [`transformation_based_synthesis`], each emitted as a `Gate` built
/// from its control list and appended through [`Circuit::add_gate`].
fn tbs_reference(perm: &[u64], direction: TbsDirection) -> Circuit {
    let size = perm.len();
    let r = size.trailing_zeros() as usize;
    let mut fwd: Vec<u64> = perm.to_vec();
    let mut inv: Vec<u64> = vec![0; size];
    for (x, &y) in fwd.iter().enumerate() {
        inv[y as usize] = x as u64;
    }
    let mut out_gates: Vec<Gate> = Vec::new();
    let mut in_gates: Vec<Gate> = Vec::new();
    for x in 0..size as u64 {
        let y = fwd[x as usize];
        if y == x {
            continue;
        }
        let xp = inv[x as usize];
        let input_side = direction == TbsDirection::Bidirectional
            && (xp ^ x).count_ones() < (y ^ x).count_ones();
        let (from, gates) = if input_side {
            (xp, &mut in_gates)
        } else {
            (y, &mut out_gates)
        };
        let mut cur = from;
        let mut bit_order: Vec<usize> = (0..r).filter(|&j| (from ^ x) >> j & 1 == 1).collect();
        bit_order.sort_by_key(|&j| (x >> j) & 1 == 0);
        for j in bit_order {
            gates.push(transposition_gate(cur, j, r));
            let other = cur ^ (1 << j);
            if input_side {
                let (y0, y1) = (fwd[cur as usize], fwd[other as usize]);
                fwd[cur as usize] = y1;
                fwd[other as usize] = y0;
                inv[y0 as usize] = other;
                inv[y1 as usize] = cur;
            } else {
                let (x0, x1) = (inv[cur as usize], inv[other as usize]);
                fwd[x0 as usize] = other;
                fwd[x1 as usize] = cur;
                inv[cur as usize] = x1;
                inv[other as usize] = x0;
            }
            cur = other;
        }
    }
    let mut circuit = Circuit::new(r);
    for g in in_gates.into_iter().chain(out_gates.into_iter().rev()) {
        circuit.add_gate(g);
    }
    circuit
}

/// The full-control transposition gate exchanging `v` and `v ^ (1 << j)`.
fn transposition_gate(v: u64, j: usize, r: usize) -> Gate {
    let controls: Vec<Control> = (0..r)
        .filter(|&k| k != j)
        .map(|k| {
            if (v >> k) & 1 == 1 {
                Control::positive(k)
            } else {
                Control::negative(k)
            }
        })
        .collect();
    Gate::mct(controls, j)
}

proptest! {
    #[test]
    fn tbs_matches_the_gate_based_reference(
        perm in (1usize..13).prop_perturb(|r, mut rng| arb_permutation(r).generate(&mut rng)),
        bidir in any::<bool>(),
    ) {
        let dir = if bidir { TbsDirection::Bidirectional } else { TbsDirection::Unidirectional };
        let c = transformation_based_synthesis(&perm, dir);
        prop_assert_eq!(c, tbs_reference(&perm, dir));
    }
}
