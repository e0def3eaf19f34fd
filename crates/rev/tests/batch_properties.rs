//! Property tests pinning the bit-parallel batch simulator bit-exactly
//! against scalar `BitState` replay: random MPMCT circuits with mixed
//! polarities, beyond 64 lines (multi-word scalar states) and beyond 64
//! states (multi-word lanes), whole and in gate ranges, plus
//! outcome-identity of the two `verify_computes` engines including the
//! reported witness. The batch kernels replay a circuit's arena slots in
//! order, so every way of producing a circuit must leave its arena
//! compact.

use proptest::prelude::*;
use qda_rev::batchsim::BatchState;
use qda_rev::circuit::Circuit;
use qda_rev::equiv::{verify_computes, VerifyOptions};
use qda_rev::gate::{Control, Gate};
use qda_rev::io::{from_real, to_real};
use qda_rev::opt::{optimize_assuming, OptOptions};
use qda_rev::packed::words_for_lines;
use qda_rev::resynth::{resynthesize, ResynthOptions};
use qda_rev::state::BitState;
use qda_rev::testkit::DenseGate;
use qda_revsynth::resynth::default_window_synthesizers;
use std::ops::Range;

/// A random mixed-polarity MPMCT gate whose target and controls lie in
/// `support` (at least four lines). Draws control lines from an RNG
/// instead of a 64-bit mask, so it works beyond 64 lines.
fn arb_gate(support: Range<usize>) -> impl Strategy<Value = Gate> {
    (support.clone(), 0usize..4).prop_perturb(move |(target, n_controls), mut rng| {
        let mut controls: Vec<Control> = Vec::new();
        let mut used = vec![false; support.end];
        used[target] = true;
        while controls.len() < n_controls {
            let l = support.start + (rng.next_u64() % support.len() as u64) as usize;
            if used[l] {
                continue;
            }
            used[l] = true;
            controls.push(if rng.next_u64() & 1 == 1 {
                Control::positive(l)
            } else {
                Control::negative(l)
            });
        }
        Gate::mct(controls, target)
    })
}

/// A random circuit on `lines` lines whose gates all lie in `support`.
fn arb_circuit(
    lines: usize,
    support: Range<usize>,
    max_gates: usize,
) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(support), 0..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(lines);
        for g in gates {
            c.add_gate(g);
        }
        c
    })
}

/// `count` random full-line assignments, one word per 64-line chunk of
/// `lines` lines (bits past the chunk's width are ignored).
fn arb_states(lines: usize, count: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    Just(()).prop_perturb(move |(), mut rng| {
        (0..count)
            .map(|_| (0..lines.div_ceil(64)).map(|_| rng.next_u64()).collect())
            .collect()
    })
}

/// `states` (as drawn by [`arb_states`]) loaded into one batch on
/// `lines` lines.
fn load_states(lines: usize, states: &[Vec<u64>]) -> BatchState {
    let mut batch = BatchState::zeros(lines, states.len());
    let all: Vec<usize> = (0..lines).collect();
    for (i, chunk) in all.chunks(64).enumerate() {
        let values: Vec<u64> = states.iter().map(|words| words[i]).collect();
        batch.load_register(chunk, &values);
    }
    batch
}

/// Replays `states` (as drawn by [`arb_states`]) through `c` in one
/// batch and one state at a time, and asserts that every line agrees.
fn assert_batch_matches_scalar(c: &Circuit, states: &[Vec<u64>]) {
    let all: Vec<usize> = (0..c.num_lines()).collect();
    let chunks: Vec<&[usize]> = all.chunks(64).collect();
    let mut batch = load_states(c.num_lines(), states);
    c.apply_batch(&mut batch);
    let outs: Vec<Vec<u64>> = chunks
        .iter()
        .map(|chunk| batch.read_register(chunk))
        .collect();
    for (k, words) in states.iter().enumerate() {
        let mut s = BitState::zeros(c.num_lines());
        for (chunk, &word) in chunks.iter().zip(words) {
            s.write_register(chunk, word);
        }
        c.apply(&mut s);
        for (chunk, out) in chunks.iter().zip(&outs) {
            assert_eq!(
                out[k],
                s.read_register(chunk),
                "{} lines, {} states: state {k}, lines from {}",
                c.num_lines(),
                states.len(),
                chunk[0]
            );
        }
    }
}

/// Asserts that `c`'s arena is compact: its slots are exactly its gates,
/// ids `0..n` in circuit order.
fn assert_compact(c: &Circuit, path: &str) {
    let arena = c.packed();
    assert_eq!(arena.slot_count(), c.num_gates(), "{path}: dead slots");
    assert!(
        arena.iter().map(|(id, _)| id).eq(0..c.num_gates()),
        "{path}: slot ids out of circuit order"
    );
}

/// `c` rebuilt gate by gate through [`Circuit::add_masks`].
fn rebuilt_from_masks(c: &Circuit) -> Circuit {
    let words = words_for_lines(c.num_lines());
    let mut out = Circuit::new(c.num_lines());
    for gate in c.gates() {
        let dense = DenseGate::from_gate(&gate, words);
        out.add_masks(&dense.ctrl, &dense.pol, dense.target);
    }
    out
}

#[test]
fn resynthesized_circuits_are_compact_and_replay_in_order() {
    // Resynthesis splices its replacements in before each window, so its
    // edited arena holds dead slots and live gates whose slot ids run
    // backwards along the cascade; the output circuit is compacted.
    let mut c = Circuit::new(6);
    c.not(0);
    c.cnot(0, 1);
    c.not(0);
    c.toffoli(2, 3, 4);
    c.toffoli(4, 5, 2);
    c.toffoli(1, 2, 3);
    let synths = default_window_synthesizers();
    let out = resynthesize(&c, &ResynthOptions::default(), &synths).circuit;
    assert_compact(&out, "resynthesize");
    let states: Vec<Vec<u64>> = (0..64).map(|x| vec![x]).collect();
    assert_batch_matches_scalar(&out, &states);
    assert_eq!(out.permutation(), c.permutation());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_matches_scalar_replay_beyond_64_lines_and_64_states(
        c in arb_circuit(70, 0..70, 40),
        states in arb_states(70, 100),
        high in arb_circuit(200, 128..192, 40),
        straddling in arb_circuit(200, 100..160, 40),
        wide_states in arb_states(200, 1100),
    ) {
        // 70 lines → multi-word scalar states; 100 states → multi-word
        // lanes with a ragged tail.
        assert_batch_matches_scalar(&c, &states);
        // 200 lines with every gate inside one high 64-line word or
        // straddling two, so each gate's low mask words are all zero; at
        // 100 states (the tail kernel only), 1 024 (two full blocks) and
        // 1 100 (full blocks, then a ragged tail).
        for circuit in [&high, &straddling] {
            for count in [100, 1024, 1100] {
                assert_batch_matches_scalar(circuit, &wide_states[..count]);
            }
        }
    }

    #[test]
    fn every_circuit_path_returns_a_compact_arena(
        narrow in arb_circuit(10, 0..10, 40),
        wide in arb_circuit(130, 40..130, 40),
        zero in prop::collection::vec(any::<bool>(), 130),
    ) {
        let synths = default_window_synthesizers();
        for c in [&narrow, &wide] {
            let zero_lines: Vec<usize> = (0..c.num_lines()).filter(|&l| zero[l]).collect();
            let mut extended = c.clone();
            extended.extend_from(&c.inverse());
            let paths = [
                (
                    "optimize_assuming",
                    optimize_assuming(c, &OptOptions::default(), &zero_lines).circuit,
                ),
                (
                    "resynthesize",
                    resynthesize(c, &ResynthOptions::default(), &synths).circuit,
                ),
                ("inverse", c.inverse()),
                ("extend_from", extended),
                ("from_real", from_real(&to_real(c)).expect("round trip")),
                ("add_masks", rebuilt_from_masks(c)),
            ];
            for (path, out) in &paths {
                assert_compact(out, path);
            }
        }
    }

    #[test]
    fn gate_range_replay_matches_whole_and_scalar_replay(
        case in (70usize..301).prop_perturb(|lines, mut rng| {
            (arb_circuit(lines, 0..lines, 40), arb_states(lines, 1100)).generate(&mut rng)
        }),
        cuts in prop::collection::vec(0usize..41, 0..6),
    ) {
        let (c, states) = case;
        // The gates in consecutive ranges split at random cut points
        // (empty ranges included), at 100 states (the tail kernel only),
        // 1 024 (two full blocks) and 1 100 (full blocks, then a ragged
        // tail).
        let mut bounds: Vec<usize> = cuts.iter().map(|&k| k.min(c.num_gates())).collect();
        bounds.extend([0, c.num_gates()]);
        bounds.sort_unstable();
        for count in [100, 1024, 1100] {
            let mut whole = load_states(c.num_lines(), &states[..count]);
            let mut split = whole.clone();
            c.apply_batch(&mut whole);
            for range in bounds.windows(2) {
                c.apply_batch_gates(&mut split, range[0]..range[1]);
            }
            prop_assert_eq!(&split, &whole, "{} states, cuts {:?}", count, &bounds);
            assert_batch_matches_scalar(&c, &states[..count]);
        }
    }

    #[test]
    fn simulate_batch_matches_simulate_u64(
        c in arb_circuit(10, 0..10, 40),
        inputs in prop::collection::vec(0u64..1024, 65..200),
    ) {
        let batch = c.simulate_batch(&inputs);
        for (k, &x) in inputs.iter().enumerate() {
            prop_assert_eq!(batch[k], c.simulate_u64(x), "state {}", k);
        }
    }

    #[test]
    fn register_io_round_trips_through_the_transpose(
        values in prop::collection::vec(any::<u64>(), 65..200),
        width in 1usize..64,
    ) {
        let lines: Vec<usize> = (0..width).collect();
        let mut batch = BatchState::zeros(width, values.len());
        let masked: Vec<u64> = values
            .iter()
            .map(|v| if width == 64 { *v } else { v & ((1 << width) - 1) })
            .collect();
        batch.load_register(&lines, &masked);
        prop_assert_eq!(batch.read_register(&lines), masked);
    }

    #[test]
    fn verify_outcomes_identical_between_batch_and_scalar(
        golden in arb_circuit(10, 0..10, 24),
        mutant in arb_circuit(10, 0..10, 24),
        checks in any::<bool>(),
        force_sampling in any::<bool>(),
    ) {
        // Verify `mutant` against `golden` as the oracle: usually a
        // mismatch or dirty line, occasionally equivalent — either way
        // the two engines must report the identical outcome, witness
        // included, on the exhaustive and sampled paths alike.
        let input_lines: Vec<usize> = (0..7).collect();
        let output_lines: Vec<usize> = (3..8).collect();
        let oracle = |x: u64| {
            let mut s = BitState::zeros(10);
            s.write_register(&input_lines, x);
            golden.apply(&mut s);
            s.read_register(&output_lines)
        };
        let run = |batch: bool| {
            verify_computes(
                &mutant,
                &input_lines,
                &output_lines,
                oracle,
                &VerifyOptions {
                    batch,
                    exhaustive_limit: if force_sampling { 3 } else { 16 },
                    random_samples: 96,
                    check_ancilla_clean: checks,
                    check_inputs_preserved: checks,
                },
            )
        };
        prop_assert_eq!(run(true), run(false));
    }

    #[test]
    fn batched_permutation_is_a_permutation_matching_scalar(
        c in arb_circuit(11, 0..11, 24),
    ) {
        // 11 lines = 2048 states: permutation() spans two batches.
        let perm = c.permutation().expect("11 lines is within the cap");
        prop_assert_eq!(perm.len(), 1 << 11);
        let mut seen = vec![false; perm.len()];
        for (x, &y) in perm.iter().enumerate() {
            prop_assert!(!seen[y as usize], "not a permutation");
            seen[y as usize] = true;
            if x % 97 == 0 {
                prop_assert_eq!(y, c.simulate_u64(x as u64), "input {}", x);
            }
        }
    }
}
