//! Differential tests of the peephole optimizer: on random mixed-polarity
//! MPMCT circuits (3–12 lines), the optimizer output must realize exactly
//! the input function on the **full** line space, never cost more, be a
//! fixpoint of its own rule set, and keep its per-rule statistics
//! consistent with the gates it removed. The in-place engine must also
//! reproduce the split-and-copy reference of `qda_rev::testkit` exactly —
//! circuit and statistics — with and without assumed-zero lines, at
//! several windows, and on circuits with many support-disjoint
//! components.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use qda_rev::circuit::Circuit;
use qda_rev::gate::{Control, Gate};
use qda_rev::opt::{
    equivalence_witness, optimize, optimize_assuming, optimize_checked, OptOptions,
};
use qda_rev::resynth::{resynthesize, ResynthOptions};
use qda_rev::testkit::{arb_mpmct_circuit, optimize_by_components};
use qda_revsynth::resynth::default_window_synthesizers;

/// A random circuit on 3–12 lines with up to 40 mixed-polarity gates.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    arb_mpmct_circuit(3..13, 40)
}

/// Exhaustive scalar comparison over every basis state of the full line
/// space — deliberately independent of the batch engine the optimizer's
/// own check uses.
fn same_permutation(a: &Circuit, b: &Circuit) -> Result<(), u64> {
    assert_eq!(a.num_lines(), b.num_lines());
    for x in 0..(1u64 << a.num_lines()) {
        if a.simulate_u64(x) != b.simulate_u64(x) {
            return Err(x);
        }
    }
    Ok(())
}

/// One of the windows {1, 2, 8, 32}.
fn arb_window() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [1, 2, 8, 32][i])
}

/// A random assumed-zero line set of a `lines`-line circuit: empty a
/// quarter of the time, otherwise each line with probability ½.
fn zero_lines(lines: usize, rng: &mut TestRng) -> Vec<usize> {
    if rng.next_u64().is_multiple_of(4) {
        return Vec::new();
    }
    let bits: Vec<u64> = (0..lines.div_ceil(64)).map(|_| rng.next_u64()).collect();
    (0..lines)
        .filter(|&l| (bits[l / 64] >> (l % 64)) & 1 == 1)
        .collect()
}

/// A gate with target `group[t]` and, for every other line of `group`, a
/// control when the line's bit of `cmask` is set (polarity from `pmask`).
fn group_gate(group: &[usize], t: usize, cmask: u64, pmask: u64) -> Gate {
    let controls = (0..group.len())
        .filter(|&k| k != t && (cmask >> k) & 1 == 1)
        .map(|k| {
            if (pmask >> k) & 1 == 1 {
                Control::positive(group[k])
            } else {
                Control::negative(group[k])
            }
        })
        .collect();
    Gate::mct(controls, group[t])
}

/// A random circuit on 4–139 lines whose gates each stay inside one of
/// a few groups of 2–4 lines (the groups are scattered over the line
/// indices, across mask words on wide circuits), so most cases have
/// several support-disjoint components interleaved in the cascade.
fn arb_grouped_circuit() -> impl Strategy<Value = Circuit> {
    (4usize..140, 0usize..120).prop_perturb(|(lines, gates), mut rng| {
        let mut order: Vec<usize> = (0..lines).collect();
        for i in (1..lines).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut groups: Vec<&[usize]> = Vec::new();
        let mut rest = &order[..];
        while rest.len() >= 2 && groups.len() < 6 {
            let size = (2 + (rng.next_u64() % 3) as usize).min(rest.len());
            let (group, tail) = rest.split_at(size);
            groups.push(group);
            rest = tail;
        }
        let mut c = Circuit::new(lines);
        for _ in 0..gates {
            let group = groups[(rng.next_u64() % groups.len() as u64) as usize];
            let t = (rng.next_u64() % group.len() as u64) as usize;
            c.add_gate(group_gate(group, t, rng.next_u64(), rng.next_u64()));
        }
        c
    })
}

/// Asserts the in-place optimizer and the split-and-copy reference agree
/// on circuit and statistics.
fn assert_matches_reference(c: &Circuit, window: usize, zeros: &[usize]) {
    let options = OptOptions { window };
    let out = optimize_assuming(c, &options, zeros);
    let reference = optimize_by_components(c, &options, zeros);
    assert_eq!(
        out.circuit, reference.circuit,
        "window {window}, zero lines {zeros:?}:\n{c}"
    );
    assert_eq!(
        out.stats, reference.stats,
        "window {window}, zero lines {zeros:?}"
    );
}

proptest! {
    #[test]
    fn in_place_engine_matches_the_reference(
        case in arb_mpmct_circuit(3..13, 40).prop_perturb(|c, mut rng| {
            let zeros = zero_lines(c.num_lines(), &mut rng);
            (c, zeros)
        }),
        window in arb_window(),
    ) {
        let (c, zeros) = case;
        assert_matches_reference(&c, window, &zeros);
    }

    #[test]
    fn in_place_engine_matches_the_reference_on_many_components(
        case in arb_grouped_circuit().prop_perturb(|c, mut rng| {
            let zeros = zero_lines(c.num_lines(), &mut rng);
            (c, zeros)
        }),
        window in arb_window(),
    ) {
        let (c, zeros) = case;
        assert_matches_reference(&c, window, &zeros);
    }

    #[test]
    fn optimized_circuit_is_equivalent_to_its_input(c in arb_circuit()) {
        let out = optimize(&c, &OptOptions::default());
        if let Err(x) = same_permutation(&c, &out.circuit) {
            prop_assert!(false, "diverges at state {x:#b}:\n{c}\n{}", out.circuit);
        }
        // …and the optimizer's own batch-simulation check agrees.
        prop_assert_eq!(equivalence_witness(&c, &out.circuit), None);
    }

    #[test]
    fn optimize_checked_accepts_every_random_circuit(c in arb_circuit()) {
        let checked = optimize_checked(&c, &OptOptions::default());
        prop_assert!(checked.is_ok());
    }

    #[test]
    fn cost_never_increases(c in arb_circuit()) {
        let before = c.cost();
        let out = optimize(&c, &OptOptions::default());
        let after = out.circuit.cost();
        prop_assert!(after.t_count <= before.t_count,
            "T-count regressed: {} -> {}", before.t_count, after.t_count);
        prop_assert!(after.gates <= before.gates,
            "gate count regressed: {} -> {}", before.gates, after.gates);
        prop_assert_eq!(after.qubits, before.qubits);
    }

    #[test]
    fn optimizer_is_idempotent(c in arb_circuit()) {
        let once = optimize(&c, &OptOptions::default());
        let twice = optimize(&once.circuit, &OptOptions::default());
        prop_assert_eq!(&twice.circuit, &once.circuit,
            "second pass still found rewrites: {:?}", twice.stats);
        prop_assert_eq!(twice.stats.total_rewrites(), 0);
    }

    #[test]
    fn stats_account_for_every_removed_gate(c in arb_circuit()) {
        let out = optimize(&c, &OptOptions::default());
        let removed = (c.num_gates() - out.circuit.num_gates()) as u64;
        let s = out.stats;
        prop_assert_eq!(
            removed,
            2 * s.cancellations + s.polarity_merges + s.subset_merges + 2 * s.not_absorptions
        );
        prop_assert_eq!(s.rejected, 0);
    }

    #[test]
    fn every_window_size_is_sound(c in arb_circuit(), window in 1usize..48) {
        let out = optimize(&c, &OptOptions { window });
        prop_assert!(same_permutation(&c, &out.circuit).is_ok(), "window {window}");
        prop_assert!(out.circuit.cost().t_count <= c.cost().t_count);
    }
}

#[test]
fn a_constant_pass_that_splits_a_component_matches_the_reference() {
    // Round one: the CNOT(3;4) pair makes line 4 input-dependent at the
    // bridge T(4,0;2), which joins {0,1} and {2,3} into one component;
    // the pair cancels. Round two: line 4 is zero throughout, so the
    // constant pass removes the bridge and the component splits. Only
    // now does the CNOT(0;1) pair sit adjacent in its own component, so
    // it cancels at window 1 — a scan still counting the {2,3} gates
    // between the halves would miss it.
    let mut c = Circuit::new(5);
    c.cnot(3, 4);
    c.cnot(3, 4);
    c.toffoli(4, 0, 2);
    c.cnot(0, 1);
    c.cnot(2, 3);
    c.cnot(3, 2);
    c.cnot(0, 1);
    for window in [1, 2, 8, 32] {
        assert_matches_reference(&c, window, &[4]);
    }
    let out = optimize_assuming(&c, &OptOptions { window: 1 }, &[4]);
    assert_eq!(out.circuit.gates(), [Gate::cnot(2, 3), Gate::cnot(3, 2)]);
    assert_eq!((out.stats.cancellations, out.stats.const_dead), (2, 1));
    let no_split = optimize(&c, &OptOptions { window: 1 });
    assert_eq!(no_split.circuit.num_gates(), 5, "{}", no_split.circuit);
}

/// Hundreds of two-gate components (a CNOT pair on lines of their own)
/// spread through one component of `big` gates on lines 0–7.
fn small_components_in_a_big_one(big: usize, pairs: usize) -> Circuit {
    let base = 8;
    let mut c = Circuit::new(base + 2 * pairs);
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let group: Vec<usize> = (0..base).collect();
    let spacing = big / pairs;
    for i in 0..big {
        let t = (next() % base as u64) as usize;
        c.add_gate(group_gate(&group, t, next() & next(), next()));
        if i % spacing == spacing / 2 && i / spacing < pairs {
            // The pair's halves sit a few big-component gates apart: the
            // big component's gates never count against its window.
            let k = i / spacing;
            let (a, b) = (base + 2 * k, base + 2 * k + 1);
            c.cnot(a, b);
            for _ in 0..3 {
                let t = (next() % base as u64) as usize;
                c.add_gate(group_gate(&group, t, next() & next(), next()));
            }
            c.cnot(a, b);
        }
    }
    c
}

#[test]
fn small_components_inside_a_big_one_match_the_reference() {
    let c = small_components_in_a_big_one(10_000, 300);
    assert_matches_reference(&c, 32, &[]);
    let out = optimize(&c, &OptOptions::default());
    assert!(out.stats.cancellations >= 300, "{:?}", out.stats);
    let zeros: Vec<usize> = (4..c.num_lines()).collect();
    assert_matches_reference(&c, 8, &zeros);
}

#[test]
fn resynthesized_input_with_dead_slots_matches_the_reference() {
    // Resynthesis splices replacements in front of their windows, so its
    // output arena is neither compact nor in slot order.
    let mut c = Circuit::new(5);
    for i in 0..40 {
        c.toffoli(i % 5, (i + 1) % 5, (i + 3) % 5);
        c.cnot((i + 2) % 5, (i + 4) % 5);
    }
    let synths = default_window_synthesizers();
    let resynthesized = resynthesize(&c, &ResynthOptions::default(), &synths).circuit;
    assert_ne!(
        resynthesized.packed().slot_count(),
        resynthesized.num_gates()
    );
    assert_matches_reference(&resynthesized, 32, &[]);
    assert_matches_reference(&resynthesized, 2, &[1, 3]);
}
