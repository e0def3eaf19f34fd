//! Differential tests of the windowed resynthesis pass: on random
//! mixed-polarity MPMCT circuits, the resynthesized output must realize
//! exactly the input function (checked by scalar *and* bit-parallel batch
//! simulation independently), never cost more, be a fixpoint of its own
//! pass, respect the window line budget, and keep its per-window
//! statistics consistent. The pass must also reproduce the plain full
//! sweep of `qda_rev::testkit` exactly, on random circuits and on
//! circuits that repeat one window on disjoint lines, so its permutation
//! memo and its clean starts change only how much work it does.

use proptest::prelude::*;
use qda_rev::circuit::Circuit;
use qda_rev::gate::{Control, Gate};
use qda_rev::resynth::{resynthesize, resynthesize_checked, ResynthOptions, WindowSynthesizer};
use qda_rev::testkit::{arb_mpmct_circuit, resynthesize_full_sweep};
use qda_revsynth::resynth::default_window_synthesizers;
use std::sync::atomic::{AtomicU64, Ordering};

/// Scalar replay over the full state space — one [`Circuit::simulate_u64`]
/// call per basis state, no batch engine involved.
fn scalar_table(c: &Circuit) -> Vec<u64> {
    (0..1u64 << c.num_lines())
        .map(|x| c.simulate_u64(x))
        .collect()
}

/// Bit-parallel replay over the full state space — the transposed batch
/// engine behind [`Circuit::permutation`], deliberately a different code
/// path than [`scalar_table`].
fn batch_table(c: &Circuit) -> Vec<u64> {
    c.permutation().expect("test circuits stay within the cap")
}

/// The default options half the time; otherwise a small line, gate and
/// skip budget, so a splice's reach — how far back it dirties starts — is
/// short and its boundary gets exercised.
fn arb_options() -> impl Strategy<Value = ResynthOptions> {
    (any::<bool>(), 2usize..7, 1usize..8, 0usize..5).prop_map(
        |(default, max_lines, max_window_gates, max_commute_skips)| {
            if default {
                ResynthOptions::default()
            } else {
                ResynthOptions {
                    max_lines,
                    max_window_gates,
                    max_commute_skips,
                }
            }
        },
    )
}

/// A control on `line` with the polarity of bit 0 of `polarity`.
fn control(line: usize, polarity: u64) -> Control {
    if polarity & 1 == 1 {
        Control::positive(line)
    } else {
        Control::negative(line)
    }
}

/// One random window (the gate encoding of `arb_mpmct_circuit`) repeated
/// on disjoint groups of `width` lines, with narrow unrelated gates
/// inserted at random positions: about half on two idle lines, which
/// growth commutes past, the rest anywhere, which poisons the lines they
/// touch.
fn arb_tiled_circuit() -> impl Strategy<Value = Circuit> {
    (
        2usize..5,
        2usize..6,
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 2..7),
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
    )
        .prop_map(|(width, copies, window, others)| {
            let first_idle = width * copies;
            let lines = first_idle + 2;
            let mut gates = Vec::new();
            for base in (0..first_idle).step_by(width) {
                for &(tsel, cmask, pmask) in &window {
                    let target = (tsel % width as u64) as usize;
                    let controls = (0..width)
                        .filter(|&l| l != target && (cmask >> l) & 1 == 1)
                        .map(|l| control(base + l, pmask >> l))
                        .collect();
                    gates.push(Gate::mct(controls, base + target));
                }
            }
            for (at, sel, pmask) in others {
                let (from, span) = if pmask & 2 == 0 {
                    (first_idle, 2)
                } else {
                    (0, lines)
                };
                let target = from + (sel % span as u64) as usize;
                let line = from + ((sel >> 32) % span as u64) as usize;
                let controls = if line == target {
                    Vec::new()
                } else {
                    vec![control(line, pmask)]
                };
                let at = (at % (gates.len() as u64 + 1)) as usize;
                gates.insert(at, Gate::mct(controls, target));
            }
            let mut c = Circuit::new(lines);
            for g in gates {
                c.add_gate(g);
            }
            c
        })
}

/// The production pass must return the full sweep's circuit, accepted
/// windows, gate/T deltas and pass count; it may only extract fewer
/// windows and race fewer permutations.
fn assert_matches_full_sweep(c: &Circuit, options: &ResynthOptions) {
    let synths = default_window_synthesizers();
    let fast = resynthesize(c, options, &synths);
    let full = resynthesize_full_sweep(c, options, &synths);
    assert_eq!(fast.circuit, full.circuit);
    let (f, r) = (fast.stats, full.stats);
    assert_eq!(
        (
            f.windows_accepted,
            f.gates_removed,
            f.gates_added,
            f.t_removed,
            f.t_added,
            f.passes
        ),
        (
            r.windows_accepted,
            r.gates_removed,
            r.gates_added,
            r.t_removed,
            r.t_added,
            r.passes
        )
    );
    assert!(f.windows_attempted <= r.windows_attempted);
    assert_eq!(f.windows_attempted, f.windows_accepted + f.windows_rejected);
    assert!(f.memo_hits <= f.windows_attempted);
    assert_eq!((r.memo_hits, r.clean_skips), (0, 0));
}

proptest! {
    #[test]
    fn resynth_preserves_the_function_by_scalar_and_batch_sim(
        c in arb_mpmct_circuit(2..9, 24),
    ) {
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &default_window_synthesizers())
            .expect("default back-ends are sound");
        prop_assert_eq!(out.circuit.num_lines(), c.num_lines());
        prop_assert_eq!(scalar_table(&out.circuit), scalar_table(&c));
        prop_assert_eq!(batch_table(&out.circuit), batch_table(&c));
    }

    #[test]
    fn resynth_never_costs_more(c in arb_mpmct_circuit(2..9, 24)) {
        let out = resynthesize(&c, &ResynthOptions::default(), &default_window_synthesizers());
        let (before, after) = (c.cost(), out.circuit.cost());
        // The acceptance order is lexicographic on (T-count, gates): a
        // splice may add a gate when it strictly cuts T-count.
        prop_assert!((after.t_count, after.gates) <= (before.t_count, before.gates));
        // Acceptance is strict: anything accepted shows up as a strict
        // lexicographic improvement overall.
        if out.stats.windows_accepted > 0 {
            prop_assert!((after.t_count, after.gates) < (before.t_count, before.gates));
        }
    }

    #[test]
    fn resynth_is_idempotent(c in arb_mpmct_circuit(2..8, 20)) {
        let options = ResynthOptions::default();
        let synths = default_window_synthesizers();
        let first = resynthesize(&c, &options, &synths);
        let second = resynthesize(&first.circuit, &options, &synths);
        prop_assert_eq!(&second.circuit, &first.circuit);
        prop_assert_eq!(second.stats.windows_accepted, 0);
        prop_assert_eq!(second.stats.gates_removed, 0);
        prop_assert_eq!(second.stats.passes, 1);
    }

    #[test]
    fn windows_never_exceed_the_line_budget(
        c in arb_mpmct_circuit(2..10, 24),
        max_lines in 1usize..6,
    ) {
        // A probe back-end that never synthesizes anything but records the
        // largest permutation it was ever offered.
        struct Probe(AtomicU64);
        impl WindowSynthesizer for Probe {
            fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
                self.0.fetch_max(perm.len() as u64, Ordering::Relaxed);
                None
            }
        }
        let probe = Probe(AtomicU64::new(0));
        let options = ResynthOptions { max_lines, ..Default::default() };
        resynthesize(&c, &options, &[&probe]);
        prop_assert!(probe.0.load(Ordering::Relaxed) <= 1 << max_lines);
    }

    #[test]
    fn stats_account_for_every_window(c in arb_mpmct_circuit(2..9, 24)) {
        let out = resynthesize(&c, &ResynthOptions::default(), &default_window_synthesizers());
        let s = out.stats;
        prop_assert_eq!(s.windows_attempted, s.windows_accepted + s.windows_rejected);
        prop_assert!(s.passes >= 1);
        // Sound back-ends never trip the per-splice simulation check.
        prop_assert_eq!(s.candidates_unsound, 0);
        // The per-window deltas must sum to the whole-circuit deltas.
        let (before, after) = (c.cost(), out.circuit.cost());
        prop_assert_eq!(s.gates_saved(), before.gates as i64 - after.gates as i64);
        prop_assert_eq!(s.t_saved(), before.t_count as i64 - after.t_count as i64);
        // T-count never regresses; gates may (lexicographic acceptance
        // trades gates for T), but only when T strictly improved.
        prop_assert!(s.t_added <= s.t_removed);
        if s.gates_added > s.gates_removed {
            prop_assert!(s.t_added < s.t_removed);
        }
        if s.windows_accepted == 0 {
            prop_assert_eq!(s.gates_removed, 0);
            prop_assert_eq!(s.t_removed, 0);
        }
    }

    #[test]
    fn resynth_matches_the_full_sweep(
        c in arb_mpmct_circuit(2..9, 24),
        options in arb_options(),
    ) {
        assert_matches_full_sweep(&c, &options);
    }

    #[test]
    fn resynth_matches_the_full_sweep_on_tiled_windows(
        c in arb_tiled_circuit(),
        options in arb_options(),
    ) {
        assert_matches_full_sweep(&c, &options);
    }
}
