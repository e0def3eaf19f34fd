//! Differential tests pinning the packed-mask gate IR against the legacy
//! `Vec<Gate>` form: structural round-trip identity through
//! [`GateArena`] / [`PackedGateBuf`], and bit-exact simulation agreement
//! between the packed engines (scalar, batch, optimizer, resynthesis)
//! and a legacy reference interpreter that folds [`Gate::apply_u64`]
//! over the materialized gate list — a code path that never touches a
//! mask word.
//!
//! The wide-circuit properties (60–300 lines) check the support-sparse
//! layout where it differs from a dense one: gates in one high word,
//! straddling a word boundary, or spanning far-apart words. Every
//! `PackedGate` relation and `merge_packed` must agree with the dense
//! word-array definitions ([`DenseGate`]), and every arena edit with a
//! `Vec<Gate>` model.

use proptest::prelude::*;
use qda_rev::circuit::Circuit;
use qda_rev::gate::{Control, Gate};
use qda_rev::opt::rules::merge_packed;
use qda_rev::opt::{optimize_assuming, optimize_checked, OptOptions};
use qda_rev::packed::{words_for_lines, GateArena, PackedGateBuf};
use qda_rev::resynth::{resynthesize_checked, ResynthOptions};
use qda_rev::state::BitState;
use qda_rev::testkit::{arb_mpmct_circuit, optimize_by_components, DenseGate};
use qda_revsynth::resynth::default_window_synthesizers;

/// Legacy reference simulation: fold the per-`Gate` scalar kernel over
/// the materialized gate list. Deliberately independent of the packed
/// word-mask kernels behind `simulate_u64` / `apply_batch`.
fn legacy_simulate(gates: &[Gate], mut state: u64) -> u64 {
    for g in gates {
        state = g.apply_u64(state);
    }
    state
}

/// A spread of probe states covering the corners and a stride through
/// the middle of an `n`-line state space.
fn probe_states(n: usize) -> Vec<u64> {
    let size = 1u64 << n;
    let mut probes = vec![0, 1, size / 2, size - 2, size - 1];
    probes.extend((0..size).step_by(((size / 64) as usize).max(1)));
    probes.retain(|&x| x < size);
    probes
}

/// Both simulation engines of `c` must agree with the legacy replay of
/// `reference`'s gate list on every probe state.
fn assert_packed_matches_legacy(c: &Circuit, reference: &Circuit) {
    let gates = reference.gates();
    for x in probe_states(c.num_lines()) {
        assert_eq!(c.simulate_u64(x), legacy_simulate(&gates, x), "state {x}");
    }
    // The batch engine (one transposed pass over all probes at once)
    // must match the same legacy table.
    let probes = probe_states(c.num_lines());
    let batch = c.simulate_batch(&probes);
    for (k, &x) in probes.iter().enumerate() {
        assert_eq!(batch[k], legacy_simulate(&gates, x), "lane {k}");
    }
}

proptest! {
    #[test]
    fn arena_round_trips_the_gate_list(c in arb_mpmct_circuit(3..17, 32)) {
        // Vec<Gate> -> GateArena -> Vec<Gate> is the identity, and the
        // circuit's own arena materializes to the same list.
        let gates = c.gates();
        let arena = GateArena::from_gates(c.num_lines(), &gates);
        prop_assert_eq!(&arena.to_gates(), &gates);
        prop_assert_eq!(&c.packed().to_gates(), &gates);
        prop_assert_eq!(arena.len(), gates.len());
    }

    #[test]
    fn packed_gate_buf_round_trips_every_gate(c in arb_mpmct_circuit(3..17, 32)) {
        for g in c.gates() {
            let buf = PackedGateBuf::from_gate(&g);
            let view = buf.view();
            prop_assert_eq!(&view.to_gate(), &g);
            prop_assert_eq!(view.target(), g.target());
            prop_assert_eq!(view.num_controls(), g.num_controls());
            for ctl in g.controls() {
                prop_assert_eq!(view.control_on(ctl.line()), Some(ctl.is_positive()));
            }
        }
    }

    #[test]
    fn packed_views_agree_with_materialized_gates(c in arb_mpmct_circuit(3..17, 32)) {
        // Walking the arena yields views that decode, control-for-control
        // and in order, to the legacy gates.
        let gates = c.gates();
        for ((id, view), g) in c.packed().iter().zip(&gates) {
            prop_assert_eq!(&view.to_gate(), g);
            prop_assert_eq!(&c.packed().materialize(id), g);
            let decoded: Vec<_> = view.controls().collect();
            prop_assert_eq!(decoded.as_slice(), g.controls());
        }
    }

    #[test]
    fn packed_scalar_and_batch_sims_match_legacy_replay(
        c in arb_mpmct_circuit(3..17, 32),
    ) {
        assert_packed_matches_legacy(&c, &c);
        // BitState apply (word-sliced packed kernel) agrees too.
        let gates = c.gates();
        for x in probe_states(c.num_lines()) {
            let mut s = BitState::zeros(c.num_lines());
            let lines: Vec<usize> = (0..c.num_lines()).collect();
            s.write_register(&lines, x);
            c.apply(&mut s);
            prop_assert_eq!(s.read_register(&lines), legacy_simulate(&gates, x));
        }
    }

    #[test]
    fn full_permutation_matches_legacy_replay(c in arb_mpmct_circuit(3..13, 24)) {
        // Exhaustive on up to 12 lines: the batch-backed permutation
        // table is the legacy replay of every basis state.
        let gates = c.gates();
        let perm = c.permutation().expect("12 lines is within the cap");
        for (x, &y) in perm.iter().enumerate() {
            prop_assert_eq!(y, legacy_simulate(&gates, x as u64), "input {}", x);
        }
    }

    #[test]
    fn optimized_circuit_round_trips_and_matches_legacy(
        c in arb_mpmct_circuit(3..11, 28),
    ) {
        let out = optimize_checked(&c, &OptOptions::default()).expect("optimizer is sound");
        // The rewritten arena still materializes consistently...
        prop_assert_eq!(out.circuit.packed().to_gates(), out.circuit.gates());
        // ...and both packed engines still compute the ORIGINAL function
        // as replayed by the legacy interpreter.
        assert_packed_matches_legacy(&out.circuit, &c);
    }

    #[test]
    fn resynthesized_circuit_round_trips_and_matches_legacy(
        c in arb_mpmct_circuit(3..9, 20),
    ) {
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &default_window_synthesizers())
            .expect("default back-ends are sound");
        prop_assert_eq!(out.circuit.packed().to_gates(), out.circuit.gates());
        assert_packed_matches_legacy(&out.circuit, &c);
    }
}

/// The line pools of a wide circuit's gate shapes: six lines at the start
/// of its highest word, six straddling a word boundary, and four in
/// far-apart words. Drawing every gate from one small pool makes the
/// gates share lines, so rewrites fire.
fn wide_pools(n: usize) -> [Vec<usize>; 3] {
    let top = (n - 1) / 64 * 64;
    // A circuit of at most 64 lines has no word boundary to straddle.
    let boundary = (64 * ((n - 1) / 64).max(1)).min(n - 3);
    let high = (top..top + 6).filter(|&l| l < n).collect();
    let straddle = (boundary - 3..boundary + 3).filter(|&l| l < n).collect();
    let far = vec![1, n / 2, n - 2, n - 1];
    [high, straddle, far]
}

/// A gate of a wide circuit from three random words: a NOT on any pool
/// line, or a target and up to three controls drawn from one pool, each
/// control's polarity from a bit of `pol`.
fn wide_gate(n: usize, (shape, pick, pol): (u64, u64, u64)) -> Gate {
    let pools = wide_pools(n);
    let pool = &pools[(shape % 3) as usize];
    let line = |k: u32| pool[(pick >> (8 * k)) as usize % pool.len()];
    let target = line(0);
    if (shape >> 8) % 4 == 0 {
        return Gate::not(target);
    }
    let mut controls: Vec<Control> = Vec::new();
    for k in 1..=((shape >> 16) % 3 + 1) as u32 {
        let l = line(k);
        if l != target && controls.iter().all(|c| c.line() != l) {
            controls.push(if (pol >> k) & 1 == 1 {
                Control::positive(l)
            } else {
                Control::negative(l)
            });
        }
    }
    Gate::mct(controls, target)
}

/// A 60–300-line circuit of up to `max_gates` [`wide_gate`]s.
fn arb_wide_circuit(max_gates: usize) -> impl Strategy<Value = Circuit> {
    (
        60usize..301,
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..max_gates),
    )
        .prop_map(|(n, raw)| {
            let mut c = Circuit::new(n);
            for words in raw {
                c.add_gate(wide_gate(n, words));
            }
            c
        })
}

/// `gate` with the controls of `lines` removed.
fn without(gate: &Gate, lines: &[usize]) -> Gate {
    let controls = gate
        .controls()
        .iter()
        .copied()
        .filter(|c| !lines.contains(&c.line()))
        .collect();
    Gate::mct(controls, gate.target())
}

/// `gate` with a control on `line` of the given polarity added, when
/// `line` is free.
fn with_control(gate: &Gate, line: usize, positive: bool) -> Option<Gate> {
    if line == gate.target() || gate.controls().iter().any(|c| c.line() == line) {
        return None;
    }
    let mut controls = gate.controls().to_vec();
    controls.push(if positive {
        Control::positive(line)
    } else {
        Control::negative(line)
    });
    Some(Gate::mct(controls, gate.target()))
}

/// The partners every gate is compared with: itself, itself with one
/// polarity flipped, with one control more or less, on another target,
/// and the given other gate.
fn partners(gate: &Gate, other: &Gate, n: usize, seed: u64) -> Vec<Gate> {
    let mut out = vec![gate.clone(), other.clone()];
    if let Some(c) = gate.controls().first() {
        let mut flipped = without(gate, &[c.line()]);
        flipped = with_control(&flipped, c.line(), !c.is_positive()).expect("a freed line");
        out.push(flipped);
        out.push(without(gate, &[c.line()]));
    }
    out.extend(with_control(gate, seed as usize % n, seed >> 63 == 1));
    if !gate.controls().iter().any(|c| c.line() == other.target())
        && other.target() != gate.target()
    {
        out.push(Gate::mct(gate.controls().to_vec(), other.target()));
    }
    out
}

/// A state on which `gate` fires: every control holds its polarity, the
/// other lines hold `fill`'s bits.
fn firing_state(gate: &Gate, words: usize, fill: u64) -> Vec<u64> {
    let mut state = vec![fill; words];
    for c in gate.controls() {
        let (w, bit) = (c.line() / 64, 1u64 << (c.line() % 64));
        state[w] = if c.is_positive() {
            state[w] | bit
        } else {
            state[w] & !bit
        };
    }
    state
}

proptest! {
    #[test]
    fn wide_relations_agree_with_the_dense_reference(
        c in arb_wide_circuit(24),
        seeds in prop::collection::vec(any::<u64>(), 24..25),
    ) {
        let n = c.num_lines();
        let words = words_for_lines(n);
        let gates = c.gates();
        for (k, g) in gates.iter().enumerate() {
            let view = c.packed().iter().nth(k).expect("one view per gate").1;
            let dense = DenseGate::from_gate(g, words);
            prop_assert_eq!(view.num_controls(), dense.num_controls());
            prop_assert_eq!(view.controls().collect::<Vec<_>>(), dense.controls());
            prop_assert_eq!(view.max_line(), dense.max_line());
            for line in 0..n + 64 {
                prop_assert_eq!(view.control_on(line), dense.control_on(line), "line {}", line);
                prop_assert_eq!(view.acts_on(line), dense.acts_on(line), "line {}", line);
            }
            let seed = seeds[k % seeds.len()];
            let firing = firing_state(g, words, seed);
            let mut probes = vec![firing.clone(), vec![seed; words], firing[..words / 2].to_vec()];
            if let Some(c) = g.controls().last() {
                let mut off = firing;
                off[c.line() / 64] ^= 1 << (c.line() % 64);
                probes.push(off);
            }
            for state in &probes {
                prop_assert_eq!(view.fires_words(state), dense.fires_words(state));
            }
            let other = &gates[seed as usize % gates.len()];
            for h in partners(g, other, n, seed) {
                let buf = PackedGateBuf::from_gate(&h);
                let (hv, hd) = (buf.view(), DenseGate::from_gate(&h, words));
                prop_assert_eq!(view == hv, dense == hd, "{} vs {}", g, h);
                prop_assert_eq!(view.controls_conflict(&hv), dense.controls_conflict(&hd));
                prop_assert_eq!(hv.controls_conflict(&view), hd.controls_conflict(&dense));
                prop_assert_eq!(view.commutes_with(&hv), dense.commutes_with(&hd));
                prop_assert_eq!(hv.commutes_with(&view), hd.commutes_with(&dense));
                for (a, b, da, db) in [(view, hv, &dense, &hd), (hv, view, &hd, &dense)] {
                    let merged = merge_packed(&a, &b);
                    let want = da.merge(db).map(|(m, rule)| (m.to_gate(), rule));
                    prop_assert_eq!(
                        merged.as_ref().map(|(m, rule)| (m.view().to_gate(), *rule)),
                        want
                    );
                    if let Some((m, _)) = merged {
                        // A merge that empties a word drops its entry.
                        let canonical = PackedGateBuf::from_gate(&m.view().to_gate());
                        prop_assert_eq!(m, canonical);
                    }
                }
            }
        }
    }

    #[test]
    fn wide_arena_edits_agree_with_a_gate_list_model(
        c in arb_wide_circuit(24),
        edits in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..40),
    ) {
        let mut n = c.num_lines();
        let mut arena = c.packed().clone();
        // The live cascade as `(id, gate)` pairs in circuit order.
        let mut model: Vec<(usize, Gate)> =
            arena.iter().map(|(id, g)| (id, g.to_gate())).collect();
        for (op, pick, x, y) in edits {
            let at = pick as usize % model.len().max(1);
            match (op % 8, model.get(at).cloned()) {
                (0, _) => {
                    let gate = wide_gate(n, (x, y, pick));
                    let new = arena.push(&gate);
                    model.push((new, gate));
                }
                (1, Some((id, _))) => {
                    arena.remove(id);
                    model.remove(at);
                }
                (2, Some((id, gate))) => {
                    // Wider: controls added in far-apart words.
                    let mut wider = gate;
                    for line in [x as usize % n, y as usize % n, n - 1] {
                        wider = with_control(&wider, line, x >> 63 == 1).unwrap_or(wider);
                    }
                    arena.replace(id, &PackedGateBuf::from_gate(&wider));
                    model[at].1 = wider;
                }
                (3, Some((id, gate))) => {
                    // Narrower: only the lowest control, or a NOT.
                    let keep = gate.controls().iter().take(usize::from(x & 1 == 1)).copied();
                    let narrower = Gate::mct(keep.collect(), gate.target());
                    arena.replace(id, &PackedGateBuf::from_gate(&narrower));
                    model[at].1 = narrower;
                }
                (4, Some((id, gate))) => {
                    let Some(&c) = gate.controls().get(x as usize % gate.num_controls().max(1)) else {
                        continue;
                    };
                    arena.flip_polarity(id, c.line());
                    let flipped = without(&gate, &[c.line()]);
                    model[at].1 = with_control(&flipped, c.line(), !c.is_positive()).expect("freed");
                }
                (5, Some((id, gate))) => {
                    // A constant-pass drop of every control in one word.
                    let Some(&c) = gate.controls().get(x as usize % gate.num_controls().max(1)) else {
                        continue;
                    };
                    let word: Vec<usize> = gate
                        .controls()
                        .iter()
                        .map(|c| c.line())
                        .filter(|l| l / 64 == c.line() / 64)
                        .collect();
                    let mut mask = vec![0u64; words_for_lines(n)];
                    for &l in &word {
                        mask[l / 64] |= 1 << (l % 64);
                    }
                    prop_assert_eq!(arena.drop_controls(id, &mask) as usize, word.len());
                    model[at].1 = without(&gate, &word);
                }
                (6, _) => {
                    arena.compact();
                    for (k, entry) in model.iter_mut().enumerate() {
                        entry.0 = k;
                    }
                    prop_assert_eq!(arena.slot_count(), model.len());
                }
                (7, _) => {
                    n += 1 + x as usize % 200;
                    arena.grow_lines(n);
                }
                _ => continue,
            }
            prop_assert_eq!(arena.num_lines(), n);
            prop_assert_eq!(arena.len(), model.len());
            // Slot order is circuit order.
            let ids: Vec<usize> = arena.iter().map(|(id, _)| id).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids out of order: {:?}", ids);
            let want: Vec<usize> = model.iter().map(|&(id, _)| id).collect();
            prop_assert_eq!(ids, want);
            for (id, gate) in &model {
                let view = arena.gate(*id);
                prop_assert_eq!(&view.to_gate(), gate);
                // Equal gates have equal entry lists.
                prop_assert_eq!(view, PackedGateBuf::from_gate(gate).view());
            }
        }
        let gates: Vec<Gate> = model.into_iter().map(|(_, g)| g).collect();
        prop_assert_eq!(arena, GateArena::from_gates(n, &gates));
    }

    #[test]
    fn wide_optimization_matches_the_dense_reference(
        c in arb_wide_circuit(40),
        zero_seed in any::<u64>(),
    ) {
        // Zero lines from every pool, so the constant pass drops controls
        // in high and straddling words and empties entries.
        let n = c.num_lines();
        let zeros: Vec<usize> = wide_pools(n)
            .concat()
            .into_iter()
            .filter(|&l| (zero_seed >> (l % 64)) & 1 == 1)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for zero_lines in [&[][..], &zeros[..]] {
            let options = OptOptions::default();
            let out = optimize_assuming(&c, &options, zero_lines);
            let reference = optimize_by_components(&c, &options, zero_lines);
            prop_assert_eq!(&out.circuit, &reference.circuit);
            prop_assert_eq!(out.stats, reference.stats);
        }
    }
}
