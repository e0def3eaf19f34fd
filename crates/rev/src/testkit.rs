//! Shared proptest strategies and reference engines for the differential
//! suites (feature `testkit`).
//!
//! Every crate that differential-tests reversible-circuit machinery —
//! `qda-rev`'s own suites, `qda-revsynth`'s synthesis properties, and the
//! flow-level suites in `qda-core` — needs the same two generators: a
//! random MPMCT cascade and a random permutation. This module is the one
//! home for them, so the suites stop re-rolling their own (subtly
//! different) copies and a generator fix reaches every consumer at once.
//! It also holds [`resynthesize_full_sweep`], the plain windowed
//! resynthesis sweep the production pass is checked against.
//!
//! Enable it from a dependent's `[dev-dependencies]`:
//!
//! ```toml
//! qda-rev = { workspace = true, features = ["testkit"] }
//! ```

use crate::circuit::Circuit;
use crate::gate::{Control, Gate};
use crate::opt::equivalence_witness;
use crate::opt::rules::RewriteCost;
use crate::packed::{GateArena, PackedGateBuf};
use crate::resynth::{
    ResynthOptions, ResynthStats, Resynthesized, WindowSynthesizer, MAX_WINDOW_LINES,
};
use proptest::prelude::*;
use qda_logic::par;

/// A random mixed-polarity MPMCT circuit: the line count is drawn from
/// `lines`, followed by up to `max_gates` gates whose target, control
/// set, and control polarities are derived from three random words.
pub fn arb_mpmct_circuit(
    lines: std::ops::Range<usize>,
    max_gates: usize,
) -> impl Strategy<Value = Circuit> {
    (
        lines,
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..max_gates),
    )
        .prop_map(|(lines, raw)| {
            let mut c = Circuit::new(lines);
            for (tsel, cmask, pmask) in raw {
                let target = (tsel % lines as u64) as usize;
                let controls: Vec<Control> = (0..lines)
                    .filter(|&l| l != target && (cmask >> l) & 1 == 1)
                    .map(|l| {
                        if (pmask >> l) & 1 == 1 {
                            Control::positive(l)
                        } else {
                            Control::negative(l)
                        }
                    })
                    .collect();
                c.add_gate(Gate::mct(controls, target));
            }
            c
        })
}

/// A uniformly shuffled permutation of `0..2^r` (Fisher–Yates driven by a
/// random seed word), in the explicit `Vec<u64>` form the functional
/// synthesis back-ends consume.
///
/// # Panics
///
/// Panics if `r > 16` (the explicit table would not fit test budgets).
pub fn arb_permutation(r: usize) -> impl Strategy<Value = Vec<u64>> {
    assert!(r <= 16, "explicit permutation strategies capped at r = 16");
    let size = 1usize << r;
    any::<u64>().prop_map(move |seed| {
        // SplitMix64 stream: cheap, deterministic in the drawn seed.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut perm: Vec<u64> = (0..size as u64).collect();
        for i in (1..size).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    })
}

/// The reference windowed-resynthesis pass: the same window growth,
/// candidate race and acceptance as [`crate::resynth::resynthesize`], but
/// with none of its shortcuts. Every pass clones the circuit into a fresh
/// arena, re-extracts the window at every start from the legacy [`Gate`]
/// view, and races the back-ends on every window.
///
/// The production pass must return the identical circuit and identical
/// `windows_accepted`, gate/T deltas and `passes`. Here
/// `windows_attempted`, `windows_rejected` and `candidates_unsound` count
/// every window, and `memo_hits` and `clean_skips` stay zero.
pub fn resynthesize_full_sweep(
    circuit: &Circuit,
    options: &ResynthOptions,
    synths: &[&dyn WindowSynthesizer],
) -> Resynthesized {
    let mut out = circuit.clone();
    let mut stats = ResynthStats::default();
    loop {
        stats.passes += 1;
        if !full_sweep(&mut out, options, synths, &mut stats) {
            break;
        }
    }
    Resynthesized {
        circuit: out,
        stats,
    }
}

/// The sorted lines a gate reads or writes.
fn support_of(gate: &Gate) -> Vec<usize> {
    let mut lines: Vec<usize> = gate.controls().iter().map(|c| c.line()).collect();
    lines.push(gate.target());
    lines.sort_unstable();
    lines
}

/// One full sweep over the cascade. Returns `true` when at least one
/// window was spliced.
fn full_sweep(
    circuit: &mut Circuit,
    options: &ResynthOptions,
    synths: &[&dyn WindowSynthesizer],
    stats: &mut ResynthStats,
) -> bool {
    let max_lines = options.max_lines.clamp(1, MAX_WINDOW_LINES);
    let max_gates = options.max_window_gates.max(2);
    let mut list: GateArena = circuit.clone().into_arena();
    let mut changed = false;
    let mut cursor = list.first();
    while let Some(id) = cursor {
        // Greedy growth: a gate sharing a line with the window joins while
        // the union support fits; a gate on disjoint lines is skipped and
        // poisons its lines; anything else stops growth.
        let mut support = support_of(&list.materialize(id));
        if support.len() > max_lines {
            cursor = list.next_live(id);
            continue;
        }
        let mut ids = vec![id];
        let mut skipped_lines: Vec<usize> = Vec::new();
        let mut skips_left = options.max_commute_skips;
        let mut j = list.next_live(id);
        while let Some(jid) = j {
            if ids.len() >= max_gates {
                break;
            }
            let lines = support_of(&list.materialize(jid));
            let overlaps_window = lines.iter().any(|l| support.contains(l));
            let overlaps_skipped = lines.iter().any(|l| skipped_lines.contains(l));
            if overlaps_window && !overlaps_skipped {
                let mut grown = support.clone();
                grown.extend(lines.iter().filter(|l| !support.contains(l)));
                if grown.len() > max_lines {
                    break;
                }
                grown.sort_unstable();
                support = grown;
                ids.push(jid);
            } else if !overlaps_window && skips_left > 0 {
                skipped_lines.extend(lines);
                skips_left -= 1;
            } else {
                break;
            }
            j = list.next_live(jid);
        }
        if ids.len() < 2 {
            cursor = list.next_live(id);
            continue;
        }
        stats.windows_attempted += 1;
        let k = support.len();
        let mut to_local = vec![usize::MAX; support[k - 1] + 1];
        for (local, &line) in support.iter().enumerate() {
            to_local[line] = local;
        }
        let mut sub = Circuit::new(k);
        for &w in &ids {
            sub.add_gate(list.materialize(w).remapped(&to_local));
        }
        let perm = sub
            .permutation()
            .expect("window support is capped at MAX_WINDOW_LINES = 8 lines");
        let candidates = par::run_indexed(synths.len(), |si| {
            let candidate = synths[si].synthesize(&perm)?;
            if candidate.num_lines() != k || equivalence_witness(&sub, &candidate).is_some() {
                return Some(Err(()));
            }
            Some(Ok(candidate))
        });
        let mut best: Option<Circuit> = None;
        for verdict in candidates.into_iter().flatten() {
            let Ok(candidate) = verdict else {
                stats.candidates_unsound += 1;
                continue;
            };
            let cost = |c: &Circuit| (c.cost().t_count, c.num_gates());
            if best.as_ref().is_none_or(|b| cost(&candidate) < cost(b)) {
                best = Some(candidate);
            }
        }
        let removed: Vec<usize> = ids.iter().map(|&w| list.gate(w).num_controls()).collect();
        let cost = best.as_ref().map(|b| {
            let added: Vec<usize> = b.packed().iter().map(|(_, g)| g.num_controls()).collect();
            RewriteCost::of_controls(&removed, &added)
        });
        let Some(cost) = cost.filter(RewriteCost::accepted) else {
            stats.windows_rejected += 1;
            cursor = list.next_live(id);
            continue;
        };
        let replacement = best.expect("accepted implies a candidate");
        stats.windows_accepted += 1;
        stats.gates_removed += cost.gates_removed as u64;
        stats.gates_added += cost.gates_added as u64;
        stats.t_removed += cost.t_removed;
        stats.t_added += cost.t_added;
        // Splice: the replacement goes in before the window's first gate
        // (every window gate commutes with the skipped gates it passes),
        // then the window's gates go.
        let resume = list.next_live(*ids.last().expect("non-empty window"));
        let words = list.words_per_gate();
        for g in replacement.gates() {
            let buf = PackedGateBuf::from_gate(&g.remapped(&support), words);
            list.insert_before(ids[0], &buf);
        }
        for &w in &ids {
            list.remove(w);
        }
        changed = true;
        cursor = resume;
    }
    if changed {
        *circuit = Circuit::from_arena(list);
    }
    changed
}
