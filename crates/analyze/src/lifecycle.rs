//! Ancilla lifecycle analysis: every helper line returns to |0⟩ before
//! it is released or the circuit ends.
//!
//! Two tiers decide each *checkpoint* (a release, or an ancilla at the
//! end of a clean interface):
//!
//! * a **structural Bennett-pairing** fast path — per-line stacks of
//!   "pending writes" `(controls, control versions)` where matching
//!   writes cancel in LIFO order, proving `value = initial value`
//!   without any algebra; and
//! * one serial **batch simulation** of the circuit on [`BatchState`],
//!   over the interface's inputs with every other line at |0⟩: every
//!   input when there are at most 16 of them, otherwise 1 024 seeded
//!   samples.
//!
//! Both tiers read the circuit's own packed arena: the structural pass
//! walks its gates in order, and the sweep replays the segments between
//! releases with [`Circuit::apply_batch_gates`].
//!
//! A line is *clean* at a checkpoint if it pairs structurally or an
//! exhaustive sweep finds it 0 on every input. A line that is 1 on some
//! swept input yields a deny-level diagnostic ([`Code::ReleaseOfLive`]
//! mid-circuit, [`Code::DirtyAncilla`] at the end), with that input as a
//! concrete witness. A line that only sampled inputs found 0 yields a
//! note ([`Code::UnprovenAncilla`]): the analyzer never denies on
//! uncertainty. Reads of a released line before a re-initialising write
//! are [`Code::UseAfterRelease`].

use qda_rev::batchsim::BATCH_STATES;
use qda_rev::{BatchState, Circuit};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::diag::{Code, Diagnostic, Span};
use crate::interface::CircuitInterface;

/// Interfaces with at most this many inputs are swept exhaustively.
const EXHAUSTIVE_INPUTS: usize = 16;

/// Inputs a wider interface is sampled on.
const SAMPLES: usize = 1024;

/// Seed of the sampled inputs.
const SAMPLE_SEED: u64 = 0x00A1_C11A;

/// One pending (uncancelled) write onto a line: the controls it fired
/// under, with the version each control line had at that moment.
type PendingWrite = Vec<(usize, bool, u64)>;

/// Runs the lifecycle analysis over the circuit, appending findings to
/// `diags`.
///
/// Every finding concerns a release or a required-clean ancilla, so an
/// interface with neither (the functional flow, ESOP at `p = 0`, a
/// `.real` circuit) returns without walking the gates.
pub fn check(circuit: &Circuit, iface: &CircuitInterface, diags: &mut Vec<Diagnostic>) {
    if iface.releases.is_empty() && (!iface.require_clean || iface.ancilla_lines().is_empty()) {
        return;
    }
    let n = iface.num_lines;
    let num_gates = circuit.num_gates();
    let mut releases: Vec<(usize, usize)> = iface.releases.clone();
    releases.sort_by_key(|&(_, pos)| pos);
    let live = sweep(circuit, iface, &releases);
    // Structural engine state.
    let mut versions = vec![0u64; n];
    let mut stacks: Vec<Vec<PendingWrite>> = vec![Vec::new(); n];
    // Release bookkeeping: position of the release a line is still under.
    let mut released: Vec<Option<usize>> = vec![None; n];
    let mut next_release = 0;
    let mut gates = circuit.packed().iter();

    for position in 0..=num_gates {
        // Releases scheduled before the gate at `position` executes.
        while next_release < releases.len() && releases[next_release].1 <= position {
            let (line, pos) = releases[next_release];
            let live_here = live.at_release[next_release];
            next_release += 1;
            if line >= n || pos < position {
                continue; // out-of-range or already handled; wellformed reports it
            }
            let structurally_clean = stacks[line].is_empty();
            if !structurally_clean && live_here {
                diags.push(
                    Diagnostic::new(
                        Code::ReleaseOfLive,
                        Span::gate_line(pos.min(num_gates.saturating_sub(1)), line),
                        format!("line {line} is released at gate {pos} while provably nonzero"),
                    )
                    .with_suggestion(format!("uncompute line {line} before releasing it")),
                );
            } else if !structurally_clean && !live.exhaustive {
                diags.push(Diagnostic::new(
                    Code::UnprovenAncilla,
                    Span::line(line),
                    format!(
                        "cannot prove line {line} clean at its release (gate {pos}): \
                         sampled inputs only"
                    ),
                ));
            }
            // The allocator now owns the line and will hand it back as
            // |0⟩; track it as such so a reuse analyzes cleanly.
            stacks[line].clear();
            released[line] = Some(pos);
        }
        let Some((_, gate)) = gates.next() else {
            break;
        };

        // The write's controls, with the version each control line has
        // now (decoded once: both checks below read them).
        let entry: PendingWrite = gate
            .controls()
            .map(|c| (c.line(), c.is_positive(), versions[c.line()]))
            .collect();
        // Use-after-release: reading a released line before it is
        // re-initialised by a target write.
        for &(line, _, _) in &entry {
            if let Some(rel) = released[line] {
                diags.push(
                    Diagnostic::new(
                        Code::UseAfterRelease,
                        Span::gate_line(position, line),
                        format!(
                            "gate {position} controls on line {line} after its release at gate {rel}"
                        ),
                    )
                    .with_suggestion("allocate a fresh line or move the release later"),
                );
            }
        }
        // A target write to a released line is its re-allocation: the
        // allocator handed back a |0⟩ line and the builder is computing
        // onto it again.
        let t = gate.target();
        if released[t].is_some() {
            released[t] = None;
            stacks[t].clear();
        }

        // Structural engine: pair up the write with a matching pending
        // one (same controls, same control versions) or push it.
        if stacks[t].last() == Some(&entry) {
            stacks[t].pop();
        } else {
            stacks[t].push(entry);
        }
        versions[t] += 1;
    }

    // End of circuit: every ancilla must be clean when the flow says so.
    if iface.require_clean {
        for line in iface.ancilla_lines() {
            if line >= n || released[line].is_some() {
                continue; // released lines were checked at their release
            }
            let structurally_clean = stacks[line].is_empty();
            if structurally_clean || (live.exhaustive && !live.at_end[line]) {
                continue;
            }
            if live.at_end[line] {
                diags.push(
                    Diagnostic::new(
                        Code::DirtyAncilla,
                        Span::line(line),
                        format!(
                            "ancilla line {line} ends provably nonzero but the flow \
                             requires clean ancillae"
                        ),
                    )
                    .with_suggestion(format!("add the uncompute (Bennett) pass for line {line}")),
                );
            } else {
                diags.push(Diagnostic::new(
                    Code::UnprovenAncilla,
                    Span::line(line),
                    format!("cannot prove ancilla line {line} clean: sampled inputs only"),
                ));
            }
        }
    }
}

/// Which lines the sweep saw at 1 on some input.
struct Live {
    /// Per release, in position order: the line at its release.
    at_release: Vec<bool>,
    /// Per ancilla line of a clean interface: the line at the end.
    at_end: Vec<bool>,
    /// Whether every input was swept (otherwise only samples were).
    exhaustive: bool,
}

/// Simulates the circuit over the interface's inputs, every other line
/// at |0⟩, in [`BATCH_STATES`]-state batches; each batch replays the
/// gate segments between release positions. A release is modeled as the
/// allocator handles it: the line is checked, then cleared. Nothing
/// writes a released line before its re-allocation, so that write finds
/// the line at 0.
fn sweep(circuit: &Circuit, iface: &CircuitInterface, releases: &[(usize, usize)]) -> Live {
    let num_gates = circuit.num_gates();
    let inputs = &iface.input_lines;
    let n = iface.num_lines;
    let exhaustive = inputs.len() <= EXHAUSTIVE_INPUTS;
    let total = if exhaustive {
        1 << inputs.len()
    } else {
        SAMPLES
    };
    let ends = if iface.require_clean {
        iface.ancilla_lines()
    } else {
        Vec::new()
    };
    let mut live = Live {
        at_release: vec![false; releases.len()],
        at_end: vec![false; n],
        exhaustive,
    };
    let mut rng = StdRng::seed_from_u64(SAMPLE_SEED);
    let mut state = BatchState::zeros(n, 0);
    for base in (0..total).step_by(BATCH_STATES) {
        state.reset((total - base).min(BATCH_STATES));
        if exhaustive {
            state.load_consecutive(inputs, base as u64);
        } else {
            // Drawn per 64-line chunk, as `verify_computes` samples.
            for lines in inputs.chunks(64) {
                let mask = u64::MAX >> (64 - lines.len());
                let values: Vec<u64> = (0..state.num_states())
                    .map(|_| rng.gen::<u64>() & mask)
                    .collect();
                state.load_register(lines, &values);
            }
        }
        // Releases past the last gate are never reached.
        let mut applied = 0;
        for (at_release, &(line, pos)) in live.at_release.iter_mut().zip(releases) {
            if pos > num_gates {
                break;
            }
            circuit.apply_batch_gates(&mut state, applied..pos);
            applied = pos;
            if line < n {
                *at_release |= state.lane_is_nonzero(line);
                state.clear_lane(line);
            }
        }
        circuit.apply_batch_gates(&mut state, applied..num_gates);
        for &line in &ends {
            live.at_end[line] |= state.lane_is_nonzero(line);
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::{BitState, Control};

    fn run(c: &Circuit, iface: &CircuitInterface) -> Vec<Code> {
        let mut diags = Vec::new();
        check(c, iface, &mut diags);
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn bennett_shape_is_clean_and_skipping_the_uncompute_is_dirty() {
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.cnot(2, 3);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true);
        assert_eq!(run(&c, &iface), vec![]);

        let mut bad = Circuit::new(4);
        bad.toffoli(0, 1, 2);
        bad.cnot(2, 3);
        // uncompute skipped
        assert_eq!(run(&bad, &iface), vec![Code::DirtyAncilla]);
    }

    #[test]
    fn release_of_live_and_use_after_release_fire() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2); // line 2 = a·b, live
        let iface =
            CircuitInterface::hierarchical(3, vec![0, 1], vec![], true).with_releases(vec![(2, 1)]);
        assert_eq!(run(&c, &iface), vec![Code::ReleaseOfLive]);

        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.toffoli(0, 1, 2); // clean again
        c.cnot(2, 3); // reads line 2 after its release below
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true)
            .with_releases(vec![(2, 2)]);
        assert_eq!(run(&c, &iface), vec![Code::UseAfterRelease]);
    }

    #[test]
    fn a_release_alone_keeps_the_walk() {
        // Nothing is required clean, but the release still must be.
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(3, vec![0, 1], vec![], false)
            .with_releases(vec![(2, 1)]);
        assert_eq!(run(&c, &iface), vec![Code::ReleaseOfLive]);
    }

    #[test]
    fn reuse_after_release_is_clean() {
        // Release line 2 clean, then recompute onto it (fresh |0⟩) and
        // uncompute again: no diagnostics.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.toffoli(0, 1, 2);
        // release of line 2 happens here (position 2)
        c.cnot(0, 2); // re-allocation: target write re-initialises
        c.cnot(0, 2);
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true)
            .with_releases(vec![(2, 2)]);
        assert_eq!(run(&c, &iface), vec![]);
    }

    #[test]
    fn structural_pairing_survives_interleaved_writes() {
        // The two Toffolis targeting line 2 sandwich a CNOT that also
        // writes line 2: LIFO pairing must NOT pair across it, but the
        // inner pair cancels first, then the outer pair.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.cnot(0, 2);
        c.cnot(0, 2);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true);
        assert_eq!(run(&c, &iface), vec![]);
    }

    #[test]
    fn rewritten_control_blocks_structural_pairing_but_simulation_decides() {
        // Between the pair, the control line 1 is rewritten and restored;
        // versions differ so the structural pairing cannot pair, but the
        // exhaustive sweep still proves line 2 clean.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.not(1);
        c.not(1);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true);
        assert_eq!(run(&c, &iface), vec![]);
    }

    #[test]
    fn negative_controls_and_nots_are_simulated_not_paired() {
        // A NOT sets line 1; a gate negatively controlled on the input and
        // on the |0⟩ line 2 turns it into 1 ⊕ ¬x = x; a CNOT from the
        // input clears it. Line 1 ends 0 on every input, yet no two
        // writes pair.
        let mut c = Circuit::new(3);
        c.not(1);
        c.mct(vec![Control::negative(0), Control::negative(2)], 1);
        c.cnot(0, 1);
        let iface = CircuitInterface::hierarchical(3, vec![0], vec![], true);
        assert_eq!(run(&c, &iface), vec![]);

        // Without the CNOT, line 1 ends holding x.
        let mut dirty = Circuit::new(3);
        dirty.not(1);
        dirty.mct(vec![Control::negative(0), Control::negative(2)], 1);
        assert_eq!(run(&dirty, &iface), vec![Code::DirtyAncilla]);
    }

    /// A gate onto line 16 that fires on exactly one of the 2^16 inputs
    /// on lines 0..16: the one equal to `x`.
    fn minterm(c: &mut Circuit, x: u64) {
        let controls = (0..16)
            .map(|l| {
                if x >> l & 1 == 1 {
                    Control::positive(l)
                } else {
                    Control::negative(l)
                }
            })
            .collect();
        c.mct(controls, 16);
    }

    #[test]
    fn the_exhaustive_sweep_finds_a_line_live_on_one_input_in_65_536() {
        // The AND of all 16 inputs is 1 only on the last input of the
        // last batch.
        let mut c = Circuit::new(17);
        minterm(&mut c, 0xFFFF);
        let iface = CircuitInterface::hierarchical(17, (0..16).collect(), vec![], true);
        assert_eq!(run(&c, &iface), vec![Code::DirtyAncilla]);

        // Released while live on one input in the middle of the sweep.
        let mut c = Circuit::new(18);
        minterm(&mut c, 0xA5C3);
        c.cnot(0, 17);
        let iface = CircuitInterface::hierarchical(18, (0..16).collect(), vec![17], true)
            .with_releases(vec![(16, 1)]);
        let mut diags = Vec::new();
        check(&c, &iface, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ReleaseOfLive);
        assert_eq!(diags[0].span, Span::gate_line(1, 16));
    }

    #[test]
    fn a_sampled_sweep_denies_on_a_witness_and_otherwise_only_notes() {
        // 20 inputs: sampled. Line 20 ends holding x0 ∧ x1; line 21
        // holds x0·x1 ⊕ x0·¬x1 ⊕ x0 = 0, which no two writes pair.
        let mut c = Circuit::new(22);
        c.toffoli(0, 1, 20);
        c.toffoli(0, 1, 21);
        c.mct(vec![Control::positive(0), Control::negative(1)], 21);
        c.cnot(0, 21);
        let iface = CircuitInterface::hierarchical(22, (0..20).collect(), vec![], true);
        let mut diags = Vec::new();
        check(&c, &iface, &mut diags);
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::DirtyAncilla, Code::UnprovenAncilla]);
        assert_eq!(diags[1].span, Span::line(21));
        assert!(
            diags[1].message.contains("sampled inputs only"),
            "{}",
            diags[1].message
        );
    }

    /// [`sweep`]'s verdicts from a per-gate scalar replay of every input:
    /// each release is checked, then cleared, before the gate at its
    /// position runs.
    fn scalar_live(
        c: &Circuit,
        iface: &CircuitInterface,
        releases: &[(usize, usize)],
    ) -> (Vec<bool>, Vec<bool>) {
        let mut at_release = vec![false; releases.len()];
        let mut at_end = vec![false; iface.num_lines];
        let gates: Vec<_> = c.packed().iter().map(|(_, g)| g).collect();
        for x in 0..1u64 << iface.input_lines.len() {
            let mut s = BitState::zeros(iface.num_lines);
            s.write_register(&iface.input_lines, x);
            for position in 0..=gates.len() {
                for (live, &(line, _)) in at_release
                    .iter_mut()
                    .zip(releases)
                    .filter(|(_, r)| r.1 == position)
                {
                    *live |= s.get(line);
                    s.set(line, false);
                }
                if let Some(g) = gates.get(position) {
                    s.apply_packed(g);
                }
            }
            for line in iface.ancilla_lines() {
                at_end[line] |= s.get(line);
            }
        }
        (at_release, at_end)
    }

    #[test]
    fn segment_replay_matches_a_per_gate_scalar_replay() {
        // 11 inputs: two full batches, so the full-block kernel runs.
        // Releases at position 0 (a fresh line, re-allocated by gate 5),
        // mid-cascade (line 12 uncomputed, line 11 still x0·x1) and at the
        // end (line 13 still ¬x3·x10); line 14 ends dirty.
        let mut c = Circuit::new(16);
        c.toffoli(0, 1, 11);
        c.toffoli(11, 2, 12);
        c.cnot(12, 15);
        c.toffoli(11, 2, 12);
        c.mct(vec![Control::negative(3), Control::positive(10)], 13);
        c.cnot(13, 14);
        let releases = vec![(14, 0), (12, 4), (11, 4), (13, 6)];
        let iface = CircuitInterface::hierarchical(16, (0..11).collect(), vec![15], true)
            .with_releases(releases.clone());
        let live = sweep(&c, &iface, &releases);
        let (at_release, at_end) = scalar_live(&c, &iface, &releases);
        assert!(live.exhaustive);
        assert_eq!(live.at_release, at_release);
        assert_eq!(live.at_release, vec![false, false, true, true]);
        assert_eq!(live.at_end, at_end);

        let mut diags = Vec::new();
        check(&c, &iface, &mut diags);
        let found: Vec<(Code, Span)> = diags.iter().map(|d| (d.code, d.span)).collect();
        assert_eq!(
            found,
            vec![
                (Code::ReleaseOfLive, Span::gate_line(4, 11)),
                (Code::ReleaseOfLive, Span::gate_line(5, 13)),
                (Code::DirtyAncilla, Span::line(14)),
            ]
        );
    }
}
