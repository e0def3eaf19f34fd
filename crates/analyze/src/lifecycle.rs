//! Ancilla lifecycle analysis: every helper line provably returns to
//! |0⟩ before it is released or the circuit ends.
//!
//! Two engines run in a single forward pass:
//!
//! * a **structural Bennett-pairing** fast path — per-line stacks of
//!   "pending writes" `(controls, control versions)` where matching
//!   writes cancel in LIFO order, proving `value = initial value`
//!   without any algebra; and
//! * the **bounded symbolic engine** of [`crate::sym`], whose canonical
//!   XOR-of-products form proves a line constant 0 (or definitely not).
//!
//! A line is *clean* at a checkpoint if either engine proves it zero. A
//! provably nonzero line yields a deny-level diagnostic
//! ([`Code::ReleaseOfLive`] mid-circuit, [`Code::DirtyAncilla`] at the
//! end); an unprovable one only a note ([`Code::UnprovenAncilla`]) —
//! the analyzer never denies on uncertainty. Reads of a released line
//! before a re-initialising write are [`Code::UseAfterRelease`].

use qda_rev::GateArena;

use crate::diag::{Code, Diagnostic, Span};
use crate::interface::CircuitInterface;
use crate::sym::SymState;

/// One pending (uncancelled) write onto a line: the controls it fired
/// under, with the version each control line had at that moment.
type PendingWrite = Vec<(usize, bool, u64)>;

/// Runs the lifecycle analysis over the packed arena, appending
/// findings to `diags`.
///
/// Every finding concerns a release or a required-clean ancilla, so an
/// interface with neither (the functional flow, ESOP at `p = 0`, a
/// `.real` circuit) returns without walking the gates.
pub fn check(arena: &GateArena, iface: &CircuitInterface, diags: &mut Vec<Diagnostic>) {
    if iface.releases.is_empty() && (!iface.require_clean || iface.ancilla_lines().is_empty()) {
        return;
    }
    let gates: Vec<_> = arena.iter().map(|(_, g)| g).collect();
    let n = iface.num_lines;
    let mut sym = SymState::for_interface(iface);
    // Structural engine state.
    let mut versions = vec![0u64; n];
    let mut stacks: Vec<Vec<PendingWrite>> = vec![Vec::new(); n];
    // Release bookkeeping: position of the release a line is still under.
    let mut released: Vec<Option<usize>> = vec![None; n];

    let mut releases: Vec<(usize, usize)> = iface.releases.clone();
    releases.sort_by_key(|&(_, pos)| pos);
    let mut next_release = 0;

    for position in 0..=gates.len() {
        // Releases scheduled before the gate at `position` executes.
        while next_release < releases.len() && releases[next_release].1 <= position {
            let (line, pos) = releases[next_release];
            next_release += 1;
            if line >= n || pos < position {
                continue; // out-of-range or already handled; wellformed reports it
            }
            let structurally_clean = stacks[line].is_empty();
            if !structurally_clean && sym.value(line).is_provably_nonzero() {
                diags.push(
                    Diagnostic::new(
                        Code::ReleaseOfLive,
                        Span::gate_line(pos.min(gates.len().saturating_sub(1)), line),
                        format!("line {line} is released at gate {pos} while provably nonzero"),
                    )
                    .with_suggestion(format!("uncompute line {line} before releasing it")),
                );
            } else if !structurally_clean && !sym.value(line).is_zero() {
                diags.push(Diagnostic::new(
                    Code::UnprovenAncilla,
                    Span::line(line),
                    format!(
                        "cannot prove line {line} clean at its release (gate {pos}): \
                         symbolic bound exceeded"
                    ),
                ));
            }
            // The allocator now owns the line and will hand it back as
            // |0⟩; track it as such so a reuse analyzes cleanly.
            sym.reset(line);
            stacks[line].clear();
            released[line] = Some(pos);
        }
        if position == gates.len() {
            break;
        }
        let gate = &gates[position];

        // Use-after-release: reading a released line before it is
        // re-initialised by a target write.
        for c in gate.controls() {
            if let Some(rel) = released[c.line()] {
                diags.push(
                    Diagnostic::new(
                        Code::UseAfterRelease,
                        Span::gate_line(position, c.line()),
                        format!(
                            "gate {position} controls on line {} after its release at gate {rel}",
                            c.line()
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
            sym.reset(t);
            stacks[t].clear();
        }

        // Structural engine: pair up the write with a matching pending
        // one (same controls, same control versions) or push it.
        let entry: PendingWrite = gate
            .controls()
            .map(|c| (c.line(), c.is_positive(), versions[c.line()]))
            .collect();
        if stacks[t].last() == Some(&entry) {
            stacks[t].pop();
        } else {
            stacks[t].push(entry);
        }
        versions[t] += 1;

        sym.apply_packed(gate);
    }

    // End of circuit: every ancilla must be clean when the flow says so.
    if iface.require_clean {
        for line in iface.ancilla_lines() {
            if line >= n || released[line].is_some() {
                continue; // released lines were checked at their release
            }
            let structurally_clean = stacks[line].is_empty();
            if structurally_clean || sym.value(line).is_zero() {
                continue;
            }
            if sym.value(line).is_provably_nonzero() {
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
                    format!("cannot prove ancilla line {line} clean: symbolic bound exceeded"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::Circuit;

    fn run(c: &Circuit, iface: &CircuitInterface) -> Vec<Code> {
        let mut diags = Vec::new();
        check(c.packed(), iface, &mut diags);
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
    fn rewritten_control_blocks_structural_pairing_but_symbolic_decides() {
        // Between the pair, the control line 1 is rewritten and restored;
        // versions differ so the structural engine cannot pair, but the
        // symbolic engine still proves line 2 clean.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.not(1);
        c.not(1);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true);
        assert_eq!(run(&c, &iface), vec![]);
    }
}
