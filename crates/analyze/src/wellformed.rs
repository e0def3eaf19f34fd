//! Structural well-formedness: line bounds, gate invariants, and
//! interface consistency.
//!
//! This is the admission-control front line: if anything here fires at
//! deny level the dataflow analyses are skipped, because their line
//! indexing would be meaningless (or would panic) on a malformed input.

use qda_rev::{GateArena, PackedGate};

use crate::diag::{Code, Diagnostic, Span};
use crate::interface::CircuitInterface;

/// Checks every gate's masks and the declared interface. Returns `true`
/// when no deny-level structural problem was found (i.e. the dataflow
/// analyses may safely run).
pub fn check(arena: &GateArena, iface: &CircuitInterface, diags: &mut Vec<Diagnostic>) -> bool {
    let before = diags.len();
    let num_lines = arena.num_lines();
    for (i, (_, g)) in arena.iter().enumerate() {
        if let Some(line) = line_out_of_range(g, num_lines) {
            diags.push(
                Diagnostic::new(
                    Code::LineOutOfBounds,
                    Span::gate_line(i, line),
                    format!("gate {i} addresses line {line} of a {num_lines}-line circuit"),
                )
                .with_suggestion("grow the circuit with ensure_lines or fix the gate"),
            );
        }
        if let Some(problem) = broken_invariant(g) {
            diags.push(Diagnostic::new(
                Code::MalformedGate,
                Span::gate(i),
                format!("gate {i} is structurally invalid: {problem}"),
            ));
        }
    }
    check_interface(num_lines, arena.len(), iface, diags);
    diags[before..]
        .iter()
        .all(|d| d.severity < crate::Severity::Deny)
}

/// The highest line a gate reads or writes, when that line is
/// `num_lines` or more. Only the gate's highest nonzero control word is
/// read.
fn line_out_of_range(g: PackedGate<'_>, num_lines: usize) -> Option<usize> {
    let max_line = g.max_line();
    (max_line >= num_lines).then_some(max_line)
}

/// The first arena invariant a gate's masks break, if any: the target
/// must not be a control, and every polarity bit must sit on a control
/// bit. (Contradictory controls cannot be encoded in masks at all.)
fn broken_invariant(g: PackedGate<'_>) -> Option<String> {
    if g.control_on(g.target()).is_some() {
        return Some(format!("target {} cannot be controlled", g.target()));
    }
    let line = g.stray_polarity()?;
    Some(format!("line {line} has a polarity bit but no control"))
}

fn check_interface(
    num_lines: usize,
    num_gates: usize,
    iface: &CircuitInterface,
    diags: &mut Vec<Diagnostic>,
) {
    let mut bad = |message: String, line: Option<usize>| {
        diags.push(Diagnostic::new(
            Code::BadInterface,
            Span { gates: None, line },
            message,
        ));
    };
    if iface.num_lines != num_lines {
        bad(
            format!(
                "interface declares {} lines but the circuit has {num_lines}",
                iface.num_lines
            ),
            None,
        );
    }
    for (role, lines) in [
        ("input", &iface.input_lines),
        ("output", &iface.output_lines),
    ] {
        let mut seen = vec![false; num_lines.max(iface.num_lines)];
        for &l in lines {
            if l >= iface.num_lines {
                bad(format!("{role} line {l} out of range"), Some(l));
            } else if seen[l] {
                bad(
                    format!("line {l} appears twice in the {role} register"),
                    Some(l),
                );
            } else {
                seen[l] = true;
            }
        }
    }
    for &(l, pos) in &iface.releases {
        if l >= iface.num_lines {
            bad(format!("release of out-of-range line {l}"), Some(l));
        } else if iface.input_lines.contains(&l) {
            bad(
                format!("primary input line {l} is released mid-circuit"),
                Some(l),
            );
        }
        if pos > num_gates {
            bad(
                format!("release of line {l} at gate {pos}, past the end of the circuit"),
                Some(l),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::{Control, Gate};

    #[test]
    fn out_of_bounds_gates_and_bad_interfaces_are_denied() {
        let arena = GateArena::from_gates(2, &[Gate::cnot(0, 5)]);
        let iface = CircuitInterface::functional(2);
        let mut diags = Vec::new();
        assert!(!check(&arena, &iface, &mut diags));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::LineOutOfBounds);

        let mut diags = Vec::new();
        let iface = CircuitInterface::hierarchical(3, vec![0, 0], vec![9], true)
            .with_releases(vec![(0, 0), (7, 0), (2, 99)]);
        assert!(!check(&GateArena::new(3), &iface, &mut diags));
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.iter().all(|&c| c == Code::BadInterface));
        assert!(
            diags.len() >= 4,
            "dup input, oob output, input release, oob release, oob pos"
        );
    }

    #[test]
    fn out_of_bounds_controls_are_anchored_at_the_highest_line() {
        // Lines 70 and 130 sit in the second and third mask words of a
        // 130-line arena; only the control on line 130 is out of range.
        let gates = vec![
            Gate::toffoli(3, 70, 0),
            Gate::mct(vec![Control::negative(2), Control::positive(130)], 1),
        ];
        let arena = GateArena::from_gates(130, &gates);
        let iface = CircuitInterface::functional(130);
        let mut diags = Vec::new();
        assert!(!check(&arena, &iface, &mut diags));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::LineOutOfBounds);
        assert_eq!(diags[0].span, Span::gate_line(1, 130));
    }

    #[test]
    fn clean_circuits_pass() {
        let gates = vec![
            Gate::toffoli(0, 1, 2),
            Gate::mct(vec![Control::negative(0)], 1),
        ];
        let arena = GateArena::from_gates(3, &gates);
        let iface = CircuitInterface::functional(3);
        let mut diags = Vec::new();
        assert!(check(&arena, &iface, &mut diags));
        assert!(diags.is_empty());
    }
}
