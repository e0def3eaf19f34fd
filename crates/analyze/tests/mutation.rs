//! Mutation suite: seed one defect into a known-clean flow-style circuit
//! and assert the analyzer fires the *right* diagnostic code for it.
//!
//! A linter that merely stays quiet on clean circuits is unfalsifiable;
//! each test here is the positive half of the contract — every analysis
//! has at least one seeded defect it provably catches. The baseline is a
//! compute–copy–uncompute Bennett cascade, the exact shape the
//! hierarchical flow emits.

use qda_analyze::{analyze, wellformed, CircuitInterface, Code, Severity};
use qda_rev::gate::Control;
use qda_rev::{Circuit, Gate, GateArena};

/// The clean baseline: `out ⊕= a·b` with ancilla 2 computed and
/// uncomputed around the copy (lines: a=0, b=1, helper=2, out=3).
fn bennett_and() -> Circuit {
    let mut c = Circuit::new(4);
    c.toffoli(0, 1, 2);
    c.cnot(2, 3);
    c.toffoli(0, 1, 2);
    c
}

fn bennett_iface() -> CircuitInterface {
    CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true)
}

fn codes(report: &qda_analyze::Report) -> Vec<Code> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn the_unmutated_baseline_is_totally_clean() {
    let report = analyze(&bennett_and(), &bennett_iface());
    assert!(report.diagnostics.is_empty(), "{}", report.render_human());
}

// ---- analysis 1: ancilla lifecycle ----

#[test]
fn mutation_skip_the_uncompute_gate_fires_dirty_ancilla() {
    let mut c = bennett_and();
    let gates: Vec<Gate> = c.gates()[..2].to_vec();
    c = Circuit::new(4);
    for g in gates {
        c.add_gate(g);
    }
    let report = analyze(&c, &bennett_iface());
    assert_eq!(codes(&report), vec![Code::DirtyAncilla]);
    assert_eq!(report.diagnostics[0].severity, Severity::Deny);
    assert_eq!(report.diagnostics[0].span.line, Some(2));
}

#[test]
fn mutation_swap_a_control_polarity_fires_dirty_ancilla() {
    // Uncompute with a flipped polarity leaves a·b ⊕ a·¬b = a on the
    // helper: provably nonzero, so Deny (not just a Note).
    let mut c = Circuit::new(4);
    c.toffoli(0, 1, 2);
    c.cnot(2, 3);
    c.add_gate(Gate::mct(
        vec![Control::positive(0), Control::negative(1)],
        2,
    ));
    let report = analyze(&c, &bennett_iface());
    assert!(
        codes(&report).contains(&Code::DirtyAncilla),
        "{}",
        report.render_human()
    );
    assert!(!report.is_clean(Severity::Deny));
}

#[test]
fn mutation_release_a_live_line_fires_release_of_live() {
    // Release the helper between compute and uncompute, while it still
    // provably holds a·b.
    let iface = bennett_iface().with_releases(vec![(2, 1)]);
    let report = analyze(&bennett_and(), &iface);
    assert!(codes(&report).contains(&Code::ReleaseOfLive));
}

#[test]
fn mutation_read_a_released_line_fires_use_after_release() {
    // Release the helper after the uncompute, then append a gate that
    // still reads it as a control.
    let mut c = bennett_and();
    c.cnot(2, 3);
    let iface = bennett_iface().with_releases(vec![(2, 3)]);
    let report = analyze(&c, &iface);
    assert!(codes(&report).contains(&Code::UseAfterRelease));
}

// ---- analysis 2: constant propagation ----

#[test]
fn mutation_gate_a_copy_on_an_untouched_zero_line_fires_const_dead() {
    // Positive control on helper line 2 before anything wrote it: the
    // gate can never fire under the |0⟩-start contract.
    let mut c = Circuit::new(4);
    c.toffoli(0, 2, 3);
    let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], false);
    let report = analyze(&c, &iface);
    assert!(codes(&report).contains(&Code::ConstDeadGate));
}

#[test]
fn mutation_negative_control_on_a_zero_line_fires_const_control() {
    // A negative control on a still-zero line is always satisfied: the
    // control is droppable, the gate is not.
    let mut c = Circuit::new(4);
    c.add_gate(Gate::mct(
        vec![Control::positive(0), Control::negative(2)],
        3,
    ));
    let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], false);
    let report = analyze(&c, &iface);
    assert!(codes(&report).contains(&Code::ConstControl));
    assert!(!codes(&report).contains(&Code::ConstDeadGate));
}

// ---- analysis 3: dead-cone elimination ----

#[test]
fn mutation_orphan_a_cone_fires_dead_gate() {
    // Under a garbage-tolerant interface, a write to the helper after
    // its last observable read reaches nothing.
    let mut c = bennett_and();
    c.cnot(0, 2);
    let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], false);
    let report = analyze(&c, &iface);
    let dead: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::DeadGate)
        .collect();
    assert!(!dead.is_empty());
    // The dead write is the appended gate (index 3). The uncompute
    // toffoli (index 2) is also unobservable once nothing reads line 2.
    assert!(dead.iter().any(|d| d.span.gates == Some((3, 3))));
}

#[test]
fn the_same_orphan_is_not_dead_when_cleanliness_is_observable() {
    // With require_clean, every ancilla's final value is observable, so
    // the dead-cone analysis must stay quiet (the lifecycle analysis
    // complains instead — the line no longer ends at zero).
    let mut c = bennett_and();
    c.cnot(0, 2);
    let report = analyze(&c, &bennett_iface());
    assert!(!codes(&report).contains(&Code::DeadGate));
    assert!(codes(&report).contains(&Code::DirtyAncilla));
}

// ---- analysis 4: static cost / depth ----

#[test]
fn depth_metrics_expose_the_serialization_a_mutation_introduces() {
    let baseline = analyze(&bennett_and(), &bennett_iface());
    assert_eq!(baseline.metrics.depth.logical_depth, 3);
    assert_eq!(baseline.metrics.depth.t_depth, 2);

    // Stacking a dependent chain on the output strictly deepens both.
    let mut c = bennett_and();
    c.toffoli(1, 3, 2);
    c.toffoli(1, 2, 3);
    c.toffoli(1, 3, 2);
    let deeper = analyze(
        &c,
        &CircuitInterface::hierarchical(4, vec![0, 1], vec![3], false),
    );
    assert!(deeper.metrics.depth.logical_depth > baseline.metrics.depth.logical_depth);
    assert!(deeper.metrics.depth.t_depth > baseline.metrics.depth.t_depth);
}

// ---- analysis 5: structural well-formedness ----

#[test]
fn mutation_out_of_bounds_target_fires_line_out_of_bounds() {
    // The safe constructors refuse to build this circuit; the arena
    // stores the control on line 9 all the same.
    let arena = GateArena::from_gates(4, &[Gate::toffoli(0, 1, 2), Gate::cnot(1, 9)]);
    let mut diags = Vec::new();
    assert!(!wellformed::check(&arena, &bennett_iface(), &mut diags));
    assert_eq!(diags[0].code, Code::LineOutOfBounds);
    assert_eq!(diags[0].severity, Severity::Deny);
}

#[test]
fn mutation_inconsistent_interface_fires_bad_interface() {
    let c = bennett_and();
    let iface = CircuitInterface::hierarchical(4, vec![0, 0], vec![3], true);
    let report = analyze(&c, &iface);
    assert!(codes(&report).contains(&Code::BadInterface));
}
