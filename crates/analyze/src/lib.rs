//! Static analysis and linting for MPMCT reversible circuits.
//!
//! Where the rest of the workspace checks a circuit's *function* by batch
//! simulation, this crate checks the contracts of its interface:
//! structurally, in near-linear passes over the gate arena, and, for the
//! ancilla lines the structure leaves open, by batch simulation of the
//! interface's inputs:
//!
//! | Analysis | Codes | What it proves |
//! |---|---|---|
//! | well-formedness | `QDA-A030..A032` | line bounds, gate invariants, interface consistency |
//! | ancilla lifecycle | `QDA-A001..A004` | helper lines return to \|0⟩ before release / end (pairing, then simulation) |
//! | constant propagation | `QDA-A010..A011` | dead gates and droppable controls under the \|0⟩ start |
//! | dead cones | `QDA-A020` | gates whose effect reaches no observable line |
//! | depth metrics | — | ASAP logical depth and T-depth |
//!
//! The entry point is [`analyze`]: give it a circuit and the
//! [`CircuitInterface`] contract the surrounding flow promises, get back
//! a [`Report`] of [`Diagnostic`]s plus [`Metrics`]. Severities encode
//! policy — `Deny` findings are proven violations (flows abort on them),
//! `Warning`s are proven waste, `Note`s are honest uncertainty. No
//! analysis ever denies something it has not proven, which is what makes
//! "analyzer-clean at deny level" a sound gate for every flow output.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod constprop;
pub mod deadcone;
pub mod depth;
pub mod diag;
pub mod interface;
pub mod lifecycle;
pub mod wellformed;

pub use depth::DepthMetrics;
pub use diag::{Code, Diagnostic, Severity, Span};
pub use interface::CircuitInterface;

use qda_rev::Circuit;

/// Static metrics computed alongside the diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Metrics {
    /// Number of circuit lines.
    pub num_lines: usize,
    /// Number of gates.
    pub num_gates: usize,
    /// T-count under the paper's cost model.
    pub t_count: u64,
    /// ASAP depth metrics (zero when well-formedness already failed).
    pub depth: DepthMetrics,
}

/// Outcome of analyzing one circuit against one interface.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Report {
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
    /// Static metrics of the analyzed circuit.
    pub metrics: Metrics,
}

impl Report {
    /// Number of diagnostics at exactly the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when no diagnostic is at or above the given severity.
    /// `is_clean(Severity::Deny)` is the flows' admission gate.
    pub fn is_clean(&self, at: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity < at)
    }

    /// The deny-level findings, if any.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// Multi-line human-readable rendering (one line per diagnostic,
    /// then a metrics summary).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} deny, {} warning, {} note | {} lines, {} gates, T-count {}, \
             depth {}, T-depth {}\n",
            self.count(Severity::Deny),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            self.metrics.num_lines,
            self.metrics.num_gates,
            self.metrics.t_count,
            self.metrics.depth.logical_depth,
            self.metrics.depth.t_depth,
        ));
        out
    }
}

/// Analyzes a circuit against its declared interface.
///
/// Every check walks the circuit's own packed arena; no gate is
/// materialized on this path, and the metrics are the circuit's own
/// [`Circuit::cost`].
pub fn analyze(circuit: &Circuit, iface: &CircuitInterface) -> Report {
    let arena = circuit.packed();
    let cost = circuit.cost();
    let mut metrics = Metrics {
        num_lines: cost.qubits,
        num_gates: cost.gates,
        t_count: cost.t_count,
        depth: DepthMetrics::default(),
    };
    let mut diagnostics = Vec::new();
    if wellformed::check(arena, iface, &mut diagnostics) {
        lifecycle::check(arena, iface, &mut diagnostics);
        constprop::check(arena, iface, &mut diagnostics);
        deadcone::check(arena, iface, &mut diagnostics);
        metrics.depth = depth::measure(arena);
    }
    Report {
        diagnostics,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_bennett_circuit_yields_an_empty_clean_report() {
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.cnot(2, 3);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(4, vec![0, 1], vec![3], true);
        let report = analyze(&c, &iface);
        assert!(report.diagnostics.is_empty());
        assert!(report.is_clean(Severity::Deny));
        assert!(report.is_clean(Severity::Note));
        assert_eq!(report.metrics.num_gates, 3);
        assert_eq!(report.metrics.t_count, 14);
        assert_eq!(report.metrics.depth.t_depth, 2);
    }

    #[test]
    fn deny_level_structural_failures_skip_the_dataflow_analyses() {
        // An interface that disagrees with the circuit's line count
        // would make the dataflow passes index out of range; analyze
        // must degrade gracefully.
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::functional(2);
        let report = analyze(&c, &iface);
        assert_eq!(report.count(Severity::Deny), 1);
        assert_eq!(report.diagnostics[0].code, Code::BadInterface);
        assert_eq!(report.metrics.depth, DepthMetrics::default());
        assert_eq!(report.metrics.t_count, 7, "t-count is still computable");
        assert!(!report.is_clean(Severity::Deny));
    }

    #[test]
    fn reports_render_as_json() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::hierarchical(3, vec![0, 1], vec![], true);
        let report = analyze(&c, &iface);
        assert_eq!(report.count(Severity::Deny), 1, "dirty ancilla");
        let human = report.render_human();
        assert!(human.contains("deny[QDA-A001]"));
        assert!(human.ends_with("T-depth 1\n"));
    }
}
