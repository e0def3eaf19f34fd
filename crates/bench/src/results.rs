//! Structured bench results: every table binary serializes its rows to a
//! `BENCH_<name>.json` file next to the human-readable table, so the
//! performance trajectory is machine-readable PR-over-PR.
//!
//! File format (one object per file):
//!
//! ```json
//! {
//!   "bench": "table2",
//!   "rows": [
//!     {"design": "INTDIV", "n": 4, "flow": "functional (embedding + TBS)",
//!      "qubits": 7, "t_count": 597, "gates": 42, "runtime_s": 0.012,
//!      "stages": {"parse_elaborate_s": 0.001, "optimize_s": 0.002,
//!                 "synthesis_s": 0.008, "post_opt_s": 0.001,
//!                 "resynth_s": 0.0, "analyze_s": 0.001,
//!                 "verification_s": 0.001},
//!      "lint": {"deny": 0, "warning": 2, "note": 0,
//!               "logical_depth": 30, "t_depth": 12}},
//!     {"design": "INTDIV", "n": 16, "flow": "functional (embedding + TBS)",
//!      "error": "instance too large: ..."}
//!   ]
//! }
//! ```
//!
//! Counts are integers, durations are seconds with microsecond precision,
//! and a failed run carries an `error` string instead of the cost fields.
//!
//! Throughput benches (`verify_bench`) reuse the same row shape with the
//! engine name in `flow` and an extra `states_per_sec` field
//! (gates·states/sec is `states_per_sec × gates`):
//!
//! ```json
//! {"design": "CUCCARO-ADD", "n": 24, "flow": "batch (64-way)",
//!  "qubits": 50, "t_count": 0, "gates": 145, "runtime_s": 0.004,
//!  "states_per_sec": 16384000.0}
//! ```
//!
//! ESOP-minimization benches (`esop_bench`) also reuse the shape, with the
//! engine name in `flow`, the variable count in `qubits`, the minimized
//! cube count in `gates` (each cube becomes one Toffoli gate), the
//! minimized literal count in `t_count`, and an extra `cubes_in` field
//! (seed cubes before minimization):
//!
//! ```json
//! {"design": "MINTERM", "n": 12, "flow": "indexed",
//!  "qubits": 12, "t_count": 18101, "gates": 2048, "runtime_s": 0.0891,
//!  "cubes_in": 3560}
//! ```
//!
//! Circuit-optimizer benches (`opt_bench`) reuse the shape once more:
//! `gates`/`t_count` are the **post-optimization** figures, `gates_in` /
//! `t_count_in` the raw synthesis output, and `rewrites` counts the
//! accepted applications per rule:
//!
//! ```json
//! {"design": "INTDIV-HIER", "n": 6, "flow": "peephole",
//!  "qubits": 56, "t_count": 322, "gates": 306, "runtime_s": 0.004,
//!  "gates_in": 380, "t_count_in": 322,
//!  "rewrites": {"cancel": 30, "merge_polarity": 2, "merge_subset": 1,
//!               "not_absorb": 4, "const_dead": 0, "const_drop": 0}}
//! ```
//!
//! Static-analysis benches (`circuit_lint`) reuse the shape with the
//! analyzed workload in `flow`, the circuit size in `qubits`/`gates`/
//! `t_count`, and a `lint` object carrying the per-severity diagnostic
//! counts and ASAP depth metrics:
//!
//! ```json
//! {"design": "INTDIV-HIER", "n": 6, "flow": "hierarchical (XMG, Bennett)",
//!  "qubits": 56, "t_count": 322, "gates": 290, "runtime_s": 0.002,
//!  "lint": {"deny": 0, "warning": 0, "note": 0,
//!           "logical_depth": 118, "t_depth": 44}}
//! ```
//!
//! Windowed-resynthesis benches (`resynth_bench`) follow the same
//! before/after convention: `gates`/`t_count` are the **post-resynthesis**
//! figures, `gates_in` / `t_count_in` the input (already peephole-
//! optimized) circuit, and `windows` accounts for every window the pass
//! extracted, how many of them the run's permutation memo answered, and
//! how many starts it stepped over as unchanged:
//!
//! ```json
//! {"design": "INTDIV-HIER", "n": 5, "flow": "resynth (ESOP/linear)",
//!  "qubits": 58, "t_count": 666, "gates": 133, "runtime_s": 0.004,
//!  "gates_in": 135, "t_count_in": 672,
//!  "windows": {"attempted": 162, "accepted": 1, "rejected": 161,
//!              "memo_hits": 90, "clean_skips": 63, "unsound": 0,
//!              "passes": 2}}
//! ```
//!
//! Portfolio rows (also `resynth_bench`) reuse the plain cost shape with
//! the racing configuration name in `flow` (e.g.
//! `"hierarchical (Bennett) [+opt+resynth]"`).

use crate::json::Json;
use qda_core::flow::{FlowOutcome, StageTimings};
use std::path::PathBuf;

/// One result row: a (design, flow) data point or its failure.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Design family, e.g. `INTDIV`.
    pub design: String,
    /// Bitwidth `n`.
    pub n: usize,
    /// Flow (or configuration) label.
    pub flow: String,
    /// Cost + timing payload, or the failure message.
    pub data: Result<BenchData, String>,
}

/// The successful-run payload of a [`BenchRow`].
#[derive(Clone, Copy, Debug)]
pub struct BenchData {
    /// Circuit lines.
    pub qubits: usize,
    /// T-count.
    pub t_count: u64,
    /// Gate count.
    pub gates: usize,
    /// Total runtime in seconds.
    pub runtime_s: f64,
    /// Per-stage breakdown, when the producer tracks stages.
    pub stages: Option<StageTimings>,
    /// Simulation throughput in states/second, for throughput benches
    /// (`verify_bench`); gates·states/sec is `states_per_sec × gates`.
    pub states_per_sec: Option<f64>,
    /// Seed cube count before minimization, for ESOP-minimization benches
    /// (`esop_bench`); those rows reuse `qubits` for the variable count,
    /// `gates` for the minimized cube count (one Toffoli per cube) and
    /// `t_count` for the minimized literal count.
    pub cubes_in: Option<u64>,
    /// Pre-optimization cost and per-rule rewrite counts, for circuit-
    /// optimizer benches (`opt_bench`); those rows carry the optimized
    /// cost in `gates`/`t_count`.
    pub opt: Option<OptRowData>,
    /// Pre-resynthesis cost and window accounting, for windowed-
    /// resynthesis benches (`resynth_bench`); those rows carry the
    /// resynthesized cost in `gates`/`t_count`.
    pub resynth: Option<ResynthRowData>,
    /// Static-analysis summary: diagnostic counts per severity plus the
    /// ASAP depth metrics. Attached by [`BenchRow::from_outcome`] when
    /// the flow's analyze stage ran, and by [`BenchRow::from_lint`] for
    /// `circuit_lint` rows.
    pub lint: Option<LintRowData>,
}

/// The before-figures and rewrite counters of an `opt_bench` row.
#[derive(Clone, Copy, Debug)]
pub struct OptRowData {
    /// Gate count of the raw synthesis output.
    pub gates_in: usize,
    /// T-count of the raw synthesis output.
    pub t_count_in: u64,
    /// Accepted rewrites per rule.
    pub stats: qda_rev::opt::OptStats,
}

/// The static-analysis summary of a row: per-severity diagnostic counts
/// and ASAP depth metrics, as reported by `qda_analyze`.
#[derive(Clone, Copy, Debug)]
pub struct LintRowData {
    /// Deny-level diagnostics (always 0 for flow rows — flows abort on
    /// denials before producing an outcome).
    pub deny: usize,
    /// Warning-level diagnostics.
    pub warning: usize,
    /// Note-level diagnostics.
    pub note: usize,
    /// ASAP logical depth of the analyzed circuit.
    pub logical_depth: usize,
    /// ASAP T-depth (layers containing a T-stage gate).
    pub t_depth: usize,
}

impl LintRowData {
    /// Summarizes an analysis report.
    pub fn from_report(report: &qda_analyze::Report) -> Self {
        use qda_analyze::Severity;
        Self {
            deny: report.count(Severity::Deny),
            warning: report.count(Severity::Warning),
            note: report.count(Severity::Note),
            logical_depth: report.metrics.depth.logical_depth,
            t_depth: report.metrics.depth.t_depth,
        }
    }
}

/// The before-figures and window accounting of a `resynth_bench` row.
#[derive(Clone, Copy, Debug)]
pub struct ResynthRowData {
    /// Gate count of the input circuit.
    pub gates_in: usize,
    /// T-count of the input circuit.
    pub t_count_in: u64,
    /// Window accounting of the resynthesis pass.
    pub stats: qda_rev::resynth::ResynthStats,
}

impl BenchRow {
    /// A row from a flow outcome (carries the full stage breakdown).
    pub fn from_outcome(design: &str, n: usize, outcome: &FlowOutcome) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: outcome.flow_name.clone(),
            data: Ok(BenchData {
                qubits: outcome.cost.qubits,
                t_count: outcome.cost.t_count,
                gates: outcome.cost.gates,
                runtime_s: outcome.runtime.as_secs_f64(),
                stages: Some(outcome.stages),
                states_per_sec: None,
                cubes_in: None,
                opt: None,
                resynth: None,
                lint: outcome.analysis.as_ref().map(LintRowData::from_report),
            }),
        }
    }

    /// A row for a cost measured outside the flow engine (no timings),
    /// e.g. the Table I manual baselines.
    pub fn from_cost(
        design: &str,
        n: usize,
        flow: &str,
        cost: &qda_rev::cost::CircuitCost,
    ) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: flow.to_string(),
            data: Ok(BenchData {
                qubits: cost.qubits,
                t_count: cost.t_count,
                gates: cost.gates,
                runtime_s: 0.0,
                stages: None,
                states_per_sec: None,
                cubes_in: None,
                opt: None,
                resynth: None,
                lint: None,
            }),
        }
    }

    /// A row for a simulation-throughput measurement (`verify_bench`):
    /// `states` inputs replayed through a `gates`-gate circuit on
    /// `qubits` lines in `runtime_s` seconds by `engine`.
    pub fn from_throughput(
        design: &str,
        n: usize,
        engine: &str,
        qubits: usize,
        gates: usize,
        states: u64,
        runtime_s: f64,
    ) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: engine.to_string(),
            data: Ok(BenchData {
                qubits,
                t_count: 0,
                gates,
                runtime_s,
                stages: None,
                states_per_sec: Some(states as f64 / runtime_s.max(f64::EPSILON)),
                cubes_in: None,
                opt: None,
                resynth: None,
                lint: None,
            }),
        }
    }

    /// A row for an ESOP-minimization measurement (`esop_bench`): `engine`
    /// minimized a `num_vars`-variable ESOP from `cubes_in` seed cubes
    /// down to `cubes_out` cubes / `literals_out` literals in `runtime_s`
    /// seconds.
    #[allow(clippy::too_many_arguments)]
    pub fn from_minimization(
        design: &str,
        n: usize,
        engine: &str,
        num_vars: usize,
        cubes_in: usize,
        cubes_out: usize,
        literals_out: usize,
        runtime_s: f64,
    ) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: engine.to_string(),
            data: Ok(BenchData {
                qubits: num_vars,
                t_count: literals_out as u64,
                gates: cubes_out,
                runtime_s,
                stages: None,
                states_per_sec: None,
                cubes_in: Some(cubes_in as u64),
                opt: None,
                resynth: None,
                lint: None,
            }),
        }
    }

    /// A row for a circuit-optimization measurement (`opt_bench`): the
    /// peephole pass took a `qubits`-line circuit from `before` to
    /// `after` in `runtime_s` seconds, applying the rewrites in `stats`.
    pub fn from_opt(
        design: &str,
        n: usize,
        before: &qda_rev::cost::CircuitCost,
        after: &qda_rev::cost::CircuitCost,
        stats: qda_rev::opt::OptStats,
        runtime_s: f64,
    ) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: "peephole".to_string(),
            data: Ok(BenchData {
                qubits: after.qubits,
                t_count: after.t_count,
                gates: after.gates,
                runtime_s,
                stages: None,
                states_per_sec: None,
                cubes_in: None,
                opt: Some(OptRowData {
                    gates_in: before.gates,
                    t_count_in: before.t_count,
                    stats,
                }),
                resynth: None,
                lint: None,
            }),
        }
    }

    /// A row for a windowed-resynthesis measurement (`resynth_bench`):
    /// the resynthesis pass took a `qubits`-line circuit from `before`
    /// to `after` in `runtime_s` seconds, with `stats` accounting for
    /// every window it attempted.
    #[allow(clippy::too_many_arguments)]
    pub fn from_resynth(
        design: &str,
        n: usize,
        flow: &str,
        before: &qda_rev::cost::CircuitCost,
        after: &qda_rev::cost::CircuitCost,
        stats: qda_rev::resynth::ResynthStats,
        runtime_s: f64,
    ) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: flow.to_string(),
            data: Ok(BenchData {
                qubits: after.qubits,
                t_count: after.t_count,
                gates: after.gates,
                runtime_s,
                stages: None,
                states_per_sec: None,
                cubes_in: None,
                opt: None,
                resynth: Some(ResynthRowData {
                    gates_in: before.gates,
                    t_count_in: before.t_count,
                    stats,
                }),
                lint: None,
            }),
        }
    }

    /// A row for a static-analysis measurement (`circuit_lint`): the
    /// analyzer inspected the circuit summarized by `report.metrics` in
    /// `runtime_s` seconds and produced the diagnostics counted in the
    /// `lint` object.
    pub fn from_lint(
        design: &str,
        n: usize,
        flow: &str,
        report: &qda_analyze::Report,
        runtime_s: f64,
    ) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: flow.to_string(),
            data: Ok(BenchData {
                qubits: report.metrics.num_lines,
                t_count: report.metrics.t_count,
                gates: report.metrics.num_gates,
                runtime_s,
                stages: None,
                states_per_sec: None,
                cubes_in: None,
                opt: None,
                resynth: None,
                lint: Some(LintRowData::from_report(report)),
            }),
        }
    }

    /// A row recording a failed run.
    pub fn failure(design: &str, n: usize, flow: &str, error: &impl std::fmt::Display) -> Self {
        Self {
            design: design.to_string(),
            n,
            flow: flow.to_string(),
            data: Err(error.to_string()),
        }
    }

    /// The row as a [`Json`] object — the same shape `BENCH_*.json` rows
    /// use, reused verbatim as the `result` payload of `qda-server`
    /// responses so callers get one telemetry schema everywhere.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("design".to_string(), Json::from(self.design.as_str())),
            ("n".to_string(), Json::Int(self.n as u64)),
            ("flow".to_string(), Json::from(self.flow.as_str())),
        ];
        match &self.data {
            Ok(d) => {
                pairs.push(("qubits".to_string(), Json::Int(d.qubits as u64)));
                pairs.push(("t_count".to_string(), Json::Int(d.t_count)));
                pairs.push(("gates".to_string(), Json::Int(d.gates as u64)));
                pairs.push(("runtime_s".to_string(), Json::fixed(d.runtime_s, 6)));
                if let Some(stages) = &d.stages {
                    let secs = |d: std::time::Duration| Json::fixed(d.as_secs_f64(), 6);
                    pairs.push((
                        "stages".to_string(),
                        Json::object([
                            ("parse_elaborate_s", secs(stages.parse_elaborate)),
                            ("optimize_s", secs(stages.optimize)),
                            ("synthesis_s", secs(stages.synthesis)),
                            ("post_opt_s", secs(stages.post_opt)),
                            ("resynth_s", secs(stages.resynth)),
                            ("analyze_s", secs(stages.analyze)),
                            ("verification_s", secs(stages.verification)),
                        ]),
                    ));
                }
                if let Some(sps) = d.states_per_sec {
                    pairs.push(("states_per_sec".to_string(), Json::fixed(sps, 1)));
                }
                if let Some(cubes) = d.cubes_in {
                    pairs.push(("cubes_in".to_string(), Json::Int(cubes)));
                }
                if let Some(opt) = &d.opt {
                    pairs.push(("gates_in".to_string(), Json::Int(opt.gates_in as u64)));
                    pairs.push(("t_count_in".to_string(), Json::Int(opt.t_count_in)));
                    pairs.push((
                        "rewrites".to_string(),
                        Json::object([
                            ("cancel", Json::Int(opt.stats.cancellations)),
                            ("merge_polarity", Json::Int(opt.stats.polarity_merges)),
                            ("merge_subset", Json::Int(opt.stats.subset_merges)),
                            ("not_absorb", Json::Int(opt.stats.not_absorptions)),
                            ("const_dead", Json::Int(opt.stats.const_dead)),
                            ("const_drop", Json::Int(opt.stats.const_drops)),
                        ]),
                    ));
                }
                if let Some(resynth) = &d.resynth {
                    pairs.push(("gates_in".to_string(), Json::Int(resynth.gates_in as u64)));
                    pairs.push(("t_count_in".to_string(), Json::Int(resynth.t_count_in)));
                    pairs.push((
                        "windows".to_string(),
                        Json::object([
                            ("attempted", Json::Int(resynth.stats.windows_attempted)),
                            ("accepted", Json::Int(resynth.stats.windows_accepted)),
                            ("rejected", Json::Int(resynth.stats.windows_rejected)),
                            ("memo_hits", Json::Int(resynth.stats.memo_hits)),
                            ("clean_skips", Json::Int(resynth.stats.clean_skips)),
                            ("unsound", Json::Int(resynth.stats.candidates_unsound)),
                            ("passes", Json::Int(resynth.stats.passes)),
                        ]),
                    ));
                }
                if let Some(lint) = &d.lint {
                    pairs.push((
                        "lint".to_string(),
                        Json::object([
                            ("deny", Json::Int(lint.deny as u64)),
                            ("warning", Json::Int(lint.warning as u64)),
                            ("note", Json::Int(lint.note as u64)),
                            ("logical_depth", Json::Int(lint.logical_depth as u64)),
                            ("t_depth", Json::Int(lint.t_depth as u64)),
                        ]),
                    ));
                }
            }
            Err(message) => pairs.push(("error".to_string(), Json::from(message.as_str()))),
        }
        Json::Obj(pairs)
    }
}

/// Accumulates [`BenchRow`]s for one bench binary and writes
/// `BENCH_<name>.json`.
///
/// # Example
///
/// ```no_run
/// use qda_bench::results::{BenchResults, BenchRow};
///
/// let mut results = BenchResults::new("table2");
/// # let outcome: qda_core::flow::FlowOutcome = unimplemented!();
/// results.push(BenchRow::from_outcome("INTDIV", 4, &outcome));
/// let path = results.write().expect("writable working directory");
/// assert_eq!(path.file_name().unwrap(), "BENCH_table2.json");
/// ```
#[derive(Clone, Debug)]
pub struct BenchResults {
    name: String,
    rows: Vec<BenchRow>,
}

impl BenchResults {
    /// An empty result set for the bench binary `name`.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: BenchRow) {
        self.rows.push(row);
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The serialized document.
    pub fn to_json(&self) -> String {
        let mut out = Json::object([
            ("bench", Json::from(self.name.as_str())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(BenchRow::to_json).collect()),
            ),
        ])
        .render();
        out.push('\n');
        out
    }

    /// Writes `BENCH_<name>.json` into the current directory and returns
    /// its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rows_carry_the_error() {
        let mut r = BenchResults::new("t");
        r.push(BenchRow::failure("INTDIV", 16, "functional", &"too big"));
        let json = r.to_json();
        assert!(json.contains(r#""error": "too big""#));
        assert!(!json.contains("qubits"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn cost_rows_have_counts_but_no_stages() {
        let mut c = qda_rev::circuit::Circuit::new(3);
        c.toffoli(0, 1, 2);
        let mut r = BenchResults::new("table1");
        r.push(BenchRow::from_cost("RESDIV", 3, "manual", &c.cost()));
        let json = r.to_json();
        assert!(json.contains(r#""bench": "table1""#));
        assert!(json.contains(r#""qubits": 3"#));
        assert!(json.contains(r#""gates": 1"#));
        assert!(!json.contains("stages"));
    }

    #[test]
    fn throughput_rows_carry_states_per_sec() {
        let mut r = BenchResults::new("verify");
        r.push(BenchRow::from_throughput(
            "CUCCARO-ADD",
            24,
            "batch (64-way)",
            50,
            145,
            1 << 20,
            0.5,
        ));
        let json = r.to_json();
        assert!(json.contains(r#""bench": "verify""#));
        assert!(json.contains(r#""states_per_sec": 2097152.0"#));
        assert!(json.contains(r#""gates": 145"#));
        assert!(!json.contains("stages"));
    }

    #[test]
    fn minimization_rows_carry_cubes_in() {
        let mut r = BenchResults::new("esop");
        r.push(BenchRow::from_minimization(
            "MINTERM", 12, "indexed", 12, 3560, 2048, 18101, 0.0891,
        ));
        let json = r.to_json();
        assert!(json.contains(r#""cubes_in": 3560"#));
        assert!(json.contains(r#""gates": 2048"#));
        assert!(json.contains(r#""t_count": 18101"#));
        assert!(json.contains(r#""flow": "indexed""#));
        assert!(!json.contains("states_per_sec"));
    }

    #[test]
    fn opt_rows_carry_before_figures_and_rewrite_counts() {
        let mut before = qda_rev::circuit::Circuit::new(3);
        before.toffoli(0, 1, 2);
        before.toffoli(0, 1, 2);
        before.cnot(0, 2);
        let out = qda_rev::opt::optimize(&before, &qda_rev::opt::OptOptions::default());
        let mut r = BenchResults::new("opt");
        r.push(BenchRow::from_opt(
            "PAIR",
            3,
            &before.cost(),
            &out.circuit.cost(),
            out.stats,
            0.001,
        ));
        let json = r.to_json();
        assert!(json.contains(r#""gates_in": 3"#));
        assert!(json.contains(r#""t_count_in": 14"#));
        assert!(json.contains(r#""gates": 1"#));
        assert!(json.contains(r#""cancel": 1"#));
        assert!(json.contains(r#""merge_polarity": 0"#));
        assert!(json.contains(r#""flow": "peephole""#));
        assert!(!json.contains("cubes_in"));
    }

    #[test]
    fn outcome_rows_have_a_stage_breakdown() {
        use qda_core::design::Design;
        use qda_core::flow::{EsopFlow, Flow};
        let outcome = EsopFlow::with_factoring(0).run(&Design::intdiv(4)).unwrap();
        let row = BenchRow::from_outcome("INTDIV", 4, &outcome);
        let json = BenchResults {
            name: "x".into(),
            rows: vec![row],
        }
        .to_json();
        for key in [
            "parse_elaborate_s",
            "optimize_s",
            "synthesis_s",
            "post_opt_s",
            "resynth_s",
            "analyze_s",
            "verification_s",
            "t_count",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The flow ran with analysis on, so the lint summary rides along
        // and is deny-clean.
        assert!(json.contains(r#""lint":"#), "missing lint in {json}");
        assert!(json.contains(r#""deny": 0"#), "missing deny in {json}");
        assert!(json.contains(r#""t_depth":"#), "missing t_depth in {json}");
    }

    #[test]
    fn lint_rows_carry_the_diagnostic_summary() {
        use qda_analyze::CircuitInterface;
        let mut c = qda_rev::circuit::Circuit::new(3);
        c.toffoli(0, 1, 2);
        let iface = CircuitInterface::functional(3);
        let report = qda_analyze::analyze(&c, &iface);
        let mut r = BenchResults::new("analyze");
        r.push(BenchRow::from_lint("TOFFOLI", 3, "manual", &report, 0.001));
        let json = r.to_json();
        assert!(json.contains(r#""bench": "analyze""#));
        assert!(json.contains(r#""qubits": 3"#));
        assert!(json.contains(r#""gates": 1"#));
        assert!(json.contains(r#""t_count": 7"#));
        assert!(json.contains(r#""lint":"#));
        assert!(json.contains(r#""logical_depth": 1"#));
        assert!(json.contains(r#""t_depth": 1"#));
        assert!(!json.contains("stages"));
    }

    #[test]
    fn resynth_rows_carry_before_figures_and_window_accounting() {
        let mut before = qda_rev::circuit::Circuit::new(3);
        before.cnot(0, 1);
        before.cnot(0, 1);
        before.not(2);
        let out = qda_revsynth::resynth::resynthesize_circuit(
            &before,
            &qda_rev::resynth::ResynthOptions::default(),
        );
        let mut r = BenchResults::new("resynth");
        r.push(BenchRow::from_resynth(
            "PAIR",
            3,
            "resynth (ESOP/linear)",
            &before.cost(),
            &out.circuit.cost(),
            out.stats,
            0.001,
        ));
        let json = r.to_json();
        assert!(json.contains(r#""gates_in": 3"#));
        assert!(json.contains(r#""attempted":"#));
        assert!(json.contains(r#""memo_hits":"#));
        assert!(json.contains(r#""clean_skips":"#));
        assert!(json.contains(r#""unsound": 0"#));
        assert!(json.contains(r#""passes":"#));
        assert!(json.contains(r#""flow": "resynth (ESOP/linear)""#));
        assert!(!json.contains("rewrites"));
    }
}
