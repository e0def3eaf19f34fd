//! The metric catalogue and the one-line JSON result every run ends with.

use qda_bench::json::Json;
use std::collections::BTreeMap;

/// A metric the benchmark emits: its name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("serve_p50_ms", "ms"),
    m("serve_p90_ms", "ms"),
    m("serve_goodput_rps", "1/s"),
    m("t_count_gmean", "count"),
    m("qubits_gmean", "count"),
    m("gates_gmean", "count"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`). A layer
/// a workload never enters reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    m("failed_frac", "ratio"),
    m("verilog.parse_elab_s", "s"),
    m("verilog.aig_ands", "count"),
    m("classical.optimize_s", "s"),
    m("classical.aig_ands_out", "count"),
    m("core.frontend_s", "s"),
    m("core.frontend_hits", "count"),
    m("core.frontend_misses", "count"),
    m("classical.collapse_s", "s"),
    m("bdd.nodes", "count"),
    m("classical.esop_extract_s", "s"),
    m("classical.cubes_in", "count"),
    m("classical.exorcism_s", "s"),
    m("classical.cubes_out", "count"),
    m("classical.exorcism_keep_ratio", "ratio"),
    m("revsynth.esop_s", "s"),
    m("revsynth.embed_s", "s"),
    m("revsynth.tbs_s", "s"),
    m("classical.xmg_map_s", "s"),
    m("classical.xmg_gates", "count"),
    m("revsynth.hier_s", "s"),
    m("revsynth.gates_raw", "count"),
    m("revsynth.t_raw", "count"),
    m("rev.opt_s", "s"),
    m("rev.opt_rewrites", "count"),
    m("rev.opt_gates_removed", "count"),
    m("rev.resynth_s", "s"),
    m("rev.resynth_windows", "count"),
    m("rev.resynth_accepted", "count"),
    m("rev.resynth_accept_ratio", "ratio"),
    m("rev.resynth_passes", "count"),
    m("rev.resynth_t_saved", "count"),
    m("analyze.s", "s"),
    m("analyze.diagnostics", "count"),
    m("rev.verify_s", "s"),
    m("rev.verify_states", "count"),
    m("rev.verify_states_per_s", "1/s"),
    m("bench.glue_s", "s"),
    m("logic.par_spawned", "count"),
    m("server.queue_wait_p50_ms", "ms"),
    m("server.queue_wait_p90_ms", "ms"),
    m("server.service_p50_ms", "ms"),
    m("server.service_p90_ms", "ms"),
    m("server.stage_frontend_s", "s"),
    m("server.stage_synthesis_s", "s"),
    m("server.stage_post_s", "s"),
    m("server.stage_verify_s", "s"),
    m("server.cache_hit_ratio", "ratio"),
    m("server.rejected", "count"),
    m("server.timeouts", "count"),
    m("server.errors", "count"),
    m("serve.gen_late_p90_ms", "ms"),
    m("trace.overhead_frac", "ratio"),
    m("trace.coverage_frac", "ratio"),
];

/// Metric values collected by a run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Sets every per-layer metric to 0, so layers a workload never enters
    /// still appear in its traced result.
    pub fn zero_per_layer(&mut self) {
        for spec in PER_LAYER {
            self.set(spec.name, 0.0);
        }
    }

    /// Reads one metric back.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the final result line: exactly the metrics of `specs`, each
/// finite, with its unit.
///
/// # Errors
///
/// Names a metric of `specs` that is missing or not finite, or a
/// collected metric outside `specs`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    metrics: &Metrics,
) -> Result<String, String> {
    if let Some(extra) = metrics
        .0
        .keys()
        .find(|k| !specs.iter().any(|s| s.name == **k))
    {
        return Err(format!("metric {extra} is not in this run's catalogue"));
    }
    let mut rendered = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = metrics
            .get(spec.name)
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", spec.name));
        }
        rendered.push((
            spec.name.to_string(),
            Json::object([
                ("value", Json::Num(format!("{value}"))),
                ("unit", Json::from(spec.unit)),
            ]),
        ));
    }
    Ok(Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", Json::Obj(rendered)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_all_digits() {
        let specs = [m("latency_ms", "ms"), m("setup_s", "s")];
        let mut metrics = Metrics::default();
        metrics.set("latency_ms", 1.203_456_789_012_3);
        metrics.set("setup_s", 3.0);
        let line = result_line(true, 1000, 0, &specs, &metrics).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034567890123, "unit": "ms"}, "setup_s": {"value": 3, "unit": "s"}}}"#
        );
        let parsed = Json::parse(&line).unwrap();
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(value, Some(1.203_456_789_012_3));
    }

    #[test]
    fn result_line_rejects_missing_extra_and_non_finite_metrics() {
        let specs = [m("a", "s")];
        let empty = Metrics::default();
        assert!(result_line(true, 1, 0, &specs, &empty)
            .unwrap_err()
            .contains("not measured"));
        let mut nan = Metrics::default();
        nan.set("a", f64::NAN);
        assert!(result_line(true, 1, 0, &specs, &nan)
            .unwrap_err()
            .contains("not finite"));
        let mut extra = Metrics::default();
        extra.set("a", 1.0);
        extra.set("b", 2.0);
        assert!(result_line(true, 1, 0, &specs, &extra)
            .unwrap_err()
            .contains("catalogue"));
    }

    #[test]
    fn zeroed_per_layer_metrics_render() {
        let mut metrics = Metrics::default();
        metrics.zero_per_layer();
        let line = result_line(true, 1, 0, PER_LAYER, &metrics).unwrap();
        assert!(line.contains(r#""rev.resynth_s": {"value": 0, "unit": "s"}"#));
    }

    /// The catalogue above and `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
