//! `perfbench`: one workload, one run, every metric by name and unit.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `hier-recip`, `dse-esop-tbs`, `serve-mixed` (see
//! `perfbench/README.md`). With `--trace 0` the last stdout line carries
//! the end-to-end metrics, with `--trace 1` the per-layer ones; the run's
//! environment is printed on the line before it.

mod batch;
mod calib;
mod golden;
mod report;
mod serve;
mod stats;
mod trace;

use batch::{Batch, BatchKind, Counts};
use calib::Reference;
use golden::Rng;
use qda_bench::json::Json;
use qda_logic::par;
use report::{Metrics, END_TO_END, PER_LAYER};
use serve::{Daemon, EntryKind};
use stats::{geomean, median, percentile};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <hier-recip|dse-esop-tbs|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> --server <qda-server binary>";

/// Set-up is measured this many times per run; the median is reported.
const SETUP_REPEATS: usize = 31;

/// Fewest measured passes of a batch workload, however short the run.
const MIN_PASSES: usize = 3;

/// Latency limit of a batch job for `serve_goodput_rps`.
const BATCH_LIMIT: Duration = Duration::from_secs(10);

/// Open-loop request rate of `serve-mixed`.
const SERVE_RATE: f64 = 5.0;

/// Fewest copies of the catalogue the open loop sends, so the p90 has ten
/// samples beyond it.
const MIN_COPIES: usize = 4;

/// The open-loop generator spins for the last stretch before a due time.
const SPIN: Duration = Duration::from_millis(2);

/// Latency limit of a `serve-mixed` request for `serve_goodput_rps`.
const SERVE_LIMIT: Duration = Duration::from_secs(1);

/// The open-loop generator times a reference run only if it can start
/// this long before the next due time ...
const REF_LEAD: Duration = Duration::from_millis(100);

/// ... and scales a request's times by the runs within this of its due
/// time.
const REF_WINDOW: Duration = Duration::from_secs(1);

/// Span names of the traced re-drive and the per-layer metric each one's
/// self time feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("verilog.parse_elab", "verilog.parse_elab_s"),
    ("classical.optimize", "classical.optimize_s"),
    ("core.frontend", "core.frontend_s"),
    ("classical.collapse", "classical.collapse_s"),
    ("classical.esop_extract", "classical.esop_extract_s"),
    ("classical.exorcism", "classical.exorcism_s"),
    ("revsynth.esop", "revsynth.esop_s"),
    ("revsynth.embed", "revsynth.embed_s"),
    ("revsynth.tbs", "revsynth.tbs_s"),
    ("classical.xmg_map", "classical.xmg_map_s"),
    ("revsynth.hier", "revsynth.hier_s"),
    ("rev.opt", "rev.opt_s"),
    ("rev.resynth", "rev.resynth_s"),
    ("analyze", "analyze.s"),
    ("rev.verify", "rev.verify_s"),
    ("bench.glue", "bench.glue_s"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Batch(BatchKind),
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "hier-recip" => Ok(Workload::Batch(BatchKind::HierRecip)),
            "dse-esop-tbs" => Ok(Workload::Batch(BatchKind::DseEsopTbs)),
            "serve-mixed" => Ok(Workload::Serve),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    /// Internal: start up, print `ready`, exit (set-up time probe).
    probe: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    let mut probe = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            "--server" => server = Some(PathBuf::from(value()?)),
            "--probe" => probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name)?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: if probe {
            1.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.unwrap_or(false),
        server,
        probe,
    })
}

/// A numeric field of a `/proc/<pid>/status` file (`VmHWM` in kB,
/// `Threads`, ...).
pub fn proc_status(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// The pinned environment of a run.
struct Env {
    nproc: usize,
    workers: usize,
    /// CPU of the benchmark's own thread (the measured work of a batch
    /// workload, the open-loop generator of `serve-mixed`) ...
    bench_cpu: usize,
    /// ... and of the daemon; `None` where the host refused pinning.
    daemon_cpu: Option<usize>,
}

impl Env {
    /// Pins `QDA_WORKERS` to 1 for this process and every process it
    /// starts, before anything reads it, and pins CPUs: the measured work
    /// runs on the last allowed CPU, next to its reference samples (see
    /// `calib`); the open-loop generator of `serve-mixed` runs on the
    /// first, so it never takes the daemon's CPU. On a two-vCPU host the
    /// two vCPUs' speeds swing independently, so two workers made every
    /// pass depend on both; one worker made `hier-recip` faster, too.
    fn pin(workload: Workload) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let workers = 1;
        std::env::set_var("QDA_WORKERS", workers.to_string());
        let cpus = calib::allowed_cpus();
        let (first, last) = (cpus.first().copied(), cpus.last().copied());
        let (bench, daemon) = match workload {
            Workload::Batch(_) => (last, last),
            Workload::Serve => (first, last),
        };
        let pinned = bench.zip(daemon).filter(|&(b, _)| calib::pin_to(b));
        if pinned.is_none() {
            eprintln!("perfbench: warning: could not pin CPUs; calibration is weaker");
        }
        Self {
            nproc,
            workers,
            bench_cpu: pinned.map_or(0, |p| p.0),
            daemon_cpu: pinned.map(|p| p.1),
        }
    }

    /// Runs `f` on the daemon's CPU (where the host allows pinning).
    fn on_daemon_cpu<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(cpu) = self.daemon_cpu else {
            return f();
        };
        calib::pin_to(cpu);
        let out = f();
        calib::pin_to(self.bench_cpu);
        out
    }

    fn to_json(&self, args: &Args) -> Json {
        let var = |k: &str| Json::from(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
        Json::object([
            ("workload", Json::from(args.name.as_str())),
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(format!("{}", args.seconds))),
            ("trace", Json::Bool(args.trace)),
            ("nproc", Json::Int(self.nproc as u64)),
            ("qda_workers", Json::Int(self.workers as u64)),
            (
                "cpus",
                match (args.workload, self.daemon_cpu) {
                    (_, None) => Json::from("unpinned"),
                    (Workload::Batch(_), Some(_)) => {
                        Json::object([("bench", Json::Int(self.bench_cpu as u64))])
                    }
                    (Workload::Serve, Some(daemon)) => Json::object([
                        ("generator", Json::Int(self.bench_cpu as u64)),
                        ("daemon", Json::Int(daemon as u64)),
                    ]),
                },
            ),
            ("commit", var("PERFBENCH_COMMIT")),
            ("rustc", var("PERFBENCH_RUSTC")),
        ])
    }
}

/// What a run produced: the result line's fields plus, for traced runs,
/// the spans to write out.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    spans: Option<Json>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let env = Env::pin(args.workload);
    if args.probe {
        return probe(args, &env);
    }
    let env_json = env.to_json(args);
    let outcome = match args.workload {
        Workload::Batch(kind) => run_batch(kind, args)?,
        Workload::Serve => run_serve(args, &env)?,
    };
    if let Some(spans) = outcome.spans {
        write_trace(args, &env_json, spans)?;
    }
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report::result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        specs,
        &outcome.metrics,
    )?;
    println!("{}", Json::object([("env", env_json)]).render());
    println!("{line}");
    Ok(())
}

/// Writes the traced run's spans to `.bench_out/` in the working directory.
fn write_trace(args: &Args, env: &Json, spans: Json) -> Result<(), String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.name, args.seed));
    let doc = Json::object([("env", env.clone()), ("spans", spans)]).render();
    std::fs::write(&path, doc + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// Set-up probe of a batch workload: generate the inputs, warm the pool,
/// report ready.
fn probe(args: &Args, env: &Env) -> Result<(), String> {
    let Workload::Batch(kind) = args.workload else {
        return Err("--probe applies to batch workloads".into());
    };
    let batch = Batch::new(kind, &mut Rng::new(args.seed));
    let sources: usize = batch.designs().iter().map(|d| d.verilog().len()).sum();
    std::hint::black_box(sources);
    let warm = par::run_indexed(env.workers.max(2), |i| i);
    std::hint::black_box(warm);
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// Median over [`SETUP_REPEATS`] measurements of `once`, in reference
/// seconds.
fn setup_median(
    mut reference: impl FnMut() -> f64,
    mut once: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let before = reference();
    let times = (0..SETUP_REPEATS)
        .map(|_| once().map(|d| d.as_secs_f64()))
        .collect::<Result<Vec<_>, _>>()?;
    let raw = median(&times).ok_or("no set-up samples")?;
    let after = reference();
    eprintln!("perfbench: set-up median {raw:.6} s; reference {before:.4} s and {after:.4} s");
    Ok(calib::scale(raw, (before + after) / 2.0))
}

/// Process start → inputs generated and pool warm, for a batch workload.
fn batch_setup_once(args: &Args) -> Result<Duration, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--probe",
            "--workload",
            &args.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the set-up probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let elapsed = start.elapsed();
    let status = child.wait().map_err(|e| e.to_string())?;
    if read.is_err() || line.trim() != "ready" || !status.success() {
        return Err("the set-up probe failed".into());
    }
    Ok(elapsed)
}

/// Sleeps to just before `due`, then spins: a plain sleep can overshoot by
/// milliseconds, which would count as latency.
fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn pct(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// States the sample count behind a latency distribution and the highest
/// percentile with at least ten samples beyond it.
fn note_samples(what: &str, samples: &[f64]) {
    let reportable = stats::highest_reportable(samples.len())
        .map_or_else(|| "none".to_string(), |p| format!("p{p}"));
    eprintln!(
        "perfbench: {what}: {} samples, highest reportable percentile {reportable}",
        samples.len()
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Geometric means of qubits, T-count and gates over `costs`.
fn set_quality(metrics: &mut Metrics, costs: &[serve::Cost]) -> Result<(), String> {
    let column = |f: fn(&serve::Cost) -> u64| -> Result<f64, String> {
        let values: Vec<f64> = costs.iter().map(|c| f(c) as f64).collect();
        geomean(&values).ok_or_else(|| "no circuits to average".to_string())
    };
    metrics.set("qubits_gmean", column(|c| c.0)?);
    metrics.set("t_count_gmean", column(|c| c.1)?);
    metrics.set("gates_gmean", column(|c| c.2)?);
    Ok(())
}

fn run_batch(kind: BatchKind, args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed);
    let batch = Batch::new(kind, &mut rng);
    let jobs = batch.jobs() as u64;
    let mut reference = Reference::new();
    let setup_s = if args.trace {
        0.0
    } else {
        setup_median(|| reference.sample(), || batch_setup_once(args))?
    };
    let aig_ands = batch.elaborated_ands()?;

    // Warm-up pass: not timed; its circuits are checked against the golden
    // models and become the reference every later pass must reproduce.
    let warm = batch.run_pass(|| {});
    let (golden_states, errors) = batch.check_against_golden(&warm, &mut rng);
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    let mut correct = errors.is_empty();
    let mut attempted = jobs;
    let mut failed = errors.len() as u64;
    let expected = warm
        .results
        .iter()
        .map(|r| r.as_ref().map(|o| o.circuit.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let costs: Vec<serve::Cost> = warm
        .results
        .iter()
        .flatten()
        .map(|o| {
            let c = &o.cost;
            eprintln!(
                "perfbench: {} / {}: {} qubits, {} T, {} gates",
                o.design, o.flow_name, c.qubits, c.t_count, c.gates
            );
            (c.qubits as u64, c.t_count, c.gates as u64)
        })
        .collect();
    eprintln!(
        "perfbench: {} jobs checked against the golden models on {golden_states} inputs",
        expected.len()
    );

    let spawned_before = par::spawned_threads();
    let tracer = Tracer::new();
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut raw_walls, mut raw_traced) = (Vec::new(), Vec::new());
    let mut job_latencies: Vec<Vec<f64>> = vec![Vec::new(); expected.len()];
    let mut counts = Counts::default();
    let mut good = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let flows = jobs as usize / batch.designs().len();
    // Reference samples between the designs of every pass; each design's
    // time is scaled by the samples before and after it (see `calib`).
    let mut refs: Vec<f64> = Vec::new();
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let mut bounds = Vec::new();
        let pass = batch.run_pass(|| bounds.push(reference.sample()));
        let factors: Vec<f64> = bounds
            .windows(2)
            .map(|b| calib::scale(1.0, (b[0] + b[1]) / 2.0))
            .collect();
        refs.extend(&bounds);
        attempted += jobs;
        for (j, ((result, want), samples)) in pass
            .results
            .iter()
            .zip(&expected)
            .zip(&mut job_latencies)
            .enumerate()
        {
            match result {
                // A job's latency is the runtime its flow reports (for a
                // cached front end, `explore_matrix` reports the time it
                // took when it was computed).
                Ok(o) if o.circuit == *want => {
                    samples.push(ms(o.runtime) * factors[j / flows]);
                    good += u64::from(o.runtime <= BATCH_LIMIT);
                }
                Ok(o) => {
                    eprintln!(
                        "perfbench: {} / {} changed between passes",
                        o.design, o.flow_name
                    );
                    correct = false;
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    failed += 1;
                }
            }
        }
        raw_walls.push(pass.wall().as_secs_f64());
        walls.push(
            pass.segments
                .iter()
                .zip(&factors)
                .map(|(d, k)| d.as_secs_f64() * k)
                .sum::<f64>(),
        );
        if args.trace {
            let before = reference.sample();
            let (wall, pass_counts) =
                batch.traced_pass(&tracer, traced_walls.len() as u64, &expected)?;
            let k = calib::scale(1.0, (before + reference.sample()) / 2.0);
            raw_traced.push(wall.as_secs_f64());
            traced_walls.push(wall.as_secs_f64() * k);
            counts = pass_counts;
        }
    }
    eprintln!("perfbench: raw pass walls (s): {raw_walls:.3?}");
    eprintln!("perfbench: reference samples (s): {refs:.4?}");
    eprintln!("perfbench: pass walls (reference s): {walls:.3?}; traced: {traced_walls:.3?}");
    let spawned = par::spawned_threads() - spawned_before;
    if spawned != 0 {
        eprintln!("perfbench: warning: the worker pool spawned {spawned} threads after warm-up");
    }
    let mut metrics = Metrics::default();
    let spans = if args.trace {
        metrics.zero_per_layer();
        let spans = tracer.spans();
        // Self times per traced pass, in reference seconds: every span
        // scaled by the traced passes' mean factor.
        let k = ratio(traced_walls.iter().sum(), raw_traced.iter().sum());
        let passes = traced_walls.len() as f64;
        let self_times = trace::self_times(&spans);
        let mut library = 0.0;
        for (span, metric) in SPAN_METRICS {
            let total = self_times.get(span).copied().unwrap_or(0.0);
            metrics.set(metric, total * k / passes);
            if *span != "bench.glue" {
                library += total;
            }
        }
        let all: f64 = self_times.values().sum();
        metrics.set("trace.coverage_frac", ratio(library, all));
        metrics.set(
            "trace.overhead_frac",
            ratio(
                median(&traced_walls).unwrap_or(0.0),
                median(&walls).unwrap_or(0.0),
            ) - 1.0,
        );
        set_layer_counts(&mut metrics, &counts, aig_ands);
        metrics.set("logic.par_spawned", spawned as f64);
        metrics.set("failed_frac", ratio(failed as f64, attempted as f64));
        Some(trace::spans_json(&spans))
    } else {
        // Percentiles across the jobs of each job's median latency: a pass
        // holds a handful of very different jobs (two on hier-recip), so
        // raw per-pass samples would put the p50 in the gap between them.
        let latencies: Vec<f64> = job_latencies.iter().filter_map(|v| median(v)).collect();
        note_samples("job median latency", &latencies);
        let wall = median(&walls).unwrap_or(0.0);
        metrics.set("setup_s", setup_s);
        metrics.set("wall_s", wall);
        metrics.set("serve_p50_ms", pct(&latencies, 50.0));
        metrics.set("serve_p90_ms", pct(&latencies, 90.0));
        metrics.set("serve_goodput_rps", good as f64 / walls.iter().sum::<f64>());
        set_quality(&mut metrics, &costs)?;
        let hwm = proc_status("/proc/self/status", "VmHWM").ok_or("VmHWM unreadable")?;
        metrics.set("peak_rss_mb", hwm as f64 / 1024.0);
        None
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        spans,
    })
}

fn set_layer_counts(metrics: &mut Metrics, c: &Counts, aig_ands: u64) {
    let f = |v: u64| v as f64;
    metrics.set("verilog.aig_ands", f(aig_ands));
    metrics.set("classical.aig_ands_out", f(c.aig_ands_out));
    metrics.set("core.frontend_hits", f(c.frontend_hits));
    metrics.set("core.frontend_misses", f(c.frontend_misses));
    metrics.set("bdd.nodes", f(c.bdd_nodes));
    metrics.set("classical.cubes_in", f(c.cubes_in));
    metrics.set("classical.cubes_out", f(c.cubes_out));
    metrics.set(
        "classical.exorcism_keep_ratio",
        ratio(f(c.cubes_out), f(c.cubes_in)),
    );
    metrics.set("classical.xmg_gates", f(c.xmg_gates));
    metrics.set("revsynth.gates_raw", f(c.gates_raw));
    metrics.set("revsynth.t_raw", f(c.t_raw));
    metrics.set("rev.opt_rewrites", f(c.opt_rewrites));
    metrics.set("rev.opt_gates_removed", f(c.opt_gates_removed));
    metrics.set("rev.resynth_windows", f(c.resynth_windows));
    metrics.set("rev.resynth_accepted", f(c.resynth_accepted));
    metrics.set(
        "rev.resynth_accept_ratio",
        ratio(f(c.resynth_accepted), f(c.resynth_windows)),
    );
    metrics.set("rev.resynth_passes", f(c.resynth_passes));
    metrics.set("rev.resynth_t_saved", c.resynth_t_saved as f64);
    metrics.set("analyze.diagnostics", f(c.diagnostics));
    metrics.set("rev.verify_states", f(c.verify_states));
    let verify_s = metrics.get("rev.verify_s").unwrap_or(0.0);
    metrics.set(
        "rev.verify_states_per_s",
        ratio(f(c.verify_states), verify_s),
    );
}

fn run_serve(args: &Args, env: &Env) -> Result<Outcome, String> {
    let bin = args
        .server
        .clone()
        .ok_or("serve-mixed needs --server <qda-server binary>")?;
    let mut rng = Rng::new(args.seed);
    let entries = serve::catalogue()?;
    let mut reference = Reference::new();
    let setup_s = if args.trace {
        0.0
    } else {
        setup_median(
            || env.on_daemon_cpu(|| reference.sample()),
            || {
                let start = Instant::now();
                let mut daemon = Daemon::spawn(&bin, env.workers, env.daemon_cpu)?;
                daemon.stats(1)?;
                let elapsed = start.elapsed();
                daemon.shutdown(2)?;
                Ok(elapsed)
            },
        )?
    };

    let mut daemon = Daemon::spawn(&bin, env.workers, env.daemon_cpu)?;
    let mut next_id = 10u64;
    let mut take_id = || {
        next_id += 1;
        next_id
    };
    let request = |id: u64, body: &str| format!(r#"{{"id": {id}, {body}}}"#);
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);

    // Warm-up: every catalogue entry once, closed loop, not timed. Fills
    // the front-end cache and starts every lazy component of the daemon.
    for entry in &entries {
        let id = take_id();
        let (_, reply) = daemon.call(id, &request(id, &entry.body))?;
        let r = serve::parse_response(&reply)?;
        attempted += 1;
        if !r.ok {
            eprintln!("perfbench: warm-up {} failed: {reply}", entry.label);
            failed += 1;
        } else if r.row.map(|row| row.cost) != Some(entry.expect) {
            eprintln!(
                "perfbench: warm-up {} differs from the batch run",
                entry.label
            );
            failed += 1;
            correct = false;
        }
    }
    let before = daemon.stats(take_id())?;
    let threads_before = daemon.status_field("Threads").unwrap_or(0);

    // The open loop: request k is due at t0 + k / rate, whatever the daemon
    // is doing; latency runs from the due time. Whole shuffled copies of
    // the catalogue, so every run sends the same multiset.
    let copies =
        ((SERVE_RATE * args.seconds / entries.len() as f64).round() as usize).max(MIN_COPIES);
    let n = copies * entries.len();
    let order = serve::schedule(entries.len(), n, &mut rng);
    let first_id = take_id();
    let lines: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(k, &e)| request(first_id + k as u64, &entries[e].body))
        .collect();
    let period = Duration::from_secs_f64(1.0 / SERVE_RATE);
    let answered_before = daemon.answered();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due_of = |k: usize| t0 + period * k as u32;
    let mut late = Vec::with_capacity(n);
    let mut refs = Vec::with_capacity(n);
    for (k, line) in lines.iter().enumerate() {
        let due = due_of(k);
        // Once every request so far is answered, and while the next one is
        // far enough off, time one reference run on the daemon's idle CPU.
        let by = due.checked_sub(REF_LEAD).unwrap_or(due);
        while daemon.answered() - answered_before < k && Instant::now() < by {
            std::thread::sleep(Duration::from_millis(1));
        }
        if daemon.answered() - answered_before == k && Instant::now() < by {
            refs.push((Instant::now(), env.on_daemon_cpu(|| reference.run())));
        }
        sleep_until(due);
        daemon.send(line)?;
        late.push(ms(Instant::now().saturating_duration_since(due)));
    }
    eprintln!(
        "perfbench: {} reference runs (s): {:.4?}",
        refs.len(),
        refs.iter().map(|r| r.1).collect::<Vec<_>>()
    );
    let mut replies: Vec<Option<(Instant, serve::Response)>> = vec![None; n];
    let mut pending = n;
    while pending > 0 {
        let Some((at, line)) = daemon.recv(serve::REPLY_TIMEOUT) else {
            break;
        };
        let r = serve::parse_response(&line)?;
        let slot =
            r.id.and_then(|id| id.checked_sub(first_id))
                .and_then(|k| replies.get_mut(k as usize));
        if let Some(slot @ None) = slot {
            *slot = Some((at, r));
            pending -= 1;
        }
    }
    let after = daemon.stats(take_id())?;
    let threads_after = daemon.status_field("Threads").unwrap_or(0);
    let hwm = daemon
        .status_field("VmHWM")
        .ok_or("daemon VmHWM unreadable")?;
    daemon.shutdown(take_id())?;

    let mut latencies = Vec::with_capacity(n);
    let (mut queue_waits, mut services) = (Vec::new(), Vec::new());
    let mut stage_sums = serve::Stages::default();
    let mut seen: Vec<Option<serve::Cost>> = vec![None; entries.len()];
    let (mut good, mut generator_ok, mut verilog_ok) = (0u64, 0u64, 0u64);
    let mut window = Duration::ZERO;
    attempted += n as u64;
    for (k, reply) in replies.iter().enumerate() {
        let due = due_of(k);
        let reference = calib::local(&refs, due, REF_WINDOW).ok_or("no reference runs")?;
        let scale = calib::scale(1.0, reference);
        let entry = &entries[order[k]];
        let Some((at, r)) = reply else {
            latencies.push(ms(serve::REPLY_TIMEOUT));
            failed += 1;
            continue;
        };
        let latency = at.saturating_duration_since(due);
        window = window.max(at.saturating_duration_since(t0));
        latencies.push(ms(latency) * scale);
        let Some(row) = r.row.filter(|_| r.ok) else {
            eprintln!(
                "perfbench: {} failed ({})",
                entry.label,
                r.error_kind.as_deref().unwrap_or("no result row")
            );
            failed += 1;
            continue;
        };
        if row.cost != entry.expect {
            eprintln!("perfbench: {} differs from the batch run", entry.label);
            failed += 1;
            correct = false;
            continue;
        }
        good += u64::from(latency <= SERVE_LIMIT);
        seen[order[k]] = Some(row.cost);
        queue_waits.push(r.queue_wait_s * 1e3 * scale);
        services.push(row.runtime_s * 1e3 * scale);
        stage_sums.frontend_s += row.stages.frontend_s * scale;
        stage_sums.synthesis_s += row.stages.synthesis_s * scale;
        stage_sums.post_s += row.stages.post_s * scale;
        stage_sums.verify_s += row.stages.verify_s * scale;
        match entry.kind {
            EntryKind::Generator => generator_ok += 1,
            EntryKind::Verilog => verilog_ok += 1,
            EntryKind::Real => {}
        }
    }

    let mut metrics = Metrics::default();
    if args.trace {
        metrics.zero_per_layer();
        let answered = services.len() as f64;
        metrics.set("failed_frac", ratio(failed as f64, attempted as f64));
        metrics.set("server.queue_wait_p50_ms", pct(&queue_waits, 50.0));
        metrics.set("server.queue_wait_p90_ms", pct(&queue_waits, 90.0));
        metrics.set("server.service_p50_ms", pct(&services, 50.0));
        metrics.set("server.service_p90_ms", pct(&services, 90.0));
        metrics.set(
            "server.stage_frontend_s",
            ratio(stage_sums.frontend_s, answered),
        );
        metrics.set(
            "server.stage_synthesis_s",
            ratio(stage_sums.synthesis_s, answered),
        );
        metrics.set("server.stage_post_s", ratio(stage_sums.post_s, answered));
        metrics.set(
            "server.stage_verify_s",
            ratio(stage_sums.verify_s, answered),
        );
        let misses = after.cached_frontends - before.cached_frontends;
        metrics.set(
            "server.cache_hit_ratio",
            ratio(
                generator_ok.saturating_sub(misses) as f64,
                (generator_ok + verilog_ok) as f64,
            ),
        );
        metrics.set("server.rejected", (after.rejected - before.rejected) as f64);
        metrics.set("server.timeouts", (after.timeouts - before.timeouts) as f64);
        metrics.set("server.errors", (after.failed - before.failed) as f64);
        metrics.set("serve.gen_late_p90_ms", pct(&late, 90.0));
        metrics.set(
            "logic.par_spawned",
            threads_after as f64 - threads_before as f64,
        );
    } else {
        let window_s = window.as_secs_f64();
        note_samples("request latency", &latencies);
        metrics.set("setup_s", setup_s);
        metrics.set("wall_s", window_s);
        metrics.set("serve_p50_ms", pct(&latencies, 50.0));
        metrics.set("serve_p90_ms", pct(&latencies, 90.0));
        metrics.set("serve_goodput_rps", ratio(good as f64, window_s));
        let costs: Vec<serve::Cost> = seen.into_iter().flatten().collect();
        set_quality(&mut metrics, &costs)?;
        metrics.set("peak_rss_mb", hwm as f64 / 1024.0);
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        spans: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve-mixed --seed 7 --seconds 20 --trace 1 --server x").unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
        assert_eq!(a.server, Some(PathBuf::from("x")));
        let b = args("--workload hier-recip --seed 1 --seconds 0.5 --trace 0").unwrap();
        assert_eq!(b.workload, Workload::Batch(BatchKind::HierRecip));
        assert!(!b.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload hier-recip --seconds 1 --trace 0",
            "--workload hier-recip --seed 1 --seconds 0 --trace 0",
            "--workload hier-recip --seed 1 --seconds 1 --trace 2",
            "--workload hier-recip --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn reads_proc_status_fields() {
        let hwm = proc_status("/proc/self/status", "VmHWM").unwrap();
        assert!(hwm > 0);
        assert!(proc_status("/proc/self/status", "Threads").unwrap() >= 1);
        assert_eq!(proc_status("/proc/self/status", "NoSuchField"), None);
    }

    #[test]
    fn open_loop_needs_enough_requests_for_its_p90() {
        let catalogue = 26;
        assert_eq!(
            stats::highest_reportable(MIN_COPIES * catalogue),
            Some(90.0)
        );
    }
}
