//! The daemon core: reader, bounded queue, worker pool, watchdog.
//!
//! One session (a stdio pair or a TCP connection) is served by
//! [`serve_session`]:
//!
//! * the **reader** (the calling thread) decodes one request per line and
//!   never blocks on synthesis — cheap ops (`stats`, decode errors,
//!   `queue_full` rejections) are answered inline, jobs go through
//!   [`BoundedQueue::try_push`];
//! * **workers** pop jobs and run them on the shared `qda_logic::par`
//!   pool under `with_worker_cap`, with panics contained per job
//!   (`catch_unwind`) — a hostile design parameter produces a structured
//!   `panic` error response, not a dead daemon;
//! * the **watchdog** tracks per-job deadlines and answers an
//!   over-deadline job with a structured `timeout` error the moment its
//!   deadline passes; the worker's eventual result is abandoned
//!   (responses are complete-once, first writer wins).
//!
//! The [`FrontendCache`] and [`ServerStats`] are shared across sessions,
//! so a TCP daemon amortizes front-end work over all its clients.

use crate::protocol::{
    self, DesignSpec, ErrorKind, FlowChoice, FlowSwitches, Request, RequestError, SynthRequest,
};
use crate::queue::BoundedQueue;
use qda_analyze::CircuitInterface;
use qda_bench::json::Json;
use qda_bench::results::{BenchData, BenchRow, LintRowData, OptRowData};
use qda_core::flow::{
    EsopFlow, Flow, FlowBudget, FlowError, FrontendArtifacts, FrontendCache, FunctionalFlow,
    HierarchicalFlow, PostPasses, StageTimings, Synthesized,
};
use qda_core::Design;
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Knobs of one daemon instance.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Bounded work-queue capacity; admission beyond it fails with
    /// `queue_full`.
    pub queue_capacity: usize,
    /// Worker threads per session.
    pub workers: usize,
    /// `qda_logic::par` participant cap per job (0 = uncapped), unless
    /// the request budget narrows it further.
    pub job_worker_cap: usize,
    /// Longest accepted request line in bytes (defense against an
    /// unbounded-line memory bomb).
    pub max_line_bytes: usize,
    /// Deadline applied to jobs whose budget does not carry one
    /// (`None` = no default deadline).
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 16,
            workers: 2,
            job_worker_cap: 0,
            max_line_bytes: 1 << 20,
            default_deadline_ms: None,
        }
    }
}

/// Monotonic counters of a daemon instance, shared across sessions.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Synthesis requests admitted to the queue.
    pub received: AtomicU64,
    /// Jobs answered with a success response.
    pub completed: AtomicU64,
    /// Jobs answered with a structured error (excluding timeouts).
    pub failed: AtomicU64,
    /// Jobs rejected at admission (`queue_full`).
    pub rejected: AtomicU64,
    /// Jobs answered by the watchdog (`timeout`).
    pub timeouts: AtomicU64,
    /// Jobs whose execution panicked (contained, answered as `panic`).
    pub panics: AtomicU64,
    /// Total queue wait of answered jobs, in microseconds.
    pub wait_us: AtomicU64,
}

impl ServerStats {
    /// Mean queue wait per answered job in seconds — **NaN until the
    /// first job completes** (0/0), which the telemetry layer renders as
    /// `null` rather than panicking (the `Json::fixed` non-finite fix).
    pub fn avg_wait_s(&self) -> f64 {
        let done = self.completed.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed);
        #[allow(clippy::cast_precision_loss)]
        let total = self.wait_us.load(Ordering::Relaxed) as f64 / 1e6;
        total / done as f64
    }

    fn to_json(&self, queue_depth: usize, config: &ServerConfig, cached: usize) -> Json {
        let get = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed));
        Json::object([
            ("received", get(&self.received)),
            ("completed", get(&self.completed)),
            ("failed", get(&self.failed)),
            ("rejected", get(&self.rejected)),
            ("timeouts", get(&self.timeouts)),
            ("panics", get(&self.panics)),
            ("queue_depth", Json::Int(queue_depth as u64)),
            ("queue_capacity", Json::Int(config.queue_capacity as u64)),
            ("workers", Json::Int(config.workers as u64)),
            ("cached_frontends", Json::Int(cached as u64)),
            ("avg_wait_s", Json::fixed(self.avg_wait_s(), 6)),
        ])
    }
}

/// All responses of a session funnel through one writer; each response is
/// one line, written and flushed under the lock so concurrent workers
/// never interleave bytes.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(writer: &SharedWriter, line: &str) {
    let mut guard = writer.lock().unwrap_or_else(PoisonError::into_inner);
    // A vanished client is not a daemon error; drop the bytes.
    let _ = writeln!(guard, "{line}");
    let _ = guard.flush();
}

/// The complete-once response slot of one in-flight job. The worker and
/// the watchdog race to answer; whoever swaps the flag first writes the
/// response line, the loser's result is abandoned.
struct Pending {
    id: Json,
    done: AtomicBool,
    writer: SharedWriter,
}

impl Pending {
    fn new(id: Json, writer: SharedWriter) -> Self {
        Self {
            id,
            done: AtomicBool::new(false),
            writer,
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Writes `line` as the job's response unless one was already sent;
    /// returns whether this call won.
    fn complete(&self, line: &str) -> bool {
        if self.done.swap(true, Ordering::AcqRel) {
            return false;
        }
        write_line(&self.writer, line);
        true
    }
}

/// One admitted job.
struct Job {
    request: Box<SynthRequest>,
    admitted: Instant,
    pending: Arc<Pending>,
}

/// Deadline bookkeeping shared between the reader (registering) and the
/// watchdog thread (firing).
#[derive(Default)]
struct WatchState {
    entries: Vec<(Instant, u64, Arc<Pending>)>,
    closed: bool,
}

struct Watchdog {
    state: Mutex<WatchState>,
    wake: Condvar,
    stats: Arc<ServerStats>,
}

impl Watchdog {
    fn new(stats: Arc<ServerStats>) -> Self {
        Self {
            state: Mutex::new(WatchState::default()),
            wake: Condvar::new(),
            stats,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, deadline: Instant, deadline_ms: u64, pending: Arc<Pending>) {
        self.lock().entries.push((deadline, deadline_ms, pending));
        self.wake.notify_all();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// The watchdog loop: sleep until the earliest deadline, answer every
    /// expired job with a structured `timeout`, drop entries whose jobs
    /// were answered in time.
    fn run(&self) {
        let mut state = self.lock();
        loop {
            let now = Instant::now();
            state.entries.retain(|(deadline, deadline_ms, pending)| {
                if pending.is_done() {
                    return false;
                }
                if *deadline > now {
                    return true;
                }
                let error = RequestError::new(
                    ErrorKind::Timeout,
                    format!("deadline of {deadline_ms} ms exceeded; result abandoned"),
                );
                if pending.complete(&protocol::error_response(&pending.id, &error)) {
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                false
            });
            if state.closed {
                return;
            }
            let next = state.entries.iter().map(|e| e.0).min();
            state = match next {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    self.wake
                        .wait_timeout(state, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

fn build_flow(choice: FlowChoice, switches: FlowSwitches) -> Box<dyn Flow> {
    match choice {
        FlowChoice::Functional => {
            let mut flow = FunctionalFlow::default();
            apply_switches(
                switches,
                &mut flow.post_opt,
                &mut flow.post_resynth,
                &mut flow.analyze,
            );
            Box::new(flow)
        }
        FlowChoice::Esop { p } => {
            let mut flow = EsopFlow::with_factoring(p);
            apply_switches(
                switches,
                &mut flow.post_opt,
                &mut flow.post_resynth,
                &mut flow.analyze,
            );
            Box::new(flow)
        }
        FlowChoice::Hierarchical => {
            let mut flow = HierarchicalFlow::default();
            apply_switches(
                switches,
                &mut flow.post_opt,
                &mut flow.post_resynth,
                &mut flow.analyze,
            );
            Box::new(flow)
        }
    }
}

fn apply_switches(
    switches: FlowSwitches,
    post_opt: &mut bool,
    post_resynth: &mut bool,
    analyze: &mut bool,
) {
    if let Some(v) = switches.post_opt {
        *post_opt = v;
    }
    if let Some(v) = switches.post_resynth {
        *post_resynth = v;
    }
    if let Some(v) = switches.analyze {
        *analyze = v;
    }
}

fn flow_error(e: &FlowError) -> RequestError {
    let kind = match e {
        FlowError::Frontend(_) => ErrorKind::Parse,
        FlowError::DeadlineExceeded => ErrorKind::Timeout,
        FlowError::OverBudget(_) => ErrorKind::Budget,
        _ => ErrorKind::Flow,
    };
    RequestError::new(kind, e.to_string())
}

fn verilog_error(source: &str, e: &qda_verilog::VerilogError) -> RequestError {
    let (line, message) = match e {
        qda_verilog::VerilogError::Lex { offset, message } => (
            Some(crate::diagnostic::line_of_offset(source, *offset)),
            message.clone(),
        ),
        qda_verilog::VerilogError::Parse { message }
        | qda_verilog::VerilogError::Elaborate { message } => (None, message.clone()),
    };
    let mut error = RequestError::new(ErrorKind::Parse, format!("verilog: {message}"));
    if let Some(line) = line {
        error = error.with_diagnostic(crate::diagnostic::render(
            "request.v",
            source,
            line,
            &message,
        ));
    }
    error
}

fn real_error(source: &str, e: &qda_rev::io::ParseRealError) -> RequestError {
    RequestError::new(ErrorKind::Parse, e.to_string()).with_diagnostic(crate::diagnostic::render(
        "request.real",
        source,
        e.line,
        &e.message,
    ))
}

/// Splits `INTDIV(6)` into the family and parameter a [`BenchRow`] wants.
fn family_of(design: &Design) -> String {
    let name = design.name();
    name.split('(').next().unwrap_or(&name).to_string()
}

/// Runs one job to its response payload (the `BENCH_*.json` row shape).
///
/// The job's budget rides into the flow driver, which checks the deadline
/// between stages and the size caps before verification.
fn execute(
    request: &SynthRequest,
    cache: &FrontendCache,
    budget: &FlowBudget,
) -> Result<Json, RequestError> {
    match &request.design {
        DesignSpec::Generator(design) => {
            let flow = build_flow(request.flow, request.switches);
            let outcome = flow
                .precheck(design)
                .and_then(|()| cache.get_or_compute(design, &flow.frontend_options()))
                .and_then(|frontend| flow.run_with_frontend(design, &frontend, budget))
                .map_err(|e| flow_error(&e))?;
            Ok(BenchRow::from_outcome(&family_of(design), design.bits(), &outcome).to_json())
        }
        DesignSpec::Verilog(source) => {
            let start = Instant::now();
            let module =
                qda_verilog::parse_module(source).map_err(|e| verilog_error(source, &e))?;
            let aig = qda_verilog::elaborate(&module).map_err(|e| verilog_error(source, &e))?;
            let parse_elaborate = start.elapsed();
            let design = Design::external(aig.num_pis());
            let flow = build_flow(request.flow, request.switches);
            flow.precheck(&design).map_err(|e| flow_error(&e))?;
            let start = Instant::now();
            let aig = qda_classical::rewrite::optimize_aig(&aig, &flow.frontend_options());
            let frontend = FrontendArtifacts {
                aig,
                parse_elaborate,
                optimize: start.elapsed(),
            };
            let outcome = flow
                .run_with_frontend(&design, &frontend, budget)
                .map_err(|e| flow_error(&e))?;
            Ok(BenchRow::from_outcome("EXTERNAL", design.bits(), &outcome).to_json())
        }
        DesignSpec::Real(source) => execute_real(source, request, budget),
    }
}

/// A `.real` job has no reference function to synthesize from, so the
/// service is the flows' post-synthesis step without resynthesis:
/// peephole pass (soundness-checked) and the static analyzer under the
/// functional contract, reported in the same row shape.
fn execute_real(
    source: &str,
    request: &SynthRequest,
    budget: &FlowBudget,
) -> Result<Json, RequestError> {
    let start = Instant::now();
    let circuit = qda_rev::io::from_real(source).map_err(|e| real_error(source, &e))?;
    let parse_elaborate = start.elapsed();
    let before = circuit.cost();
    let passes = PostPasses {
        opt: request.switches.post_opt.unwrap_or(true),
        resynth: false,
        analyze: request.switches.analyze.unwrap_or(true),
    };
    let interface = CircuitInterface::functional(circuit.num_lines());
    let post = Synthesized { circuit, interface }
        .post_process(passes, budget)
        .map_err(|e| flow_error(&e))?;
    let stages = StageTimings {
        parse_elaborate,
        ..post.stages
    };
    let row = BenchRow {
        design: "EXTERNAL".to_string(),
        n: post.circuit.num_lines(),
        flow: "real (peephole + lint)".to_string(),
        data: Ok(BenchData {
            qubits: post.cost.qubits,
            t_count: post.cost.t_count,
            gates: post.cost.gates,
            runtime_s: stages.total().as_secs_f64(),
            stages: Some(stages),
            states_per_sec: None,
            cubes_in: None,
            opt: post.opt_stats.map(|stats| OptRowData {
                gates_in: before.gates,
                t_count_in: before.t_count,
                stats,
            }),
            resynth: None,
            lint: post.analysis.as_ref().map(LintRowData::from_report),
        }),
    };
    Ok(row.to_json())
}

/// Extracts the human message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn worker_loop(
    queue: &BoundedQueue<Job>,
    cache: &FrontendCache,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    while let Some(job) = queue.pop() {
        let wait = job.admitted.elapsed();
        // Already answered (watchdog timeout while queued): skip the work
        // entirely.
        if job.pending.is_done() {
            continue;
        }
        let mut budget = job.request.budget.to_flow_budget(job.admitted);
        if budget.deadline.is_none() {
            budget.deadline = config
                .default_deadline_ms
                .map(|ms| job.admitted + Duration::from_millis(ms));
        }
        let cap = match job.request.budget.workers {
            Some(w) if w >= 1 => usize::try_from(w).unwrap_or(usize::MAX),
            _ if config.job_worker_cap >= 1 => config.job_worker_cap,
            _ => usize::MAX,
        };
        let request = &job.request;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            qda_logic::par::with_worker_cap(cap, || execute(request, cache, &budget))
        }));
        let result = outcome.unwrap_or_else(|payload| {
            stats.panics.fetch_add(1, Ordering::Relaxed);
            Err(RequestError::new(
                ErrorKind::Panic,
                format!("job panicked: {}", panic_message(payload.as_ref())),
            ))
        });
        let (line, counter) = match &result {
            Ok(payload) => (
                protocol::ok_response(
                    &job.pending.id,
                    "result",
                    payload.clone(),
                    Some(wait.as_secs_f64()),
                ),
                &stats.completed,
            ),
            Err(error) => (
                protocol::error_response(&job.pending.id, error),
                &stats.failed,
            ),
        };
        if job.pending.complete(&line) {
            counter.fetch_add(1, Ordering::Relaxed);
            let micros = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
            stats.wait_us.fetch_add(micros, Ordering::Relaxed);
        }
    }
}

/// Reads one request line of at most `max` bytes. `None` = end of stream;
/// `Some(Err(n))` = an overlong line of `n` bytes was skipped whole.
fn read_request_line(
    reader: &mut impl BufRead,
    max: usize,
) -> std::io::Result<Option<Result<String, usize>>> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && buf.len() > max {
        // Discard the remainder without accumulating it: a single
        // newline-free multi-gigabyte line must cost O(buffer), not
        // O(line), of memory.
        let mut skipped = buf.len();
        loop {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                break;
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    skipped += i + 1;
                    reader.consume(i + 1);
                    break;
                }
                None => {
                    let n = available.len();
                    skipped += n;
                    reader.consume(n);
                }
            }
        }
        return Ok(Some(Err(skipped)));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    Ok(Some(Ok(String::from_utf8_lossy(&buf).into_owned())))
}

/// Serves one line-delimited JSON session until end of stream or a
/// `shutdown` request. The calling thread is the reader; `config.workers`
/// worker threads and one watchdog thread are spawned for the session's
/// lifetime. Pending jobs still drain (and get responses) after shutdown.
///
/// # Errors
///
/// Propagates reader I/O errors; a vanished *writer* is tolerated (the
/// remaining responses are dropped).
pub fn serve_session(
    mut reader: impl BufRead,
    writer: impl Write + Send + 'static,
    config: &ServerConfig,
    cache: &Arc<FrontendCache>,
    stats: &Arc<ServerStats>,
) -> std::io::Result<()> {
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
    let queue = Arc::new(BoundedQueue::<Job>::new(config.queue_capacity));
    let watchdog = Arc::new(Watchdog::new(Arc::clone(stats)));
    let mut threads = Vec::new();
    for _ in 0..config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let cache = Arc::clone(cache);
        let stats = Arc::clone(stats);
        let config = *config;
        // Workers parse inline Verilog, so they get the front end's stack.
        let worker = std::thread::Builder::new()
            .stack_size(qda_verilog::STACK_BYTES)
            .spawn(move || worker_loop(&queue, &cache, &stats, &config))?;
        threads.push(worker);
    }
    let watchdog_thread = {
        let watchdog = Arc::clone(&watchdog);
        std::thread::spawn(move || watchdog.run())
    };

    while let Some(line) = read_request_line(&mut reader, config.max_line_bytes)? {
        let line = match line {
            Ok(line) => line,
            Err(skipped) => {
                let error = RequestError::new(
                    ErrorKind::BadRequest,
                    format!(
                        "request line of {skipped} bytes exceeds the {} byte limit",
                        config.max_line_bytes
                    ),
                );
                write_line(&writer, &protocol::error_response(&Json::Null, &error));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match protocol::decode_request(&line) {
            Err(error) => {
                // A rejected request still deserves its id echoed back
                // when the line was at least JSON (correlation matters
                // most on errors).
                let id = Json::parse(&line)
                    .ok()
                    .and_then(|v| v.get("id").cloned())
                    .unwrap_or(Json::Null);
                write_line(&writer, &protocol::error_response(&id, &error));
            }
            Ok(Request::Stats { id }) => {
                let payload = stats.to_json(queue.len(), config, cache.len());
                write_line(&writer, &protocol::ok_response(&id, "stats", payload, None));
            }
            Ok(Request::Shutdown { id }) => {
                let payload = Json::object([("shutting_down", Json::Bool(true))]);
                write_line(
                    &writer,
                    &protocol::ok_response(&id, "result", payload, None),
                );
                break;
            }
            Ok(Request::Synth(request)) => {
                let admitted = Instant::now();
                let pending = Arc::new(Pending::new(request.id.clone(), Arc::clone(&writer)));
                let deadline_ms = request.budget.deadline_ms.or(config.default_deadline_ms);
                let job = Job {
                    request,
                    admitted,
                    pending: Arc::clone(&pending),
                };
                match queue.try_push(job) {
                    Ok(()) => {
                        stats.received.fetch_add(1, Ordering::Relaxed);
                        if let Some(ms) = deadline_ms {
                            watchdog.register(admitted + Duration::from_millis(ms), ms, pending);
                        }
                    }
                    Err(full) => {
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        let error = RequestError::new(ErrorKind::QueueFull, full.to_string());
                        pending.complete(&protocol::error_response(&pending.id, &error));
                    }
                }
            }
        }
    }

    // Drain: pending jobs still get their responses, then everything
    // winds down.
    queue.close();
    for thread in threads {
        let _ = thread.join();
    }
    watchdog.close();
    let _ = watchdog_thread.join();
    Ok(())
}

/// Serves line-delimited JSON sessions over TCP, one thread per
/// connection, sharing the front-end cache and stats across connections.
/// A `shutdown` request ends its own connection only; the listener runs
/// until the process is killed.
///
/// # Errors
///
/// Propagates bind failures; per-connection errors are contained.
pub fn serve_tcp(addr: &str, config: ServerConfig) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    // With `--tcp 127.0.0.1:0` the kernel picks the port; tell the
    // operator (on stderr — stdout stays protocol-clean).
    eprintln!("qda-server listening on {}", listener.local_addr()?);
    let cache = Arc::new(FrontendCache::new());
    let stats = Arc::new(ServerStats::default());
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let cache = Arc::clone(&cache);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            let Ok(write_half) = stream.try_clone() else {
                return;
            };
            let reader = std::io::BufReader::new(stream);
            let _ = serve_session(reader, write_half, &config, &cache, &stats);
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a whole scripted session through an in-memory pipe and
    /// returns one parsed response per request line.
    fn run_session(config: &ServerConfig, lines: &[String]) -> Vec<Json> {
        let stats = Arc::new(ServerStats::default());
        run_session_with(config, lines, &Arc::new(FrontendCache::new()), &stats)
    }

    fn run_session_with(
        config: &ServerConfig,
        lines: &[String],
        cache: &Arc<FrontendCache>,
        stats: &Arc<ServerStats>,
    ) -> Vec<Json> {
        let input = lines.join("\n") + "\n";
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        serve_session(
            std::io::Cursor::new(input),
            SharedBuf(Arc::clone(&out)),
            config,
            cache,
            stats,
        )
        .unwrap();
        let bytes = out.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is valid JSON"))
            .collect()
    }

    fn synth(id: u64, design: &str) -> String {
        format!(r#"{{"id": {id}, "design": {{"generator": "{design}"}}, "flow": "esop"}}"#)
    }

    #[test]
    fn round_trips_a_generator_job_with_stage_timings() {
        let responses = run_session(&ServerConfig::default(), &[synth(1, "INTDIV(4)")]);
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("id").and_then(Json::as_u64), Some(1));
        assert!(r.get("queue_wait_s").and_then(Json::as_f64).is_some());
        let row = r.get("result").unwrap();
        assert_eq!(row.get("design").and_then(Json::as_str), Some("INTDIV"));
        assert_eq!(row.get("qubits").and_then(Json::as_u64), Some(8));
        let stages = row.get("stages").expect("per-stage telemetry");
        for key in [
            "parse_elaborate_s",
            "optimize_s",
            "synthesis_s",
            "verification_s",
        ] {
            assert!(stages.get(key).is_some(), "missing {key}");
        }
        assert!(row.get("lint").is_some(), "analyze defaults on");
    }

    #[test]
    fn panicking_job_is_contained_and_the_daemon_keeps_serving() {
        // INTDIV(1) trips the generator assertion inside the worker (and
        // poisons the shared cache's slot mutex — the recovery fix). Both
        // a retry of the bad design and a fresh good design must still be
        // served by the *same* session.
        let responses = run_session(
            &ServerConfig::default(),
            &[
                synth(1, "INTDIV(1)"),
                synth(2, "INTDIV(1)"),
                synth(3, "INTDIV(4)"),
            ],
        );
        assert_eq!(responses.len(), 3);
        let by_id = |id: u64| {
            responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
                .unwrap()
        };
        for id in [1, 2] {
            let r = by_id(id);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
            let e = r.get("error").unwrap();
            assert_eq!(e.get("kind").and_then(Json::as_str), Some("panic"));
            assert!(
                e.get("message")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains("at least 2"),
                "panic message surfaces"
            );
        }
        assert_eq!(by_id(3).get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn hostile_generator_widths_are_answered() {
        // A width beyond the paper's largest instance is refused at
        // admission instead of building a gigabyte-scale Verilog string;
        // a zero width reaches the functional flow's size guard without
        // underflowing and trips the generator's own assertion.
        let responses = run_session(
            &ServerConfig::default(),
            &[
                synth(1, "INTDIV(4000000000)"),
                r#"{"id": 2, "design": {"generator": "INTDIV(0)"}, "flow": "functional"}"#
                    .to_string(),
            ],
        );
        assert_eq!(responses.len(), 2);
        let by_id = |id: u64| {
            let r = responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
                .unwrap();
            r.get("error").unwrap().clone()
        };
        let wide = by_id(1);
        assert_eq!(wide.get("kind").and_then(Json::as_str), Some("bad_request"));
        let message = wide.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("maximum 128"), "{message}");
        let zero = by_id(2);
        assert_eq!(zero.get("kind").and_then(Json::as_str), Some("panic"));
        let message = zero.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("at least 2"), "{message}");
    }

    #[test]
    fn queue_full_is_rejected_without_blocking() {
        // One worker, capacity 1: the first job occupies the worker (a
        // slow-ish design), the second fills the queue, the third must be
        // rejected with a structured queue_full error.
        let config = ServerConfig {
            queue_capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        };
        // All three requests arrive before the reader can be outpaced by
        // the worker only if job 1 is slow enough; NEWTON(5) through the
        // hierarchical flow takes long enough in practice. To make the
        // test deterministic regardless, push enough jobs that at least
        // one must be rejected: the queue admits 1, the worker holds 1,
        // so 8 back-to-back jobs cannot all be in flight.
        let mut lines = vec![format!(
            r#"{{"id": 1, "design": {{"generator": "NEWTON(5)"}}, "flow": "hierarchical"}}"#
        )];
        for id in 2..=8 {
            lines.push(synth(id, "INTDIV(4)"));
        }
        let responses = run_session(&config, &lines);
        assert_eq!(responses.len(), 8);
        let rejected: Vec<_> = responses
            .iter()
            .filter(|r| {
                r.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    == Some("queue_full")
            })
            .collect();
        assert!(
            !rejected.is_empty(),
            "8 instant submissions into a 1-slot queue with 1 worker must reject at least one"
        );
        for r in &rejected {
            let message = r
                .get("error")
                .unwrap()
                .get("message")
                .and_then(Json::as_str)
                .unwrap();
            assert!(
                message.contains("work queue full (1 jobs queued)"),
                "{message}"
            );
        }
        // And at least one job (the first) completed fine.
        assert!(responses
            .iter()
            .any(|r| r.get("ok").and_then(Json::as_bool) == Some(true)));
    }

    #[test]
    fn over_deadline_job_gets_a_structured_timeout() {
        let responses = run_session(
            &ServerConfig::default(),
            &[
                r#"{"id": 1, "design": {"generator": "NEWTON(6)"}, "flow": "hierarchical",
                    "budget": {"deadline_ms": 1}}"#
                    .replace('\n', " "),
            ],
        );
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let e = r.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("timeout"));
        assert!(
            e.get("message")
                .and_then(Json::as_str)
                .unwrap()
                .contains("1 ms"),
            "names the deadline"
        );
    }

    #[test]
    fn stats_before_any_job_reports_null_avg_wait() {
        // The NaN path: avg_wait_s is 0/0 before the first job completes;
        // the non-finite Json::fixed fix renders it as null instead of
        // panicking the daemon.
        let responses = run_session(
            &ServerConfig::default(),
            &[r#"{"id": "s", "op": "stats"}"#.to_string()],
        );
        let r = &responses[0];
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let stats = r.get("stats").unwrap();
        assert!(
            stats.get("avg_wait_s").unwrap().is_null(),
            "0/0 must render as null: {}",
            stats.render()
        );
        assert_eq!(stats.get("received").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn real_job_optimizes_lints_and_reports() {
        let real =
            ".numvars 3\\n.variables x0 x1 x2\\n.begin\\nt3 x0 x1 x2\\nt3 x0 x1 x2\\nt1 x0\\n.end";
        let responses = run_session(
            &ServerConfig::default(),
            &[format!(r#"{{"id": 1, "design": {{"real": "{real}"}}}}"#)],
        );
        let r = &responses[0];
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            r.render()
        );
        let row = r.get("result").unwrap();
        assert_eq!(row.get("design").and_then(Json::as_str), Some("EXTERNAL"));
        assert_eq!(row.get("qubits").and_then(Json::as_u64), Some(3));
        // The double Toffoli cancels: 3 gates in, 1 gate out.
        assert_eq!(row.get("gates_in").and_then(Json::as_u64), Some(3));
        assert_eq!(row.get("gates").and_then(Json::as_u64), Some(1));
        assert!(row.get("lint").is_some());
    }

    #[test]
    fn budget_caps_produce_budget_errors() {
        let responses = run_session(
            &ServerConfig::default(),
            &[r#"{"id": 1, "design": {"generator": "INTDIV(4)"}, "flow": "esop", "budget": {"max_gates": 1}}"#
                .to_string()],
        );
        let e = responses[0].get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("budget"));
        assert!(e
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("budget allows 1"));
    }

    #[test]
    fn malformed_lines_and_shutdown_are_answered_inline() {
        let responses = run_session(
            &ServerConfig::default(),
            &[
                "this is not json".to_string(),
                r#"{"id": 9, "op": "shutdown"}"#.to_string(),
                synth(10, "INTDIV(4)"), // after shutdown: never read
            ],
        );
        assert_eq!(responses.len(), 2, "nothing is served after shutdown");
        let bad = &responses[0];
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
        let down = &responses[1];
        assert_eq!(down.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            down.get("result")
                .and_then(|r| r.get("shutting_down"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn overlong_line_discard_is_bounded_and_exact() {
        // A small BufReader capacity forces the discard loop through many
        // fill_buf rounds; the skipped count must still be exact and the
        // following line must survive intact.
        let mut data = vec![b'x'; 10_000];
        data.push(b'\n');
        data.extend_from_slice(b"next\n");
        let mut reader = std::io::BufReader::with_capacity(64, std::io::Cursor::new(data));
        match read_request_line(&mut reader, 32).unwrap() {
            Some(Err(skipped)) => assert_eq!(skipped, 10_001),
            other => panic!("expected overlong skip, got {other:?}"),
        }
        match read_request_line(&mut reader, 32).unwrap() {
            Some(Ok(line)) => assert_eq!(line, "next"),
            other => panic!("expected next line, got {other:?}"),
        }
        // A newline-free stream tail is also discarded without blowing up.
        let mut reader =
            std::io::BufReader::with_capacity(64, std::io::Cursor::new(vec![b'y'; 5_000]));
        match read_request_line(&mut reader, 32).unwrap() {
            Some(Err(skipped)) => assert_eq!(skipped, 5_000),
            other => panic!("expected overlong skip, got {other:?}"),
        }
        assert!(read_request_line(&mut reader, 32).unwrap().is_none());
    }

    #[test]
    fn overlong_lines_are_skipped_with_a_structured_error() {
        let config = ServerConfig {
            max_line_bytes: 64,
            ..ServerConfig::default()
        };
        let long = format!(
            r#"{{"id": 1, "design": {{"verilog": "{}"}}}}"#,
            "x".repeat(200)
        );
        let responses = run_session(&config, &[long, synth(2, "INTDIV(4)")]);
        assert_eq!(responses.len(), 2);
        let e = responses[0].get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("bad_request"));
        assert!(e
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("64 byte limit"));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn sessions_share_the_frontend_cache() {
        let cache = Arc::new(FrontendCache::new());
        let stats = Arc::new(ServerStats::default());
        let config = ServerConfig::default();
        run_session_with(&config, &[synth(1, "INTDIV(4)")], &cache, &stats);
        assert_eq!(cache.len(), 1);
        let responses =
            run_session_with(&config, &[r#"{"op": "stats"}"#.to_string()], &cache, &stats);
        let s = responses[0].get("stats").unwrap();
        assert_eq!(s.get("cached_frontends").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("completed").and_then(Json::as_u64), Some(1));
        assert!(
            s.get("avg_wait_s").and_then(Json::as_f64).is_some(),
            "finite once a job completed"
        );
    }
}
