//! The `serve-mixed` workload: the `qda-server` binary over stdio, fed an
//! open loop at one fixed rate from a seeded request mix.

use crate::golden::Rng;
use qda_bench::json::Json;
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A flow as the wire protocol names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFlow {
    /// `"flow": "functional"`.
    Functional,
    /// `"flow": "esop", "p": p`.
    Esop(usize),
    /// `"flow": "hierarchical"`.
    Hierarchical,
}

impl ServeFlow {
    fn wire(self) -> String {
        match self {
            ServeFlow::Functional => r#""flow": "functional""#.to_string(),
            ServeFlow::Esop(p) => format!(r#""flow": "esop", "p": {p}"#),
            ServeFlow::Hierarchical => r#""flow": "hierarchical""#.to_string(),
        }
    }

    /// The flow the daemon builds for this choice (its defaults).
    fn build(self) -> Box<dyn Flow> {
        match self {
            ServeFlow::Functional => Box::new(FunctionalFlow::default()),
            ServeFlow::Esop(p) => Box::new(EsopFlow::with_factoring(p)),
            ServeFlow::Hierarchical => Box::new(HierarchicalFlow::default()),
        }
    }
}

/// What kind of design a request carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A named generator (front end served from the daemon's cache).
    Generator,
    /// Inline Verilog (front end computed on every request).
    Verilog,
    /// Inline `.real` (peephole + lint).
    Real,
}

/// Qubits, T-count and gates of a circuit.
pub type Cost = (u64, u64, u64);

/// One request of the mix, with the cost the batch run of the same
/// design and flow produced.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Human-readable label.
    pub label: String,
    /// Request kind.
    pub kind: EntryKind,
    /// The request's JSON fields after the id.
    pub body: String,
    /// Expected (qubits, T-count, gates).
    pub expect: Cost,
}

const BUDGET: &str = r#""budget": {"deadline_ms": 30000, "workers": 1}"#;

fn cost_of(c: &qda_rev::circuit::Circuit) -> Cost {
    let cost = c.cost();
    (cost.qubits as u64, cost.t_count, cost.gates as u64)
}

/// The fixed catalogue of the mix: 12 generator requests over all three
/// flows, 8 inline-Verilog requests carrying `Design::verilog()` of the
/// same generators, and 6 `.real` requests (raw synthesis output, so the
/// peephole pass has work). References come from in-process batch runs.
///
/// The five functional requests on INTDIV/NEWTON(6..7) are the slowest,
/// at a similar latency, and make up the top 5/26 of the mix, so the p90
/// falls inside their block of samples, not in a gap between blocks.
///
/// # Errors
///
/// A reference run failed.
pub fn catalogue() -> Result<Vec<Entry>, String> {
    use ServeFlow::{Esop, Functional, Hierarchical};
    let (i, nw) = (Design::intdiv, Design::newton);
    let generators = [
        (Functional, i(6)),
        (Functional, nw(6)),
        (Functional, i(7)),
        (Esop(0), i(8)),
        (Esop(0), nw(8)),
        (Esop(0), i(9)),
        (Esop(1), i(7)),
        (Esop(1), nw(7)),
        (Esop(1), i(9)),
        (Hierarchical, i(6)),
        (Hierarchical, i(7)),
        (Hierarchical, nw(4)),
    ];
    let verilog = [
        (Functional, nw(5)),
        (Esop(0), nw(7)),
        (Esop(1), i(8)),
        (Hierarchical, i(5)),
        (Esop(0), i(10)),
        (Hierarchical, i(8)),
        (Functional, i(6)),
        (Functional, nw(6)),
    ];
    let real = [
        (Hierarchical, i(4)),
        (Hierarchical, i(5)),
        (Hierarchical, nw(4)),
        (Hierarchical, i(6)),
        (Esop(0), i(7)),
        (Esop(0), nw(6)),
    ];
    let run = |flow: ServeFlow, design: &Design| {
        flow.build()
            .run(design)
            .map_err(|e| format!("reference {design}: {e}"))
    };
    let mut entries = Vec::new();
    for (flow, design) in generators {
        entries.push(Entry {
            label: format!("{design} {flow:?}"),
            kind: EntryKind::Generator,
            body: format!(
                r#""design": {{"generator": "{}"}}, {}, {BUDGET}"#,
                design.name(),
                flow.wire()
            ),
            expect: cost_of(&run(flow, &design)?.circuit),
        });
    }
    for (flow, design) in verilog {
        let source = Json::from(design.verilog()).render();
        entries.push(Entry {
            label: format!("{design} {flow:?} (verilog)"),
            kind: EntryKind::Verilog,
            body: format!(
                r#""design": {{"verilog": {source}}}, {}, {BUDGET}"#,
                flow.wire()
            ),
            expect: cost_of(&run(flow, &design)?.circuit),
        });
    }
    for (flow, design) in real {
        let raw = flow
            .build()
            .raw_variant()
            .expect("concrete flows have raw variants");
        let outcome = raw.run(&design).map_err(|e| format!("raw {design}: {e}"))?;
        let text = qda_rev::io::to_real(&outcome.circuit);
        let parsed = qda_rev::io::from_real(&text).map_err(|e| format!("{design} .real: {e}"))?;
        let optimized =
            qda_rev::opt::optimize_checked(&parsed, &qda_rev::opt::OptOptions::default())
                .map_err(|w| format!("{design} .real optimize: {w}"))?;
        entries.push(Entry {
            label: format!("{design} {flow:?} raw (.real)"),
            kind: EntryKind::Real,
            body: format!(
                r#""design": {{"real": {}}}, {BUDGET}"#,
                Json::from(text).render()
            ),
            expect: cost_of(&optimized.circuit),
        });
    }
    Ok(entries)
}

/// Catalogue indices for `n` requests: whole shuffled copies of the
/// catalogue, so every entry appears and each appears about equally often.
pub fn schedule(entries: usize, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order = Vec::with_capacity(n + entries);
    while order.len() < n {
        let mut copy: Vec<usize> = (0..entries).collect();
        rng.shuffle(&mut copy);
        order.extend(copy);
    }
    order.truncate(n);
    order
}

/// Per-stage seconds of a response row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    /// Parse + elaborate + AIG optimization.
    pub frontend_s: f64,
    /// Flow-specific synthesis.
    pub synthesis_s: f64,
    /// Peephole + resynthesis + analysis.
    pub post_s: f64,
    /// Verification.
    pub verify_s: f64,
}

/// The result row of a successful synthesis response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// (qubits, T-count, gates).
    pub cost: Cost,
    /// The daemon's own runtime of the job.
    pub runtime_s: f64,
    /// Stage breakdown.
    pub stages: Stages,
}

/// A decoded response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Request id (`None` when the daemon could not echo one).
    pub id: Option<u64>,
    /// Whether the daemon answered `ok`.
    pub ok: bool,
    /// Queue wait the daemon reported (0 when absent).
    pub queue_wait_s: f64,
    /// Error kind of a failed request.
    pub error_kind: Option<String>,
    /// Result row of a successful synthesis.
    pub row: Option<Row>,
}

fn field_f64(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Decodes one response line.
///
/// # Errors
///
/// The line is not JSON or lacks `ok`, or an `ok` synthesis row lacks its
/// cost fields.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = Json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("response without \"ok\": {line}"))?;
    let error_kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let row = match v.get("result") {
        Some(r) if ok && r.get("qubits").is_some() => {
            let count = |k: &str| {
                r.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("result without {k:?}: {line}"))
            };
            let stages = r.get("stages").map_or_else(Stages::default, |s| Stages {
                frontend_s: field_f64(s, "parse_elaborate_s") + field_f64(s, "optimize_s"),
                synthesis_s: field_f64(s, "synthesis_s"),
                post_s: field_f64(s, "post_opt_s")
                    + field_f64(s, "resynth_s")
                    + field_f64(s, "analyze_s"),
                verify_s: field_f64(s, "verification_s"),
            });
            Some(Row {
                cost: (count("qubits")?, count("t_count")?, count("gates")?),
                runtime_s: field_f64(r, "runtime_s"),
                stages,
            })
        }
        _ => None,
    };
    Ok(Response {
        id: v.get("id").and_then(Json::as_u64),
        ok,
        queue_wait_s: field_f64(&v, "queue_wait_s"),
        error_kind,
        row,
    })
}

/// The counters of a `stats` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Synthesis requests admitted.
    pub received: u64,
    /// Jobs answered `ok`.
    pub completed: u64,
    /// Jobs answered with an error (not timeouts).
    pub failed: u64,
    /// `queue_full` rejections.
    pub rejected: u64,
    /// Watchdog timeouts.
    pub timeouts: u64,
    /// Contained panics.
    pub panics: u64,
    /// Front ends in the shared cache.
    pub cached_frontends: u64,
}

/// Decodes a `stats` reply.
///
/// # Errors
///
/// The line is not an `ok` stats reply with every counter.
pub fn parse_stats(line: &str) -> Result<DaemonStats, String> {
    let v = Json::parse(line).map_err(|e| format!("stats reply is not JSON: {e}"))?;
    let s = v
        .get("stats")
        .filter(|_| v.get("ok").and_then(Json::as_bool) == Some(true))
        .ok_or_else(|| format!("not a stats reply: {line}"))?;
    let get = |k: &str| {
        s.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats reply without {k:?}"))
    };
    Ok(DaemonStats {
        received: get("received")?,
        completed: get("completed")?,
        failed: get("failed")?,
        rejected: get("rejected")?,
        timeouts: get("timeouts")?,
        panics: get("panics")?,
        cached_frontends: get("cached_frontends")?,
    })
}

/// A running `qda-server` on stdio, with a reader thread timestamping
/// every response line as it arrives.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    /// Response lines read so far.
    answered: Arc<AtomicUsize>,
}

/// How long the benchmark waits for any single reply before giving up.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    /// Spawns the daemon with `workers` session workers, each job capped
    /// at one pool participant, pinned to CPU `cpu` if given.
    ///
    /// # Errors
    ///
    /// The binary could not be started.
    pub fn spawn(bin: &Path, workers: usize, cpu: Option<usize>) -> Result<Self, String> {
        let mut command = Command::new(bin);
        command
            .args(["--workers", &workers.to_string()])
            .args(["--job-workers", "1", "--queue", "64"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(cpu) = cpu {
            // SAFETY: `pin_to` only makes a system call, which is safe
            // between `fork` and `exec`.
            unsafe {
                command.pre_exec(move || {
                    crate::calib::pin_to(cpu);
                    Ok(())
                });
            }
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let answered = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&answered);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                count.fetch_add(1, Ordering::Release);
                if tx.send((at, line)).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            answered,
        })
    }

    /// Response lines read so far (received or not).
    pub fn answered(&self) -> usize {
        self.answered.load(Ordering::Acquire)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one request line.
    ///
    /// # Errors
    ///
    /// The pipe closed.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin already closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the daemon: {e}"))
    }

    /// The next response line and when it arrived, waiting at most
    /// `timeout`.
    pub fn recv(&self, timeout: Duration) -> Option<(Instant, String)> {
        self.lines.recv_timeout(timeout).ok()
    }

    /// Sends `line` and waits for the reply carrying `id`.
    ///
    /// # Errors
    ///
    /// No such reply within [`REPLY_TIMEOUT`].
    pub fn call(&mut self, id: u64, line: &str) -> Result<(Instant, String), String> {
        self.send(line)?;
        loop {
            let (at, reply) = self
                .recv(REPLY_TIMEOUT)
                .ok_or_else(|| format!("no reply to request {id}"))?;
            if parse_response(&reply).ok().and_then(|r| r.id) == Some(id) {
                return Ok((at, reply));
            }
        }
    }

    /// Asks for the daemon's counters.
    ///
    /// # Errors
    ///
    /// No (valid) reply.
    pub fn stats(&mut self, id: u64) -> Result<DaemonStats, String> {
        let (_, reply) = self.call(id, &format!(r#"{{"id": {id}, "op": "stats"}}"#))?;
        parse_stats(&reply)
    }

    /// A numeric field (`VmHWM`, `Threads`, ...) of the daemon's
    /// `/proc/<pid>/status`.
    pub fn status_field(&self, key: &str) -> Option<u64> {
        crate::proc_status(&format!("/proc/{}/status", self.pid()), key)
    }

    /// Sends `shutdown`, closes stdin and waits for the process and the
    /// reader thread to end.
    ///
    /// # Errors
    ///
    /// The daemon exited with a failure status.
    pub fn shutdown(mut self, id: u64) -> Result<(), String> {
        let _ = self.send(&format!(r#"{{"id": {id}, "op": "shutdown"}}"#));
        self.finish()
    }

    fn finish(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_ok_synthesis_response() {
        let line = r#"{"id": 1003, "ok": true, "queue_wait_s": 0.000125, "result": {"design": "INTDIV", "n": 6, "flow": "ESOP (REVS, p = 0)", "qubits": 12, "t_count": 494, "gates": 34, "runtime_s": 0.002000, "stages": {"parse_elaborate_s": 0.000100, "optimize_s": 0.000400, "synthesis_s": 0.001000, "post_opt_s": 0.000200, "resynth_s": 0.000000, "analyze_s": 0.000100, "verification_s": 0.000200}, "lint": {"deny": 0}}}"#;
        let r = parse_response(line).unwrap();
        assert_eq!(r.id, Some(1003));
        assert!(r.ok);
        assert_eq!(r.queue_wait_s, 0.000125);
        let row = r.row.unwrap();
        assert_eq!(row.cost, (12, 494, 34));
        assert_eq!(row.runtime_s, 0.002);
        assert!((row.stages.frontend_s - 0.0005).abs() < 1e-12);
        assert!((row.stages.post_s - 0.0003).abs() < 1e-12);
        assert_eq!(row.stages.verify_s, 0.0002);
    }

    #[test]
    fn parses_error_and_control_responses() {
        let r = parse_response(
            r#"{"id": 7, "ok": false, "error": {"kind": "queue_full", "message": "full"}}"#,
        )
        .unwrap();
        assert!(!r.ok);
        assert_eq!(r.error_kind.as_deref(), Some("queue_full"));
        assert!(r.row.is_none());
        let down =
            parse_response(r#"{"id": 9, "ok": true, "result": {"shutting_down": true}}"#).unwrap();
        assert!(down.ok && down.row.is_none());
        let anon = parse_response(r#"{"id": null, "ok": false, "error": {"kind": "bad_request"}}"#)
            .unwrap();
        assert_eq!(anon.id, None);
        assert!(parse_response("not json").is_err());
        assert!(parse_response(r#"{"id": 1}"#).is_err());
        assert!(parse_response(r#"{"id": 1, "ok": true, "result": {"qubits": 3}}"#).is_err());
    }

    #[test]
    fn parses_stats_replies() {
        let line = r#"{"id": 5, "ok": true, "stats": {"received": 24, "completed": 23, "failed": 1, "rejected": 0, "timeouts": 0, "panics": 0, "queue_depth": 0, "queue_capacity": 64, "workers": 2, "cached_frontends": 9, "avg_wait_s": null}}"#;
        let s = parse_stats(line).unwrap();
        assert_eq!(s.received, 24);
        assert_eq!(s.completed, 23);
        assert_eq!(s.failed, 1);
        assert_eq!(s.cached_frontends, 9);
        assert!(parse_stats(r#"{"id": 5, "ok": false, "stats": {}}"#).is_err());
        assert!(parse_stats(r#"{"id": 5, "ok": true, "stats": {"received": 1}}"#).is_err());
    }

    #[test]
    fn schedule_covers_the_catalogue_evenly() {
        let order = schedule(25, 200, &mut Rng::new(5));
        assert_eq!(order.len(), 200);
        let mut seen = [0usize; 25];
        for &i in &order {
            seen[i] += 1;
        }
        assert!(seen.iter().all(|&c| c == 8 || c == 9), "{seen:?}");
        assert_ne!(order, schedule(25, 200, &mut Rng::new(6)));
    }
}
