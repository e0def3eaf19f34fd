//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in completion
//! order (responses carry the request `id` for correlation):
//!
//! ```json
//! {"id": 1, "op": "synth", "design": {"generator": "INTDIV(6)"},
//!  "flow": "hierarchical", "post_opt": true,
//!  "budget": {"max_gates": 10000, "deadline_ms": 2000}}
//! {"id": 2, "op": "stats"}
//! {"id": 3, "op": "shutdown"}
//! ```
//!
//! A successful synthesis response embeds the same row shape the
//! `BENCH_*.json` files use (per-stage timings, cost, lint summary);
//! failures carry a structured error with a machine-readable `kind` and,
//! for input errors, a rendered source-anchored diagnostic:
//!
//! ```json
//! {"id": 1, "ok": true, "queue_wait_s": 0.000123, "result": {...}}
//! {"id": 4, "ok": false, "error": {"kind": "queue_full",
//!  "message": "work queue full (16 jobs queued)"}}
//! ```

use qda_bench::json::Json;
use qda_core::flow::FlowBudget;
use qda_core::Design;
use std::time::Duration;

/// Where a request's design comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum DesignSpec {
    /// A named built-in generator, e.g. `INTDIV(6)` or `NEWTON(5)`.
    Generator(Design),
    /// Inline Verilog source.
    Verilog(String),
    /// Inline RevKit `.real` source (optimize + analyze service; there is
    /// no reference function to synthesize from).
    Real(String),
}

/// Which flow a synthesis request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowChoice {
    /// Truth-table collapse → optimum embedding → TBS.
    Functional,
    /// ESOP extraction → exorcism → REVS ESOP mode with factoring `p`.
    Esop {
        /// REVS factoring parameter.
        p: usize,
    },
    /// XMG mapping → REVS hierarchical (Bennett cleanup).
    Hierarchical,
}

/// Post-processing switches of a synthesis request; `None` keeps the
/// flow's own default (e.g. resynthesis defaults on only for the
/// hierarchical flow).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowSwitches {
    /// Run the peephole optimizer.
    pub post_opt: Option<bool>,
    /// Run windowed resynthesis.
    pub post_resynth: Option<bool>,
    /// Run the static analyzer.
    pub analyze: Option<bool>,
}

/// Per-request resource budget, decoded from the `budget` object.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestBudget {
    /// Reject results with more gates than this.
    pub max_gates: Option<u64>,
    /// Reject results with more lines than this.
    pub max_qubits: Option<u64>,
    /// Wall-clock deadline, measured from admission; the watchdog
    /// abandons the job's result once it passes.
    pub deadline_ms: Option<u64>,
    /// Worker-pool cap for this job (`qda_logic::par::with_worker_cap`).
    pub workers: Option<u64>,
}

impl RequestBudget {
    /// The flow-level budget this request implies, with the deadline
    /// anchored at `admitted` (i.e. now, at admission time).
    pub fn to_flow_budget(&self, admitted: std::time::Instant) -> FlowBudget {
        FlowBudget {
            max_gates: self.max_gates,
            max_qubits: self.max_qubits,
            deadline: self
                .deadline_ms
                .map(|ms| admitted + Duration::from_millis(ms)),
        }
    }
}

/// A synthesis job, decoded and validated.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthRequest {
    /// Echoed verbatim in the response.
    pub id: Json,
    /// The design to synthesize.
    pub design: DesignSpec,
    /// The flow to run (ignored for `.real` designs).
    pub flow: FlowChoice,
    /// Post-processing switches.
    pub switches: FlowSwitches,
    /// Resource budget.
    pub budget: RequestBudget,
}

/// A decoded request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a synthesis job.
    Synth(Box<SynthRequest>),
    /// Report daemon statistics.
    Stats {
        /// Echoed verbatim in the response.
        id: Json,
    },
    /// Stop accepting requests on this stream.
    Shutdown {
        /// Echoed verbatim in the response.
        id: Json,
    },
}

/// Machine-readable failure category of an error response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a valid request shape.
    BadRequest,
    /// The submitted design source failed to parse/elaborate.
    Parse,
    /// The bounded work queue was at capacity.
    QueueFull,
    /// The job missed its deadline and its result was abandoned.
    Timeout,
    /// The result exceeded a resource cap of the request budget.
    Budget,
    /// The flow itself failed (collapse blow-up, verification, ...).
    Flow,
    /// The job panicked; the daemon caught it and kept serving.
    Panic,
}

impl ErrorKind {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Parse => "parse",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Budget => "budget",
            ErrorKind::Flow => "flow",
            ErrorKind::Panic => "panic",
        }
    }
}

/// A structured request failure: category, message, and (for input
/// errors) a rendered source-anchored diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestError {
    /// Failure category.
    pub kind: ErrorKind,
    /// One-line description.
    pub message: String,
    /// Rendered diagnostic quoting the offending source line, when the
    /// failure is anchored in submitted source.
    pub diagnostic: Option<String>,
}

impl RequestError {
    /// An error without a source anchor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            diagnostic: None,
        }
    }

    /// Attaches a rendered diagnostic.
    pub fn with_diagnostic(mut self, diagnostic: String) -> Self {
        self.diagnostic = Some(diagnostic);
        self
    }
}

fn bad(message: impl Into<String>) -> RequestError {
    RequestError::new(ErrorKind::BadRequest, message)
}

/// Widest generator accepted over the wire: the paper's largest instance
/// (Table IV at `n = 128`). A generator's Verilog grows with `n` before
/// any deadline can stop it, so wider requests are refused at admission.
pub const MAX_GENERATOR_BITS: usize = 128;

/// Parses a generator name of the form `INTDIV(6)` / `NEWTON(5)`
/// (case-insensitive).
///
/// # Errors
///
/// Rejects unknown families, malformed parameter syntax and widths above
/// [`MAX_GENERATOR_BITS`]. Small hostile values (`n < 2`) are left to
/// execution time, where they must be survivable anyway (that is what the
/// panic containment and cache-poison recovery are for).
pub fn parse_generator(name: &str) -> Result<Design, RequestError> {
    let trimmed = name.trim();
    let open = trimmed
        .find('(')
        .ok_or_else(|| bad(format!("generator {trimmed:?} is not of the form NAME(n)")))?;
    let close = trimmed
        .strip_suffix(')')
        .ok_or_else(|| bad(format!("generator {trimmed:?} is missing the closing ')'")))?;
    let family = trimmed[..open].trim().to_ascii_uppercase();
    let param = close[open + 1..].trim();
    let n: usize = param
        .parse()
        .map_err(|_| bad(format!("generator parameter {param:?} is not an integer")))?;
    if n > MAX_GENERATOR_BITS {
        return Err(bad(format!(
            "generator parameter {n} exceeds the supported maximum {MAX_GENERATOR_BITS}"
        )));
    }
    match family.as_str() {
        "INTDIV" => Ok(Design::intdiv(n)),
        "NEWTON" => Ok(Design::newton(n)),
        _ => Err(bad(format!(
            "unknown generator family {family:?} (supported: INTDIV, NEWTON)"
        ))),
    }
}

/// Admission-time mirror of the `.real` parser's `.numvars` cap: a
/// hostile header is rejected before the job spends a queue slot, with
/// the same line-numbered message the parser itself would produce.
///
/// # Errors
///
/// A [`RequestError`] of kind [`ErrorKind::Parse`] naming the offending
/// line, with a rendered diagnostic.
pub fn precheck_real(source: &str) -> Result<(), RequestError> {
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix(".numvars") {
            if let Ok(n) = rest.trim().parse::<u64>() {
                if n > qda_rev::io::MAX_NUMVARS as u64 {
                    let message = format!(
                        "line {}: .numvars {n} exceeds the supported maximum {}",
                        idx + 1,
                        qda_rev::io::MAX_NUMVARS
                    );
                    let rendered = crate::diagnostic::render(
                        "request.real",
                        source,
                        idx + 1,
                        &format!(
                            ".numvars {n} exceeds the supported maximum {}",
                            qda_rev::io::MAX_NUMVARS
                        ),
                    );
                    return Err(
                        RequestError::new(ErrorKind::Parse, message).with_diagnostic(rendered)
                    );
                }
            }
            return Ok(());
        }
    }
    Ok(())
}

fn decode_design(value: &Json) -> Result<DesignSpec, RequestError> {
    if let Some(name) = value.get("generator").and_then(Json::as_str) {
        return Ok(DesignSpec::Generator(parse_generator(name)?));
    }
    if let Some(src) = value.get("verilog").and_then(Json::as_str) {
        if src.trim().is_empty() {
            return Err(bad("empty verilog source"));
        }
        return Ok(DesignSpec::Verilog(src.to_string()));
    }
    if let Some(src) = value.get("real").and_then(Json::as_str) {
        precheck_real(src)?;
        return Ok(DesignSpec::Real(src.to_string()));
    }
    Err(bad(
        "design must carry one of: \"generator\", \"verilog\", \"real\"",
    ))
}

fn decode_flow(root: &Json) -> Result<FlowChoice, RequestError> {
    let Some(name) = root.get("flow") else {
        return Ok(FlowChoice::Esop { p: 0 });
    };
    let Some(name) = name.as_str() else {
        return Err(bad("\"flow\" must be a string"));
    };
    match name {
        "functional" => Ok(FlowChoice::Functional),
        "esop" => {
            let p = match root.get("p") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| bad("\"p\" must be a non-negative integer"))?
                    as usize,
            };
            Ok(FlowChoice::Esop { p })
        }
        "hierarchical" => Ok(FlowChoice::Hierarchical),
        other => Err(bad(format!(
            "unknown flow {other:?} (supported: functional, esop, hierarchical)"
        ))),
    }
}

fn decode_bool(root: &Json, key: &str) -> Result<Option<bool>, RequestError> {
    match root.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(format!("{key:?} must be a boolean"))),
    }
}

fn decode_u64(obj: &Json, key: &str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("{key:?} must be a non-negative integer"))),
    }
}

fn decode_budget(root: &Json) -> Result<RequestBudget, RequestError> {
    let Some(budget) = root.get("budget") else {
        return Ok(RequestBudget::default());
    };
    if !matches!(budget, Json::Obj(_)) {
        return Err(bad("\"budget\" must be an object"));
    }
    Ok(RequestBudget {
        max_gates: decode_u64(budget, "max_gates")?,
        max_qubits: decode_u64(budget, "max_qubits")?,
        deadline_ms: decode_u64(budget, "deadline_ms")?,
        workers: decode_u64(budget, "workers")?,
    })
}

/// Decodes one request line.
///
/// The request `id` is echoed in responses and may be any JSON scalar;
/// a missing id decodes as `null`.
///
/// # Errors
///
/// A [`RequestError`] of kind [`ErrorKind::BadRequest`] (malformed JSON
/// or request shape) or [`ErrorKind::Parse`] (a design source rejected at
/// admission).
pub fn decode_request(line: &str) -> Result<Request, RequestError> {
    let root = Json::parse(line).map_err(|e| bad(e.to_string()))?;
    if !matches!(root, Json::Obj(_)) {
        return Err(bad("request must be a JSON object"));
    }
    let id = root.get("id").cloned().unwrap_or(Json::Null);
    let op = match root.get("op") {
        None => "synth",
        Some(v) => v.as_str().ok_or_else(|| bad("\"op\" must be a string"))?,
    };
    match op {
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "synth" => {
            let design = root
                .get("design")
                .ok_or_else(|| bad("synth request needs a \"design\" object"))?;
            let design = decode_design(design)?;
            Ok(Request::Synth(Box::new(SynthRequest {
                id,
                design,
                flow: decode_flow(&root)?,
                switches: FlowSwitches {
                    post_opt: decode_bool(&root, "post_opt")?,
                    post_resynth: decode_bool(&root, "post_resynth")?,
                    analyze: decode_bool(&root, "analyze")?,
                },
                budget: decode_budget(&root)?,
            })))
        }
        other => Err(bad(format!(
            "unknown op {other:?} (supported: synth, stats, shutdown)"
        ))),
    }
}

/// Renders a success response embedding `result` (a `BENCH_*.json`-shaped
/// row or a stats object).
pub fn ok_response(
    id: &Json,
    payload_key: &str,
    payload: Json,
    queue_wait_s: Option<f64>,
) -> String {
    let mut pairs = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
    ];
    if let Some(wait) = queue_wait_s {
        pairs.push(("queue_wait_s".to_string(), Json::fixed(wait, 6)));
    }
    pairs.push((payload_key.to_string(), payload));
    Json::Obj(pairs).render()
}

/// Renders a structured error response.
pub fn error_response(id: &Json, error: &RequestError) -> String {
    let mut err_pairs = vec![
        ("kind".to_string(), Json::from(error.kind.as_str())),
        ("message".to_string(), Json::from(error.message.as_str())),
    ];
    if let Some(diagnostic) = &error.diagnostic {
        err_pairs.push(("diagnostic".to_string(), Json::from(diagnostic.as_str())));
    }
    Json::object([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("error", Json::Obj(err_pairs)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_generator_synth_request() {
        let r = decode_request(
            r#"{"id": 7, "design": {"generator": "intdiv(6)"}, "flow": "esop", "p": 1,
                "post_opt": false, "budget": {"max_gates": 500, "deadline_ms": 2000}}"#,
        )
        .unwrap();
        let Request::Synth(s) = r else {
            panic!("not synth")
        };
        assert_eq!(s.id, Json::Int(7));
        assert_eq!(s.design, DesignSpec::Generator(Design::intdiv(6)));
        assert_eq!(s.flow, FlowChoice::Esop { p: 1 });
        assert_eq!(s.switches.post_opt, Some(false));
        assert_eq!(s.switches.post_resynth, None, "flow default preserved");
        assert_eq!(s.budget.max_gates, Some(500));
        assert_eq!(s.budget.deadline_ms, Some(2000));
        assert_eq!(s.budget.max_qubits, None);
    }

    #[test]
    fn op_defaults_to_synth_and_flow_to_esop_p0() {
        let r = decode_request(r#"{"design": {"generator": "NEWTON(4)"}}"#).unwrap();
        let Request::Synth(s) = r else {
            panic!("not synth")
        };
        assert_eq!(s.id, Json::Null);
        assert_eq!(s.flow, FlowChoice::Esop { p: 0 });
        assert_eq!(s.budget, RequestBudget::default());
    }

    #[test]
    fn decodes_stats_and_shutdown() {
        assert_eq!(
            decode_request(r#"{"id": "s1", "op": "stats"}"#).unwrap(),
            Request::Stats {
                id: Json::from("s1")
            }
        );
        assert_eq!(
            decode_request(r#"{"id": 9, "op": "shutdown"}"#).unwrap(),
            Request::Shutdown { id: Json::Int(9) }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_bad_request() {
        for line in [
            "not json at all",
            "[1, 2]",
            r#"{"op": "synth"}"#,
            r#"{"op": "zap"}"#,
            r#"{"design": {}}"#,
            r#"{"design": {"generator": "FFT(4)"}}"#,
            r#"{"design": {"generator": "INTDIV"}}"#,
            r#"{"design": {"generator": "INTDIV(x)"}}"#,
            r#"{"design": {"generator": "INTDIV(4000000000)"}, "flow": "esop"}"#,
            r#"{"design": {"generator": "NEWTON(129)"}}"#,
            r#"{"design": {"generator": "INTDIV(4)"}, "flow": "quantum"}"#,
            r#"{"design": {"generator": "INTDIV(4)"}, "post_opt": "yes"}"#,
            r#"{"design": {"generator": "INTDIV(4)"}, "budget": {"max_gates": -1}}"#,
            r#"{"design": {"verilog": "  "}}"#,
        ] {
            let e = decode_request(line).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "line {line:?} -> {e:?}");
        }
    }

    #[test]
    fn generator_parse_accepts_paper_spellings() {
        assert_eq!(parse_generator("INTDIV(6)").unwrap(), Design::intdiv(6));
        assert_eq!(parse_generator(" newton( 5 ) ").unwrap(), Design::newton(5));
        // A hostile small parameter value decodes fine — containment
        // happens at execution time, where the panic is caught and
        // reported.
        assert_eq!(parse_generator("INTDIV(1)").unwrap(), Design::intdiv(1));
        assert_eq!(parse_generator("INTDIV(0)").unwrap(), Design::intdiv(0));
        assert_eq!(
            parse_generator("NEWTON(128)").unwrap(),
            Design::newton(MAX_GENERATOR_BITS)
        );
    }

    #[test]
    fn numvars_bomb_is_rejected_at_admission() {
        let line = r#"{"id": 3, "design": {"real": ".numvars 999999999\n.begin\nt1 x0\n.end"}}"#;
        let e = decode_request(line).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Parse);
        assert!(e.message.contains("line 1"), "{}", e.message);
        assert!(e.message.contains("999999999"), "{}", e.message);
        let d = e.diagnostic.expect("source-anchored");
        assert!(d.contains("request.real:1"), "{d}");
        assert!(d.contains(".numvars 999999999"), "{d}");
        // An in-range header sails through.
        assert!(precheck_real(".numvars 64\n.begin\n.end").is_ok());
        assert!(precheck_real("no header at all").is_ok());
    }

    #[test]
    fn responses_render_and_round_trip() {
        let ok = ok_response(
            &Json::Int(4),
            "result",
            Json::object([("gates", Json::Int(12))]),
            Some(0.25),
        );
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("queue_wait_s").and_then(Json::as_f64), Some(0.25));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("gates"))
                .and_then(Json::as_u64),
            Some(12)
        );

        let err = error_response(
            &Json::Null,
            &RequestError::new(ErrorKind::QueueFull, "work queue full (2 jobs queued)"),
        );
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v.get("id").unwrap().is_null());
        let e = v.get("error").unwrap();
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("queue_full"));
        assert!(e.get("diagnostic").is_none());
    }

    #[test]
    fn error_kinds_have_stable_wire_spellings() {
        for (kind, wire) in [
            (ErrorKind::BadRequest, "bad_request"),
            (ErrorKind::Parse, "parse"),
            (ErrorKind::QueueFull, "queue_full"),
            (ErrorKind::Timeout, "timeout"),
            (ErrorKind::Budget, "budget"),
            (ErrorKind::Flow, "flow"),
            (ErrorKind::Panic, "panic"),
        ] {
            assert_eq!(kind.as_str(), wire);
        }
    }
}
