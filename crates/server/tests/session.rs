//! End-to-end sessions against the daemon: a long scripted mixed-request
//! session in-process, and the real binary spawned over stdio.

use qda_bench::json::Json;
use qda_core::flow::FrontendCache;
use qda_server::{serve_session, ServerConfig, ServerStats};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

/// Collects everything the daemon writes, shareable across its worker
/// threads.
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

fn run_session(config: &ServerConfig, lines: &[String]) -> Vec<Json> {
    run_session_shared(
        config,
        lines,
        &Arc::new(FrontendCache::new()),
        &Arc::new(ServerStats::default()),
    )
}

fn run_session_shared(
    config: &ServerConfig,
    lines: &[String],
    cache: &Arc<FrontendCache>,
    stats: &Arc<ServerStats>,
) -> Vec<Json> {
    let input = lines.join("\n") + "\n";
    let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
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
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad response line {l:?}: {e}")))
        .collect()
}

fn find(responses: &[Json], id: u64) -> &Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id}"))
}

fn error_kind(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

/// Inline Verilog that once overflowed a worker's stack (aborting the
/// daemon) or allocated without bound, each far under the line cap.
fn hostile_verilog() -> Vec<String> {
    let module = |body: String| format!("module m(a, y); input a; output y; {body} endmodule");
    let wires = (1..3_800).fold("wire w0; assign w0 = a;".to_string(), |src, i| {
        src + &format!(" wire w{i}; assign w{i} = w{};", i - 1)
    });
    let wide = vec!["a"; 1_500].join(", ");
    [
        format!("assign y = {}a{};", "(".repeat(800), ")".repeat(800)),
        format!("assign y = {}a{};", "{".repeat(800), "}".repeat(800)),
        format!("{wires} assign y = w3799;"),
        format!("assign y = {}a;", "a ? a : ".repeat(5_700)),
        format!("assign y = {}a;", "a + ".repeat(8_200)),
        "assign y = 99999999999'b1;".to_string(),
        "wire [999999999:0] b; assign b = a; assign y = b[0];".to_string(),
        format!("assign y = ^({{{wide}}} * {{{wide}}});"),
    ]
    .map(module)
    .into()
}

/// The acceptance scenario of the serving shell: 20+ mixed requests —
/// among them a panicking design, a `.numvars` allocation bomb, hostile
/// inline Verilog, an over-deadline job, and the NaN-timing stats path —
/// through one session. Every request gets a structured response, every success
/// carries per-stage timings, and the daemon is still serving at the end.
#[test]
fn scripted_session_of_twenty_mixed_requests() {
    let gen = |id: u64, design: &str, flow: &str| {
        format!(r#"{{"id": {id}, "design": {{"generator": "{design}"}}, "flow": "{flow}"}}"#)
    };
    let half_adder = "module ha(a, b, s, c); input a; input b; output s; output c; \
                      assign s = a ^ b; assign c = a & b; endmodule";
    let real_ok =
        ".numvars 3\\n.variables x0 x1 x2\\n.begin\\nt3 x0 x1 x2\\nt3 x0 x1 x2\\nt1 x0\\n.end";
    let mut lines: Vec<String> = vec![
        // 1: NaN-timing path — stats before any job completes must render
        // avg_wait_s as null (0/0 through the non-finite Json::fixed fix).
        r#"{"id": 1, "op": "stats"}"#.to_string(),
        // 2–7: the paper's generators across all three flows.
        gen(2, "INTDIV(4)", "esop"),
        gen(3, "INTDIV(5)", "esop"),
        gen(4, "INTDIV(4)", "functional"),
        gen(5, "INTDIV(5)", "hierarchical"),
        gen(6, "NEWTON(4)", "esop"),
        gen(7, "NEWTON(4)", "hierarchical"),
        // 8: a panicking design — INTDIV(1) trips the generator assertion
        // inside the worker (and poisons the frontend-cache slot).
        gen(8, "INTDIV(1)", "esop"),
        // 9: the same bad design again — the recovered cache must recompute,
        // not wedge.
        gen(9, "INTDIV(1)", "esop"),
        // 10: inline Verilog round-trip.
        format!(r#"{{"id": 10, "design": {{"verilog": "{half_adder}"}}, "flow": "esop"}}"#),
        // 11: inline Verilog with a lex error — source-anchored diagnostic.
        r#"{"id": 11, "design": {"verilog": "module m(a); input a; assign € = a; endmodule"}}"#
            .to_string(),
        // 12: inline .real round-trip (optimize + lint service).
        format!(r#"{{"id": 12, "design": {{"real": "{real_ok}"}}}}"#),
        // 13: the .numvars allocation bomb — rejected at admission with a
        // line-numbered parse error, before spending a queue slot.
        r#"{"id": 13, "design": {"real": ".numvars 999999999\n.begin\n.end"}}"#
            .replace('\n', "\\n"),
        // 14: an over-deadline job — the watchdog answers with a timeout
        // and abandons the worker's result.
        r#"{"id": 14, "design": {"generator": "NEWTON(6)"}, "flow": "hierarchical", "budget": {"deadline_ms": 1}}"#
            .to_string(),
        // 15: a budget cap the result exceeds.
        r#"{"id": 15, "design": {"generator": "INTDIV(4)"}, "flow": "esop", "budget": {"max_gates": 1}}"#
            .to_string(),
        // 16: a qubit cap, also exceeded.
        r#"{"id": 16, "design": {"generator": "INTDIV(5)"}, "flow": "hierarchical", "budget": {"max_qubits": 3}}"#
            .to_string(),
        // 17: a malformed request shape.
        r#"{"id": 17, "op": "synth"}"#.to_string(),
        // 18: an unknown generator family.
        gen(18, "FFT(4)", "esop"),
        // 19: an instance too large for the functional flow (typed flow error).
        gen(19, "INTDIV(16)", "functional"),
        // 20: flow switches — post_opt off keeps the raw synthesis output.
        r#"{"id": 20, "design": {"generator": "INTDIV(4)"}, "flow": "esop", "post_opt": false, "analyze": false}"#
            .to_string(),
        // 21: a per-job worker cap rides along fine.
        r#"{"id": 21, "design": {"generator": "INTDIV(5)"}, "flow": "esop", "budget": {"workers": 1}}"#
            .to_string(),
        // 22: the ESOP factoring parameter.
        r#"{"id": 22, "design": {"generator": "INTDIV(6)"}, "flow": "esop", "p": 1}"#.to_string(),
        // 30: 12 inputs pass the `2n − 1` precheck; 28 outputs need 28 lines.
        r#"{"id": 30, "design": {"verilog": "module m(a, y); input [11:0] a; output [27:0] y; assign y = {a, a, a[3:0]}; endmodule"}, "flow": "functional"}"#
            .to_string(),
        // 26–29: shapes the ESOP and functional flows cannot represent (no
        // outputs, 65 outputs, 70 inputs) are typed flow errors.
        r#"{"id": 26, "design": {"verilog": "module m(a); input a; endmodule"}, "flow": "esop"}"#
            .to_string(),
        r#"{"id": 27, "design": {"verilog": "module m(a, y); input [7:0] a; output [64:0] y; assign y = {a, a, a, a, a, a, a, a, a[0]}; endmodule"}, "flow": "esop"}"#
            .to_string(),
        r#"{"id": 28, "design": {"verilog": "module m(a, y); input [69:0] a; output y; assign y = ^a; endmodule"}, "flow": "esop"}"#
            .to_string(),
        r#"{"id": 29, "design": {"verilog": "module m(a); input a; endmodule"}, "flow": "functional"}"#
            .to_string(),
        // 23: stats again — the daemon is still serving after all of the
        // above, and the counters reflect it.
        r#"{"id": 23, "op": "stats"}"#.to_string(),
        // 24: one more synthesis after everything, then shutdown.
        gen(24, "INTDIV(4)", "esop"),
        r#"{"id": 25, "op": "shutdown"}"#.to_string(),
    ];
    // 31, 33, …: the hostile Verilog shapes, each followed by a stats
    // request (32, 34, …); one response per request shows the daemon
    // answered them all.
    let tail = lines.split_off(lines.len() - 3);
    for (i, source) in hostile_verilog().iter().enumerate() {
        let id = 31 + 2 * i;
        lines.push(format!(
            r#"{{"id": {id}, "design": {{"verilog": "{source}"}}, "flow": "esop"}}"#
        ));
        lines.push(format!(r#"{{"id": {}, "op": "stats"}}"#, id + 1));
    }
    lines.extend(tail);
    assert!(lines.len() >= 20, "the acceptance scenario is 20+ requests");
    // The whole script is submitted in one burst, so admission must be
    // sized for it (a 16-slot default queue would — correctly — shed
    // load; queue_full shedding has its own tests).
    let config = ServerConfig {
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let cache = Arc::new(FrontendCache::new());
    let stats = Arc::new(ServerStats::default());
    let responses = run_session_shared(&config, &lines, &cache, &stats);
    assert_eq!(responses.len(), lines.len(), "one response per request");

    // Every success response carries per-stage timings.
    let successes: Vec<u64> = vec![2, 3, 4, 5, 6, 7, 10, 12, 20, 21, 22, 24];
    for id in &successes {
        let r = find(&responses, *id);
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "id {id}: {}",
            r.render()
        );
        let row = r.get("result").unwrap();
        let stages = row.get("stages").unwrap_or_else(|| {
            panic!(
                "id {id} success response lacks stage timings: {}",
                row.render()
            )
        });
        assert!(stages.get("synthesis_s").is_some() || *id == 12, "id {id}");
        assert!(
            r.get("queue_wait_s").and_then(Json::as_f64).is_some(),
            "id {id} lacks queue_wait_s"
        );
    }
    // The raw-output job really skipped the post passes.
    let raw = find(&responses, 20).get("result").unwrap();
    let opted = find(&responses, 2).get("result").unwrap();
    assert!(
        raw.get("gates").and_then(Json::as_u64) >= opted.get("gates").and_then(Json::as_u64),
        "post_opt off keeps the raw gate count"
    );
    assert!(
        raw.get("lint").is_none(),
        "analyze off drops the lint block"
    );

    // The structured failures, each with the right kind.
    for (id, kind) in [
        (8, "panic"),
        (9, "panic"),
        (11, "parse"),
        (13, "parse"),
        (14, "timeout"),
        (15, "budget"),
        (16, "budget"),
        (17, "bad_request"),
        (18, "bad_request"),
        (19, "flow"),
        (26, "flow"),
        (27, "flow"),
        (28, "flow"),
        (29, "flow"),
        (30, "flow"),
    ]
    .into_iter()
    .chain((0..hostile_verilog().len() as u64).map(|i| (31 + 2 * i, "parse")))
    {
        let r = find(&responses, id);
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(false),
            "id {id}: {}",
            r.render()
        );
        assert_eq!(error_kind(r), Some(kind), "id {id}: {}", r.render());
    }
    // The diagnostics are source-anchored where a source exists.
    let verilog_diag = find(&responses, 11)
        .get("error")
        .and_then(|e| e.get("diagnostic"))
        .and_then(Json::as_str)
        .expect("lex errors carry a diagnostic");
    assert!(verilog_diag.contains("request.v:1"), "{verilog_diag}");
    let real_diag = find(&responses, 13)
        .get("error")
        .and_then(|e| e.get("diagnostic"))
        .and_then(Json::as_str)
        .expect("the numvars bomb carries a diagnostic");
    assert!(real_diag.contains(".numvars 999999999"), "{real_diag}");
    assert!(real_diag.contains("request.real:1"), "{real_diag}");

    // NaN path: the first stats request ran before any job completed, so
    // avg_wait_s was 0/0 — rendered null by the non-finite Json::fixed
    // fix instead of panicking the daemon. The mid-script stats (id 23)
    // is answered inline by the reader while jobs are still in flight;
    // all that matters there is that the daemon was still serving.
    let first = find(&responses, 1).get("stats").unwrap();
    assert!(first.get("avg_wait_s").unwrap().is_null());
    assert_eq!(
        find(&responses, 23).get("ok").and_then(Json::as_bool),
        Some(true)
    );

    // After the session drained, the shared counters reflect the script:
    // a follow-up session over the same daemon state reads them.
    let followup = run_session_shared(
        &config,
        &[r#"{"id": 100, "op": "stats"}"#.to_string()],
        &cache,
        &stats,
    );
    let last = find(&followup, 100).get("stats").unwrap();
    assert!(last.get("avg_wait_s").and_then(Json::as_f64).is_some());
    assert!(last.get("completed").and_then(Json::as_u64).unwrap() >= 10);
    assert!(last.get("panics").and_then(Json::as_u64).unwrap() >= 2);
    assert!(last.get("timeouts").and_then(Json::as_u64).unwrap() >= 1);
    assert!(last.get("cached_frontends").and_then(Json::as_u64).unwrap() >= 4);

    // Shutdown acknowledged.
    assert_eq!(
        find(&responses, 25)
            .get("result")
            .and_then(|r| r.get("shutting_down"))
            .and_then(Json::as_bool),
        Some(true)
    );
}

/// The deadline ordering contract: responses arrive in completion order,
/// and a timed-out job's late result is abandoned — the id is answered
/// exactly once.
#[test]
fn timed_out_jobs_are_answered_exactly_once() {
    let lines = vec![
        r#"{"id": 1, "design": {"generator": "NEWTON(6)"}, "flow": "hierarchical", "budget": {"deadline_ms": 1}}"#
            .to_string(),
        r#"{"id": 2, "design": {"generator": "INTDIV(4)"}, "flow": "esop"}"#.to_string(),
    ];
    let responses = run_session(&ServerConfig::default(), &lines);
    assert_eq!(
        responses.len(),
        2,
        "no duplicate response for the timed-out id"
    );
    assert_eq!(error_kind(find(&responses, 1)), Some("timeout"));
    assert_eq!(
        find(&responses, 2).get("ok").and_then(Json::as_bool),
        Some(true)
    );
}

/// The real binary over stdio: spawn, pipe a few jobs (including a
/// panicking one), check the responses, and confirm a clean exit on
/// shutdown.
#[test]
fn daemon_binary_serves_over_stdio() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qda-server"))
        .args(["--workers", "1", "--queue", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn qda-server");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    writeln!(
        stdin,
        r#"{{"id": 1, "design": {{"generator": "INTDIV(4)"}}, "flow": "esop"}}"#
    )
    .unwrap();
    writeln!(
        stdin,
        r#"{{"id": 2, "design": {{"generator": "INTDIV(1)"}}, "flow": "esop"}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"id": 3, "op": "stats"}}"#).unwrap();
    writeln!(stdin, r#"{{"id": 4, "op": "shutdown"}}"#).unwrap();
    drop(stdin);
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(&l.unwrap()).unwrap())
        .collect();
    assert_eq!(responses.len(), 4);
    let ok = find(&responses, 1);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    assert!(ok.get("result").and_then(|r| r.get("stages")).is_some());
    assert_eq!(error_kind(find(&responses, 2)), Some("panic"));
    let stats = find(&responses, 3).get("stats").unwrap();
    assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("queue_capacity").and_then(Json::as_u64), Some(8));
    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "clean exit, got {status:?}");
}
