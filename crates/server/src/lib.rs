//! Synthesis-as-a-service: the flows of the paper behind a daemon.
//!
//! `qda-server` turns the batch pipeline (Verilog → AIG → reversible
//! circuit, `qda-core`'s three flows) into a long-running service that
//! speaks **line-delimited JSON** over stdio or a TCP listener. Each
//! request line carries a design (a named generator such as `INTDIV(6)`,
//! inline Verilog, or inline `.real` text), a flow configuration, and a
//! per-request resource budget; each response line carries either the
//! same `BENCH_*.json` row shape the bench binaries emit (per-stage
//! timings, cost figures, lint summary) or a structured error.
//!
//! What makes it a *daemon* rather than a loop around `Flow::run`:
//!
//! * **Bounded admission** ([`queue`]): a fixed-capacity work queue;
//!   beyond capacity the caller gets a structured `queue_full` error
//!   immediately — the reader thread never blocks, so cheap requests
//!   (`stats`, malformed lines) are always answered.
//! * **Budget enforcement** (`qda_core::flow::FlowBudget`): per-request
//!   gate/qubit caps and a wall-clock deadline, passed into the flow
//!   driver, which checks the caps before verification and the deadline
//!   between stages. A watchdog thread answers the client with a
//!   `timeout` error the moment the deadline passes and abandons the
//!   worker's eventual result (responses are complete-once).
//! * **Containment** ([`server`]): jobs run under `catch_unwind`, so a
//!   hostile design parameter that trips a generator assertion produces
//!   a structured `panic` response — and the shared front-end cache
//!   recovers its poisoned slot instead of wedging (the cache-poisoning
//!   fix in `qda-core`).
//! * **Source-anchored diagnostics** ([`diagnostic`]): a remote caller
//!   has no file to open, so parse errors quote the offending line of
//!   the *submitted* source with a caret, rustc-style.
//!
//! See [`protocol`] for the wire format and `README.md` for a quick
//! start.

pub mod diagnostic;
pub mod protocol;
pub mod queue;
pub mod server;

pub use server::{serve_session, serve_tcp, ServerConfig, ServerStats};
