//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Binaries (one per artifact or measured subsystem):
//!
//! * `table1` — baseline RESDIV/QNEWTON costs (paper Table I),
//! * `table2` — functional synthesis results (Table II),
//! * `table3` — REVS ESOP synthesis, `p ∈ {0, 1}` (Table III),
//! * `table4` — hierarchical synthesis (Table IV),
//! * `figure1` — the design-flow graph (Fig. 1) plus a live DSE demo,
//! * `ablation` — ablations of six flow design choices (exorcism,
//!   factoring depth, in-place XOR, cleanup, TBS direction, cost model),
//! * `verify_bench` — scalar replay vs bit-parallel batch simulation
//!   throughput on the reversible arithmetic blocks,
//! * `esop_bench` — the naive vs indexed EXORCISM engine on ESOP
//!   minimization workloads,
//! * `opt_bench` — the post-synthesis peephole optimizer on every circuit
//!   family the workspace produces,
//! * `resynth_bench` — windowed resynthesis on top of the peephole
//!   optimizer, on the same families,
//! * `circuit_lint` — the static circuit analyzer on every family, each
//!   required deny-clean,
//! * `par_bench` — worker-pool scaling of the sharded hot paths at 1, 2
//!   and 4 workers.
//!
//! All binaries accept `--full` to extend the sweep toward the paper's
//! largest instances (minutes to hours, like the original experiments) and
//! default to a laptop-scale subset that still exhibits every reported
//! trend; `--quick` shrinks the sweep to the smallest width (CI smoke).
//!
//! Besides the printed table, every binary serializes its rows — gates,
//! T-count, qubits, runtime, per-stage timings — to `BENCH_<name>.json`
//! in the working directory (see [`results`]), making the perf trajectory
//! measurable run-over-run.
//!
//! # Example
//!
//! The [`runner`] module holds the shared CLI plumbing; runtimes are
//! printed in the paper's unit (seconds, two decimals):
//!
//! ```
//! use std::time::Duration;
//!
//! assert_eq!(qda_bench::runner::secs(Duration::from_millis(1230)), "1.23");
//! ```

pub mod json;
pub mod results;
pub mod runner;
