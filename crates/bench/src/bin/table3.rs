//! Regenerates **Table III**: results with REVS ESOP-based synthesis at
//! p = 0 and p = 1 for INTDIV(n) and NEWTON(n).
//!
//! Default sweep: n = 5…9; `--full` extends to n = 12 (the paper sweeps
//! to n = 25 with multi-day runtimes; the ESOP of the reciprocal grows
//! exponentially either way, which is the trend this table documents).

use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args, secs};
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, FlowBudget, FrontendCache};
use qda_core::report::{group_digits, Table};

fn main() {
    let args = parse_args();
    let max_n = args.sweep(5, 9, 12);
    let p0 = EsopFlow::with_factoring(0);
    let p1 = EsopFlow::with_factoring(1);
    let mut results = BenchResults::new("table3");
    let mut table = Table::new(
        "TABLE III — REVS ESOP-based synthesis",
        vec!["design", "n", "p", "qubits", "T-count", "runtime"],
    );
    // Both factoring settings ask for the same optimization, so the
    // cache computes one front end per design.
    let cache = FrontendCache::new();
    for n in 5..=max_n {
        for (design, label) in [(Design::intdiv(n), "INTDIV"), (Design::newton(n), "NEWTON")] {
            for (flow, p) in [(&p0, 0usize), (&p1, 1)] {
                let frontend = cache
                    .get_or_compute(&design, &flow.frontend_options())
                    .expect("frontend");
                match flow.run_with_frontend(&design, &frontend, &FlowBudget::unlimited()) {
                    Ok(o) => {
                        results.push(BenchRow::from_outcome(label, n, &o));
                        table.add_row(vec![
                            label.into(),
                            n.to_string(),
                            p.to_string(),
                            o.cost.qubits.to_string(),
                            group_digits(o.cost.t_count),
                            secs(o.runtime),
                        ]);
                    }
                    Err(e) => {
                        results.push(BenchRow::failure(label, n, &flow.name(), &e));
                        table.add_row(vec![
                            label.into(),
                            n.to_string(),
                            p.to_string(),
                            "-".into(),
                            format!("failed: {e}"),
                            "-".into(),
                        ]);
                    }
                }
            }
        }
        eprintln!("done n = {n}");
    }
    println!("{table}");
    emit_results(&results);
    println!("paper reference (INTDIV p=0 qubits/T): n=5: 10/232  n=8: 16/1 342");
    println!("expected shape: p=0 uses exactly 2n qubits; p=1 more qubits, fewer T");
}
