//! Regenerates **Fig. 1** (the design-flow graph) and demonstrates the
//! design space exploration the flows enable: all three flows on one
//! design — dispatched in parallel over a shared front-end cache — ranked
//! by each objective, plus the Pareto front in the (qubits, T-count)
//! plane.

use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args};
use qda_core::design::Design;
use qda_core::dse::{default_workers, DesignSpaceExplorer, Objective};
use qda_core::flow::{EsopFlow, FlowGraph, FunctionalFlow, HierarchicalFlow};
use qda_core::report::{group_digits, Table};

fn main() {
    let args = parse_args();
    println!("FIG. 1 — design flows\n");
    println!("{}", FlowGraph);

    let n = args.sweep(5, 6, 6);
    let design = Design::intdiv(n);
    let workers = default_workers();
    println!("\nlive design space exploration on {design} ({workers} workers):\n");
    let mut dse = DesignSpaceExplorer::new();
    dse.add_flow(Box::new(FunctionalFlow::default()));
    dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
    dse.add_flow(Box::new(EsopFlow::with_factoring(1)));
    dse.add_flow(Box::new(HierarchicalFlow::default()));
    dse.explore_matrix(&[design], workers);

    let mut results = BenchResults::new("figure1");
    let mut table = Table::new(
        "flow outcomes",
        vec!["flow", "qubits", "T-count", "runtime (s)"],
    );
    for o in dse.outcomes() {
        results.push(BenchRow::from_outcome("INTDIV", n, o));
        table.add_row(vec![
            o.flow_name.clone(),
            o.cost.qubits.to_string(),
            group_digits(o.cost.t_count),
            format!("{:.3}", o.runtime.as_secs_f64()),
        ]);
    }
    for (flow_name, error) in dse.failures() {
        results.push(BenchRow::failure("INTDIV", n, flow_name, error));
        table.add_row(vec![
            flow_name.clone(),
            "-".into(),
            format!("failed: {error}"),
            "-".into(),
        ]);
    }
    println!("{table}");

    let mut stages = Table::stages();
    for o in dse.outcomes() {
        stages.add_row(Table::stage_row(o));
    }
    println!("{stages}");

    for objective in [Objective::Qubits, Objective::TCount, Objective::Runtime] {
        if let Some(best) = dse.best(objective) {
            println!(
                "best by {objective:?}: {} ({} qubits, {} T)",
                best.flow_name,
                best.cost.qubits,
                group_digits(best.cost.t_count)
            );
        }
    }
    println!("\nPareto front (qubits vs T-count):");
    for o in dse.pareto_front() {
        println!(
            "  {:>6} qubits, {:>10} T — {}",
            o.cost.qubits,
            group_digits(o.cost.t_count),
            o.flow_name
        );
    }
    emit_results(&results);
}
