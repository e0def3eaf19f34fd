//! Design space exploration: run every flow on the same designs and pick
//! winners by objective — the paper's headline capability ("the designer
//! can optimize the synthesis output with respect to several objectives
//! such as space, time, or runtime of the design flow").
//!
//! The flow × design matrix is dispatched over worker threads with the
//! front end (parse → elaborate → AIG optimization) computed once per
//! design and shared by all flows; the example times a serial run against
//! a parallel run of the same matrix and checks they report identically.
//!
//! Run with: `cargo run --release -p qda-core --example design_space_exploration`

use qda_core::design::Design;
use qda_core::dse::{default_workers, DesignSpaceExplorer, Objective};
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use qda_core::report::{deterministic_report, group_digits, Table};
use qda_revsynth::hierarchical::CleanupStrategy;
use std::time::Instant;

fn baseline_flows() -> Vec<Box<dyn Flow>> {
    vec![
        Box::new(FunctionalFlow::default()),
        Box::new(EsopFlow::with_factoring(0)),
        Box::new(EsopFlow::with_factoring(1)),
        Box::new(HierarchicalFlow::with_strategy(CleanupStrategy::Bennett)),
        Box::new(HierarchicalFlow::with_strategy(CleanupStrategy::PerOutput)),
    ]
}

fn explorer() -> DesignSpaceExplorer {
    let mut dse = DesignSpaceExplorer::new();
    for flow in baseline_flows() {
        dse.add_flow(flow);
    }
    dse
}

fn main() {
    let designs = [Design::intdiv(7), Design::newton(6)];
    println!(
        "exploring the design space of {} and {}\n",
        designs[0], designs[1]
    );

    // Baseline: the pre-cache behavior — every flow runs its own front
    // end (parse → elaborate → AIG optimization) from scratch.
    let start = Instant::now();
    for design in &designs {
        for flow in baseline_flows() {
            let _ = flow.run(design);
        }
    }
    let baseline_time = start.elapsed();

    // Cached serial: same matrix, front end computed once per design.
    let start = Instant::now();
    let mut serial = explorer();
    let successes = serial.explore_matrix(&designs, 1);
    let serial_time = start.elapsed();

    // Cached parallel: same matrix dispatched over worker threads.
    let workers = default_workers().max(2);
    let start = Instant::now();
    let mut parallel = explorer();
    parallel.explore_matrix(&designs, workers);
    let parallel_time = start.elapsed();

    assert_eq!(
        deterministic_report(serial.outcomes()),
        deterministic_report(parallel.outcomes()),
        "parallel exploration must report exactly what serial does"
    );
    println!("{successes} flow runs succeeded");
    println!(
        "uncached baseline:          {:.3}s  (front end re-run by all {} flows)",
        baseline_time.as_secs_f64(),
        baseline_flows().len(),
    );
    println!(
        "shared front-end, serial:   {:.3}s  ({:.2}x vs baseline)",
        serial_time.as_secs_f64(),
        baseline_time.as_secs_f64() / serial_time.as_secs_f64()
    );
    println!(
        "shared front-end, {workers} workers: {:.3}s  ({:.2}x vs baseline; thread-level \
         speedup needs >1 CPU)\n",
        parallel_time.as_secs_f64(),
        baseline_time.as_secs_f64() / parallel_time.as_secs_f64()
    );

    let dse = parallel;
    let mut table = Table::new(
        "all outcomes",
        vec!["design", "flow", "qubits", "T-count", "runtime (ms)"],
    );
    for o in dse.outcomes() {
        table.add_row(vec![
            o.design.name(),
            o.flow_name.clone(),
            o.cost.qubits.to_string(),
            group_digits(o.cost.t_count),
            format!("{:.1}", o.runtime.as_secs_f64() * 1e3),
        ]);
    }
    println!("{table}");

    let mut stages = Table::stages();
    for o in dse.outcomes() {
        stages.add_row(Table::stage_row(o));
    }
    println!("{stages}");

    // The same design, three different sweet spots.
    for objective in [Objective::Qubits, Objective::TCount, Objective::Runtime] {
        let best = dse.best(objective).expect("flows succeeded");
        println!(
            "minimize {objective:?}: use {:<34} → {} qubits, {} T",
            best.flow_name,
            best.cost.qubits,
            group_digits(best.cost.t_count)
        );
    }

    println!("\nPareto front (space–time trade-off the paper explores):");
    for o in dse.pareto_front() {
        println!(
            "  {:>6} qubits | {:>9} T | {} | {}",
            o.cost.qubits,
            group_digits(o.cost.t_count),
            o.design.name(),
            o.flow_name
        );
    }
}
