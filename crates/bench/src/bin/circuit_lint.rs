//! `circuit_lint` — the static circuit analyzer (`qda_analyze`) across
//! every circuit family the workspace produces: TBS circuits of random
//! permutations (functional interface), the INTDIV/NEWTON hierarchical
//! flow outputs (Bennett interface: ancillae must end clean), and the
//! manual arithmetic generators RESDIV and QNEWTON (garbage-tolerant
//! hierarchical interfaces).
//!
//! Each workload reports the circuit size, the per-severity diagnostic
//! counts, the ASAP depth metrics, and the analysis time. Results go to
//! `BENCH_analyze.json`: the usual cost fields carry the analyzed
//! circuit's figures plus a `lint` object with `deny` / `warning` /
//! `note` / `logical_depth` / `t_depth`.
//!
//! Every workload must be **deny-clean**: a deny-level diagnostic on a
//! circuit this workspace produced is a bug in either the producer or
//! the analyzer, and the bench aborts on it.

use qda_analyze::{CircuitInterface, Report, Severity};
use qda_arith::qnewton_circuit;
use qda_arith::resdiv::resdiv_reciprocal;
use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args, random_permutation};
use qda_core::design::Design;
use qda_core::flow::{Flow, HierarchicalFlow};
use qda_core::report::Table;
use qda_rev::circuit::Circuit;
use qda_revsynth::tbs::{transformation_based_synthesis, TbsDirection};
use std::time::Instant;

/// One analyzer workload: a circuit plus the interface contract it is
/// linted against.
struct Workload {
    name: &'static str,
    n: usize,
    circuit: Circuit,
    interface: CircuitInterface,
}

/// Runs a hierarchical flow and repackages its output as a workload
/// under the flow's own interface contract (Bennett cleanup: non-input
/// lines start at zero and ancillae must end clean).
fn flow_workload(name: &'static str, design: &Design) -> Workload {
    let outcome = HierarchicalFlow::default()
        .run(design)
        .expect("flow must succeed");
    let interface = CircuitInterface::hierarchical(
        outcome.circuit.num_lines(),
        outcome.input_lines.clone(),
        outcome.output_lines.clone(),
        true,
    );
    Workload {
        name,
        n: design.bits(),
        circuit: outcome.circuit,
        interface,
    }
}

fn main() {
    let args = parse_args();
    let mut seed = 0x11A7_0CA7;

    let tbs_ns: &[usize] = if args.quick {
        &[5]
    } else if args.full {
        &[5, 6, 7, 8]
    } else {
        &[5, 6, 7]
    };
    let flow_ns: &[usize] = if args.quick {
        &[5]
    } else if args.full {
        &[6, 7, 8]
    } else {
        &[6, 7]
    };
    let arith_ns: &[usize] = if args.quick {
        &[4]
    } else if args.full {
        &[6, 8, 12]
    } else {
        &[6, 8]
    };

    let mut workloads = Vec::new();
    for &n in tbs_ns {
        let perm = random_permutation(n, &mut seed);
        workloads.push(Workload {
            name: "TBS-RAND",
            n,
            circuit: transformation_based_synthesis(&perm, TbsDirection::Bidirectional),
            interface: CircuitInterface::functional(n),
        });
    }
    for &n in flow_ns {
        workloads.push(flow_workload("INTDIV-HIER", &Design::intdiv(n)));
        workloads.push(flow_workload("NEWTON-HIER", &Design::newton(n)));
    }
    for &n in arith_ns {
        let resdiv = resdiv_reciprocal(n);
        let mut inputs = resdiv.divisor_lines.clone();
        inputs.extend(&resdiv.dividend_lines);
        let mut outputs = resdiv.divisor_lines.clone();
        outputs.extend(&resdiv.quotient_lines);
        outputs.extend(&resdiv.remainder_lines);
        let interface =
            CircuitInterface::hierarchical(resdiv.circuit.num_lines(), inputs, outputs, false);
        workloads.push(Workload {
            name: "RESDIV",
            n,
            circuit: resdiv.circuit,
            interface,
        });
        let qnewton = qnewton_circuit(n);
        let interface = CircuitInterface::hierarchical(
            qnewton.circuit.num_lines(),
            qnewton.input_lines.clone(),
            qnewton.output_lines.clone(),
            false,
        );
        workloads.push(Workload {
            name: "QNEWTON",
            n,
            circuit: qnewton.circuit,
            interface,
        });
    }

    let mut results = BenchResults::new("analyze");
    let mut table = Table::new(
        "CIRCUIT LINT — static dataflow analysis of produced circuits",
        vec![
            "workload", "qubits", "gates", "T-count", "deny", "warn", "note", "depth", "T-depth",
            "time (s)",
        ],
    );
    for w in &workloads {
        let start = Instant::now();
        let report: Report = qda_analyze::analyze(&w.circuit, &w.interface);
        let secs = start.elapsed().as_secs_f64();
        assert!(
            report.is_clean(Severity::Deny),
            "{}({}): deny-level diagnostics on a workspace-produced circuit:\n{}",
            w.name,
            w.n,
            report.render_human()
        );
        results.push(BenchRow::from_lint(w.name, w.n, "lint", &report, secs));
        table.add_row(vec![
            format!("{}({})", w.name, w.n),
            report.metrics.num_lines.to_string(),
            report.metrics.num_gates.to_string(),
            report.metrics.t_count.to_string(),
            report.count(Severity::Deny).to_string(),
            report.count(Severity::Warning).to_string(),
            report.count(Severity::Note).to_string(),
            report.metrics.depth.logical_depth.to_string(),
            report.metrics.depth.t_depth.to_string(),
            format!("{secs:.3}"),
        ]);
        eprintln!("done {}({})", w.name, w.n);
    }
    println!("{table}");
    emit_results(&results);
    println!("every workload deny-clean under its interface contract");
}
