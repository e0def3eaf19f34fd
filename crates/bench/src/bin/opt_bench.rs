//! `opt_bench` — the post-synthesis peephole optimizer (`qda_rev::opt`)
//! across every circuit family the workspace produces: TBS circuits of
//! random permutations, the raw ESOP-flow and hierarchical-flow outputs
//! (run with `post_opt` and `post_resynth` off so the bench optimizes
//! the synthesis output itself), and the manual arithmetic generators
//! (RESDIV, QNEWTON).
//!
//! Each workload reports gates and T-count before → after, the accepted
//! rewrites per rule, and the optimization time (which includes the
//! batch-simulation equivalence check — every rewritten circuit is
//! machine-verified against its original before being reported).
//! Results go to `BENCH_opt.json`: the usual cost fields carry the
//! *optimized* figures plus `gates_in` / `t_count_in` / `rewrites`.
//!
//! The optimizer must never increase the T-count of any workload, and
//! must strictly reduce the gate count of the Bennett hierarchical
//! outputs (the paper's scalable flow, whose compute–copy–uncompute
//! structure leaves the most local redundancy); both are asserted here.

use qda_arith::qnewton_circuit;
use qda_arith::resdiv::resdiv_reciprocal;
use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args, random_permutation};
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, HierarchicalFlow};
use qda_core::report::Table;
use qda_rev::circuit::Circuit;
use qda_rev::opt::{optimize_checked, OptOptions};
use qda_revsynth::tbs::{transformation_based_synthesis, TbsDirection};
use std::time::Instant;

/// One optimizer workload: a raw synthesized circuit plus the hard
/// expectations the bench enforces on it.
struct Workload {
    name: &'static str,
    n: usize,
    circuit: Circuit,
    /// The acceptance bar for Bennett hierarchical outputs: the pass
    /// must strictly reduce the gate count.
    must_reduce_gates: bool,
}

/// The raw (pre-optimizer) circuit of a flow run.
fn raw_flow_circuit(flow: &dyn Flow, design: &Design) -> Circuit {
    flow.run(design).expect("flow must succeed").circuit
}

fn main() {
    let args = parse_args();
    let mut seed = 0x0B7_BE4C;

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
            must_reduce_gates: false,
        });
    }
    for &n in flow_ns {
        let esop = EsopFlow {
            post_opt: false,
            ..EsopFlow::with_factoring(0)
        };
        workloads.push(Workload {
            name: "INTDIV-ESOP",
            n,
            circuit: raw_flow_circuit(&esop, &Design::intdiv(n)),
            must_reduce_gates: false,
        });
        let hier = HierarchicalFlow {
            post_opt: false,
            post_resynth: false,
            ..Default::default()
        };
        workloads.push(Workload {
            name: "INTDIV-HIER",
            n,
            circuit: raw_flow_circuit(&hier, &Design::intdiv(n)),
            must_reduce_gates: true,
        });
        workloads.push(Workload {
            name: "NEWTON-HIER",
            n,
            circuit: raw_flow_circuit(&hier, &Design::newton(n)),
            must_reduce_gates: true,
        });
    }
    for &n in arith_ns {
        workloads.push(Workload {
            name: "RESDIV",
            n,
            circuit: resdiv_reciprocal(n).circuit,
            must_reduce_gates: false,
        });
        workloads.push(Workload {
            name: "QNEWTON",
            n,
            circuit: qnewton_circuit(n).circuit,
            must_reduce_gates: false,
        });
    }

    let mut results = BenchResults::new("opt");
    let mut table = Table::new(
        "OPT BENCH — post-synthesis peephole optimization (sim-checked)",
        vec![
            "workload", "qubits", "gates", "T-count", "cancel", "merge", "not-abs", "time (s)",
        ],
    );
    for w in &workloads {
        let before = w.circuit.cost();
        let start = Instant::now();
        let out = optimize_checked(&w.circuit, &OptOptions::default()).unwrap_or_else(|m| {
            panic!(
                "{}({}): optimizer diverged from its input: {m}",
                w.name, w.n
            )
        });
        let secs = start.elapsed().as_secs_f64();
        let after = out.circuit.cost();
        assert!(
            after.t_count <= before.t_count,
            "{}({}): T-count regressed {} -> {}",
            w.name,
            w.n,
            before.t_count,
            after.t_count
        );
        assert!(
            !w.must_reduce_gates || after.gates < before.gates,
            "{}({}): Bennett output not strictly reduced ({} gates)",
            w.name,
            w.n,
            before.gates
        );
        results.push(BenchRow::from_opt(
            w.name, w.n, &before, &after, out.stats, secs,
        ));
        table.add_row(vec![
            format!("{}({})", w.name, w.n),
            before.qubits.to_string(),
            format!("{} -> {}", before.gates, after.gates),
            format!("{} -> {}", before.t_count, after.t_count),
            out.stats.cancellations.to_string(),
            (out.stats.polarity_merges + out.stats.subset_merges).to_string(),
            out.stats.not_absorptions.to_string(),
            format!("{secs:.3}"),
        ]);
        eprintln!("done {}({})", w.name, w.n);
    }
    println!("{table}");
    emit_results(&results);
    println!(
        "every rewritten circuit equivalence-checked against its original by batch simulation"
    );
}
