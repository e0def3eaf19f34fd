//! `resynth_bench` — the windowed resynthesis pass (`qda_rev::resynth`
//! driven by the `qda_revsynth` linear and ESOP back-ends) on top of the
//! peephole optimizer, across every circuit family the workspace
//! produces: TBS circuits of random permutations, the Bennett
//! hierarchical flow outputs, and the manual arithmetic generators
//! (RESDIV, QNEWTON).
//!
//! Every workload is first peephole-optimized (`qda_rev::opt`), so the
//! before → after figures here measure what resynthesis buys *beyond*
//! the local rewrite rules. Each run is machine-verified: every splice
//! is batch-simulated against its window and the whole circuit is
//! equivalence-checked against its input, and the bench asserts zero
//! unsound candidates ever reached a splice.
//!
//! The pass must never regress the lexicographic `(T-count, gates)`
//! cost (a splice may add a gate only when it strictly cuts T-count),
//! and must strictly reduce the gate count of at least one Bennett
//! hierarchical workload (the paper's scalable flow, whose
//! compute–copy–uncompute structure leaves windows the peephole rules
//! cannot see); both are asserted here.
//!
//! The second half races the flow portfolio
//! (`DesignSpaceExplorer::explore_portfolio`): every
//! {flow × post_opt × resynth} configuration per design, with losing
//! configurations cut off against the settled best raw cost. Results go
//! to `BENCH_resynth.json`: resynthesis rows carry `gates_in` /
//! `t_count_in` / `windows` (including the memo hits and clean-start
//! skips of the run), portfolio rows carry the configuration name in
//! `flow`.

use qda_arith::qnewton_circuit;
use qda_arith::resdiv::resdiv_reciprocal;
use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args, random_permutation};
use qda_core::design::Design;
use qda_core::dse::{configuration_name, default_workers, DesignSpaceExplorer};
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use qda_core::report::Table;
use qda_rev::circuit::Circuit;
use qda_rev::opt::{optimize_checked, OptOptions};
use qda_rev::resynth::ResynthOptions;
use qda_revsynth::resynth::resynthesize_circuit_checked;
use qda_revsynth::tbs::{transformation_based_synthesis, TbsDirection};
use std::time::Instant;

/// One resynthesis workload: a peephole-optimized circuit plus the
/// expectations the bench enforces on it.
struct Workload {
    name: &'static str,
    n: usize,
    /// Already peephole-optimized input.
    circuit: Circuit,
    /// Whether this is a Bennett hierarchical output — the family the
    /// bench requires at least one strict gate reduction from.
    bennett: bool,
}

/// Peephole-optimizes a raw circuit (sim-checked) so resynthesis is
/// measured beyond what the local rules already achieve.
fn peepholed(circuit: &Circuit) -> Circuit {
    optimize_checked(circuit, &OptOptions::default())
        .expect("peephole optimizer must be sound")
        .circuit
}

/// The post-peephole (but pre-resynthesis) circuit of a hierarchical
/// flow run.
fn hier_post_opt_circuit(design: &Design) -> Circuit {
    let flow = HierarchicalFlow {
        post_resynth: false,
        ..Default::default()
    };
    flow.run(design).expect("flow must succeed").circuit
}

fn main() {
    let args = parse_args();
    let mut seed = 0x5E5_EA7C8;

    let tbs_ns: &[usize] = if args.quick {
        &[5]
    } else if args.full {
        &[5, 6, 7]
    } else {
        &[5, 6]
    };
    let flow_ns: &[usize] = if args.quick {
        &[5]
    } else if args.full {
        &[5, 6, 7]
    } else {
        &[5, 6]
    };
    let arith_ns: &[usize] = if args.quick {
        &[4]
    } else if args.full {
        &[6, 8]
    } else {
        &[6]
    };

    let mut workloads = Vec::new();
    for &n in tbs_ns {
        let perm = random_permutation(n, &mut seed);
        let raw = transformation_based_synthesis(&perm, TbsDirection::Bidirectional);
        workloads.push(Workload {
            name: "TBS-RAND",
            n,
            circuit: peepholed(&raw),
            bennett: false,
        });
    }
    for &n in flow_ns {
        workloads.push(Workload {
            name: "INTDIV-HIER",
            n,
            circuit: hier_post_opt_circuit(&Design::intdiv(n)),
            bennett: true,
        });
        workloads.push(Workload {
            name: "NEWTON-HIER",
            n,
            circuit: hier_post_opt_circuit(&Design::newton(n)),
            bennett: true,
        });
    }
    for &n in arith_ns {
        workloads.push(Workload {
            name: "RESDIV",
            n,
            circuit: peepholed(&resdiv_reciprocal(n).circuit),
            bennett: false,
        });
        workloads.push(Workload {
            name: "QNEWTON",
            n,
            circuit: peepholed(&qnewton_circuit(n).circuit),
            bennett: false,
        });
    }

    let mut results = BenchResults::new("resynth");
    let mut table = Table::new(
        "RESYNTH BENCH — windowed resynthesis beyond the peephole pass (sim-checked)",
        vec![
            "workload",
            "qubits",
            "gates",
            "T-count",
            "windows",
            "memo hits",
            "clean skips",
            "accepted",
            "time (s)",
        ],
    );
    let mut bennett_reduced = false;
    for w in &workloads {
        let before = w.circuit.cost();
        let start = Instant::now();
        let out = resynthesize_circuit_checked(&w.circuit, &ResynthOptions::default())
            .unwrap_or_else(|m| {
                panic!(
                    "{}({}): resynthesis diverged from its input: {m}",
                    w.name, w.n
                )
            });
        let secs = start.elapsed().as_secs_f64();
        let after = out.circuit.cost();
        assert_eq!(
            out.stats.candidates_unsound, 0,
            "{}({}): an unsound candidate reached the splice stage",
            w.name, w.n
        );
        assert!(
            (after.t_count, after.gates) <= (before.t_count, before.gates),
            "{}({}): cost regressed {}g/{}T -> {}g/{}T",
            w.name,
            w.n,
            before.gates,
            before.t_count,
            after.gates,
            after.t_count
        );
        if w.bennett && after.gates < before.gates {
            bennett_reduced = true;
        }
        results.push(BenchRow::from_resynth(
            w.name,
            w.n,
            "resynth (ESOP/linear)",
            &before,
            &after,
            out.stats,
            secs,
        ));
        table.add_row(vec![
            format!("{}({})", w.name, w.n),
            before.qubits.to_string(),
            format!("{} -> {}", before.gates, after.gates),
            format!("{} -> {}", before.t_count, after.t_count),
            out.stats.windows_attempted.to_string(),
            out.stats.memo_hits.to_string(),
            out.stats.clean_skips.to_string(),
            out.stats.windows_accepted.to_string(),
            format!("{secs:.3}"),
        ]);
        eprintln!("done {}({})", w.name, w.n);
    }
    assert!(
        bennett_reduced,
        "no Bennett hierarchical workload was strictly reduced beyond the peephole pass"
    );
    println!("{table}");

    // Portfolio racing: every {flow × post_opt × resynth} configuration
    // per design, losing configurations cut off early against the
    // settled best raw cost.
    let n = args.sweep(4, 5, 6);
    let designs = [Design::intdiv(n), Design::newton(n)];
    let workers = default_workers();
    let mut dse = DesignSpaceExplorer::new();
    dse.add_flow(Box::new(FunctionalFlow::default()));
    dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
    dse.add_flow(Box::new(HierarchicalFlow::default()));
    let portfolio = dse.explore_portfolio(&designs, workers);

    let mut race = Table::new(
        "PORTFOLIO RACE — every configuration, losers cut off",
        vec![
            "design",
            "configuration",
            "qubits",
            "T-count",
            "gates",
            "status",
        ],
    );
    for o in &portfolio.outcomes {
        let label = configuration_name(&o.flow_name, o.post_opt, o.post_resynth);
        results.push(BenchRow::from_cost(&o.design.name(), n, &label, &o.cost));
        race.add_row(vec![
            o.design.name(),
            label,
            o.cost.qubits.to_string(),
            o.cost.t_count.to_string(),
            o.cost.gates.to_string(),
            if o.cut_off { "cut off" } else { "ran" }.to_string(),
        ]);
    }
    for (name, error) in &portfolio.failures {
        results.push(BenchRow::failure("PORTFOLIO", n, name, error));
    }
    println!("{race}");

    // Portfolio-vs-single-flow deltas: the winner against the default
    // hierarchical flow run in isolation.
    for design in &designs {
        let best = portfolio
            .best_for(design)
            .expect("every design has at least one surviving configuration");
        let single = HierarchicalFlow::default()
            .run(design)
            .expect("reference flow must succeed");
        assert!(
            best.cost.t_count <= single.cost.t_count,
            "{}: portfolio winner worse than the single default flow",
            design.name()
        );
        results.push(BenchRow::from_cost(
            &design.name(),
            n,
            "portfolio best",
            &best.cost,
        ));
        results.push(BenchRow::from_cost(
            &design.name(),
            n,
            "single default flow",
            &single.cost,
        ));
        println!(
            "{}: portfolio best {} — {} T / {} gates vs single default flow {} T / {} gates",
            design.name(),
            configuration_name(&best.flow_name, best.post_opt, best.post_resynth),
            best.cost.t_count,
            best.cost.gates,
            single.cost.t_count,
            single.cost.gates,
        );
    }

    emit_results(&results);
    println!(
        "every resynthesized circuit equivalence-checked against its original by batch simulation"
    );
}
