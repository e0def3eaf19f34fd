//! `par_bench` — worker-pool scaling across the four sharded hot paths:
//! exhaustive batch verification, EXORCISM's diversified restarts, the
//! DSE configuration portfolio race, and windowed resynthesis's
//! back-end race.
//!
//! Every workload runs once per worker cap in {1, 2, 4} inside one
//! process, narrowed with `qda_logic::par::with_worker_cap` — the caps
//! are fixed, never derived from `QDA_WORKERS`, so the emitted rows are
//! byte-identical across environments once timing fields are stripped
//! (the CI worker matrix diffs exactly that). Within the process the
//! deterministic outputs (verification verdicts, minimized cube counts,
//! portfolio reports, resynthesized circuits) are asserted identical
//! across caps, and the pool is warmed up front so the measured runs
//! spawn zero threads — both halves of the "one persistent budget"
//! contract.
//!
//! Results go to `BENCH_par.json`: one row per (workload, `workers=N`)
//! with `runtime_s` plus `states_per_sec` for the verification sweep and
//! the window accounting for resynthesis.
//!
//! Default sweep: 2^16-state verify / 10-var ESOP / INTDIV(5) portfolio;
//! `--quick` shrinks to 2^14 / 9 vars / INTDIV(4) (CI smoke), `--full`
//! extends to 2^18 / 12 vars / INTDIV(6). Resynthesis always runs on the
//! peephole-optimized hierarchical NEWTON(6) circuit.

use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args};
use qda_classical::exorcism::{minimize_esop, ExorcismEngine, ExorcismOptions};
use qda_core::design::Design;
use qda_core::dse::DesignSpaceExplorer;
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use qda_core::report::{portfolio_report, Table};
use qda_logic::esop::{Esop, MultiEsop};
use qda_logic::par;
use qda_logic::tt::TruthTable;
use qda_rev::blocks::less_than;
use qda_rev::circuit::Circuit;
use qda_rev::equiv::{verify_computes, VerifyOptions, VerifyOutcome};
use qda_rev::resynth::ResynthOptions;
use qda_revsynth::resynth::resynthesize_circuit;
use std::time::Instant;

/// The fixed worker-cap sweep. Caps above the machine's `QDA_WORKERS`
/// budget are harmless upper bounds, so the row set never depends on the
/// environment.
const CAPS: [usize; 3] = [1, 2, 4];

/// `target ^= (b < a)` comparator: `2w` input lines, known oracle, and an
/// exhaustive `2^(2w)`-state space for the verification sweep.
fn comparator(w: usize) -> Circuit {
    let a: Vec<usize> = (0..w).collect();
    let b: Vec<usize> = (w..2 * w).collect();
    let mut circuit = Circuit::new(2 * w + 2);
    less_than(&mut circuit, &a, &b, 2 * w, 2 * w + 1);
    circuit
}

/// Dense pseudo-random multi-output ESOP seeded as raw minterm lists —
/// the regime where EXORCISM's diversified restarts dominate.
fn minterm_workload(num_vars: usize, num_outputs: usize) -> MultiEsop {
    let esops: Vec<Esop> = (0..num_outputs as u64)
        .map(|o| {
            let tt = TruthTable::from_fn(num_vars, |x| {
                let mut s = (x << 8) ^ o ^ 0xABCD;
                qda_bench::runner::splitmix(&mut s).is_multiple_of(2)
            });
            Esop::from_truth_table(&tt)
        })
        .collect();
    MultiEsop::from_single_outputs(&esops)
}

fn portfolio_explorer() -> DesignSpaceExplorer {
    let mut dse = DesignSpaceExplorer::new();
    dse.add_flow(Box::new(FunctionalFlow::default()));
    dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
    dse.add_flow(Box::new(HierarchicalFlow::default()));
    dse
}

fn main() {
    let args = parse_args();
    let verify_w = args.sweep(7, 8, 9); // 2^(2w) states swept
    let esop_vars = args.sweep(9, 10, 12);
    let portfolio_n = args.sweep(4, 5, 6);

    // Warm the pool before any measurement: every later row must run on
    // reused threads.
    let _ = par::run_indexed(CAPS.len() * 4, |i| i);
    let spawned_before = par::spawned_threads();

    let mut results = BenchResults::new("par");
    let mut table = Table::new(
        "PAR BENCH — worker-pool scaling (one process, fixed caps)",
        vec!["workload", "workers", "runtime s", "states/s"],
    );

    // 1. Exhaustive batch verification (equiv sweep sharded over spans).
    let circuit = comparator(verify_w);
    let inputs: Vec<usize> = (0..2 * verify_w).collect();
    let states = 1u64 << (2 * verify_w);
    let options = VerifyOptions {
        exhaustive_limit: 2 * verify_w,
        ..VerifyOptions::default()
    };
    let mut verdicts = Vec::new();
    for cap in CAPS {
        let start = Instant::now();
        let outcome = par::with_worker_cap(cap, || {
            verify_computes(
                &circuit,
                &inputs,
                &[2 * verify_w + 1],
                |x| u64::from((x >> verify_w) < (x & ((1 << verify_w) - 1))),
                &options,
            )
        });
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(outcome, VerifyOutcome::Verified, "workers={cap}");
        verdicts.push(outcome);
        results.push(BenchRow::from_throughput(
            "LESS-THAN",
            verify_w,
            &format!("verify workers={cap}"),
            circuit.num_lines(),
            circuit.num_gates(),
            states,
            secs,
        ));
        table.add_row(vec![
            format!("verify LESS-THAN({verify_w})"),
            cap.to_string(),
            format!("{secs:.3}"),
            format!("{:.3e}", states as f64 / secs.max(f64::EPSILON)),
        ]);
    }
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]));

    // 2. EXORCISM diversified restarts (indexed engine, restart jobs
    // sharded over the pool).
    let esop = minterm_workload(esop_vars, 3);
    let exorcism = ExorcismOptions {
        engine: ExorcismEngine::Indexed,
        ..ExorcismOptions::default()
    };
    let mut cube_counts = Vec::new();
    for cap in CAPS {
        let mut minimized = esop.clone();
        let start = Instant::now();
        par::with_worker_cap(cap, || minimize_esop(&mut minimized, &exorcism));
        let secs = start.elapsed().as_secs_f64();
        cube_counts.push(minimized.len());
        results.push(BenchRow::from_minimization(
            "MINTERM",
            esop_vars,
            &format!("exorcism workers={cap}"),
            esop_vars,
            esop.len(),
            minimized.len(),
            minimized
                .cubes()
                .iter()
                .map(|(c, _)| c.num_literals())
                .sum(),
            secs,
        ));
        table.add_row(vec![
            format!("exorcism MINTERM({esop_vars})"),
            cap.to_string(),
            format!("{secs:.3}"),
            "-".to_string(),
        ]);
    }
    assert!(
        cube_counts.windows(2).all(|w| w[0] == w[1]),
        "EXORCISM result must not depend on the worker cap: {cube_counts:?}"
    );

    // 3. DSE portfolio race (flows, refinement combos, and their nested
    // equivalence sweeps and resynthesis races all on the one pool).
    let design = Design::intdiv(portfolio_n);
    let mut reports = Vec::new();
    for cap in CAPS {
        let dse = portfolio_explorer();
        let start = Instant::now();
        let portfolio = dse.explore_portfolio(std::slice::from_ref(&design), cap);
        let secs = start.elapsed().as_secs_f64();
        assert!(!portfolio.outcomes.is_empty());
        reports.push(portfolio_report(&portfolio.outcomes));
        let best = portfolio.best_for(&design).expect("a configuration won");
        results.push(BenchRow::from_throughput(
            &design.name(),
            portfolio_n,
            &format!("portfolio workers={cap}"),
            best.cost.qubits,
            best.cost.gates as usize,
            portfolio.outcomes.len() as u64,
            secs,
        ));
        table.add_row(vec![
            format!("portfolio {}", design.name()),
            cap.to_string(),
            format!("{secs:.3}"),
            "-".to_string(),
        ]);
    }
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "portfolio report must not depend on the worker cap"
    );

    // 4. Windowed resynthesis (one back-end race per distinct window
    // permutation) on the peephole-optimized hierarchical NEWTON(6).
    let resynth_n = 6;
    let input = HierarchicalFlow {
        post_resynth: false,
        ..Default::default()
    }
    .run(&Design::newton(resynth_n))
    .expect("hierarchical NEWTON must synthesize")
    .circuit;
    let mut outputs = Vec::new();
    for cap in CAPS {
        let start = Instant::now();
        let out = par::with_worker_cap(cap, || {
            resynthesize_circuit(&input, &ResynthOptions::default())
        });
        let secs = start.elapsed().as_secs_f64();
        results.push(BenchRow::from_resynth(
            "NEWTON-HIER",
            resynth_n,
            &format!("resynth workers={cap}"),
            &input.cost(),
            &out.circuit.cost(),
            out.stats,
            secs,
        ));
        table.add_row(vec![
            format!("resynth NEWTON-HIER({resynth_n})"),
            cap.to_string(),
            format!("{secs:.3}"),
            "-".to_string(),
        ]);
        outputs.push((out.circuit, out.stats));
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "resynthesis must not depend on the worker cap"
    );

    assert_eq!(
        par::spawned_threads(),
        spawned_before,
        "steady-state benchmark runs must not spawn threads"
    );

    println!("{table}");
    emit_results(&results);
    println!(
        "caps are fixed at {CAPS:?} and clamped by the pool's QDA_WORKERS budget; \
         all deterministic outputs verified identical across caps; \
         0 threads spawned after warm-up"
    );
}
