//! `esop_bench` — naive vs. indexed EXORCISM engine on the paper's ESOP
//! minimization path.
//!
//! Three workload families, each minimized by both engines with identical
//! resulting truth tables (asserted) and the indexed engine never keeping
//! more cubes (asserted):
//!
//! * `MINTERM(v)` — dense random `v`-variable 3-output functions seeded as
//!   raw minterm lists (`Esop::from_truth_table`), the regime where the
//!   naive engine's quadratic restarts blow up;
//! * `PSDKRO(v)` — arithmetic-style functions (`x·y` product bits)
//!   collapsed to BDDs and extracted via PSDKRO expansion, the seed shape
//!   the `EsopFlow` actually feeds exorcism;
//! * `FLOW INTDIV(n)` — the end-to-end `EsopFlow` with its per-stage split
//!   (parse+elab / optimize / synthesis / post-opt / verification), naive
//!   vs indexed
//!   exorcism inside.
//!
//! Results go to `BENCH_esop.json`: one row per (workload, engine) with
//! `cubes_in`, the minimized cube count in `gates`, the minimized literal
//! count in `t_count`, and `runtime_s` (see `qda_bench::results`).
//!
//! Default sweep: minterm v ∈ {10, 12}; `--quick` shrinks to v = 10 (CI
//! smoke), `--full` extends to v = 14 (the naive engine needs minutes
//! there).

use qda_bdd::BddManager;
use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args, splitmix};
use qda_classical::esop_extract::extract_multi_esop;
use qda_classical::exorcism::{minimize_esop, ExorcismEngine, ExorcismOptions};
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow};
use qda_core::report::Table;
use qda_logic::esop::{Esop, MultiEsop};
use qda_logic::tt::TruthTable;
use std::time::Instant;

/// A dense random multi-output function seeded as a raw minterm list.
fn minterm_workload(num_vars: usize, num_outputs: usize) -> MultiEsop {
    let esops: Vec<Esop> = (0..num_outputs as u64)
        .map(|o| {
            let tt = TruthTable::from_fn(num_vars, |x| {
                let mut s = (x << 8) ^ o ^ 0xABCD;
                splitmix(&mut s).is_multiple_of(2)
            });
            Esop::from_truth_table(&tt)
        })
        .collect();
    MultiEsop::from_single_outputs(&esops)
}

/// Middle product bits of `a × b` (split input word) through BDD +
/// PSDKRO — the seed shape `EsopFlow` hands to exorcism. The middle bits
/// carry the multiplier's full carry structure, so their PSDKRO covers
/// are the hard case (the low bits are near-trivial).
fn psdkro_workload(num_vars: usize, num_outputs: usize) -> MultiEsop {
    let half = num_vars / 2;
    let tts: Vec<TruthTable> = (0..num_outputs)
        .map(|i| {
            let bit = half - 1 + i;
            TruthTable::from_fn(num_vars, |x| {
                let a = x & ((1 << half) - 1);
                let b = x >> half;
                (a.wrapping_mul(b) >> bit) & 1 == 1
            })
        })
        .collect();
    let mut mgr = BddManager::new(num_vars);
    let bdds: Vec<_> = tts.iter().map(|tt| mgr.from_truth_table(tt)).collect();
    extract_multi_esop(&mut mgr, &bdds)
}

fn literal_count(esop: &MultiEsop) -> usize {
    esop.cubes().iter().map(|(c, _)| c.num_literals()).sum()
}

struct EngineRun {
    label: &'static str,
    cubes: usize,
    literals: usize,
    seconds: f64,
}

/// Minimizes a copy of `esop` with `engine`, checking function
/// preservation against `esop` itself.
fn run_engine(esop: &MultiEsop, engine: ExorcismEngine, label: &'static str) -> EngineRun {
    let options = ExorcismOptions {
        engine,
        ..ExorcismOptions::default()
    };
    let mut minimized = esop.clone();
    let start = Instant::now();
    minimize_esop(&mut minimized, &options);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        minimized.to_truth_table(),
        esop.to_truth_table(),
        "{label}: minimization changed the function"
    );
    EngineRun {
        label,
        cubes: minimized.len(),
        literals: literal_count(&minimized),
        seconds,
    }
}

fn main() {
    let args = parse_args();
    let max_minterm_vars = args.sweep(10, 12, 14);
    let outputs = 3;

    let mut results = BenchResults::new("esop");
    let mut table = Table::new(
        "ESOP BENCH — naive vs indexed EXORCISM engines",
        vec![
            "workload",
            "vars",
            "cubes in",
            "naive cubes",
            "indexed cubes",
            "naive s",
            "indexed s",
            "speedup",
        ],
    );

    let mut workloads: Vec<(&'static str, usize, MultiEsop)> = Vec::new();
    for v in (10..=max_minterm_vars).step_by(2) {
        workloads.push(("MINTERM", v, minterm_workload(v, outputs)));
    }
    workloads.push(("PSDKRO", 10, psdkro_workload(10, outputs)));
    if !args.quick {
        workloads.push(("PSDKRO", 12, psdkro_workload(12, outputs)));
    }

    for (name, vars, esop) in &workloads {
        let naive = run_engine(esop, ExorcismEngine::Naive, "naive");
        let indexed = run_engine(esop, ExorcismEngine::Indexed, "indexed");
        // Acceptance contract for every emitted row. On covers of up to
        // 512 cubes the indexed engine's naive start makes this hold by
        // construction; above it the single indexed start has beaten
        // the naive path on every workload here — a future heuristic
        // change that regresses it should fail this bench loudly.
        assert!(
            indexed.cubes <= naive.cubes,
            "{name}({vars}): indexed kept {} cubes, naive {}",
            indexed.cubes,
            naive.cubes
        );
        for run in [&naive, &indexed] {
            results.push(BenchRow::from_minimization(
                name,
                *vars,
                run.label,
                *vars,
                esop.len(),
                run.cubes,
                run.literals,
                run.seconds,
            ));
        }
        table.add_row(vec![
            name.to_string(),
            vars.to_string(),
            esop.len().to_string(),
            naive.cubes.to_string(),
            indexed.cubes.to_string(),
            format!("{:.3}", naive.seconds),
            format!("{:.3}", indexed.seconds),
            format!("{:.1}x", naive.seconds / indexed.seconds.max(f64::EPSILON)),
        ]);
        eprintln!("done {name}({vars})");
    }

    // End-to-end EsopFlow: same design, naive vs indexed exorcism inside,
    // with the per-stage split captured in the JSON rows.
    let flow_n = if args.quick { 4 } else { 6 };
    let design = Design::intdiv(flow_n);
    for (label, engine) in [
        ("EsopFlow/naive", ExorcismEngine::Naive),
        ("EsopFlow/indexed", ExorcismEngine::Indexed),
    ] {
        let mut flow = EsopFlow::with_factoring(0);
        flow.exorcism.engine = engine;
        match flow.run(&design) {
            Ok(outcome) => {
                let mut row = BenchRow::from_outcome("INTDIV", flow_n, &outcome);
                row.flow = label.to_string();
                table.add_row(vec![
                    format!("FLOW {}", design.name()),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    if engine == ExorcismEngine::Naive {
                        format!("{:.3}", outcome.runtime.as_secs_f64())
                    } else {
                        "-".to_string()
                    },
                    if engine == ExorcismEngine::Indexed {
                        format!("{:.3}", outcome.runtime.as_secs_f64())
                    } else {
                        "-".to_string()
                    },
                    "-".to_string(),
                ]);
                results.push(row);
            }
            Err(e) => results.push(BenchRow::failure("INTDIV", flow_n, label, &e)),
        }
        eprintln!("done {label}");
    }

    println!("{table}");
    emit_results(&results);
    println!("gates = minimized cubes (one Toffoli each), t_count = minimized literals");
}
