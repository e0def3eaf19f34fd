//! Ablation study over six design choices of the flows:
//!
//! 1. exorcism minimization on/off (ESOP flow),
//! 2. factoring depth p = 0, 1, 2 (ESOP flow),
//! 3. in-place XOR application on/off (hierarchical flow),
//! 4. cleanup strategy Bennett vs per-output vs keep-garbage,
//! 5. bidirectional vs unidirectional TBS,
//! 6. relative-phase vs plain-Toffoli cost model.
//!
//! Run with: `cargo run --release -p qda-bench --bin ablation`

use qda_bench::results::{BenchResults, BenchRow};
use qda_bench::runner::{emit_results, parse_args};
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use qda_core::report::{group_digits, Table};
use qda_rev::decompose::plain_toffoli_t_count;
use qda_revsynth::hierarchical::CleanupStrategy;
use qda_revsynth::tbs::TbsDirection;

fn main() {
    let args = parse_args();
    let n = args.sweep(5, 7, 7);
    let design = Design::intdiv(n);
    let mut results = BenchResults::new("ablation");
    println!("ablations on {design}\n");

    // 1 + 2: exorcism and factoring depth.
    let mut t = Table::new(
        "ESOP flow: exorcism / factoring ablation",
        vec!["exorcism", "p", "qubits", "T-count"],
    );
    for exorcism in [true, false] {
        for p in [0usize, 1, 2] {
            let mut flow = EsopFlow::with_factoring(p);
            if !exorcism {
                flow.exorcism.max_rounds = 0;
            }
            let o = flow.run(&design).expect("esop flow");
            let label = format!("ESOP p = {p}, exorcism = {exorcism}");
            let mut row = BenchRow::from_outcome("INTDIV", n, &o);
            row.flow = label;
            results.push(row);
            t.add_row(vec![
                exorcism.to_string(),
                p.to_string(),
                o.cost.qubits.to_string(),
                group_digits(o.cost.t_count),
            ]);
        }
    }
    println!("{t}");

    // 3 + 4: hierarchical knobs.
    let mut t = Table::new(
        "hierarchical flow: cleanup / in-place-XOR ablation",
        vec!["strategy", "inplace XOR", "qubits", "gates", "T-count"],
    );
    for strategy in [
        CleanupStrategy::Bennett,
        CleanupStrategy::PerOutput,
        CleanupStrategy::KeepGarbage,
    ] {
        for inplace in [true, false] {
            let mut flow = HierarchicalFlow::with_strategy(strategy);
            flow.synth.inplace_xor = inplace && strategy == CleanupStrategy::Bennett;
            let o = flow.run(&design).expect("hierarchical flow");
            let mut row = BenchRow::from_outcome("INTDIV", n, &o);
            row.flow = format!(
                "hierarchical {strategy:?}, inplace_xor = {}",
                flow.synth.inplace_xor
            );
            results.push(row);
            t.add_row(vec![
                format!("{strategy:?}"),
                flow.synth.inplace_xor.to_string(),
                o.cost.qubits.to_string(),
                o.cost.gates.to_string(),
                group_digits(o.cost.t_count),
            ]);
        }
    }
    println!("{t}");

    // 5: TBS direction.
    let mut t = Table::new(
        "functional flow: TBS direction ablation",
        vec!["direction", "gates", "T-count"],
    );
    for direction in [TbsDirection::Unidirectional, TbsDirection::Bidirectional] {
        let flow = FunctionalFlow {
            direction,
            ..Default::default()
        };
        let o = flow.run(&design).expect("functional flow");
        let mut row = BenchRow::from_outcome("INTDIV", n, &o);
        row.flow = format!("functional TBS {direction:?}");
        results.push(row);
        t.add_row(vec![
            format!("{direction:?}"),
            o.cost.gates.to_string(),
            group_digits(o.cost.t_count),
        ]);
    }
    println!("{t}");

    // 6: cost model gap (relative-phase vs plain Toffoli expansion).
    let mut t = Table::new(
        "cost model: relative-phase (paper) vs plain-Toffoli expansion",
        vec!["flow", "T (relative-phase)", "T (plain Toffoli)"],
    );
    for (name, outcome) in [
        (
            "functional",
            FunctionalFlow::default().run(&design).expect("flow"),
        ),
        (
            "ESOP p=0",
            EsopFlow::with_factoring(0).run(&design).expect("flow"),
        ),
        (
            "hierarchical",
            HierarchicalFlow::default().run(&design).expect("flow"),
        ),
    ] {
        let mut row = BenchRow::from_outcome("INTDIV", n, &outcome);
        row.flow = format!("cost model: {name}");
        results.push(row);
        t.add_row(vec![
            name.into(),
            group_digits(outcome.cost.t_count),
            group_digits(plain_toffoli_t_count(&outcome.circuit)),
        ]);
    }
    println!("{t}");
    emit_results(&results);
}
