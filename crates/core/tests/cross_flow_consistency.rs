//! Cross-representation consistency: the same design pushed through every
//! intermediate representation must stay the same Boolean function at
//! every interface of Fig. 1.

use qda_analyze::{depth, DepthMetrics};
use qda_bdd::{Bdd, BddManager};
use qda_classical::collapse::collapse_to_bdds;
use qda_classical::esop_extract::extract_multi_esop;
use qda_classical::exorcism::{minimize_esop, ExorcismOptions};
use qda_classical::rewrite::{optimize_aig, OptimizeOptions};
use qda_classical::xmg_map::map_to_xmg;
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, FlowOutcome, FunctionalFlow, HierarchicalFlow};
use qda_logic::aig::Lit;
use qda_rev::state::BitState;
use qda_rev::{GateArena, PackedGate};
use qda_revsynth::embed::{minimum_additional_lines, optimum_embedding};
use qda_revsynth::hierarchical::CleanupStrategy;

fn designs() -> Vec<Design> {
    vec![
        Design::intdiv(5),
        Design::intdiv(7),
        Design::newton(4),
        Design::newton(6),
    ]
}

#[test]
fn aig_optimization_preserves_semantics() {
    for d in designs() {
        let aig = d.to_aig().unwrap();
        let opt = optimize_aig(&aig, &OptimizeOptions::default());
        assert_eq!(opt.to_truth_tables(), aig.to_truth_tables(), "{d}");
        assert!(
            opt.num_ands() <= aig.num_ands(),
            "{d}: optimizer grew the AIG"
        );
    }
}

#[test]
fn bdd_collapse_agrees_with_aig() {
    for d in designs() {
        let aig = d.to_aig().unwrap();
        let (mgr, bdds) = collapse_to_bdds(&aig, 1_000_000).unwrap();
        let n = aig.num_pis();
        for x in 0..(1u64 << n) {
            let y = aig.eval(x);
            for (j, &b) in bdds.iter().enumerate() {
                assert_eq!(mgr.eval(b, x), (y >> j) & 1 == 1, "{d} x={x} out={j}");
            }
        }
    }
}

/// Collapse reduces the simulated truth tables of an AIG of at most 16
/// inputs; node-by-node `and`/`not` apply in the same manager must land
/// on the very same output handles, since ROBDDs are canonical.
#[test]
fn truth_table_collapse_equals_node_by_node_apply() {
    let designs = (4..=8).flat_map(|n| [Design::intdiv(n), Design::newton(n)]);
    for d in designs {
        let aig = optimize_aig(&d.to_aig().unwrap(), &OptimizeOptions::default());
        let (mut mgr, bdds) = collapse_to_bdds(&aig, 2_000_000).unwrap();
        let mut map = vec![Bdd::FALSE; aig.num_nodes()];
        for i in 0..aig.num_pis() {
            map[i + 1] = mgr.var(i);
        }
        let read = |mgr: &mut BddManager, map: &[Bdd], l: Lit| {
            if l.is_complement() {
                mgr.not(map[l.node()])
            } else {
                map[l.node()]
            }
        };
        for n in (aig.num_pis() + 1)..aig.num_nodes() {
            let [a, b] = aig.fanins(n);
            let (fa, fb) = (read(&mut mgr, &map, a), read(&mut mgr, &map, b));
            map[n] = mgr.and(fa, fb);
        }
        let reference: Vec<Bdd> = aig
            .pos()
            .iter()
            .map(|&po| read(&mut mgr, &map, po))
            .collect();
        assert_eq!(bdds, reference, "{d}");
    }
}

/// The flows answer an exhaustive verification sweep from the optimized
/// AIG's simulated truth tables; on the widths the DSE matrix runs they
/// must agree with the per-state walk on every input.
#[test]
fn optimized_aig_truth_tables_match_eval() {
    let designs = (4..=10).flat_map(|n| [Design::intdiv(n), Design::newton(n)]);
    for d in designs {
        let aig = optimize_aig(&d.to_aig().unwrap(), &OptimizeOptions::default());
        let tables = aig.to_truth_tables();
        for x in 0..(1u64 << aig.num_pis()) {
            assert_eq!(tables.eval(x), aig.eval(x), "{d} x={x}");
        }
    }
}

#[test]
fn esop_extraction_and_minimization_agree_with_aig() {
    for d in designs() {
        let aig = d.to_aig().unwrap();
        let (mut mgr, bdds) = collapse_to_bdds(&aig, 1_000_000).unwrap();
        let mut esop = extract_multi_esop(&mut mgr, &bdds);
        let before = esop.len();
        minimize_esop(&mut esop, &ExorcismOptions::default());
        assert!(esop.len() <= before, "{d}: exorcism grew the ESOP");
        let n = aig.num_pis();
        for x in 0..(1u64 << n) {
            assert_eq!(esop.eval(x), aig.eval(x), "{d} x={x}");
        }
    }
}

#[test]
fn xmg_mapping_agrees_with_aig() {
    for d in designs() {
        let aig = d.to_aig().unwrap();
        let opt = optimize_aig(&aig, &OptimizeOptions::default());
        let xmg = map_to_xmg(&opt);
        let n = aig.num_pis();
        for x in 0..(1u64 << n) {
            assert_eq!(xmg.eval(x), aig.eval(x), "{d} x={x}");
        }
        // XMGs of arithmetic should contain XOR gates — that's their point.
        assert!(xmg.num_xors() > 0, "{d}: no XOR extracted");
    }
}

/// Every flow configuration, once with the post-synthesis optimizer on
/// (the default) and once off.
fn flow_pairs() -> Vec<(Box<dyn Flow>, Box<dyn Flow>)> {
    vec![
        (
            Box::new(FunctionalFlow::default()),
            Box::new(FunctionalFlow {
                post_opt: false,
                ..Default::default()
            }),
        ),
        (
            Box::new(EsopFlow::with_factoring(0)),
            Box::new(EsopFlow {
                post_opt: false,
                ..EsopFlow::with_factoring(0)
            }),
        ),
        (
            Box::new(EsopFlow::with_factoring(1)),
            Box::new(EsopFlow {
                post_opt: false,
                ..EsopFlow::with_factoring(1)
            }),
        ),
        (
            Box::new(HierarchicalFlow::default()),
            Box::new(HierarchicalFlow {
                post_opt: false,
                ..Default::default()
            }),
        ),
        (
            Box::new(HierarchicalFlow::with_strategy(CleanupStrategy::PerOutput)),
            Box::new(HierarchicalFlow {
                post_opt: false,
                ..HierarchicalFlow::with_strategy(CleanupStrategy::PerOutput)
            }),
        ),
        (
            Box::new(HierarchicalFlow::with_strategy(
                CleanupStrategy::KeepGarbage,
            )),
            Box::new(HierarchicalFlow {
                post_opt: false,
                ..HierarchicalFlow::with_strategy(CleanupStrategy::KeepGarbage)
            }),
        ),
    ]
}

/// Replays a flow outcome on every input and checks its output register
/// against the design's truth table.
fn check_outcome_against_table(outcome: &FlowOutcome, table: &[u64]) {
    for (x, &y) in table.iter().enumerate() {
        let mut s = BitState::zeros(outcome.circuit.num_lines());
        s.write_register(&outcome.input_lines, x as u64);
        outcome.circuit.apply(&mut s);
        assert_eq!(
            s.read_register(&outcome.output_lines),
            y,
            "{} x={x}",
            outcome.flow_name
        );
    }
}

/// The reference ASAP depth: one schedule per duration notion, each
/// decoding every gate's controls on its own.
fn reference_asap(arena: &GateArena, duration: impl Fn(&PackedGate<'_>) -> usize) -> usize {
    let mut read_end = vec![0usize; arena.num_lines()];
    let mut write_end = vec![0usize; arena.num_lines()];
    let mut depth = 0;
    for (_, gate) in arena {
        let t = gate.target();
        let mut start = read_end[t].max(write_end[t]);
        for c in gate.controls() {
            start = start.max(write_end[c.line()]);
        }
        let end = start + duration(&gate);
        for c in gate.controls() {
            let r = &mut read_end[c.line()];
            *r = (*r).max(end);
        }
        write_end[t] = end;
        depth = depth.max(end);
    }
    depth
}

/// The analyzer's one-pass depth metrics equal the two reference schedules.
fn check_depth_against_reference(outcome: &FlowOutcome) {
    let arena = outcome.circuit.packed();
    assert_eq!(
        depth::measure(arena),
        DepthMetrics {
            logical_depth: reference_asap(arena, |_| 1),
            t_depth: reference_asap(arena, |g| usize::from(g.num_controls() >= 2)),
        },
        "{}",
        outcome.flow_name
    );
}

#[test]
fn every_flow_verifies_with_post_opt_on_and_off_against_the_same_truth_table() {
    for d in [Design::intdiv(5), Design::newton(4)] {
        let aig = d.to_aig().unwrap();
        let table: Vec<u64> = (0..(1u64 << aig.num_pis())).map(|x| aig.eval(x)).collect();
        for (with_opt, without_opt) in flow_pairs() {
            let on = with_opt.run(&d).unwrap();
            let off = without_opt.run(&d).unwrap();
            assert!(on.opt_stats.is_some() && off.opt_stats.is_none());
            // Both circuits realize the same truth table…
            check_outcome_against_table(&on, &table);
            check_outcome_against_table(&off, &table);
            check_depth_against_reference(&on);
            check_depth_against_reference(&off);
            // …and the optimized one never costs more.
            let name = &on.flow_name;
            assert!(
                on.cost.t_count <= off.cost.t_count,
                "{d} {name}: T {} -> {}",
                off.cost.t_count,
                on.cost.t_count
            );
            assert!(
                on.cost.gates <= off.cost.gates,
                "{d} {name}: gates {} -> {}",
                off.cost.gates,
                on.cost.gates
            );
            assert_eq!(on.cost.qubits, off.cost.qubits, "{d} {name}");
        }
    }
}

#[test]
fn post_opt_strictly_reduces_bennett_hierarchical_gates() {
    // The acceptance bar of the optimizer PR: on the Bennett hierarchical
    // flow — compute–copy–uncompute leaves mirror pairs and X sandwiches —
    // the peephole pass must strictly reduce the gate count.
    for d in [Design::intdiv(5), Design::intdiv(6), Design::newton(5)] {
        let on = HierarchicalFlow::default().run(&d).unwrap();
        let off = HierarchicalFlow {
            post_opt: false,
            ..Default::default()
        }
        .run(&d)
        .unwrap();
        assert!(
            on.cost.gates < off.cost.gates,
            "{d}: {} -> {} gates",
            off.cost.gates,
            on.cost.gates
        );
        assert!(on.opt_stats.unwrap().total_rewrites() > 0);
    }
}

#[test]
fn reciprocal_needs_2n_minus_1_lines() {
    // The embedding result behind Table II: the reciprocal's largest
    // collision class forces exactly n − 1 additional lines.
    for n in [4usize, 5, 6, 7, 8] {
        let tts = Design::intdiv(n).to_aig().unwrap().to_truth_tables();
        assert_eq!(minimum_additional_lines(&tts), n - 1, "n={n}");
        let e = optimum_embedding(&tts);
        assert_eq!(e.num_lines(), 2 * n - 1, "n={n}");
        assert!(e.validate(&tts), "n={n}");
    }
}

#[test]
fn intdiv_and_newton_approximate_the_same_function() {
    // §V: "that the numbers are equivalent for INTDIV and NEWTON is not
    // necessarily expected, as NEWTON approximates 1/x". Check the designs
    // agree within rounding on most inputs.
    for n in [6usize, 8] {
        let a = Design::intdiv(n).to_aig().unwrap();
        let b = Design::newton(n).to_aig().unwrap();
        let mut close = 0u64;
        for x in 2..(1u64 << n) {
            let ya = a.eval(x) as i64;
            let yb = b.eval(x) as i64;
            if (ya - yb).abs() <= 2 {
                close += 1;
            }
        }
        let total = (1u64 << n) - 2;
        assert!(
            close * 100 >= total * 95,
            "n={n}: only {close}/{total} within 2 ulp"
        );
    }
}

#[test]
fn newton_embedding_may_differ_from_intdiv() {
    // Also from §V: the approximation "may have an effect on the maximum
    // occurrence of an output assignment" — compute both and require them
    // to be close (equal for these sizes).
    for n in [5usize, 6] {
        let a = Design::intdiv(n).to_aig().unwrap().to_truth_tables();
        let b = Design::newton(n).to_aig().unwrap().to_truth_tables();
        let ga = minimum_additional_lines(&a);
        let gb = minimum_additional_lines(&b);
        assert!(
            (ga as i64 - gb as i64).abs() <= 1,
            "n={n}: embedding lines {ga} vs {gb}"
        );
    }
}
