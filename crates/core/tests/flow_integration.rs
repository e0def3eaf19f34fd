//! Integration tests: every design flow end to end, across crates
//! (`qda-verilog` → `qda-classical` → `qda-revsynth` → `qda-rev`).

use std::collections::BTreeMap;

use qda_analyze::Report;
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use qda_rev::circuit::Circuit;
use qda_rev::equiv::{verify_computes, VerifyOptions, VerifyOutcome};
use qda_rev::opt::OptStats;
use qda_rev::resynth::ResynthStats;
use qda_rev::state::BitState;
use qda_revsynth::hierarchical::CleanupStrategy;

/// Replays a flow outcome against the golden reciprocal model on every
/// input (the flows verify against the AIG; this closes the loop against
/// the independent software model).
fn check_against_golden(outcome: &qda_core::flow::FlowOutcome, golden: impl Fn(u64) -> u64) {
    let n = outcome.design.bits();
    for x in 1..(1u64 << n) {
        let mut s = BitState::zeros(outcome.circuit.num_lines());
        s.write_register(&outcome.input_lines, x);
        outcome.circuit.apply(&mut s);
        assert_eq!(
            s.read_register(&outcome.output_lines),
            golden(x),
            "{} x={x}",
            outcome.flow_name
        );
    }
}

/// FNV-1a-64 digest of a circuit's `.real` text: pins the whole gate
/// sequence, line by line, where the cost rows pin only its totals.
fn real_digest(circuit: &Circuit) -> u64 {
    qda_rev::io::to_real(circuit)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The functional flow's circuits and peephole counters are pinned
/// exactly (`.real` digest, full [`OptStats`]).
#[test]
fn functional_flow_intdiv_matches_golden_model() {
    let rows = [
        (
            4,
            0x4dc5_f04b_4244_de22,
            OptStats {
                polarity_merges: 7,
                const_dead: 13,
                const_drops: 22,
                ..OptStats::default()
            },
        ),
        (
            5,
            0x31b0_c646_a946_e2a6,
            OptStats {
                polarity_merges: 23,
                const_dead: 12,
                const_drops: 27,
                ..OptStats::default()
            },
        ),
        (
            6,
            0x08a8_d72e_9f00_2767,
            OptStats {
                polarity_merges: 55,
                const_dead: 38,
                const_drops: 82,
                ..OptStats::default()
            },
        ),
    ];
    for (n, digest, opt) in rows {
        let outcome = FunctionalFlow::default().run(&Design::intdiv(n)).unwrap();
        assert_eq!(outcome.cost.qubits, 2 * n - 1, "optimum embedding");
        assert_eq!(real_digest(&outcome.circuit), digest, "INTDIV({n})");
        assert_eq!(outcome.opt_stats, Some(opt), "INTDIV({n})");
        check_against_golden(&outcome, |x| qda_arith::recip_intdiv(n, x));
    }
}

#[test]
fn functional_flow_newton_matches_golden_model() {
    for n in [4usize, 5] {
        let outcome = FunctionalFlow::default().run(&Design::newton(n)).unwrap();
        check_against_golden(&outcome, |x| qda_arith::recip_newton(n, x));
    }
}

#[test]
fn esop_flow_both_designs_and_factoring_levels() {
    for n in [5usize, 6] {
        for p in [0usize, 1, 2] {
            let flow = EsopFlow::with_factoring(p);
            let intdiv = flow.run(&Design::intdiv(n)).unwrap();
            if p == 0 {
                assert_eq!(intdiv.cost.qubits, 2 * n, "p=0 is exactly 2n lines");
            }
            check_against_golden(&intdiv, |x| qda_arith::recip_intdiv(n, x));
            let newton = flow.run(&Design::newton(n)).unwrap();
            check_against_golden(&newton, |x| qda_arith::recip_newton(n, x));
        }
    }
}

/// Per-code diagnostic counts of an analyzer report, in code order.
fn code_counts(report: &Report) -> Vec<(&'static str, usize)> {
    let mut counts = BTreeMap::new();
    for d in &report.diagnostics {
        *counts.entry(d.code.as_str()).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Table III's ESOP-flow costs, pinned exactly: `(qubits, T-count, gates)`,
/// the `.real` digest and the peephole counters ([`OptStats`]) at
/// factoring depth p = 0 and p = 1, each exhaustively verified and
/// free of analyzer diagnostics (the p = 1 factor ancillae included). A
/// change to collapse, PSDKRO extraction, EXORCISM or REVS that moves a
/// cost shows up here. INTDIV(10) and NEWTON(10) at p = 1 extract the
/// most factors of the sizes the repository benchmark runs (23 and 19
/// factor lines). NEWTON(11) is past the node budget of a node-by-node
/// BDD collapse; it only completes through the truth-table collapse.
#[test]
fn esop_flow_table3_costs_are_pinned() {
    let dead = |const_dead| OptStats {
        const_dead,
        ..OptStats::default()
    };
    let rows = [
        (
            Design::intdiv(5),
            0,
            (10, 283, 19),
            0x5554_53f1_7d17_03f4,
            dead(1),
        ),
        (
            Design::intdiv(5),
            1,
            (12, 232, 23),
            0x1daf_44bb_da44_2719,
            dead(1),
        ),
        (
            Design::newton(5),
            0,
            (10, 275, 20),
            0xcd7e_e860_202d_13a9,
            dead(0),
        ),
        (
            Design::newton(5),
            1,
            (12, 224, 24),
            0xc232_dc1e_fc68_aa44,
            dead(0),
        ),
        (
            Design::intdiv(6),
            0,
            (12, 494, 34),
            0x2d28_4c37_c1b4_0cd0,
            dead(1),
        ),
        (
            Design::intdiv(6),
            1,
            (16, 318, 42),
            0xf46b_6b43_a9ef_2c52,
            dead(1),
        ),
        (
            Design::newton(6),
            0,
            (12, 362, 22),
            0x3f95_8e85_bdce_ab31,
            dead(0),
        ),
        (
            Design::newton(6),
            1,
            (14, 239, 26),
            0x6bde_09dd_81ce_daa4,
            dead(0),
        ),
        (
            Design::intdiv(10),
            1,
            (43, 1_927, 194),
            0x2209_764f_1b2d_fc32,
            OptStats {
                cancellations: 1,
                subset_merges: 1,
                ..OptStats::default()
            },
        ),
        (
            Design::newton(10),
            1,
            (39, 1_779, 147),
            0x9ecf_da12_3e3b_8387,
            dead(0),
        ),
        (
            Design::newton(11),
            0,
            (22, 8_097, 214),
            0xe1d9_f6f3_22dc_09e6,
            OptStats {
                cancellations: 1,
                ..OptStats::default()
            },
        ),
    ];
    for (design, p, want, digest, opt) in rows {
        let outcome = EsopFlow::with_factoring(p).run(&design).unwrap();
        let cost = outcome.cost;
        assert_eq!(
            (cost.qubits, cost.t_count, cost.gates),
            want,
            "{design} p = {p}"
        );
        assert_eq!(real_digest(&outcome.circuit), digest, "{design} p = {p}");
        assert_eq!(outcome.opt_stats, Some(opt), "{design} p = {p}");
        assert_eq!(
            outcome.verification,
            VerifyOutcome::Verified,
            "{design} p = {p}"
        );
        let analysis = outcome.analysis.expect("the analyzer runs by default");
        assert_eq!(code_counts(&analysis), [], "{design} p = {p}");
    }
}

/// Table IV's hierarchical-flow rows at the sizes the repository
/// benchmark runs, pinned exactly: `(qubits, T-count, gates, accepted
/// resynthesis windows, verification)`, then the analyzer's per-code
/// diagnostic counts, logical depth and T-depth, then the `.real`
/// digest with the full [`OptStats`] and [`ResynthStats`]. A change to XMG
/// mapping, hierarchical synthesis, the peephole pass, the resynthesis
/// back-ends or the analyzer that moves a circuit or a finding shows up
/// here.
#[test]
fn hierarchical_flow_table4_costs_are_pinned() {
    let rows = [
        (
            Design::intdiv(16),
            (
                711,
                8_576,
                2_862,
                6,
                VerifyOutcome::ProbablyCorrect { samples: 1024 },
            ),
            (vec![("QDA-A011", 2)], 872, 433),
            (
                0x50aa_d1db_7240_85b1,
                OptStats {
                    cancellations: 2,
                    subset_merges: 326,
                    not_absorptions: 4,
                    ..OptStats::default()
                },
                ResynthStats {
                    windows_attempted: 2_593,
                    windows_accepted: 6,
                    windows_rejected: 2_587,
                    memo_hits: 2_399,
                    clean_skips: 16_379,
                    candidates_unsound: 0,
                    gates_removed: 25,
                    gates_added: 3,
                    t_removed: 28,
                    t_added: 22,
                    passes: 7,
                },
            ),
        ),
        (
            Design::newton(8),
            (2_816, 29_253, 14_345, 31, VerifyOutcome::Verified),
            (vec![("QDA-A010", 1), ("QDA-A011", 2)], 883, 371),
            (
                0x0c17_7eee_dad3_ad52,
                OptStats {
                    subset_merges: 86,
                    not_absorptions: 7,
                    ..OptStats::default()
                },
                ResynthStats {
                    windows_attempted: 12_488,
                    windows_accepted: 31,
                    windows_rejected: 12_457,
                    memo_hits: 11_741,
                    clean_skips: 41_341,
                    candidates_unsound: 0,
                    gates_removed: 172,
                    gates_added: 141,
                    t_removed: 140,
                    t_added: 119,
                    passes: 4,
                },
            ),
        ),
    ];
    for (design, want, want_analysis, want_circuit) in rows {
        let outcome = HierarchicalFlow::default().run(&design).unwrap();
        let resynth = outcome.resynth_stats.expect("resynthesis is on by default");
        assert_eq!(
            (
                outcome.cost.qubits,
                outcome.cost.t_count,
                outcome.cost.gates,
                resynth.windows_accepted,
                outcome.verification,
            ),
            want,
            "{design}"
        );
        let analysis = outcome.analysis.expect("the analyzer runs by default");
        let depth = analysis.metrics.depth;
        assert_eq!(
            (code_counts(&analysis), depth.logical_depth, depth.t_depth),
            want_analysis,
            "{design}"
        );
        assert_eq!(
            (real_digest(&outcome.circuit), outcome.opt_stats, resynth),
            (want_circuit.0, Some(want_circuit.1), want_circuit.2),
            "{design}"
        );
    }
}

/// The analyzer and the verifier agree on hierarchical outputs: the
/// lifecycle sweep proves every ancilla the structural pairing leaves
/// open clean (no `QDA-A004` note), and exhaustive verification with the
/// ancilla check on confirms it.
#[test]
fn hierarchical_ancillae_are_proven_clean_by_analysis_and_verification() {
    let options = VerifyOptions {
        check_ancilla_clean: true,
        ..VerifyOptions::default()
    };
    for strategy in [CleanupStrategy::Bennett, CleanupStrategy::PerOutput] {
        for n in 4..=8 {
            for design in [Design::intdiv(n), Design::newton(n)] {
                let outcome = HierarchicalFlow::with_strategy(strategy)
                    .run(&design)
                    .unwrap();
                let counts = code_counts(&outcome.analysis.expect("the analyzer runs by default"));
                assert!(
                    !counts.iter().any(|&(code, _)| code == "QDA-A004"),
                    "{design} {strategy:?}: {counts:?}"
                );
                let aig = design.to_aig().unwrap();
                let verdict = verify_computes(
                    &outcome.circuit,
                    &outcome.input_lines,
                    &outcome.output_lines,
                    |x| aig.eval(x),
                    &options,
                );
                assert_eq!(verdict, VerifyOutcome::Verified, "{design} {strategy:?}");
            }
        }
    }
}

#[test]
fn hierarchical_flow_all_strategies() {
    for strategy in [
        CleanupStrategy::Bennett,
        CleanupStrategy::PerOutput,
        CleanupStrategy::KeepGarbage,
    ] {
        let flow = HierarchicalFlow::with_strategy(strategy);
        let outcome = flow.run(&Design::intdiv(5)).unwrap();
        check_against_golden(&outcome, |x| qda_arith::recip_intdiv(5, x));
    }
}

#[test]
fn flows_disagree_on_costs_but_agree_on_function() {
    let design = Design::intdiv(6);
    let functional = FunctionalFlow::default().run(&design).unwrap();
    let esop = EsopFlow::with_factoring(0).run(&design).unwrap();
    let hier = HierarchicalFlow::default().run(&design).unwrap();
    // The paper's central trade-off, as hard assertions:
    // qubits: functional < esop < hierarchical.
    assert!(functional.cost.qubits < esop.cost.qubits);
    assert!(esop.cost.qubits < hier.cost.qubits);
    // T-count: hierarchical < esop < functional.
    assert!(hier.cost.t_count < functional.cost.t_count);
    assert!(esop.cost.t_count < functional.cost.t_count);
    // All three compute the same function.
    for x in 0..64u64 {
        for o in [&functional, &esop, &hier] {
            let mut s = BitState::zeros(o.circuit.num_lines());
            s.write_register(&o.input_lines, x);
            o.circuit.apply(&mut s);
            assert_eq!(
                s.read_register(&o.output_lines),
                qda_arith::recip_intdiv(6, x.min(63)),
                "{} x={x}",
                o.flow_name
            );
        }
    }
}

#[test]
fn verification_outcomes_are_reported() {
    let outcome = EsopFlow::with_factoring(0).run(&Design::intdiv(4)).unwrap();
    assert_eq!(outcome.verification, VerifyOutcome::Verified);
    assert!(outcome.runtime.as_nanos() > 0);
    assert_eq!(outcome.flow_name, "ESOP (REVS, p = 0)");
}

#[test]
fn larger_hierarchical_instance_verifies_by_sampling() {
    // n = 16 exceeds the exhaustive limit; the flow falls back to
    // randomized verification, mirroring the paper's `cec` on large
    // designs.
    let outcome = HierarchicalFlow::default()
        .run(&Design::intdiv(16))
        .unwrap();
    assert!(matches!(
        outcome.verification,
        VerifyOutcome::ProbablyCorrect { .. }
    ));
    // Spot-check a few inputs against the golden model.
    for x in [1u64, 2, 3, 1000, 65535] {
        let mut s = BitState::zeros(outcome.circuit.num_lines());
        s.write_register(&outcome.input_lines, x);
        outcome.circuit.apply(&mut s);
        assert_eq!(
            s.read_register(&outcome.output_lines),
            qda_arith::recip_intdiv(16, x)
        );
    }
}
