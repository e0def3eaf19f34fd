//! Parallel design space exploration is an optimization, not a semantic
//! change: the flow × design matrix must report exactly the same outcomes
//! in exactly the same order no matter how many workers run it.

use qda_core::design::Design;
use qda_core::dse::DesignSpaceExplorer;
use qda_core::flow::{EsopFlow, FunctionalFlow, HierarchicalFlow};
use qda_core::report::deterministic_report;

fn fresh_explorer() -> DesignSpaceExplorer {
    let mut dse = DesignSpaceExplorer::new();
    dse.add_flow(Box::new(FunctionalFlow::default()));
    dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
    dse.add_flow(Box::new(HierarchicalFlow::default()));
    dse
}

#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let designs = [Design::intdiv(4), Design::intdiv(5), Design::newton(4)];
    let mut serial = fresh_explorer();
    let serial_added = serial.explore_matrix(&designs, 1);
    for workers in [2, 4] {
        let mut parallel = fresh_explorer();
        let parallel_added = parallel.explore_matrix(&designs, workers);
        assert_eq!(parallel_added, serial_added);
        assert_eq!(
            deterministic_report(parallel.outcomes()),
            deterministic_report(serial.outcomes()),
            "workers = {workers}"
        );
        // Beyond the report: the circuits themselves are identical.
        for (p, s) in parallel.outcomes().iter().zip(serial.outcomes()) {
            assert_eq!(p.circuit, s.circuit);
            assert_eq!(p.input_lines, s.input_lines);
            assert_eq!(p.output_lines, s.output_lines);
        }
    }
}

/// DSE jobs nest pool use: each flow's back half runs the equivalence
/// sweeps of the peephole optimizer and the verifier and — in the
/// portfolio — the resynthesis candidate race, all on the
/// same shared worker pool the DSE jobs themselves ride. This must drain
/// without deadlock and report identically at any cap, repeatedly, on a
/// warm pool.
#[test]
fn portfolio_nests_pool_use_without_deadlock_and_stays_deterministic() {
    let designs = [Design::intdiv(4), Design::newton(4)];
    let serial = fresh_explorer().explore_portfolio(&designs, 1);
    let key = |p: &qda_core::dse::Portfolio| {
        p.outcomes
            .iter()
            .map(|o| {
                (
                    o.design.name(),
                    o.flow_name.clone(),
                    o.post_opt,
                    o.post_resynth,
                    o.cut_off,
                    o.cost,
                    o.circuit.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    let serial_key = key(&serial);
    assert!(!serial_key.is_empty());
    for round in 0..2 {
        for workers in [2, 4, 0] {
            let parallel = fresh_explorer().explore_portfolio(&designs, workers);
            assert_eq!(
                key(&parallel),
                serial_key,
                "workers = {workers}, round = {round}"
            );
            assert_eq!(parallel.failures.len(), serial.failures.len());
        }
    }
}

#[test]
fn parallel_failures_match_serial_failures() {
    // INTDIV(16) is too large for explicit TBS; the other flows succeed.
    let designs = [Design::intdiv(16)];
    let mut serial = fresh_explorer();
    serial.explore_matrix(&designs, 1);
    let mut parallel = fresh_explorer();
    parallel.explore_matrix(&designs, 4);
    let names = |d: &DesignSpaceExplorer| {
        d.failures()
            .iter()
            .map(|(n, _)| n.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&serial), names(&parallel));
    assert_eq!(serial.outcomes().len(), parallel.outcomes().len());
}
