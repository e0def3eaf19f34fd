//! Design space exploration across flows (the paper's headline
//! capability: "the designer can optimize the synthesis output with
//! respect to several objectives such as space (number of qubits), time
//! (number of quantum operations), or runtime of the design flow").

use crate::design::Design;
use crate::flow::{
    Flow, FlowBudget, FlowError, FlowOutcome, FrontendCache, PostPasses, Synthesized,
};
use qda_analyze::CircuitInterface;
use qda_logic::par;
use qda_rev::circuit::Circuit;
use qda_rev::cost::CircuitCost;
use qda_rev::opt::OptStats;
use qda_rev::resynth::ResynthStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Optimization objective for picking a winner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Minimize qubits (space).
    Qubits,
    /// Minimize T-count (time on the quantum computer).
    TCount,
    /// Minimize flow runtime (design productivity).
    Runtime,
}

/// The machine-wide parallel budget: the thread count of the shared
/// [`qda_logic::par`] worker pool (`QDA_WORKERS`, or one thread per
/// available CPU). This is what
/// [`DesignSpaceExplorer::explore_matrix`] with `workers = 0` runs at.
pub fn default_workers() -> usize {
    par::worker_count()
}

/// Runs a set of flows on a design and ranks the outcomes.
///
/// # Example
///
/// ```
/// use qda_core::design::Design;
/// use qda_core::dse::{DesignSpaceExplorer, Objective};
/// use qda_core::flow::{EsopFlow, FunctionalFlow};
///
/// let mut dse = DesignSpaceExplorer::new();
/// dse.add_flow(Box::new(FunctionalFlow::default()));
/// dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
/// dse.explore_matrix(&[Design::intdiv(4)], 1);
/// let best = dse.best(Objective::Qubits).expect("at least one success");
/// assert_eq!(best.cost.qubits, 7); // TBS wins on qubits
/// ```
#[derive(Default)]
pub struct DesignSpaceExplorer {
    flows: Vec<Box<dyn Flow>>,
    outcomes: Vec<FlowOutcome>,
    failures: Vec<(String, FlowError)>,
}

impl DesignSpaceExplorer {
    /// An explorer with no flows registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a flow.
    pub fn add_flow(&mut self, flow: Box<dyn Flow>) {
        self.flows.push(flow);
    }

    /// Runs the full flow × design matrix, sharding jobs through the
    /// persistent [`qda_logic::par`] worker pool with at most `workers`
    /// threads participating (`0` means the pool's full `QDA_WORKERS`
    /// budget — no thread is ever spawned per call). Returns the number
    /// of successful outcomes added.
    ///
    /// Front ends are shared through a [`FrontendCache`], so each design
    /// is parsed and optimized once no matter how many flows consume it.
    /// Results are recorded in deterministic (design-major, then flow
    /// registration) order — a parallel run reports exactly what a serial
    /// run does, only sooner.
    pub fn explore_matrix(&mut self, designs: &[Design], workers: usize) -> usize {
        let cap = match workers {
            0 => usize::MAX,
            w => w,
        };
        let cache = FrontendCache::new();
        let flows = &self.flows;
        let num_jobs = designs.len() * flows.len();
        let results = par::with_worker_cap(cap, || {
            par::run_indexed(num_jobs, |job| {
                let design = &designs[job / flows.len()];
                let flow = &flows[job % flows.len()];
                // Precheck before the cache lookup: an infeasible (design,
                // flow) pair must not force a front-end computation.
                flow.precheck(design)
                    .and_then(|()| cache.get_or_compute(design, &flow.frontend_options()))
                    .and_then(|frontend| {
                        flow.run_with_frontend(design, &frontend, &FlowBudget::unlimited())
                    })
                    .map_err(|e| (flow.name(), e))
            })
        });
        let mut added = 0;
        for result in results {
            match result {
                Ok(outcome) => {
                    self.outcomes.push(outcome);
                    added += 1;
                }
                Err(failure) => self.failures.push(failure),
            }
        }
        added
    }

    /// All successful outcomes so far.
    pub fn outcomes(&self) -> &[FlowOutcome] {
        &self.outcomes
    }

    /// Flows that failed, with reasons.
    pub fn failures(&self) -> &[(String, FlowError)] {
        &self.failures
    }

    /// The best outcome under an objective.
    pub fn best(&self, objective: Objective) -> Option<&FlowOutcome> {
        self.outcomes.iter().min_by_key(|o| match objective {
            Objective::Qubits => (o.cost.qubits as u64, o.cost.t_count),
            Objective::TCount => (o.cost.t_count, o.cost.qubits as u64),
            Objective::Runtime => (o.runtime.as_micros() as u64, o.cost.t_count),
        })
    }

    /// The Pareto-optimal outcomes in the (qubits, T-count) plane —
    /// exactly the trade-off surface the paper's Tables II–IV trace out.
    pub fn pareto_front(&self) -> Vec<&FlowOutcome> {
        let mut front: Vec<&FlowOutcome> = Vec::new();
        for o in &self.outcomes {
            let dominated = self.outcomes.iter().any(|p| {
                (p.cost.qubits < o.cost.qubits && p.cost.t_count <= o.cost.t_count)
                    || (p.cost.qubits <= o.cost.qubits && p.cost.t_count < o.cost.t_count)
            });
            if !dominated {
                front.push(o);
            }
        }
        front.sort_by_key(|o| o.cost.qubits);
        front
    }

    /// Runs the {flow × post_opt × post_resynth} configuration portfolio
    /// on every design, racing the configurations against each other.
    ///
    /// Two phases, both sharded through the persistent
    /// [`qda_logic::par`] worker pool with at most `workers` threads
    /// participating (`0` means the pool's full `QDA_WORKERS` budget):
    ///
    /// 1. **Raw synthesis** — every flow that offers a
    ///    [`Flow::raw_variant`] runs once per design with both
    ///    post-synthesis passes off. As results land, each design's best
    ///    raw T-count races through an [`AtomicU64`] (`fetch_min`).
    /// 2. **Refinement** — the post-pass combinations (`+opt`,
    ///    `+resynth`, `+opt+resynth`) are applied to each raw circuit.
    ///    A configuration whose raw T-count exceeds
    ///    [`PORTFOLIO_CUTOFF_FACTOR`] × the design's best raw T-count is
    ///    **cut off**: its refinement work is skipped and its raw cost
    ///    reported, because no peephole/resynthesis pass recovers a
    ///    multiple-of-the-leader gap.
    ///
    /// The phase barrier is what keeps the race deterministic: cutoff
    /// decisions read the *settled* phase-1 minimum, never a moving
    /// value, so the returned portfolio — order, costs, circuits,
    /// cut-off flags — is identical for every worker count (only
    /// [`PortfolioOutcome::runtime`] varies, and the deterministic
    /// report excludes it).
    pub fn explore_portfolio(&self, designs: &[Design], workers: usize) -> Portfolio {
        let cap = match workers {
            0 => usize::MAX,
            w => w,
        };
        let cache = FrontendCache::new();
        let raws: Vec<Box<dyn Flow>> = self.flows.iter().filter_map(|f| f.raw_variant()).collect();
        let num_raw = designs.len() * raws.len();

        // Phase 1: raw synthesis, racing the per-design best T-count.
        let best_raw_t: Vec<AtomicU64> = designs.iter().map(|_| AtomicU64::new(u64::MAX)).collect();
        let raw_results = par::with_worker_cap(cap, || {
            par::run_indexed(num_raw, |job| {
                let design_idx = job / raws.len();
                let design = &designs[design_idx];
                let raw = &raws[job % raws.len()];
                let result = raw
                    .precheck(design)
                    .and_then(|()| cache.get_or_compute(design, &raw.frontend_options()))
                    .and_then(|frontend| {
                        raw.run_with_frontend(design, &frontend, &FlowBudget::unlimited())
                    })
                    .map_err(|e| (raw.name(), e));
                if let Ok(outcome) = &result {
                    best_raw_t[design_idx].fetch_min(outcome.cost.t_count, Ordering::Relaxed);
                }
                result
            })
        });

        let mut failures: Vec<(String, FlowError)> = Vec::new();
        let raw_outcomes: Vec<Option<FlowOutcome>> = raw_results
            .into_iter()
            .map(|result| match result {
                Ok(outcome) => Some(outcome),
                Err(failure) => {
                    failures.push(failure);
                    None
                }
            })
            .collect();

        // Phase 2: refinement combos against the settled phase-1 minima.
        const COMBOS: [(bool, bool); 3] = [(true, false), (false, true), (true, true)];
        let num_refine = num_raw * COMBOS.len();
        type RefineResult = Result<PortfolioOutcome, (String, FlowError)>;
        let refine_results: Vec<Option<RefineResult>> = par::with_worker_cap(cap, || {
            par::run_indexed(num_refine, |job| {
                let raw_idx = job / COMBOS.len();
                let (post_opt, post_resynth) = COMBOS[job % COMBOS.len()];
                // A failed raw synthesis is already recorded; its
                // refinement slots stay empty.
                let raw = raw_outcomes[raw_idx].as_ref()?;
                let bound = best_raw_t[raw_idx / raws.len()].load(Ordering::Relaxed);
                let cut_off = raw.cost.t_count > PORTFOLIO_CUTOFF_FACTOR.saturating_mul(bound);
                Some(if cut_off {
                    Ok(portfolio_row(raw, post_opt, post_resynth, true))
                } else {
                    refine(raw, post_opt, post_resynth)
                })
            })
        });

        // Drain deterministically: per (design, flow), the raw row first,
        // then its three refinements in combo order.
        let mut outcomes = Vec::with_capacity(num_raw * (1 + COMBOS.len()));
        let mut refined = refine_results.into_iter();
        for raw in &raw_outcomes {
            let rows: Vec<Option<RefineResult>> = (&mut refined).take(COMBOS.len()).collect();
            let Some(raw) = raw else { continue };
            outcomes.push(portfolio_row(raw, false, false, false));
            for row in rows {
                match row.expect("refinement ran for a successful raw job") {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(failure) => failures.push(failure),
                }
            }
        }
        Portfolio { outcomes, failures }
    }
}

/// A portfolio row wrapping a raw outcome unchanged (the raw
/// configuration itself, or a cut-off refinement).
fn portfolio_row(
    raw: &FlowOutcome,
    post_opt: bool,
    post_resynth: bool,
    cut_off: bool,
) -> PortfolioOutcome {
    PortfolioOutcome {
        design: raw.design,
        flow_name: raw.flow_name.clone(),
        post_opt,
        post_resynth,
        cut_off,
        raw_cost: raw.cost,
        cost: raw.cost,
        circuit: raw.circuit.clone(),
        opt_stats: None,
        resynth_stats: None,
        runtime: Duration::ZERO,
    }
}

/// Applies the requested post-synthesis passes to a raw outcome through
/// the flows' own post-synthesis step ([`Synthesized::post_process`]):
/// both passes carry their own equivalence gates, and the refined circuit
/// is statically linted, so every portfolio row is machine-checked
/// against the raw one.
fn refine(
    raw: &FlowOutcome,
    post_opt: bool,
    post_resynth: bool,
) -> Result<PortfolioOutcome, (String, FlowError)> {
    let start = Instant::now();
    // Non-input lines start at |0⟩ (which unlocks the constant-propagation
    // rules and restricts the equivalence check to the states the flow is
    // verified on). `require_clean` is false because the flow's
    // cleanliness promise is not recorded on the raw outcome — an
    // under-approximation, never a false denial.
    let interface = CircuitInterface::hierarchical(
        raw.circuit.num_lines(),
        raw.input_lines.clone(),
        raw.output_lines.clone(),
        false,
    );
    let passes = PostPasses {
        opt: post_opt,
        resynth: post_resynth,
        analyze: true,
    };
    let name = || configuration_name(&raw.flow_name, post_opt, post_resynth);
    let synthesized = Synthesized {
        circuit: raw.circuit.clone(),
        interface,
    };
    let post = synthesized
        .post_process(passes, &FlowBudget::unlimited())
        .map_err(|e| (name(), e))?;
    Ok(PortfolioOutcome {
        design: raw.design,
        flow_name: raw.flow_name.clone(),
        post_opt,
        post_resynth,
        cut_off: false,
        raw_cost: raw.cost,
        cost: post.cost,
        circuit: post.circuit,
        opt_stats: post.opt_stats,
        resynth_stats: post.resynth_stats,
        runtime: start.elapsed(),
    })
}

/// `"<flow> [+opt+resynth]"`-style label of one portfolio configuration.
pub fn configuration_name(flow_name: &str, post_opt: bool, post_resynth: bool) -> String {
    let combo = match (post_opt, post_resynth) {
        (false, false) => "raw",
        (true, false) => "+opt",
        (false, true) => "+resynth",
        (true, true) => "+opt+resynth",
    };
    format!("{flow_name} [{combo}]")
}

/// A refinement configuration is cut off when its raw T-count exceeds
/// this factor times the design's best raw T-count: post-synthesis
/// passes only ever shave constant fractions, never a multiple-of-the-
/// leader gap.
pub const PORTFOLIO_CUTOFF_FACTOR: u64 = 4;

/// One {flow × post_opt × post_resynth} configuration's result on one
/// design.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The design that was synthesized.
    pub design: Design,
    /// Base flow name (without the configuration suffix; see
    /// [`configuration_name`]).
    pub flow_name: String,
    /// Whether the peephole optimizer ran in this configuration.
    pub post_opt: bool,
    /// Whether the windowed resynthesis pass ran in this configuration.
    pub post_resynth: bool,
    /// Whether the configuration lost the race and skipped its
    /// refinement work (its `cost` then equals `raw_cost`).
    pub cut_off: bool,
    /// Cost of the raw synthesis output this configuration started from.
    pub raw_cost: CircuitCost,
    /// Cost after this configuration's refinement passes.
    pub cost: CircuitCost,
    /// The configuration's final circuit.
    pub circuit: Circuit,
    /// Peephole optimizer statistics (when `post_opt` ran).
    pub opt_stats: Option<OptStats>,
    /// Resynthesis statistics (when `post_resynth` ran).
    pub resynth_stats: Option<ResynthStats>,
    /// Wall-clock refinement time (zero for raw/cut-off rows; excluded
    /// from deterministic reports).
    pub runtime: Duration,
}

/// Everything [`DesignSpaceExplorer::explore_portfolio`] produced.
#[derive(Debug, Default)]
pub struct Portfolio {
    /// Per-configuration outcomes, in deterministic (design-major, then
    /// flow registration, then raw/`+opt`/`+resynth`/`+opt+resynth`)
    /// order.
    pub outcomes: Vec<PortfolioOutcome>,
    /// Configurations that failed, with reasons, in the same order.
    pub failures: Vec<(String, FlowError)>,
}

impl Portfolio {
    /// The cheapest configuration for `design` under the
    /// (T-count, gates, qubits) lexicographic order.
    pub fn best_for(&self, design: &Design) -> Option<&PortfolioOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.design == *design)
            .min_by_key(|o| (o.cost.t_count, o.cost.gates, o.cost.qubits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{EsopFlow, FunctionalFlow, HierarchicalFlow};

    fn explored(n: usize) -> DesignSpaceExplorer {
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(FunctionalFlow::default()));
        dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
        dse.add_flow(Box::new(HierarchicalFlow::default()));
        dse.explore_matrix(&[Design::intdiv(n)], 1);
        dse
    }

    #[test]
    fn explores_all_flows() {
        let dse = explored(4);
        assert_eq!(dse.outcomes().len(), 3);
        assert!(dse.failures().is_empty());
    }

    #[test]
    fn objectives_pick_different_winners() {
        let dse = explored(5);
        let by_qubits = dse.best(Objective::Qubits).unwrap();
        let by_t = dse.best(Objective::TCount).unwrap();
        // TBS wins qubits; hierarchical wins T-count (the paper's central
        // trade-off).
        assert!(by_qubits.flow_name.contains("functional"));
        assert!(by_qubits.cost.qubits <= by_t.cost.qubits);
        assert!(by_t.cost.t_count <= by_qubits.cost.t_count);
    }

    #[test]
    fn pareto_front_is_monotone() {
        let dse = explored(5);
        let front = dse.pareto_front();
        assert!(!front.is_empty());
        for pair in front.windows(2) {
            assert!(pair[0].cost.qubits <= pair[1].cost.qubits);
            assert!(pair[0].cost.t_count >= pair[1].cost.t_count);
        }
    }

    #[test]
    fn failures_are_recorded_not_fatal() {
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(FunctionalFlow::default()));
        let added = dse.explore_matrix(&[Design::intdiv(16)], 1); // too large for TBS
        assert_eq!(added, 0);
        assert_eq!(dse.failures().len(), 1);
    }

    #[test]
    fn matrix_order_is_design_major_then_flow() {
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
        dse.add_flow(Box::new(HierarchicalFlow::default()));
        let designs = [Design::intdiv(4), Design::newton(4)];
        assert_eq!(dse.explore_matrix(&designs, 2), 4);
        let got: Vec<(String, String)> = dse
            .outcomes()
            .iter()
            .map(|o| (o.design.name(), o.flow_name.clone()))
            .collect();
        assert_eq!(got[0].0, "INTDIV(4)");
        assert_eq!(got[1].0, "INTDIV(4)");
        assert_eq!(got[2].0, "NEWTON(4)");
        assert_eq!(got[3].0, "NEWTON(4)");
        assert!(got[0].1.contains("ESOP") && got[1].1.contains("hierarchical"));
        assert!(got[2].1.contains("ESOP") && got[3].1.contains("hierarchical"));
    }

    #[test]
    fn matrix_records_failures_in_order_too() {
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(FunctionalFlow::default())); // fails at n = 16
        dse.add_flow(Box::new(HierarchicalFlow::default()));
        let added = dse.explore_matrix(&[Design::intdiv(16)], 2);
        assert_eq!(added, 1);
        assert_eq!(dse.failures().len(), 1);
        assert!(dse.failures()[0].0.contains("functional"));
    }

    #[test]
    fn portfolio_covers_the_configuration_grid() {
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
        dse.add_flow(Box::new(HierarchicalFlow::default()));
        let design = Design::intdiv(4);
        let p = dse.explore_portfolio(&[design], 1);
        // 2 flows × {raw, +opt, +resynth, +opt+resynth}.
        assert_eq!(p.outcomes.len(), 8);
        assert!(p.failures.is_empty());
        for o in &p.outcomes {
            assert!(o.cost.t_count <= o.raw_cost.t_count);
            assert!(o.cost.gates <= o.raw_cost.gates);
            assert_eq!(o.opt_stats.is_some(), o.post_opt && !o.cut_off);
            assert_eq!(o.resynth_stats.is_some(), o.post_resynth && !o.cut_off);
        }
        // The grid starts with the raw row of the first flow.
        assert!(!p.outcomes[0].post_opt && !p.outcomes[0].post_resynth);
        let best = p.best_for(&design).expect("some configuration won");
        assert!(best.cost.t_count <= p.outcomes[0].cost.t_count);
    }

    #[test]
    fn portfolio_cuts_off_hopeless_configurations() {
        let mut dse = DesignSpaceExplorer::new();
        // TBS raw T-count is a large multiple of hierarchical raw
        // T-count on INTDIV(4), so every functional refinement loses the
        // race; the raw rows themselves are always reported.
        dse.add_flow(Box::new(FunctionalFlow::default()));
        dse.add_flow(Box::new(HierarchicalFlow::default()));
        let p = dse.explore_portfolio(&[Design::intdiv(4)], 1);
        let functional: Vec<_> = p
            .outcomes
            .iter()
            .filter(|o| o.flow_name.contains("functional") && (o.post_opt || o.post_resynth))
            .collect();
        assert!(!functional.is_empty());
        assert!(
            functional.iter().all(|o| o.cut_off),
            "functional refinements must lose the race"
        );
        assert!(functional.iter().all(|o| o.cost == o.raw_cost));
        let hier: Vec<_> = p
            .outcomes
            .iter()
            .filter(|o| o.flow_name.contains("hierarchical"))
            .collect();
        assert!(hier.iter().all(|o| !o.cut_off), "the leader always runs");
    }

    #[test]
    fn refinement_reproduces_the_flows_own_post_synthesis() {
        let esop = EsopFlow::with_factoring(0);
        let hier = HierarchicalFlow::default();
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(esop.clone()));
        dse.add_flow(Box::new(hier.clone()));
        let p = dse.explore_portfolio(&[Design::intdiv(4), Design::newton(4)], 1);
        assert!(p.failures.is_empty());
        let mut refined = Vec::new();
        for row in p.outcomes.iter().filter(|o| !o.cut_off) {
            let (post_opt, post_resynth) = (row.post_opt, row.post_resynth);
            let flow: Box<dyn Flow> = if row.flow_name == esop.name() {
                Box::new(EsopFlow {
                    post_opt,
                    post_resynth,
                    ..esop.clone()
                })
            } else {
                Box::new(HierarchicalFlow {
                    post_opt,
                    post_resynth,
                    ..hier.clone()
                })
            };
            let outcome = flow.run(&row.design).unwrap();
            assert_eq!(
                outcome.circuit,
                row.circuit,
                "{} on {}",
                configuration_name(&row.flow_name, post_opt, post_resynth),
                row.design
            );
            if post_opt || post_resynth {
                refined.push(row.flow_name.clone());
            }
        }
        for flow in [esop.name(), hier.name()] {
            assert!(refined.contains(&flow), "no refinement of {flow} compared");
        }
    }

    #[test]
    fn portfolio_records_raw_failures() {
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(FunctionalFlow::default())); // too large at 16
        dse.add_flow(Box::new(HierarchicalFlow::default()));
        let p = dse.explore_portfolio(&[Design::intdiv(16)], 2);
        assert_eq!(p.failures.len(), 1);
        assert!(p.failures[0].0.contains("functional"));
        // Only the hierarchical grid remains.
        assert_eq!(p.outcomes.len(), 4);
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        assert!(default_workers() >= 1);
        let mut dse = DesignSpaceExplorer::new();
        dse.add_flow(Box::new(EsopFlow::with_factoring(0)));
        assert_eq!(dse.explore_matrix(&[Design::intdiv(4)], 0), 1);
    }
}
