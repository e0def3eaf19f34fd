//! The batch workloads: `hier-recip` (the hierarchical flow on the
//! paper's Table IV designs, run serially through `Flow::run`) and
//! `dse-esop-tbs` (`DesignSpaceExplorer::explore_matrix` over the
//! functional and ESOP flows).
//!
//! An untraced pass calls the system exactly as a user does. A traced pass
//! re-drives every job stage by stage through the public calls
//! `qda_core::flow::finish` makes, in its order, with one span per call;
//! its circuits must equal the untraced ones (the fidelity guard), so the
//! per-layer numbers describe the same program.

use crate::golden::{check_circuit, Rng};
use crate::trace::{Span, Tracer};
use qda_analyze::{CircuitInterface, Code, Severity};
use qda_classical::collapse::collapse_to_bdds;
use qda_classical::esop_extract::extract_multi_esop;
use qda_classical::exorcism::minimize_esop;
use qda_classical::xmg_map::map_to_xmg;
use qda_core::design::Design;
use qda_core::dse::DesignSpaceExplorer;
use qda_core::flow::{
    EsopFlow, Flow, FlowOutcome, FrontendArtifacts, FrontendCache, FunctionalFlow, HierarchicalFlow,
};
use qda_logic::par;
use qda_rev::circuit::Circuit;
use qda_rev::equiv::{verify_computes, VerifyOptions, VerifyOutcome};
use qda_rev::opt::{optimize_checked_assuming, OptOptions};
use qda_rev::resynth::ResynthOptions;
use qda_revsynth::embed::optimum_embedding;
use qda_revsynth::esop::synthesize_esop;
use qda_revsynth::hierarchical::{synthesize_xmg, CleanupStrategy};
use qda_revsynth::resynth::resynthesize_circuit_checked;
use qda_revsynth::tbs::transformation_based_synthesis;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// `HierarchicalFlow::default()` on INTDIV(16) and NEWTON(8), serially.
    HierRecip,
    /// {functional, ESOP p=0, ESOP p=1} × {INTDIV, NEWTON}(6…10) through
    /// `explore_matrix(&[design], 0)`, one design after the other.
    DseEsopTbs,
}

/// A flow with its concrete configuration (the traced re-drive needs it).
#[derive(Clone, Debug)]
pub enum FlowKind {
    /// Embedding + TBS.
    Functional(FunctionalFlow),
    /// REVS ESOP mode.
    Esop(EsopFlow),
    /// REVS hierarchical.
    Hierarchical(HierarchicalFlow),
}

impl FlowKind {
    fn flow(&self) -> &dyn Flow {
        match self {
            FlowKind::Functional(f) => f,
            FlowKind::Esop(f) => f,
            FlowKind::Hierarchical(f) => f,
        }
    }

    fn boxed(&self) -> Box<dyn Flow> {
        match self {
            FlowKind::Functional(f) => Box::new(f.clone()),
            FlowKind::Esop(f) => Box::new(f.clone()),
            FlowKind::Hierarchical(f) => Box::new(f.clone()),
        }
    }
}

/// Deterministic per-pass counts, taken at the same boundaries as the
/// spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// AND nodes of the optimized AIGs.
    pub aig_ands_out: u64,
    /// Front-end cache lookups served from the cache.
    pub frontend_hits: u64,
    /// Front ends computed.
    pub frontend_misses: u64,
    /// BDD nodes after collapse.
    pub bdd_nodes: u64,
    /// Cubes extracted (PSDKRO).
    pub cubes_in: u64,
    /// Cubes left after EXORCISM.
    pub cubes_out: u64,
    /// XMG gates after mapping.
    pub xmg_gates: u64,
    /// Gates of the raw hierarchical synthesis output.
    pub gates_raw: u64,
    /// T-count of the raw hierarchical synthesis output.
    pub t_raw: u64,
    /// Peephole rewrites accepted.
    pub opt_rewrites: u64,
    /// Gates the peephole pass removed.
    pub opt_gates_removed: u64,
    /// Resynthesis windows attempted.
    pub resynth_windows: u64,
    /// Resynthesis windows accepted.
    pub resynth_accepted: u64,
    /// Resynthesis fixpoint passes.
    pub resynth_passes: u64,
    /// Net T-count the resynthesis pass saved.
    pub resynth_t_saved: i64,
    /// Diagnostics the analyzer reported.
    pub diagnostics: u64,
    /// States the verifier simulated.
    pub verify_states: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Self) {
        self.aig_ands_out += o.aig_ands_out;
        self.frontend_hits += o.frontend_hits;
        self.frontend_misses += o.frontend_misses;
        self.bdd_nodes += o.bdd_nodes;
        self.cubes_in += o.cubes_in;
        self.cubes_out += o.cubes_out;
        self.xmg_gates += o.xmg_gates;
        self.gates_raw += o.gates_raw;
        self.t_raw += o.t_raw;
        self.opt_rewrites += o.opt_rewrites;
        self.opt_gates_removed += o.opt_gates_removed;
        self.resynth_windows += o.resynth_windows;
        self.resynth_accepted += o.resynth_accepted;
        self.resynth_passes += o.resynth_passes;
        self.resynth_t_saved += o.resynth_t_saved;
        self.diagnostics += o.diagnostics;
        self.verify_states += o.verify_states;
    }
}

/// One untraced pass: every job's outcome (in design-major, then flow
/// order) and the time each design's jobs took.
pub struct Pass {
    /// Wall time of each design's jobs, in design order.
    pub segments: Vec<Duration>,
    /// One result per job.
    pub results: Vec<Result<FlowOutcome, String>>,
}

impl Pass {
    /// Wall time of the whole pass, without the calls between designs.
    pub fn wall(&self) -> Duration {
        self.segments.iter().sum()
    }
}

/// A batch workload instance: its designs (in seeded order) and flows.
pub struct Batch {
    kind: BatchKind,
    designs: Vec<Design>,
    flows: Vec<FlowKind>,
}

impl Batch {
    /// The workload's designs and flows; `rng` fixes the design order.
    pub fn new(kind: BatchKind, rng: &mut Rng) -> Self {
        let (mut designs, flows) = match kind {
            BatchKind::HierRecip => (
                vec![Design::intdiv(16), Design::newton(8)],
                vec![FlowKind::Hierarchical(HierarchicalFlow::default())],
            ),
            BatchKind::DseEsopTbs => (
                (6..=10)
                    .flat_map(|n| [Design::intdiv(n), Design::newton(n)])
                    .collect(),
                vec![
                    FlowKind::Functional(FunctionalFlow::default()),
                    FlowKind::Esop(EsopFlow::with_factoring(0)),
                    FlowKind::Esop(EsopFlow::with_factoring(1)),
                ],
            ),
        };
        rng.shuffle(&mut designs);
        Self {
            kind,
            designs,
            flows,
        }
    }

    /// The designs, in run order.
    pub fn designs(&self) -> &[Design] {
        &self.designs
    }

    /// Number of (design, flow) jobs per pass.
    pub fn jobs(&self) -> usize {
        self.designs.len() * self.flows.len()
    }

    /// Job-level parallelism: `hier-recip` runs its designs one after the
    /// other; `explore_matrix(.., 0)` uses the whole pool.
    fn job_cap(&self) -> usize {
        match self.kind {
            BatchKind::HierRecip => 1,
            BatchKind::DseEsopTbs => usize::MAX,
        }
    }

    /// One untraced pass, called exactly as a user calls the system, one
    /// design at a time; `between` runs before each design and after the
    /// last, outside the timed segments.
    pub fn run_pass(&self, mut between: impl FnMut()) -> Pass {
        let mut segments = Vec::with_capacity(self.designs.len());
        let mut dse = DesignSpaceExplorer::new();
        for f in &self.flows {
            dse.add_flow(f.boxed());
        }
        let mut results = Vec::with_capacity(self.jobs());
        for design in &self.designs {
            between();
            let start = Instant::now();
            match self.kind {
                BatchKind::HierRecip => results.extend(
                    self.flows
                        .iter()
                        .map(|f| f.flow().run(design).map_err(|e| e.to_string())),
                ),
                BatchKind::DseEsopTbs => {
                    dse.explore_matrix(std::slice::from_ref(design), 0);
                }
            }
            segments.push(start.elapsed());
        }
        between();
        if self.kind == BatchKind::DseEsopTbs {
            results = self.in_job_order(&dse);
        }
        Pass { segments, results }
    }

    /// Re-interleaves `explore_matrix`'s outcomes and failures (each list
    /// in job order) into one result per job.
    fn in_job_order(&self, dse: &DesignSpaceExplorer) -> Vec<Result<FlowOutcome, String>> {
        let mut outcomes = dse.outcomes().iter().peekable();
        let mut failures = dse.failures().iter();
        let mut results = Vec::with_capacity(self.jobs());
        for design in &self.designs {
            for flow in &self.flows {
                let name = flow.flow().name();
                match outcomes.peek() {
                    Some(o) if o.design == *design && o.flow_name == name => {
                        results.push(Ok((*o).clone()));
                        outcomes.next();
                    }
                    _ => results.push(Err(failures.next().map_or_else(
                        || format!("{design} / {name}: no outcome"),
                        |(flow, e)| format!("{design} / {flow}: {e}"),
                    ))),
                }
            }
        }
        results
    }

    /// Checks every outcome of a pass against the golden models and its
    /// own reported cost. Returns the states checked, or the errors.
    pub fn check_against_golden(&self, pass: &Pass, rng: &mut Rng) -> (usize, Vec<String>) {
        let mut states = 0;
        let mut errors = Vec::new();
        for result in &pass.results {
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    errors.push(e.clone());
                    continue;
                }
            };
            if outcome.circuit.cost() != outcome.cost {
                errors.push(format!(
                    "{} / {}: reported cost differs from the circuit's",
                    outcome.design, outcome.flow_name
                ));
            }
            match check_circuit(
                &outcome.design,
                &outcome.circuit,
                &outcome.input_lines,
                &outcome.output_lines,
                rng,
            ) {
                Ok(n) => states += n,
                Err(e) => errors.push(format!("{}: {e}", outcome.flow_name)),
            }
        }
        (states, errors)
    }

    /// Pre-optimization AIG size of every design (`Design::to_aig`), counted
    /// once outside any timing.
    pub fn elaborated_ands(&self) -> Result<u64, String> {
        self.designs.iter().try_fold(0u64, |acc, d| {
            let aig = d.to_aig().map_err(|e| format!("{d}: {e}"))?;
            Ok(acc + aig.num_ands() as u64)
        })
    }

    /// One traced pass. Each design's front end is computed first through
    /// a `FrontendCache` (the miss); every further flow of the design looks
    /// it up again (a hit), as `explore_matrix` does. The circuits must
    /// equal `expected` (one per job).
    ///
    /// # Errors
    ///
    /// A flow failure or a fidelity-guard mismatch.
    pub fn traced_pass(
        &self,
        tracer: &Tracer,
        pass_no: u64,
        expected: &[Circuit],
    ) -> Result<(Duration, Counts), String> {
        let start = Instant::now();
        let root = tracer.next_id();
        let root_start = tracer.now();
        let cache = FrontendCache::new();
        let nflows = self.flows.len();
        let first_run = pass_no * self.jobs() as u64;
        let fronts = par::with_worker_cap(self.job_cap(), || {
            par::run_indexed(self.designs.len(), |d| {
                let design = &self.designs[d];
                let options = self.flows[0].flow().frontend_options();
                let run = first_run + (d * nflows) as u64;
                tracer
                    .span(Some(root), run, "core.frontend", |id| {
                        let lookup_start = tracer.now();
                        let arts = cache.get_or_compute(design, &options);
                        if let Ok(a) = &arts {
                            record_frontend_split(tracer, id, run, lookup_start, a);
                        }
                        arts
                    })
                    .map_err(|e| format!("{design}: {e}"))
            })
        });
        let fronts: Vec<Arc<FrontendArtifacts>> = fronts.into_iter().collect::<Result<_, _>>()?;
        let jobs = par::with_worker_cap(self.job_cap(), || {
            par::run_indexed(self.jobs(), |job| {
                let (d, f) = (job / nflows, job % nflows);
                let design = &self.designs[d];
                let flow = &self.flows[f];
                let run = first_run + job as u64;
                tracer.span(Some(root), run, "bench.glue", |id| {
                    flow.flow()
                        .precheck(design)
                        .map_err(|e| format!("{design}: {e}"))?;
                    let mut counts = Counts::default();
                    let arts = if f == 0 {
                        Arc::clone(&fronts[d])
                    } else {
                        tracer
                            .span(Some(id), run, "core.frontend", |_| {
                                cache.get_or_compute(design, &flow.flow().frontend_options())
                            })
                            .map_err(|e| format!("{design}: {e}"))?
                    };
                    let stage = Stage {
                        tracer,
                        parent: id,
                        run,
                    };
                    let circuit = stage.redrive(flow, design, &arts, &mut counts)?;
                    if circuit != expected[job] {
                        return Err(format!(
                            "fidelity guard: the staged re-drive of {design} / {} built a \
                             different circuit than Flow::run ({} vs {} gates)",
                            flow.flow().name(),
                            circuit.num_gates(),
                            expected[job].num_gates()
                        ));
                    }
                    Ok(counts)
                })
            })
        });
        let mut counts = Counts::default();
        for job in jobs {
            counts += job?;
        }
        counts.aig_ands_out = fronts.iter().map(|a| a.aig.num_ands() as u64).sum();
        // One lookup per job: the first flow of each design in the front-end
        // phase, every other flow inside its job.
        counts.frontend_misses = cache.len() as u64;
        counts.frontend_hits = self.jobs() as u64 - counts.frontend_misses;
        tracer.record(Span {
            id: root,
            parent: None,
            run: first_run,
            name: "bench.glue",
            start: root_start,
            end: tracer.now(),
        });
        Ok((start.elapsed(), counts))
    }
}

/// Records the parse/optimize split of a computed front end as two child
/// spans. `compute_frontend` times exactly `Design::to_aig` and
/// `optimize_aig`, back to back, at the start of the lookup.
fn record_frontend_split(
    tracer: &Tracer,
    parent: u64,
    run: u64,
    start: Duration,
    arts: &FrontendArtifacts,
) {
    let parsed = start + arts.parse_elaborate;
    for (name, from, to) in [
        ("verilog.parse_elab", start, parsed),
        ("classical.optimize", parsed, parsed + arts.optimize),
    ] {
        tracer.record(Span {
            id: tracer.next_id(),
            parent: Some(parent),
            run,
            name,
            start: from,
            end: to,
        });
    }
}

/// The raw synthesis output a flow hands to its post-synthesis stages.
struct Raw {
    circuit: Circuit,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    check_clean: bool,
    releases: Vec<(usize, usize)>,
}

/// Span context of one traced job.
struct Stage<'a> {
    tracer: &'a Tracer,
    parent: u64,
    run: u64,
}

impl Stage<'_> {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(Some(self.parent), self.run, name, |_| f())
    }

    /// Synthesis, then the post-synthesis stages of `finish`, each public
    /// call in its own span.
    fn redrive(
        &self,
        flow: &FlowKind,
        design: &Design,
        arts: &FrontendArtifacts,
        counts: &mut Counts,
    ) -> Result<Circuit, String> {
        let aig = &arts.aig;
        let (raw, post_opt, post_resynth, analyze) = match flow {
            FlowKind::Functional(f) => {
                let embedding = self.span("revsynth.embed", || {
                    optimum_embedding(&aig.to_truth_tables())
                });
                let circuit = self.span("revsynth.tbs", || {
                    transformation_based_synthesis(embedding.permutation(), f.direction)
                });
                let raw = Raw {
                    circuit,
                    inputs: (0..design.bits()).collect(),
                    outputs: (0..embedding.num_outputs()).collect(),
                    check_clean: false,
                    releases: Vec::new(),
                };
                (raw, f.post_opt, f.post_resynth, f.analyze)
            }
            FlowKind::Esop(f) => {
                let (mut mgr, bdds) = self
                    .span("classical.collapse", || {
                        collapse_to_bdds(aig, f.bdd_node_limit)
                    })
                    .map_err(|e| format!("{design}: {e}"))?;
                counts.bdd_nodes += mgr.num_nodes() as u64;
                let mut esop = self.span("classical.esop_extract", || {
                    extract_multi_esop(&mut mgr, &bdds)
                });
                counts.cubes_in += esop.len() as u64;
                self.span("classical.exorcism", || {
                    minimize_esop(&mut esop, &f.exorcism)
                });
                counts.cubes_out += esop.len() as u64;
                let synthesis = self.span("revsynth.esop", || synthesize_esop(&esop, &f.synth));
                let raw = Raw {
                    circuit: synthesis.circuit,
                    inputs: synthesis.input_lines,
                    outputs: synthesis.output_lines,
                    check_clean: true,
                    releases: Vec::new(),
                };
                (raw, f.post_opt, f.post_resynth, f.analyze)
            }
            FlowKind::Hierarchical(f) => {
                let xmg = self.span("classical.xmg_map", || map_to_xmg(aig));
                counts.xmg_gates += xmg.num_gates() as u64;
                let synthesis = self.span("revsynth.hier", || synthesize_xmg(&xmg, &f.synth));
                let cost = synthesis.circuit.cost();
                counts.gates_raw += cost.gates as u64;
                counts.t_raw += cost.t_count;
                let raw = Raw {
                    circuit: synthesis.circuit,
                    inputs: synthesis.input_lines,
                    outputs: synthesis.output_lines,
                    check_clean: f.synth.strategy != CleanupStrategy::KeepGarbage,
                    releases: synthesis.releases,
                };
                (raw, f.post_opt, f.post_resynth, f.analyze)
            }
        };
        self.finish(raw, arts, post_opt, post_resynth, analyze, counts)
    }

    /// The stages of `qda_core::flow::finish`, in its order.
    fn finish(
        &self,
        raw: Raw,
        arts: &FrontendArtifacts,
        post_opt: bool,
        post_resynth: bool,
        analyze: bool,
        counts: &mut Counts,
    ) -> Result<Circuit, String> {
        let Raw {
            mut circuit,
            inputs,
            outputs,
            check_clean,
            releases,
        } = raw;
        let interface = CircuitInterface::hierarchical(
            circuit.num_lines(),
            inputs.clone(),
            outputs.clone(),
            check_clean,
        );
        let mut release_diags = Vec::new();
        if analyze && !releases.is_empty() {
            let report = self.span("analyze", || {
                let raw_iface = interface.clone().with_releases(releases.clone());
                qda_analyze::analyze(&circuit, &raw_iface)
            });
            release_diags = report
                .diagnostics
                .into_iter()
                .filter(|d| matches!(d.code, Code::UseAfterRelease | Code::ReleaseOfLive))
                .collect();
        }
        if post_opt {
            let before = circuit.num_gates();
            let optimized = self
                .span("rev.opt", || {
                    optimize_checked_assuming(
                        &circuit,
                        &OptOptions::default(),
                        &interface.zero_lines(),
                    )
                })
                .map_err(|w| format!("post-synthesis optimization unsound: {w}"))?;
            counts.opt_rewrites += optimized.stats.total_rewrites();
            counts.opt_gates_removed += before.saturating_sub(optimized.circuit.num_gates()) as u64;
            circuit = optimized.circuit;
        }
        if post_resynth {
            let resynthesized = self
                .span("rev.resynth", || {
                    resynthesize_circuit_checked(&circuit, &ResynthOptions::default())
                })
                .map_err(|w| format!("windowed resynthesis unsound: {w}"))?;
            let stats = resynthesized.stats;
            counts.resynth_windows += stats.windows_attempted;
            counts.resynth_accepted += stats.windows_accepted;
            counts.resynth_passes += stats.passes;
            counts.resynth_t_saved += stats.t_saved();
            circuit = resynthesized.circuit;
        }
        if analyze {
            let mut report = self.span("analyze", || qda_analyze::analyze(&circuit, &interface));
            report.diagnostics.splice(0..0, release_diags);
            if !report.is_clean(Severity::Deny) {
                return Err("static analysis found a contract violation".to_string());
            }
            counts.diagnostics += report.diagnostics.len() as u64;
        }
        let options = VerifyOptions {
            exhaustive_limit: 14,
            random_samples: 1024,
            batch: true,
            check_ancilla_clean: check_clean,
            check_inputs_preserved: check_clean,
        };
        let aig = &arts.aig;
        let verdict = if inputs.len() > 64 || outputs.len() > 64 {
            VerifyOutcome::Skipped
        } else {
            self.span("rev.verify", || {
                verify_computes(&circuit, &inputs, &outputs, |x| aig.eval(x), &options)
            })
        };
        counts.verify_states += match verdict {
            VerifyOutcome::Verified => 1u64 << inputs.len(),
            VerifyOutcome::ProbablyCorrect { samples } => samples,
            VerifyOutcome::Skipped => 0,
            other => return Err(format!("verification failed: {other:?}")),
        };
        Ok(circuit)
    }
}
