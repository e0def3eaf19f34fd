//! The three design flows of the paper (§IV, Fig. 1).
//!
//! Every flow implements [`Flow`]: Verilog in, verified reversible circuit
//! plus cost figures out. The flows share the front of the pipeline
//! (parse → elaborate → AIG optimization) and diverge at the
//! representation handed to reversible synthesis:
//!
//! | flow | interface | back-end | cost profile |
//! |------|-----------|----------|--------------|
//! | [`FunctionalFlow`] | truth table | optimum embedding + TBS | min qubits, huge T |
//! | [`EsopFlow`] | ESOP | REVS ESOP mode (`p`) | `2n(+p)` qubits, mid T |
//! | [`HierarchicalFlow`] | XMG | REVS hierarchical | many qubits, min T |
//!
//! The shared front end is reified as [`FrontendArtifacts`] so design space
//! exploration can compute it **once per design** and hand the optimized
//! AIG to every flow ([`Flow::run_with_frontend`]); a [`FrontendCache`]
//! memoizes it across flows and worker threads. [`Flow::run`] remains the
//! self-contained entry point (it computes its own front end).
//!
//! A flow implements only its synthesis step ([`Flow::synthesize`]: the
//! raw circuit plus the [`CircuitInterface`] it was built against) and
//! reports its post-synthesis switches ([`Flow::passes`]). The provided
//! driver, [`Flow::run_with_frontend`], runs every flow the same way:
//! precheck → synthesis → [`Synthesized::post_process`] → verification →
//! cost, timing each stage into [`StageTimings`] and checking the
//! caller's [`FlowBudget`] deadline before each one.
//!
//! [`Synthesized::post_process`] is the one post-synthesis step, shared
//! by the flows, the portfolio refinement of design space exploration
//! and the `qda-server` `.real` service. It routes the raw circuit
//! through the peephole optimizer (`qda_rev::opt`, the `post_opt` flag,
//! default on) and optionally the windowed resynthesis pass
//! (`qda_rev::resynth`, the `post_resynth` flag — default off, on for the
//! hierarchical flow whose Bennett cascades carry the beyond-peephole
//! redundancy it targets). Each pass is equivalence-checked against its
//! input circuit by batch simulation, so a bad rewrite fails the flow
//! ([`FlowError::PostOptUnsound`] / [`FlowError::ResynthUnsound`])
//! instead of skewing the tables. The optimizer runs with the
//! interface's zero-line assumption (ancillae start at |0⟩), unlocking
//! the constant-propagation rules, and its equivalence check is
//! restricted to exactly that state space.
//!
//! The step's `analyze` stage (the `analyze` flag, default on) runs the
//! static linter of `qda-analyze` on the opt/resynth output — and, when
//! the interface records ancilla releases (the hierarchical flow), the
//! release discipline on the raw synthesis output, where the recorded
//! release positions are valid. Warnings surface in
//! [`FlowOutcome::analysis`]; deny-level findings abort the flow with
//! [`FlowError::AnalysisViolation`]. Last, the result is checked against
//! the budget's size caps ([`FlowError::OverBudget`]).

use crate::design::Design;
use qda_analyze::{lifecycle, wellformed, CircuitInterface, Code, Report, Severity};
use qda_classical::collapse::{collapse_to_bdds, CollapseError};
use qda_classical::esop_extract::extract_multi_esop;
use qda_classical::exorcism::{minimize_esop, ExorcismOptions};
use qda_classical::rewrite::{optimize_aig, OptimizeOptions};
use qda_classical::xmg_map::map_to_xmg;
use qda_logic::aig::Aig;
use qda_rev::circuit::{Circuit, TooWideError};
use qda_rev::cost::CircuitCost;
use qda_rev::equiv::{verify_computes, verify_computes_batched, VerifyOptions, VerifyOutcome};
use qda_rev::opt::{optimize_checked_assuming, OptMismatch, OptOptions, OptStats};
use qda_rev::resynth::{ResynthOptions, ResynthStats};
use qda_revsynth::embed::{minimum_additional_lines, optimum_embedding};
use qda_revsynth::esop::{synthesize_esop, EsopSynthOptions};
use qda_revsynth::hierarchical::{synthesize_xmg, CleanupStrategy, HierarchicalOptions};
use qda_revsynth::resynth::resynthesize_circuit_checked;
use qda_revsynth::tbs::{transformation_based_synthesis, TbsDirection};
use qda_verilog::VerilogError;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Failure of a design flow.
#[derive(Debug)]
pub enum FlowError {
    /// The Verilog frontend failed.
    Frontend(VerilogError),
    /// BDD collapse exceeded its budget.
    Collapse(CollapseError),
    /// The instance does not fit this flow's representation (e.g. an
    /// ESOP over more than 64 inputs or outputs, or no outputs at all).
    TooLarge {
        /// Explanation.
        reason: String,
    },
    /// The circuit (or its embedded permutation) is wider than an
    /// explicit-permutation stage can enumerate. Carries the typed
    /// [`TooWideError`] the simulation layer reports, so callers can
    /// route the instance to sampled verification instead of aborting.
    CircuitTooWide {
        /// The offending width and the cap that rejected it.
        error: TooWideError,
    },
    /// The synthesized circuit failed verification — a synthesis bug.
    VerificationFailed {
        /// The failing outcome.
        outcome: VerifyOutcome,
    },
    /// The post-synthesis optimizer changed the circuit function — an
    /// optimizer bug, caught by the batch-simulation equivalence check
    /// before the rewritten circuit could be costed or reported.
    PostOptUnsound {
        /// The witness state and the two diverging end states.
        witness: OptMismatch,
    },
    /// The windowed resynthesis pass changed the circuit function — a
    /// back-end or splice bug, caught by the whole-circuit equivalence
    /// gate of `qda_rev::resynth::resynthesize_checked`.
    ResynthUnsound {
        /// The witness state and the two diverging end states.
        witness: OptMismatch,
    },
    /// The static analyzer proved a contract violation (dirty ancilla,
    /// use-after-release, malformed structure, ...) in the circuit the
    /// flow was about to report.
    AnalysisViolation {
        /// The full analysis report; at least one deny-level diagnostic.
        report: Report,
    },
    /// The [`FlowBudget`] deadline passed; the run stopped at the next
    /// stage boundary.
    DeadlineExceeded,
    /// The result exceeds a [`FlowBudget`] size cap.
    OverBudget(BudgetViolation),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Frontend(e) => write!(f, "frontend: {e}"),
            FlowError::Collapse(e) => write!(f, "collapse: {e}"),
            FlowError::TooLarge { reason } => write!(f, "instance too large: {reason}"),
            FlowError::CircuitTooWide { error } => write!(f, "instance too wide: {error}"),
            FlowError::VerificationFailed { outcome } => {
                write!(f, "verification failed: {outcome:?}")
            }
            FlowError::PostOptUnsound { witness } => {
                write!(f, "post-synthesis optimization unsound: {witness}")
            }
            FlowError::ResynthUnsound { witness } => {
                write!(f, "windowed resynthesis unsound: {witness}")
            }
            FlowError::AnalysisViolation { report } => {
                let denials: Vec<String> = report
                    .denials()
                    .map(std::string::ToString::to_string)
                    .collect();
                write!(f, "static analysis violation: {}", denials.join("; "))
            }
            FlowError::DeadlineExceeded => write!(
                f,
                "deadline exceeded before completion; work abandoned at a stage boundary"
            ),
            FlowError::OverBudget(violation) => write!(f, "{violation}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<VerilogError> for FlowError {
    fn from(e: VerilogError) -> Self {
        FlowError::Frontend(e)
    }
}

impl From<CollapseError> for FlowError {
    fn from(e: CollapseError) -> Self {
        FlowError::Collapse(e)
    }
}

impl From<TooWideError> for FlowError {
    fn from(error: TooWideError) -> Self {
        FlowError::CircuitTooWide { error }
    }
}

/// Wall-clock breakdown of one flow run, stage by stage.
///
/// The first two stages are the shared front end; when the run consumed a
/// cached [`FrontendArtifacts`], they report the time the front end took
/// when it was *computed*, so the breakdown of a cached run matches a
/// cold run of the same flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Verilog parse + elaboration into an AIG.
    pub parse_elaborate: Duration,
    /// AIG optimization (`dc2` stand-in).
    pub optimize: Duration,
    /// Flow-specific synthesis (collapse/exorcism/mapping + reversible
    /// synthesis).
    pub synthesis: Duration,
    /// Post-synthesis peephole optimization of the MPMCT circuit,
    /// including its batch-simulation soundness check (zero when the
    /// flow ran with `post_opt` off).
    pub post_opt: Duration,
    /// Windowed resynthesis of the MPMCT circuit, including its
    /// per-splice and whole-circuit soundness checks (zero when the flow
    /// ran with `post_resynth` off).
    pub resynth: Duration,
    /// Static analysis of the final circuit (plus the release-discipline
    /// check of the raw synthesis output, when the back end recorded
    /// release events). Zero when the flow ran with `analyze` off.
    pub analyze: Duration,
    /// Equivalence check of the synthesized circuit (bit-parallel batch
    /// simulation against the golden AIG).
    pub verification: Duration,
}

impl StageTimings {
    /// Sum of all stages — the flow's total runtime.
    pub fn total(&self) -> Duration {
        self.parse_elaborate
            + self.optimize
            + self.synthesis
            + self.post_opt
            + self.resynth
            + self.analyze
            + self.verification
    }
}

/// Result of running a flow on a design: the paper's per-row data
/// (qubits, T-count, runtime) plus the circuit itself.
#[derive(Clone, Debug)]
pub struct FlowOutcome {
    /// The design that was synthesized.
    pub design: Design,
    /// Name of the flow that produced this outcome.
    pub flow_name: String,
    /// The synthesized reversible circuit.
    pub circuit: Circuit,
    /// Lines carrying the inputs.
    pub input_lines: Vec<usize>,
    /// Lines carrying the outputs after execution.
    pub output_lines: Vec<usize>,
    /// Cost summary (qubits, T-count, gate counts).
    pub cost: CircuitCost,
    /// Per-rule rewrite counts of the post-synthesis optimizer (`None`
    /// when the flow ran with `post_opt` off).
    pub opt_stats: Option<OptStats>,
    /// Per-window accounting of the resynthesis pass (`None` when the
    /// flow ran with `post_resynth` off).
    pub resynth_stats: Option<ResynthStats>,
    /// Static analysis report of the final circuit (`None` when the flow
    /// ran with `analyze` off). Always deny-clean: deny-level findings
    /// abort the flow with [`FlowError::AnalysisViolation`] instead.
    pub analysis: Option<Report>,
    /// Wall-clock flow runtime (sum of [`FlowOutcome::stages`]).
    pub runtime: Duration,
    /// Per-stage runtime breakdown.
    pub stages: StageTimings,
    /// Verification verdict (always a success variant; failures abort the
    /// flow with [`FlowError::VerificationFailed`]).
    pub verification: VerifyOutcome,
}

/// The shared front end of every flow: the optimized AIG of a design,
/// plus how long each front-end stage took to compute.
///
/// # Example
///
/// ```
/// use qda_core::design::Design;
/// use qda_core::flow::{compute_frontend, EsopFlow, Flow, FlowBudget};
/// use qda_classical::rewrite::OptimizeOptions;
///
/// let design = Design::intdiv(5);
/// let frontend = compute_frontend(&design, &OptimizeOptions::default())?;
/// let flow = EsopFlow::with_factoring(0);
/// let outcome = flow.run_with_frontend(&design, &frontend, &FlowBudget::unlimited())?;
/// assert_eq!(outcome.cost.qubits, 10);
/// # Ok::<(), qda_core::flow::FlowError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FrontendArtifacts {
    /// The optimized AIG every flow consumes.
    pub aig: Aig,
    /// Time spent parsing + elaborating the Verilog.
    pub parse_elaborate: Duration,
    /// Time spent optimizing the AIG.
    pub optimize: Duration,
}

/// Runs the shared front end (parse → elaborate → AIG optimization) on a
/// design.
///
/// # Errors
///
/// Propagates Verilog parser/elaborator failures as
/// [`FlowError::Frontend`].
pub fn compute_frontend(
    design: &Design,
    options: &OptimizeOptions,
) -> Result<FrontendArtifacts, FlowError> {
    let start = Instant::now();
    let aig = design.to_aig()?;
    let parse_elaborate = start.elapsed();
    let start = Instant::now();
    let aig = optimize_aig(&aig, options);
    let optimize = start.elapsed();
    Ok(FrontendArtifacts {
        aig,
        parse_elaborate,
        optimize,
    })
}

/// One cache slot: a per-key lock around the (eventually) computed
/// artifacts, so concurrent misses coalesce instead of duplicating work.
type CacheSlot = Arc<Mutex<Option<Arc<FrontendArtifacts>>>>;

/// Locks a cache mutex, recovering from poisoning.
///
/// A panic inside [`compute_frontend`] (e.g. a generator assertion on a
/// hostile parameter) unwinds while the slot guard is held and poisons
/// the mutex. The protected state is still consistent — a slot is only
/// ever written on *successful* computation, so a poisoned slot simply
/// holds `None` — which makes recovery safe: take the inner value and
/// treat the slot as vacant. Without this, one bad design would
/// permanently brick every subsequent `get_or_compute` call on a shared
/// cache (fatal for a long-running server).
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Memoizes [`FrontendArtifacts`] per (design, optimization options), so
/// a flow×design matrix runs the front end once per design instead of
/// once per flow. Shareable across threads (`&FrontendCache` is enough).
#[derive(Debug, Default)]
pub struct FrontendCache {
    entries: Mutex<HashMap<(Design, OptimizeOptions), CacheSlot>>,
    /// Number of filled slots. Counted apart from `entries` so that
    /// [`FrontendCache::len`] never waits on a slot whose front end is
    /// still being computed (a slot is filled once, only on success,
    /// and never emptied).
    filled: AtomicUsize,
}

impl FrontendCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached front end for the design, computing it on a
    /// miss. Each key is computed at most once at a time: a concurrent
    /// miss blocks on the first computation and then shares its result,
    /// so worker threads never duplicate a front end.
    ///
    /// A panic during computation (a hostile design parameter tripping a
    /// generator assertion) propagates to the caller but does **not**
    /// damage the cache: the poisoned slot is recovered as vacant on the
    /// next access and recomputed, so one bad request cannot take a
    /// shared cache down with it.
    ///
    /// # Errors
    ///
    /// Propagates [`compute_frontend`] failures (not cached — a frontend
    /// failure is a generator bug, not a steady state).
    pub fn get_or_compute(
        &self,
        design: &Design,
        options: &OptimizeOptions,
    ) -> Result<Arc<FrontendArtifacts>, FlowError> {
        let slot: CacheSlot = {
            let mut entries = lock_recovering(&self.entries);
            Arc::clone(entries.entry((*design, *options)).or_default())
        };
        let mut guard = lock_recovering(&slot);
        if let Some(hit) = guard.as_ref() {
            return Ok(Arc::clone(hit));
        }
        let computed = Arc::new(compute_frontend(design, options)?);
        *guard = Some(Arc::clone(&computed));
        self.filled.fetch_add(1, Ordering::Relaxed);
        Ok(computed)
    }

    /// Number of computed front ends in the cache. Takes no lock, so it
    /// answers at once even while a front end is being computed.
    pub fn len(&self) -> usize {
        self.filled.load(Ordering::Relaxed)
    }

    /// Whether no front end has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-run resource budget: result-size caps plus a wall-clock deadline.
///
/// [`Flow::run_with_frontend`] checks the deadline before each stage and
/// [`Synthesized::post_process`] checks the caps on the post-processed
/// circuit, before verification spends work on it. Violations come back
/// as [`FlowError::DeadlineExceeded`] / [`FlowError::OverBudget`].
/// Cancellation is cooperative: a run stops between stages instead of
/// tearing threads down mid-rewrite.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowBudget {
    /// Reject results with more gates than this.
    pub max_gates: Option<u64>,
    /// Reject results with more circuit lines than this.
    pub max_qubits: Option<u64>,
    /// Abandon the run once this instant passes.
    pub deadline: Option<Instant>,
}

impl FlowBudget {
    /// A budget with no limits (every check passes).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            deadline: Instant::now().checked_add(timeout),
            ..Self::default()
        }
    }

    /// Whether the deadline has passed. Checked between stages by budget-
    /// aware drivers, so an over-deadline job stops consuming CPU at the
    /// next stage boundary.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// [`FlowBudget::expired`] as the driver's stage-boundary error.
    fn check_deadline(&self) -> Result<(), FlowError> {
        if self.expired() {
            return Err(FlowError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Checks a synthesized circuit's cost against the size caps.
    ///
    /// # Errors
    ///
    /// Returns the first violated cap.
    pub fn check_cost(&self, cost: &CircuitCost) -> Result<(), BudgetViolation> {
        if let Some(limit) = self.max_qubits {
            if cost.qubits as u64 > limit {
                return Err(BudgetViolation {
                    resource: BudgetResource::Qubits,
                    used: cost.qubits as u64,
                    limit,
                });
            }
        }
        if let Some(limit) = self.max_gates {
            if cost.gates as u64 > limit {
                return Err(BudgetViolation {
                    resource: BudgetResource::Gates,
                    used: cost.gates as u64,
                    limit,
                });
            }
        }
        Ok(())
    }
}

/// The resource dimension a [`BudgetViolation`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// Gate count of the synthesized circuit.
    Gates,
    /// Line count of the synthesized circuit.
    Qubits,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetResource::Gates => write!(f, "gates"),
            BudgetResource::Qubits => write!(f, "qubits"),
        }
    }
}

/// A [`FlowBudget`] cap that a run's result exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetViolation {
    /// Which cap was violated.
    pub resource: BudgetResource,
    /// The measured value.
    pub used: u64,
    /// The configured cap.
    pub limit: u64,
}

impl fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "result uses {} {} but the budget allows {}",
            self.used, self.resource, self.limit
        )
    }
}

impl std::error::Error for BudgetViolation {}

/// A design flow: Verilog design in, verified reversible circuit out.
///
/// A flow implements its synthesis step ([`Flow::synthesize`]) and
/// reports its post-synthesis switches ([`Flow::passes`]); the provided
/// [`Flow::run_with_frontend`] drives every flow through the same stages.
///
/// `Send + Sync` so a set of flows can be dispatched across worker
/// threads (the implementations are plain option structs).
pub trait Flow: Send + Sync {
    /// Human-readable flow name (used in reports).
    fn name(&self) -> String;

    /// The AIG optimization options this flow wants the shared front end
    /// run with (used as the [`FrontendCache`] key).
    fn frontend_options(&self) -> OptimizeOptions;

    /// Cheap feasibility check, run before any front-end work is spent on
    /// the design (e.g. the explicit-permutation size guard of
    /// [`FunctionalFlow`]). The default accepts everything.
    ///
    /// # Errors
    ///
    /// Returns the same [`FlowError`] a full run would fail with.
    fn precheck(&self, design: &Design) -> Result<(), FlowError> {
        let _ = design;
        Ok(())
    }

    /// The flow's own synthesis step: the optimized AIG of `design` in, the
    /// raw reversible circuit and the interface it was built against out.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when the design cannot be synthesized
    /// (e.g. a BDD blow-up).
    fn synthesize(&self, design: &Design, aig: &Aig) -> Result<Synthesized, FlowError>;

    /// The flow's `post_opt` / `post_resynth` / `analyze` switches.
    fn passes(&self) -> PostPasses;

    /// Runs the back half of the flow on a precomputed front end:
    /// precheck → synthesis → [`Synthesized::post_process`] →
    /// verification → cost, checking the `budget` deadline before each
    /// stage.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] when the design cannot be processed
    /// (resource blow-up), the result fails verification, or the run
    /// exceeds `budget`.
    fn run_with_frontend(
        &self,
        design: &Design,
        frontend: &FrontendArtifacts,
        budget: &FlowBudget,
    ) -> Result<FlowOutcome, FlowError> {
        self.precheck(design)?;
        budget.check_deadline()?;
        let start = Instant::now();
        let raw = self.synthesize(design, &frontend.aig)?;
        let synthesis = start.elapsed();
        let post = raw.post_process(self.passes(), budget)?;
        budget.check_deadline()?;
        let start = Instant::now();
        let verification = verify(&post.circuit, &post.interface, &frontend.aig);
        if !verification.is_ok() {
            return Err(FlowError::VerificationFailed {
                outcome: verification,
            });
        }
        let stages = StageTimings {
            parse_elaborate: frontend.parse_elaborate,
            optimize: frontend.optimize,
            synthesis,
            verification: start.elapsed(),
            ..post.stages
        };
        Ok(FlowOutcome {
            design: *design,
            flow_name: self.name(),
            circuit: post.circuit,
            input_lines: post.interface.input_lines,
            output_lines: post.interface.output_lines,
            cost: post.cost,
            opt_stats: post.opt_stats,
            resynth_stats: post.resynth_stats,
            analysis: post.analysis,
            runtime: stages.total(),
            stages,
            verification,
        })
    }

    /// Runs the full flow, computing its own front end.
    ///
    /// # Errors
    ///
    /// As [`Flow::run_with_frontend`], plus front-end failures.
    fn run(&self, design: &Design) -> Result<FlowOutcome, FlowError> {
        self.precheck(design)?;
        let frontend = compute_frontend(design, &self.frontend_options())?;
        self.run_with_frontend(design, &frontend, &FlowBudget::unlimited())
    }

    /// A copy of this flow with both post-synthesis passes (`post_opt`,
    /// `post_resynth`) turned off — the raw configuration portfolio
    /// exploration starts from, so the refinement combinations can be
    /// applied (and raced) on the one raw synthesis result instead of
    /// re-running synthesis per configuration. `None` (the default)
    /// excludes the flow from portfolio exploration.
    fn raw_variant(&self) -> Option<Box<dyn Flow>> {
        None
    }
}

/// A raw synthesis output: the circuit and the contract it was
/// synthesized against — non-input lines start at |0⟩, ancillae must
/// end clean when `require_clean` says so, and any recorded release
/// events index this circuit's gate list.
#[derive(Clone, Debug)]
pub struct Synthesized {
    /// The raw reversible circuit.
    pub circuit: Circuit,
    /// Its interface.
    pub interface: CircuitInterface,
}

/// Which passes [`Synthesized::post_process`] runs: a flow's `post_opt`,
/// `post_resynth` and `analyze` switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PostPasses {
    /// Run the peephole optimizer.
    pub opt: bool,
    /// Run the windowed resynthesis pass.
    pub resynth: bool,
    /// Run the static analyzer and its deny gate.
    pub analyze: bool,
}

/// What [`Synthesized::post_process`] produced.
#[derive(Clone, Debug)]
pub struct PostProcessed {
    /// The final circuit.
    pub circuit: Circuit,
    /// The raw interface without its release events (opt/resynth
    /// invalidate their gate positions).
    pub interface: CircuitInterface,
    /// Cost of the final circuit, within the budget's caps.
    pub cost: CircuitCost,
    /// Peephole optimizer statistics (when it ran).
    pub opt_stats: Option<OptStats>,
    /// Resynthesis statistics (when it ran).
    pub resynth_stats: Option<ResynthStats>,
    /// Deny-clean analysis report (when the analyzer ran).
    pub analysis: Option<Report>,
    /// The `post_opt`, `resynth` and `analyze` stage times; the other
    /// entries are zero.
    pub stages: StageTimings,
}

impl Synthesized {
    /// The post-synthesis step: release check → peephole optimization →
    /// windowed resynthesis → static analysis with its deny gate → size
    /// caps, each pass as `passes` asks. The `budget` deadline is checked
    /// before each pass, the caps on the final cost.
    ///
    /// # Errors
    ///
    /// [`FlowError::PostOptUnsound`] / [`FlowError::ResynthUnsound`] when
    /// a pass changed the circuit function,
    /// [`FlowError::AnalysisViolation`] on a deny-level finding, and
    /// [`FlowError::DeadlineExceeded`] / [`FlowError::OverBudget`] when
    /// `budget` is exceeded.
    pub fn post_process(
        self,
        passes: PostPasses,
        budget: &FlowBudget,
    ) -> Result<PostProcessed, FlowError> {
        let Synthesized {
            mut circuit,
            interface,
        } = self;
        let mut stages = StageTimings::default();
        // Ancilla release discipline is checked on the *raw* synthesis
        // output: the recorded release positions index its gate list,
        // which opt/resynth would invalidate. Only the lifecycle check
        // reports release findings, and it runs on a well-formed circuit
        // only, as in the full analyzer.
        let mut release_diags = Vec::new();
        if passes.analyze && !interface.releases.is_empty() {
            budget.check_deadline()?;
            let start = Instant::now();
            if wellformed::check(circuit.packed(), &interface, &mut release_diags) {
                lifecycle::check(&circuit, &interface, &mut release_diags);
            }
            release_diags.retain(|d| matches!(d.code, Code::UseAfterRelease | Code::ReleaseOfLive));
            stages.analyze += start.elapsed();
        }
        let interface = CircuitInterface {
            releases: Vec::new(),
            ..interface
        };
        // Peephole optimization, run under the |0⟩-start assumption so
        // the constant-propagation rules fire. Every run is
        // equivalence-checked against its input by batch simulation over
        // exactly the assumed state space, so an optimizer bug aborts
        // with a witness instead of corrupting the report.
        let mut opt_stats = None;
        if passes.opt {
            budget.check_deadline()?;
            let start = Instant::now();
            let optimized = optimize_checked_assuming(
                &circuit,
                &OptOptions::default(),
                &interface.zero_lines(),
            )
            .map_err(|witness| FlowError::PostOptUnsound { witness })?;
            circuit = optimized.circuit;
            opt_stats = Some(optimized.stats);
            stages.post_opt = start.elapsed();
        }
        // Windowed resynthesis: the whole rewritten circuit is
        // equivalence-checked against its input before costing.
        let mut resynth_stats = None;
        if passes.resynth {
            budget.check_deadline()?;
            let start = Instant::now();
            let resynthesized = resynthesize_circuit_checked(&circuit, &ResynthOptions::default())
                .map_err(|witness| FlowError::ResynthUnsound { witness })?;
            circuit = resynthesized.circuit;
            resynth_stats = Some(resynthesized.stats);
            stages.resynth = start.elapsed();
        }
        // Static analysis of the final circuit. Deny-level findings are
        // proven contract violations and abort; warnings and notes ride
        // along in the report.
        let mut analysis = None;
        if passes.analyze {
            budget.check_deadline()?;
            let start = Instant::now();
            let mut report = qda_analyze::analyze(&circuit, &interface);
            report.diagnostics.splice(0..0, release_diags);
            stages.analyze += start.elapsed();
            if !report.is_clean(Severity::Deny) {
                return Err(FlowError::AnalysisViolation { report });
            }
            analysis = Some(report);
        }
        let cost = circuit.cost();
        budget.check_cost(&cost).map_err(FlowError::OverBudget)?;
        Ok(PostProcessed {
            circuit,
            interface,
            cost,
            opt_stats,
            resynth_stats,
            analysis,
            stages,
        })
    }
}

/// The sweep [`verify`] runs. The bit-parallel batch engine makes a much
/// larger verification budget affordable than the scalar replay this
/// stage started with (exhaustive_limit 11 / 128 samples); its cost
/// shows up as the `verification` entry of [`StageTimings`]. The sweep
/// itself is sharded across the shared `qda_logic::par` worker pool (so a
/// flow running inside a DSE job recruits whatever budget is idle), with
/// the verdict byte-identical to a serial sweep.
fn verify_options(interface: &CircuitInterface) -> VerifyOptions {
    VerifyOptions {
        exhaustive_limit: 14,
        random_samples: 1024,
        batch: true,
        check_ancilla_clean: interface.require_clean,
        check_inputs_preserved: interface.require_clean,
    }
}

/// Checks a final circuit against the design AIG on the interface's
/// input and output registers.
fn verify(circuit: &Circuit, interface: &CircuitInterface, aig: &Aig) -> VerifyOutcome {
    // The simulation harness reads I/O through 64-bit registers; the
    // paper's largest instance (n = 128) exceeds that, so verification is
    // skipped there (the construction is the same as for verified sizes).
    if interface.input_lines.len() > 64 || interface.output_lines.len() > 64 {
        return VerifyOutcome::Skipped;
    }
    let options = verify_options(interface);
    let (inputs, outputs) = (&interface.input_lines, &interface.output_lines);
    // An exhaustive sweep reads every input state, so its oracle looks
    // them up in the AIG's truth tables, simulated 64 inputs per word.
    // The table is built here on every call and never shared with the
    // synthesis it checks. A sampled sweep reads only 1 024 states, where
    // the table costs more than it saves, so it simulates the AIG on each
    // batch's states, 64 per word; so does an interface whose width is not
    // the AIG's (the table is indexed by the whole input value) and an AIG
    // without outputs (no table).
    let n = inputs.len();
    if n <= options.exhaustive_limit && n == aig.num_pis() && aig.num_pos() > 0 {
        let tables = aig.to_truth_tables();
        verify_computes(circuit, inputs, outputs, |x| tables.eval(x), &options)
    } else {
        let oracle = |xs: &[u64], ys: &mut [u64]| aig.eval_many(xs, ys);
        verify_computes_batched(circuit, inputs, outputs, oracle, &options)
    }
}

/// Flow 1 — symbolic functional synthesis (paper §IV-A):
/// Verilog → AIG (`dc2`) → truth tables (the paper's `collapse`, read
/// by simulating the AIG) → optimum embedding → transformation-based
/// synthesis.
///
/// Qubit-optimal (e.g. `2n − 1` for the reciprocal) at the price of
/// many-control Toffolis and exponential runtime. Explicit permutations
/// bound the instance size; the paper's SAT-based symbolic variant pushes
/// the same algorithm to `n = 16` in 3.2 days.
#[derive(Clone, Debug)]
pub struct FunctionalFlow {
    /// AIG optimization options.
    pub optimize: OptimizeOptions,
    /// TBS direction.
    pub direction: TbsDirection,
    /// Run the post-synthesis peephole optimizer (default on).
    pub post_opt: bool,
    /// Run the windowed resynthesis pass (default off — TBS output is
    /// already the product of whole-permutation synthesis).
    pub post_resynth: bool,
    /// Run the static analysis stage on the final circuit (default on).
    pub analyze: bool,
}

impl Default for FunctionalFlow {
    fn default() -> Self {
        Self {
            optimize: OptimizeOptions::default(),
            direction: TbsDirection::Bidirectional,
            post_opt: true,
            post_resynth: false,
            analyze: true,
        }
    }
}

impl FunctionalFlow {
    /// Maximum embedded line count accepted (explicit permutation guard).
    const MAX_LINES: usize = 25;

    /// Rejects an embedding wider than `MAX_LINES` with the same typed
    /// error the simulation layer raises for over-wide explicit
    /// permutations, surfaced as a flow error instead of a process abort.
    fn check_lines(lines: usize) -> Result<(), FlowError> {
        if lines > Self::MAX_LINES {
            return Err(TooWideError {
                lines,
                limit: Self::MAX_LINES,
            }
            .into());
        }
        Ok(())
    }
}

impl Flow for FunctionalFlow {
    fn name(&self) -> String {
        "functional (embedding + TBS)".into()
    }

    fn frontend_options(&self) -> OptimizeOptions {
        self.optimize
    }

    /// Rejects instances beyond the explicit-permutation guard before any
    /// work is spent on them.
    fn precheck(&self, design: &Design) -> Result<(), FlowError> {
        Self::check_lines(design.bits().saturating_mul(2).saturating_sub(1))
    }

    fn synthesize(&self, design: &Design, aig: &Aig) -> Result<Synthesized, FlowError> {
        if aig.num_pos() == 0 {
            return Err(FlowError::TooLarge {
                reason: "the functional flow needs at least one output".into(),
            });
        }
        // "collapse": the explicit truth table is the BDD's semantics; the
        // embedding enumerates it either way.
        let tables = aig.to_truth_tables();
        // The precheck bounds the reciprocal's `2n − 1` lines; a design
        // with more outputs than inputs needs `max(n, m + g)`.
        let garbage = minimum_additional_lines(&tables);
        Self::check_lines(tables.num_vars().max(tables.num_outputs() + garbage))?;
        let embedding = optimum_embedding(&tables);
        let circuit = transformation_based_synthesis(embedding.permutation(), self.direction);
        // In-place circuit: inputs on the low n lines, outputs on the low
        // m lines (our embedding convention).
        let interface = CircuitInterface::hierarchical(
            circuit.num_lines(),
            (0..design.bits()).collect(),
            (0..embedding.num_outputs()).collect(),
            false,
        );
        Ok(Synthesized { circuit, interface })
    }

    fn passes(&self) -> PostPasses {
        PostPasses {
            opt: self.post_opt,
            resynth: self.post_resynth,
            analyze: self.analyze,
        }
    }

    fn raw_variant(&self) -> Option<Box<dyn Flow>> {
        Some(Box::new(Self {
            post_opt: false,
            post_resynth: false,
            ..self.clone()
        }))
    }
}

/// Flow 2 — ESOP-based synthesis with REVS (paper §IV-B):
/// Verilog → AIG → BDD → PSDKRO ESOP → exorcism → REVS ESOP mode.
#[derive(Clone, Debug)]
pub struct EsopFlow {
    /// AIG optimization options.
    pub optimize: OptimizeOptions,
    /// Exorcism minimization options.
    pub exorcism: ExorcismOptions,
    /// REVS factoring parameter `p`.
    pub synth: EsopSynthOptions,
    /// BDD node budget for the collapse step.
    pub bdd_node_limit: usize,
    /// Run the post-synthesis peephole optimizer (default on).
    pub post_opt: bool,
    /// Run the windowed resynthesis pass (default off — exorcism already
    /// minimized the cube list the gates came from).
    pub post_resynth: bool,
    /// Run the static analysis stage on the final circuit (default on).
    pub analyze: bool,
}

impl EsopFlow {
    /// Flow with the given factoring parameter `p`.
    pub fn with_factoring(p: usize) -> Self {
        Self {
            optimize: OptimizeOptions::default(),
            exorcism: ExorcismOptions::default(),
            synth: EsopSynthOptions {
                factoring_passes: p,
            },
            bdd_node_limit: 2_000_000,
            post_opt: true,
            post_resynth: false,
            analyze: true,
        }
    }
}

impl Default for EsopFlow {
    fn default() -> Self {
        Self::with_factoring(0)
    }
}

impl Flow for EsopFlow {
    fn name(&self) -> String {
        format!("ESOP (REVS, p = {})", self.synth.factoring_passes)
    }

    fn frontend_options(&self) -> OptimizeOptions {
        self.optimize
    }

    fn synthesize(&self, _design: &Design, aig: &Aig) -> Result<Synthesized, FlowError> {
        // A cube holds at most 64 literals and a multi-output ESOP at most
        // 64 outputs.
        let (inputs, outputs) = (aig.num_pis(), aig.num_pos());
        if !(1..=64).contains(&outputs) || inputs > 64 {
            return Err(FlowError::TooLarge {
                reason: format!(
                    "the ESOP flow needs 1 to 64 outputs and at most 64 inputs, \
                     got {outputs} outputs and {inputs} inputs"
                ),
            });
        }
        let (mut mgr, bdds) = collapse_to_bdds(aig, self.bdd_node_limit)?;
        let mut esop = extract_multi_esop(&mut mgr, &bdds);
        minimize_esop(&mut esop, &self.exorcism);
        let synthesis = synthesize_esop(&esop, &self.synth);
        let interface = CircuitInterface::hierarchical(
            synthesis.circuit.num_lines(),
            synthesis.input_lines,
            synthesis.output_lines,
            true,
        );
        Ok(Synthesized {
            circuit: synthesis.circuit,
            interface,
        })
    }

    fn passes(&self) -> PostPasses {
        PostPasses {
            opt: self.post_opt,
            resynth: self.post_resynth,
            analyze: self.analyze,
        }
    }

    fn raw_variant(&self) -> Option<Box<dyn Flow>> {
        Some(Box::new(Self {
            post_opt: false,
            post_resynth: false,
            ..self.clone()
        }))
    }
}

/// Flow 3 — hierarchical synthesis (paper §IV-C):
/// Verilog → AIG → XMG (`xmglut -k 4`) → REVS hierarchical.
///
/// Scales to `n = 128`: the cost is one ancilla per XMG gate and one
/// Toffoli per MAJ; XORs are free.
#[derive(Clone, Debug)]
pub struct HierarchicalFlow {
    /// AIG optimization options.
    pub optimize: OptimizeOptions,
    /// Cleanup strategy and in-place XOR application.
    pub synth: HierarchicalOptions,
    /// Run the post-synthesis peephole optimizer (default on).
    pub post_opt: bool,
    /// Run the windowed resynthesis pass (default **on** — Bennett-style
    /// compute/copy/uncompute cascades carry exactly the bounded-support
    /// redundancy the pass targets, and the peephole catalogue cannot
    /// reach it).
    pub post_resynth: bool,
    /// Run the static analysis stage — including the release-discipline
    /// check on the raw synthesis output (default on).
    pub analyze: bool,
}

impl HierarchicalFlow {
    /// Flow with the given cleanup strategy.
    pub fn with_strategy(strategy: CleanupStrategy) -> Self {
        Self {
            optimize: OptimizeOptions::default(),
            synth: HierarchicalOptions {
                strategy,
                inplace_xor: strategy == CleanupStrategy::Bennett,
            },
            post_opt: true,
            post_resynth: true,
            analyze: true,
        }
    }
}

impl Default for HierarchicalFlow {
    fn default() -> Self {
        Self::with_strategy(CleanupStrategy::Bennett)
    }
}

impl Flow for HierarchicalFlow {
    fn name(&self) -> String {
        format!("hierarchical (XMG, {:?})", self.synth.strategy)
    }

    fn frontend_options(&self) -> OptimizeOptions {
        self.optimize
    }

    fn synthesize(&self, _design: &Design, aig: &Aig) -> Result<Synthesized, FlowError> {
        let xmg = map_to_xmg(aig);
        let synthesis = synthesize_xmg(&xmg, &self.synth);
        let interface = CircuitInterface::hierarchical(
            synthesis.circuit.num_lines(),
            synthesis.input_lines,
            synthesis.output_lines,
            self.synth.strategy != CleanupStrategy::KeepGarbage,
        )
        .with_releases(synthesis.releases);
        Ok(Synthesized {
            circuit: synthesis.circuit,
            interface,
        })
    }

    fn passes(&self) -> PostPasses {
        PostPasses {
            opt: self.post_opt,
            resynth: self.post_resynth,
            analyze: self.analyze,
        }
    }

    fn raw_variant(&self) -> Option<Box<dyn Flow>> {
        Some(Box::new(Self {
            post_opt: false,
            post_resynth: false,
            ..self.clone()
        }))
    }
}

/// The static structure of Fig. 1: levels, tools and interfaces of the
/// design flows, renderable as text (regenerated by the `figure1` bench
/// binary).
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowGraph;

impl fmt::Display for FlowGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design level        INTDIV(n)        NEWTON(n)")?;
        writeln!(f, "                        \\               /")?;
        writeln!(f, "                         Verilog source")?;
        writeln!(
            f,
            "logic synthesis          parse + elaborate   [qda-verilog]"
        )?;
        writeln!(
            f,
            "level                    AIG optimize (dc2)  [qda-classical]"
        )?;
        writeln!(f, "                      /        |         \\")?;
        writeln!(f, "                   collapse  exorcism   xmglut -k 4")?;
        writeln!(f, "                    BDD        ESOP        XMG")?;
        writeln!(f, "reversible          |           |           |")?;
        writeln!(
            f,
            "synthesis        embedding   REVS ESOP   REVS hierarchical"
        )?;
        writeln!(
            f,
            "level             + TBS      (p = 0,1)   (Bennett/per-output)"
        )?;
        writeln!(f, "                    |           |           |")?;
        writeln!(
            f,
            "                   peephole opt (cancel/merge/NOT-prop)  [qda-rev::opt]"
        )?;
        writeln!(
            f,
            "                   windowed resynth (ESOP/linear)        [qda-rev::resynth]"
        )?;
        writeln!(f, "                    |           |           |")?;
        writeln!(f, "quantum level     reversible circuits: qubits × T-count")?;
        writeln!(f, "                  Architecture 1 … Architecture n")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn releasing_a_live_line_is_an_analysis_violation() {
        // Line 2 holds a·b when the interface says it was released after
        // gate 1: the raw-circuit release check must deny it, while the
        // same circuit without the release passes.
        let mut circuit = Circuit::new(3);
        circuit.toffoli(0, 1, 2);
        let interface = CircuitInterface::hierarchical(3, vec![0, 1], vec![2], true);
        let passes = PostPasses {
            opt: true,
            resynth: false,
            analyze: true,
        };
        let clean = Synthesized {
            circuit: circuit.clone(),
            interface: interface.clone(),
        };
        assert!(clean.post_process(passes, &FlowBudget::unlimited()).is_ok());
        let released = Synthesized {
            circuit,
            interface: interface.with_releases(vec![(2, 1)]),
        };
        match released.post_process(passes, &FlowBudget::unlimited()) {
            Err(FlowError::AnalysisViolation { report }) => {
                assert_eq!(
                    report.diagnostics[0].code,
                    Code::ReleaseOfLive,
                    "{report:?}"
                );
            }
            other => panic!("expected a release violation, got {other:?}"),
        }
    }

    #[test]
    fn functional_flow_small_intdiv() {
        let outcome = FunctionalFlow::default().run(&Design::intdiv(4)).unwrap();
        // Optimum embedding: 2n − 1 qubits.
        assert_eq!(outcome.cost.qubits, 7);
        assert!(outcome.cost.t_count > 0);
        assert_eq!(outcome.verification, VerifyOutcome::Verified);
    }

    #[test]
    fn esop_flow_uses_2n_lines_at_p0() {
        let outcome = EsopFlow::with_factoring(0).run(&Design::intdiv(5)).unwrap();
        assert_eq!(outcome.cost.qubits, 10);
        assert_eq!(outcome.verification, VerifyOutcome::Verified);
    }

    #[test]
    fn esop_flow_p1_trades_qubits_for_t() {
        let p0 = EsopFlow::with_factoring(0).run(&Design::intdiv(6)).unwrap();
        let p1 = EsopFlow::with_factoring(1).run(&Design::intdiv(6)).unwrap();
        assert!(p1.cost.qubits >= p0.cost.qubits);
        // Factoring must never *hurt* T-count on this workload.
        assert!(p1.cost.t_count <= p0.cost.t_count);
    }

    #[test]
    fn hierarchical_flow_runs_and_verifies() {
        let outcome = HierarchicalFlow::default().run(&Design::intdiv(5)).unwrap();
        assert!(outcome.cost.qubits > 10); // ancilla per gate
        assert_eq!(outcome.verification, VerifyOutcome::Verified);
    }

    #[test]
    fn functional_flow_rejects_large_instances() {
        let r = FunctionalFlow::default().run(&Design::intdiv(16));
        let Err(FlowError::CircuitTooWide { error }) = r else {
            panic!("expected a typed too-wide error");
        };
        assert_eq!(error.lines, 31);
        assert_eq!(error.limit, 25);
        // 12 inputs pass the `2n − 1` precheck, but 28 outputs need 28
        // lines: refused before the 2^28-entry embedding is built.
        let mut aig = Aig::new(12);
        for i in 0..28 {
            let input = aig.pi(i % 12);
            aig.add_po(input);
        }
        let r = FunctionalFlow::default().synthesize(&Design::external(12), &aig);
        let Err(FlowError::CircuitTooWide { error }) = r else {
            panic!("expected a typed too-wide error for 28 outputs");
        };
        assert_eq!((error.lines, error.limit), (28, 25));
    }

    #[test]
    fn newton_design_through_esop_flow() {
        let outcome = EsopFlow::with_factoring(0).run(&Design::newton(4)).unwrap();
        assert_eq!(outcome.cost.qubits, 8);
        assert_eq!(outcome.verification, VerifyOutcome::Verified);
    }

    #[test]
    fn frontend_cache_computes_once_per_key() {
        let cache = FrontendCache::new();
        let design = Design::intdiv(4);
        let opts = OptimizeOptions::default();
        let a = cache.get_or_compute(&design, &opts).unwrap();
        let b = cache.get_or_compute(&design, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(cache.len(), 1);
        let other = OptimizeOptions {
            rounds: 1,
            ..OptimizeOptions::default()
        };
        cache.get_or_compute(&design, &other).unwrap();
        assert_eq!(cache.len(), 2, "different options are a different key");
    }

    #[test]
    fn cache_survives_a_panicking_computation() {
        // INTDIV(1) trips the generator assertion `n must be at least 2`
        // inside compute_frontend — i.e. while the per-key slot mutex is
        // held — poisoning the slot. Before the recovery fix, every
        // subsequent get_or_compute/len call on the cache panicked via
        // `.expect("slot lock")`: one bad design bricked the shared
        // cache for good.
        let cache = FrontendCache::new();
        let opts = OptimizeOptions::default();
        let bad = Design::intdiv(1);
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = cache.get_or_compute(&bad, &opts);
            }));
            // The panic must be the generator's own assertion surfacing
            // (twice — the poisoned slot is recovered and recomputed, not
            // replaced by a "slot lock" panic).
            let payload = r.expect_err("INTDIV(1) must panic");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                message.contains("at least 2"),
                "unexpected panic {message:?}"
            );
        }
        // The cache still works: the poisoned slot counts as empty, and
        // fresh keys compute fine.
        assert_eq!(cache.len(), 0);
        let good = cache.get_or_compute(&Design::intdiv(4), &opts).unwrap();
        assert!(good.aig.num_pis() == 4);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn len_does_not_wait_for_a_computation_in_flight() {
        // A `stats` request reads len() on the daemon's reader thread;
        // it must not queue behind a front end still being computed,
        // nor stall other lookups while it waits.
        let cache = FrontendCache::new();
        let opts = OptimizeOptions::default();
        cache.get_or_compute(&Design::intdiv(4), &opts).unwrap();
        // Hold a fresh slot's lock, as a computation in flight does.
        let slot: CacheSlot = Arc::clone(
            lock_recovering(&cache.entries)
                .entry((Design::intdiv(5), opts))
                .or_default(),
        );
        let in_flight = lock_recovering(&slot);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let cache = &cache;
            s.spawn(move || {
                let len = cache.len();
                let hit = cache.get_or_compute(&Design::intdiv(4), &opts).is_ok();
                tx.send((len, hit)).unwrap();
            });
            let answer = rx.recv_timeout(Duration::from_secs(10));
            drop(in_flight);
            assert_eq!(answer, Ok((1, true)));
        });
    }

    #[test]
    fn budget_checks_cost_caps() {
        let outcome = EsopFlow::with_factoring(0).run(&Design::intdiv(4)).unwrap();
        assert!(FlowBudget::unlimited().check_cost(&outcome.cost).is_ok());
        let tight = FlowBudget {
            max_gates: Some(1),
            max_qubits: None,
            deadline: None,
        };
        let v = tight.check_cost(&outcome.cost).unwrap_err();
        assert_eq!(v.resource, BudgetResource::Gates);
        assert_eq!(v.limit, 1);
        assert!(v.to_string().contains("budget allows 1"), "{v}");
        let narrow = FlowBudget {
            max_qubits: Some(2),
            ..FlowBudget::unlimited()
        };
        let v = narrow.check_cost(&outcome.cost).unwrap_err();
        assert_eq!(v.resource, BudgetResource::Qubits);
        assert_eq!(v.used, outcome.cost.qubits as u64);
    }

    #[test]
    fn budget_deadline_expires() {
        assert!(
            !FlowBudget::unlimited().expired(),
            "no deadline never expires"
        );
        let expired = FlowBudget::with_timeout(Duration::ZERO);
        assert!(expired.expired());
        let generous = FlowBudget::with_timeout(Duration::from_secs(3600));
        assert!(!generous.expired());
    }

    /// The ESOP flow, recording whether its synthesis step ran.
    #[derive(Default)]
    struct Probe {
        synthesized: AtomicBool,
    }

    impl Flow for Probe {
        fn name(&self) -> String {
            "probe".into()
        }

        fn frontend_options(&self) -> OptimizeOptions {
            OptimizeOptions::default()
        }

        fn synthesize(&self, design: &Design, aig: &Aig) -> Result<Synthesized, FlowError> {
            self.synthesized.store(true, Ordering::Relaxed);
            EsopFlow::default().synthesize(design, aig)
        }

        fn passes(&self) -> PostPasses {
            EsopFlow::default().passes()
        }
    }

    #[test]
    fn driver_enforces_the_budget_between_stages() {
        let design = Design::intdiv(4);
        let frontend = compute_frontend(&design, &OptimizeOptions::default()).unwrap();
        let probe = Probe::default();
        let expired = FlowBudget::with_timeout(Duration::ZERO);
        let r = probe.run_with_frontend(&design, &frontend, &expired);
        assert!(matches!(r, Err(FlowError::DeadlineExceeded)), "{r:?}");
        assert!(
            !probe.synthesized.load(Ordering::Relaxed),
            "an expired budget returns before synthesis runs"
        );
        let tight = FlowBudget {
            max_gates: Some(1),
            ..FlowBudget::unlimited()
        };
        let r = probe.run_with_frontend(&design, &frontend, &tight);
        let Err(FlowError::OverBudget(violation)) = r else {
            panic!("expected the cap error, got {r:?}");
        };
        assert!(probe.synthesized.load(Ordering::Relaxed));
        assert_eq!(violation.resource, BudgetResource::Gates);
        assert_eq!(violation.limit, 1);
        let message = FlowError::OverBudget(violation).to_string();
        assert!(message.contains("budget allows 1"), "{message}");
    }

    #[test]
    fn cached_frontend_reproduces_cold_run() {
        let design = Design::intdiv(5);
        let flow = EsopFlow::with_factoring(0);
        let cold = flow.run(&design).unwrap();
        let frontend = compute_frontend(&design, &flow.frontend_options()).unwrap();
        let warm = flow
            .run_with_frontend(&design, &frontend, &FlowBudget::unlimited())
            .unwrap();
        assert_eq!(warm.circuit, cold.circuit);
        assert_eq!(warm.cost.qubits, cold.cost.qubits);
        assert_eq!(warm.cost.t_count, cold.cost.t_count);
    }

    #[test]
    fn stage_timings_sum_to_runtime() {
        let outcome = HierarchicalFlow::default().run(&Design::intdiv(4)).unwrap();
        assert_eq!(outcome.runtime, outcome.stages.total());
        assert!(outcome.stages.synthesis > Duration::ZERO);
    }

    #[test]
    fn precheck_rejects_before_frontend_work() {
        let flow = FunctionalFlow::default();
        assert!(matches!(
            flow.precheck(&Design::intdiv(16)),
            Err(FlowError::CircuitTooWide { .. })
        ));
        assert!(flow.precheck(&Design::intdiv(4)).is_ok());
        // Flows without a guard accept everything.
        assert!(HierarchicalFlow::default()
            .precheck(&Design::intdiv(128))
            .is_ok());
    }

    #[test]
    fn functional_flow_rejects_large_instances_with_frontend() {
        let design = Design::intdiv(16);
        let frontend =
            compute_frontend(&design, &OptimizeOptions::default()).expect("frontend itself is ok");
        let r = FunctionalFlow::default().run_with_frontend(
            &design,
            &frontend,
            &FlowBudget::unlimited(),
        );
        assert!(matches!(r, Err(FlowError::CircuitTooWide { .. })));
    }

    #[test]
    fn flow_graph_renders() {
        let s = FlowGraph.to_string();
        assert!(s.contains("INTDIV"));
        assert!(s.contains("xmglut"));
        assert!(s.contains("TBS"));
        assert!(s.contains("peephole opt"));
    }

    #[test]
    fn post_opt_runs_by_default_and_reports_stats() {
        let outcome = HierarchicalFlow::default().run(&Design::intdiv(5)).unwrap();
        let stats = outcome.opt_stats.expect("post_opt defaults to on");
        assert!(stats.total_rewrites() > 0, "Bennett output has redundancy");
        assert_eq!(outcome.verification, VerifyOutcome::Verified);
    }

    #[test]
    fn post_opt_off_keeps_the_raw_synthesis_output() {
        let design = Design::intdiv(5);
        let raw = HierarchicalFlow {
            post_opt: false,
            post_resynth: false,
            ..Default::default()
        }
        .run(&design)
        .unwrap();
        assert_eq!(raw.opt_stats, None);
        assert_eq!(raw.resynth_stats, None);
        assert_eq!(raw.stages.post_opt, Duration::ZERO);
        assert_eq!(raw.stages.resynth, Duration::ZERO);
        let opt = HierarchicalFlow::default().run(&design).unwrap();
        assert!(opt.cost.gates < raw.cost.gates, "optimizer must bite");
        assert!(opt.cost.t_count <= raw.cost.t_count);
        assert_eq!(opt.cost.qubits, raw.cost.qubits, "lines untouched");
    }

    #[test]
    fn post_resynth_defaults_on_for_hierarchical_and_reduces_further() {
        let design = Design::intdiv(5);
        let peephole_only = HierarchicalFlow {
            post_resynth: false,
            ..Default::default()
        }
        .run(&design)
        .unwrap();
        assert_eq!(peephole_only.resynth_stats, None);
        let full = HierarchicalFlow::default().run(&design).unwrap();
        let stats = full.resynth_stats.expect("post_resynth defaults to on");
        assert_eq!(
            stats.windows_attempted,
            stats.windows_accepted + stats.windows_rejected
        );
        assert_eq!(stats.candidates_unsound, 0);
        assert!(
            full.cost.gates < peephole_only.cost.gates,
            "resynthesis must bite beyond the peephole pass on Bennett output \
             ({} vs {} gates)",
            full.cost.gates,
            peephole_only.cost.gates
        );
        assert!(full.cost.t_count <= peephole_only.cost.t_count);
        assert_eq!(full.verification, VerifyOutcome::Verified);
    }

    #[test]
    fn raw_variants_disable_both_post_passes() {
        let design = Design::intdiv(4);
        let flows: Vec<Box<dyn Flow>> = vec![
            Box::new(FunctionalFlow::default()),
            Box::new(EsopFlow::with_factoring(1)),
            Box::new(HierarchicalFlow::default()),
        ];
        for flow in flows {
            let raw = flow.raw_variant().expect("concrete flows reconfigure");
            assert_eq!(raw.name(), flow.name(), "raw variant keeps the name");
            let outcome = raw.run(&design).unwrap();
            assert_eq!(outcome.opt_stats, None, "{}", flow.name());
            assert_eq!(outcome.resynth_stats, None, "{}", flow.name());
        }
    }

    #[test]
    fn analysis_runs_by_default_and_flow_outputs_are_deny_clean() {
        let flows: Vec<Box<dyn Flow>> = vec![
            Box::new(FunctionalFlow::default()),
            Box::new(EsopFlow::with_factoring(0)),
            Box::new(HierarchicalFlow::default()),
            Box::new(HierarchicalFlow::with_strategy(CleanupStrategy::PerOutput)),
            Box::new(HierarchicalFlow::with_strategy(
                CleanupStrategy::KeepGarbage,
            )),
        ];
        for flow in flows {
            let outcome = flow.run(&Design::intdiv(4)).unwrap();
            let report = outcome.analysis.as_ref().expect("analyze defaults to on");
            assert!(
                report.is_clean(Severity::Deny),
                "{}: {}",
                outcome.flow_name,
                report.render_human()
            );
            assert!(report.metrics.depth.t_depth > 0, "{}", outcome.flow_name);
            assert!(report.metrics.t_count >= outcome.cost.t_count);
        }
    }

    #[test]
    fn analyze_off_skips_the_stage() {
        let outcome = HierarchicalFlow {
            analyze: false,
            ..Default::default()
        }
        .run(&Design::intdiv(4))
        .unwrap();
        assert!(outcome.analysis.is_none());
        assert_eq!(outcome.stages.analyze, Duration::ZERO);
    }

    #[test]
    fn post_opt_applies_to_every_flow_kind() {
        let design = Design::intdiv(4);
        let flows: Vec<Box<dyn Flow>> = vec![
            Box::new(FunctionalFlow::default()),
            Box::new(EsopFlow::with_factoring(0)),
            Box::new(HierarchicalFlow::default()),
        ];
        for flow in flows {
            let outcome = flow.run(&design).unwrap();
            assert!(outcome.opt_stats.is_some(), "{}", outcome.flow_name);
            assert!(outcome.verification.is_ok(), "{}", outcome.flow_name);
        }
    }

    /// The design AIG and the post-processed circuit `flow` makes of it.
    fn post_processed(design: &Design, flow: &dyn Flow) -> (Aig, PostProcessed) {
        let aig = compute_frontend(design, &flow.frontend_options())
            .unwrap()
            .aig;
        let post = flow
            .synthesize(design, &aig)
            .unwrap()
            .post_process(flow.passes(), &FlowBudget::unlimited())
            .unwrap();
        (aig, post)
    }

    /// `verify`'s verdict on `circuit`, asserted equal to the one the
    /// per-state walk `|x| aig.eval(x)` gives, witness included.
    fn walked_verdict(circuit: &Circuit, interface: &CircuitInterface, aig: &Aig) -> VerifyOutcome {
        let walked = verify_computes(
            circuit,
            &interface.input_lines,
            &interface.output_lines,
            |x| aig.eval(x),
            &verify_options(interface),
        );
        assert_eq!(verify(circuit, interface, aig), walked);
        walked
    }

    /// Below the exhaustive limit `verify` reads its oracle from the AIG's
    /// truth tables; a broken circuit gets the verdict, witness included,
    /// that the per-state walk gives.
    #[test]
    fn table_oracle_gives_the_per_state_verdict_on_broken_circuits() {
        let (aig, post) = post_processed(&Design::intdiv(6), &EsopFlow::with_factoring(1));
        let interface = &post.interface;
        // Inputs on lines 0..6, outputs on 6..12, factors on 12..16.
        assert_eq!(post.circuit.num_lines(), 16);
        assert_eq!(
            walked_verdict(&post.circuit, interface, &aig),
            VerifyOutcome::Verified
        );
        let mut wrong_output = post.circuit.clone();
        wrong_output.toffoli(0, 3, 6);
        assert!(matches!(
            walked_verdict(&wrong_output, interface, &aig),
            VerifyOutcome::Mismatch { .. }
        ));
        let mut dirty_factor = post.circuit.clone();
        dirty_factor.cnot(0, 12);
        assert!(matches!(
            walked_verdict(&dirty_factor, interface, &aig),
            VerifyOutcome::DirtyLine { line: 12, .. }
        ));
    }

    /// Above the exhaustive limit `verify` samples, and simulates the AIG
    /// on each batch's states 64 per word; a broken circuit gets the
    /// verdict, witness included, that the per-state walk gives.
    #[test]
    fn sampled_oracle_gives_the_per_state_verdict_on_broken_circuits() {
        let (aig, post) = post_processed(&Design::intdiv(16), &HierarchicalFlow::default());
        let interface = &post.interface;
        let (inputs, outputs) = (&interface.input_lines, &interface.output_lines);
        assert!(inputs.len() > verify_options(interface).exhaustive_limit);
        assert_eq!(
            walked_verdict(&post.circuit, interface, &aig),
            VerifyOutcome::ProbablyCorrect { samples: 1024 }
        );
        let mut wrong_output = post.circuit.clone();
        wrong_output.toffoli(inputs[0], inputs[3], outputs[0]);
        assert!(matches!(
            walked_verdict(&wrong_output, interface, &aig),
            VerifyOutcome::Mismatch { .. }
        ));
        let ancilla = (0..post.circuit.num_lines())
            .find(|l| !inputs.contains(l) && !outputs.contains(l))
            .expect("Bennett cleanup leaves ancillae");
        let mut dirty_ancilla = post.circuit.clone();
        dirty_ancilla.cnot(inputs[0], ancilla);
        assert!(matches!(
            walked_verdict(&dirty_ancilla, interface, &aig),
            VerifyOutcome::DirtyLine { line, .. } if line == ancilla
        ));
    }

    /// A module without outputs has no truth table to build; its sweep
    /// simulates the AIG instead.
    #[test]
    fn hierarchical_flow_verifies_a_design_without_outputs() {
        let frontend = FrontendArtifacts {
            aig: Aig::new(2),
            parse_elaborate: Duration::ZERO,
            optimize: Duration::ZERO,
        };
        let outcome = HierarchicalFlow::default()
            .run_with_frontend(&Design::external(2), &frontend, &FlowBudget::unlimited())
            .unwrap();
        assert_eq!(outcome.circuit.num_lines(), 2);
        assert_eq!(outcome.verification, VerifyOutcome::Verified);
    }
}
