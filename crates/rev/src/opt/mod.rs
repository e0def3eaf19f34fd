//! Post-synthesis peephole optimization of MPMCT circuits.
//!
//! The paper frames the reversible back-end as a place for post-synthesis
//! optimization before costing, and all three synthesis flows emit
//! circuits with obvious local redundancy: Bennett cleanup mirrors gates
//! around the output copies, in-place XOR application leaves CNOT chains,
//! and ESOP cubes produce same-target gates whose control polarities can
//! fuse. This module removes that redundancy with a **worklist-driven,
//! windowed peephole pass**:
//!
//! * [`PackedGate::commutes_with`](crate::packed::PackedGate::commutes_with)
//!   — commutation analysis over gate pairs (equal targets, disjoint
//!   target/support, or conflicting controls);
//! * **cancellation** — two equal gates that can be brought adjacent by
//!   commutation annihilate (MPMCT gates are self-inverse);
//! * [`rules::merge_packed`] — control-merge templates: two gates equal except
//!   one control's polarity fuse without that control, and a gate whose
//!   control set extends another's by one control is absorbed into it
//!   with the extra control flipped;
//! * **NOT-propagation** — an X gate is pushed rightward, flipping the
//!   polarity of downstream controls on its line, until it annihilates
//!   with a partner X;
//! * [`rules::RewriteCost`] — the cost-aware acceptance policy: a rewrite
//!   fires only if it never increases the T-count, with gate count as the
//!   tie-break;
//! * **constant propagation** ([`optimize_assuming`]) — when the caller
//!   asserts that some lines start at `|0⟩` (the flows assert it for
//!   every non-input line, matching the verification contract), a
//!   forward pass over known-zero and known-one line masks removes gates
//!   with a provably unsatisfiable control (const-0) and drops provably
//!   satisfied controls (const-1). Its equivalence gate
//!   ([`equivalence_witness_assuming`]) checks exactly the assumed state
//!   space — all states with the assumed lines at zero.
//!
//! The pass edits one packed [`crate::packed::GateArena`] in place. At
//! the start of every peephole pass it threads the **support-connected
//! components** (union-find over lines, which stops once all lines are
//! one set) through per-slot links: gates in different components
//! commute trivially and never rewrite together, so a scan follows only
//! its own component's links and is bounded by
//! [`OptOptions::window`] live gates of that component. One FIFO
//! worklist serves every component, and a rewrite requeues only its
//! neighbourhood, keeping the whole pass near-linear in circuit size.
//! The result is exactly that of optimizing each component on its own
//! (the split-and-copy reference `testkit::optimize_by_components`, on
//! dense gates of its own, checks this). The removed slots are dropped
//! when the edited arena becomes the output circuit, which compacts it.
//! Commutation, conflict, the merge templates and the constant pass are
//! mask operations over each gate's nonzero mask words, defined once on
//! the packed form, so their cost follows the gates' supports and not
//! the line count; the legacy [`crate::gate::Gate`] only builds and
//! displays gates.
//!
//! Every rule preserves the function on the **full line space** —
//! ancillae and garbage lines included — and [`optimize_checked`]
//! machine-checks exactly that with the bit-parallel [`crate::batchsim`]
//! engine: exhaustively up to [`EXHAUSTIVE_LINE_LIMIT`] lines, with
//! [`SAMPLED_STATES`] random states above.
//!
//! # Example
//!
//! ```
//! use qda_rev::circuit::Circuit;
//! use qda_rev::gate::{Control, Gate};
//! use qda_rev::opt::{optimize, OptOptions};
//!
//! // Two Toffolis differing in one control polarity fuse into a CNOT
//! // (the differing control becomes a don't-care), and the NOT pair on
//! // line 0 annihilates by flipping the controls in between.
//! let mut c = Circuit::new(3);
//! c.not(0);
//! c.mct(vec![Control::positive(0), Control::positive(1)], 2);
//! c.mct(vec![Control::positive(0), Control::negative(1)], 2);
//! c.not(0);
//! let out = optimize(&c, &OptOptions::default());
//! assert_eq!(out.stats.polarity_merges, 1);
//! assert_eq!(out.stats.not_absorptions, 1);
//! assert_eq!(out.circuit.gates(), &[Gate::mct(vec![Control::negative(0)], 2)]);
//! assert_eq!(out.circuit.cost().t_count, 0); // both Toffolis gone
//! ```

pub mod rules;

use crate::batchsim::{first_exhaustive, first_sampled, BatchState, Starts};
use crate::circuit::Circuit;
use crate::packed::{words_for_lines, GateArena, PackedGateBuf};
use rules::{MergeRule, RewriteCost};
use std::collections::VecDeque;
use std::fmt;

/// Circuits with at most this many lines are equivalence-checked
/// exhaustively over all `2^n` basis states; wider circuits are sampled.
pub const EXHAUSTIVE_LINE_LIMIT: usize = 16;

/// Number of random full-width states used to check circuits wider than
/// [`EXHAUSTIVE_LINE_LIMIT`].
pub const SAMPLED_STATES: u64 = 4096;

/// Seed of the random start states the equivalence gates sample.
const SAMPLE_SEED: u64 = 0x0917_C3EC;

/// Sentinel for "no gate" in the per-component links.
const NIL: usize = usize::MAX;

/// Tuning knobs of the peephole pass.
#[derive(Clone, Copy, Debug)]
pub struct OptOptions {
    /// Maximum number of live gates a forward scan may cross when looking
    /// for a cancellation/merge partner or a NOT-propagation sink. Keeps
    /// the pass near-linear; larger windows see through longer commuting
    /// stretches (e.g. the output-copy block of a Bennett circuit).
    pub window: usize,
}

impl Default for OptOptions {
    fn default() -> Self {
        Self { window: 32 }
    }
}

/// Per-rule rewrite counters of one optimizer run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OptStats {
    /// Equal gate pairs annihilated.
    pub cancellations: u64,
    /// Control-merge fusions via [`MergeRule::Polarity`].
    pub polarity_merges: u64,
    /// Control-merge fusions via [`MergeRule::Subset`].
    pub subset_merges: u64,
    /// X-gate pairs annihilated by NOT-propagation (with the polarity
    /// flips committed to the gates in between).
    pub not_absorptions: u64,
    /// Gates removed by constant propagation because a control is
    /// provably never satisfied on the assumed state space (const-0 rule;
    /// only fires under [`optimize_assuming`]).
    pub const_dead: u64,
    /// Controls dropped by constant propagation because they are provably
    /// always satisfied on the assumed state space (const-1 rule; only
    /// fires under [`optimize_assuming`]).
    pub const_drops: u64,
    /// Structurally applicable rewrites the acceptance policy refused.
    /// The shipped rule catalogue never regresses the policy's cost
    /// order, so this stays zero; it exists so a future rule that *can*
    /// regress is observable rather than silently dropped.
    pub rejected: u64,
}

impl OptStats {
    /// Total number of accepted rewrites.
    pub fn total_rewrites(&self) -> u64 {
        self.cancellations
            + self.polarity_merges
            + self.subset_merges
            + self.not_absorptions
            + self.const_dead
            + self.const_drops
    }
}

/// Result of an optimizer run.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The rewritten circuit (same line count, never more gates or T).
    pub circuit: Circuit,
    /// Per-rule rewrite counts.
    pub stats: OptStats,
}

/// One applicable rewrite found by a forward scan from gate `i`.
enum Rewrite {
    /// Gates `i` and `j` are equal and `i` commutes up to `j`: both die.
    Cancel { j: usize },
    /// Gates `i` and `j` fuse into `gate` at `j`'s position; `i` dies.
    Merge {
        j: usize,
        gate: PackedGateBuf,
        rule: MergeRule,
    },
    /// NOT gates `i` and `j` annihilate after flipping the control
    /// polarity on the NOT's line in every gate of `flips`.
    NotAbsorb { j: usize, flips: Vec<usize> },
}

/// Per-slot links threading the live gates of each support-connected
/// component in circuit order. Gates of different components have
/// disjoint supports, so they commute and never rewrite together: every
/// scan and requeue window walks these links and sees exactly its own
/// component's gate sequence.
struct ComponentLinks {
    next: Vec<usize>,
    prev: Vec<usize>,
}

impl ComponentLinks {
    /// Splits the live cascade into components (union-find over lines)
    /// and threads each one's gates. The union stops once every line is
    /// in one set: later joins could change no root.
    fn build(arena: &GateArena) -> Self {
        let mut uf = UnionFind::new(arena.num_lines());
        let mut sets = arena.num_lines();
        for (_, g) in arena.iter() {
            if sets <= 1 {
                break;
            }
            let root = uf.find(g.target());
            for c in g.controls() {
                sets -= usize::from(uf.join(c.line(), root));
            }
        }
        let mut links = Self {
            next: vec![NIL; arena.slot_count()],
            prev: vec![NIL; arena.slot_count()],
        };
        let mut last = vec![NIL; arena.num_lines()];
        for (id, g) in arena.iter() {
            let root = uf.find(g.target());
            let p = last[root];
            links.prev[id] = p;
            if p != NIL {
                links.next[p] = id;
            }
            last[root] = id;
        }
        links
    }

    /// The next live gate of `id`'s component.
    fn next(&self, id: usize) -> Option<usize> {
        (self.next[id] != NIL).then_some(self.next[id])
    }

    /// Appends up to `k` live predecessors of `id` in its component,
    /// nearest first.
    fn window_before(&self, id: usize, k: usize, out: &mut Vec<usize>) {
        let mut cur = self.prev[id];
        for _ in 0..k {
            if cur == NIL {
                break;
            }
            out.push(cur);
            cur = self.prev[cur];
        }
    }

    /// Removes live gate `id` from the arena and from its component.
    fn remove(&mut self, arena: &mut GateArena, id: usize) {
        arena.remove(id);
        let (p, n) = (self.prev[id], self.next[id]);
        if p != NIL {
            self.next[p] = n;
        }
        if n != NIL {
            self.prev[n] = p;
        }
    }
}

/// Scans forward from `i` through its component (bounded by `window`
/// live gates) for the first rewrite that the acceptance policy admits.
/// A structural match the policy refuses is counted in `rejected` and
/// the scan continues — a refused partner must not mask an acceptable
/// one later in the window. (Both match shapes share the scanned gate's
/// target, so the commuting walk always carries past a refusal.)
fn find_rewrite(
    arena: &GateArena,
    links: &ComponentLinks,
    i: usize,
    window: usize,
    rejected: &mut u64,
) -> Option<Rewrite> {
    let g = arena.gate(i);
    // Cancellation / control-merge: walk right while `g` commutes with
    // everything in between, so the partner can be made adjacent.
    let mut next = links.next(i);
    let mut steps = 0;
    while let Some(j) = next {
        if steps >= window {
            break;
        }
        let h = arena.gate(j);
        if g == h {
            if RewriteCost::of_controls(&[g.num_controls(), h.num_controls()], &[]).accepted() {
                return Some(Rewrite::Cancel { j });
            }
            *rejected += 1;
        } else if let Some((gate, rule)) = rules::merge_packed(&g, &h) {
            let counts = [g.num_controls(), h.num_controls()];
            if RewriteCost::of_controls(&counts, &[gate.view().num_controls()]).accepted() {
                return Some(Rewrite::Merge { j, gate, rule });
            }
            *rejected += 1;
        }
        if !g.commutes_with(&h) {
            break;
        }
        next = links.next(j);
        steps += 1;
    }
    // NOT-propagation: an X on line `l` passes *any* gate — unchanged
    // when the gate does not read `l`, with a polarity flip when the gate
    // controls on `l` — so this scan only ends at the window bound or at
    // a partner X.
    if g.num_controls() == 0 {
        let l = g.target();
        let mut flips = Vec::new();
        let mut next = links.next(i);
        let mut steps = 0;
        while let Some(j) = next {
            if steps >= window {
                break;
            }
            let h = arena.gate(j);
            if h.num_controls() == 0 {
                if h.target() == l {
                    if RewriteCost::of_controls(&[0, 0], &[]).accepted() {
                        return Some(Rewrite::NotAbsorb { j, flips });
                    }
                    *rejected += 1;
                }
            } else if h.control_on(l).is_some() {
                flips.push(j);
            }
            next = links.next(j);
            steps += 1;
        }
    }
    None
}

/// Runs the peephole pass to a fixpoint and returns the rewritten
/// circuit plus per-rule statistics.
///
/// The output realizes the same permutation over **all** lines (checked
/// variant: [`optimize_checked`]), keeps the line count, and never has a
/// higher T-count or gate count than the input. Running `optimize` on
/// its own output changes nothing (idempotence) — the worklist requeues
/// the window around every rewrite, so the pass really reaches a
/// fixpoint of its rule set.
pub fn optimize(circuit: &Circuit, options: &OptOptions) -> Optimized {
    optimize_assuming(circuit, options, &[])
}

/// [`optimize`] under an **initial-state assumption**: every line in
/// `zero_lines` starts at `|0⟩`. On top of the peephole catalogue this
/// enables the two constant-propagation rules (const-0 gate removal,
/// const-1 control dropping), interleaved with the peephole pass to a
/// joint fixpoint. The output realizes the same permutation as the input
/// on the **assumed state space** — all states with the `zero_lines` at
/// zero — which is exactly what [`equivalence_witness_assuming`] checks
/// and what the flows' `verify_computes` contract initializes.
///
/// With an empty `zero_lines` this is exactly [`optimize`].
///
/// # Panics
///
/// Panics if a `zero_lines` entry is out of range.
pub fn optimize_assuming(
    circuit: &Circuit,
    options: &OptOptions,
    zero_lines: &[usize],
) -> Optimized {
    let window = options.window.max(1);
    let mut stats = OptStats::default();
    let mut arena = circuit.packed().clone();
    let mut first = true;
    loop {
        let before_const = stats.total_rewrites();
        if !zero_lines.is_empty() {
            const_prop_pass(&mut arena, zero_lines, &mut stats);
        }
        let const_changed = stats.total_rewrites() != before_const;
        if !first && !const_changed {
            break;
        }
        peephole_pass(&mut arena, window, &mut stats);
        first = false;
        if zero_lines.is_empty() {
            // No const rules in play: the peephole pass alone reaches its
            // fixpoint in one call (the worklist requeues internally).
            break;
        }
    }
    let out = Circuit::from_arena(arena);
    let (before, after) = (circuit.cost(), out.cost());
    assert!(
        after.t_count <= before.t_count && after.gates <= before.gates,
        "acceptance policy violated: {before} -> {after}"
    );
    Optimized {
        circuit: out,
        stats,
    }
}

/// One forward constant-propagation sweep over the arena. It tracks two
/// dense line masks — lines of provably constant value at the current
/// point for every assumed start state (the `zero_lines` start there,
/// every other line does not), and that value — removes gates with a
/// provably unsatisfiable control and drops provably satisfied controls
/// in place, walking each gate's nonzero mask words only. Counts land in
/// `stats.const_dead` / `stats.const_drops`.
fn const_prop_pass(arena: &mut GateArena, zero_lines: &[usize], stats: &mut OptStats) {
    let words = words_for_lines(arena.num_lines());
    let mut known = vec![0u64; words];
    let mut one = vec![0u64; words];
    for &l in zero_lines {
        assert!(l < arena.num_lines(), "zero line {l} out of range");
        known[l / 64] |= 1 << (l % 64);
    }
    for i in 0..arena.slot_count() {
        if !arena.is_live(i) {
            continue;
        }
        let g = arena.gate(i);
        // A positive control on a known 0 or a negative one on a known 1
        // can never be satisfied: the gate never fires.
        if !g.may_fire(&known, &one) {
            stats.const_dead += 1;
            arena.remove(i);
            continue;
        }
        let (target, controls) = (g.target(), g.num_controls());
        // Every other control on a known line is always satisfied and
        // carries no information: drop it.
        let dropped = arena.drop_controls(i, &known);
        stats.const_drops += u64::from(dropped);
        // A NOT flips a known target value; any other gate makes it
        // input-dependent.
        let (w, bit) = (target / 64, 1u64 << (target % 64));
        if controls == dropped as usize {
            one[w] ^= known[w] & bit;
        } else {
            known[w] &= !bit;
            one[w] &= !bit;
        }
    }
}

/// A plain union-find over circuit lines, used to split a cascade into
/// support-connected components.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    /// Joins `x`'s set into the set whose root is `root` and returns
    /// whether two sets merged. Keeping one root while joining a gate's
    /// whole support keeps the trees flat.
    pub(crate) fn join(&mut self, x: usize, root: usize) -> bool {
        let r = self.find(x);
        if r != root {
            self.parent[r] = root;
        }
        r != root
    }
}

/// The worklist-driven peephole core shared by [`optimize`] and
/// [`optimize_assuming`], editing the arena in place: it threads the
/// support-connected components ([`ComponentLinks`]) and runs the
/// cancellation/merge/NOT-propagation catalogue to its fixpoint from one
/// FIFO worklist. The queue starts with every live gate in circuit order
/// and a rewrite requeues only gates of its own component at the back,
/// so each component's gates pop in the order a queue of its own would
/// pop them; the rewrites, and the result, are those of running every
/// component separately.
fn peephole_pass(arena: &mut GateArena, window: usize, stats: &mut OptStats) {
    let mut links = ComponentLinks::build(arena);
    let mut queue: VecDeque<usize> = arena.iter().map(|(id, _)| id).collect();
    let mut queued = vec![false; arena.slot_count()];
    for &id in &queue {
        queued[id] = true;
    }
    let mut requeue = Vec::new();
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        if !arena.is_live(i) {
            continue;
        }
        let Some(rewrite) = find_rewrite(arena, &links, i, window, &mut stats.rejected) else {
            continue;
        };
        // A rewrite shortens live distances for every gate whose forward
        // window reaches a changed position, so requeue the windows
        // before both sites (collected before the sites disappear).
        requeue.clear();
        links.window_before(i, window, &mut requeue);
        let j = match &rewrite {
            Rewrite::Cancel { j } | Rewrite::Merge { j, .. } | Rewrite::NotAbsorb { j, .. } => *j,
        };
        links.window_before(j, window, &mut requeue);
        match rewrite {
            Rewrite::Cancel { j } => {
                links.remove(arena, i);
                links.remove(arena, j);
                stats.cancellations += 1;
            }
            Rewrite::Merge { j, gate, rule } => {
                links.remove(arena, i);
                arena.replace(j, &gate);
                requeue.push(j);
                match rule {
                    MergeRule::Polarity => stats.polarity_merges += 1,
                    MergeRule::Subset => stats.subset_merges += 1,
                }
            }
            Rewrite::NotAbsorb { j, flips } => {
                let line = arena.gate(i).target();
                links.remove(arena, i);
                links.remove(arena, j);
                for &f in &flips {
                    arena.flip_polarity(f, line);
                }
                requeue.extend(flips);
                stats.not_absorptions += 1;
            }
        }
        for &id in &requeue {
            if arena.is_live(id) && !queued[id] {
                queued[id] = true;
                queue.push_back(id);
            }
        }
    }
}

/// Witness that an optimized circuit diverged from its original: one
/// start state (as one word per 64-line chunk, low lines first) with the
/// full end states of both circuits.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OptMismatch {
    /// The failing start state.
    pub input: Vec<u64>,
    /// Where the original circuit takes it.
    pub original: Vec<u64>,
    /// Where the rewritten circuit takes it.
    pub optimized: Vec<u64>,
}

impl fmt::Display for OptMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "optimizer changed the circuit function: state {:#x?} maps to {:#x?} in the \
             original but {:#x?} after rewriting",
            self.input, self.original, self.optimized
        )
    }
}

/// Checks that two same-width circuits realize the same permutation over
/// **all** their lines, returning a witness state on divergence.
///
/// Runs on the bit-parallel [`crate::batchsim`] engine: exhaustive over
/// the full `2^n` state space up to [`EXHAUSTIVE_LINE_LIMIT`] lines,
/// [`SAMPLED_STATES`] seeded-random full-width states above (lines are
/// loaded in 64-line chunks, so arbitrarily wide circuits are covered).
///
/// # Panics
///
/// Panics if the circuits differ in line count.
pub fn equivalence_witness(original: &Circuit, optimized: &Circuit) -> Option<OptMismatch> {
    equivalence_witness_assuming(original, optimized, &[])
}

/// [`equivalence_witness`] restricted to the **assumed state space**:
/// only start states with every line in `zero_lines` at `0` are
/// enumerated or sampled. This is the soundness gate matching
/// [`optimize_assuming`] — its constant-propagation rules are allowed to
/// change the function on states outside the assumption, exactly as the
/// flows' ancilla-initialization contract permits.
///
/// Exhaustive over all `2^f` assignments of the `f` free (unassumed)
/// lines when `f ≤` [`EXHAUSTIVE_LINE_LIMIT`], otherwise
/// [`SAMPLED_STATES`] seeded-random assignments of the free lines, drawn
/// per 64-line chunk of them. Both circuits replay from their own arenas
/// ([`Circuit::apply_batch`]), and both sweeps run on the
/// [`crate::batchsim`] sweep drivers and report the first diverging
/// state in sweep order at any worker count.
///
/// # Panics
///
/// Panics if the circuits differ in line count or a `zero_lines` entry is
/// out of range.
pub fn equivalence_witness_assuming(
    original: &Circuit,
    optimized: &Circuit,
    zero_lines: &[usize],
) -> Option<OptMismatch> {
    assert_eq!(
        original.num_lines(),
        optimized.num_lines(),
        "equivalence check requires equal line counts"
    );
    let n = original.num_lines();
    let mut zero = vec![false; n];
    for &l in zero_lines {
        zero[l] = true;
    }
    let free_lines: Vec<usize> = (0..n).filter(|&l| !zero[l]).collect();
    // Each job runs both circuits from the same start states, the
    // rewritten one in a spare buffer it reuses across its batches.
    let make_check = || {
        let free_lines = &free_lines;
        let mut spare = BatchState::zeros(n, 0);
        move |state: &mut BatchState, starts: Starts<'_>| {
            spare.copy_from(state);
            original.apply_batch(state);
            optimized.apply_batch(&mut spare);
            let k = state.first_difference(&spare)?;
            Some(OptMismatch {
                input: starts.state_words(free_lines, n, k),
                original: state.state_words(k),
                optimized: spare.state_words(k),
            })
        }
    };
    if free_lines.len() <= EXHAUSTIVE_LINE_LIMIT {
        first_exhaustive(n, &free_lines, make_check)
    } else {
        first_sampled(n, &free_lines, SAMPLE_SEED, SAMPLED_STATES, make_check)
    }
}

/// [`optimize`], then machine-check the rewritten circuit against the
/// original with [`equivalence_witness`] — so an optimizer bug surfaces
/// as a hard error carrying a witness state, never as a silently wrong
/// cost figure.
///
/// # Errors
///
/// Returns the witness when the rewritten circuit diverges.
pub fn optimize_checked(circuit: &Circuit, options: &OptOptions) -> Result<Optimized, OptMismatch> {
    optimize_checked_assuming(circuit, options, &[])
}

/// [`optimize_assuming`], then machine-check the rewritten circuit with
/// [`equivalence_witness_assuming`] over the assumed state space.
///
/// # Errors
///
/// Returns the witness when the rewritten circuit diverges on a state
/// satisfying the assumption.
pub fn optimize_checked_assuming(
    circuit: &Circuit,
    options: &OptOptions,
    zero_lines: &[usize],
) -> Result<Optimized, OptMismatch> {
    let out = optimize_assuming(circuit, options, zero_lines);
    match equivalence_witness_assuming(circuit, &out.circuit, zero_lines) {
        None => Ok(out),
        Some(witness) => Err(witness),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Control, Gate};

    fn opts() -> OptOptions {
        OptOptions::default()
    }

    #[test]
    fn adjacent_equal_gates_cancel() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.toffoli(0, 1, 2);
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.circuit.num_gates(), 0);
        assert_eq!(out.stats.cancellations, 1);
        assert_eq!(out.circuit.num_lines(), 3, "line count preserved");
    }

    #[test]
    fn cancellation_commutes_through_disjoint_gates() {
        // The Toffoli pair is separated by gates on disjoint lines and by
        // a same-target CNOT chain; all commute, so the pair still dies.
        let mut c = Circuit::new(6);
        c.toffoli(0, 1, 2);
        c.cnot(3, 4);
        c.not(5);
        c.cnot(3, 2); // same target as the Toffoli: commutes
        c.toffoli(0, 1, 2);
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.stats.cancellations, 1);
        assert_eq!(out.circuit.num_gates(), 3);
    }

    #[test]
    fn blocked_pairs_are_left_alone() {
        // The CNOT rewrites line 1 — a control of the Toffoli — so the
        // pair must NOT cancel (and indeed is not equivalent to removal).
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.cnot(0, 1);
        c.toffoli(0, 1, 2);
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.circuit.num_gates(), 3);
        assert_eq!(out.stats.total_rewrites(), 0);
    }

    #[test]
    fn conflicting_controls_commute_past_a_target_overlap() {
        // b targets a control line of a, but their controls conflict on
        // line 3, so they can never both fire — a's partner is reachable.
        let mut c = Circuit::new(4);
        let a = Gate::mct(vec![Control::positive(1), Control::positive(3)], 0);
        let b = Gate::mct(vec![Control::negative(3)], 1);
        c.add_gate(a.clone());
        c.add_gate(b.clone());
        c.add_gate(a);
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.stats.cancellations, 1);
        assert_eq!(out.circuit.gates(), &[b]);
    }

    #[test]
    fn bennett_style_mirror_cancels_through_output_copies() {
        // compute | copy | uncompute — the innermost mirror pair sits
        // around the copy block and cancels first, cascading outward.
        let mut c = Circuit::new(6);
        c.toffoli(0, 1, 3); // compute
        c.toffoli(1, 2, 4);
        c.cnot(4, 5); // copy (reads only line 4)
        c.toffoli(1, 2, 4); // uncompute
        c.toffoli(0, 1, 3);
        let out = optimize_checked(&c, &opts()).unwrap();
        // The (1,2;4) pair is blocked by the copy reading line 4, but the
        // outer (0,1;3) pair commutes through everything and cancels.
        assert_eq!(out.stats.cancellations, 1);
        assert_eq!(out.circuit.num_gates(), 3);
    }

    #[test]
    fn window_bounds_the_partner_search() {
        // The spacers all read line 0, so the whole cascade is one
        // support-connected component — the window bound, which counts
        // live gates of the component, is what keeps the pair apart.
        // They commute with the Toffoli pair (disjoint targets, no
        // target/support overlap) and never cancel or merge with each
        // other (pairwise distinct targets).
        let mut c = Circuit::new(40);
        c.toffoli(0, 1, 2);
        for l in 3..39 {
            c.cnot(0, l); // 36 commuting spacers
        }
        c.toffoli(0, 1, 2);
        let narrow = optimize(&c, &OptOptions { window: 8 });
        assert_eq!(narrow.stats.total_rewrites(), 0, "partner out of window");
        let wide = optimize(&c, &OptOptions { window: 64 });
        assert_eq!(wide.stats.cancellations, 1);
    }

    #[test]
    fn disjoint_components_optimize_independently_and_merge_in_order() {
        // Three support-disjoint components interleaved in the cascade;
        // the middle one is irreducible, the outer two each cancel away
        // (component C as a nested mirror: inner pair first, then outer).
        let mut c = Circuit::new(9);
        c.toffoli(0, 1, 2); // component A
        c.toffoli(3, 4, 5); // component B (survives)
        c.cnot(6, 7); // component C
        c.cnot(7, 8); // component C
        c.toffoli(0, 1, 2); // component A cancels
        c.cnot(7, 8); // component C cancels
        c.cnot(6, 7); // component C cancels
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.stats.cancellations, 3);
        assert_eq!(out.circuit.gates(), &[Gate::toffoli(3, 4, 5)]);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        // The optimizer never submits pool jobs, so its result cannot
        // depend on the worker count; repeated runs agree here, and the
        // CI matrix pins it across processes via QDA_WORKERS.
        let mut c = Circuit::new(12);
        for i in 0..4 {
            let base = 3 * i;
            c.toffoli(base, base + 1, base + 2);
            c.not(base);
            c.not(base);
            c.toffoli(base, base + 1, base + 2);
        }
        let a = optimize(&c, &opts());
        let b = optimize(&c, &opts());
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.circuit.num_gates(), 0);
    }

    #[test]
    fn not_propagation_flips_and_annihilates() {
        let mut c = Circuit::new(3);
        c.not(1);
        c.toffoli(0, 1, 2);
        c.cnot(1, 0);
        c.not(1);
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.stats.not_absorptions, 1);
        assert_eq!(
            out.circuit.gates(),
            &[
                Gate::mct(vec![Control::positive(0), Control::negative(1)], 2),
                Gate::mct(vec![Control::negative(1)], 0),
            ]
        );
    }

    #[test]
    fn rewrites_cascade_to_a_fixpoint() {
        // A NOT sandwich whose absorption enables a polarity merge whose
        // result cancels with a trailing CNOT: three rules chained.
        let mut c = Circuit::new(3);
        c.not(1);
        c.mct(vec![Control::positive(0), Control::negative(1)], 2);
        c.not(1);
        c.mct(vec![Control::positive(0), Control::negative(1)], 2);
        c.cnot(0, 2);
        let out = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(out.circuit.num_gates(), 0, "{}", out.circuit);
        assert!(out.stats.total_rewrites() >= 3);
    }

    #[test]
    fn optimizer_is_deterministic() {
        let mut c = Circuit::new(4);
        for _ in 0..3 {
            c.toffoli(0, 1, 3);
            c.cnot(2, 3);
            c.not(0);
        }
        let a = optimize(&c, &opts());
        let b = optimize(&c, &opts());
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn nothing_is_ever_rejected_by_the_policy() {
        let mut c = Circuit::new(5);
        for i in 0..4 {
            c.toffoli(i, (i + 1) % 5, (i + 2) % 5);
            c.not(i);
            c.not(i);
        }
        let out = optimize(&c, &opts());
        assert_eq!(out.stats.rejected, 0);
    }

    #[test]
    fn equivalence_witness_finds_divergence() {
        let mut a = Circuit::new(3);
        a.cnot(0, 2);
        let mut b = Circuit::new(3);
        b.cnot(1, 2);
        let w = equivalence_witness(&a, &b).expect("different circuits");
        // Re-confirm the witness by scalar simulation.
        assert_eq!(a.simulate_u64(w.input[0]), w.original[0]);
        assert_eq!(b.simulate_u64(w.input[0]), w.optimized[0]);
        assert_ne!(w.original, w.optimized);
        assert!(w.to_string().contains("optimizer changed"));
        assert_eq!(equivalence_witness(&a, &a), None);
    }

    #[test]
    fn equivalence_witness_samples_wide_circuits() {
        // 70 lines: beyond both the exhaustive limit and one 64-bit
        // chunk. A single-gate difference must still be caught.
        let mut a = Circuit::new(70);
        a.cnot(0, 69);
        a.toffoli(1, 68, 2);
        let mut b = a.clone();
        let w = equivalence_witness(&a, &b);
        assert_eq!(w, None, "identical circuits agree on every sample");
        b.not(67);
        let w = equivalence_witness(&a, &b).expect("NOT on line 67 must be seen");
        assert_eq!(w.input.len(), 2, "two 64-line chunks");
        assert_eq!(w.original[1] ^ w.optimized[1], 1 << (67 - 64));
    }

    #[test]
    fn const_rules_fire_only_under_the_assumption() {
        let mut c = Circuit::new(4);
        // Positive control on assumed-zero line 2: never fires.
        c.toffoli(0, 2, 1);
        // Negative control on line 2: always satisfied, drops away.
        c.mct(vec![Control::positive(3), Control::negative(2)], 1);
        let plain = optimize_checked(&c, &opts()).unwrap();
        assert_eq!(plain.stats.const_dead, 0);
        assert_eq!(plain.stats.const_drops, 0);
        assert_eq!(plain.circuit.num_gates(), 2, "no rules without assumption");
        let out = optimize_checked_assuming(&c, &opts(), &[2]).unwrap();
        assert_eq!(out.stats.const_dead, 1);
        assert_eq!(out.stats.const_drops, 1);
        assert_eq!(out.circuit.gates(), &[Gate::cnot(3, 1)]);
    }

    #[test]
    fn const_prop_tracks_not_gates_and_feeds_the_peephole_pass() {
        let mut c = Circuit::new(4);
        c.not(2); // assumed-zero line 2 becomes const 1
        c.toffoli(0, 2, 1); // positive control on const 1: drops to CNOT
        c.mct(vec![Control::positive(3), Control::negative(2)], 1); // never fires
        c.not(2); // line 2 back to const 0
        let out = optimize_checked_assuming(&c, &opts(), &[2]).unwrap();
        // After the const pass the NOT pair encloses no control on line 2
        // any more, so NOT-propagation annihilates it.
        assert_eq!(out.circuit.gates(), &[Gate::cnot(0, 1)]);
        assert_eq!(out.stats.const_dead, 1);
        assert_eq!(out.stats.const_drops, 1);
        assert!(
            out.stats.cancellations + out.stats.not_absorptions >= 1,
            "the peephole pass must have removed the NOT pair"
        );
    }

    #[test]
    fn assumed_equivalence_checks_exactly_the_assumed_states() {
        // toffoli(0,1,2) is the identity on every state with line 0 = 0.
        let mut a = Circuit::new(3);
        a.toffoli(0, 1, 2);
        let b = Circuit::new(3);
        assert!(equivalence_witness(&a, &b).is_some(), "full space differs");
        assert_eq!(equivalence_witness_assuming(&a, &b, &[0]), None);
        // A divergence inside the assumed space is still caught, and the
        // witness respects the assumption.
        let mut c = Circuit::new(3);
        c.cnot(1, 2);
        let w = equivalence_witness_assuming(&a, &c, &[0]).expect("differs at line0=0");
        assert_eq!(w.input[0] & 1, 0, "witness has line 0 at zero");
        assert_eq!(a.simulate_u64(w.input[0]), w.original[0]);
        assert_eq!(c.simulate_u64(w.input[0]), w.optimized[0]);
    }

    #[test]
    fn assumed_equivalence_samples_wide_circuits() {
        // 80 lines, 10 assumed zero: the free space is sampled. A gate
        // guarded by an assumed-zero line is invisible; one guarded by a
        // free line is not.
        let zeros: Vec<usize> = (70..80).collect();
        let mut a = Circuit::new(80);
        a.cnot(0, 69);
        let mut b = a.clone();
        b.add_gate(Gate::toffoli(1, 70, 2)); // control on assumed-zero 70
        assert_eq!(equivalence_witness_assuming(&a, &b, &zeros), None);
        b.add_gate(Gate::cnot(3, 4)); // free-line divergence
        let w = equivalence_witness_assuming(&a, &b, &zeros).expect("must be seen");
        for &l in &zeros {
            assert_eq!(w.input[l / 64] >> (l % 64) & 1, 0, "assumption holds");
        }
    }

    #[test]
    fn empty_and_single_gate_circuits_pass_through() {
        let empty = Circuit::new(4);
        let out = optimize_checked(&empty, &opts()).unwrap();
        assert_eq!(out.circuit.num_gates(), 0);
        let mut single = Circuit::new(4);
        single.toffoli(0, 1, 2);
        let out = optimize_checked(&single, &opts()).unwrap();
        assert_eq!(out.circuit.num_gates(), 1);
    }
}
