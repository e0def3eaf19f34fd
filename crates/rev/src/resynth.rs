//! Windowed resynthesis of MPMCT circuits: beyond-peephole optimization
//! by re-entrant synthesis on bounded-support subcircuits.
//!
//! The peephole pass ([`crate::opt`]) rewrites with a *local template
//! catalogue* — pairs of gates brought adjacent by commutation. What it
//! cannot see is redundancy spread over a whole group of gates: a cluster
//! whose composite permutation has a much cheaper realization than the
//! cascade that computes it. This pass closes that gap:
//!
//! 1. **Window extraction** — slide over the packed [`GateArena`] and
//!    greedily grow windows of support-connected gates whose combined
//!    support (targets + controls) fits in at most
//!    [`ResynthOptions::max_lines`] lines (default 6, hard cap
//!    [`MAX_WINDOW_LINES`]). Growth commutes past gates on disjoint
//!    lines, so the compute/use/uncompute triples Bennett cleanup
//!    scatters through a cascade still land in one window. Each slot's
//!    support lines are read from its mask words once, into a
//!    slot-indexed table; the window support is a fixed array and skipped
//!    lines are poisoned by per-line epoch stamps, so growth allocates
//!    nothing and no gate is materialized until a window is raced or
//!    spliced.
//! 2. **Permutation recovery** — replay the window on its `k` local lines
//!    bit-parallel (one lane bit per basis state, at most four words per
//!    line) into its `2^k`-entry permutation table.
//! 3. **Re-entrant synthesis, once per permutation** — the table keys a
//!    memo local to one [`resynthesize`] call. On a miss the window is
//!    remapped into a `k`-line circuit and every registered
//!    [`WindowSynthesizer`] (the linear and ESOP back-ends of
//!    `qda-revsynth`, injected from above because synthesis sits on top
//!    of this crate) proposes a candidate. The back-ends race in parallel
//!    ([`qda_logic::par`]); candidates are folded in registration order,
//!    so the winner — and therefore the rewritten circuit — is
//!    byte-identical whatever `QDA_WORKERS` says. Each candidate is
//!    checked against the window by exhaustive batch simulation, and the
//!    cheapest sound one (or none) is stored under the table. Every later
//!    window with the same table reuses that answer: the check compares
//!    functions, and all such windows compute the same function.
//! 4. **Acceptance** — per window, on that window's own gates: splice the
//!    candidate in only when [`RewriteCost::accepted`] says it *strictly*
//!    improves `(T-count, gates)` lexicographically.
//!
//! Passes repeat until a full sweep accepts nothing, so the result is a
//! fixpoint: running the pass on its own output changes nothing. One arena
//! serves every pass, and a pass steps over *clean* starts: a start whose
//! growth found no window, or a rejected one, stays clean until a splice
//! changes one of the gates its growth reads (see [`resynthesize`]). The
//! checked entry point [`resynthesize_checked`] mirrors the soundness
//! contract of [`crate::opt::optimize_checked`] — the whole rewritten
//! circuit is equivalence-checked against the original over the full line
//! space, and a divergence surfaces as an [`OptMismatch`] witness, never as
//! a silently wrong cost figure.

use crate::circuit::Circuit;
use crate::gate::Control;
use crate::opt::rules::RewriteCost;
use crate::opt::{equivalence_witness, OptMismatch};
use crate::packed::{GateArena, PackedGateBuf};
use qda_logic::par;
use qda_logic::tt::var_word;
use std::collections::HashMap;

/// Hard cap on the window support: `2^8` basis states per permutation
/// recovery keeps every attempt a single batch-simulation sweep.
pub const MAX_WINDOW_LINES: usize = 8;

/// Basis states of the widest window: the longest permutation table.
const MAX_WINDOW_STATES: usize = 1 << MAX_WINDOW_LINES;

/// 64-state lane words per local line of the widest window.
const LANE_WORDS: usize = MAX_WINDOW_STATES / 64;

/// A synthesis back-end that can re-realize a small explicit permutation
/// over `log₂ perm.len()` lines *in place* (same line count, no
/// ancillae). Implementations live above this crate (`qda-revsynth`
/// provides the linear and ESOP back-ends); the pass treats them as
/// untrusted candidate generators — every candidate is simulation-checked
/// against a window realizing `perm` before it may be spliced.
pub trait WindowSynthesizer: Sync {
    /// Synthesizes a circuit realizing `perm` over `log₂ perm.len()`
    /// lines, or `None` when this back-end does not apply.
    fn synthesize(&self, perm: &[u64]) -> Option<Circuit>;
}

/// Tuning knobs of the resynthesis pass.
#[derive(Clone, Copy, Debug)]
pub struct ResynthOptions {
    /// Maximum combined support of a window, in lines (clamped to
    /// [`MAX_WINDOW_LINES`]).
    pub max_lines: usize,
    /// Maximum number of gates a window may contain.
    pub max_window_gates: usize,
    /// Window growth may commute past at most this many unrelated gates
    /// (gates whose support is disjoint from the window's). Bennett-style
    /// compute/use/uncompute triples are separated by exactly such gates,
    /// so 0 would blind the pass to them; large values trade sweep time
    /// for reach.
    pub max_commute_skips: usize,
}

impl Default for ResynthOptions {
    fn default() -> Self {
        Self {
            max_lines: 6,
            max_window_gates: 24,
            max_commute_skips: 64,
        }
    }
}

/// Per-window accounting of one resynthesis run.
///
/// Every extracted window is either accepted or rejected:
/// `windows_attempted == windows_accepted + windows_rejected` holds after
/// every run, and the gate/T deltas sum over exactly the accepted
/// windows, so `gates_removed − gates_added` equals the circuit's total
/// gate-count reduction. `windows_attempted − memo_hits` is the number of
/// distinct window permutations the back-ends were raced on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResynthStats {
    /// Windows extracted and costed (≥ 2 gates, support within bounds).
    pub windows_attempted: u64,
    /// Windows whose cheapest sound candidate was strictly cheaper and
    /// was spliced in.
    pub windows_accepted: u64,
    /// Windows kept as-is (no candidate, or none strictly cheaper).
    pub windows_rejected: u64,
    /// Windows whose permutation an earlier window of the same run had
    /// already raced, answered from the run's memo without calling any
    /// back-end.
    pub memo_hits: u64,
    /// Starts stepped over because none of the gates their growth reads
    /// changed since they last found no window or a rejected one.
    pub clean_skips: u64,
    /// Candidates a back-end produced that failed the window-level batch
    /// simulation check (or came back on the wrong line count) and were
    /// dropped before costing. Counted once per raced permutation, not
    /// per window. Stays zero with sound back-ends.
    pub candidates_unsound: u64,
    /// Gates removed by accepted splices.
    pub gates_removed: u64,
    /// Gates inserted by accepted splices.
    pub gates_added: u64,
    /// T-count removed by accepted splices.
    pub t_removed: u64,
    /// T-count inserted by accepted splices.
    pub t_added: u64,
    /// Full sweeps run until the fixpoint (at least 1).
    pub passes: u64,
}

impl ResynthStats {
    /// Net gate-count reduction over the whole run. Negative when
    /// accepted splices traded extra gates for a strictly lower T-count
    /// (the acceptance order is lexicographic on `(T-count, gates)`).
    pub fn gates_saved(&self) -> i64 {
        self.gates_removed as i64 - self.gates_added as i64
    }

    /// Net T-count reduction over the whole run (never negative).
    pub fn t_saved(&self) -> i64 {
        self.t_removed as i64 - self.t_added as i64
    }
}

/// Result of a resynthesis run.
#[derive(Clone, Debug)]
pub struct Resynthesized {
    /// The rewritten circuit (same line count, never lexicographically
    /// worse on `(T-count, gates)`).
    pub circuit: Circuit,
    /// Per-window accounting.
    pub stats: ResynthStats,
}

/// Every arena slot's sorted support (controls plus target), read from
/// its mask words once: slot `id`'s lines are
/// `lines[offsets[id]..offsets[id + 1]]`.
struct SupportTable {
    offsets: Vec<usize>,
    lines: Vec<usize>,
}

impl SupportTable {
    /// The supports of a circuit's arena, whose slots `0..len` are all
    /// live.
    fn new(arena: &GateArena) -> Self {
        let mut table = Self {
            offsets: vec![0],
            lines: Vec::new(),
        };
        for id in 0..arena.slot_count() {
            table.record(arena, id);
        }
        table
    }

    /// Reads live slot `id`'s support. Slots are recorded in id order,
    /// each once: the arena's own, then every inserted one.
    fn record(&mut self, arena: &GateArena, id: usize) {
        debug_assert_eq!(self.offsets.len(), id + 1, "slot {id} out of order");
        let gate = arena.gate(id);
        let from = self.lines.len();
        self.lines.extend(gate.controls().map(Control::line));
        // Controls come out ascending; only the target needs placing.
        let at = from + self.lines[from..].partition_point(|&l| l < gate.target());
        self.lines.insert(at, gate.target());
        self.offsets.push(self.lines.len());
    }

    fn of(&self, id: usize) -> &[usize] {
        &self.lines[self.offsets[id]..self.offsets[id + 1]]
    }
}

/// The sorted support of a window: at most [`MAX_WINDOW_LINES`] circuit
/// lines, local line `i` being the `i`-th smallest.
#[derive(Clone, Copy)]
struct WindowSupport {
    lines: [usize; MAX_WINDOW_LINES],
    len: usize,
}

impl WindowSupport {
    /// The support of a window's first gate, or `None` when its `lines`
    /// exceed `cap`.
    fn of(lines: &[usize], cap: usize) -> Option<Self> {
        if lines.len() > cap {
            return None;
        }
        let mut support = Self {
            lines: [0; MAX_WINDOW_LINES],
            len: lines.len(),
        };
        support.lines[..lines.len()].copy_from_slice(lines);
        Some(support)
    }

    fn lines(&self) -> &[usize] {
        &self.lines[..self.len]
    }

    fn contains(&self, line: usize) -> bool {
        self.lines().contains(&line)
    }

    /// The local index of a support line.
    fn local(&self, line: usize) -> usize {
        self.lines()
            .iter()
            .position(|&l| l == line)
            .expect("line lies in the window's support")
    }

    /// The union with a joining gate's `extra` lines, or `None` when it
    /// would exceed `cap` lines.
    fn merged(&self, extra: &[usize], cap: usize) -> Option<Self> {
        let mut grown = *self;
        for &line in extra {
            if let Err(pos) = grown.lines().binary_search(&line) {
                if grown.len == cap {
                    return None;
                }
                grown.lines.copy_within(pos..grown.len, pos + 1);
                grown.lines[pos] = line;
                grown.len += 1;
            }
        }
        Some(grown)
    }
}

/// The cheapest sound candidate for one window permutation, on the
/// window's local lines.
struct Candidate {
    circuit: Circuit,
    /// Control count of each candidate gate, for [`RewriteCost`].
    controls: Vec<usize>,
}

/// What visiting one start did.
enum Visit {
    /// No window, or a rejected one: the start becomes clean.
    Unchanged,
    /// A window was spliced; the sweep resumes at `resume`, the gate that
    /// followed the window.
    Spliced { resume: Option<usize> },
}

/// One [`resynthesize`] run: the arena every pass edits, and what the run
/// remembers across windows and passes.
struct Sweep<'a> {
    synths: &'a [&'a dyn WindowSynthesizer],
    max_lines: usize,
    max_gates: usize,
    max_skips: usize,
    arena: GateArena,
    supports: SupportTable,
    /// `clean[id]`: start `id` last found no window or a rejected one, and
    /// no gate its growth reads has changed since.
    clean: Vec<bool>,
    /// `poisoned[line] == epoch`: a gate the current growth skipped
    /// touches `line`.
    poisoned: Vec<u64>,
    epoch: u64,
    /// Window permutation table → its cheapest sound candidate, if any.
    /// The tables derive from the input circuit, so the map keeps std's
    /// collision-resistant hasher.
    memo: HashMap<Box<[u8]>, Option<Candidate>>,
    /// The current window's gates, in circuit order.
    window: Vec<usize>,
    /// The gates the current growth commuted past, in circuit order.
    skipped: Vec<usize>,
    /// The current window's permutation table (first `2^k` entries).
    table: [u8; MAX_WINDOW_STATES],
    /// Control count of each current window gate.
    removed: Vec<usize>,
}

impl<'a> Sweep<'a> {
    fn new(
        arena: GateArena,
        options: &ResynthOptions,
        synths: &'a [&'a dyn WindowSynthesizer],
    ) -> Self {
        let supports = SupportTable::new(&arena);
        Self {
            synths,
            max_lines: options.max_lines.clamp(1, MAX_WINDOW_LINES),
            max_gates: options.max_window_gates.max(2),
            max_skips: options.max_commute_skips,
            clean: vec![false; arena.slot_count()],
            poisoned: vec![0; arena.num_lines()],
            epoch: 0,
            memo: HashMap::new(),
            window: Vec::new(),
            skipped: Vec::new(),
            table: [0; MAX_WINDOW_STATES],
            removed: Vec::new(),
            supports,
            arena,
        }
    }

    /// One sweep over the cascade. Returns `true` when at least one window
    /// was spliced.
    fn pass(&mut self, stats: &mut ResynthStats) -> bool {
        let mut changed = false;
        let mut cursor = self.arena.first();
        while let Some(id) = cursor {
            if self.clean[id] {
                // Its growth would read the same gates and reach the same
                // verdict, so step over it as that rejection would.
                stats.clean_skips += 1;
                cursor = self.arena.next_live(id);
                continue;
            }
            match self.visit(id, stats) {
                Visit::Unchanged => {
                    self.clean[id] = true;
                    cursor = self.arena.next_live(id);
                }
                Visit::Spliced { resume } => {
                    changed = true;
                    cursor = resume;
                }
            }
        }
        changed
    }

    /// Grows, costs and possibly splices the window starting at `id`.
    fn visit(&mut self, id: usize, stats: &mut ResynthStats) -> Visit {
        let Some((support, inside)) = self.grow(id) else {
            return Visit::Unchanged;
        };
        stats.windows_attempted += 1;
        let states = self.replay(&support);
        let key = &self.table[..states];
        let best = match self.memo.get(key) {
            Some(best) => {
                stats.memo_hits += 1;
                best
            }
            None => {
                let raced = self.race(&support, states, stats);
                self.memo.entry(key.into()).or_insert(raced)
            }
        };
        self.removed.clear();
        self.removed
            .extend(self.window.iter().map(|&w| self.supports.of(w).len() - 1));
        let accepted = best.as_ref().and_then(|best| {
            let cost = RewriteCost::of_controls(&self.removed, &best.controls);
            cost.accepted().then_some((best, cost))
        });
        let Some((best, cost)) = accepted else {
            stats.windows_rejected += 1;
            return Visit::Unchanged;
        };
        stats.windows_accepted += 1;
        stats.gates_removed += cost.gates_removed as u64;
        stats.gates_added += cost.gates_added as u64;
        stats.t_removed += cost.t_removed;
        stats.t_added += cost.t_added;
        let replacement: Vec<PackedGateBuf> = best
            .circuit
            .gates()
            .iter()
            .map(|g| PackedGateBuf::from_gate(&g.remapped(|l| support.lines()[l])))
            .collect();
        let resume = self.splice(&replacement, inside);
        Visit::Spliced { resume }
    }

    /// Greedily grows the window starting at `id` into `self.window`: a
    /// gate joins when it shares a line with the window and the union
    /// support stays within the line budget. Gates whose support is
    /// *disjoint* from the window's commute past it, so growth may skip
    /// over them (their lines are then poisoned: a later gate touching a
    /// skipped line cannot join, or the commuting argument — and the
    /// splice — would be unsound).
    ///
    /// Reads at most `max_gates + max_skips` live gates after `id`.
    /// Returns the window's support and how many skipped gates lie inside
    /// its span, or `None` when no window of at least two gates forms.
    fn grow(&mut self, id: usize) -> Option<(WindowSupport, usize)> {
        let mut support = WindowSupport::of(self.supports.of(id), self.max_lines)?;
        self.window.clear();
        self.window.push(id);
        self.skipped.clear();
        self.epoch += 1;
        let mut inside = 0;
        let mut j = self.arena.next_live(id);
        while let Some(jid) = j {
            if self.window.len() >= self.max_gates {
                break;
            }
            let lines = self.supports.of(jid);
            let overlaps_window = lines.iter().any(|&l| support.contains(l));
            let overlaps_skipped = lines.iter().any(|&l| self.poisoned[l] == self.epoch);
            if overlaps_window && !overlaps_skipped {
                let Some(grown) = support.merged(lines, self.max_lines) else {
                    break;
                };
                support = grown;
                self.window.push(jid);
                inside = self.skipped.len();
            } else if !overlaps_window && self.skipped.len() < self.max_skips {
                for &l in lines {
                    self.poisoned[l] = self.epoch;
                }
                self.skipped.push(jid);
            } else {
                break;
            }
            j = self.arena.next_live(jid);
        }
        (self.window.len() >= 2).then_some((support, inside))
    }

    /// Replays the window on its local lines, all `2^k` basis states at
    /// once (lane bit `x` of local line `l` is bit `l` of state `x`), and
    /// writes its permutation table into `self.table`. Returns `2^k`.
    fn replay(&mut self, support: &WindowSupport) -> usize {
        let states = 1usize << support.len;
        let words = states.div_ceil(64);
        let mut lanes = [[0u64; LANE_WORDS]; MAX_WINDOW_LINES];
        for (line, lane) in lanes[..support.len].iter_mut().enumerate() {
            for (w, word) in lane[..words].iter_mut().enumerate() {
                *word = var_word(line, w);
            }
        }
        for &id in &self.window {
            let gate = self.arena.gate(id);
            let mut fire = [u64::MAX; LANE_WORDS];
            for &line in self.supports.of(id) {
                let Some(positive) = gate.control_on(line) else {
                    continue; // the target
                };
                let flip = if positive { 0 } else { u64::MAX };
                let lane = &lanes[support.local(line)];
                for (f, &word) in fire[..words].iter_mut().zip(&lane[..words]) {
                    *f &= word ^ flip;
                }
            }
            let target = &mut lanes[support.local(gate.target())];
            for (word, &f) in target[..words].iter_mut().zip(&fire[..words]) {
                *word ^= f;
            }
        }
        for (x, out) in self.table[..states].iter_mut().enumerate() {
            *out = lanes[..support.len]
                .iter()
                .enumerate()
                .fold(0, |acc, (line, lane)| {
                    acc | ((((lane[x / 64] >> (x % 64)) & 1) as u8) << line)
                });
        }
        states
    }

    /// Races every back-end on the window's permutation (a memo miss) and
    /// returns the cheapest candidate that passes the batch-simulation
    /// check against the window.
    fn race(
        &self,
        support: &WindowSupport,
        states: usize,
        stats: &mut ResynthStats,
    ) -> Option<Candidate> {
        let k = support.len;
        let mut sub = Circuit::new(k);
        for &w in &self.window {
            sub.add_gate(self.arena.materialize(w).remapped(|l| support.local(l)));
        }
        let perm: Vec<u64> = self.table[..states].iter().map(|&y| u64::from(y)).collect();
        debug_assert_eq!(
            sub.permutation().ok().as_deref(),
            Some(perm.as_slice()),
            "the lane replay disagrees with the window's batch simulation"
        );
        // Race every back-end over the window in parallel, then fold the
        // results in registration order: the first strictly-cheapest
        // candidate wins exactly as it would under a serial scan, so the
        // outcome does not depend on the worker count.
        let candidates = par::run_indexed(self.synths.len(), |si| {
            let candidate = self.synths[si].synthesize(&perm)?;
            // The splice check: a candidate may only replace the window
            // if batch simulation proves it equivalent on all 2^k states.
            if candidate.num_lines() != k || equivalence_witness(&sub, &candidate).is_some() {
                return Some(Err(()));
            }
            Some(Ok(candidate))
        });
        let cost = |c: &Circuit| (c.cost().t_count, c.num_gates());
        let mut best: Option<Circuit> = None;
        for verdict in candidates.into_iter().flatten() {
            let Ok(candidate) = verdict else {
                stats.candidates_unsound += 1;
                continue;
            };
            if best.as_ref().is_none_or(|b| cost(&candidate) < cost(b)) {
                best = Some(candidate);
            }
        }
        best.map(|circuit| Candidate {
            controls: circuit
                .packed()
                .iter()
                .map(|(_, g)| g.num_controls())
                .collect(),
            circuit,
        })
    }

    /// Splices `replacement` (on circuit lines) in before the window's
    /// first gate, drops the window, and marks dirty every start whose
    /// growth may read a changed position: the `max_gates + max_skips`
    /// live gates before the window (growth reads no further ahead), the
    /// gates the window commuted past inside its span, and the inserted
    /// gates. Returns the gate that followed the window.
    fn splice(&mut self, replacement: &[PackedGateBuf], inside: usize) -> Option<usize> {
        let first = self.window[0];
        let last = *self.window.last().expect("non-empty window");
        let resume = self.arena.next_live(last);
        let reach = self.max_gates.saturating_add(self.max_skips);
        for id in self.arena.window_before(first, reach) {
            self.clean[id] = false;
        }
        for &id in &self.skipped[..inside] {
            self.clean[id] = false;
        }
        for buf in replacement {
            let id = self.arena.insert_before(first, buf);
            self.supports.record(&self.arena, id);
            self.clean.push(false);
        }
        for &w in &self.window {
            self.arena.remove(w);
        }
        resume
    }
}

/// Runs windowed resynthesis to a fixpoint and returns the rewritten
/// circuit plus per-window statistics.
///
/// The output realizes the same permutation over **all** lines (checked
/// variant: [`resynthesize_checked`]), keeps the line count, and is never
/// lexicographically worse on `(T-count, gates)` than the input — every
/// splice is individually simulation-verified and strictly improving in
/// that order (a splice may add a gate when it strictly cuts T-count),
/// so the sweep loop terminates and a second run is a no-op.
///
/// The run edits one arena through every pass and keeps a memo from
/// window permutation to cheapest sound candidate, so the back-ends race
/// once per distinct permutation. A pass steps over starts that are
/// still clean: growth from a start reads only the
/// `max_window_gates + max_commute_skips` live gates after it, and every
/// splice marks dirty each start that could read one of the positions it
/// changed, so a clean start would find the same window-less or rejected
/// growth again. The output, `windows_accepted`, the gate/T deltas and
/// `passes` are therefore exactly those of a sweep that re-extracts every
/// start and races every window; `windows_attempted` counts only the
/// windows actually extracted.
pub fn resynthesize(
    circuit: &Circuit,
    options: &ResynthOptions,
    synths: &[&dyn WindowSynthesizer],
) -> Resynthesized {
    let mut sweep = Sweep::new(circuit.clone().into_arena(), options, synths);
    let mut stats = ResynthStats::default();
    loop {
        stats.passes += 1;
        if !sweep.pass(&mut stats) {
            break;
        }
    }
    let out = Circuit::from_arena(sweep.arena);
    let (before, after) = (circuit.cost(), out.cost());
    assert!(
        (after.t_count, after.gates) <= (before.t_count, before.gates),
        "resynthesis acceptance policy violated: {before} -> {after}"
    );
    Resynthesized {
        circuit: out,
        stats,
    }
}

/// [`resynthesize`], then machine-check the rewritten circuit against the
/// original with [`equivalence_witness`] — the same final gate the
/// peephole optimizer runs, so an unsound back-end (or a splice bug)
/// surfaces as a hard error carrying a witness state.
///
/// # Errors
///
/// Returns the witness when the rewritten circuit diverges.
pub fn resynthesize_checked(
    circuit: &Circuit,
    options: &ResynthOptions,
    synths: &[&dyn WindowSynthesizer],
) -> Result<Resynthesized, OptMismatch> {
    let out = resynthesize(circuit, options, synths);
    match equivalence_witness(circuit, &out.circuit) {
        None => Ok(out),
        Some(witness) => Err(witness),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Recognizes identity windows and replaces them with nothing — the
    /// smallest sound back-end, enough to exercise the splice machinery.
    struct IdentitySynth;
    impl WindowSynthesizer for IdentitySynth {
        fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
            let r = perm.len().trailing_zeros() as usize;
            perm.iter()
                .enumerate()
                .all(|(x, &y)| x as u64 == y)
                .then(|| Circuit::new(r))
        }
    }

    /// Always returns a *wrong* candidate (an extra NOT), to prove the
    /// window-level check refuses to splice it.
    struct BrokenSynth;
    impl WindowSynthesizer for BrokenSynth {
        fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
            let r = perm.len().trailing_zeros() as usize;
            let mut c = Circuit::new(r);
            c.not(0);
            c.not(0);
            c.not(0);
            Some(c)
        }
    }

    /// [`IdentitySynth`] that counts how often it is called.
    #[derive(Default)]
    struct CountingSynth(AtomicU64);
    impl CountingSynth {
        fn calls(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }
    impl WindowSynthesizer for CountingSynth {
        fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
            self.0.fetch_add(1, Ordering::Relaxed);
            IdentitySynth.synthesize(perm)
        }
    }

    /// `copies` copies of the non-identity cascade CNOT(a,b) · Toffoli(a,b,t)
    /// · CNOT(a,b), copy `i` on lines {3i, 3i+1, 3i+2}, plus `extra` idle
    /// lines. Each copy yields the same two windows (from its first and
    /// from its second gate).
    fn tiled(copies: usize, extra: usize) -> Circuit {
        let mut c = Circuit::new(3 * copies + extra);
        for i in 0..copies {
            let (a, b, t) = (3 * i, 3 * i + 1, 3 * i + 2);
            c.cnot(a, b);
            c.toffoli(a, b, t);
            c.cnot(a, b);
        }
        c
    }

    #[test]
    fn identity_window_is_removed() {
        // Three gates composing to the identity on lines {0,1,2}, but not
        // pairwise cancelling — the peephole pass cannot remove them.
        let mut c = Circuit::new(3);
        c.cnot(0, 1);
        c.cnot(0, 1);
        c.toffoli(0, 1, 2);
        c.toffoli(0, 1, 2);
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&IdentitySynth]).unwrap();
        assert_eq!(out.circuit.num_gates(), 0);
        assert_eq!(out.circuit.num_lines(), 3);
        assert_eq!(out.stats.windows_accepted, 1);
        assert_eq!(out.stats.gates_removed, 4);
        assert_eq!(out.stats.gates_added, 0);
    }

    #[test]
    fn non_identity_windows_are_rejected_and_counted() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1);
        c.toffoli(0, 1, 2);
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&IdentitySynth]).unwrap();
        assert_eq!(out.circuit.num_gates(), 2);
        assert_eq!(out.stats.windows_accepted, 0);
        assert!(out.stats.windows_rejected > 0);
        assert_eq!(
            out.stats.windows_attempted,
            out.stats.windows_accepted + out.stats.windows_rejected
        );
    }

    #[test]
    fn unsound_candidates_are_dropped_not_spliced() {
        // The same two-CNOT window twice, on lines {0,1} and {2,3}: the
        // broken candidate is raced and refused once, then the second
        // window is answered from the memo.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(1, 0);
        c.cnot(2, 3);
        c.cnot(3, 2);
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&BrokenSynth]).unwrap();
        assert_eq!(out.circuit.gates(), c.gates(), "broken candidate refused");
        assert_eq!(out.stats.windows_attempted, 2);
        assert_eq!(out.stats.memo_hits, 1);
        assert_eq!(
            out.stats.candidates_unsound, 1,
            "counted per raced permutation"
        );
        assert_eq!(out.stats.windows_accepted, 0);
    }

    #[test]
    fn growth_commutes_past_unrelated_gates() {
        // The identity pair on {0,1,2} is split by a gate on {5,6}: only
        // a window that commutes past it can see both halves.
        let mut c = Circuit::new(7);
        c.toffoli(0, 1, 2);
        c.cnot(5, 6);
        c.toffoli(0, 1, 2);
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&IdentitySynth]).unwrap();
        assert_eq!(out.circuit.num_gates(), 1);
        assert_eq!(out.circuit.gates()[0], Gate::cnot(5, 6));
        // With skipping disabled the pair is unreachable again.
        let stuck = resynthesize(
            &c,
            &ResynthOptions {
                max_commute_skips: 0,
                ..Default::default()
            },
            &[&IdentitySynth],
        );
        assert_eq!(stuck.circuit.num_gates(), 3);
    }

    #[test]
    fn poisoned_lines_block_unsound_windows() {
        // The CNOT(0,1) pair would be an identity window, but the gate
        // between them reads line 1 *and* touches the skipped gate's
        // line 4 — joining it past the skipped gate, or pairing the
        // outer CNOTs around it, would both be unsound. Growth must
        // stop at the poisoned gate and leave the cascade alone.
        let mut c = Circuit::new(7);
        c.cnot(0, 1);
        c.cnot(4, 6);
        c.cnot(1, 4);
        c.cnot(0, 1);
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&IdentitySynth]).unwrap();
        assert_eq!(out.circuit.gates(), c.gates(), "no sound identity window");
    }

    #[test]
    fn no_synthesizers_means_no_change() {
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.cnot(2, 3);
        let out = resynthesize(&c, &ResynthOptions::default(), &[]);
        assert_eq!(out.circuit, c);
        assert_eq!(out.stats.windows_accepted, 0);
        assert_eq!(out.stats.passes, 1);
    }

    #[test]
    fn window_support_respects_the_cap() {
        // A spread-out identity pair on lines {0,9}: with max_lines = 2
        // the window still forms (support is 2 lines), and the identity
        // back-end removes it.
        let mut c = Circuit::new(10);
        c.cnot(0, 9);
        c.cnot(0, 9);
        let out = resynthesize(
            &c,
            &ResynthOptions {
                max_lines: 2,
                ..Default::default()
            },
            &[&IdentitySynth],
        );
        assert_eq!(out.circuit.num_gates(), 0);
    }

    #[test]
    fn options_clamp_to_the_hard_cap() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1);
        c.cnot(0, 1);
        let out = resynthesize(
            &c,
            &ResynthOptions {
                max_lines: 99,
                ..Default::default()
            },
            &[&IdentitySynth],
        );
        assert_eq!(out.circuit.num_gates(), 0, "cap clamps, not panics");
    }

    #[test]
    fn back_ends_race_once_per_distinct_permutation() {
        let counter = CountingSynth::default();
        let out = resynthesize(&tiled(5, 0), &ResynthOptions::default(), &[&counter]);
        let s = out.stats;
        assert_eq!(s.windows_attempted, 10);
        assert_eq!(counter.calls(), s.windows_attempted - s.memo_hits);
        assert_eq!(counter.calls(), 2, "two distinct window permutations");
    }

    #[test]
    fn tiled_copies_of_one_window_hit_the_memo() {
        // Four copies of an identity window on disjoint lines: the first
        // is raced, the other three reuse its (empty) candidate.
        let copies = 4;
        let mut c = Circuit::new(3 * copies);
        for i in 0..copies {
            let (a, b, t) = (3 * i, 3 * i + 1, 3 * i + 2);
            c.cnot(a, b);
            c.toffoli(a, b, t);
            c.toffoli(a, b, t);
            c.cnot(a, b);
        }
        let counter = CountingSynth::default();
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&counter]).unwrap();
        assert_eq!(out.circuit.num_gates(), 0);
        assert_eq!(out.stats.windows_accepted, copies as u64);
        assert!(out.stats.memo_hits >= copies as u64 - 1);
        assert_eq!(counter.calls(), 1);
    }

    #[test]
    fn different_permutations_never_share_a_candidate() {
        // Two 2-line windows: an identity (removed) and a swap-like pair
        // that must keep its gates — the memo key is the permutation, not
        // the width.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        c.cnot(0, 1);
        c.cnot(2, 3);
        c.cnot(3, 2);
        let counter = CountingSynth::default();
        let out = resynthesize_checked(&c, &ResynthOptions::default(), &[&counter]).unwrap();
        assert_eq!(
            out.circuit.gates(),
            vec![Gate::cnot(2, 3), Gate::cnot(3, 2)]
        );
        assert_eq!(out.stats.memo_hits, 0);
        assert_eq!(counter.calls(), 2);
    }

    #[test]
    fn every_run_starts_from_an_empty_memo() {
        let counter = CountingSynth::default();
        let c = tiled(3, 0);
        let first = resynthesize(&c, &ResynthOptions::default(), &[&counter]);
        let after_first = counter.calls();
        let second = resynthesize(&c, &ResynthOptions::default(), &[&counter]);
        assert_eq!(first.stats, second.stats);
        assert_eq!(counter.calls() - after_first, after_first);
        assert_eq!(after_first, 2);
    }

    #[test]
    fn only_starts_within_reach_of_a_splice_are_revisited() {
        // Eight rejected copies, then an identity pair on two idle lines.
        // Growth reads no more than 3 + 2 gates ahead, so the splice
        // dirties the 5 starts before it; the second pass re-extracts
        // those and steps over the other 19.
        let mut c = tiled(8, 2);
        c.cnot(24, 25);
        c.cnot(24, 25);
        let options = ResynthOptions {
            max_window_gates: 3,
            max_commute_skips: 2,
            ..Default::default()
        };
        let counter = CountingSynth::default();
        let out = resynthesize_checked(&c, &options, &[&counter]).unwrap();
        let s = out.stats;
        assert_eq!(out.circuit.num_gates(), 24);
        assert_eq!((s.windows_accepted, s.passes), (1, 2));
        assert_eq!(s.clean_skips, 19);
        assert_eq!(s.windows_attempted, 17 + 3);
        assert_eq!(counter.calls(), s.windows_attempted - s.memo_hits);
    }

    /// Two gates per window and one commute-skip: growth from a start
    /// reads at most two gates after it.
    const TIGHT: ResynthOptions = ResynthOptions {
        max_lines: 6,
        max_window_gates: 2,
        max_commute_skips: 1,
    };

    #[test]
    fn a_splice_dirties_the_starts_that_read_it() {
        // Pass 1 rejects CNOT(0,1)·CNOT(1,2) from the first gate, then
        // removes the CNOT(1,2) pair two gates later. The first gate's
        // growth reads that far, so pass 2 revisits it and pairs the two
        // CNOT(0,1) around the skipped CNOT(5,6).
        let mut c = Circuit::new(7);
        c.cnot(0, 1);
        c.cnot(5, 6);
        c.cnot(1, 2);
        c.cnot(1, 2);
        c.cnot(0, 1);
        let out = resynthesize_checked(&c, &TIGHT, &[&IdentitySynth]).unwrap();
        assert_eq!(out.circuit.gates(), vec![Gate::cnot(5, 6)]);
        assert_eq!((out.stats.windows_accepted, out.stats.passes), (2, 3));
    }

    #[test]
    fn a_splice_dirties_the_gates_it_commuted_past() {
        // Pass 2 pairs the CNOT(0,1) around CNOT(5,6) once pass 1 removed
        // the CNOT(1,2) pair between them. That frees CNOT(5,6)'s one skip
        // for CNOT(7,8), so pass 3 must revisit it — although pass 1 found
        // no window there — and pair it with the last gate.
        let mut c = Circuit::new(9);
        c.cnot(0, 1);
        c.cnot(1, 2);
        c.cnot(1, 2);
        c.cnot(5, 6);
        c.cnot(0, 1);
        c.cnot(7, 8);
        c.cnot(5, 6);
        let out = resynthesize_checked(&c, &TIGHT, &[&IdentitySynth]).unwrap();
        assert_eq!(out.circuit.gates(), vec![Gate::cnot(7, 8)]);
        assert_eq!((out.stats.windows_accepted, out.stats.passes), (3, 4));
    }
}
