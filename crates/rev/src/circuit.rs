//! Reversible circuits: cascades of MPMCT gates on a fixed set of lines.
//!
//! Gates are stored **packed** in a [`GateArena`] (each gate's nonzero
//! control/polarity mask words, struct-of-arrays — see
//! [`crate::packed`]); the legacy [`Gate`] view is materialized only at
//! API boundaries via [`Circuit::gates`].
//!
//! A circuit's arena is always **compact**: gate position *k* is slot
//! *k*. Every constructor only appends, and an arena edited by a rewrite
//! pass becomes a circuit only through the crate-private
//! `Circuit::from_arena`, which compacts it — so the batch kernels replay
//! the arena's slots in order ([`crate::batchsim`]).

use crate::batchsim::{apply_slots, consecutive_batches_in, span_jobs, BatchState};
use crate::cost::CircuitCost;
use crate::gate::{Control, Gate};
use crate::packed::{words_for_lines, GateArena};
use crate::state::BitState;
use qda_logic::par;
use std::fmt;
use std::ops::Range;

/// The explicit-permutation width cap: a circuit wider than this cannot
/// be expanded into a `2^n` table.
pub const PERMUTATION_LINE_LIMIT: usize = 24;

/// A circuit was too wide for an explicit `2^n` permutation table.
///
/// Returned by [`Circuit::permutation`] instead of aborting the process;
/// the flow layer surfaces it as a `FlowError` variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooWideError {
    /// The circuit's line count.
    pub lines: usize,
    /// The cap that was exceeded ([`PERMUTATION_LINE_LIMIT`]).
    pub limit: usize,
}

impl fmt::Display for TooWideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "circuit has {} lines; the explicit permutation table is capped at {} lines \
             (use simulate_batch / verify against an oracle instead)",
            self.lines, self.limit
        )
    }
}

impl std::error::Error for TooWideError {}

/// A reversible circuit: `num_lines` lines and a gate cascade.
///
/// # Example
///
/// ```
/// use qda_rev::circuit::Circuit;
///
/// let mut swap = Circuit::new(2);
/// swap.cnot(0, 1);
/// swap.cnot(1, 0);
/// swap.cnot(0, 1);
/// assert_eq!(swap.simulate_u64(0b01), 0b10);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Circuit {
    arena: GateArena,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Circuit {
    /// An empty circuit on `num_lines` lines.
    pub fn new(num_lines: usize) -> Self {
        Self {
            arena: GateArena::new(num_lines),
        }
    }

    /// Wraps an edited arena as a circuit (its live gates become the
    /// cascade, its line count the circuit's), compacting it so the
    /// circuit's gates sit in slots `0..len` in circuit order.
    pub(crate) fn from_arena(mut arena: GateArena) -> Self {
        arena.compact();
        Self { arena }
    }

    /// Number of lines (qubits).
    pub fn num_lines(&self) -> usize {
        self.arena.num_lines()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.arena.len()
    }

    /// The gate cascade in execution order, materialized as legacy
    /// [`Gate`] values (API boundary — allocates; hot paths should walk
    /// [`Circuit::packed`] instead).
    pub fn gates(&self) -> Vec<Gate> {
        self.arena.to_gates()
    }

    /// The packed struct-of-arrays gate storage (see [`crate::packed`]).
    pub fn packed(&self) -> &GateArena {
        &self.arena
    }

    /// Grows the circuit to at least `num_lines` lines.
    pub fn ensure_lines(&mut self, num_lines: usize) {
        if num_lines > self.num_lines() {
            self.arena.grow_lines(num_lines);
        }
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a line outside the circuit.
    pub fn add_gate(&mut self, gate: Gate) {
        assert!(
            gate.max_line() < self.num_lines(),
            "gate {gate} exceeds {} lines",
            self.num_lines()
        );
        self.arena.push(&gate);
    }

    /// Appends the gate given by its dense masks, one `u64` word per 64
    /// lines ([`words_for_lines`]): bit `l % 64` of word `l / 64` of
    /// `ctrl` makes line `l` a control, and the same bit of `pol` makes
    /// that control positive. The arena keeps the nonzero words only
    /// ([`crate::packed`]), written straight from the masks — no control
    /// list is built.
    ///
    /// # Panics
    ///
    /// Panics on what [`Gate::mct`] and [`Circuit::add_gate`] reject: a
    /// controlled target, a polarity bit outside the control mask, or a
    /// line not below [`Circuit::num_lines`]; also on masks of another
    /// word count.
    pub fn add_masks(&mut self, ctrl: &[u64], pol: &[u64], target: usize) {
        let n = self.num_lines();
        assert!(
            ctrl.len() == words_for_lines(n) && pol.len() == ctrl.len(),
            "gate masks must have {} words for {n} lines",
            words_for_lines(n)
        );
        for (w, (&c, &p)) in ctrl.iter().zip(pol).enumerate() {
            let lines_here = n.saturating_sub(w * 64).min(64);
            let in_range = if lines_here == 64 {
                u64::MAX
            } else {
                (1u64 << lines_here) - 1
            };
            assert!(c & !in_range == 0, "gate exceeds {n} lines");
            assert!(p & !c == 0, "polarity bits outside the control mask");
        }
        assert!(target < n, "gate exceeds {n} lines");
        assert!(
            (ctrl[target / 64] >> (target % 64)) & 1 == 0,
            "target {target} cannot be controlled"
        );
        let target = u32::try_from(target).expect("line indices fit in u32");
        self.arena.push_masks(ctrl, pol, target);
    }

    /// Appends a NOT gate.
    pub fn not(&mut self, target: usize) {
        self.add_gate(Gate::not(target));
    }

    /// Appends a CNOT gate.
    pub fn cnot(&mut self, control: usize, target: usize) {
        self.add_gate(Gate::cnot(control, target));
    }

    /// Appends a Toffoli gate (two positive controls).
    pub fn toffoli(&mut self, c1: usize, c2: usize, target: usize) {
        self.add_gate(Gate::toffoli(c1, c2, target));
    }

    /// Appends a general MPMCT gate.
    pub fn mct(&mut self, controls: Vec<Control>, target: usize) {
        self.add_gate(Gate::mct(controls, target));
    }

    /// Appends a SWAP of two lines (three CNOTs).
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Appends every gate of `other` (same line space).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more lines than `self`.
    pub fn extend_from(&mut self, other: &Circuit) {
        assert!(other.num_lines() <= self.num_lines(), "line-space mismatch");
        self.arena
            .extend_from_slots(&other.arena, 0..other.num_gates());
    }

    /// The inverse circuit. MPMCT gates are self-inverse, so this is just
    /// the reversed cascade.
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        let mut arena = GateArena::new(self.num_lines());
        for id in (0..self.num_gates()).rev() {
            arena.push_view(self.arena.gate(id));
        }
        Circuit { arena }
    }

    /// Simulates the circuit on a state (in place).
    pub fn apply(&self, state: &mut BitState) {
        for (_, g) in self.arena.iter() {
            state.apply_packed(&g);
        }
    }

    /// Simulates on a ≤64-line input word, returning the output word.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than 64 lines.
    pub fn simulate_u64(&self, input: u64) -> u64 {
        assert!(self.num_lines() <= 64, "too many lines for u64 simulation");
        let mut s = input;
        for (_, g) in self.arena.iter() {
            if g.fires_words(std::slice::from_ref(&s)) {
                s ^= 1 << g.target();
            }
        }
        s
    }

    /// Simulates the circuit on a batch of states (in place) with the
    /// vectorized block-major kernels of [`crate::batchsim`], which replay
    /// the arena's slots where they are.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more lines than the batch.
    pub fn apply_batch(&self, state: &mut BatchState) {
        self.apply_batch_gates(state, 0..self.num_gates());
    }

    /// Applies the gates at positions `gates` (in circuit order) to every
    /// state of the batch: a segment of [`Circuit::apply_batch`], for
    /// sweeps that inspect or edit the lanes between gates.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more lines than the batch, or the range
    /// runs past the last gate.
    pub fn apply_batch_gates(&self, state: &mut BatchState, gates: Range<usize>) {
        apply_slots(&self.arena, state, gates);
    }

    /// Simulates many ≤64-line input words at once with the bit-parallel
    /// engine, returning one output word per input (in input order).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than 64 lines.
    pub fn simulate_batch(&self, inputs: &[u64]) -> Vec<u64> {
        assert!(self.num_lines() <= 64, "too many lines for u64 simulation");
        if inputs.is_empty() {
            return Vec::new();
        }
        let all_lines: Vec<usize> = (0..self.num_lines()).collect();
        let mut state = BatchState::zeros(self.num_lines(), inputs.len());
        state.load_register(&all_lines, inputs);
        self.apply_batch(&mut state);
        state.read_register(&all_lines)
    }

    /// The permutation the circuit realizes over all `2^n` basis states,
    /// computed in bit-parallel batches sharded across the worker pool
    /// (`qda_logic::par`): each pool job sweeps one span of consecutive
    /// batches with a single reused [`BatchState`], and the spans are
    /// concatenated in index order — the table is byte-identical at any
    /// worker count. The consecutive input blocks are synthesized
    /// directly into the batch lanes ([`BatchState::load_consecutive`])
    /// — no input vector is ever materialized.
    ///
    /// # Errors
    ///
    /// Returns [`TooWideError`] if the circuit has more than
    /// [`PERMUTATION_LINE_LIMIT`] lines: the explicit table would not fit
    /// in memory, and for ≥ 64 lines the `2^n` size computation would
    /// silently wrap in release builds (returning a one-entry
    /// "permutation" at exactly 64 lines).
    pub fn permutation(&self) -> Result<Vec<u64>, TooWideError> {
        if self.num_lines() > PERMUTATION_LINE_LIMIT {
            return Err(TooWideError {
                lines: self.num_lines(),
                limit: PERMUTATION_LINE_LIMIT,
            });
        }
        let size = 1u64 << self.num_lines();
        let all_lines: Vec<usize> = (0..self.num_lines()).collect();
        let (span, jobs) = span_jobs(size);
        let chunks = par::run_indexed(jobs, |job| {
            let lo = job as u64 * span;
            let hi = (lo + span).min(size);
            let mut out = Vec::with_capacity((hi - lo) as usize);
            let mut state = BatchState::zeros(self.num_lines(), 0);
            for (base, count) in consecutive_batches_in(lo, hi) {
                state.reset(count);
                state.load_consecutive(&all_lines, base);
                self.apply_batch(&mut state);
                out.extend(state.read_register(&all_lines));
            }
            out
        });
        let mut perm = Vec::with_capacity(size as usize);
        for chunk in chunks {
            perm.extend(chunk);
        }
        Ok(perm)
    }

    /// Cost summary.
    pub fn cost(&self) -> CircuitCost {
        CircuitCost::of(self)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} lines:", self.num_lines())?;
        for g in self.gates() {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

/// Allocates and recycles ancilla lines, tracking the high-water mark.
///
/// Synthesis back-ends that clean up intermediate results (the REVS
/// strategies of the paper) release lines back to the allocator so later
/// computations can reuse them; the final qubit count is the high-water
/// mark, not the total allocation count.
///
/// # Example
///
/// ```
/// use qda_rev::circuit::LineAllocator;
///
/// let mut alloc = LineAllocator::new(3); // lines 0..3 pre-assigned
/// let a = alloc.alloc();
/// let b = alloc.alloc();
/// alloc.release(a);
/// let c = alloc.alloc(); // reuses a
/// assert_eq!(c, a);
/// assert_eq!(alloc.high_water(), 5);
/// # let _ = b;
/// ```
#[derive(Clone, Debug)]
pub struct LineAllocator {
    reserved: usize,
    next: usize,
    high_water: usize,
    free: Vec<usize>,
    /// `in_free[line - reserved]`: whether the line currently sits in the
    /// free pool. Backs the O(1) double-release check in
    /// [`LineAllocator::release`].
    in_free: Vec<bool>,
    /// `(line, gate position)` pairs recorded by
    /// [`LineAllocator::release_at`], in release order. The static
    /// lifecycle analysis (`qda-analyze`) replays these to prove each
    /// released line was uncomputed and never touched again.
    events: Vec<(usize, usize)>,
}

impl LineAllocator {
    /// Creates an allocator whose first fresh line is `reserved`.
    pub fn new(reserved: usize) -> Self {
        Self {
            reserved,
            next: reserved,
            high_water: reserved,
            free: Vec::new(),
            in_free: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Allocates a zero-initialized line (callers must return lines to the
    /// free list only when they are restored to zero).
    pub fn alloc(&mut self) -> usize {
        if let Some(l) = self.free.pop() {
            self.in_free[l - self.reserved] = false;
            return l;
        }
        let l = self.next;
        self.next += 1;
        self.in_free.push(false);
        self.high_water = self.high_water.max(self.next);
        l
    }

    /// Allocates `k` lines.
    pub fn alloc_many(&mut self, k: usize) -> Vec<usize> {
        (0..k).map(|_| self.alloc()).collect()
    }

    /// Returns a clean (zero) line to the pool.
    ///
    /// # Panics
    ///
    /// Panics — in every build profile — on a double release or on
    /// releasing a line this allocator never produced. Either would hand
    /// the same "clean" ancilla to two owners later, silently synthesizing
    /// aliased, wrong circuits.
    pub fn release(&mut self, line: usize) {
        assert!(
            line >= self.reserved && line < self.next,
            "release of line {line}, which this allocator never produced \
             (fresh lines are {}..{})",
            self.reserved,
            self.next
        );
        assert!(
            !self.in_free[line - self.reserved],
            "double release of line {line}: it would be handed out to two owners"
        );
        self.in_free[line - self.reserved] = true;
        self.free.push(line);
    }

    /// Returns many lines to the pool.
    pub fn release_many<I: IntoIterator<Item = usize>>(&mut self, lines: I) {
        for l in lines {
            self.release(l);
        }
    }

    /// [`LineAllocator::release`], additionally recording that the release
    /// happened after `gate_position` gates of the circuit under
    /// construction. The recorded schedule ([`LineAllocator::release_events`])
    /// lets the static lifecycle analysis check release discipline —
    /// use-after-release and release-of-live — against the built circuit.
    ///
    /// # Panics
    ///
    /// As [`LineAllocator::release`].
    pub fn release_at(&mut self, line: usize, gate_position: usize) {
        self.release(line);
        self.events.push((line, gate_position));
    }

    /// The `(line, gate position)` release schedule recorded by
    /// [`LineAllocator::release_at`], in release order.
    pub fn release_events(&self) -> &[(usize, usize)] {
        &self.events
    }

    /// Highest number of simultaneously live lines seen so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuit_is_reversible() {
        let mut c = Circuit::new(4);
        c.not(0);
        c.cnot(0, 1);
        c.toffoli(1, 2, 3);
        c.swap(0, 3);
        let inv = c.inverse();
        for x in 0..16u64 {
            assert_eq!(inv.simulate_u64(c.simulate_u64(x)), x);
        }
    }

    #[test]
    fn permutation_is_bijective() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.cnot(2, 0);
        c.not(1);
        let perm = c.permutation().expect("3 lines is within the cap");
        let mut seen = [false; 8];
        for &y in &perm {
            assert!(!seen[y as usize], "not a permutation");
            seen[y as usize] = true;
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_out_of_range_gates() {
        let mut c = Circuit::new(2);
        c.toffoli(0, 1, 2);
    }

    #[test]
    fn add_masks_appends_what_add_gate_appends() {
        // Controls 1 (positive), 4 and 69 (negative), target 3.
        let mut a = Circuit::new(70);
        a.add_masks(&[0b1_0010, 1 << 5], &[0b10, 0], 3);
        let mut b = Circuit::new(70);
        b.mct(
            vec![
                Control::positive(1),
                Control::negative(4),
                Control::negative(69),
            ],
            3,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot be controlled")]
    fn add_masks_rejects_a_controlled_target() {
        Circuit::new(2).add_masks(&[0b11], &[0b01], 1);
    }

    #[test]
    #[should_panic(expected = "polarity bits outside the control mask")]
    fn add_masks_rejects_polarity_without_control() {
        Circuit::new(3).add_masks(&[0b001], &[0b100], 1);
    }

    #[test]
    #[should_panic(expected = "exceeds 3 lines")]
    fn add_masks_rejects_out_of_range_controls() {
        Circuit::new(3).add_masks(&[0b1001], &[0], 1);
    }

    #[test]
    fn wide_simulation_matches_narrow() {
        let mut c = Circuit::new(8);
        c.not(7);
        c.toffoli(7, 0, 3);
        let mut s = BitState::from_u64(8, 0b0000_0001);
        c.apply(&mut s);
        assert_eq!(s.to_u64(), c.simulate_u64(0b0000_0001));
    }

    #[test]
    fn allocator_records_release_events() {
        let mut a = LineAllocator::new(1);
        let x = a.alloc();
        let y = a.alloc();
        a.release_at(x, 7);
        a.release_at(y, 9);
        assert_eq!(a.release_events(), &[(x, 7), (y, 9)]);
        assert_eq!(a.alloc(), y, "release_at really frees the line");
        assert_eq!(
            LineAllocator::new(3).release_events(),
            &[] as &[(usize, usize)]
        );
    }

    #[test]
    fn allocator_reuse_and_high_water() {
        let mut a = LineAllocator::new(2);
        let x = a.alloc();
        let y = a.alloc();
        assert_eq!((x, y), (2, 3));
        a.release(x);
        assert_eq!(a.alloc(), 2);
        assert_eq!(a.high_water(), 4);
        let more = a.alloc_many(3);
        assert_eq!(more.len(), 3);
        assert_eq!(a.high_water(), 7);
    }
}
