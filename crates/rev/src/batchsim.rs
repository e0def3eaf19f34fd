//! Bit-parallel batch simulation of reversible circuits.
//!
//! [`crate::state::BitState`] replays one basis state at a time. This
//! module keeps the **transposed** representation instead: one machine
//! word per circuit *line*, where bit *k* of each word belongs to parallel
//! state *k*. An MPMCT gate then applies to 64 states at once as
//!
//! ```text
//! fire = AND over controls of (control lane ⊕ polarity)
//! target lane ^= fire
//! ```
//!
//! and with multi-word lanes (`words_per_line > 1`) to arbitrarily many
//! states — the same word-parallel trick `qda-logic`'s truth tables
//! exploit, turned into a simulation engine. [`crate::equiv`] uses it to
//! make functional verification ~64× faster than scalar replay; the
//! `verify_bench` binary of `qda-bench` measures the exact factor.
//!
//! # Sweeps
//!
//! One block-major kernel pair replays a circuit from its own arena. A
//! [`Circuit`](crate::circuit::Circuit) keeps its [`GateArena`] compact,
//! so gate position *k* is slot *k*, and the kernels read each slot's
//! target and nonzero control-mask words in place, in slot order — no
//! links, no liveness checks, no copy.
//! [`Circuit::apply_batch`](crate::circuit::Circuit::apply_batch) applies
//! the whole circuit to a [`BatchState`] and
//! [`Circuit::apply_batch_gates`](crate::circuit::Circuit::apply_batch_gates)
//! a range of its gates; every sweep shares its circuits by reference
//! across batches and pool jobs.
//!
//! Every bit-parallel equivalence check of the crate (flow verification
//! in [`crate::equiv`], the soundness gate
//! [`crate::opt::equivalence_witness_assuming`]) runs on two crate-private
//! drivers that keep the first failure: `first_exhaustive` enumerates a
//! register's assignments in fixed spans of consecutive batches, and
//! `first_sampled` checks seeded values pre-drawn per batch and per
//! 64-line chunk. Jobs fold in index order, so a witness never depends on
//! the worker count. [`crate::circuit::Circuit::permutation`] is the one
//! map-style sweep.
//!
//! # Example
//!
//! ```
//! use qda_rev::batchsim::BatchState;
//! use qda_rev::circuit::Circuit;
//!
//! let mut c = Circuit::new(3);
//! c.cnot(0, 2);
//! c.cnot(1, 2);
//! // All eight 2-bit inputs at once.
//! let inputs: Vec<u64> = (0..8).collect();
//! let mut batch = BatchState::zeros(3, inputs.len());
//! batch.load_register(&[0, 1, 2], &inputs);
//! c.apply_batch(&mut batch);
//! let out = batch.read_register(&[2]);
//! assert_eq!(out[0b01], 1); // 0 ^ 1
//! assert_eq!(out[0b11], 0); // 1 ^ 1
//! ```

use crate::packed::{GateArena, MaskWord};
use qda_logic::par;
use qda_logic::tt::var_word;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::Range;

/// Default batch granularity for chunked bit-parallel runs (16 words per
/// lane): large enough to amortize the per-gate dispatch over the gate
/// list, small enough to keep a batch of a many-line circuit in cache.
pub const BATCH_STATES: usize = 1024;

/// Lane words per vectorized kernel step: the hot gate-application loops
/// of [`Circuit::apply_batch`](crate::circuit::Circuit::apply_batch)
/// process fixed `[u64; LANE_CHUNK]` blocks (512 bits — one or two SIMD
/// registers on every current target) with no per-gate branch in the
/// inner loop, so the compiler auto-vectorizes them. A full
/// [`BATCH_STATES`] batch is exactly two chunks per lane.
pub const LANE_CHUNK: usize = 8;

/// The consecutive inputs `start..end` as `(base, count)` ranges, chunked
/// [`BATCH_STATES`] at a time (the batches of the sweep drivers and of
/// permutation extraction; `start` must be
/// [`BATCH_STATES`]-aligned so every batch base stays word-aligned for
/// [`BatchState::load_consecutive`]). The ranges are pure arithmetic — no
/// input vector is materialized; callers synthesize the lanes directly
/// with [`BatchState::load_consecutive`].
pub(crate) fn consecutive_batches_in(start: u64, end: u64) -> impl Iterator<Item = (u64, usize)> {
    debug_assert!(start.is_multiple_of(BATCH_STATES as u64));
    let mut base = start;
    std::iter::from_fn(move || {
        if base >= end {
            return None;
        }
        let count = (end - base).min(BATCH_STATES as u64) as usize;
        let range = (base, count);
        base += count as u64;
        Some(range)
    })
}

/// Consecutive batches grouped into spans for pool sharding: each worker
/// job sweeps this many [`BATCH_STATES`] batches with one reused
/// [`BatchState`], so sharding costs one allocation per *job* instead of
/// one per batch. The span size is fixed — never derived from the worker
/// count — so the job structure (and hence every fold order and witness)
/// is identical at any parallelism.
pub(crate) const SPAN_BATCHES: u64 = 4;

/// Splits `0..total` into [`SPAN_BATCHES`]-batch spans; returns the span
/// width in states and the number of spans. Span `j` covers
/// `j * width .. min((j + 1) * width, total)`.
pub(crate) fn span_jobs(total: u64) -> (u64, usize) {
    let width = BATCH_STATES as u64 * SPAN_BATCHES;
    (
        width,
        usize::try_from(total.div_ceil(width)).expect("span count fits usize"),
    )
}

/// The start values of one batch of a sweep, handed to each check so it
/// can re-derive a start state after the circuit has overwritten the
/// lanes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Starts<'a> {
    /// State `k` assigns `base + k` to the register (exhaustive sweeps;
    /// the register fits one chunk).
    Consecutive(u64),
    /// State `k` assigns `drawn[c][k]` to the register's `c`-th 64-line
    /// chunk (sampled sweeps).
    Drawn(&'a [Vec<u64>]),
}

impl Starts<'_> {
    /// The value of register chunk `chunk` in state `k`.
    pub(crate) fn value(self, chunk: usize, k: usize) -> u64 {
        match self {
            Starts::Consecutive(base) => {
                debug_assert_eq!(chunk, 0, "consecutive registers fit one chunk");
                base + k as u64
            }
            Starts::Drawn(drawn) => drawn[chunk][k],
        }
    }

    /// Start state `k` on `num_lines` lines (the register's lines set as
    /// loaded, every other line zero), one word per 64-line chunk: line
    /// `l` is bit `l % 64` of word `l / 64`.
    pub(crate) fn state_words(self, register: &[usize], num_lines: usize, k: usize) -> Vec<u64> {
        let mut words = vec![0u64; num_lines.div_ceil(64)];
        for (c, lines) in register.chunks(64).enumerate() {
            let value = self.value(c, k);
            for (i, &line) in lines.iter().enumerate() {
                words[line / 64] |= (value >> i & 1) << (line % 64);
            }
        }
        words
    }
}

/// Sweeps every assignment of `register` (all other lines zero) through
/// a check and returns the first hit in assignment order.
///
/// The `2^len` assignments run as [`span_jobs`] spans on the pool. Each
/// span job builds one check with `make_check` and one [`BatchState`] of
/// `num_lines` lines, reused for each of its [`BATCH_STATES`]-state
/// batches: reset, loaded with consecutive assignments, then handed to
/// the check, which may overwrite the lanes. Spans fold in index order,
/// so the hit is the serial sweep's at any worker count.
///
/// # Panics
///
/// Panics if the register has 64 or more lines: `2^64` assignments
/// cannot be enumerated, and a wrapped `1 << 64` would check one state.
pub(crate) fn first_exhaustive<T, C>(
    num_lines: usize,
    register: &[usize],
    make_check: impl Fn() -> C + Sync,
) -> Option<T>
where
    T: Send,
    C: FnMut(&mut BatchState, Starts<'_>) -> Option<T>,
{
    assert!(
        register.len() < 64,
        "cannot enumerate the 2^{} assignments of a {}-line register",
        register.len(),
        register.len()
    );
    let total = 1u64 << register.len();
    let (width, jobs) = span_jobs(total);
    let spans = par::run_indexed(jobs, |job| {
        let lo = job as u64 * width;
        let mut check = make_check();
        let mut state = BatchState::zeros(num_lines, 0);
        consecutive_batches_in(lo, (lo + width).min(total)).find_map(|(base, count)| {
            state.reset(count);
            state.load_consecutive(register, base);
            check(&mut state, Starts::Consecutive(base))
        })
    });
    spans.into_iter().flatten().next()
}

/// Sweeps `samples` seeded random assignments of `register` (all other
/// lines zero) through a check and returns the first hit in draw order.
///
/// Every value is drawn up front from `StdRng::seed_from_u64(seed)`, in
/// the order a serial loop would draw them: per [`BATCH_STATES`]-state
/// batch, per 64-line chunk of the register, one value per state, masked
/// to the chunk's width. Each batch is one pool job with its own check
/// (from `make_check`) and [`BatchState`]; batches fold in draw order, so
/// the hit is the serial sweep's at any worker count.
pub(crate) fn first_sampled<T, C>(
    num_lines: usize,
    register: &[usize],
    seed: u64,
    samples: u64,
    make_check: impl Fn() -> C + Sync,
) -> Option<T>
where
    T: Send,
    C: FnMut(&mut BatchState, Starts<'_>) -> Option<T>,
{
    let chunks: Vec<&[usize]> = register.chunks(64).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let batches: Vec<(usize, Vec<Vec<u64>>)> = consecutive_batches_in(0, samples)
        .map(|(_, count)| {
            let drawn = chunks
                .iter()
                .map(|lines| {
                    let mask = u64::MAX >> (64 - lines.len());
                    (0..count).map(|_| rng.gen::<u64>() & mask).collect()
                })
                .collect();
            (count, drawn)
        })
        .collect();
    let hits = par::run_indexed(batches.len(), |b| {
        let (count, drawn) = &batches[b];
        let mut state = BatchState::zeros(num_lines, *count);
        for (lines, values) in chunks.iter().zip(drawn) {
            state.load_register(lines, values);
        }
        make_check()(&mut state, Starts::Drawn(drawn))
    });
    hits.into_iter().flatten().next()
}

/// In-place 64×64 bit-matrix transpose (masked delta swaps, LSB-first:
/// bit `c` of `a[r]` ↔ bit `r` of `a[c]`). This is the fast path between
/// the state-major world (one input/output word per state) and the
/// transposed lane world — ~10× fewer operations than moving each bit
/// individually.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// `num_states` classical assignments to the lines of a reversible
/// circuit, stored transposed: per line, `words_per_line` words whose bit
/// *k* (of word *w*) is the value of that line in state `w * 64 + k`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchState {
    num_lines: usize,
    num_states: usize,
    words_per_line: usize,
    /// Line-major lanes: `lanes[line * words_per_line + w]`.
    lanes: Vec<u64>,
}

impl BatchState {
    /// The all-zero batch of `num_states` states on `num_lines` lines.
    pub fn zeros(num_lines: usize, num_states: usize) -> Self {
        let words_per_line = num_states.div_ceil(64).max(1);
        Self {
            num_lines,
            num_states,
            words_per_line,
            lanes: vec![0; num_lines * words_per_line],
        }
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Resets the batch to all-zero lanes for `num_states` states,
    /// **reusing** the lane allocation (capacity permitting). This is the
    /// buffer-recycling entry point of the exhaustive sweep driver and of
    /// permutation extraction: one `BatchState` per span job, reset per
    /// batch, instead of a fresh heap allocation per batch.
    pub fn reset(&mut self, num_states: usize) {
        self.num_states = num_states;
        self.words_per_line = num_states.div_ceil(64).max(1);
        self.lanes.clear();
        self.lanes.resize(self.num_lines * self.words_per_line, 0);
    }

    /// Makes `self` a copy of `other`, reusing the lane allocation (the
    /// allocation-free counterpart of `clone()` for snapshot-and-replay
    /// loops).
    pub fn copy_from(&mut self, other: &Self) {
        self.num_lines = other.num_lines;
        self.num_states = other.num_states;
        self.words_per_line = other.words_per_line;
        self.lanes.clear();
        self.lanes.extend_from_slice(&other.lanes);
    }

    /// Number of parallel states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Words per lane (`ceil(num_states / 64)`, at least 1).
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// The lane of one line: `words_per_line` words, state-bit packed.
    ///
    /// Bits at positions `>= num_states` of the last word are *phantom*
    /// states: gate application computes them like any other bit, so
    /// callers comparing whole lanes must mask with [`BatchState::word_mask`].
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn lane(&self, line: usize) -> &[u64] {
        assert!(line < self.num_lines, "line {line} out of range");
        &self.lanes[line * self.words_per_line..(line + 1) * self.words_per_line]
    }

    /// Mask of the valid (non-phantom) state bits of lane word `w`.
    pub fn word_mask(&self, w: usize) -> u64 {
        debug_assert!(w < self.words_per_line);
        let full_words = self.num_states / 64;
        if w < full_words {
            u64::MAX
        } else {
            // Only reachable for the tail word (or an empty batch).
            (1u64 << (self.num_states % 64)) - 1
        }
    }

    /// The first state in which `self` and a same-shape batch differ on
    /// any line (phantom states ignored). The differences are ORed over
    /// all lines one [`LANE_CHUNK`]-word block at a time, lowest block
    /// first, in a stack array.
    pub(crate) fn first_difference(&self, other: &Self) -> Option<usize> {
        debug_assert_eq!(
            (self.num_lines, self.num_states),
            (other.num_lines, other.num_states)
        );
        let wpl = self.words_per_line;
        (0..wpl).step_by(LANE_CHUNK).find_map(|base| {
            let len = LANE_CHUNK.min(wpl - base);
            let mut diff = [0u64; LANE_CHUNK];
            for line in 0..self.num_lines {
                let at = line * wpl + base;
                let (a, b) = (&self.lanes[at..at + len], &other.lanes[at..at + len]);
                for ((d, x), y) in diff.iter_mut().zip(a).zip(b) {
                    *d |= x ^ y;
                }
            }
            diff[..len].iter().enumerate().find_map(|(i, &d)| {
                let w = base + i;
                let d = d & self.word_mask(w);
                (d != 0).then(|| w * 64 + d.trailing_zeros() as usize)
            })
        })
    }

    /// State `state` over all lines, one word per 64-line chunk: line `l`
    /// is bit `l % 64` of word `l / 64`.
    pub(crate) fn state_words(&self, state: usize) -> Vec<u64> {
        let mut words = vec![0u64; self.num_lines.div_ceil(64)];
        for line in 0..self.num_lines {
            words[line / 64] |= u64::from(self.get(line, state)) << (line % 64);
        }
        words
    }

    /// Value of `line` in state `state`.
    ///
    /// # Panics
    ///
    /// Panics if `line` or `state` is out of range.
    pub fn get(&self, line: usize, state: usize) -> bool {
        assert!(line < self.num_lines, "line {line} out of range");
        assert!(state < self.num_states, "state {state} out of range");
        (self.lanes[line * self.words_per_line + (state >> 6)] >> (state & 63)) & 1 == 1
    }

    /// Sets `line` in state `state`.
    ///
    /// # Panics
    ///
    /// Panics if `line` or `state` is out of range.
    pub fn set(&mut self, line: usize, state: usize, value: bool) {
        assert!(line < self.num_lines, "line {line} out of range");
        assert!(state < self.num_states, "state {state} out of range");
        let idx = line * self.words_per_line + (state >> 6);
        if value {
            self.lanes[idx] |= 1 << (state & 63);
        } else {
            self.lanes[idx] &= !(1 << (state & 63));
        }
    }

    /// Writes one input word per state into a register of lines
    /// (`lines[0]` = least-significant bit, like
    /// [`crate::state::BitState::write_register`]; bits of a value beyond
    /// `lines.len()` are ignored). This is the transpose step: bit *i* of
    /// `values[k]` becomes bit *k* of the lane of `lines[i]`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 lines are addressed, a line is out of
    /// range, or `values.len() != num_states`.
    pub fn load_register(&mut self, lines: &[usize], values: &[u64]) {
        assert!(lines.len() <= 64, "register too wide");
        assert_eq!(values.len(), self.num_states, "one value per state");
        for &line in lines {
            assert!(line < self.num_lines, "line {line} out of range");
        }
        let mut tile = [0u64; 64];
        for (w, chunk) in values.chunks(64).enumerate() {
            tile[..chunk.len()].copy_from_slice(chunk);
            tile[chunk.len()..].fill(0);
            transpose64(&mut tile);
            for (i, &line) in lines.iter().enumerate() {
                self.lanes[line * self.words_per_line + w] = tile[i];
            }
        }
    }

    /// Loads the consecutive values `base..base + num_states` into a
    /// register of lines without materializing them: value-bit `i` of a
    /// consecutive run is a closed-form lane word (a fixed periodic
    /// pattern for bits 0–5, a constant word for higher bits), so each
    /// lane is synthesized directly — no per-state loop, no transpose,
    /// no input vector.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 lines are addressed, a line is out of
    /// range, or `base` is not a multiple of 64 (consecutive loads start
    /// on a lane-word boundary; `consecutive_batches_in` guarantees this).
    pub fn load_consecutive(&mut self, lines: &[usize], base: u64) {
        assert!(lines.len() <= 64, "register too wide");
        assert_eq!(base % 64, 0, "consecutive loads start on a word boundary");
        for &line in lines {
            assert!(line < self.num_lines, "line {line} out of range");
        }
        for (i, &line) in lines.iter().enumerate() {
            let lane_start = line * self.words_per_line;
            for w in 0..self.words_per_line {
                let word_base = base + 64 * w as u64;
                // Bits 0–5 cycle faster than a word: their lanes are the
                // fixed projection patterns.
                let word = if i < 6 {
                    var_word(i, 0)
                } else if (word_base >> i) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                };
                self.lanes[lane_start + w] = word & self.word_mask(w);
            }
        }
    }

    /// Reads one output word per state from a register of lines (the
    /// inverse transpose of [`BatchState::load_register`]).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 lines are requested or a line is out of
    /// range.
    pub fn read_register(&self, lines: &[usize]) -> Vec<u64> {
        assert!(lines.len() <= 64, "register too wide");
        for &line in lines {
            assert!(line < self.num_lines, "line {line} out of range");
        }
        let mut values = vec![0u64; self.num_states];
        let mut tile = [0u64; 64];
        for (w, chunk) in values.chunks_mut(64).enumerate() {
            for (i, &line) in lines.iter().enumerate() {
                tile[i] = self.lanes[line * self.words_per_line + w];
            }
            tile[lines.len()..].fill(0);
            transpose64(&mut tile);
            chunk.copy_from_slice(&tile[..chunk.len()]);
        }
        values
    }

    /// Sets `line` to 0 in every state.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn clear_lane(&mut self, line: usize) {
        assert!(line < self.num_lines, "line {line} out of range");
        let wpl = self.words_per_line;
        self.lanes[line * wpl..(line + 1) * wpl].fill(0);
    }

    /// Whether `line` is 1 in some valid (non-phantom) state.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn lane_is_nonzero(&self, line: usize) -> bool {
        let lane = self.lane(line);
        lane.iter()
            .enumerate()
            .any(|(w, &word)| word & self.word_mask(w) != 0)
    }
}

/// Applies slots `gates` of a circuit's arena (its gates at those
/// positions — [`crate::circuit::Circuit`] keeps its arena compact) to
/// every state, block-major: for each [`LANE_CHUNK`]-word block of the
/// lanes, every gate of the range is applied to that block before moving
/// on (states are independent, so the per-block order is immaterial —
/// but the block's lane words stay hot in cache across the range). The
/// inner loops run over fixed `[u64; LANE_CHUNK]` arrays with the
/// control polarity folded into a branchless XOR mask, so they
/// auto-vectorize; nothing is allocated.
///
/// # Panics
///
/// Panics if the arena's line space exceeds the batch's, or the range
/// runs past the last gate.
pub(crate) fn apply_slots(arena: &GateArena, state: &mut BatchState, gates: Range<usize>) {
    assert!(
        arena.num_lines() <= state.num_lines,
        "circuit on {} lines exceeds the {}-line batch",
        arena.num_lines(),
        state.num_lines
    );
    assert!(
        gates.end <= arena.len(),
        "gate range {gates:?} runs past the {}-gate circuit",
        arena.len()
    );
    debug_assert_eq!(arena.slot_count(), arena.len(), "the arena is compact");
    let wpl = state.words_per_line;
    let full = wpl - wpl % LANE_CHUNK;
    let lanes = &mut state.lanes;
    for base in (0..full).step_by(LANE_CHUNK) {
        for g in gates.clone() {
            apply_chunk(arena.slot(g), lanes, wpl, base);
        }
    }
    if full < wpl {
        for g in gates {
            apply_tail(arena.slot(g), lanes, wpl, full, wpl - full);
        }
    }
}

/// Calls `f(line, inv)` for each control in a gate's entries, where
/// `inv` is `0` for a positive control and `!0` for a negative one. The
/// kernels take this closure form: it replays measurably faster than an
/// iterator chain over the words.
#[inline]
fn for_each_control(words: &[MaskWord], mut f: impl FnMut(usize, u64)) {
    for w in words {
        let first = w.index as usize * 64;
        let mut bits = w.ctrl;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            f(first + b as usize, ((w.pol >> b) & 1).wrapping_sub(1));
        }
    }
}

/// Applies the gate with entries `words` and target `target` to the
/// full-width lane block at word offset `base`: fixed-size loops,
/// branchless polarity (`lane ^ inv` with `inv ∈ {0, !0}`), no bounds
/// checks surviving into the loop body.
#[inline]
fn apply_chunk((words, target): (&[MaskWord], u32), lanes: &mut [u64], wpl: usize, base: usize) {
    let mut fire = [u64::MAX; LANE_CHUNK];
    for_each_control(words, |line, inv| {
        let start = line * wpl + base;
        let lane: &[u64; LANE_CHUNK] = lanes[start..start + LANE_CHUNK]
            .try_into()
            .expect("chunk is LANE_CHUNK words");
        for k in 0..LANE_CHUNK {
            fire[k] &= lane[k] ^ inv;
        }
    });
    let start = target as usize * wpl + base;
    let target: &mut [u64; LANE_CHUNK] = (&mut lanes[start..start + LANE_CHUNK])
        .try_into()
        .expect("chunk is LANE_CHUNK words");
    for k in 0..LANE_CHUNK {
        target[k] ^= fire[k];
    }
}

/// Applies a gate to the ragged tail block (`len < LANE_CHUNK` words at
/// offset `base`) — same branchless shape, variable width.
#[inline]
fn apply_tail(
    (words, target): (&[MaskWord], u32),
    lanes: &mut [u64],
    wpl: usize,
    base: usize,
    len: usize,
) {
    let mut fire = [u64::MAX; LANE_CHUNK];
    for_each_control(words, |line, inv| {
        let start = line * wpl + base;
        for (f, lane) in fire.iter_mut().zip(&lanes[start..start + len]) {
            *f &= lane ^ inv;
        }
    });
    let start = target as usize * wpl + base;
    for (lane, f) in lanes[start..start + len].iter_mut().zip(&fire) {
        *lane ^= f;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::{Control, Gate};
    use crate::state::BitState;

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut tile = [0u64; 64];
        for (r, row) in tile.iter_mut().enumerate() {
            *row = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1 << (r % 64));
        }
        let original = tile;
        transpose64(&mut tile);
        for (r, &row) in tile.iter().enumerate() {
            for (c, &col) in original.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "element ({r},{c})");
            }
        }
        transpose64(&mut tile);
        assert_eq!(tile, original, "transpose is an involution");
    }

    #[test]
    fn transposed_register_round_trip() {
        let values: Vec<u64> = (0..100).map(|k| k * 37 % 256).collect();
        let lines: Vec<usize> = (2..10).collect();
        let mut b = BatchState::zeros(12, values.len());
        b.load_register(&lines, &values);
        assert_eq!(b.words_per_line(), 2);
        assert_eq!(b.read_register(&lines), values);
        // Spot-check the transposition itself.
        assert_eq!(b.get(2, 3), values[3] & 1 == 1);
        assert_eq!(b.get(9, 70), (values[70] >> 7) & 1 == 1);
    }

    #[test]
    fn load_register_overwrites_previous_contents() {
        let mut b = BatchState::zeros(4, 70);
        b.load_register(&[0, 1], &vec![0b11; 70]);
        b.load_register(&[0, 1], &vec![0b00; 70]);
        assert!(b.read_register(&[0, 1]).iter().all(|&v| v == 0));
    }

    #[test]
    fn gate_semantics_match_scalar_simulation() {
        let g = Gate::mct(vec![Control::positive(0), Control::negative(1)], 2);
        let inputs: Vec<u64> = (0..8).collect();
        let mut b = BatchState::zeros(3, inputs.len());
        b.load_register(&[0, 1, 2], &inputs);
        let mut c = Circuit::new(3);
        c.add_gate(g.clone());
        c.apply_batch(&mut b);
        let out = b.read_register(&[0, 1, 2]);
        for (k, &x) in inputs.iter().enumerate() {
            assert_eq!(out[k], g.apply_u64(x), "input {x}");
        }
    }

    #[test]
    fn multi_word_lanes_cross_the_word_boundary() {
        // 130 states: three words per lane, with a ragged tail.
        let mut c = Circuit::new(5);
        c.toffoli(0, 1, 4);
        c.cnot(4, 2);
        c.not(3);
        let inputs: Vec<u64> = (0..130).map(|k| (k * 7) % 32).collect();
        let mut b = BatchState::zeros(5, inputs.len());
        assert_eq!(b.words_per_line(), 3);
        b.load_register(&[0, 1, 2, 3, 4], &inputs);
        c.apply_batch(&mut b);
        let out = b.read_register(&[0, 1, 2, 3, 4]);
        for (k, &x) in inputs.iter().enumerate() {
            assert_eq!(out[k], c.simulate_u64(x), "state {k}");
        }
    }

    #[test]
    fn batch_agrees_with_bitstate_on_wide_circuits() {
        // 80 lines: beyond the one-word scalar fast path.
        let mut c = Circuit::new(80);
        c.cnot(0, 79);
        c.mct(vec![Control::positive(79), Control::negative(40)], 64);
        c.not(40);
        let mut b = BatchState::zeros(80, 3);
        b.set(0, 1, true);
        b.set(40, 2, true);
        c.apply_batch(&mut b);
        for state in 0..3 {
            let mut s = BitState::zeros(80);
            s.set(0, state == 1);
            s.set(40, state == 2);
            c.apply(&mut s);
            for line in 0..80 {
                assert_eq!(b.get(line, state), s.get(line), "line {line} state {state}");
            }
        }
    }

    #[test]
    fn word_mask_covers_exactly_the_valid_states() {
        let b = BatchState::zeros(1, 70);
        assert_eq!(b.word_mask(0), u64::MAX);
        assert_eq!(b.word_mask(1), (1 << 6) - 1);
        let full = BatchState::zeros(1, 128);
        assert_eq!(full.word_mask(1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_out_of_range_gates() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.apply_batch(&mut BatchState::zeros(2, 4));
    }

    #[test]
    fn consecutive_batches_tile_the_range() {
        let mut expected = 0u64;
        for (base, count) in consecutive_batches_in(0, 2 * BATCH_STATES as u64 + 100) {
            assert_eq!(base, expected, "ranges are contiguous");
            assert!(count > 0 && count <= BATCH_STATES);
            expected += count as u64;
        }
        assert_eq!(expected, 2 * BATCH_STATES as u64 + 100);
        assert_eq!(consecutive_batches_in(0, 0).count(), 0);
    }

    #[test]
    fn exhaustive_sweep_returns_the_first_hit_at_any_worker_count() {
        // 14 register lines = four 4 096-state spans; hits are planted in
        // spans 1, 2 and 3 (and twice in span 3), none in span 0.
        let register: Vec<usize> = (1..15).collect();
        let planted = [13_000u64, 5_000, 9_000, 12_500];
        let sweep = || {
            first_exhaustive(16, &register, || {
                |state: &mut BatchState, starts: Starts<'_>| {
                    let values = state.read_register(&register);
                    assert!(
                        state.lane(0).iter().chain(state.lane(15)).all(|&w| w == 0),
                        "unloaded lines stay zero"
                    );
                    values.iter().enumerate().find_map(|(k, &v)| {
                        assert_eq!(v, starts.value(0, k), "lanes hold the handed starts");
                        planted.contains(&v).then_some(v)
                    })
                }
            })
        };
        for cap in [1, 4] {
            assert_eq!(par::with_worker_cap(cap, sweep), Some(5_000), "cap {cap}");
        }
    }

    #[test]
    fn sampled_sweep_draws_the_serial_stream_per_batch_and_chunk() {
        // A 70-line register (chunks of 64 and 6 lines) over 2 500
        // samples: two full batches and a ragged one.
        let register: Vec<usize> = (2..72).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let expected: Vec<Vec<Vec<u64>>> = [1024, 1024, 452]
            .iter()
            .map(|&count| {
                [u64::MAX, (1 << 6) - 1]
                    .iter()
                    .map(|&mask| (0..count).map(|_| rng.gen::<u64>() & mask).collect())
                    .collect()
            })
            .collect();
        let seen = std::sync::Mutex::new(Vec::new());
        let first = first_sampled(72, &register, 7, 2_500, || {
            |state: &mut BatchState, starts: Starts<'_>| {
                let Starts::Drawn(drawn) = starts else {
                    panic!("sampled sweeps hand drawn values")
                };
                for (lines, values) in register.chunks(64).zip(drawn) {
                    assert_eq!(&state.read_register(lines), values, "lanes hold the draws");
                }
                assert_eq!(state.read_register(&[0, 1]), vec![0; state.num_states()]);
                seen.lock().unwrap().push(drawn.to_vec());
                Some(starts.value(1, 0))
            }
        });
        assert_eq!(first, Some(expected[0][1][0]), "first hit in draw order");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|drawn| expected.iter().position(|e| e == drawn));
        assert_eq!(seen, expected);
    }

    #[test]
    #[should_panic(expected = "64-line register")]
    fn exhaustive_sweep_rejects_a_64_line_register() {
        // `assert!`, not `debug_assert!`: a wrapped `1 << 64` once let
        // verification return `Verified` after checking one state.
        let register: Vec<usize> = (0..64).collect();
        first_exhaustive(64, &register, || {
            |_: &mut BatchState, _: Starts<'_>| Some(())
        });
    }

    #[test]
    fn start_and_end_states_read_back_per_chunk() {
        let register = [3, 70, 65];
        let drawn = [vec![0b101, 0b010]];
        let starts = Starts::Drawn(&drawn);
        assert_eq!(starts.state_words(&register, 72, 0), vec![1 << 3, 1 << 1]);
        assert_eq!(starts.state_words(&register, 72, 1), vec![0, 1 << 6]);
        let mut a = BatchState::zeros(72, 2);
        a.load_register(&register, &[0b101, 0b010]);
        assert_eq!(a.state_words(1), starts.state_words(&register, 72, 1));
        let mut b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        b.set(71, 1, true);
        assert_eq!(a.first_difference(&b), Some(1));
    }

    #[test]
    fn load_consecutive_matches_the_explicit_transpose() {
        // A ragged batch (100 states) at a nonzero base, with value bits
        // on both sides of the 6-bit intra-word boundary.
        let base = 9 * 64;
        let lines: Vec<usize> = (0..12).collect();
        let values: Vec<u64> = (base..base + 100).collect();
        let mut explicit = BatchState::zeros(12, values.len());
        explicit.load_register(&lines, &values);
        let mut direct = BatchState::zeros(12, values.len());
        direct.load_consecutive(&lines, base);
        assert_eq!(direct, explicit);
    }

    #[test]
    fn load_consecutive_overwrites_previous_contents() {
        let mut b = BatchState::zeros(3, 70);
        b.load_register(&[0, 1, 2], &vec![0b111; 70]);
        b.load_consecutive(&[0, 1, 2], 0);
        // Only the three register bits land; higher value bits have no
        // line, so the lane values wrap mod 2^3.
        assert_eq!(
            b.read_register(&[0, 1, 2]),
            (0..70u64).map(|k| k % 8).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "word boundary")]
    fn load_consecutive_rejects_unaligned_bases() {
        BatchState::zeros(2, 4).load_consecutive(&[0, 1], 7);
    }

    /// A mixed-polarity cascade exercising >64 lines (two mask words).
    fn wide_cascade() -> Circuit {
        let mut c = Circuit::new(70);
        c.not(69);
        c.mct(vec![Control::positive(0), Control::negative(69)], 65);
        c.cnot(65, 1);
        c.mct(
            vec![
                Control::negative(1),
                Control::positive(2),
                Control::positive(68),
            ],
            3,
        );
        c.toffoli(3, 0, 69);
        c
    }

    #[test]
    fn apply_arena_matches_per_gate_apply_across_widths() {
        // The arena, replayed whole. Word counts covering: sub-chunk tail
        // only (1, 2), exactly one chunk (8), chunks + tail (19), and the
        // hot two-chunk shape (16). The reference replays every state
        // alone through the scalar engine.
        let c = wide_cascade();
        for states in [40, 100, 8 * 64, 19 * 64 - 5, BATCH_STATES] {
            let mut batch = BatchState::zeros(70, states);
            for s in 0..states {
                batch.set(s % 70, s, s % 3 == 0);
            }
            c.apply_batch(&mut batch);
            for s in 0..states {
                let mut state = BitState::zeros(70);
                state.set(s % 70, s % 3 == 0);
                c.apply(&mut state);
                let agree = (0..70).all(|line| batch.get(line, s) == state.get(line));
                assert!(agree, "{states} states, state {s}");
            }
        }
    }

    #[test]
    fn per_gate_application_matches_the_arena_path() {
        // One-gate ranges of the circuit, in order, against the whole
        // circuit at once. Sub-chunk tail only, chunks + tail, and the
        // two-chunk shape.
        let c = wide_cascade();
        for states in [40, 19 * 64 - 5, BATCH_STATES] {
            let mut batch = BatchState::zeros(70, states);
            batch.load_consecutive(&[0, 1, 2, 68], 0);
            let mut whole = batch.clone();
            c.apply_batch(&mut whole);
            for g in 0..c.num_gates() {
                c.apply_batch_gates(&mut batch, g..g + 1);
            }
            assert_eq!(batch, whole, "{states} states");
        }
    }

    #[test]
    fn the_nonzero_test_ignores_phantom_states_and_clear_lane_zeroes() {
        // A NOT sets all 64 bits of the one lane word; 3 states are valid.
        let mut b = BatchState::zeros(2, 3);
        let mut c = Circuit::new(2);
        c.not(1);
        c.apply_batch(&mut b);
        assert!(b.lane_is_nonzero(1) && !b.lane_is_nonzero(0));
        for state in 0..3 {
            b.set(1, state, false);
        }
        assert_ne!(b.lane(1), &[0], "phantom bits stay set");
        assert!(!b.lane_is_nonzero(1), "only phantom bits are set");
        b.clear_lane(1);
        assert_eq!(b.lane(1), &[0]);
    }

    #[test]
    fn reset_reuses_the_allocation_and_zeroes_everything() {
        let mut b = BatchState::zeros(5, 1000);
        b.load_register(&[0, 1, 2], &(0..1000).collect::<Vec<u64>>());
        b.reset(130);
        assert_eq!(b.num_states(), 130);
        assert_eq!(b.words_per_line(), 3);
        assert_eq!(b, BatchState::zeros(5, 130), "reset state is pristine");
        // Growing again works too, and a reused batch behaves like a
        // fresh one end to end.
        b.reset(200);
        let mut fresh = BatchState::zeros(5, 200);
        let lines: Vec<usize> = (0..5).collect();
        b.load_consecutive(&lines, 64);
        fresh.load_consecutive(&lines, 64);
        let c = {
            let mut c = Circuit::new(5);
            c.toffoli(0, 1, 4);
            c.cnot(4, 2);
            c
        };
        c.apply_batch(&mut b);
        c.apply_batch(&mut fresh);
        assert_eq!(b, fresh);
    }

    #[test]
    fn copy_from_matches_clone() {
        let mut a = BatchState::zeros(4, 100);
        a.load_register(
            &[0, 1, 2, 3],
            &(0..100).map(|k| k * 5 % 16).collect::<Vec<u64>>(),
        );
        let mut b = BatchState::zeros(9, 3);
        b.copy_from(&a);
        assert_eq!(b, a.clone());
    }
}
