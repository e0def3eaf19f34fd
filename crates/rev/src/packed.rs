//! Packed-mask gate IR: the struct-of-arrays arena behind [`Circuit`](crate::circuit::Circuit).
//!
//! This is the crate's one gate IR: every gate relation the passes use is
//! defined here or in [`crate::opt::rules`], and a legacy [`Gate`] (a
//! sorted `Vec<Control>`) is only the validated construction and display
//! view. The packed form flattens an MPMCT gate into a **control
//! mask** and a **polarity mask** of `words_per_gate` `u64` words plus a
//! target index: bit `l % 64` of word `l / 64` of the control mask says
//! line `l` is a control, and the same bit of the polarity mask says that
//! control is positive (the polarity mask is always a subset of the
//! control mask). The gate fires on a basis state `s` (same line-per-bit
//! layout as [`crate::state::BitState`]) iff
//!
//! ```text
//! (s ^ pol) & ctrl == 0        for every mask word
//! ```
//!
//! and the hot predicates collapse to single mask ops:
//!
//! * support of a gate = `ctrl | (1 << target)`,
//! * controls of `a` and `b` conflict (some shared line is demanded with
//!   opposite polarities — the gates can never both fire) iff
//!   `(ctrl_a & ctrl_b) & (pol_a ^ pol_b) != 0`,
//! * `a` and `b` commute iff they share a target, neither target is in
//!   the other's support, or their controls conflict.
//!
//! [`GateArena`] stores all gates of a circuit in struct-of-arrays form —
//! one flat `Vec<u64>` for all control words, one for all polarity words,
//! flat target/link arrays — threaded by a doubly-linked live list, so it
//! serves both as [`Circuit`](crate::circuit::Circuit)'s storage and as the mutable rewrite arena
//! the `opt`/`resynth` passes edit in place (it subsumes the former
//! `opt/window.rs` `GateList`). Slot ids are stable for the lifetime of
//! the arena and never recycled. The legacy [`Gate`] view is materialized
//! only at API boundaries (`io`, diagnostics, `gates()`, resynthesis
//! window extraction).

use crate::gate::{Control, Gate};

/// Sentinel for "no node" in the arena's links (and the optimizer's
/// per-component links).
pub(crate) const NIL: usize = usize::MAX;

/// Number of `u64` mask words needed for `num_lines` lines (at least one,
/// so empty circuits still have a well-formed stride).
#[must_use]
pub fn words_for_lines(num_lines: usize) -> usize {
    num_lines.div_ceil(64).max(1)
}

/// Iterator over the set bit positions of one mask word.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BitIter(pub(crate) u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// A borrowed packed view of one gate: control mask words, polarity mask
/// words (subset of the control mask), and the target line. `Copy` and
/// allocation-free — this is what the inner engines pass around.
#[derive(Clone, Copy, Debug)]
pub struct PackedGate<'a> {
    ctrl: &'a [u64],
    pol: &'a [u64],
    target: u32,
}

impl PartialEq for PackedGate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.target == other.target && self.ctrl == other.ctrl && self.pol == other.pol
    }
}

impl Eq for PackedGate<'_> {}

impl<'a> PackedGate<'a> {
    /// A view over raw mask slices. `pol` must be a subset of `ctrl` and
    /// the target bit must be clear in `ctrl` (callers inside this module
    /// maintain both).
    pub(crate) fn from_raw(ctrl: &'a [u64], pol: &'a [u64], target: u32) -> Self {
        debug_assert_eq!(ctrl.len(), pol.len());
        Self { ctrl, pol, target }
    }

    /// The control mask words.
    #[must_use]
    pub fn ctrl_words(&self) -> &'a [u64] {
        self.ctrl
    }

    /// The polarity mask words (set bit = positive control).
    #[must_use]
    pub fn pol_words(&self) -> &'a [u64] {
        self.pol
    }

    /// The target line.
    #[must_use]
    pub fn target(&self) -> usize {
        self.target as usize
    }

    /// Number of controls (popcount of the control mask).
    #[must_use]
    pub fn num_controls(&self) -> usize {
        self.ctrl.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The controls in ascending line order, decoded on the fly — no
    /// allocation.
    pub fn controls(&self) -> impl Iterator<Item = Control> + 'a {
        let pol = self.pol;
        self.ctrl.iter().enumerate().flat_map(move |(w, &cw)| {
            let pw = pol[w];
            BitIter(cw).map(move |b| {
                let line = w * 64 + b;
                if (pw >> b) & 1 == 1 {
                    Control::positive(line)
                } else {
                    Control::negative(line)
                }
            })
        })
    }

    /// `Some(positive)` when `line` is a control.
    #[must_use]
    pub fn control_on(&self, line: usize) -> Option<bool> {
        let (w, b) = (line / 64, line % 64);
        if w >= self.ctrl.len() || (self.ctrl[w] >> b) & 1 == 0 {
            return None;
        }
        Some((self.pol[w] >> b) & 1 == 1)
    }

    /// Whether the gate reads or writes `line`.
    #[must_use]
    pub fn acts_on(&self, line: usize) -> bool {
        self.target() == line || self.control_on(line).is_some()
    }

    /// Whether the gate fires on the packed basis state `state` (same
    /// line-per-bit word layout as the masks; missing trailing words are
    /// treated as zero).
    #[must_use]
    pub fn fires_words(&self, state: &[u64]) -> bool {
        self.ctrl.iter().enumerate().all(|(w, &cw)| {
            let s = state.get(w).copied().unwrap_or(0);
            (s ^ self.pol[w]) & cw == 0
        })
    }

    /// Whether the gate fires on a `u64` basis state (single-word
    /// circuits only).
    #[must_use]
    pub fn fires_u64(&self, state: u64) -> bool {
        debug_assert_eq!(self.ctrl.len(), 1, "fires_u64 needs a single-word gate");
        (state ^ self.pol[0]) & self.ctrl[0] == 0
    }

    /// Whether some shared control line is demanded with opposite
    /// polarities — the two gates can never both fire.
    #[must_use]
    pub fn controls_conflict(&self, other: &PackedGate<'_>) -> bool {
        self.ctrl
            .iter()
            .zip(other.ctrl)
            .zip(self.pol.iter().zip(other.pol))
            .any(|((&ca, &cb), (&pa, &pb))| (ca & cb) & (pa ^ pb) != 0)
    }

    /// Whether the two gates commute: same target, neither target in the
    /// other's support, or conflicting controls.
    #[must_use]
    pub fn commutes_with(&self, other: &PackedGate<'_>) -> bool {
        self.target == other.target
            || (!self.acts_on(other.target()) && !other.acts_on(self.target()))
            || self.controls_conflict(other)
    }

    /// Materializes the legacy [`Gate`] view (API boundaries and
    /// diagnostics only — allocates).
    #[must_use]
    pub fn to_gate(&self) -> Gate {
        Gate::mct(self.controls().collect(), self.target())
    }
}

/// An owned packed gate: the result type of packed rewrites (control
/// merges) before they are written back into an arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedGateBuf {
    ctrl: Vec<u64>,
    pol: Vec<u64>,
    target: u32,
}

impl PackedGateBuf {
    /// Packs a legacy gate into `words` mask words.
    ///
    /// # Panics
    ///
    /// Panics if a control or the target does not fit in `words` words.
    #[must_use]
    pub fn from_gate(gate: &Gate, words: usize) -> Self {
        let mut ctrl = vec![0u64; words];
        let mut pol = vec![0u64; words];
        for c in gate.controls() {
            let (w, b) = (c.line() / 64, c.line() % 64);
            assert!(
                w < words,
                "control line {} exceeds the mask stride",
                c.line()
            );
            ctrl[w] |= 1 << b;
            if c.is_positive() {
                pol[w] |= 1 << b;
            }
        }
        assert!(
            gate.target() / 64 < words,
            "target line {} exceeds the mask stride",
            gate.target()
        );
        Self {
            ctrl,
            pol,
            target: u32::try_from(gate.target()).expect("line indices fit in u32"),
        }
    }

    /// An owned copy of a borrowed view.
    #[must_use]
    pub fn from_view(view: PackedGate<'_>) -> Self {
        Self {
            ctrl: view.ctrl.to_vec(),
            pol: view.pol.to_vec(),
            target: view.target,
        }
    }

    /// Builds directly from mask words (rewrite results).
    pub(crate) fn from_masks(ctrl: Vec<u64>, pol: Vec<u64>, target: u32) -> Self {
        debug_assert_eq!(ctrl.len(), pol.len());
        Self { ctrl, pol, target }
    }

    /// The borrowed view of this buffer.
    #[must_use]
    pub fn view(&self) -> PackedGate<'_> {
        PackedGate::from_raw(&self.ctrl, &self.pol, self.target)
    }
}

/// Struct-of-arrays gate storage threaded by a doubly-linked live list.
///
/// All control words live in one flat `Vec<u64>` (`words_per_gate` words
/// per slot), likewise the polarity words; targets and links are flat
/// arrays. Removal unlinks a slot without shifting anything; insertion
/// appends a slot and links it in place. Ids are stable and never
/// recycled, so side tables indexed by id stay valid across rewrites.
#[derive(Clone, Debug)]
pub struct GateArena {
    num_lines: usize,
    wpg: usize,
    ctrl: Vec<u64>,
    pol: Vec<u64>,
    target: Vec<u32>,
    prev: Vec<usize>,
    next: Vec<usize>,
    live: Vec<bool>,
    head: usize,
    tail: usize,
    len: usize,
}

impl PartialEq for GateArena {
    /// Arenas are equal when their **live gate sequences** are equal —
    /// dead-slot layout and id numbering are representation details.
    fn eq(&self, other: &Self) -> bool {
        if self.num_lines != other.num_lines || self.len != other.len {
            return false;
        }
        self.iter().zip(other.iter()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for GateArena {}

impl GateArena {
    /// An empty arena over `num_lines` lines.
    #[must_use]
    pub fn new(num_lines: usize) -> Self {
        Self {
            num_lines,
            wpg: words_for_lines(num_lines),
            ctrl: Vec::new(),
            pol: Vec::new(),
            target: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            live: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Packs a legacy gate cascade.
    #[must_use]
    pub fn from_gates(num_lines: usize, gates: &[Gate]) -> Self {
        let mut arena = Self::new(num_lines);
        for g in gates {
            arena.push(g);
        }
        arena
    }

    /// The line count the mask stride was sized for.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Mask words per gate.
    #[must_use]
    pub fn words_per_gate(&self) -> usize {
        self.wpg
    }

    /// Number of live gates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no gate is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First live id in circuit order.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head)
    }

    /// Last live id in circuit order.
    #[must_use]
    pub fn last(&self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Whether `id` is a live slot.
    #[must_use]
    pub fn is_live(&self, id: usize) -> bool {
        id < self.live.len() && self.live[id]
    }

    /// The packed view of live gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    #[must_use]
    pub fn gate(&self, id: usize) -> PackedGate<'_> {
        assert!(self.is_live(id), "gate() of dead id {id}");
        let at = id * self.wpg;
        PackedGate::from_raw(
            &self.ctrl[at..at + self.wpg],
            &self.pol[at..at + self.wpg],
            self.target[id],
        )
    }

    /// Materializes live gate `id` as a legacy [`Gate`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    #[must_use]
    pub fn materialize(&self, id: usize) -> Gate {
        self.gate(id).to_gate()
    }

    /// The next live id after `id` in circuit order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    #[must_use]
    pub fn next_live(&self, id: usize) -> Option<usize> {
        assert!(self.is_live(id), "next_live of dead id {id}");
        (self.next[id] != NIL).then(|| self.next[id])
    }

    /// Up to `k` live predecessors of `id`, nearest first.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    #[must_use]
    pub fn window_before(&self, id: usize, k: usize) -> Vec<usize> {
        assert!(self.is_live(id), "window_before of dead id {id}");
        let mut out = Vec::with_capacity(k.min(8));
        let mut cur = self.prev[id];
        while cur != NIL && out.len() < k {
            out.push(cur);
            cur = self.prev[cur];
        }
        out
    }

    /// Appends a legacy gate at the end; returns its id.
    pub fn push(&mut self, gate: &Gate) -> usize {
        self.push_buf(&PackedGateBuf::from_gate(gate, self.wpg))
    }

    /// Appends an owned packed gate at the end (zero-extended to the
    /// arena's stride); returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is wider than the arena's stride.
    pub fn push_buf(&mut self, buf: &PackedGateBuf) -> usize {
        self.push_masks(&buf.ctrl, &buf.pol, buf.target)
    }

    /// Appends a gate given by its mask words (shorter masks are
    /// zero-extended to the arena's stride); returns its id. Callers
    /// validate the masks ([`crate::circuit::Circuit::add_masks`] is the
    /// checked public form).
    ///
    /// # Panics
    ///
    /// Panics if the masks are wider than the arena's stride.
    pub(crate) fn push_masks(&mut self, ctrl: &[u64], pol: &[u64], target: u32) -> usize {
        let id = self.alloc_slot(ctrl, pol, target);
        // Link at the tail.
        self.prev[id] = self.tail;
        self.next[id] = NIL;
        if self.tail != NIL {
            self.next[self.tail] = id;
        } else {
            self.head = id;
        }
        self.tail = id;
        self.len += 1;
        id
    }

    /// Appends a borrowed packed view (possibly from an arena with a
    /// smaller stride — the mask words are zero-extended); returns its
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride exceeds this arena's.
    pub fn push_view(&mut self, view: PackedGate<'_>) -> usize {
        self.push_masks(view.ctrl, view.pol, view.target)
    }

    /// Inserts an owned packed gate (zero-extended to the arena's
    /// stride) immediately before live gate `id`; returns the new id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or the buffer is wider than the arena's
    /// stride.
    pub fn insert_before(&mut self, id: usize, buf: &PackedGateBuf) -> usize {
        assert!(self.is_live(id), "insert_before dead id {id}");
        let new = self.alloc_slot(&buf.ctrl, &buf.pol, buf.target);
        let before = self.prev[id];
        self.prev[new] = before;
        self.next[new] = id;
        self.prev[id] = new;
        if before != NIL {
            self.next[before] = new;
        } else {
            self.head = new;
        }
        self.len += 1;
        new
    }

    fn alloc_slot(&mut self, ctrl: &[u64], pol: &[u64], target: u32) -> usize {
        assert!(
            ctrl.len() == pol.len() && ctrl.len() <= self.wpg,
            "packed gate masks are wider than the arena stride"
        );
        let id = self.target.len();
        let pad = self.wpg - ctrl.len();
        self.ctrl.extend_from_slice(ctrl);
        self.ctrl.extend(std::iter::repeat_n(0, pad));
        self.pol.extend_from_slice(pol);
        self.pol.extend(std::iter::repeat_n(0, pad));
        self.target.push(target);
        self.prev.push(NIL);
        self.next.push(NIL);
        self.live.push(true);
        id
    }

    /// Unlinks live gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn remove(&mut self, id: usize) {
        assert!(self.is_live(id), "remove of dead id {id}");
        let (p, n) = (self.prev[id], self.next[id]);
        if p != NIL {
            self.next[p] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else {
            self.tail = p;
        }
        self.live[id] = false;
        self.len -= 1;
    }

    /// Overwrites live gate `id` in place (same position in the cascade).
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn replace(&mut self, id: usize, buf: &PackedGateBuf) {
        assert!(self.is_live(id), "replace of dead id {id}");
        assert_eq!(buf.ctrl.len(), self.wpg, "stride mismatch");
        let at = id * self.wpg;
        self.ctrl[at..at + self.wpg].copy_from_slice(&buf.ctrl);
        self.pol[at..at + self.wpg].copy_from_slice(&buf.pol);
        self.target[id] = buf.target;
    }

    /// Flips the polarity of the control `id` has on `line`, in place
    /// (the effect of conjugating the gate with a NOT on `line`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or has no control on `line`.
    pub fn flip_polarity(&mut self, id: usize, line: usize) {
        assert!(self.is_live(id), "flip_polarity of dead id {id}");
        let (w, b) = (line / 64, line % 64);
        let at = id * self.wpg + w;
        assert!(
            (self.ctrl[at] >> b) & 1 == 1,
            "gate {id} has no control on line {line}"
        );
        self.pol[at] ^= 1 << b;
    }

    /// The mask words and target of live gate `id`, writable in place.
    /// Callers keep the polarity mask a subset of the control mask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub(crate) fn masks_mut(&mut self, id: usize) -> (&mut [u64], &mut [u64], usize) {
        assert!(self.is_live(id), "masks_mut of dead id {id}");
        let at = id * self.wpg;
        (
            &mut self.ctrl[at..at + self.wpg],
            &mut self.pol[at..at + self.wpg],
            self.target[id] as usize,
        )
    }

    /// Number of slots, dead ones included: the bound of every id, and
    /// the length of side tables indexed by id.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.target.len()
    }

    /// Drops the dead slots: the live gates move to slots `0..len` in
    /// circuit order. This is done in place when ids increase along the
    /// live list, which holds for every arena edited only by appends,
    /// removals and in-place rewrites: a live gate then only moves to a
    /// lower slot, whose occupant has already moved. An arena with
    /// inserted gates ([`GateArena::insert_before`]) is copied instead.
    pub(crate) fn compact(&mut self) {
        let mut cur = self.head;
        while cur != NIL && self.next[cur] != NIL {
            if self.next[cur] < cur {
                let mut out = GateArena::new(self.num_lines);
                for (_, g) in self.iter() {
                    out.push_masks(g.ctrl, g.pol, g.target);
                }
                *self = out;
                return;
            }
            cur = self.next[cur];
        }
        let wpg = self.wpg;
        let mut cur = self.head;
        let mut k = 0;
        while cur != NIL {
            if k != cur {
                self.ctrl.copy_within(cur * wpg..(cur + 1) * wpg, k * wpg);
                self.pol.copy_within(cur * wpg..(cur + 1) * wpg, k * wpg);
                self.target[k] = self.target[cur];
            }
            cur = self.next[cur];
            k += 1;
        }
        debug_assert_eq!(k, self.len);
        self.ctrl.truncate(k * wpg);
        self.pol.truncate(k * wpg);
        self.target.truncate(k);
        self.live.clear();
        self.live.resize(k, true);
        self.prev.clear();
        self.prev
            .extend((0..k).map(|i| i.checked_sub(1).unwrap_or(NIL)));
        self.next.clear();
        self.next
            .extend((1..=k).map(|i| if i < k { i } else { NIL }));
        self.head = if k > 0 { 0 } else { NIL };
        self.tail = k.checked_sub(1).unwrap_or(NIL);
    }

    /// Grows the arena to `num_lines` lines, re-striding every slot's
    /// mask words if the per-gate word count grows. Shrinking is not
    /// supported (existing gates could fall out of range).
    pub fn grow_lines(&mut self, num_lines: usize) {
        assert!(
            num_lines >= self.num_lines,
            "GateArena only grows: {} -> {num_lines}",
            self.num_lines
        );
        let new_wpg = words_for_lines(num_lines);
        if new_wpg != self.wpg {
            let slots = self.target.len();
            let mut ctrl = vec![0u64; slots * new_wpg];
            let mut pol = vec![0u64; slots * new_wpg];
            for s in 0..slots {
                for w in 0..self.wpg {
                    ctrl[s * new_wpg + w] = self.ctrl[s * self.wpg + w];
                    pol[s * new_wpg + w] = self.pol[s * self.wpg + w];
                }
            }
            self.ctrl = ctrl;
            self.pol = pol;
            self.wpg = new_wpg;
        }
        self.num_lines = num_lines;
    }

    /// Iterates the live gates in circuit order as `(id, view)` pairs.
    pub fn iter(&self) -> ArenaIter<'_> {
        ArenaIter {
            arena: self,
            cur: self.head,
        }
    }

    /// Materializes the whole live cascade (API boundary).
    #[must_use]
    pub fn to_gates(&self) -> Vec<Gate> {
        self.iter().map(|(_, g)| g.to_gate()).collect()
    }
}

/// Iterator over an arena's live `(id, PackedGate)` pairs in circuit
/// order.
#[derive(Clone, Debug)]
pub struct ArenaIter<'a> {
    arena: &'a GateArena,
    cur: usize,
}

impl<'a> Iterator for ArenaIter<'a> {
    type Item = (usize, PackedGate<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let id = self.cur;
        self.cur = self.arena.next[id];
        Some((id, self.arena.gate(id)))
    }
}

impl<'a> IntoIterator for &'a GateArena {
    type Item = (usize, PackedGate<'a>);
    type IntoIter = ArenaIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(controls: &[(usize, bool)], target: usize) -> Gate {
        Gate::mct(
            controls
                .iter()
                .map(|&(l, p)| {
                    if p {
                        Control::positive(l)
                    } else {
                        Control::negative(l)
                    }
                })
                .collect(),
            target,
        )
    }

    #[test]
    fn round_trip_preserves_structure() {
        let gates = vec![
            g(&[], 0),
            g(&[(0, true)], 1),
            g(&[(0, false), (2, true)], 1),
            g(&[(1, true), (3, false), (4, true)], 0),
        ];
        let arena = GateArena::from_gates(5, &gates);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.to_gates(), gates);
    }

    #[test]
    fn packing_beyond_64_lines_uses_two_words() {
        let gate = g(&[(3, true), (70, false)], 68);
        let arena = GateArena::from_gates(72, std::slice::from_ref(&gate));
        assert_eq!(arena.words_per_gate(), 2);
        let v = arena.gate(0);
        assert_eq!(v.num_controls(), 2);
        assert_eq!(v.control_on(3), Some(true));
        assert_eq!(v.control_on(70), Some(false));
        assert_eq!(v.control_on(68), None);
        assert!(v.acts_on(68));
        assert_eq!(v.to_gate(), gate);
    }

    #[test]
    fn fires_matches_legacy_gate() {
        let gate = g(&[(0, true), (2, false)], 1);
        let arena = GateArena::from_gates(3, std::slice::from_ref(&gate));
        let v = arena.gate(0);
        for x in 0..8u64 {
            assert_eq!(v.fires_u64(x), gate.fires(x), "x={x}");
            assert_eq!(v.fires_words(&[x]), gate.fires(x), "x={x}");
        }
    }

    #[test]
    fn conflict_and_commutation_match_mask_semantics() {
        let arena = GateArena::from_gates(
            4,
            &[
                g(&[(0, true)], 2),
                g(&[(0, false)], 3),
                g(&[(0, true), (1, true)], 3),
                g(&[(2, true)], 1),
            ],
        );
        let (a, b, c, d) = (arena.gate(0), arena.gate(1), arena.gate(2), arena.gate(3));
        assert!(a.controls_conflict(&b));
        assert!(!a.controls_conflict(&c));
        assert!(a.commutes_with(&b), "conflicting controls commute");
        assert!(a.commutes_with(&c), "disjoint target/support commute");
        assert!(!a.commutes_with(&d), "d reads a's target");
    }

    #[test]
    fn list_surgery_maintains_order_and_links() {
        let mut arena = GateArena::from_gates(3, &[g(&[], 0), g(&[], 1), g(&[], 2)]);
        let first = arena.first().unwrap();
        arena.remove(first);
        assert_eq!(arena.len(), 2);
        let head = arena.first().unwrap();
        assert_eq!(arena.gate(head).target(), 1);
        let buf = PackedGateBuf::from_gate(&g(&[(1, true)], 0), arena.words_per_gate());
        let new = arena.insert_before(head, &buf);
        assert_eq!(arena.first(), Some(new));
        let targets: Vec<usize> = arena.iter().map(|(_, v)| v.target()).collect();
        assert_eq!(targets, vec![0, 1, 2]);
        arena.replace(
            head,
            &PackedGateBuf::from_gate(&g(&[], 2), arena.words_per_gate()),
        );
        let targets: Vec<usize> = arena.iter().map(|(_, v)| v.target()).collect();
        assert_eq!(targets, vec![0, 2, 2]);
        assert_eq!(arena.window_before(arena.last().unwrap(), 8), {
            let mut ids: Vec<usize> = arena.iter().map(|(id, _)| id).collect();
            ids.pop();
            ids.reverse();
            ids
        });
    }

    #[test]
    #[should_panic(expected = "dead id")]
    fn dead_access_panics() {
        let mut arena = GateArena::from_gates(2, &[g(&[], 0)]);
        arena.remove(0);
        let _ = arena.gate(0);
    }

    #[test]
    fn growing_restrides_masks() {
        let gate = g(&[(0, true), (50, false)], 20);
        let mut arena = GateArena::from_gates(51, std::slice::from_ref(&gate));
        assert_eq!(arena.words_per_gate(), 1);
        arena.grow_lines(130);
        assert_eq!(arena.words_per_gate(), 3);
        assert_eq!(arena.to_gates(), vec![gate]);
        arena.push(&g(&[(128, true)], 5));
        assert_eq!(arena.len(), 2);
        assert_eq!(
            arena.gate(arena.last().unwrap()).control_on(128),
            Some(true)
        );
    }

    #[test]
    fn compaction_keeps_the_live_sequence_in_slots_0_to_len() {
        let gates: Vec<Gate> = (0..6).map(|t| g(&[((t + 1) % 6, t % 2 == 0)], t)).collect();
        let mut arena = GateArena::from_gates(6, &gates);
        arena.remove(0);
        arena.remove(3);
        arena.remove(5);
        let expected = arena.to_gates();
        // Out of slot order: compaction copies.
        let mut spliced = arena.clone();
        let buf = PackedGateBuf::from_gate(&g(&[], 0), 1);
        spliced.insert_before(1, &buf);
        let before = spliced.clone();
        spliced.compact();
        assert_eq!(spliced, before);
        assert_eq!(spliced.slot_count(), spliced.len());
        assert_eq!(spliced.first(), Some(0));
        arena.compact();
        assert_eq!(arena.to_gates(), expected);
        assert_eq!(arena.slot_count(), 3);
        let ids: Vec<usize> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(arena.last(), Some(2));
        arena.push(&g(&[], 5));
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.window_before(3, 8), vec![2, 1, 0]);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let gates = vec![g(&[], 0), g(&[(0, true)], 1)];
        let a = GateArena::from_gates(2, &gates);
        let mut b = GateArena::from_gates(2, &[g(&[], 1), g(&[], 0), g(&[(0, true)], 1)]);
        b.remove(0);
        assert_eq!(a, b);
    }
}
