//! Packed-mask gate IR: the support-sparse arena behind [`Circuit`](crate::circuit::Circuit).
//!
//! This is the crate's one gate IR: every gate relation the passes use is
//! defined here or in [`crate::opt::rules`], and a legacy [`Gate`] (a
//! sorted `Vec<Control>`) is only the validated construction and display
//! view. The packed form flattens an MPMCT gate into a **control
//! mask** and a **polarity mask** over the circuit's lines plus a target
//! index: bit `l % 64` of word `l / 64` of the control mask says line `l`
//! is a control, and the same bit of the polarity mask says that control
//! is positive (the polarity mask is always a subset of the control
//! mask). The gate fires on a basis state `s` (same line-per-bit layout
//! as [`crate::state::BitState`]) iff
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
//! The masks are stored **support-sparse**: a gate keeps only its
//! nonzero control words, each as a `(word index, control word, polarity
//! word)` entry, in ascending word order; a word without an entry is zero
//! in both masks. A gate that touches three lines of a 16 324-line
//! circuit stores at most two entries where dense masks would need 2 ×
//! 256 words, and a gate of a circuit of at most 64 lines has at most
//! one. Every relation walks the entries, so its cost follows the gate's
//! support, not the line count. A word whose last control is dropped
//! loses its entry, so equal gates have equal entry lists and `==` is a
//! slice compare.
//!
//! [`GateArena`] stores all gates of a circuit in struct-of-arrays form —
//! one flat `Vec` of entries, in which each slot owns a contiguous run,
//! and flat slot/link arrays — threaded by a doubly-linked live list, so
//! it serves both as [`Circuit`](crate::circuit::Circuit)'s storage and as
//! the mutable rewrite arena the `opt`/`resynth` passes edit in place.
//! Slot ids are stable for the lifetime of the arena and never recycled.
//! The legacy [`Gate`] view is materialized only at API boundaries (`io`,
//! diagnostics, `gates()`, resynthesis window extraction).

use crate::gate::{Control, Gate};

/// "No slot" in the arena's live-list links.
const NO_SLOT: u32 = u32::MAX;

/// Number of `u64` words of a dense mask over `num_lines` lines (at
/// least one): the word count [`Circuit::add_masks`](crate::circuit::Circuit::add_masks)
/// takes.
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

/// One nonzero control-mask word of a gate: the gate controls line
/// `64 * index + b` for every set bit `b` of `ctrl`, positively where the
/// same bit of `pol` is set (`ctrl != 0`, `pol` a subset of `ctrl`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MaskWord {
    pub(crate) index: u32,
    pub(crate) ctrl: u64,
    pub(crate) pol: u64,
}

/// Appends the entries of a control sequence sorted by line to `out`.
fn pack_controls(controls: &[Control], out: &mut Vec<MaskWord>) {
    let from = out.len();
    for c in controls {
        let index = u32::try_from(c.line() / 64).expect("line indices fit in u32");
        let bit = 1u64 << (c.line() % 64);
        let pol = if c.is_positive() { bit } else { 0 };
        match out[from..].last_mut() {
            Some(w) if w.index == index => {
                w.ctrl |= bit;
                w.pol |= pol;
            }
            _ => out.push(MaskWord {
                index,
                ctrl: bit,
                pol,
            }),
        }
    }
}

fn target_u32(target: usize) -> u32 {
    u32::try_from(target).expect("line indices fit in u32")
}

/// A borrowed packed view of one gate: its nonzero control words and its
/// target line. `Copy` and allocation-free — this is what the inner
/// engines pass around.
#[derive(Clone, Copy, Debug)]
pub struct PackedGate<'a> {
    words: &'a [MaskWord],
    target: u32,
}

impl PartialEq for PackedGate<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.target == other.target && self.words == other.words
    }
}

impl Eq for PackedGate<'_> {}

impl<'a> PackedGate<'a> {
    /// The target line.
    #[must_use]
    pub fn target(&self) -> usize {
        self.target as usize
    }

    /// Number of controls (popcount of the control mask).
    #[must_use]
    pub fn num_controls(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.ctrl.count_ones() as usize)
            .sum()
    }

    /// The controls in ascending line order, decoded on the fly — no
    /// allocation.
    pub fn controls(&self) -> impl Iterator<Item = Control> + 'a {
        self.words.iter().flat_map(|w| {
            let (first, pol) = (w.index as usize * 64, w.pol);
            BitIter(w.ctrl).map(move |b| {
                if (pol >> b) & 1 == 1 {
                    Control::positive(first + b)
                } else {
                    Control::negative(first + b)
                }
            })
        })
    }

    /// `Some(positive)` when `line` is a control.
    #[must_use]
    pub fn control_on(&self, line: usize) -> Option<bool> {
        let bit = 1u64 << (line % 64);
        let w = self.words.iter().find(|w| w.index as usize == line / 64)?;
        (w.ctrl & bit != 0).then_some(w.pol & bit != 0)
    }

    /// Whether the gate reads or writes `line`.
    #[must_use]
    pub fn acts_on(&self, line: usize) -> bool {
        self.target() == line || self.control_on(line).is_some()
    }

    /// The highest line the gate reads or writes.
    #[must_use]
    pub fn max_line(&self) -> usize {
        self.words.last().map_or(self.target(), |w| {
            let top = w.index as usize * 64 + 63 - w.ctrl.leading_zeros() as usize;
            top.max(self.target())
        })
    }

    /// The lowest line with a polarity bit but no control bit, if any.
    /// Every constructor keeps the polarity mask inside the control mask,
    /// so this is `None` for every gate of a well-built arena.
    #[must_use]
    pub fn stray_polarity(&self) -> Option<usize> {
        self.words.iter().find_map(|w| {
            let stray = w.pol & !w.ctrl;
            (stray != 0).then(|| w.index as usize * 64 + stray.trailing_zeros() as usize)
        })
    }

    /// Whether the gate fires on the packed basis state `state` (same
    /// line-per-bit word layout as the masks; missing trailing words are
    /// treated as zero).
    #[must_use]
    pub fn fires_words(&self, state: &[u64]) -> bool {
        self.words.iter().all(|w| {
            let s = state.get(w.index as usize).copied().unwrap_or(0);
            (s ^ w.pol) & w.ctrl == 0
        })
    }

    /// Whether the gate fires on some state whose lines in the dense mask
    /// `known` hold the matching bits of `value`: every control on a known
    /// line is satisfied by `value` (a control on another line can be
    /// satisfied by the state). Missing trailing words are zero.
    pub(crate) fn may_fire(&self, known: &[u64], value: &[u64]) -> bool {
        self.words.iter().all(|w| {
            let at = w.index as usize;
            let k = known.get(at).copied().unwrap_or(0);
            let v = value.get(at).copied().unwrap_or(0);
            (v ^ w.pol) & w.ctrl & k == 0
        })
    }

    /// Whether some shared control line is demanded with opposite
    /// polarities — the two gates can never both fire.
    #[must_use]
    pub fn controls_conflict(&self, other: &PackedGate<'_>) -> bool {
        let (mut a, mut b) = (self.words, other.words);
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            if x.index == y.index && (x.ctrl & y.ctrl) & (x.pol ^ y.pol) != 0 {
                return true;
            }
            if x.index <= y.index {
                a = &a[1..];
            }
            if y.index <= x.index {
                b = &b[1..];
            }
        }
        false
    }

    /// Whether the two gates commute: same target, neither target in the
    /// other's support, or conflicting controls.
    #[must_use]
    pub fn commutes_with(&self, other: &PackedGate<'_>) -> bool {
        self.target == other.target
            || (!self.acts_on(other.target()) && !other.acts_on(self.target()))
            || self.controls_conflict(other)
    }

    /// The polarity-merge template of [`crate::opt::rules::merge_packed`]
    /// on a same-target pair: when the control masks are equal and the
    /// polarity masks differ in exactly one bit, the gate without that
    /// control.
    pub(crate) fn polarity_merge(&self, other: &PackedGate<'_>) -> Option<PackedGateBuf> {
        let pairs = || self.words.iter().zip(other.words);
        if self.words.len() != other.words.len()
            || pairs().any(|(x, y)| x.index != y.index || x.ctrl != y.ctrl)
        {
            return None;
        }
        let diff_bits: u32 = pairs().map(|(x, y)| (x.pol ^ y.pol).count_ones()).sum();
        if diff_bits != 1 {
            return None; // 0 differing bits = equal gates, which cancel
        }
        let words = pairs()
            .map(|(x, y)| MaskWord {
                index: x.index,
                ctrl: x.ctrl & !(x.pol ^ y.pol),
                pol: x.pol & y.pol,
            })
            .filter(|w| w.ctrl != 0)
            .collect();
        Some(PackedGateBuf {
            words,
            target: self.target,
        })
    }

    /// The subset-merge template of [`crate::opt::rules::merge_packed`] on
    /// a same-target pair: when this gate's control mask is `other`'s plus
    /// exactly one bit and the polarities agree on the shared controls,
    /// this gate with the extra bit's polarity flipped.
    pub(crate) fn subset_merge(&self, other: &PackedGate<'_>) -> Option<PackedGateBuf> {
        let mut rest = other.words;
        let mut extra = None;
        for (k, x) in self.words.iter().enumerate() {
            let (ctrl, pol) = match rest.first() {
                Some(y) if y.index < x.index => return None, // a control `self` lacks
                Some(y) if y.index == x.index => {
                    rest = &rest[1..];
                    (y.ctrl, y.pol)
                }
                _ => (0, 0),
            };
            if ctrl & !x.ctrl != 0 || (x.pol ^ pol) & ctrl != 0 {
                return None;
            }
            let bits = x.ctrl & !ctrl;
            match (bits.count_ones(), extra) {
                (0, _) => {}
                (1, None) => extra = Some((k, bits)),
                _ => return None,
            }
        }
        let (k, bit) = extra.filter(|_| rest.is_empty())?;
        let mut words = self.words.to_vec();
        words[k].pol ^= bit;
        Some(PackedGateBuf {
            words,
            target: self.target,
        })
    }

    /// Materializes the legacy [`Gate`] view (API boundaries and
    /// diagnostics only — allocates).
    #[must_use]
    pub fn to_gate(&self) -> Gate {
        Gate::mct(self.controls().collect(), self.target())
    }
}

/// An owned packed gate: the result type of packed rewrites (control
/// merges) and the staging form of new gates before they are written
/// into an arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedGateBuf {
    words: Vec<MaskWord>,
    target: u32,
}

impl PackedGateBuf {
    /// Packs a legacy gate.
    #[must_use]
    pub fn from_gate(gate: &Gate) -> Self {
        let mut words = Vec::new();
        pack_controls(gate.controls(), &mut words);
        Self {
            words,
            target: target_u32(gate.target()),
        }
    }

    /// The borrowed view of this buffer.
    #[must_use]
    pub fn view(&self) -> PackedGate<'_> {
        PackedGate {
            words: &self.words,
            target: self.target,
        }
    }
}

/// Where a slot's entries lie in [`GateArena`]'s entry buffer, and its
/// target.
#[derive(Clone, Copy, Debug)]
struct Slot {
    start: u32,
    len: u32,
    target: u32,
}

/// An entry-buffer offset or run length.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an arena holds fewer than 2^32 mask-word entries")
}

/// Slot `id` as a live-list link.
fn link(id: usize) -> u32 {
    u32::try_from(id)
        .ok()
        .filter(|&l| l != NO_SLOT)
        .expect("an arena holds fewer than 2^32 - 1 slots")
}

/// The slot a live-list link points to, if any.
fn follow(l: u32) -> Option<usize> {
    (l != NO_SLOT).then_some(l as usize)
}

/// Struct-of-arrays gate storage threaded by a doubly-linked live list.
///
/// The nonzero control words of all gates live in one flat `Vec` of
/// `(word index, control word, polarity word)` entries, each slot owning
/// a contiguous run of them in ascending word order; slot runs, targets
/// and links are flat arrays. Removal unlinks a slot without shifting
/// anything; insertion appends a slot and links it in place; a rewrite
/// that widens a gate moves its run to the end of the buffer, and
/// [`GateArena::compact`] reclaims what is left behind. Ids are stable
/// and never recycled, so side tables indexed by id stay valid across
/// rewrites.
#[derive(Clone, Debug)]
pub struct GateArena {
    num_lines: usize,
    words: Vec<MaskWord>,
    slots: Vec<Slot>,
    prev: Vec<u32>,
    next: Vec<u32>,
    live: Vec<bool>,
    head: u32,
    tail: u32,
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
            words: Vec::new(),
            slots: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            live: Vec::new(),
            head: NO_SLOT,
            tail: NO_SLOT,
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

    /// The arena's line count.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.num_lines
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
        follow(self.head)
    }

    /// Last live id in circuit order.
    #[must_use]
    pub fn last(&self) -> Option<usize> {
        follow(self.tail)
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
        let (words, target) = self.slot(id);
        PackedGate { words, target }
    }

    /// Slot `id`'s entries and target line, with no liveness check: the
    /// batch kernels replay a circuit's slots `0..len`, which are its
    /// live gates in circuit order ([`crate::circuit::Circuit`] keeps its
    /// arena compact).
    pub(crate) fn slot(&self, id: usize) -> (&[MaskWord], u32) {
        let slot = self.slots[id];
        let start = slot.start as usize;
        (&self.words[start..start + slot.len as usize], slot.target)
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
        follow(self.next[id])
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
        let mut cur = follow(self.prev[id]);
        while let Some(p) = cur.filter(|_| out.len() < k) {
            out.push(p);
            cur = follow(self.prev[p]);
        }
        out
    }

    /// Appends a legacy gate at the end; returns its id.
    pub fn push(&mut self, gate: &Gate) -> usize {
        let start = self.words.len();
        pack_controls(gate.controls(), &mut self.words);
        let id = self.new_slot(start, target_u32(gate.target()));
        self.link_last(id);
        id
    }

    /// Appends a gate given by its dense mask words (word `w` covers lines
    /// `64 * w..64 * w + 64`); only the nonzero control words are stored.
    /// Returns its id. Callers validate the masks
    /// ([`crate::circuit::Circuit::add_masks`] is the checked public
    /// form).
    pub(crate) fn push_masks(&mut self, ctrl: &[u64], pol: &[u64], target: u32) -> usize {
        let start = self.words.len();
        for (index, (&ctrl, &pol)) in ctrl.iter().zip(pol).enumerate() {
            if ctrl != 0 {
                self.words.push(MaskWord {
                    index: u32::try_from(index).expect("mask word indices fit in u32"),
                    ctrl,
                    pol,
                });
            }
        }
        let id = self.new_slot(start, target);
        self.link_last(id);
        id
    }

    /// Appends a borrowed packed view (possibly of another arena); returns
    /// its id.
    pub fn push_view(&mut self, view: PackedGate<'_>) -> usize {
        let id = self.alloc(view);
        self.link_last(id);
        id
    }

    /// Inserts an owned packed gate immediately before live gate `id`;
    /// returns the new id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn insert_before(&mut self, id: usize, buf: &PackedGateBuf) -> usize {
        assert!(self.is_live(id), "insert_before dead id {id}");
        let new = self.alloc(buf.view());
        let before = self.prev[id];
        self.prev[new] = before;
        self.next[new] = link(id);
        self.prev[id] = link(new);
        match follow(before) {
            Some(b) => self.next[b] = link(new),
            None => self.head = link(new),
        }
        self.len += 1;
        new
    }

    /// Copies `view`'s entries to the end of the buffer into a new,
    /// unlinked slot.
    fn alloc(&mut self, view: PackedGate<'_>) -> usize {
        let start = self.words.len();
        self.words.extend_from_slice(view.words);
        self.new_slot(start, view.target)
    }

    /// A new unlinked slot owning the entries from `start` to the end of
    /// the buffer.
    fn new_slot(&mut self, start: usize, target: u32) -> usize {
        let id = self.slots.len();
        self.slots.push(Slot {
            start: offset(start),
            len: offset(self.words.len() - start),
            target,
        });
        self.prev.push(NO_SLOT);
        self.next.push(NO_SLOT);
        self.live.push(true);
        id
    }

    /// Links the new slot `id` at the tail.
    fn link_last(&mut self, id: usize) {
        self.prev[id] = self.tail;
        self.next[id] = NO_SLOT;
        match follow(self.tail) {
            Some(t) => self.next[t] = link(id),
            None => self.head = link(id),
        }
        self.tail = link(id);
        self.len += 1;
    }

    /// Live slot `id`'s entries, writable in place.
    fn words_mut(&mut self, id: usize) -> &mut [MaskWord] {
        let slot = self.slots[id];
        let start = slot.start as usize;
        &mut self.words[start..start + slot.len as usize]
    }

    /// Unlinks live gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn remove(&mut self, id: usize) {
        assert!(self.is_live(id), "remove of dead id {id}");
        let (p, n) = (self.prev[id], self.next[id]);
        match follow(p) {
            Some(p) => self.next[p] = n,
            None => self.head = n,
        }
        match follow(n) {
            Some(n) => self.prev[n] = p,
            None => self.tail = p,
        }
        self.live[id] = false;
        self.len -= 1;
    }

    /// Overwrites live gate `id` in place (same position in the cascade).
    /// A gate with more entries than the slot's run moves to a new run at
    /// the end of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn replace(&mut self, id: usize, buf: &PackedGateBuf) {
        assert!(self.is_live(id), "replace of dead id {id}");
        let n = buf.words.len();
        let slot = &mut self.slots[id];
        if n > slot.len as usize {
            slot.start = offset(self.words.len());
            self.words.extend_from_slice(&buf.words);
        } else {
            let start = slot.start as usize;
            self.words[start..start + n].copy_from_slice(&buf.words);
        }
        slot.len = offset(n);
        slot.target = buf.target;
    }

    /// Flips the polarity of the control `id` has on `line`, in place
    /// (the effect of conjugating the gate with a NOT on `line`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or has no control on `line`.
    pub fn flip_polarity(&mut self, id: usize, line: usize) {
        assert!(self.is_live(id), "flip_polarity of dead id {id}");
        let bit = 1u64 << (line % 64);
        let word = self
            .words_mut(id)
            .iter_mut()
            .find(|w| w.index as usize == line / 64 && w.ctrl & bit != 0)
            .unwrap_or_else(|| panic!("gate {id} has no control on line {line}"));
        word.pol ^= bit;
    }

    /// Drops the controls live gate `id` has on the lines of the dense
    /// mask `lines` (missing trailing words are zero), removing every
    /// entry left without a control — the constant pass's edit. Returns
    /// the number of controls dropped.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead.
    pub fn drop_controls(&mut self, id: usize, lines: &[u64]) -> u32 {
        assert!(self.is_live(id), "drop_controls of dead id {id}");
        let words = self.words_mut(id);
        let (mut kept, mut dropped) = (0, 0);
        for k in 0..words.len() {
            let mut w = words[k];
            let drop = w.ctrl & lines.get(w.index as usize).copied().unwrap_or(0);
            dropped += drop.count_ones();
            w.ctrl &= !drop;
            w.pol &= !drop;
            if w.ctrl != 0 {
                words[kept] = w;
                kept += 1;
            }
        }
        self.slots[id].len = offset(kept);
        dropped
    }

    /// Number of slots, dead ones included: the bound of every id, and
    /// the length of side tables indexed by id.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Drops the dead slots and the entries no live slot owns: the live
    /// gates move to slots `0..len` in circuit order, their entries to
    /// one run in the same order. This is done in place when ids and
    /// entry runs both increase along the live list, which holds for an
    /// arena edited only by appends, removals and rewrites that kept
    /// their runs: a gate and its entries then only move down, onto space
    /// already vacated. An arena with inserted gates
    /// ([`GateArena::insert_before`]) or moved runs is copied instead.
    pub fn compact(&mut self) {
        let ids = || self.iter().map(|(id, _)| id);
        let in_place = ids().zip(ids().skip(1)).all(|(a, b)| {
            let run = self.slots[a];
            a < b && run.start + run.len <= self.slots[b].start
        });
        if !in_place {
            let mut out = GateArena::new(self.num_lines);
            for (_, g) in self.iter() {
                out.push_view(g);
            }
            *self = out;
            return;
        }
        let (mut k, mut w) = (0, 0);
        let mut cur = follow(self.head);
        while let Some(id) = cur {
            let slot = self.slots[id];
            let start = slot.start as usize;
            self.words.copy_within(start..start + slot.len as usize, w);
            self.slots[k] = Slot {
                start: offset(w),
                ..slot
            };
            w += slot.len as usize;
            cur = follow(self.next[id]);
            k += 1;
        }
        self.words.truncate(w);
        self.slots.truncate(k);
        self.live.clear();
        self.live.resize(k, true);
        self.prev.clear();
        self.prev
            .extend((0..k).map(|i| i.checked_sub(1).map_or(NO_SLOT, link)));
        self.next.clear();
        self.next
            .extend((1..=k).map(|i| if i < k { link(i) } else { NO_SLOT }));
        self.head = if k > 0 { 0 } else { NO_SLOT };
        self.tail = k.checked_sub(1).map_or(NO_SLOT, link);
    }

    /// Grows the arena to `num_lines` lines. Entries carry their own word
    /// index, so no gate is touched. Shrinking is not supported (existing
    /// gates could fall out of range).
    pub fn grow_lines(&mut self, num_lines: usize) {
        assert!(
            num_lines >= self.num_lines,
            "GateArena only grows: {} -> {num_lines}",
            self.num_lines
        );
        self.num_lines = num_lines;
    }

    /// Iterates the live gates in circuit order as `(id, view)` pairs.
    pub fn iter(&self) -> ArenaIter<'_> {
        ArenaIter {
            arena: self,
            cur: follow(self.head),
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
    cur: Option<usize>,
}

impl<'a> Iterator for ArenaIter<'a> {
    type Item = (usize, PackedGate<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.cur?;
        self.cur = follow(self.arena.next[id]);
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
        let v = arena.gate(0);
        assert_eq!(
            v.words,
            &[
                MaskWord {
                    index: 0,
                    ctrl: 1 << 3,
                    pol: 1 << 3
                },
                MaskWord {
                    index: 1,
                    ctrl: 1 << 6,
                    pol: 0
                }
            ]
        );
        assert_eq!(v.num_controls(), 2);
        assert_eq!(v.control_on(3), Some(true));
        assert_eq!(v.control_on(70), Some(false));
        assert_eq!(v.control_on(68), None);
        assert!(v.acts_on(68));
        assert_eq!(v.max_line(), 70);
        assert_eq!(v.to_gate(), gate);
        // A gate in one high word stores that word alone.
        let high = PackedGateBuf::from_gate(&g(&[(200, true)], 5));
        assert_eq!(high.words.len(), 1);
        assert_eq!(high.words[0].index, 3);
    }

    #[test]
    fn fires_matches_legacy_gate() {
        let gate = g(&[(0, true), (2, false)], 1);
        let arena = GateArena::from_gates(3, std::slice::from_ref(&gate));
        let v = arena.gate(0);
        for x in 0..8u64 {
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
        let buf = PackedGateBuf::from_gate(&g(&[(1, true)], 0));
        let new = arena.insert_before(head, &buf);
        assert_eq!(arena.first(), Some(new));
        let targets: Vec<usize> = arena.iter().map(|(_, v)| v.target()).collect();
        assert_eq!(targets, vec![0, 1, 2]);
        arena.replace(head, &PackedGateBuf::from_gate(&g(&[], 2)));
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
    fn growing_lines_keeps_every_gate() {
        let gate = g(&[(0, true), (50, false)], 20);
        let mut arena = GateArena::from_gates(51, std::slice::from_ref(&gate));
        arena.grow_lines(130);
        assert_eq!(arena.num_lines(), 130);
        assert_eq!(arena.to_gates(), vec![gate]);
        arena.push(&g(&[(128, true)], 5));
        assert_eq!(arena.len(), 2);
        assert_eq!(
            arena.gate(arena.last().unwrap()).control_on(128),
            Some(true)
        );
    }

    #[test]
    fn dropping_a_word_s_last_control_removes_its_entry() {
        let mut arena = GateArena::from_gates(130, &[g(&[(1, true), (70, false)], 0)]);
        let mut lines = vec![0u64; 3];
        lines[1] = 1 << 6;
        assert_eq!(arena.drop_controls(0, &lines), 1);
        assert_eq!(
            arena.gate(0),
            PackedGateBuf::from_gate(&g(&[(1, true)], 0)).view()
        );
        assert_eq!(arena.gate(0).words.len(), 1);
        // A wider rewrite moves the gate's run to the end of the buffer;
        // compaction drops the two entries left behind.
        arena.replace(
            0,
            &PackedGateBuf::from_gate(&g(&[(1, true), (129, true)], 0)),
        );
        assert_eq!(arena.words.len(), 4);
        arena.compact();
        assert_eq!(arena.words.len(), 2);
        assert_eq!(arena.materialize(0), g(&[(1, true), (129, true)], 0));
    }

    #[test]
    fn compaction_keeps_the_live_sequence_in_slots_0_to_len() {
        let gates: Vec<Gate> = (0..6).map(|t| g(&[((t + 1) % 6, t % 2 == 0)], t)).collect();
        let mut arena = GateArena::from_gates(6, &gates);
        arena.remove(0);
        arena.remove(3);
        arena.remove(5);
        let expected = arena.to_gates();
        // Out of slot order.
        let mut spliced = arena.clone();
        let buf = PackedGateBuf::from_gate(&g(&[], 0));
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
