//! Shared proptest strategies and reference engines for the differential
//! suites (feature `testkit`).
//!
//! Every crate that differential-tests reversible-circuit machinery —
//! `qda-rev`'s own suites, `qda-revsynth`'s synthesis properties, and the
//! flow-level suites in `qda-core` — needs the same two generators: a
//! random MPMCT cascade and a random permutation. This module is the one
//! home for them, so the suites stop re-rolling their own (subtly
//! different) copies and a generator fix reaches every consumer at once.
//! It also holds the plain reference engines the production passes are
//! checked against: [`resynthesize_full_sweep`] for windowed
//! resynthesis and [`optimize_by_components`] for the peephole
//! optimizer.
//!
//! Enable it from a dependent's `[dev-dependencies]`:
//!
//! ```toml
//! qda-rev = { workspace = true, features = ["testkit"] }
//! ```

use crate::circuit::Circuit;
use crate::gate::{Control, Gate};
use crate::opt::rules::{MergeRule, RewriteCost};
use crate::opt::{equivalence_witness, OptOptions, OptStats, Optimized, UnionFind};
use crate::resynth::{
    ResynthOptions, ResynthStats, Resynthesized, WindowSynthesizer, MAX_WINDOW_LINES,
};
use proptest::prelude::*;
use qda_logic::par;
use std::collections::VecDeque;

/// A random mixed-polarity MPMCT circuit: the line count is drawn from
/// `lines`, followed by up to `max_gates` gates whose target, control
/// set, and control polarities are derived from three random words.
pub fn arb_mpmct_circuit(
    lines: std::ops::Range<usize>,
    max_gates: usize,
) -> impl Strategy<Value = Circuit> {
    (
        lines,
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..max_gates),
    )
        .prop_map(|(lines, raw)| {
            let mut c = Circuit::new(lines);
            for (tsel, cmask, pmask) in raw {
                let target = (tsel % lines as u64) as usize;
                let controls: Vec<Control> = (0..lines)
                    .filter(|&l| l != target && (cmask >> l) & 1 == 1)
                    .map(|l| {
                        if (pmask >> l) & 1 == 1 {
                            Control::positive(l)
                        } else {
                            Control::negative(l)
                        }
                    })
                    .collect();
                c.add_gate(Gate::mct(controls, target));
            }
            c
        })
}

/// A uniformly shuffled permutation of `0..2^r` (Fisher–Yates driven by a
/// random seed word), in the explicit `Vec<u64>` form the functional
/// synthesis back-ends consume.
///
/// # Panics
///
/// Panics if `r > 16` (the explicit table would not fit test budgets).
pub fn arb_permutation(r: usize) -> impl Strategy<Value = Vec<u64>> {
    assert!(r <= 16, "explicit permutation strategies capped at r = 16");
    let size = 1usize << r;
    any::<u64>().prop_map(move |seed| {
        // SplitMix64 stream: cheap, deterministic in the drawn seed.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut perm: Vec<u64> = (0..size as u64).collect();
        for i in (1..size).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    })
}

/// The reference windowed-resynthesis pass: the same window growth,
/// candidate race and acceptance as [`crate::resynth::resynthesize`], but
/// with none of its shortcuts. Every pass works on the circuit's legacy
/// [`Gate`] list, re-extracts the window at every start, races the
/// back-ends on every window, and splices with `Vec::splice`.
///
/// The production pass must return the identical circuit and identical
/// `windows_accepted`, gate/T deltas and `passes`. Here
/// `windows_attempted`, `windows_rejected` and `candidates_unsound` count
/// every window, and `memo_hits` and `clean_skips` stay zero.
pub fn resynthesize_full_sweep(
    circuit: &Circuit,
    options: &ResynthOptions,
    synths: &[&dyn WindowSynthesizer],
) -> Resynthesized {
    let mut gates = circuit.gates();
    let mut stats = ResynthStats::default();
    loop {
        stats.passes += 1;
        if !full_sweep(&mut gates, options, synths, &mut stats) {
            break;
        }
    }
    let mut out = Circuit::new(circuit.num_lines());
    for gate in gates {
        out.add_gate(gate);
    }
    Resynthesized {
        circuit: out,
        stats,
    }
}

/// The sorted lines a gate reads or writes.
fn support_of(gate: &Gate) -> Vec<usize> {
    let mut lines: Vec<usize> = gate.controls().iter().map(|c| c.line()).collect();
    lines.push(gate.target());
    lines.sort_unstable();
    lines
}

/// One full sweep over the cascade. Returns `true` when at least one
/// window was spliced.
fn full_sweep(
    list: &mut Vec<Gate>,
    options: &ResynthOptions,
    synths: &[&dyn WindowSynthesizer],
    stats: &mut ResynthStats,
) -> bool {
    let max_lines = options.max_lines.clamp(1, MAX_WINDOW_LINES);
    let max_gates = options.max_window_gates.max(2);
    let mut changed = false;
    let mut id = 0;
    while id < list.len() {
        // Greedy growth: a gate sharing a line with the window joins while
        // the union support fits; a gate on disjoint lines is skipped and
        // poisons its lines; anything else stops growth.
        let mut support = support_of(&list[id]);
        if support.len() > max_lines {
            id += 1;
            continue;
        }
        let mut ids = vec![id];
        let mut skipped_lines: Vec<usize> = Vec::new();
        let mut skips_left = options.max_commute_skips;
        for (jid, gate) in list.iter().enumerate().skip(id + 1) {
            if ids.len() >= max_gates {
                break;
            }
            let lines = support_of(gate);
            let overlaps_window = lines.iter().any(|l| support.contains(l));
            let overlaps_skipped = lines.iter().any(|l| skipped_lines.contains(l));
            if overlaps_window && !overlaps_skipped {
                let mut grown = support.clone();
                grown.extend(lines.iter().filter(|l| !support.contains(l)));
                if grown.len() > max_lines {
                    break;
                }
                grown.sort_unstable();
                support = grown;
                ids.push(jid);
            } else if !overlaps_window && skips_left > 0 {
                skipped_lines.extend(lines);
                skips_left -= 1;
            } else {
                break;
            }
        }
        if ids.len() < 2 {
            id += 1;
            continue;
        }
        stats.windows_attempted += 1;
        let k = support.len();
        let mut to_local = vec![usize::MAX; support[k - 1] + 1];
        for (local, &line) in support.iter().enumerate() {
            to_local[line] = local;
        }
        let mut sub = Circuit::new(k);
        for &w in &ids {
            sub.add_gate(list[w].remapped(|l| to_local[l]));
        }
        let perm = sub
            .permutation()
            .expect("window support is capped at MAX_WINDOW_LINES = 8 lines");
        let candidates = par::run_indexed(synths.len(), |si| {
            let candidate = synths[si].synthesize(&perm)?;
            if candidate.num_lines() != k || equivalence_witness(&sub, &candidate).is_some() {
                return Some(Err(()));
            }
            Some(Ok(candidate))
        });
        let mut best: Option<Circuit> = None;
        for verdict in candidates.into_iter().flatten() {
            let Ok(candidate) = verdict else {
                stats.candidates_unsound += 1;
                continue;
            };
            let cost = |c: &Circuit| (c.cost().t_count, c.num_gates());
            if best.as_ref().is_none_or(|b| cost(&candidate) < cost(b)) {
                best = Some(candidate);
            }
        }
        let removed: Vec<usize> = ids.iter().map(|&w| list[w].num_controls()).collect();
        let cost = best.as_ref().map(|b| {
            let added: Vec<usize> = b.packed().iter().map(|(_, g)| g.num_controls()).collect();
            RewriteCost::of_controls(&removed, &added)
        });
        let Some(cost) = cost.filter(RewriteCost::accepted) else {
            stats.windows_rejected += 1;
            id += 1;
            continue;
        };
        let replacement = best.expect("accepted implies a candidate");
        stats.windows_accepted += 1;
        stats.gates_removed += cost.gates_removed as u64;
        stats.gates_added += cost.gates_added as u64;
        stats.t_removed += cost.t_removed;
        stats.t_added += cost.t_added;
        // Splice: the window's span becomes the replacement followed by
        // the gates the window skipped inside it (every window gate
        // commutes with them); the sweep resumes after the span.
        let (first, last) = (ids[0], ids[ids.len() - 1]);
        let span: Vec<Gate> = replacement
            .gates()
            .iter()
            .map(|g| g.remapped(|l| support[l]))
            .chain(
                (first..=last)
                    .filter(|j| !ids.contains(j))
                    .map(|j| list[j].clone()),
            )
            .collect();
        id = first + span.len();
        list.splice(first..=last, span);
        changed = true;
    }
    changed
}

/// A gate in the dense word-array form: one control and one polarity
/// word per 64 lines of its circuit, whatever the gate's support. This is
/// the reference representation of the differential suites: the
/// reference optimizer [`optimize_by_components`] runs on it, and the
/// wide-circuit properties check every
/// [`PackedGate`](crate::packed::PackedGate) relation and
/// [`merge_packed`](crate::opt::rules::merge_packed) against its
/// definitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseGate {
    /// Control mask: bit `l % 64` of word `l / 64` makes line `l` a
    /// control.
    pub ctrl: Vec<u64>,
    /// Polarity mask (set bit = positive control), a subset of `ctrl`.
    pub pol: Vec<u64>,
    /// The target line.
    pub target: usize,
}

impl DenseGate {
    /// Packs `gate` into `words` mask words.
    ///
    /// # Panics
    ///
    /// Panics if a control lies beyond `words` words.
    pub fn from_gate(gate: &Gate, words: usize) -> Self {
        let mut ctrl = vec![0u64; words];
        let mut pol = vec![0u64; words];
        for c in gate.controls() {
            ctrl[c.line() / 64] |= 1 << (c.line() % 64);
            if c.is_positive() {
                pol[c.line() / 64] |= 1 << (c.line() % 64);
            }
        }
        Self {
            ctrl,
            pol,
            target: gate.target(),
        }
    }

    /// The controls in ascending line order.
    pub fn controls(&self) -> Vec<Control> {
        (0..self.ctrl.len() * 64)
            .filter_map(|l| self.control_on(l).map(|p| (l, p)))
            .map(|(l, p)| {
                if p {
                    Control::positive(l)
                } else {
                    Control::negative(l)
                }
            })
            .collect()
    }

    /// The legacy view.
    pub fn to_gate(&self) -> Gate {
        Gate::mct(self.controls(), self.target)
    }

    /// Popcount of the control mask.
    pub fn num_controls(&self) -> usize {
        self.ctrl.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `Some(positive)` when `line` is a control.
    pub fn control_on(&self, line: usize) -> Option<bool> {
        let (w, b) = (line / 64, line % 64);
        if w >= self.ctrl.len() || (self.ctrl[w] >> b) & 1 == 0 {
            return None;
        }
        Some((self.pol[w] >> b) & 1 == 1)
    }

    /// Whether the gate reads or writes `line`.
    pub fn acts_on(&self, line: usize) -> bool {
        self.target == line || self.control_on(line).is_some()
    }

    /// The highest line the gate reads or writes.
    pub fn max_line(&self) -> usize {
        self.controls()
            .last()
            .map_or(self.target, |c| c.line().max(self.target))
    }

    /// `(s ^ pol) & ctrl == 0` for every word (missing state words are
    /// zero).
    pub fn fires_words(&self, state: &[u64]) -> bool {
        self.ctrl.iter().enumerate().all(|(w, &cw)| {
            let s = state.get(w).copied().unwrap_or(0);
            (s ^ self.pol[w]) & cw == 0
        })
    }

    /// `(ctrl_a & ctrl_b) & (pol_a ^ pol_b) != 0` in some word.
    pub fn controls_conflict(&self, other: &DenseGate) -> bool {
        self.ctrl
            .iter()
            .zip(&other.ctrl)
            .zip(self.pol.iter().zip(&other.pol))
            .any(|((&ca, &cb), (&pa, &pb))| (ca & cb) & (pa ^ pb) != 0)
    }

    /// Same target, neither target in the other's support, or
    /// conflicting controls.
    pub fn commutes_with(&self, other: &DenseGate) -> bool {
        self.target == other.target
            || (!self.acts_on(other.target) && !other.acts_on(self.target))
            || self.controls_conflict(other)
    }

    /// The two control-merge templates of
    /// [`merge_packed`](crate::opt::rules::merge_packed), word by word.
    pub fn merge(&self, other: &DenseGate) -> Option<(DenseGate, MergeRule)> {
        if self.target != other.target {
            return None;
        }
        let (ca, cb, pa, pb) = (&self.ctrl, &other.ctrl, &self.pol, &other.pol);
        if ca == cb {
            let diff_bits: u32 = pa.iter().zip(pb).map(|(&x, &y)| (x ^ y).count_ones()).sum();
            if diff_bits != 1 {
                return None;
            }
            let ctrl = ca
                .iter()
                .zip(pa.iter().zip(pb))
                .map(|(&c, (&x, &y))| c & !(x ^ y))
                .collect();
            let pol = pa.iter().zip(pb).map(|(&x, &y)| x & y).collect();
            let target = self.target;
            return Some((DenseGate { ctrl, pol, target }, MergeRule::Polarity));
        }
        if pa
            .iter()
            .zip(pb)
            .zip(ca.iter().zip(cb))
            .any(|((&x, &y), (&cx, &cy))| (x ^ y) & (cx & cy) != 0)
        {
            return None;
        }
        let extra = |x: &[u64], y: &[u64]| -> u32 {
            x.iter().zip(y).map(|(&x, &y)| (x & !y).count_ones()).sum()
        };
        let (large, small) = match (extra(ca, cb), extra(cb, ca)) {
            (1, 0) => (self, other),
            (0, 1) => (other, self),
            _ => return None,
        };
        let pol = large
            .pol
            .iter()
            .zip(large.ctrl.iter().zip(&small.ctrl))
            .map(|(&p, (&cl, &cs))| p ^ (cl & !cs))
            .collect();
        let merged = DenseGate {
            ctrl: large.ctrl.clone(),
            pol,
            target: self.target,
        };
        Some((merged, MergeRule::Subset))
    }
}

/// The reference peephole optimizer: the rule catalogue, window and
/// worklist order of [`crate::opt::optimize_assuming`], run the plain
/// way on [`DenseGate`] lists, a representation of its own. Every
/// peephole pass splits the cascade into support-connected components,
/// copies each component into a list of its own, runs that component's
/// worklist there, and merges the survivors back in original gate order.
/// The constant pass decodes every gate's controls against a per-line
/// constant lattice value.
///
/// The production optimizer must return the identical circuit and
/// identical [`OptStats`].
pub fn optimize_by_components(
    circuit: &Circuit,
    options: &OptOptions,
    zero_lines: &[usize],
) -> Optimized {
    let window = options.window.max(1);
    let n = circuit.num_lines();
    let words = crate::packed::words_for_lines(n);
    let mut stats = OptStats::default();
    let mut gates: Vec<DenseGate> = circuit
        .gates()
        .iter()
        .map(|g| DenseGate::from_gate(g, words))
        .collect();
    let mut first = true;
    loop {
        let before_const = stats.total_rewrites();
        if !zero_lines.is_empty() {
            gates = const_prop_reference(gates, n, zero_lines, &mut stats);
        }
        let const_changed = stats.total_rewrites() != before_const;
        if !first && !const_changed {
            break;
        }
        gates = split_and_merge_pass(n, &gates, window, &mut stats);
        first = false;
        if zero_lines.is_empty() {
            break;
        }
    }
    let mut out = Circuit::new(n);
    for g in &gates {
        out.add_gate(g.to_gate());
    }
    Optimized {
        circuit: out,
        stats,
    }
}

/// The constant lattice of the reference constant pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConstVal {
    /// Provably `0` at this point for every assumed start state.
    Zero,
    /// Provably `1` at this point for every assumed start state.
    One,
    /// Unknown / input-dependent.
    Top,
}

/// One forward constant-propagation sweep, one [`ConstVal`] per line.
/// Returns the surviving gates.
fn const_prop_reference(
    gates: Vec<DenseGate>,
    num_lines: usize,
    zero_lines: &[usize],
    stats: &mut OptStats,
) -> Vec<DenseGate> {
    let mut vals = vec![ConstVal::Top; num_lines];
    for &l in zero_lines {
        vals[l] = ConstVal::Zero;
    }
    let mut out = Vec::with_capacity(gates.len());
    'gates: for mut g in gates {
        let mut drops: Vec<usize> = Vec::new();
        for c in g.controls() {
            match (vals[c.line()], c.is_positive()) {
                (ConstVal::Zero, true) | (ConstVal::One, false) => {
                    stats.const_dead += 1;
                    continue 'gates;
                }
                (ConstVal::Zero, false) | (ConstVal::One, true) => drops.push(c.line()),
                (ConstVal::Top, _) => {}
            }
        }
        stats.const_drops += drops.len() as u64;
        for &l in &drops {
            g.ctrl[l / 64] &= !(1u64 << (l % 64));
            g.pol[l / 64] &= !(1u64 << (l % 64));
        }
        vals[g.target] = match (g.num_controls(), vals[g.target]) {
            (0, ConstVal::Zero) => ConstVal::One,
            (0, ConstVal::One) => ConstVal::Zero,
            _ => ConstVal::Top,
        };
        out.push(g);
    }
    out
}

/// One reference peephole pass: components copied out, optimized one
/// by one, and merged back in original gate order.
fn split_and_merge_pass(
    num_lines: usize,
    gates: &[DenseGate],
    window: usize,
    stats: &mut OptStats,
) -> Vec<DenseGate> {
    let mut uf = UnionFind::new(num_lines);
    for g in gates {
        let root = uf.find(g.target);
        for c in g.controls() {
            uf.join(c.line(), root);
        }
    }
    let mut comp_of_root: Vec<Option<usize>> = vec![None; num_lines.max(1)];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for (key, g) in gates.iter().enumerate() {
        let root = uf.find(g.target);
        let ci = *comp_of_root[root].get_or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[ci].push(key);
    }
    let mut all: Vec<(usize, DenseGate)> = Vec::new();
    for keys in &components {
        let mut sub = DenseList(keys.iter().map(|&k| Some(gates[k].clone())).collect());
        component_worklist(&mut sub, window, stats);
        all.extend(
            sub.0
                .into_iter()
                .enumerate()
                .filter_map(|(id, g)| Some((keys[id], g?))),
        );
    }
    all.sort_by_key(|&(k, _)| k);
    all.into_iter().map(|(_, g)| g).collect()
}

/// One component's gates in circuit order; a removed gate leaves `None`,
/// so ids stay stable.
struct DenseList(Vec<Option<DenseGate>>);

impl DenseList {
    fn gate(&self, id: usize) -> &DenseGate {
        self.0[id].as_ref().expect("a live gate")
    }

    fn is_live(&self, id: usize) -> bool {
        self.0[id].is_some()
    }

    fn next_live(&self, id: usize) -> Option<usize> {
        (id + 1..self.0.len()).find(|&j| self.is_live(j))
    }

    /// Up to `k` live predecessors of `id`, nearest first.
    fn window_before(&self, id: usize, k: usize) -> Vec<usize> {
        (0..id).rev().filter(|&j| self.is_live(j)).take(k).collect()
    }
}

/// One applicable rewrite found by [`reference_rewrite`].
enum RefRewrite {
    Cancel(usize),
    Merge(usize, DenseGate, MergeRule),
    NotAbsorb(usize, Vec<usize>),
}

/// The forward scan from `i` over a one-component list.
fn reference_rewrite(
    list: &DenseList,
    i: usize,
    window: usize,
    rejected: &mut u64,
) -> Option<RefRewrite> {
    let g = list.gate(i);
    let mut next = list.next_live(i);
    let mut steps = 0;
    while let Some(j) = next {
        if steps >= window {
            break;
        }
        let h = list.gate(j);
        if g == h {
            if RewriteCost::of_controls(&[g.num_controls(), h.num_controls()], &[]).accepted() {
                return Some(RefRewrite::Cancel(j));
            }
            *rejected += 1;
        } else if let Some((gate, rule)) = g.merge(h) {
            let counts = [g.num_controls(), h.num_controls()];
            if RewriteCost::of_controls(&counts, &[gate.num_controls()]).accepted() {
                return Some(RefRewrite::Merge(j, gate, rule));
            }
            *rejected += 1;
        }
        if !g.commutes_with(h) {
            break;
        }
        next = list.next_live(j);
        steps += 1;
    }
    if g.num_controls() == 0 {
        let l = g.target;
        let mut flips = Vec::new();
        let mut next = list.next_live(i);
        let mut steps = 0;
        while let Some(j) = next {
            if steps >= window {
                break;
            }
            let h = list.gate(j);
            if h.num_controls() == 0 {
                if h.target == l {
                    if RewriteCost::of_controls(&[0, 0], &[]).accepted() {
                        return Some(RefRewrite::NotAbsorb(j, flips));
                    }
                    *rejected += 1;
                }
            } else if h.control_on(l).is_some() {
                flips.push(j);
            }
            next = list.next_live(j);
            steps += 1;
        }
    }
    None
}

/// Runs one component's own FIFO worklist to its fixpoint.
fn component_worklist(list: &mut DenseList, window: usize, stats: &mut OptStats) {
    let n = list.0.len();
    let mut queue: VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    while let Some(i) = queue.pop_front() {
        queued[i] = false;
        if !list.is_live(i) {
            continue;
        }
        let Some(rewrite) = reference_rewrite(list, i, window, &mut stats.rejected) else {
            continue;
        };
        let mut requeue = list.window_before(i, window);
        let j = match &rewrite {
            RefRewrite::Cancel(j) | RefRewrite::Merge(j, ..) | RefRewrite::NotAbsorb(j, _) => *j,
        };
        requeue.extend(list.window_before(j, window));
        match rewrite {
            RefRewrite::Cancel(j) => {
                list.0[i] = None;
                list.0[j] = None;
                stats.cancellations += 1;
            }
            RefRewrite::Merge(j, gate, rule) => {
                list.0[i] = None;
                list.0[j] = Some(gate);
                requeue.push(j);
                match rule {
                    MergeRule::Polarity => stats.polarity_merges += 1,
                    MergeRule::Subset => stats.subset_merges += 1,
                }
            }
            RefRewrite::NotAbsorb(j, flips) => {
                let line = list.gate(i).target;
                list.0[i] = None;
                list.0[j] = None;
                for &f in &flips {
                    let g = list.0[f].as_mut().expect("a live gate");
                    g.pol[line / 64] ^= 1 << (line % 64);
                }
                requeue.extend(flips);
                stats.not_absorptions += 1;
            }
        }
        for id in requeue {
            if list.is_live(id) && !queued[id] {
                queued[id] = true;
                queue.push_back(id);
            }
        }
    }
}
