//! Exorcism-style multi-output ESOP minimization.
//!
//! Implements the cube-pair rewriting loop of Mishchenko & Perkowski's
//! EXORCISM-4 (Reed–Muller workshop 2001), which the paper invokes as ABC's
//! `&exorcism`:
//!
//! * distance-0 pairs (same cube) cancel by XOR-ing output masks,
//! * distance-1 pairs with equal masks merge into one cube,
//! * distance-2 pairs with equal masks are *exorlinked*: the pair is
//!   replaced by an equivalent pair, accepted when it reduces the literal
//!   count or unlocks a new distance-0/1 reduction.
//!
//! Two engines implement this loop (selected by [`ExorcismOptions::engine`]):
//!
//! * [`ExorcismEngine::Indexed`] (default) — the worklist-driven engine.
//!   Cubes live in a slot store wrapped by three indexes:
//!
//!   1. an **exact map** `cube → slot` (distance-0 partners; inserting a
//!      duplicate cube XORs the output masks in place),
//!   2. a **wildcard index** keyed by `(output mask, var, cube with that
//!      var wildcarded)`. Two same-mask cubes share a wildcard key iff they
//!      agree everywhere except possibly at `var`; combined with the exact
//!      map's uniqueness invariant, every non-self bucket mate is at
//!      distance exactly 1, so distance-1 partners are found in
//!      `O(num_vars)` lookups instead of an `O(n)` scan,
//!   3. **mask groups** `output mask → slots`, scanned for distance-2
//!      exorlink candidates behind a care-mask / literal-count signature
//!      filter (distance-2 cubes differ in ≤ 2 care bits and ≤ 2 literals).
//!
//!   A merge worklist holds the slots whose distance-0/1 neighbourhood may
//!   have changed (freshly inserted or rewritten cubes); an exorlink dirty
//!   list holds the slots touched since the last exorlink sweep. Rewrites
//!   re-enqueue only the cubes they create, so the loop is incremental —
//!   there are no full restarts.
//!
//! * [`ExorcismEngine::Naive`] — the original quadratic-restart engine
//!   (full `O(n²)` rescans after every merge), kept as the differential
//!   -testing oracle. On covers of up to 512 cubes the indexed engine
//!   runs it as one more start, so its result is never worse than the
//!   naive one there.
//!
//! Both engines run until a fixpoint or the round budget is exhausted, and
//! preserve the multi-output function exactly: every rewrite replaces a set
//! of `(cube, output mask)` entries by an XOR-equivalent set.

use qda_logic::cube::Cube;
use qda_logic::esop::MultiEsop;
use qda_logic::hash::{FxHashMap, FxHashSet};
use qda_logic::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Which minimization engine [`minimize_esop`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExorcismEngine {
    /// The indexed, worklist-driven engine (see the module docs).
    #[default]
    Indexed,
    /// The original quadratic-restart engine. The differential tests use
    /// it as the oracle for [`ExorcismEngine::Indexed`], which also runs
    /// it as one of its starts on covers small enough to afford it, so the
    /// indexed result is never worse than the naive one there.
    Naive,
}

/// Options for [`minimize_esop`].
#[derive(Clone, Copy, Debug)]
pub struct ExorcismOptions {
    /// Maximum number of improvement rounds (exorlink sweeps for the
    /// indexed engine, full sweeps for the naive one). `0` degrades to a
    /// bare distance-0 dedupe.
    pub max_rounds: usize,
    /// Engine selection.
    pub engine: ExorcismEngine,
}

impl Default for ExorcismOptions {
    fn default() -> Self {
        Self {
            max_rounds: 24,
            engine: ExorcismEngine::Indexed,
        }
    }
}

/// Diversified starts of the indexed engine (insertion and scan orders
/// vary per start; the best cover wins). The greedy loop is
/// order-sensitive, so a few cheap restarts recover most of the quality a
/// single unlucky path leaves behind.
const RESTARTS: usize = 4;

/// Seed-cover size cap for the naive start and the extra [`RESTARTS`]:
/// larger inputs run a single indexed start (restart quality gains fade
/// with size while their cost grows linearly, and the naive start's
/// quadratically).
const RESTART_CUBE_LIMIT: usize = 512;

/// Minimizes a multi-output ESOP in place; returns the number of cubes
/// eliminated.
///
/// # Example
///
/// ```
/// use qda_logic::cube::Cube;
/// use qda_logic::esop::MultiEsop;
/// use qda_classical::exorcism::{minimize_esop, ExorcismOptions};
///
/// // x̄y ⊕ xy  ==  y
/// let mut esop = MultiEsop::from_cubes(2, 1, vec![
///     (Cube::tautology().with_literal(0, false).with_literal(1, true), 1),
///     (Cube::tautology().with_literal(0, true).with_literal(1, true), 1),
/// ]);
/// let before = esop.to_truth_table();
/// minimize_esop(&mut esop, &ExorcismOptions::default());
/// assert_eq!(esop.len(), 1);
/// assert_eq!(esop.to_truth_table(), before);
/// ```
pub fn minimize_esop(esop: &mut MultiEsop, options: &ExorcismOptions) -> usize {
    let initial = esop.len();
    match options.engine {
        ExorcismEngine::Indexed => minimize_indexed(esop, options),
        ExorcismEngine::Naive => minimize_naive(esop, options),
    }
    initial.saturating_sub(esop.len())
}

// ---------------------------------------------------------------------------
// Indexed worklist engine
// ---------------------------------------------------------------------------

/// Wildcard-index key: `(output mask, wildcarded var, cube with that var
/// set to don't-care)`. Same-mask cubes share a key iff they agree on every
/// position except possibly `var`.
type WildKey = (u64, u32, Cube);

/// The indexed cube store. Slot ids are stable while a cube is live; freed
/// slots are recycled, and all three indexes are maintained eagerly, so
/// every index entry points at a live cube that matches its key.
struct CubeIndex {
    num_vars: usize,
    /// Scan wildcard positions (and exorlink candidates) high-to-low
    /// instead of low-to-high; varies the greedy path across restarts.
    scan_rev: bool,
    /// Drain the merge worklist LIFO (depth-first subcube growth) instead
    /// of FIFO (level-by-level pairing); a second restart axis.
    lifo: bool,
    /// `slots[s] = Some((cube, mask))` while live; `None` once detached.
    slots: Vec<Option<(Cube, u64)>>,
    free: Vec<usize>,
    /// Distance-0 index. Invariant: every live cube value appears in
    /// exactly one slot (duplicates are XOR-merged on insert).
    exact: FxHashMap<Cube, usize>,
    /// Distance-1 index: each live slot appears in `num_vars` buckets.
    wildcard: FxHashMap<WildKey, Vec<usize>>,
    /// Exorlink candidate groups by output mask.
    groups: FxHashMap<u64, FxHashSet<usize>>,
    /// Slots whose distance-0/1 neighbourhood may have changed.
    merge_queue: VecDeque<usize>,
    queued: Vec<bool>,
    /// Slots touched since the last exorlink sweep.
    dirty: Vec<usize>,
    dirty_flag: Vec<bool>,
}

impl CubeIndex {
    fn new(num_vars: usize, scan_rev: bool, lifo: bool) -> Self {
        Self {
            num_vars,
            scan_rev,
            lifo,
            slots: Vec::new(),
            free: Vec::new(),
            exact: FxHashMap::default(),
            wildcard: FxHashMap::default(),
            groups: FxHashMap::default(),
            merge_queue: VecDeque::new(),
            queued: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: Vec::new(),
        }
    }

    fn live(&self) -> usize {
        self.exact.len()
    }

    /// Current cover cost: `(cube count, literal count)`.
    fn cost(&self) -> (usize, usize) {
        (
            self.live(),
            self.slots
                .iter()
                .flatten()
                .map(|(c, _)| c.num_literals())
                .sum(),
        )
    }

    /// Inserts a cube, cancelling against an existing identical cube
    /// (masks XOR; the cube disappears entirely if they cancel to zero).
    fn insert(&mut self, cube: Cube, mask: u64) {
        if mask == 0 {
            return;
        }
        if let Some(&slot) = self.exact.get(&cube) {
            let (_, old_mask) = self.slots[slot].expect("exact entry points at live slot");
            self.detach(slot);
            let merged = old_mask ^ mask;
            if merged != 0 {
                self.insert_fresh(cube, merged);
            }
            return;
        }
        self.insert_fresh(cube, mask);
    }

    fn insert_fresh(&mut self, cube: Cube, mask: u64) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.queued.push(false);
                self.dirty_flag.push(false);
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some((cube, mask));
        self.exact.insert(cube, slot);
        for v in 0..self.num_vars as u32 {
            self.wildcard
                .entry((mask, v, cube.without_var(v as usize)))
                .or_default()
                .push(slot);
        }
        self.groups.entry(mask).or_default().insert(slot);
        self.enqueue_merge(slot);
        self.mark_dirty(slot);
    }

    /// Removes a live cube from the store and all indexes.
    fn detach(&mut self, slot: usize) {
        let (cube, mask) = self.slots[slot].take().expect("detach of a live slot");
        self.exact.remove(&cube);
        for v in 0..self.num_vars as u32 {
            let key = (mask, v, cube.without_var(v as usize));
            if let Entry::Occupied(mut e) = self.wildcard.entry(key) {
                e.get_mut().retain(|&s| s != slot);
                if e.get().is_empty() {
                    e.remove();
                }
            }
        }
        if let Entry::Occupied(mut e) = self.groups.entry(mask) {
            e.get_mut().remove(&slot);
            if e.get().is_empty() {
                e.remove();
            }
        }
        self.free.push(slot);
    }

    fn pop_merge(&mut self) -> Option<usize> {
        if self.lifo {
            self.merge_queue.pop_back()
        } else {
            self.merge_queue.pop_front()
        }
    }

    fn enqueue_merge(&mut self, slot: usize) {
        if !self.queued[slot] {
            self.queued[slot] = true;
            self.merge_queue.push_back(slot);
        }
    }

    fn mark_dirty(&mut self, slot: usize) {
        if !self.dirty_flag[slot] {
            self.dirty_flag[slot] = true;
            self.dirty.push(slot);
        }
    }

    /// A distance-1, same-mask partner of `cube`, if any, in
    /// `O(num_vars)` bucket lookups. Among the candidates, a partner with
    /// the same care set (phase difference — the merge drops the whole
    /// variable) is preferred over one whose care set differs (the merge
    /// only flips a phase), which gives tighter subcubes first.
    fn find_merge_partner(&self, slot: usize, cube: Cube, mask: u64) -> Option<usize> {
        let mut fallback = None;
        for i in 0..self.num_vars as u32 {
            let v = if self.scan_rev {
                self.num_vars as u32 - 1 - i
            } else {
                i
            };
            let key = (mask, v, cube.without_var(v as usize));
            if let Some(bucket) = self.wildcard.get(&key) {
                for &s in bucket {
                    if s == slot {
                        continue;
                    }
                    let (pc, _) = self.slots[s].expect("index entries are live");
                    if pc.care() == cube.care() {
                        return Some(s);
                    }
                    if fallback.is_none() {
                        fallback = Some(s);
                    }
                }
            }
        }
        fallback
    }

    /// Drains the merge worklist: every popped live cube is merged with a
    /// distance-1 partner if one exists (the result is re-inserted, which
    /// re-enqueues it and may cascade through distance-0 cancellation).
    /// Removals never create new distance-1 pairs among the survivors, so
    /// processing each insertion once is exhaustive.
    fn drain_merges(&mut self) {
        while let Some(slot) = self.pop_merge() {
            self.queued[slot] = false;
            let Some((cube, mask)) = self.slots[slot] else {
                continue; // stale entry: the cube was rewritten away
            };
            if let Some(partner) = self.find_merge_partner(slot, cube, mask) {
                let (pc, _) = self.slots[partner].expect("index entries are live");
                let merged = cube
                    .merge_distance_one(&pc)
                    .expect("wildcard bucket mates are at distance 1");
                self.detach(slot);
                self.detach(partner);
                self.insert(merged, mask);
            }
        }
    }

    /// Whether inserting `cube` with `mask` would immediately reduce the
    /// cube count: an identical cube exists (any mask — the masks XOR), or
    /// a same-mask distance-1 partner exists. `excl` are the pair being
    /// rewritten, which is about to leave the store.
    fn has_reduction_partner(&self, cube: &Cube, mask: u64, excl: [usize; 2]) -> bool {
        if let Some(&s) = self.exact.get(cube) {
            if !excl.contains(&s) {
                return true;
            }
        }
        for v in 0..self.num_vars as u32 {
            let key = (mask, v, cube.without_var(v as usize));
            if let Some(bucket) = self.wildcard.get(&key) {
                if bucket.iter().any(|s| !excl.contains(s)) {
                    return true;
                }
            }
        }
        false
    }

    /// Marks every live cube dirty (used to seed a diversification sweep
    /// after the incremental worklist has run dry).
    fn mark_all_dirty(&mut self) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                self.mark_dirty(slot);
            }
        }
    }

    /// One exorlink sweep over the cubes touched since the last sweep.
    /// With `zero_gain`, rewrites that keep the literal count are accepted
    /// too (EXORCISM-4's diversification move: it perturbs the cover at
    /// zero cost so later sweeps can find reductions the greedy path
    /// missed). Returns whether any rewrite was accepted.
    ///
    /// The dirty slots are bucketed by output mask so each mask group is
    /// snapshotted once per sweep, not once per dirty cube. Cubes created
    /// mid-sweep are missing from the snapshots; they are dirty and get
    /// their turn next sweep.
    fn exorlink_sweep(&mut self, zero_gain: bool) -> bool {
        let dirty = std::mem::take(&mut self.dirty);
        let mut by_mask: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for slot in dirty {
            self.dirty_flag[slot] = false;
            if let Some((_, mask)) = self.slots[slot] {
                by_mask.entry(mask).or_default().push(slot);
            }
        }
        let mut changed = false;
        for (mask, dirty_slots) in by_mask {
            let Some(group) = self.groups.get(&mask) else {
                continue;
            };
            let mut snapshot: Vec<usize> = group.iter().copied().collect();
            // Hash-set order is deterministic but arbitrary; sort so
            // results do not depend on the groups' internal layout.
            snapshot.sort_unstable();
            if self.scan_rev {
                snapshot.reverse();
            }
            for slot in dirty_slots {
                let Some((cube, m)) = self.slots[slot] else {
                    continue; // rewritten away earlier in this sweep
                };
                if m != mask {
                    continue; // re-masked by a distance-0 cancellation
                }
                changed |= self.try_exorlink(slot, cube, mask, &snapshot, zero_gain);
            }
        }
        changed
    }

    /// Tries to exorlink `slot` with a distance-2 cube of the same mask.
    /// A rewrite is accepted when it strictly reduces the literal count or
    /// when a rewritten cube has an immediate distance-0/1 reduction
    /// partner (the follow-up merge is performed right away, so every
    /// acceptance strictly decreases `(cube count, literal count)`
    /// lexicographically — the loop cannot cycle).
    fn try_exorlink(
        &mut self,
        slot: usize,
        cube: Cube,
        mask: u64,
        candidates: &[usize],
        zero_gain: bool,
    ) -> bool {
        let lits = cube.num_literals();
        for &j in candidates {
            if j == slot {
                continue;
            }
            // The shared snapshot may hold slots that earlier rewrites in
            // this sweep killed or re-masked.
            let Some((cj, mj)) = self.slots[j] else {
                continue;
            };
            if mj != mask {
                continue;
            }
            // Signature filter: distance-2 cubes differ in at most two
            // care-mask bits and at most two literals.
            if (cube.care() ^ cj.care()).count_ones() > 2 {
                continue;
            }
            let lits_j = cj.num_literals();
            if lits.abs_diff(lits_j) > 2 {
                continue;
            }
            if cube.distance(&cj) != 2 {
                continue;
            }
            for which in 0..2 {
                let Some((a, b)) = cube.exorlink2(&cj, which) else {
                    continue;
                };
                let new_lits = a.num_literals() + b.num_literals();
                let accept = new_lits < lits + lits_j
                    || (zero_gain && new_lits == lits + lits_j)
                    || self.has_reduction_partner(&a, mask, [slot, j])
                    || self.has_reduction_partner(&b, mask, [slot, j]);
                if accept {
                    self.detach(slot);
                    self.detach(j);
                    self.insert(a, mask);
                    self.insert(b, mask);
                    self.drain_merges();
                    return true;
                }
            }
        }
        false
    }

    /// Consumes the store into a sorted cube list (sorted so the result is
    /// independent of slot allocation order).
    fn into_cubes(self) -> Vec<(Cube, u64)> {
        let mut out: Vec<(Cube, u64)> = self.slots.into_iter().flatten().collect();
        out.sort_unstable();
        out
    }
}

fn minimize_indexed(esop: &mut MultiEsop, options: &ExorcismOptions) {
    if options.max_rounds == 0 {
        esop.dedupe();
        return;
    }
    // The greedy loop is order-sensitive: different orders reach
    // different local optima. Run a few diversified starts — insertion
    // order (input / reversed / deterministic shuffles), index scan
    // direction (start bit 0) and merge-worklist discipline (start bit 1)
    // — and keep the smallest cover by (cube count, literal count). On
    // covers small enough to afford it, the naive engine runs first, on
    // a clone, so the result is never worse than the naive oracle's.
    //
    // Every start is independent and individually deterministic, so the
    // batch is sharded across workers ([`qda_logic::par`]); the fold
    // below walks the results in start order and accepts only strictly
    // better covers, which reproduces the serial outcome byte for byte
    // whatever `QDA_WORKERS` says.
    let within_restart_budget = esop.len() <= RESTART_CUBE_LIMIT;
    let naive_jobs = usize::from(within_restart_budget);
    let starts = if within_restart_budget { RESTARTS } else { 1 };
    let runs = par::run_indexed(naive_jobs + starts, |job| {
        if job < naive_jobs {
            let mut cover = esop.clone();
            minimize_naive(&mut cover, options);
            return std::mem::take(cover.cubes_mut());
        }
        let start = job - naive_jobs;
        let mut seed: Vec<(Cube, u64)> = esop.cubes().to_vec();
        match start {
            0 => {}
            1 => seed.reverse(),
            s => shuffle(&mut seed, s as u64),
        }
        run_indexed(
            esop.num_vars(),
            &seed,
            options,
            start % 2 == 1,
            (start / 2) % 2 == 1,
        )
    });
    let mut runs = runs.into_iter();
    let mut best = runs.next().expect("at least one start ran");
    for cubes in runs {
        if cover_cost(&cubes) < cover_cost(&best) {
            best = cubes;
        }
    }
    *esop = MultiEsop::from_cubes(esop.num_vars(), esop.num_outputs(), best);
}

/// Fisher–Yates with a seed-determined `StdRng` stream: deterministic
/// per-start insertion orders for the diversified restarts.
fn shuffle(cubes: &mut [(Cube, u64)], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..cubes.len()).rev() {
        let j = rng.gen_range(0..i as u64 + 1) as usize;
        cubes.swap(i, j);
    }
}

/// Cover quality: fewer cubes first, then fewer literals.
fn cover_cost(cubes: &[(Cube, u64)]) -> (usize, usize) {
    (
        cubes.len(),
        cubes.iter().map(|(c, _)| c.num_literals()).sum(),
    )
}

/// One start of the indexed engine; returns the minimized, sorted cover.
fn run_indexed(
    num_vars: usize,
    seed: &[(Cube, u64)],
    options: &ExorcismOptions,
    scan_rev: bool,
    lifo: bool,
) -> Vec<(Cube, u64)> {
    let mut index = CubeIndex::new(num_vars, scan_rev, lifo);
    for &(c, m) in seed {
        index.insert(c, m);
    }
    index.drain_merges();
    // Best cost seen at a greedy fixpoint: diversification continues only
    // while it keeps paying off within a small stale budget — zero-gain
    // moves can ping-pong forever otherwise.
    let mut best_fixpoint_cost = (usize::MAX, usize::MAX);
    let mut stale = 0;
    for _ in 0..options.max_rounds {
        if !index.exorlink_sweep(false) {
            // The worklist ran dry at a greedy fixpoint: perturb it with a
            // zero-gain sweep (which cannot worsen any count).
            let cost = index.cost();
            if cost < best_fixpoint_cost {
                best_fixpoint_cost = cost;
                stale = 0;
            } else {
                stale += 1;
                if stale > 3 {
                    break;
                }
            }
            index.mark_all_dirty();
            if !index.exorlink_sweep(true) {
                break;
            }
        }
    }
    debug_assert_eq!(
        index.live(),
        index.slots.iter().flatten().count(),
        "exact map out of sync with the slot store"
    );
    index.into_cubes()
}

// ---------------------------------------------------------------------------
// Naive restart engine (differential-testing oracle, never-worse start)
// ---------------------------------------------------------------------------

fn minimize_naive(esop: &mut MultiEsop, options: &ExorcismOptions) {
    esop.dedupe();
    for _ in 0..options.max_rounds {
        let mut changed = naive_merge_distance_one(esop);
        changed |= naive_exorlink_pass(esop);
        esop.dedupe();
        if !changed {
            break;
        }
    }
}

/// Merges all distance-1 pairs with identical output masks by restarting a
/// full `O(n²)` pair scan after every merge. Returns whether anything
/// changed.
fn naive_merge_distance_one(esop: &mut MultiEsop) -> bool {
    let mut changed = false;
    loop {
        let cubes = esop.cubes_mut();
        let mut merged = None;
        'search: for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if cubes[i].1 != cubes[j].1 {
                    continue;
                }
                if let Some(m) = cubes[i].0.merge_distance_one(&cubes[j].0) {
                    merged = Some((i, j, m));
                    break 'search;
                }
            }
        }
        match merged {
            Some((i, j, m)) => {
                let mask = cubes[i].1;
                cubes[j] = (m, mask);
                cubes.swap_remove(i);
                changed = true;
            }
            None => return changed,
        }
    }
}

/// One sweep of exorlink-2 rewrites; a rewrite is kept when it triggers a
/// follow-up merge (cube count reduction, checked by an `O(n)` lookahead)
/// or lowers the literal count.
fn naive_exorlink_pass(esop: &mut MultiEsop) -> bool {
    let mut changed = false;
    let n = esop.len();
    'pairs: for i in 0..n {
        for j in (i + 1)..n {
            let (ci, mi) = esop.cubes()[i];
            let (cj, mj) = esop.cubes()[j];
            if mi != mj || ci.distance(&cj) != 2 {
                continue;
            }
            for which in 0..2 {
                let Some((a, b)) = ci.exorlink2(&cj, which) else {
                    continue;
                };
                // Accept if the rewritten pair merges with something else
                // (lookahead) or strictly reduces literals.
                let current_lits = ci.num_literals() + cj.num_literals();
                let new_lits = a.num_literals() + b.num_literals();
                let unlocks = esop.cubes().iter().enumerate().any(|(k, &(ck, mk))| {
                    k != i && k != j && mk == mi && (ck.distance(&a) <= 1 || ck.distance(&b) <= 1)
                });
                if unlocks || new_lits < current_lits {
                    let cubes = esop.cubes_mut();
                    cubes[i] = (a, mi);
                    cubes[j] = (b, mi);
                    changed = true;
                    continue 'pairs;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_logic::esop::Esop;
    use qda_logic::tt::TruthTable;

    fn from_minterms(tt: &TruthTable) -> MultiEsop {
        MultiEsop::from_single_outputs(&[Esop::from_truth_table(tt)])
    }

    fn engines() -> [ExorcismOptions; 2] {
        [
            ExorcismOptions::default(),
            ExorcismOptions {
                engine: ExorcismEngine::Naive,
                ..ExorcismOptions::default()
            },
        ]
    }

    #[test]
    fn minimizes_single_variable_function() {
        // All 8 minterms of x1 over 4 vars must collapse to one cube.
        for options in engines() {
            let tt = TruthTable::from_fn(4, |x| (x >> 1) & 1 == 1);
            let mut esop = from_minterms(&tt);
            minimize_esop(&mut esop, &options);
            assert_eq!(esop.len(), 1, "{:?}", options.engine);
            assert_eq!(esop.to_truth_table().outputs()[0], tt);
        }
    }

    #[test]
    fn preserves_function_on_random_inputs() {
        for options in engines() {
            for seed in 0..10u64 {
                let tt = TruthTable::from_fn(5, |x| {
                    (x.wrapping_mul(0x9E3779B9).wrapping_add(seed * 131) >> 2) & 1 == 1
                });
                let mut esop = from_minterms(&tt);
                let before = esop.len();
                minimize_esop(&mut esop, &options);
                assert_eq!(
                    esop.to_truth_table().outputs()[0],
                    tt,
                    "seed {seed} {:?}",
                    options.engine
                );
                assert!(esop.len() <= before);
            }
        }
    }

    #[test]
    fn exorlink_enables_further_merges() {
        // Three minterms of 2 vars: 00, 01, 10. Distance-1 merges give one
        // pair; exorlink finishes the job: result is 2 cubes (e.g. x̄ ⊕ x ȳ).
        for options in engines() {
            let tt = TruthTable::from_fn(2, |x| x != 3);
            let mut esop = from_minterms(&tt);
            minimize_esop(&mut esop, &options);
            assert!(esop.len() <= 2, "{:?}", options.engine);
            assert_eq!(esop.to_truth_table().outputs()[0], tt);
        }
    }

    #[test]
    fn respects_output_masks() {
        // Identical cubes feeding different outputs must not merge.
        for options in engines() {
            let c0 = qda_logic::cube::Cube::minterm(2, 1);
            let c1 = qda_logic::cube::Cube::minterm(2, 2);
            let mut esop = MultiEsop::from_cubes(2, 2, vec![(c0, 0b01), (c1, 0b10)]);
            let before = esop.to_truth_table();
            minimize_esop(&mut esop, &options);
            assert_eq!(esop.to_truth_table(), before);
            assert_eq!(esop.len(), 2, "{:?}", options.engine);
        }
    }

    #[test]
    fn multi_output_minimization_preserves_all_outputs() {
        for options in engines() {
            let t0 = TruthTable::from_fn(4, |x| x % 3 == 0);
            let t1 = TruthTable::from_fn(4, |x| x % 3 == 1);
            let mut esop = MultiEsop::from_single_outputs(&[
                Esop::from_truth_table(&t0),
                Esop::from_truth_table(&t1),
            ]);
            minimize_esop(&mut esop, &options);
            let tts = esop.to_truth_table();
            assert_eq!(tts.outputs()[0], t0, "{:?}", options.engine);
            assert_eq!(tts.outputs()[1], t1);
        }
    }

    #[test]
    fn reports_eliminated_count() {
        for options in engines() {
            let tt = TruthTable::from_fn(3, |x| x < 4); // = x̄2: 4 minterms → 1 cube
            let mut esop = from_minterms(&tt);
            let eliminated = minimize_esop(&mut esop, &options);
            assert_eq!(eliminated, 3, "{:?}", options.engine);
        }
    }

    #[test]
    fn zero_rounds_only_dedupes() {
        for engine in [ExorcismEngine::Indexed, ExorcismEngine::Naive] {
            let options = ExorcismOptions {
                max_rounds: 0,
                engine,
            };
            let c = Cube::minterm(3, 5);
            let d = Cube::minterm(3, 4); // distance 1 from c — must survive
            let mut esop = MultiEsop::from_cubes(3, 1, vec![(c, 1), (c, 1), (d, 1)]);
            minimize_esop(&mut esop, &options);
            assert_eq!(esop.len(), 1, "{engine:?}");
            assert_eq!(esop.cubes()[0], (d, 1));
        }
    }

    #[test]
    fn duplicate_masks_cancel_through_the_index() {
        // Same cube on the same output twice cancels to nothing; on two
        // different outputs the masks combine.
        let c = Cube::minterm(2, 3);
        let mut esop = MultiEsop::from_cubes(2, 2, vec![(c, 0b01), (c, 0b01)]);
        minimize_esop(&mut esop, &ExorcismOptions::default());
        assert!(esop.is_empty());
        let mut esop = MultiEsop::from_cubes(2, 2, vec![(c, 0b01), (c, 0b10)]);
        minimize_esop(&mut esop, &ExorcismOptions::default());
        assert_eq!(esop.len(), 1);
        assert_eq!(esop.cubes()[0].1, 0b11);
    }
}
