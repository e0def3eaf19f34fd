//! AIG optimization: the crate's stand-in for ABC's `dc2` / `resyn2`.
//!
//! Two passes, composed and iterated by [`optimize_aig`]:
//!
//! 1. **Balance** — collects maximal AND trees and rebuilds them as
//!    balanced trees (reduces depth, often exposes sharing).
//! 2. **Fraig-lite** — for AIGs with ≤ 16 inputs, computes the exact truth
//!    table of every node and merges functionally equivalent (or
//!    antivalent) nodes. This is exact (no SAT needed) because the whole
//!    input space fits in the simulation vectors. Tables are kept once
//!    per equivalence class, not per node: one flat store holds each
//!    class's table with bit 0 cleared by complementing, every node names
//!    its class and a complement flag, and a node finds its class through
//!    a 64-bit hash of the table and a word-by-word comparison with each
//!    candidate on that hash's chain. Memory is classes × 2^n/64 words;
//!    NEWTON(16)'s 16-input front end peaks near 0.5 GB. Simulation-based
//!    exact fraiging follows Mishchenko et al., "FRAIGs: A unifying
//!    representation for logic synthesis and verification" (2005).
//!
//! Each pass builds its output once, through the structural-hashing
//! constructor [`Aig::and`], which folds constants and duplicate
//! structure as it goes. The output keeps the nodes that no output
//! reaches, so `optimize_aig` carries each AIG together with its live
//! set ([`Aig::live_nodes`]) instead of cleaning it: the next pass visits
//! only live nodes, counts fanouts over live nodes only, and the stop
//! rule compares live AND counts. An AIG's live nodes, in order, are the
//! nodes of its cleanup, in order, so every round builds, node for node,
//! what the public [`balance`] and [`fraig_exact`] (which visit every node
//! and clean their output) build from a cleaned input. One
//! [`Aig::cleanup`] at the end drops the dead nodes; it renumbers, without
//! a lookup.

use qda_logic::aig::{Aig, Lit};
use qda_logic::hash::FxHashMap;
use qda_logic::tt::TruthTable;

/// Options controlling [`optimize_aig`].
///
/// `Eq`/`Hash` so the options can key front-end caches (two flows asking
/// for the same optimization share one optimized AIG).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OptimizeOptions {
    /// Number of balance+fraig rounds.
    pub rounds: usize,
    /// Enable the exact fraig pass for ≤ `fraig_limit`-input AIGs.
    pub fraig_limit: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        Self {
            rounds: 3,
            fraig_limit: 16,
        }
    }
}

/// Optimizes an AIG, returning a functionally equivalent, usually smaller
/// one. Mirrors the role of several `dc2` rounds in the paper's flows.
///
/// # Example
///
/// ```
/// use qda_logic::aig::Aig;
/// use qda_classical::rewrite::{optimize_aig, OptimizeOptions};
///
/// let mut aig = Aig::new(2);
/// let a = aig.pi(0);
/// let b = aig.pi(1);
/// let x = aig.xor(a, b);
/// let y = aig.xor(a, b); // shared by hashing already
/// let f = aig.and(x, y); // = x
/// aig.add_po(f);
/// let opt = optimize_aig(&aig, &OptimizeOptions::default());
/// assert!(opt.num_ands() <= aig.num_ands());
/// ```
pub fn optimize_aig(aig: &Aig, options: &OptimizeOptions) -> Aig {
    // `cur` is `aig` until a round improves on it. Each round's AIGs keep
    // their dead nodes; the live sets stand in for a cleanup.
    let mut cur: Option<Aig> = None;
    let mut live = aig.live_nodes();
    let mut live_ands = count_ands(aig, &live);
    for _ in 0..options.rounds {
        let balanced = balance_nodes(cur.as_ref().unwrap_or(aig), &live);
        let balanced_live = balanced.live_nodes();
        let (fraiged, fraiged_live) = if balanced.num_pis() <= options.fraig_limit {
            let fraiged = fraig_nodes(&balanced, &balanced_live);
            let fraiged_live = fraiged.live_nodes();
            (fraiged, fraiged_live)
        } else {
            (balanced, balanced_live)
        };
        let fraiged_ands = count_ands(&fraiged, &fraiged_live);
        if fraiged_ands >= live_ands {
            break;
        }
        (cur, live, live_ands) = (Some(fraiged), fraiged_live, fraiged_ands);
    }
    cur.as_ref().unwrap_or(aig).cleanup()
}

/// The number of AND nodes `visit` marks.
fn count_ands(aig: &Aig, visit: &[bool]) -> usize {
    visit[aig.num_pis() + 1..].iter().filter(|&&v| v).count()
}

/// Rebuilds the AIG with balanced AND trees.
///
/// Maximal single-fanout AND chains are collected into n-ary conjunctions
/// and re-emitted as balanced trees, reducing logic depth. Every node of
/// the input is rebuilt, dead ones included, and the result is cleaned.
pub fn balance(aig: &Aig) -> Aig {
    balance_nodes(aig, &vec![true; aig.num_nodes()]).cleanup()
}

/// [`balance`] over the AND nodes `visit` marks, with fanouts counted over
/// those nodes only; the output is not cleaned. With `visit` the live set,
/// this is `balance` of the cleaned input: the same `and` calls in the
/// same order, so the same output, node for node.
fn balance_nodes(aig: &Aig, visit: &[bool]) -> Aig {
    let fanout = fanout_counts(aig, visit);
    let mut out = Aig::new(aig.num_pis());
    out.reserve(count_ands(aig, visit));
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for (i, m) in map.iter_mut().enumerate().take(aig.num_pis() + 1) {
        *m = Lit::new(i, false);
    }
    let (mut leaves, mut mapped) = (Vec::new(), Vec::new());
    for n in (aig.num_pis() + 1..aig.num_nodes()).filter(|&n| visit[n]) {
        // Collect the maximal AND tree rooted here, stopping at
        // multi-fanout or complemented edges.
        leaves.clear();
        collect_and_leaves(aig, Lit::new(n, false), n, &fanout, &mut leaves);
        mapped.clear();
        mapped.extend(leaves.iter().map(|l| map[l.node()] ^ l.is_complement()));
        map[n] = out.and_many(&mapped);
    }
    for po in aig.pos() {
        let l = map[po.node()] ^ po.is_complement();
        out.add_po(l);
    }
    out
}

fn collect_and_leaves(aig: &Aig, lit: Lit, root: usize, fanout: &[usize], leaves: &mut Vec<Lit>) {
    let n = lit.node();
    let expandable = !lit.is_complement() && aig.is_and(n) && (n == root || fanout[n] == 1);
    if expandable {
        let [a, b] = aig.fanins(n);
        collect_and_leaves(aig, a, root, fanout, leaves);
        collect_and_leaves(aig, b, root, fanout, leaves);
    } else {
        leaves.push(lit);
    }
}

/// Fanouts of every node from the AND nodes `visit` marks and from the
/// outputs.
fn fanout_counts(aig: &Aig, visit: &[bool]) -> Vec<usize> {
    let mut counts = vec![0usize; aig.num_nodes()];
    for n in (aig.num_pis() + 1..aig.num_nodes()).filter(|&n| visit[n]) {
        let [a, b] = aig.fanins(n);
        counts[a.node()] += 1;
        counts[b.node()] += 1;
    }
    for po in aig.pos() {
        counts[po.node()] += 1;
    }
    counts
}

/// Exact functional reduction for AIGs with few inputs: every node's full
/// truth table is computed and equivalent/antivalent nodes are merged.
///
/// The tables live in one flat buffer with one table per equivalence
/// class, normalized so that bit 0 (the all-zero input) is clear. It holds
/// the constant, then the PIs, then each new class in node order. Every
/// node records its class and a complement flag, and an AND node's table
/// is computed from its fanins' classes. The node's class is found through
/// a 64-bit hash of its normalized table, which leads to a chain of
/// candidate classes; a candidate is compared word by word before the node
/// joins it, so a hash collision never merges two functions. Nodes are
/// visited in order and a class keeps its first node as representative.
/// Memory is classes × 2^n/64 words (at least one word per class).
///
/// # Panics
///
/// Panics if the AIG has more than 20 inputs (table blow-up guard).
pub fn fraig_exact(aig: &Aig) -> Aig {
    fraig_nodes(aig, &vec![true; aig.num_nodes()]).cleanup()
}

/// [`fraig_exact`] over the AND nodes `visit` marks; the output is not
/// cleaned. With `visit` the live set, this is `fraig_exact` of the
/// cleaned input, node for node once cleaned. It is not `fraig_exact` of
/// an input with dead nodes: a dead node can found a class that a live
/// node then joins.
///
/// # Panics
///
/// Panics if the AIG has more than 20 inputs (table blow-up guard).
fn fraig_nodes(aig: &Aig, visit: &[bool]) -> Aig {
    assert!(aig.num_pis() <= 20, "fraig_exact limited to 20 inputs");
    let n_in = aig.num_pis();
    let mut classes = ClassStore::new(n_in);
    let mut out = Aig::new(n_in);
    // func[node] = 2 * class + complement: the node computes its class's
    // table, complemented when the low bit is set. A node not visited
    // keeps a 0 that no visited node reads.
    let mut func: Vec<u32> = (0..=n_in as u32).map(|class| 2 * class).collect();
    func.resize(aig.num_nodes(), 0);
    for n in (n_in + 1..aig.num_nodes()).filter(|&n| visit[n]) {
        let [a, b] = aig.fanins(n);
        let fa = func[a.node()] ^ u32::from(a.is_complement());
        let fb = func[b.node()] ^ u32::from(b.is_complement());
        let (hash, complemented) = classes.and(fa, fb);
        let class = match classes.find(hash) {
            Some(class) => class,
            None => {
                let rep = out.and(classes.lit(fa), classes.lit(fb)) ^ complemented;
                classes.insert(hash, rep)
            }
        };
        func[n] = 2 * class + u32::from(complemented);
    }
    for po in aig.pos() {
        let l = classes.lit(func[po.node()] ^ u32::from(po.is_complement()));
        out.add_po(l);
    }
    out
}

/// End of a hash chain in [`ClassStore::next`].
const NO_CLASS: u32 = u32::MAX;

/// The equivalence classes of [`fraig_exact`]: one normalized truth table
/// per class (bit 0 clear), stored back to back in one buffer, and a hash
/// index over the tables. A function is named `2 * class + complement`.
struct ClassStore {
    /// Words per table: 2^n / 64, at least one.
    words: usize,
    /// The valid bits of a word: all of them from 6 inputs on, else the
    /// low 2^n.
    mask: u64,
    /// Class `c`'s table is `tables[c * words..(c + 1) * words]`.
    tables: Vec<u64>,
    /// The table computed by the last [`ClassStore::and`], normalized.
    scratch: Vec<u64>,
    /// Each class's representative in the output AIG, in the normalized
    /// polarity.
    reps: Vec<Lit>,
    /// The previous class inserted with the same table hash, or
    /// [`NO_CLASS`].
    next: Vec<u32>,
    /// Table hash → the last class inserted with that hash.
    heads: FxHashMap<u64, u32>,
}

impl ClassStore {
    /// A store holding the constant and the `n_in` PIs, in that order.
    fn new(n_in: usize) -> Self {
        let words = 1usize.max((1usize << n_in) / 64);
        let mut store = Self {
            words,
            mask: if n_in >= 6 {
                u64::MAX
            } else {
                (1u64 << (1 << n_in)) - 1
            },
            tables: Vec::new(),
            scratch: vec![0; words],
            reps: Vec::new(),
            next: Vec::new(),
            heads: FxHashMap::default(),
        };
        store.insert(table_hash(&store.scratch), Lit::FALSE);
        for pi in 0..n_in {
            store
                .scratch
                .copy_from_slice(TruthTable::var(n_in, pi).words());
            store.insert(table_hash(&store.scratch), Lit::new(pi + 1, false));
        }
        store
    }

    /// The literal of a function in the output AIG.
    fn lit(&self, f: u32) -> Lit {
        self.reps[(f >> 1) as usize] ^ (f & 1 == 1)
    }

    /// Computes the AND of two functions into `scratch`, normalized, and
    /// returns its hash and whether the AND is the complement of that
    /// normalized table.
    fn and(&mut self, fa: u32, fb: u32) -> (u64, bool) {
        let w = self.words;
        let flip = |f: u32| if f & 1 == 1 { self.mask } else { 0 };
        let (flip_a, flip_b) = (flip(fa), flip(fb));
        let ta = &self.tables[(fa >> 1) as usize * w..][..w];
        let tb = &self.tables[(fb >> 1) as usize * w..][..w];
        let complemented = (ta[0] ^ flip_a) & (tb[0] ^ flip_b) & 1 == 1;
        let flip_out = if complemented { self.mask } else { 0 };
        for ((s, &x), &y) in self.scratch.iter_mut().zip(ta).zip(tb) {
            *s = ((x ^ flip_a) & (y ^ flip_b)) ^ flip_out;
        }
        (table_hash(&self.scratch), complemented)
    }

    /// The class whose table equals `scratch`, if any; `hash` is
    /// `scratch`'s hash.
    fn find(&self, hash: u64) -> Option<u32> {
        let mut class = *self.heads.get(&hash)?;
        while class != NO_CLASS {
            let c = class as usize;
            if self.tables[c * self.words..(c + 1) * self.words] == self.scratch[..] {
                return Some(class);
            }
            class = self.next[c];
        }
        None
    }

    /// Stores `scratch` as a new class with representative `rep`.
    fn insert(&mut self, hash: u64, rep: Lit) -> u32 {
        let class = self.reps.len() as u32;
        self.tables.extend_from_slice(&self.scratch);
        self.reps.push(rep);
        self.next
            .push(self.heads.insert(hash, class).unwrap_or(NO_CLASS));
        class
    }
}

/// Multiplier of the FxHash family (the one rustc uses).
const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One rotate-xor-multiply round of [`table_hash`].
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(HASH_SEED)
}

/// 64-bit hash of a table's words. Word `i` goes to lane `i mod 4`, so
/// the lanes' multiplies do not wait on each other; the lanes and any
/// words past the last full group of four are folded at the end.
fn table_hash(words: &[u64]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut groups = words.chunks_exact(4);
    for group in &mut groups {
        for (lane, &w) in lanes.iter_mut().zip(group) {
            *lane = mix(*lane, w);
        }
    }
    lanes
        .iter()
        .chain(groups.remainder())
        .fold(0, |state, &w| mix(state, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact fraig this module ran before the class store: one table
    /// per node, and each class's table cloned as a hash-map key. The
    /// reference for node-for-node identity.
    fn fraig_per_node(aig: &Aig) -> Aig {
        let n_in = aig.num_pis();
        let words_per_node = 1usize.max((1usize << n_in) / 64);
        // values[node] = packed truth table.
        let total = 1u64 << n_in;
        let mut values: Vec<Vec<u64>> = vec![vec![0; words_per_node]; aig.num_nodes()];
        // PIs.
        for pi in 0..n_in {
            for x in 0..total {
                if (x >> pi) & 1 == 1 {
                    values[pi + 1][(x >> 6) as usize] |= 1 << (x & 63);
                }
            }
        }
        let mask = if n_in >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << n_in)) - 1
        };
        let read = |values: &Vec<Vec<u64>>, l: Lit, w: usize| -> u64 {
            let v = values[l.node()][w];
            if l.is_complement() {
                !v & mask
            } else {
                v & mask
            }
        };
        let mut out = Aig::new(n_in);
        let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
        for (i, m) in map.iter_mut().enumerate().take(n_in + 1) {
            *m = Lit::new(i, false);
        }
        // Canonical table (with complement normalization: lowest bit clear).
        let mut canon: FxHashMap<Vec<u64>, Lit> = FxHashMap::default();
        canon.insert(vec![0; words_per_node], Lit::FALSE);
        for pi in 0..n_in {
            let tt: Vec<u64> = (0..words_per_node)
                .map(|w| values[pi + 1][w] & mask)
                .collect();
            canon.insert(tt, Lit::new(pi + 1, false));
        }
        for n in (n_in + 1)..aig.num_nodes() {
            let [a, b] = aig.fanins(n);
            for w in 0..words_per_node {
                values[n][w] = read(&values, a, w) & read(&values, b, w);
            }
            // Normalize: store with bit 0 = 0.
            let tt: Vec<u64> = (0..words_per_node).map(|w| values[n][w] & mask).collect();
            let complemented = tt[0] & 1 == 1;
            let key: Vec<u64> = if complemented {
                tt.iter().map(|w| !w & mask).collect()
            } else {
                tt.clone()
            };
            if let Some(&rep) = canon.get(&key) {
                map[n] = rep ^ complemented;
            } else {
                let la = map[a.node()] ^ a.is_complement();
                let lb = map[b.node()] ^ b.is_complement();
                let lit = out.and(la, lb);
                map[n] = lit;
                canon.insert(key, lit ^ complemented);
            }
        }
        for po in aig.pos() {
            let l = map[po.node()] ^ po.is_complement();
            out.add_po(l);
        }
        out.cleanup()
    }

    /// A deterministic pseudo-random AIG whose literal pool starts with
    /// both constants and every PI, and whose outputs include the
    /// constants, a PI (when there is one) and complemented nodes.
    fn random_aig(num_pis: usize, num_ands: usize, seed: u64) -> Aig {
        let mut aig = Aig::new(num_pis);
        let mut lits = vec![Lit::FALSE, Lit::TRUE];
        lits.extend((0..num_pis).map(|i| aig.pi(i)));
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..num_ands {
            let a = lits[(next() as usize) % lits.len()] ^ (next() & 1 == 1);
            let b = lits[(next() as usize) % lits.len()] ^ (next() & 1 == 1);
            let f = aig.and(a, b);
            lits.push(f);
        }
        aig.add_po(Lit::FALSE);
        aig.add_po(Lit::TRUE);
        if num_pis > 0 {
            aig.add_po(!aig.pi(num_pis - 1));
        }
        for _ in 0..4 {
            let po = lits[(next() as usize) % lits.len()] ^ (next() & 1 == 1);
            aig.add_po(po);
        }
        let last = *lits.last().expect("constants are in the pool");
        aig.add_po(!last);
        aig
    }

    /// Node-for-node equality: the same nodes with the same fanins, and
    /// the same outputs.
    fn assert_same_aig(got: &Aig, want: &Aig, what: &str) {
        assert_eq!(
            (got.num_pis(), got.num_nodes()),
            (want.num_pis(), want.num_nodes()),
            "{what}"
        );
        for n in (got.num_pis() + 1)..got.num_nodes() {
            assert_eq!(got.fanins(n), want.fanins(n), "{what}: node {n}");
        }
        assert_eq!(got.pos(), want.pos(), "{what}");
    }

    /// Runs `optimize_aig`'s rounds and checks every fraig it runs
    /// against the reference; returns the number of fraigs checked.
    fn check_fraig_rounds(aig: &Aig, what: &str) -> usize {
        let options = OptimizeOptions::default();
        let mut cur = aig.cleanup();
        let mut checked = 0;
        for round in 0..options.rounds {
            let balanced = balance(&cur);
            if balanced.num_pis() > options.fraig_limit {
                break;
            }
            let fraiged = fraig_exact(&balanced);
            assert_same_aig(
                &fraiged,
                &fraig_per_node(&balanced),
                &format!("{what}, round {round}"),
            );
            checked += 1;
            if fraiged.num_ands() >= cur.num_ands() {
                break;
            }
            cur = fraiged;
        }
        assert_same_aig(
            &optimize_aig(aig, &options),
            &cur,
            &format!("{what}, optimize_aig"),
        );
        checked
    }

    fn design_aig(verilog: &str) -> Aig {
        let module = qda_verilog::parse_module(verilog).expect("generated Verilog parses");
        qda_verilog::elaborate(&module).expect("generated Verilog elaborates")
    }

    /// Builds `tt` by Shannon expansion on its highest variable.
    fn aig_of_table(aig: &mut Aig, tt: &TruthTable, num_vars: usize) -> Lit {
        if tt.is_zero() {
            return Lit::FALSE;
        }
        if tt.is_one() {
            return Lit::TRUE;
        }
        let v = num_vars - 1;
        let hi = aig_of_table(aig, &tt.cofactor(v, true), v);
        let lo = aig_of_table(aig, &tt.cofactor(v, false), v);
        let s = aig.pi(v);
        aig.mux(s, hi, lo)
    }

    /// A 9-input AIG with two outputs whose normalized tables differ
    /// but share their first word and their [`table_hash`], so the class
    /// lookup must compare whole tables to keep them apart.
    fn hash_collision_aig() -> Aig {
        let a: [u64; 8] = [
            0x0123_4567_89AB_CDEE,
            0xF0E1_D2C3_B4A5_9687,
            0x1357_9BDF_0246_8ACE,
            0xDEAD_BEEF_0BAD_F00D,
            0x0F1E_2D3C_4B5A_6978,
            0x8899_AABB_CCDD_EEFF,
            0x7766_5544_3322_1100,
            0xC0FF_EE00_FACE_B00C,
        ];
        // Words 1 and 5 share a hash lane: word 5 cancels the change to
        // word 1 in that lane's state.
        let mut b = a;
        b[1] ^= 0x0000_0001_0000_0100;
        b[5] = a[5] ^ mix(0, a[1]).rotate_left(5) ^ mix(0, b[1]).rotate_left(5);
        assert_ne!(a, b);
        assert_eq!(a[0] & 1, 0, "normalized: bit 0 clear");
        assert_eq!(
            table_hash(&a),
            table_hash(&b),
            "the construction assumes table_hash's lanes"
        );
        let mut aig = Aig::new(9);
        for words in [a, b] {
            let tt = TruthTable::from_words(9, words.to_vec());
            let f = aig_of_table(&mut aig, &tt, 9);
            aig.add_po(f);
        }
        aig
    }

    #[test]
    fn fraig_is_node_for_node_the_per_node_reference() {
        let mut checked = 0;
        for n in 4..=10 {
            let intdiv = design_aig(&qda_arith::intdiv_verilog(n));
            checked += check_fraig_rounds(&intdiv, &format!("INTDIV({n})"));
            let newton = design_aig(&qda_arith::newton_verilog(n));
            checked += check_fraig_rounds(&newton, &format!("NEWTON({n})"));
        }
        let intdiv16 = design_aig(&qda_arith::intdiv_verilog(16));
        checked += check_fraig_rounds(&intdiv16, "INTDIV(16)");
        for num_pis in 0..=12 {
            for seed in [1, 3, 5, 7] {
                let aig = random_aig(num_pis, 12 * num_pis + 8, seed);
                let what = format!("random AIG, {num_pis} inputs, seed {seed}");
                assert_same_aig(&fraig_exact(&aig), &fraig_per_node(&aig), &what);
                checked += 1 + check_fraig_rounds(&aig, &what);
            }
        }
        let collision = hash_collision_aig();
        let fraiged = fraig_exact(&collision);
        assert_same_aig(&fraiged, &fraig_per_node(&collision), "hash collision");
        assert_ne!(fraiged.pos()[0].node(), fraiged.pos()[1].node());
        checked += 1;
        assert!(checked >= 100, "{checked} fraigs checked");
    }

    #[test]
    fn balance_preserves_function_and_reduces_depth() {
        let mut aig = Aig::new(8);
        let mut acc = aig.pi(0);
        for i in 1..8 {
            let p = aig.pi(i);
            acc = aig.and(acc, p);
        }
        aig.add_po(acc);
        let bal = balance(&aig);
        assert_eq!(bal.to_truth_tables(), aig.to_truth_tables());
        assert!(bal.depth() < aig.depth());
        assert_eq!(bal.depth(), 3);
    }

    #[test]
    fn fraig_merges_equivalent_nodes() {
        let mut aig = Aig::new(3);
        let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
        // Two structurally different XORs of (a, b).
        let x1 = aig.xor(a, b);
        let or = aig.or(a, b);
        let nand = !aig.and(a, b);
        let x2 = aig.and(or, nand);
        let f = aig.and(x1, c);
        let g = aig.and(x2, c);
        aig.add_po(f);
        aig.add_po(g);
        let red = fraig_exact(&aig);
        assert_eq!(red.to_truth_tables(), aig.to_truth_tables());
        // f and g collapse to the same node.
        assert_eq!(red.pos()[0], red.pos()[1]);
    }

    #[test]
    fn fraig_detects_antivalence() {
        let mut aig = Aig::new(2);
        let (a, b) = (aig.pi(0), aig.pi(1));
        let xor = aig.xor(a, b);
        let xnor = {
            let n = aig.and(a, b);
            let m = aig.and(!a, !b);
            aig.or(n, m)
        };
        aig.add_po(xor);
        aig.add_po(xnor);
        let red = fraig_exact(&aig);
        assert_eq!(red.to_truth_tables(), aig.to_truth_tables());
        assert_eq!(red.pos()[0], !red.pos()[1]);
    }

    #[test]
    fn optimize_random_aigs_preserves_semantics() {
        for seed in [1u64, 7, 42, 99] {
            let aig = random_aig(6, 40, seed);
            let opt = optimize_aig(&aig, &OptimizeOptions::default());
            assert_eq!(opt.to_truth_tables(), aig.to_truth_tables(), "seed {seed}");
            assert!(opt.num_ands() <= aig.num_ands());
        }
    }

    #[test]
    fn optimize_skips_fraig_for_wide_aigs() {
        let aig = random_aig(24, 60, 3);
        let opt = optimize_aig(
            &aig,
            &OptimizeOptions {
                rounds: 2,
                fraig_limit: 16,
            },
        );
        // 1 024 seeded input assignments, simulated 64 per word.
        let mut state = 0x5EED_CAFE_u64;
        let xs: Vec<u64> = (0..1024)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 40
            })
            .collect();
        let (mut want, mut got) = (vec![0; xs.len()], vec![0; xs.len()]);
        aig.eval_many(&xs, &mut want);
        opt.eval_many(&xs, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn fraig_on_wide_tables_uses_words() {
        // 8 inputs → 4 words per node; exercise the multi-word path.
        let aig = random_aig(8, 50, 11);
        let red = fraig_exact(&aig);
        assert_eq!(red.to_truth_tables(), aig.to_truth_tables());
    }
}
