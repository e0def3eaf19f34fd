//! Embedding irreversible functions into reversible ones (paper §II-B).
//!
//! An `n`-input, `m`-output function is extended to a reversible function
//! on `r ≥ max(n, m)` lines by adding constant inputs and garbage outputs.
//! The Bennett embedding (Theorem 1) always works with `r = n + m`; the
//! *optimum* embedding achieves
//! `r = max(n, m + ⌈log₂ max-collision⌉)` — for the reciprocal this is
//! `2n − 1`, one line fewer than the out-of-place bound, which Table II
//! highlights as a key win of the functional flow.

use qda_logic::tt::MultiTruthTable;

/// A reversible completion of an irreversible function.
///
/// Line convention: the *low* `num_inputs` lines carry the input `x` (all
/// other input lines are constant 0); after applying [`Embedding::permutation`],
/// the *low* `num_outputs` lines carry `f(x)` and the remaining lines are
/// garbage. (The paper places outputs on the last `m` wires; the choice is
/// a relabeling and we document ours here.)
#[derive(Clone, Debug)]
pub struct Embedding {
    num_lines: usize,
    num_inputs: usize,
    num_outputs: usize,
    permutation: Vec<u64>,
}

impl Embedding {
    /// Total reversible lines `r`.
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Original input count `n`.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Original output count `m`.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The reversible function as an explicit permutation of `2^r` values.
    pub fn permutation(&self) -> &[u64] {
        &self.permutation
    }

    /// The embedded output for original input `x` (low `m` bits are
    /// `f(x)`).
    pub fn apply(&self, x: u64) -> u64 {
        self.permutation[x as usize]
    }

    /// Checks the embedding condition (Eq. 1): for every original input,
    /// the low output bits equal `f(x)`; and the map is a permutation.
    pub fn validate(&self, f: &MultiTruthTable) -> bool {
        let out_mask = (1u64 << self.num_outputs) - 1;
        let mut seen = vec![false; self.permutation.len()];
        for (x, &y) in self.permutation.iter().enumerate() {
            if seen[y as usize] {
                return false;
            }
            seen[y as usize] = true;
            if (x as u64) < (1u64 << self.num_inputs) && y & out_mask != f.eval(x as u64) {
                return false;
            }
        }
        true
    }
}

/// The minimum number of additional lines `⌈log₂ max-collision⌉` (Eq. 3).
///
/// Computing this exactly is coNP-complete in general \[17\]; explicit
/// enumeration is exact for the bitwidths of the functional flow.
pub fn minimum_additional_lines(f: &MultiTruthTable) -> usize {
    let mu = f.max_collisions();
    (64 - (mu.max(1) - 1).leading_zeros()) as usize
}

/// The Bennett embedding (Theorem 1): `r = n + m`,
/// `f'(x, a) = (x, a ⊕ f(x))`.
///
/// Inputs are preserved on the low `n` lines; the XOR-accumulated outputs
/// sit above them. Never optimal in lines for non-injective functions, but
/// always valid and cheap to construct.
pub fn bennett_embedding(f: &MultiTruthTable) -> Embedding {
    let n = f.num_vars();
    let m = f.num_outputs();
    let r = n + m;
    let mut permutation = Vec::with_capacity(1 << r);
    for v in 0..(1u64 << r) {
        let x = v & ((1 << n) - 1);
        let a = v >> n;
        let y = a ^ f.eval(x);
        permutation.push(x | (y << n));
    }
    Embedding {
        num_lines: r,
        num_inputs: n,
        num_outputs: m,
        // Outputs live on lines n..n+m in this construction; normalize to
        // the low-lines convention by swapping halves.
        permutation: normalize_bennett(permutation, n, m),
    }
}

/// Rearranges the Bennett permutation so outputs occupy the low `m` lines
/// (our convention), keeping it a permutation.
fn normalize_bennett(perm: Vec<u64>, n: usize, m: usize) -> Vec<u64> {
    // Swap the roles of the two line groups on the *output side* only:
    // (x, y) stored as x | y<<n  →  y | x<<m.
    perm.into_iter()
        .map(|v| {
            let x = v & ((1 << n) - 1);
            let y = v >> n;
            y | (x << m)
        })
        .collect()
}

/// Computes an optimum-line embedding:
/// `r = max(n, m + ⌈log₂ max-collision⌉)`.
///
/// Each collision class `f⁻¹(y)` gets distinct garbage codes `0, 1, 2, …`
/// on the lines above the output lines; input patterns with non-zero
/// constant lines are mapped onto the unused output patterns greedily
/// (any completion works — synthesis cost varies, optimality in *lines* is
/// what matters here, matching the paper's flow).
///
/// # Panics
///
/// Panics if `r > 28` (the explicit permutation would not fit in memory);
/// larger instances require the symbolic variant, which the paper itself
/// only pushed to `n = 16` at multi-day runtimes.
pub fn optimum_embedding(f: &MultiTruthTable) -> Embedding {
    let n = f.num_vars();
    let m = f.num_outputs();
    let g = minimum_additional_lines(f);
    let r = n.max(m + g);
    assert!(r <= 28, "explicit embedding limited to 28 lines, got {r}");
    let size = 1usize << r;
    let unassigned = u64::MAX;
    let mut permutation = vec![unassigned; size];
    let mut used = vec![false; size];
    // Garbage code counter per output value.
    let mut next_code = std::collections::HashMap::new();
    for x in 0..(1u64 << n) {
        let y = f.eval(x);
        let code = next_code.entry(y).or_insert(0u64);
        let out = y | (*code << m);
        *code += 1;
        debug_assert!(out < size as u64, "garbage code overflow");
        permutation[x as usize] = out;
        used[out as usize] = true;
    }
    // Completion for the remaining input patterns. These are don't-cares
    // of the original function, so any bijective completion is valid —
    // prefer fixed points (v → v), which cost transformation-based
    // synthesis nothing, and fill the rest in ascending order.
    for v in 0..size {
        if permutation[v] == unassigned && !used[v] {
            permutation[v] = v as u64;
            used[v] = true;
        }
    }
    let mut free_iter = 0usize;
    for slot in permutation.iter_mut().take(size) {
        if *slot != unassigned {
            continue;
        }
        while used[free_iter] {
            free_iter += 1;
        }
        *slot = free_iter as u64;
        used[free_iter] = true;
    }
    Embedding {
        num_lines: r,
        num_inputs: n,
        num_outputs: m,
        permutation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_logic::tt::MultiTruthTable;

    fn reciprocal(n: usize) -> MultiTruthTable {
        // y = n-bit fraction of 2^n / x (INTDIV semantics), rec(0) := 0.
        MultiTruthTable::from_fn(n, n, |x| {
            (1u64 << n).checked_div(x).unwrap_or(0) & ((1 << n) - 1)
        })
    }

    #[test]
    fn bennett_is_valid_for_random_functions() {
        let f = MultiTruthTable::from_fn(3, 2, |x| (x * 5) % 4);
        let e = bennett_embedding(&f);
        assert_eq!(e.num_lines(), 5);
        assert!(e.validate(&f));
    }

    #[test]
    fn minimum_lines_formula() {
        // Constant function: all 2^n inputs collide → g = n.
        let constant = MultiTruthTable::from_fn(4, 2, |_| 1);
        assert_eq!(minimum_additional_lines(&constant), 4);
        // A permutation (injective): no additional lines.
        let perm = MultiTruthTable::from_fn(3, 3, |x| x ^ 5);
        assert_eq!(minimum_additional_lines(&perm), 0);
        // Two-to-one function: one line.
        let half = MultiTruthTable::from_fn(3, 2, |x| x >> 1);
        assert_eq!(minimum_additional_lines(&half), 1);
    }

    #[test]
    fn optimum_embedding_is_valid_and_small() {
        for n in 3..=7 {
            let f = reciprocal(n);
            let e = optimum_embedding(&f);
            assert!(e.validate(&f), "n={n}");
            // The paper reports 2n−1 qubits for the reciprocal.
            assert_eq!(e.num_lines(), 2 * n - 1, "n={n}");
            let b = bennett_embedding(&f);
            assert!(e.num_lines() < b.num_lines());
        }
    }

    #[test]
    fn optimum_embedding_of_injective_function_adds_no_lines() {
        let f = MultiTruthTable::from_fn(4, 4, |x| x.wrapping_mul(5) & 15);
        let e = optimum_embedding(&f);
        assert_eq!(e.num_lines(), 4);
        assert!(e.validate(&f));
    }

    #[test]
    fn embedding_permutation_is_bijective() {
        let f = MultiTruthTable::from_fn(4, 3, |x| x % 6);
        let e = optimum_embedding(&f);
        let mut seen = vec![false; e.permutation().len()];
        for &y in e.permutation() {
            assert!(!seen[y as usize]);
            seen[y as usize] = true;
        }
    }

    #[test]
    fn apply_matches_function() {
        let f = reciprocal(5);
        let e = optimum_embedding(&f);
        for x in 0..32u64 {
            assert_eq!(e.apply(x) & 31, f.eval(x));
        }
    }
}
