//! Exclusive sum-of-products (ESOP) expressions.
//!
//! An [`Esop`] is a set of [`Cube`]s combined by XOR; a [`MultiEsop`]
//! additionally tags every cube with the set of outputs it feeds. Multi-output
//! ESOPs are the exchange format between classical ESOP extraction
//! (`qda-classical::esop_extract` / `exorcism`) and ESOP-based reversible
//! synthesis (`qda-revsynth::esop`), where every cube becomes one
//! mixed-polarity multiple-controlled Toffoli gate.

use crate::cube::Cube;
use crate::tt::{MultiTruthTable, TruthTable};
use std::fmt;

/// A single-output ESOP expression.
///
/// # Example
///
/// ```
/// use qda_logic::{Cube, Esop};
///
/// // x0 ⊕ x1 as two cubes.
/// let esop = Esop::from_cubes(2, vec![
///     Cube::tautology().with_literal(0, true),
///     Cube::tautology().with_literal(1, true),
/// ]);
/// assert!(esop.eval(0b01));
/// assert!(!esop.eval(0b11));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Esop {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Esop {
    /// The constant-zero ESOP (no cubes).
    pub fn zero(num_vars: usize) -> Self {
        Self {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// Builds an ESOP from explicit cubes.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        Self { num_vars, cubes }
    }

    /// The trivial minterm ESOP of a truth table (one cube per satisfying
    /// assignment). Exponential; starting point for minimization only.
    pub fn from_truth_table(tt: &TruthTable) -> Self {
        let cubes = tt.ones().map(|x| Cube::minterm(tt.num_vars(), x)).collect();
        Self {
            num_vars: tt.num_vars(),
            cubes,
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the expression.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the expression has no cubes (constant zero).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total literal count.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Evaluates the ESOP on assignment `x`.
    pub fn eval(&self, x: u64) -> bool {
        self.cubes.iter().fold(false, |acc, c| acc ^ c.eval(x))
    }

    /// Expands back to an explicit truth table (for verification).
    pub fn to_truth_table(&self) -> TruthTable {
        TruthTable::from_fn(self.num_vars, |x| self.eval(x))
    }

    /// Removes duplicate cube pairs (distance 0 cancels under XOR) and
    /// greedily merges distance-1 pairs until a fixpoint. Cheap local
    /// cleanup; full exorcism lives in `qda-classical`.
    pub fn reduce(&mut self) {
        loop {
            // Distance-0: cancel pairs.
            self.cubes.sort_unstable();
            let mut cancelled = Vec::with_capacity(self.cubes.len());
            let mut i = 0;
            while i < self.cubes.len() {
                if i + 1 < self.cubes.len() && self.cubes[i] == self.cubes[i + 1] {
                    i += 2; // pair cancels
                } else {
                    cancelled.push(self.cubes[i]);
                    i += 1;
                }
            }
            self.cubes = cancelled;
            // Distance-1: merge the first pair found.
            let mut merged = false;
            'outer: for i in 0..self.cubes.len() {
                for j in (i + 1)..self.cubes.len() {
                    if let Some(m) = self.cubes[i].merge_distance_one(&self.cubes[j]) {
                        self.cubes[i] = m;
                        self.cubes.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
            if !merged {
                break;
            }
        }
    }
}

impl fmt::Display for Esop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " ^ ")?;
            }
            write!(f, "{}", c.to_pla_string(self.num_vars))?;
        }
        Ok(())
    }
}

/// A multi-output ESOP: cubes shared across outputs via an output mask.
///
/// Bit `j` of a cube's mask means the cube feeds output `j`. This mirrors the
/// `.esop`/PLA convention used by ABC's `&exorcism` and is exactly the input
/// format of REVS' ESOP mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiEsop {
    num_vars: usize,
    num_outputs: usize,
    cubes: Vec<(Cube, u64)>,
}

impl MultiEsop {
    /// An empty (all outputs constant zero) multi-output ESOP.
    ///
    /// # Panics
    ///
    /// Panics if `num_outputs` is 0 or greater than 64.
    pub fn zero(num_vars: usize, num_outputs: usize) -> Self {
        assert!(num_outputs > 0 && num_outputs <= 64);
        Self {
            num_vars,
            num_outputs,
            cubes: Vec::new(),
        }
    }

    /// Builds from `(cube, output mask)` pairs.
    pub fn from_cubes(num_vars: usize, num_outputs: usize, cubes: Vec<(Cube, u64)>) -> Self {
        let mut e = Self::zero(num_vars, num_outputs);
        e.cubes = cubes;
        e
    }

    /// Combines per-output single ESOPs, sharing identical cubes.
    pub fn from_single_outputs(esops: &[Esop]) -> Self {
        assert!(!esops.is_empty());
        let num_vars = esops[0].num_vars();
        let mut map = std::collections::BTreeMap::new();
        for (j, e) in esops.iter().enumerate() {
            assert_eq!(e.num_vars(), num_vars, "arity mismatch");
            for c in e.cubes() {
                *map.entry(*c).or_insert(0u64) ^= 1 << j;
            }
        }
        let cubes = map.into_iter().filter(|&(_, m)| m != 0).collect();
        Self {
            num_vars,
            num_outputs: esops.len(),
            cubes,
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The `(cube, output mask)` pairs.
    pub fn cubes(&self) -> &[(Cube, u64)] {
        &self.cubes
    }

    /// Mutable access for minimization passes.
    pub fn cubes_mut(&mut self) -> &mut Vec<(Cube, u64)> {
        &mut self.cubes
    }

    /// Number of distinct cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether there are no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Evaluates all outputs on assignment `x`, returned as a word.
    pub fn eval(&self, x: u64) -> u64 {
        self.cubes
            .iter()
            .filter(|(c, _)| c.eval(x))
            .fold(0, |acc, &(_, m)| acc ^ m)
    }

    /// Expands to an explicit multi-output truth table (verification).
    pub fn to_truth_table(&self) -> MultiTruthTable {
        MultiTruthTable::from_fn(self.num_vars, self.num_outputs, |x| self.eval(x))
    }

    /// Merges duplicate cubes (XOR-ing their masks) and drops cubes with an
    /// empty output mask. Leaves the cubes sorted by `(cube, mask)` — see
    /// [`xor_dedupe_sorted`].
    pub fn dedupe(&mut self) {
        self.cubes = xor_dedupe_sorted(std::mem::take(&mut self.cubes));
    }

    /// Single ESOP restricted to output `j`.
    pub fn output(&self, j: usize) -> Esop {
        let cubes = self
            .cubes
            .iter()
            .filter(|&&(_, m)| (m >> j) & 1 == 1)
            .map(|&(c, _)| c)
            .collect();
        Esop::from_cubes(self.num_vars, cubes)
    }
}

/// The canonical XOR dedupe over `(cube, output mask)` pairs: duplicate
/// cubes merge by XOR-ing their masks, cubes whose mask cancels to zero
/// are dropped, and the result comes back sorted by `(cube, mask)`. This
/// is [`MultiEsop::dedupe`].
pub fn xor_dedupe_sorted(cubes: Vec<(Cube, u64)>) -> Vec<(Cube, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for (c, m) in cubes {
        *map.entry(c).or_insert(0u64) ^= m;
    }
    map.into_iter().filter(|&(_, m)| m != 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_expansion_round_trips() {
        let tt = TruthTable::from_fn(4, |x| x % 5 == 0);
        let esop = Esop::from_truth_table(&tt);
        assert_eq!(esop.to_truth_table(), tt);
    }

    #[test]
    fn reduce_preserves_function_and_shrinks() {
        let tt = TruthTable::from_fn(4, |x| x < 8); // = !x3, one cube
        let mut esop = Esop::from_truth_table(&tt);
        let before = esop.len();
        esop.reduce();
        assert_eq!(esop.to_truth_table(), tt);
        assert!(esop.len() < before);
        assert_eq!(esop.len(), 1);
    }

    #[test]
    fn reduce_cancels_duplicates() {
        let c = Cube::minterm(3, 5);
        let mut esop = Esop::from_cubes(3, vec![c, c]);
        esop.reduce();
        assert!(esop.is_empty());
        assert!(esop.to_truth_table().is_zero());
    }

    #[test]
    fn multi_esop_shares_cubes() {
        let a = Esop::from_cubes(3, vec![Cube::minterm(3, 1), Cube::minterm(3, 2)]);
        let b = Esop::from_cubes(3, vec![Cube::minterm(3, 1)]);
        let m = MultiEsop::from_single_outputs(&[a.clone(), b.clone()]);
        // minterm(1) shared between both outputs → single entry with mask 0b11
        assert_eq!(m.len(), 2);
        assert_eq!(m.eval(1), 0b11);
        assert_eq!(m.eval(2), 0b01);
        assert_eq!(m.output(0).to_truth_table(), a.to_truth_table());
        assert_eq!(m.output(1).to_truth_table(), b.to_truth_table());
    }

    #[test]
    fn dedupe_merges_masks() {
        let c = Cube::minterm(2, 0);
        let mut m = MultiEsop::from_cubes(2, 2, vec![(c, 0b01), (c, 0b11)]);
        m.dedupe();
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].1, 0b10);
    }

    #[test]
    fn display_forms() {
        let esop = Esop::from_cubes(2, vec![Cube::tautology().with_literal(1, false)]);
        assert_eq!(esop.to_string(), "-0");
        assert_eq!(Esop::zero(2).to_string(), "0");
    }
}
