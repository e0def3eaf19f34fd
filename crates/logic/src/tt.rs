//! Explicit truth tables for single-output Boolean functions.
//!
//! A [`TruthTable`] stores the value of an `n`-variable function for all
//! `2^n` input assignments, packed 64 assignments per `u64` word. The
//! variable with index 0 is the least-significant bit of the assignment
//! index. Truth tables are the *functional* representation of the paper:
//! they feed the embedding step and transformation-based synthesis, and
//! they serve as the reference semantics for every other representation in
//! this workspace.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Error from parsing a textual truth table ([`TruthTable::from_binary_str`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseTtError {
    /// The string length is not a power of two (or exceeds `2^MAX_VARS`).
    BadLength(usize),
    /// A character other than `0`/`1` at the given byte offset.
    BadChar {
        /// 0-based offset of the offending character.
        index: usize,
        /// The character found.
        ch: char,
    },
}

impl fmt::Display for ParseTtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTtError::BadLength(len) => {
                write!(
                    f,
                    "truth table length {len} is not a power of two ≤ 2^{MAX_VARS}"
                )
            }
            ParseTtError::BadChar { index, ch } => {
                write!(
                    f,
                    "invalid character {ch:?} at offset {index} (expected 0 or 1)"
                )
            }
        }
    }
}

impl std::error::Error for ParseTtError {}

/// Maximum number of variables supported by explicit truth tables.
///
/// `2^24` bits = 2 MiB per table; enough for every experiment in the paper
/// (the functional flow stops at `n = 16`, i.e. 17-variable embedded
/// functions).
pub const MAX_VARS: usize = 24;

/// An explicit truth table over `n ≤ 24` variables.
///
/// # Example
///
/// ```
/// use qda_logic::tt::TruthTable;
///
/// let x0 = TruthTable::var(2, 0);
/// let x1 = TruthTable::var(2, 1);
/// let and = &x0 & &x1;
/// assert_eq!(and.get(3), true);
/// assert_eq!(and.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

pub(crate) fn word_count(num_vars: usize) -> usize {
    if num_vars >= 6 {
        1 << (num_vars - 6)
    } else {
        1
    }
}

/// Word `w` of the projection `x_var`: bit `k` is the value of variable
/// `var` in assignment `64 w + k`. Below variable 6 the bit pattern
/// repeats within every word; from 6 on, whole words alternate in runs of
/// `2^(var - 6)`. Unmasked: a table over fewer than 6 variables keeps only
/// its low `2^n` bits.
///
/// ```
/// use qda_logic::tt::var_word;
///
/// assert_eq!(var_word(0, 0), 0xAAAA_AAAA_AAAA_AAAA);
/// assert_eq!((var_word(7, 1), var_word(7, 2)), (0, u64::MAX));
/// ```
#[inline]
pub fn var_word(var: usize, w: usize) -> u64 {
    const BLOCKS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if var < 6 {
        BLOCKS[var]
    } else if (w >> (var - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// Mask selecting the valid bits of the (single) word of a small table.
fn small_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

impl TruthTable {
    /// Creates the constant-zero function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_VARS`.
    pub fn zero(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_VARS, "too many variables: {num_vars}");
        Self {
            num_vars,
            words: vec![0; word_count(num_vars)],
        }
    }

    /// Creates the constant-one function over `num_vars` variables.
    pub fn one(num_vars: usize) -> Self {
        let mut t = Self::zero(num_vars);
        let mask = small_mask(num_vars);
        for w in &mut t.words {
            *w = mask;
        }
        t
    }

    /// Creates the projection function `x_i` over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable {var} out of range");
        let mut t = Self::zero(num_vars);
        let mask = small_mask(num_vars);
        for (i, w) in t.words.iter_mut().enumerate() {
            *w = var_word(var, i) & mask;
        }
        t
    }

    /// Builds a truth table by evaluating `f` on every assignment.
    ///
    /// The assignment is passed as an integer whose bit `i` is the value of
    /// variable `i`.
    pub fn from_fn<F: FnMut(u64) -> bool>(num_vars: usize, mut f: F) -> Self {
        let mut t = Self::zero(num_vars);
        for x in 0..(1u64 << num_vars) {
            if f(x) {
                t.set(x, true);
            }
        }
        t
    }

    /// Builds a truth table from the raw words (least-significant
    /// assignment first).
    ///
    /// # Panics
    ///
    /// Panics if `words` does not have exactly the expected length.
    pub fn from_words(num_vars: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), word_count(num_vars), "wrong word count");
        let mut t = Self { num_vars, words };
        t.normalize();
        t
    }

    /// Parses a binary string, most-significant assignment first, as
    /// conventional in logic-synthesis literature (`"1000"` is AND of two
    /// variables).
    ///
    /// # Example
    ///
    /// ```
    /// use qda_logic::tt::{ParseTtError, TruthTable};
    ///
    /// let and = TruthTable::from_binary_str("1000")?;
    /// assert_eq!(and.count_ones(), 1);
    /// assert!(matches!(
    ///     TruthTable::from_binary_str("10x0"),
    ///     Err(ParseTtError::BadChar { index: 2, ch: 'x' })
    /// ));
    /// # Ok::<(), ParseTtError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseTtError`] if the length is not a power of two (at
    /// most `2^MAX_VARS`) or the string contains characters other than
    /// `0`/`1`.
    pub fn from_binary_str(s: &str) -> Result<Self, ParseTtError> {
        let len = s.len();
        if !len.is_power_of_two() || len > 1 << MAX_VARS {
            return Err(ParseTtError::BadLength(len));
        }
        let num_vars = len.trailing_zeros() as usize;
        let mut t = Self::zero(num_vars);
        for (i, c) in s.chars().enumerate() {
            let idx = (len - 1 - i) as u64;
            match c {
                '1' => t.set(idx, true),
                '0' => {}
                _ => return Err(ParseTtError::BadChar { index: i, ch: c }),
            }
        }
        Ok(t)
    }

    fn normalize(&mut self) {
        if self.num_vars < 6 {
            let mask = small_mask(self.num_vars);
            self.words[0] &= mask;
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of assignments (`2^n`).
    pub fn num_bits(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// Raw words backing this table.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value of the function on assignment `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^n`.
    pub fn get(&self, x: u64) -> bool {
        assert!(x < self.num_bits(), "assignment out of range");
        (self.words[(x >> 6) as usize] >> (x & 63)) & 1 == 1
    }

    /// Sets the value of the function on assignment `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^n`.
    pub fn set(&mut self, x: u64, value: bool) {
        assert!(x < self.num_bits(), "assignment out of range");
        let w = &mut self.words[(x >> 6) as usize];
        if value {
            *w |= 1 << (x & 63);
        } else {
            *w &= !(1 << (x & 63));
        }
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the function is constant zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant one.
    pub fn is_one(&self) -> bool {
        let mask = small_mask(self.num_vars);
        self.words.iter().all(|&w| w == mask)
    }

    /// Whether variable `var` is in the functional support.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// The set of support variables.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Shannon cofactor with `var` fixed to `value`. The result still has
    /// `n` variables (the cofactored variable becomes irrelevant).
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        let proj = Self::var(self.num_vars, var);
        let mut out = self.clone();
        // For each assignment x, out(x) = self(x with var := value).
        if var < 6 {
            let shift = 1u64 << var;
            for (o, (&s, &p)) in out
                .words
                .iter_mut()
                .zip(self.words.iter().zip(proj.words.iter()))
            {
                *o = if value {
                    let hi = s & p;
                    hi | (hi >> shift)
                } else {
                    let lo = s & !p;
                    lo | (lo << shift)
                };
            }
        } else {
            let run = 1usize << (var - 6);
            let n = out.words.len();
            for i in 0..n {
                let src = if value { i | run } else { i & !run };
                out.words[i] = self.words[src];
            }
        }
        out.normalize();
        out
    }

    /// Iterator over all satisfying assignments, ascending.
    pub fn ones(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_bits()).filter(move |&x| self.get(x))
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, ", self.num_vars)?;
        if self.num_vars <= 6 {
            let width = (1usize << self.num_vars).div_ceil(4).max(1);
            write!(f, "0x{:0width$x})", self.words[0], width = width)
        } else {
            write!(f, "{} ones)", self.count_ones())
        }
    }
}

impl fmt::Display for TruthTable {
    /// Binary string, most-significant assignment first (matching
    /// [`TruthTable::from_binary_str`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for x in (0..self.num_bits()).rev() {
            write!(f, "{}", u8::from(self.get(x)))?;
        }
        Ok(())
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                assert_eq!(self.num_vars, rhs.num_vars, "arity mismatch");
                let words = self
                    .words
                    .iter()
                    .zip(&rhs.words)
                    .map(|(a, b)| a $op b)
                    .collect();
                let mut t = TruthTable { num_vars: self.num_vars, words };
                t.normalize();
                t
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &);
impl_bitop!(BitOr, bitor, |);
impl_bitop!(BitXor, bitxor, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let words = self.words.iter().map(|w| !w).collect();
        let mut t = TruthTable {
            num_vars: self.num_vars,
            words,
        };
        t.normalize();
        t
    }
}

/// A multi-output Boolean function `f : B^n → B^m` stored as one truth
/// table per output.
///
/// # Example
///
/// ```
/// use qda_logic::tt::MultiTruthTable;
///
/// // 2-bit increment (mod 4).
/// let inc = MultiTruthTable::from_fn(2, 2, |x| (x + 1) & 3);
/// assert_eq!(inc.eval(3), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiTruthTable {
    num_vars: usize,
    outputs: Vec<TruthTable>,
}

impl MultiTruthTable {
    /// Builds an `n`-input, `m`-output function from a word-level oracle:
    /// `f(x)` returns the output word whose bit `j` is output `j`.
    ///
    /// # Panics
    ///
    /// Panics if `num_outputs > 64` or `num_vars > MAX_VARS`.
    pub fn from_fn<F: FnMut(u64) -> u64>(num_vars: usize, num_outputs: usize, mut f: F) -> Self {
        assert!(num_outputs <= 64, "at most 64 outputs");
        let mut outputs = vec![TruthTable::zero(num_vars); num_outputs];
        for x in 0..(1u64 << num_vars) {
            let y = f(x);
            for (j, out) in outputs.iter_mut().enumerate() {
                if (y >> j) & 1 == 1 {
                    out.set(x, true);
                }
            }
        }
        Self { num_vars, outputs }
    }

    /// Builds from individual output tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables disagree on arity or `outputs` is empty.
    pub fn from_outputs(outputs: Vec<TruthTable>) -> Self {
        assert!(!outputs.is_empty(), "need at least one output");
        let num_vars = outputs[0].num_vars();
        assert!(
            outputs.iter().all(|t| t.num_vars() == num_vars),
            "arity mismatch between outputs"
        );
        Self { num_vars, outputs }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Per-output truth tables.
    pub fn outputs(&self) -> &[TruthTable] {
        &self.outputs
    }

    /// Evaluates the function, returning the output word.
    pub fn eval(&self, x: u64) -> u64 {
        let mut y = 0;
        for (j, t) in self.outputs.iter().enumerate() {
            if t.get(x) {
                y |= 1 << j;
            }
        }
        y
    }

    /// Size of the largest collision class `max_y |f^{-1}(y)|` — the
    /// quantity in Eq. (3) of the paper that determines the optimum number
    /// of additional embedding lines.
    pub fn max_collisions(&self) -> u64 {
        let mut histogram = std::collections::HashMap::new();
        for x in 0..(1u64 << self.num_vars) {
            *histogram.entry(self.eval(x)).or_insert(0u64) += 1;
        }
        histogram.into_values().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_tables_match_definition() {
        for n in 1..=8 {
            for v in 0..n {
                let t = TruthTable::var(n, v);
                for x in 0..(1u64 << n) {
                    assert_eq!(t.get(x), (x >> v) & 1 == 1, "n={n} v={v} x={x}");
                }
            }
        }
    }

    #[test]
    fn large_var_tables() {
        let t = TruthTable::var(8, 7);
        assert_eq!(t.count_ones(), 128);
        assert!(!t.get(127));
        assert!(t.get(128));
    }

    #[test]
    fn bitops_and_constants() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        assert_eq!(and.count_ones(), 2);
        assert_eq!(or.count_ones(), 6);
        assert_eq!(xor.count_ones(), 4);
        assert!((&and & &!&and).is_zero());
        assert!((&or | &!&or).is_one());
        assert_eq!(&xor ^ &xor, TruthTable::zero(3));
    }

    #[test]
    fn cofactor_small_and_large_vars() {
        for n in [3usize, 7, 8] {
            let f = TruthTable::from_fn(n, |x| x.count_ones() % 3 == 0);
            for v in 0..n {
                for val in [false, true] {
                    let c = f.cofactor(v, val);
                    for x in 0..(1u64 << n) {
                        let forced = if val { x | (1 << v) } else { x & !(1 << v) };
                        assert_eq!(c.get(x), f.get(forced), "n={n} v={v} val={val} x={x}");
                    }
                    assert!(!c.depends_on(v));
                }
            }
        }
    }

    #[test]
    fn support_detection() {
        // f = x0 XOR x2 over 4 variables.
        let f = &TruthTable::var(4, 0) ^ &TruthTable::var(4, 2);
        assert_eq!(f.support(), vec![0, 2]);
    }

    #[test]
    fn binary_string_round_trip() {
        let t = TruthTable::from_binary_str("1000").unwrap();
        assert!(t.get(3));
        assert_eq!(t.count_ones(), 1);
        assert_eq!(t.to_string(), "1000");
    }

    #[test]
    fn binary_string_rejects_bad_input() {
        assert_eq!(
            TruthTable::from_binary_str("101"),
            Err(ParseTtError::BadLength(3))
        );
        assert_eq!(
            TruthTable::from_binary_str(""),
            Err(ParseTtError::BadLength(0))
        );
        assert_eq!(
            TruthTable::from_binary_str("10z0"),
            Err(ParseTtError::BadChar { index: 2, ch: 'z' })
        );
        let e = TruthTable::from_binary_str("abcd").unwrap_err();
        assert!(e.to_string().contains("'a'"));
    }

    #[test]
    fn multi_output_eval_and_collisions() {
        let f = MultiTruthTable::from_fn(3, 2, |x| x % 3);
        assert_eq!(f.eval(5), 2);
        // values 0,1,2 occur 3,3,2 times over 8 inputs
        assert_eq!(f.max_collisions(), 3);
    }
}
