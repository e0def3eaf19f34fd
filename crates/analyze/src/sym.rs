//! Bounded symbolic simulation over XOR-of-products (PPRM) forms.
//!
//! Each line's value is tracked as a positive-polarity Reed–Muller
//! expression: an XOR of product terms over the primary-input variables,
//! stored as a set of bit masks (bit *i* = input ordinal *i*). PPRM is a
//! canonical form, so the empty set proves the line is constant 0 and a
//! non-empty set proves it is *not* identically 0 — exactly the dichotomy
//! the ancilla-lifecycle analysis needs. The representation is bounded:
//! once an expression would exceed [`TERM_LIMIT`] product terms (or more
//! than [`MAX_TRACKED_INPUTS`] inputs exist) the value degrades to
//! [`LineVal::Top`], which the analyses must treat as "unknown", never as
//! a violation.

use std::collections::BTreeSet;

use qda_rev::PackedGate;

use crate::interface::CircuitInterface;

/// Maximum number of product terms per line before degrading to `Top`.
pub const TERM_LIMIT: usize = 256;

/// Maximum pairwise products computed by one AND before degrading.
const WORK_LIMIT: usize = 16_384;

/// Total pairwise-product budget of one [`SymState`] across a whole
/// circuit. Once spent, further products degrade to `Top`, bounding the
/// analysis to near-linear time on any input.
pub const SYM_WORK_BUDGET: usize = 2_000_000;

/// Inputs beyond this ordinal cannot be tracked in a `u128` mask.
pub const MAX_TRACKED_INPUTS: usize = 128;

/// Symbolic value of a single line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LineVal {
    /// Exact PPRM: XOR of the product terms in the set. Empty set is the
    /// constant 0; the set containing only the empty mask is constant 1.
    Exact(BTreeSet<u128>),
    /// Unknown: a resource bound was exceeded somewhere upstream.
    Top,
}

impl LineVal {
    /// The constant 0.
    pub fn zero() -> Self {
        LineVal::Exact(BTreeSet::new())
    }

    /// The constant 1 (the empty product term).
    pub fn one() -> Self {
        LineVal::Exact([0u128].into())
    }

    /// The input variable with the given ordinal.
    pub fn var(ordinal: usize) -> Self {
        debug_assert!(ordinal < MAX_TRACKED_INPUTS);
        LineVal::Exact([1u128 << ordinal].into())
    }

    /// Provably the constant 0?
    pub fn is_zero(&self) -> bool {
        matches!(self, LineVal::Exact(t) if t.is_empty())
    }

    /// Provably the constant 1?
    pub fn is_one(&self) -> bool {
        matches!(self, LineVal::Exact(t) if t.len() == 1 && t.contains(&0))
    }

    /// Provably *not* identically 0? (PPRM is canonical, so any
    /// non-empty exact term set denotes a function that is 1 somewhere.)
    pub fn is_provably_nonzero(&self) -> bool {
        matches!(self, LineVal::Exact(t) if !t.is_empty())
    }

    /// XOR of two values; `Top` absorbs.
    pub fn xor(&self, other: &LineVal) -> LineVal {
        match (self, other) {
            (LineVal::Exact(a), LineVal::Exact(b)) => {
                let mut out = a.clone();
                for t in b {
                    if !out.remove(t) {
                        out.insert(*t);
                    }
                }
                if out.len() > TERM_LIMIT {
                    LineVal::Top
                } else {
                    LineVal::Exact(out)
                }
            }
            _ => LineVal::Top,
        }
    }

    /// AND of two values. A provably-0 factor annihilates even a `Top`
    /// one; otherwise `Top` absorbs.
    pub fn and(&self, other: &LineVal) -> LineVal {
        let mut unlimited = usize::MAX;
        self.and_with_budget(other, &mut unlimited)
    }

    /// AND with an external work budget: the pairwise-product count is
    /// charged against `work_left`, and an unaffordable product degrades
    /// to `Top` (always sound, just less precise). This is what keeps
    /// whole-circuit analysis near-linear on pathological inputs.
    pub fn and_with_budget(&self, other: &LineVal, work_left: &mut usize) -> LineVal {
        if self.is_zero() || other.is_zero() {
            return LineVal::zero();
        }
        match (self, other) {
            (LineVal::Exact(a), LineVal::Exact(b)) => {
                let cost = a.len().saturating_mul(b.len());
                if cost > WORK_LIMIT || cost > *work_left {
                    *work_left = work_left.saturating_sub(cost.min(WORK_LIMIT));
                    return LineVal::Top;
                }
                *work_left -= cost;
                let mut out = BTreeSet::new();
                for ta in a {
                    for tb in b {
                        let t = ta | tb; // x·x = x, so AND of terms is mask union
                        if !out.remove(&t) {
                            out.insert(t);
                        }
                    }
                }
                if out.len() > TERM_LIMIT {
                    LineVal::Top
                } else {
                    LineVal::Exact(out)
                }
            }
            _ => LineVal::Top,
        }
    }

    /// Logical negation: XOR with the constant 1.
    pub fn negate(&self) -> LineVal {
        self.xor(&LineVal::one())
    }
}

/// Per-line symbolic state, advanced gate by gate.
#[derive(Clone, Debug)]
pub struct SymState {
    vals: Vec<LineVal>,
    work_left: usize,
}

impl SymState {
    /// Initial state for an interface: input lines hold their variable,
    /// every other line the constant 0. With more than
    /// [`MAX_TRACKED_INPUTS`] inputs, the excess inputs start at `Top`.
    pub fn for_interface(iface: &CircuitInterface) -> SymState {
        let mut vals = vec![LineVal::zero(); iface.num_lines];
        for (ordinal, &line) in iface.input_lines.iter().enumerate() {
            if line < vals.len() {
                vals[line] = if ordinal < MAX_TRACKED_INPUTS {
                    LineVal::var(ordinal)
                } else {
                    LineVal::Top
                };
            }
        }
        SymState {
            vals,
            work_left: SYM_WORK_BUDGET,
        }
    }

    /// Current value of a line.
    pub fn value(&self, line: usize) -> &LineVal {
        &self.vals[line]
    }

    /// Advances the state across one packed gate: the target is XORed
    /// with the product of the (polarity-adjusted) control values, decoded
    /// straight from the mask words.
    pub fn apply_packed(&mut self, gate: &PackedGate<'_>) {
        let mut product = LineVal::one();
        for c in gate.controls() {
            let v = &self.vals[c.line()];
            let factor = if c.is_positive() {
                v.clone()
            } else {
                v.negate()
            };
            product = product.and_with_budget(&factor, &mut self.work_left);
            if product.is_zero() {
                break;
            }
        }
        let target = gate.target();
        self.vals[target] = self.vals[target].xor(&product);
    }

    /// Resets a line to the constant 0 (a fresh allocation after a
    /// release hands back a |0⟩ line).
    pub fn reset(&mut self, line: usize) {
        self.vals[line] = LineVal::zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::Circuit;

    fn iface(n: usize, inputs: usize) -> CircuitInterface {
        CircuitInterface::hierarchical(n, (0..inputs).collect(), vec![], true)
    }

    #[test]
    fn compute_copy_uncompute_is_provably_clean() {
        // Classic Bennett V shape: t2 = a·b, copy, uncompute.
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.cnot(2, 3);
        c.toffoli(0, 1, 2);
        let mut s = SymState::for_interface(&iface(4, 2));
        for (_, g) in c.packed() {
            s.apply_packed(&g);
        }
        assert!(s.value(2).is_zero(), "ancilla provably uncomputed");
        assert!(s.value(3).is_provably_nonzero(), "copy target holds a·b");
        assert_eq!(*s.value(3), LineVal::var(0).and(&LineVal::var(1)));
    }

    #[test]
    fn negative_controls_and_nots_track_constants() {
        let mut c = Circuit::new(3);
        c.not(1); // line 1: 0 -> 1
        c.mct(vec![qda_rev::Control::negative(2)], 1);
        let mut s = SymState::for_interface(&iface(3, 1));
        let mut gates = c.packed().iter();
        s.apply_packed(&gates.next().unwrap().1);
        assert!(s.value(1).is_one());
        // Negative control on line 2 (still 0) always fires.
        s.apply_packed(&gates.next().unwrap().1);
        assert!(s.value(1).is_zero(), "1 xor 1 = 0");
    }

    #[test]
    fn term_blowup_degrades_to_top_not_to_a_verdict() {
        // Product of 9 disjoint 2-term sums expands to 2^9 = 512 terms,
        // past TERM_LIMIT: the engine must answer Top, not guess.
        let mut prod = LineVal::one();
        for i in 0..9 {
            let pair = LineVal::var(2 * i).xor(&LineVal::var(2 * i + 1));
            prod = prod.and(&pair);
        }
        assert_eq!(prod, LineVal::Top);
        // And Top is sticky across xor.
        assert_eq!(prod.xor(&LineVal::one()), LineVal::Top);
    }

    #[test]
    fn zero_factor_annihilates_top() {
        assert_eq!(LineVal::Top.and(&LineVal::zero()), LineVal::zero());
        assert_eq!(LineVal::zero().and(&LineVal::Top), LineVal::zero());
        assert_eq!(LineVal::Top.and(&LineVal::one()), LineVal::Top);
    }
}
