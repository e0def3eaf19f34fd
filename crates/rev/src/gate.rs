//! Mixed-polarity multiple-controlled Toffoli gates: the validated
//! construction and display view. [`Gate::apply_u64`] is the scalar
//! reference the packed IR is tested against; every gate relation the
//! passes use is defined once, in [`crate::packed`] and
//! [`crate::opt::rules`].

use std::fmt;

/// A single control of an MPMCT gate: a line index plus a polarity.
///
/// A positive control triggers on `1`, a negative control on `0` (the
/// "mixed polarity" of the paper's gate library — negative controls are
/// free at the T-count level because they are mere X conjugations).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Control {
    line: u32,
    positive: bool,
}

impl Control {
    /// A positive control on `line`.
    pub fn positive(line: usize) -> Self {
        Self {
            line: line as u32,
            positive: true,
        }
    }

    /// A negative control on `line`.
    pub fn negative(line: usize) -> Self {
        Self {
            line: line as u32,
            positive: false,
        }
    }

    /// The controlled line.
    pub fn line(self) -> usize {
        self.line as usize
    }

    /// Whether the control triggers on `1`.
    pub fn is_positive(self) -> bool {
        self.positive
    }
}

/// Why a control/target combination cannot form a well-formed MPMCT gate.
///
/// Produced by [`Gate::try_mct`]; the panicking constructors
/// ([`Gate::mct`] and friends) render these as their panic messages, so
/// every construction path rejects malformed gates with the same wording.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateError {
    /// Two controls sit on the same line with opposite polarity — the
    /// gate could never fire.
    ContradictoryControls {
        /// The doubly-controlled line.
        line: usize,
    },
    /// The target line also appears as a control.
    ControlOnTarget {
        /// The target line.
        target: usize,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::ContradictoryControls { line } => {
                write!(f, "contradictory controls on line {line}")
            }
            GateError::ControlOnTarget { target } => {
                write!(f, "target {target} cannot be controlled")
            }
        }
    }
}

impl std::error::Error for GateError {}

/// A mixed-polarity multiple-controlled Toffoli (MPMCT) gate.
///
/// The gate inverts `target` iff every positive control reads `1` and every
/// negative control reads `0`. With zero controls it is a NOT, with one a
/// CNOT, with two a Toffoli.
///
/// Controls are kept sorted by line, so structural equality (`==`) is
/// canonical — two gates constructed from the same control set in any
/// order compare equal. The derived `Ord` is the matching total order,
/// for callers that need canonically sorted gate sequences.
///
/// # Example
///
/// ```
/// use qda_rev::gate::{Control, Gate};
///
/// let g = Gate::mct(vec![Control::positive(0), Control::negative(2)], 1);
/// assert_eq!(g.num_controls(), 2);
/// assert!(g.fires(0b001)); // line0=1, line2=0
/// assert!(!g.fires(0b101));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Gate {
    controls: Vec<Control>,
    target: u32,
}

impl Gate {
    /// A NOT gate on `target`.
    pub fn not(target: usize) -> Self {
        Self::mct(Vec::new(), target)
    }

    /// A CNOT with positive control `control`.
    pub fn cnot(control: usize, target: usize) -> Self {
        Self::mct(vec![Control::positive(control)], target)
    }

    /// A Toffoli with two positive controls.
    pub fn toffoli(c1: usize, c2: usize, target: usize) -> Self {
        Self::mct(vec![Control::positive(c1), Control::positive(c2)], target)
    }

    /// A general MPMCT gate.
    ///
    /// Controls are sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the target appears among the controls, or if two controls
    /// on the same line have opposite polarity (the gate would never fire —
    /// reject it early as a construction bug).
    pub fn mct(controls: Vec<Control>, target: usize) -> Self {
        Self::try_mct(controls, target).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Gate::mct`]: sorts and deduplicates the controls, then
    /// validates them against the target.
    ///
    /// # Errors
    ///
    /// Returns [`GateError`] when the target appears among the controls or
    /// two controls on the same line have opposite polarity.
    pub fn try_mct(mut controls: Vec<Control>, target: usize) -> Result<Self, GateError> {
        controls.sort_unstable();
        controls.dedup();
        Self::validate(&controls, target)?;
        Ok(Self {
            controls,
            target: target as u32,
        })
    }

    /// Validates a **sorted, deduplicated** control list against a target:
    /// no line carries two opposite-polarity controls and the target is
    /// not controlled. This is the single well-formedness check shared by
    /// every constructor.
    ///
    /// # Errors
    ///
    /// Returns the first [`GateError`] found, scanning controls in line
    /// order.
    fn validate(controls: &[Control], target: usize) -> Result<(), GateError> {
        for w in controls.windows(2) {
            if w[0].line == w[1].line {
                return Err(GateError::ContradictoryControls { line: w[0].line() });
            }
        }
        if controls.iter().any(|c| c.line() == target) {
            return Err(GateError::ControlOnTarget { target });
        }
        Ok(())
    }

    /// The controls, sorted by line.
    pub fn controls(&self) -> &[Control] {
        &self.controls
    }

    /// The target line.
    pub fn target(&self) -> usize {
        self.target as usize
    }

    /// Number of controls.
    pub fn num_controls(&self) -> usize {
        self.controls.len()
    }

    /// Whether the gate fires on a ≤64-line assignment word.
    pub fn fires(&self, state: u64) -> bool {
        self.controls
            .iter()
            .all(|c| ((state >> c.line) & 1 == 1) == c.positive)
    }

    /// Applies the gate to a ≤64-line assignment word.
    pub fn apply_u64(&self, state: u64) -> u64 {
        if self.fires(state) {
            state ^ (1 << self.target)
        } else {
            state
        }
    }

    /// Returns a copy with every line `l` remapped to `map(l)`.
    ///
    /// The result is re-canonicalized: a non-monotonic map reorders the
    /// control list, and the sorted-controls invariant behind structural
    /// equality must survive the remap (resynthesis window extraction
    /// remaps through arbitrary window orders).
    ///
    /// # Panics
    ///
    /// Panics if the map collides two of the gate's lines onto one (the
    /// remapped gate would be malformed), or where `map` itself panics.
    #[must_use]
    pub fn remapped(&self, map: impl Fn(usize) -> usize) -> Gate {
        let controls: Vec<Control> = self
            .controls
            .iter()
            .map(|c| Control {
                line: map(c.line()) as u32,
                positive: c.positive,
            })
            .collect();
        let target = map(self.target());
        let gate = Gate::mct(controls, target);
        assert_eq!(
            gate.num_controls(),
            self.num_controls(),
            "remap of {self} collides two controls onto one line"
        );
        gate
    }

    /// Largest line index referenced by the gate.
    pub fn max_line(&self) -> usize {
        self.controls
            .iter()
            .map(|c| c.line())
            .chain(std::iter::once(self.target()))
            .max()
            .expect("gate always has a target")
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T(")?;
        for (i, c) in self.controls.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}{}", if c.is_positive() { "" } else { "!" }, c.line())?;
        }
        write!(f, ";{})", self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::rules::merge_packed;
    use crate::packed::{GateArena, PackedGateBuf};

    /// The packed form, where control lookup and conflict live.
    fn packed(g: &Gate) -> PackedGateBuf {
        PackedGateBuf::from_gate(g)
    }

    #[test]
    fn not_cnot_toffoli_shortcuts() {
        assert_eq!(Gate::not(3).num_controls(), 0);
        assert_eq!(Gate::cnot(0, 1).num_controls(), 1);
        assert_eq!(Gate::toffoli(0, 1, 2).num_controls(), 2);
    }

    #[test]
    fn mixed_polarity_fire_conditions() {
        let g = Gate::mct(vec![Control::positive(0), Control::negative(1)], 2);
        assert_eq!(g.apply_u64(0b001), 0b101);
        assert_eq!(g.apply_u64(0b011), 0b011);
        assert_eq!(g.apply_u64(0b000), 0b000);
    }

    #[test]
    fn self_inverse() {
        let g = Gate::mct(vec![Control::positive(1), Control::negative(3)], 0);
        for s in 0..16u64 {
            assert_eq!(g.apply_u64(g.apply_u64(s)), s);
        }
    }

    #[test]
    #[should_panic(expected = "target")]
    fn rejects_control_on_target() {
        let _ = Gate::mct(vec![Control::positive(0)], 0);
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn rejects_contradictory_controls() {
        let _ = Gate::mct(vec![Control::positive(0), Control::negative(0)], 1);
    }

    #[test]
    fn shifting_and_remapping() {
        let g = Gate::toffoli(0, 1, 2);
        let s = g.remapped(|l| [10, 11, 12][l]);
        assert_eq!(s.target(), 12);
        assert_eq!(s.controls()[0].line(), 10);
        let r = g.remapped(|l| [5, 4, 3][l]);
        assert_eq!(r.target(), 3);
        assert_eq!(r.max_line(), 5);
    }

    #[test]
    fn display_format() {
        let g = Gate::mct(vec![Control::positive(0), Control::negative(2)], 1);
        assert_eq!(g.to_string(), "T(0,!2;1)");
    }

    #[test]
    fn equality_is_canonical_in_control_order() {
        let a = Gate::mct(vec![Control::negative(3), Control::positive(1)], 0);
        let b = Gate::mct(vec![Control::positive(1), Control::negative(3)], 0);
        assert_eq!(a, b);
        // Same lines, different polarity: not equal.
        let c = Gate::mct(vec![Control::positive(1), Control::positive(3)], 0);
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_total_and_respects_control_lists() {
        // The derived Ord is lexicographic over the sorted control list,
        // then the target — so a NOT (no controls) sorts first.
        let not = Gate::not(5);
        let cnot = Gate::cnot(0, 5);
        let tof = Gate::toffoli(0, 1, 5);
        assert!(not < cnot && cnot < tof);
        // Antisymmetry + reflexivity on a small sample.
        assert_eq!(not.cmp(&not), std::cmp::Ordering::Equal);
        assert_eq!(cnot.cmp(&not), std::cmp::Ordering::Greater);
    }

    #[test]
    fn control_lookup_hits_and_misses() {
        let g = Gate::mct(vec![Control::positive(0), Control::negative(4)], 2);
        let g = packed(&g);
        let v = g.view();
        assert_eq!(v.control_on(0), Some(true));
        assert_eq!(v.control_on(4), Some(false));
        assert_eq!(v.control_on(2), None, "target is not a control");
        assert_eq!(v.control_on(3), None);
        assert!(v.acts_on(0) && v.acts_on(2) && v.acts_on(4));
        assert!(!v.acts_on(1));
        // Degenerate 0-control NOT acts only on its target.
        let not = packed(&Gate::not(1));
        assert_eq!(not.view().control_on(1), None);
        assert!(not.view().acts_on(1) && !not.view().acts_on(0));
    }

    #[test]
    fn conflict_detection_over_overlapping_control_sets() {
        let conflict = |a: &Gate, b: &Gate| packed(a).view().controls_conflict(&packed(b).view());
        let a = Gate::mct(vec![Control::positive(0), Control::negative(1)], 5);
        let b = Gate::mct(vec![Control::positive(1), Control::positive(2)], 6);
        assert!(conflict(&a, &b), "line 1 with opposite polarity");
        assert!(conflict(&b, &a), "conflict is symmetric");
        let c = Gate::mct(vec![Control::negative(1), Control::positive(3)], 6);
        assert!(!conflict(&a, &c), "line 1 agrees on polarity");
        // Negative-control-only gates conflict exactly on polarity.
        let neg = Gate::mct(vec![Control::negative(0), Control::negative(2)], 5);
        let neg2 = Gate::mct(vec![Control::negative(0)], 6);
        assert!(!conflict(&neg, &neg2));
        assert!(conflict(&neg, &Gate::mct(vec![Control::positive(2)], 6)));
        // A NOT has no controls: never conflicts, not even with itself.
        assert!(!conflict(&Gate::not(0), &Gate::not(0)));
        assert!(!conflict(&Gate::not(0), &a));
    }

    #[test]
    fn flip_and_remove_controls() {
        // Flipping edits the arena in place; the polarity merge of a gate
        // and its flipped copy removes the control.
        let g = Gate::mct(vec![Control::positive(0), Control::negative(2)], 1);
        let mut arena = GateArena::from_gates(3, std::slice::from_ref(&g));
        arena.flip_polarity(0, 2);
        let flipped = Gate::mct(vec![Control::positive(0), Control::positive(2)], 1);
        assert_eq!(arena.materialize(0), flipped);
        let (dropped, _) = merge_packed(&packed(&g).view(), &arena.gate(0)).expect("polarity");
        assert_eq!(dropped.view().to_gate(), Gate::cnot(0, 1));
        arena.flip_polarity(0, 2);
        assert_eq!(arena.materialize(0), g, "flip is an involution");
    }

    #[test]
    #[should_panic(expected = "no control on line")]
    fn flipping_a_missing_control_is_loud() {
        GateArena::from_gates(2, &[Gate::cnot(0, 1)]).flip_polarity(0, 1);
    }

    #[test]
    fn try_mct_reports_structured_errors() {
        let e = Gate::try_mct(vec![Control::positive(0)], 0).unwrap_err();
        assert_eq!(e, GateError::ControlOnTarget { target: 0 });
        assert_eq!(e.to_string(), "target 0 cannot be controlled");
        let e = Gate::try_mct(vec![Control::positive(2), Control::negative(2)], 1).unwrap_err();
        assert_eq!(e, GateError::ContradictoryControls { line: 2 });
        assert_eq!(e.to_string(), "contradictory controls on line 2");
        let g = Gate::try_mct(vec![Control::negative(3), Control::positive(1)], 0).unwrap();
        assert_eq!(
            g,
            Gate::mct(vec![Control::positive(1), Control::negative(3)], 0)
        );
    }

    #[test]
    fn validate_accepts_every_constructed_gate() {
        for g in [
            Gate::not(2),
            Gate::cnot(3, 1),
            Gate::mct(vec![Control::negative(0), Control::positive(4)], 2),
        ] {
            assert_eq!(Gate::validate(g.controls(), g.target()), Ok(()));
        }
    }

    #[test]
    fn remapping_recanonicalizes_control_order() {
        // A decreasing map reverses the line order; the remapped gate must
        // still keep its controls sorted or structural equality breaks.
        let g = Gate::mct(vec![Control::positive(0), Control::negative(1)], 2);
        let r = g.remapped(|l| [5, 4, 3][l]);
        assert_eq!(
            r.controls(),
            &[Control::negative(4), Control::positive(5)],
            "controls sorted after remap"
        );
        // Remapping with the inverse map round-trips.
        let mut inv = [0; 6];
        for (old, &new) in [5usize, 4, 3].iter().enumerate() {
            inv[new] = old;
        }
        assert_eq!(r.remapped(|l| inv[l]), g);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn remapping_onto_a_shared_line_is_loud() {
        let g = Gate::mct(vec![Control::positive(0), Control::positive(1)], 2);
        let _ = g.remapped(|l| [0, 0, 2][l]);
    }
}
