//! The rewrite-rule catalogue of the peephole optimizer: sound local
//! identities over packed MPMCT gate pairs, plus the cost-aware
//! acceptance policy that decides whether a structurally applicable
//! rewrite may fire.
//!
//! Commutation is [`PackedGate::commutes_with`], control merging is
//! [`merge_packed`] and costing is [`RewriteCost::of_controls`]. Every
//! rule is a *semantic equivalence on the full line space* (not just on
//! designated input/output lines), so the optimizer preserves ancilla
//! cleanliness and input preservation for free. The unit tests below
//! check each rule exhaustively against the scalar interpreter
//! [`crate::gate::Gate::apply_u64`].

use crate::cost::t_count_mct;
use crate::packed::{PackedGate, PackedGateBuf};

/// Which rewrite rule produced a gate-pair rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeRule {
    /// Equal control sets except one line's polarity: the pair fires iff
    /// the shared controls hold (regardless of the differing line), so it
    /// fuses into one gate *without* that control.
    Polarity,
    /// One control set is the other plus exactly one extra control: the
    /// pair fuses into the larger gate with the extra control's polarity
    /// flipped (`P ⊕ (P ∧ x) = P ∧ ¬x`).
    Subset,
}

/// Attempts to fuse two gates with the same target into one gate.
/// Returns the fused gate and the rule that applied, or `None` when no
/// control-merge template matches. Equal gates are *not* merged — they
/// cancel outright, which the optimizer handles as its own (cheaper)
/// rule. Both templates are mask operations over the words where either
/// gate has a control ([`crate::packed`]), and only a returned match
/// allocates:
///
/// * **Polarity** — control masks equal, polarity masks differing in
///   exactly one bit: drop that bit from both masks.
/// * **Subset** — one control mask extends the other by exactly one bit,
///   polarities agreeing on the shared controls
///   (`(pol_a ^ pol_b) & (ctrl_a & ctrl_b) == 0`): the larger gate with
///   the extra bit's polarity flipped.
pub fn merge_packed(a: &PackedGate<'_>, b: &PackedGate<'_>) -> Option<(PackedGateBuf, MergeRule)> {
    if a.target() != b.target() {
        return None;
    }
    if let Some(merged) = a.polarity_merge(b) {
        return Some((merged, MergeRule::Polarity));
    }
    let merged = a.subset_merge(b).or_else(|| b.subset_merge(a))?;
    Some((merged, MergeRule::Subset))
}

/// The cost delta of replacing `removed` gates with `added` gates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RewriteCost {
    /// Total T-count of the gates taken out.
    pub t_removed: u64,
    /// Total T-count of the gates put in.
    pub t_added: u64,
    /// Number of gates taken out.
    pub gates_removed: usize,
    /// Number of gates put in.
    pub gates_added: usize,
}

impl RewriteCost {
    /// Costs a rewrite from the control counts of the gates it takes out
    /// and puts in (the T model only reads the control count, so a packed
    /// gate costs a popcount).
    pub fn of_controls(removed: &[usize], added: &[usize]) -> Self {
        Self {
            t_removed: removed.iter().map(|&c| t_count_mct(c)).sum(),
            t_added: added.iter().map(|&c| t_count_mct(c)).sum(),
            gates_removed: removed.len(),
            gates_added: added.len(),
        }
    }

    /// The acceptance policy: a rewrite may fire only if it never
    /// increases the T-count, with gate count as the tie-break — so every
    /// accepted rewrite strictly improves `(t_count, gates)`
    /// lexicographically. Control-polarity changes are free at both
    /// levels, which is what makes NOT-propagation admissible.
    pub fn accepted(&self) -> bool {
        self.t_added < self.t_removed
            || (self.t_added == self.t_removed && self.gates_added < self.gates_removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::{Control, Gate};

    /// All valid gates on `lines` lines (every target × control subset ×
    /// polarity assignment).
    fn all_gates(lines: usize) -> Vec<Gate> {
        let mut gates = Vec::new();
        for target in 0..lines {
            let others: Vec<usize> = (0..lines).filter(|&l| l != target).collect();
            for cmask in 0..(1u32 << others.len()) {
                for pmask in 0..(1u32 << others.len()) {
                    if pmask & !cmask != 0 {
                        continue; // polarity bits only for chosen controls
                    }
                    let controls: Vec<Control> = others
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| cmask >> i & 1 == 1)
                        .map(|(i, &l)| {
                            if pmask >> i & 1 == 1 {
                                Control::positive(l)
                            } else {
                                Control::negative(l)
                            }
                        })
                        .collect();
                    gates.push(Gate::mct(controls, target));
                }
            }
        }
        gates
    }

    fn packed(g: &Gate) -> PackedGateBuf {
        PackedGateBuf::from_gate(g)
    }

    fn commutes(a: &Gate, b: &Gate) -> bool {
        packed(a).view().commutes_with(&packed(b).view())
    }

    fn merge(a: &Gate, b: &Gate) -> Option<(Gate, MergeRule)> {
        merge_packed(&packed(a).view(), &packed(b).view())
            .map(|(m, rule)| (m.view().to_gate(), rule))
    }

    /// [`RewriteCost::of_controls`] of the gates' control counts.
    fn cost(removed: &[&Gate], added: &[&Gate]) -> RewriteCost {
        let counts = |gates: &[&Gate]| gates.iter().map(|g| g.num_controls()).collect::<Vec<_>>();
        RewriteCost::of_controls(&counts(removed), &counts(added))
    }

    fn pair_circuit(lines: usize, a: &Gate, b: &Gate) -> Circuit {
        let mut c = Circuit::new(lines);
        c.add_gate(a.clone());
        c.add_gate(b.clone());
        c
    }

    #[test]
    fn commutation_verdicts_are_sound() {
        // Exhaustive over all gate pairs on 3 lines (and a sanity count):
        // whenever `commutes_with` says yes, both orders must agree on
        // every basis state.
        let gates = all_gates(3);
        let mut commuting = 0u32;
        for a in &gates {
            for b in &gates {
                if !commutes(a, b) {
                    continue;
                }
                commuting += 1;
                let ab = pair_circuit(3, a, b);
                let ba = pair_circuit(3, b, a);
                for x in 0..8u64 {
                    assert_eq!(ab.simulate_u64(x), ba.simulate_u64(x), "{a} vs {b} x={x}");
                }
            }
        }
        // 27 distinct gates exist on 3 lines (729 ordered pairs); more
        // than half commute under the three conditions.
        assert!(commuting > 350, "rule far too conservative: {commuting}");
    }

    #[test]
    fn commutation_is_symmetric() {
        let gates = all_gates(3);
        for a in &gates {
            for b in &gates {
                assert_eq!(commutes(a, b), commutes(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn non_commuting_pairs_really_do_not_commute_often() {
        // The rule set is sufficient, not complete — but on 3 lines the
        // overwhelming majority of rejected pairs must genuinely not
        // commute, otherwise a rule is mis-implemented.
        let gates = all_gates(3);
        let (mut rejected, mut truly) = (0u32, 0u32);
        for a in &gates {
            for b in &gates {
                if commutes(a, b) {
                    continue;
                }
                rejected += 1;
                let ab = pair_circuit(3, a, b);
                let ba = pair_circuit(3, b, a);
                if (0..8u64).any(|x| ab.simulate_u64(x) != ba.simulate_u64(x)) {
                    truly += 1;
                }
            }
        }
        assert!(
            truly * 100 >= rejected * 90,
            "only {truly}/{rejected} rejected pairs actually fail to commute"
        );
    }

    #[test]
    fn equal_target_gates_always_commute() {
        let a = Gate::mct(vec![Control::positive(0), Control::negative(1)], 3);
        let b = Gate::mct(vec![Control::positive(1)], 3);
        assert!(commutes(&a, &b));
        assert!(commutes(&Gate::not(3), &a), "NOT on the shared target");
    }

    #[test]
    fn merged_pairs_are_semantically_equal() {
        // Exhaustive: wherever `merge_packed` fires, the fused gate must
        // equal the adjacent pair on every basis state.
        let gates = all_gates(4);
        let mut fired = [0u32; 2];
        for a in &gates {
            for b in &gates {
                let Some((m, rule)) = merge(a, b) else {
                    continue;
                };
                fired[(rule == MergeRule::Subset) as usize] += 1;
                let pair = pair_circuit(4, a, b);
                let mut fused = Circuit::new(4);
                fused.add_gate(m.clone());
                for x in 0..16u64 {
                    assert_eq!(
                        pair.simulate_u64(x),
                        fused.simulate_u64(x),
                        "{a} · {b} ≠ {m} at x={x} ({rule:?})"
                    );
                }
            }
        }
        assert!(fired[0] > 0 && fired[1] > 0, "both rules must fire");
    }

    #[test]
    fn merge_is_symmetric_in_its_operands() {
        let gates = all_gates(4);
        for a in &gates {
            for b in &gates {
                assert_eq!(merge(a, b), merge(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn merge_requires_equal_targets_and_rejects_equal_gates() {
        let a = Gate::toffoli(0, 1, 2);
        assert_eq!(merge(&a, &a), None, "equal gates cancel, never merge");
        let other_target = Gate::toffoli(0, 1, 3);
        assert_eq!(merge(&a, &other_target), None);
    }

    #[test]
    fn polarity_merge_drops_the_differing_control() {
        let a = Gate::mct(vec![Control::positive(0), Control::positive(2)], 1);
        let b = Gate::mct(vec![Control::positive(0), Control::negative(2)], 1);
        let (m, rule) = merge(&a, &b).expect("polarity template");
        assert_eq!(rule, MergeRule::Polarity);
        assert_eq!(m, Gate::cnot(0, 1));
    }

    #[test]
    fn subset_merge_flips_the_extra_control() {
        // T(0;1) · T(0,2;1) = T(0,!2;1).
        let small = Gate::cnot(0, 1);
        let large = Gate::mct(vec![Control::positive(0), Control::positive(2)], 1);
        let (m, rule) = merge(&small, &large).expect("subset template");
        assert_eq!(rule, MergeRule::Subset);
        assert_eq!(
            m,
            Gate::mct(vec![Control::positive(0), Control::negative(2)], 1)
        );
        // NOT + CNOT on the same target is the degenerate subset case.
        let (m, _) = merge(&Gate::not(1), &Gate::cnot(0, 1)).expect("NOT/CNOT");
        assert_eq!(m, Gate::mct(vec![Control::negative(0)], 1));
    }

    #[test]
    fn acceptance_policy_never_takes_t_regressions() {
        let tof = Gate::toffoli(0, 1, 2);
        let cnot = Gate::cnot(0, 2);
        // T drop: accepted.
        assert!(cost(&[&tof, &tof], &[]).accepted());
        assert!(cost(&[&tof, &cnot], &[&tof]).accepted());
        // T tie, gate drop: accepted.
        assert!(cost(&[&cnot, &cnot], &[]).accepted());
        assert!(cost(&[&cnot, &cnot], &[&Gate::not(2)]).accepted());
        // No improvement on either axis: rejected.
        assert!(!cost(&[&cnot], &[&cnot]).accepted());
        // T regression, even with fewer gates: rejected.
        assert!(!cost(&[&cnot, &cnot], &[&tof]).accepted());
    }

    #[test]
    fn control_count_costing_matches_gate_costing() {
        // Costing a rewrite from control counts agrees with costing the
        // same gates as a circuit.
        let (tof, cnot) = (Gate::toffoli(0, 1, 2), Gate::cnot(0, 2));
        let circuit = pair_circuit(3, &tof, &cnot).cost();
        let rewrite = cost(&[&tof, &cnot], &[]);
        assert_eq!(rewrite.t_removed, circuit.t_count);
        assert_eq!(rewrite.gates_removed, circuit.gates);
    }

    #[test]
    fn every_catalogue_rewrite_passes_the_policy() {
        // The rule catalogue is constructed to satisfy the policy by
        // design; pin that as an exhaustive fact on 4 lines.
        let gates = all_gates(4);
        for a in &gates {
            for b in &gates {
                if a == b {
                    assert!(cost(&[a, b], &[]).accepted(), "cancel {a}");
                }
                if let Some((m, rule)) = merge(a, b) {
                    assert!(cost(&[a, b], &[&m]).accepted(), "{rule:?}: {a} · {b} → {m}");
                }
            }
        }
    }
}
