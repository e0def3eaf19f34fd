//! Decomposition of multiple-controlled Toffoli gates into plain Toffoli
//! networks (Barenco et al. \[27\]).
//!
//! The cost model in [`crate::cost`] charges `8c − 9` T gates per
//! `c`-control gate, following the relative-phase constructions of
//! Maslov \[26\] that the paper cites. This module provides the *explicit*
//! plain-Toffoli expansion (the classic V-chain): with `c − 2` clean
//! ancillae, a `c`-control gate becomes `2(c − 2) + 1` Toffolis. The
//! expansion is classically simulable, so it doubles as an executable
//! witness that large-control gates really do reduce to the 2-control
//! primitive — and the benches use it to compare the optimistic
//! (relative-phase) and pessimistic (plain-Toffoli) cost models.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Rewrites every gate with more than `max_controls` controls into a
/// V-chain over fresh clean ancillae. Returns the expanded circuit
/// (ancillae are appended above the original lines and returned clean).
///
/// Negative controls are handled by X-conjugation (free at the T level,
/// two NOT gates at the gate level).
///
/// # Panics
///
/// Panics if `max_controls < 2`.
///
/// # Example
///
/// ```
/// use qda_rev::circuit::Circuit;
/// use qda_rev::decompose::expand_to_toffoli;
/// use qda_rev::gate::{Control, Gate};
///
/// let mut c = Circuit::new(5);
/// c.mct((0..4).map(Control::positive).collect(), 4);
/// let expanded = expand_to_toffoli(&c);
/// // Same function on the original lines.
/// for x in 0..32u64 {
///     let full = expanded.simulate_u64(x);
///     assert_eq!(full & 31, c.simulate_u64(x));
/// }
/// ```
pub fn expand_to_toffoli(circuit: &Circuit) -> Circuit {
    expand_with_limit(circuit, 2)
}

/// Like [`expand_to_toffoli`] but keeping gates with up to `max_controls`
/// controls intact.
pub fn expand_with_limit(circuit: &Circuit, max_controls: usize) -> Circuit {
    assert!(max_controls >= 2, "cannot expand below 2 controls");
    // Worst-case ancilla need: the V-chain of the largest expanded gate
    // always reduces to 2-control Toffolis and needs c − 2 ancillae.
    let worst = circuit
        .gates()
        .iter()
        .map(Gate::num_controls)
        .filter(|&c| c > max_controls)
        .max()
        .unwrap_or(0);
    let num_ancillae = worst.saturating_sub(2);
    let base = circuit.num_lines();
    let mut out = Circuit::new(base + num_ancillae);
    for g in circuit.gates() {
        if g.num_controls() <= max_controls {
            out.add_gate(g.clone());
            continue;
        }
        // X-conjugate negative controls so the chain uses positive ones.
        let flips: Vec<usize> = g
            .controls()
            .iter()
            .filter(|c| !c.is_positive())
            .map(|c| c.line())
            .collect();
        for &f in &flips {
            out.not(f);
        }
        let controls: Vec<usize> = g.controls().iter().map(|c| c.line()).collect();
        emit_v_chain(&mut out, &controls, g.target(), base);
        for &f in &flips {
            out.not(f);
        }
    }
    out
}

/// Emits the V-chain for positive controls: ancilla `i` accumulates the
/// AND of a growing prefix; the final Toffoli hits the target; the chain
/// is then uncomputed.
fn emit_v_chain(out: &mut Circuit, controls: &[usize], target: usize, ancilla_base: usize) {
    let c = controls.len();
    debug_assert!(c > 2);
    // Compute ANDs: anc[0] = c0 & c1; anc[i] = anc[i-1] & c_{i+1}.
    let chain_len = c - 2;
    for i in 0..chain_len {
        let (a, b) = if i == 0 {
            (controls[0], controls[1])
        } else {
            (ancilla_base + i - 1, controls[i + 1])
        };
        out.toffoli(a, b, ancilla_base + i);
    }
    out.toffoli(ancilla_base + chain_len - 1, controls[c - 1], target);
    for i in (0..chain_len).rev() {
        let (a, b) = if i == 0 {
            (controls[0], controls[1])
        } else {
            (ancilla_base + i - 1, controls[i + 1])
        };
        out.toffoli(a, b, ancilla_base + i);
    }
}

/// T-count of a circuit when every gate is first expanded into plain
/// Toffolis (`7` T each): the pessimistic counterpart of the
/// relative-phase model in [`crate::cost`].
pub fn plain_toffoli_t_count(circuit: &Circuit) -> u64 {
    circuit
        .gates()
        .iter()
        .map(|g| match g.num_controls() {
            0 | 1 => 0,
            2 => 7,
            c => 7 * (2 * (c as u64 - 2) + 1),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Control;
    use crate::state::BitState;

    fn mct_circuit(c: usize) -> Circuit {
        let mut circuit = Circuit::new(c + 1);
        circuit.mct((0..c).map(Control::positive).collect(), c);
        circuit
    }

    #[test]
    fn v_chain_matches_mct_semantics() {
        for c in 3..=7 {
            let original = mct_circuit(c);
            let expanded = expand_to_toffoli(&original);
            let mask = (1u64 << (c + 1)) - 1;
            for x in 0..(1u64 << (c + 1)) {
                let full = expanded.simulate_u64(x);
                assert_eq!(full & mask, original.simulate_u64(x), "c={c} x={x}");
                // Ancillae returned clean.
                assert_eq!(full & !mask, 0, "c={c} x={x}: dirty ancilla");
            }
        }
    }

    #[test]
    fn negative_controls_conjugated() {
        let mut circuit = Circuit::new(5);
        circuit.mct(
            vec![
                Control::positive(0),
                Control::negative(1),
                Control::positive(2),
                Control::negative(3),
            ],
            4,
        );
        let expanded = expand_to_toffoli(&circuit);
        for x in 0..32u64 {
            assert_eq!(expanded.simulate_u64(x) & 31, circuit.simulate_u64(x));
        }
    }

    #[test]
    fn small_gates_pass_through() {
        let mut circuit = Circuit::new(3);
        circuit.not(0);
        circuit.cnot(0, 1);
        circuit.toffoli(0, 1, 2);
        let expanded = expand_to_toffoli(&circuit);
        assert_eq!(expanded.num_gates(), 3);
        assert_eq!(expanded.num_lines(), 3);
    }

    #[test]
    fn toffoli_counts_follow_barenco() {
        for c in 3..=8 {
            let expanded = expand_to_toffoli(&mct_circuit(c));
            assert_eq!(expanded.num_gates(), 2 * (c - 2) + 1, "c={c}");
        }
    }

    #[test]
    fn partial_expansion_respects_limit() {
        let expanded = expand_with_limit(&mct_circuit(6), 4);
        assert!(expanded
            .gates()
            .iter()
            .all(|g| g.num_controls() <= 4 || g.num_controls() == 0));
    }

    #[test]
    fn expanded_circuit_on_wide_state() {
        let original = mct_circuit(5);
        let expanded = expand_to_toffoli(&original);
        let mut s = BitState::zeros(expanded.num_lines());
        for l in 0..5 {
            s.set(l, true);
        }
        expanded.apply(&mut s);
        assert!(s.get(5), "target flipped when all controls set");
    }

    #[test]
    fn plain_t_count_upper_bounds_model() {
        let c = mct_circuit(9);
        assert!(plain_toffoli_t_count(&c) >= c.cost().t_count);
    }
}
