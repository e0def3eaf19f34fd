//! Quantum cost accounting: T-count and qubit count.
//!
//! Following the paper (and its references Maslov \[26\] and Barenco et
//! al. \[27\]), the T gate dominates the cost of fault-tolerant execution, so
//! circuits are costed by the number of T gates required to decompose each
//! MPMCT gate:
//!
//! | controls `c` | T-count |
//! |--------------|---------|
//! | 0 (NOT)      | 0       |
//! | 1 (CNOT)     | 0       |
//! | 2 (Toffoli)  | 7       |
//! | `c ≥ 3`      | `8c − 9`|
//!
//! The `c ≥ 3` row is the linear-in-controls decomposition with one
//! borrowed (dirty) ancilla; it extends the Toffoli value continuously
//! (`8·2 − 9 = 7`). Negative controls are free: they conjugate controls
//! with X gates, which are Clifford.

use crate::circuit::Circuit;
use std::fmt;

/// T-count of a single MPMCT gate with `controls` controls.
///
/// # Example
///
/// ```
/// use qda_rev::cost::t_count_mct;
///
/// assert_eq!(t_count_mct(0), 0);
/// assert_eq!(t_count_mct(1), 0);
/// assert_eq!(t_count_mct(2), 7);
/// assert_eq!(t_count_mct(3), 15);
/// assert_eq!(t_count_mct(27), 207);
/// ```
pub fn t_count_mct(controls: usize) -> u64 {
    match controls {
        0 | 1 => 0,
        c => 8 * c as u64 - 9,
    }
}

/// Aggregated cost figures of a reversible circuit — the columns of the
/// paper's result tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CircuitCost {
    /// Number of circuit lines (qubits).
    pub qubits: usize,
    /// Total gate count.
    pub gates: usize,
    /// Gates with zero controls.
    pub not_count: usize,
    /// Gates with one control.
    pub cnot_count: usize,
    /// Gates with exactly two controls.
    pub toffoli_count: usize,
    /// Gates with three or more controls.
    pub mct_count: usize,
    /// Largest control count of any gate.
    pub max_controls: usize,
    /// Total T-count under the model above.
    pub t_count: u64,
}

impl CircuitCost {
    /// Costs a circuit. Walks the packed arena directly: the control
    /// count of each gate is a popcount over its control mask words, so
    /// no gate is ever materialized.
    pub fn of(circuit: &Circuit) -> Self {
        let mut cost = CircuitCost {
            qubits: circuit.num_lines(),
            ..Default::default()
        };
        for (_, g) in circuit.packed() {
            cost.gates += 1;
            let c = g.num_controls();
            match c {
                0 => cost.not_count += 1,
                1 => cost.cnot_count += 1,
                2 => cost.toffoli_count += 1,
                _ => cost.mct_count += 1,
            }
            cost.max_controls = cost.max_controls.max(c);
            cost.t_count += t_count_mct(c);
        }
        cost
    }
}

impl fmt::Display for CircuitCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} qubits, {} gates (NOT {}, CNOT {}, TOF {}, MCT {}), T-count {}",
            self.qubits,
            self.gates,
            self.not_count,
            self.cnot_count,
            self.toffoli_count,
            self.mct_count,
            self.t_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Control;

    #[test]
    fn model_values() {
        assert_eq!(t_count_mct(2), 7);
        // Continuity at the Toffoli boundary: 8*2-9 == 7.
        assert_eq!(8 * 2 - 9, 7);
        assert_eq!(t_count_mct(4), 23);
        assert_eq!(t_count_mct(10), 71);
    }

    #[test]
    fn negative_controls_cost_nothing_extra() {
        let mut pos = Circuit::new(3);
        pos.toffoli(0, 1, 2);
        let mut neg = Circuit::new(3);
        neg.mct(vec![Control::negative(0), Control::negative(1)], 2);
        assert_eq!(CircuitCost::of(&pos).t_count, CircuitCost::of(&neg).t_count);
    }

    #[test]
    fn circuit_aggregation() {
        let mut c = Circuit::new(5);
        c.not(0);
        c.cnot(0, 1);
        c.toffoli(0, 1, 2);
        c.mct(
            vec![
                Control::positive(0),
                Control::positive(1),
                Control::positive(2),
                Control::negative(3),
            ],
            4,
        );
        let cost = CircuitCost::of(&c);
        assert_eq!(cost.qubits, 5);
        assert_eq!(cost.gates, 4);
        assert_eq!(cost.not_count, 1);
        assert_eq!(cost.cnot_count, 1);
        assert_eq!(cost.toffoli_count, 1);
        assert_eq!(cost.mct_count, 1);
        assert_eq!(cost.max_controls, 4);
        assert_eq!(cost.t_count, 7 + (8 * 4 - 9));
    }
}
