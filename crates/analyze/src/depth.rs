//! Static depth metrics via ASAP (as-soon-as-possible) layering.
//!
//! Gates are scheduled greedily under the dependency relation the
//! peephole optimizer already uses: a gate *reads* its control lines and
//! *read-modify-writes* its target. Reads of the same line commute and
//! may share a layer; a read must wait for the last write to that line,
//! and a write must wait for the last read *and* write. Two duration
//! notions are reported:
//!
//! * **logical depth** — every gate takes one layer;
//! * **T-depth** — only gates with two or more controls (the ones that
//!   decompose into T gates under the paper's cost model) take a layer,
//!   NOT/CNOT gates are Clifford and free.

use qda_rev::{Control, GateArena};

/// Depth metrics of one circuit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DepthMetrics {
    /// ASAP layers with every gate costing one layer.
    pub logical_depth: usize,
    /// ASAP layers counting only gates with ≥ 2 controls.
    pub t_depth: usize,
}

/// Measures both depth metrics over the packed arena in one pass: each
/// gate's control lines are decoded once, and the two schedules (index 0
/// logical, index 1 T) advance together.
pub fn measure(arena: &GateArena) -> DepthMetrics {
    let mut read_end = vec![[0usize; 2]; arena.num_lines()];
    let mut write_end = vec![[0usize; 2]; arena.num_lines()];
    let mut depth = [0usize; 2];
    let mut controls = Vec::new();
    for (_, gate) in arena {
        controls.clear();
        controls.extend(gate.controls().map(Control::line));
        let t = gate.target();
        let durations = [1, usize::from(controls.len() >= 2)];
        for d in 0..2 {
            let mut start = read_end[t][d].max(write_end[t][d]);
            for &c in &controls {
                start = start.max(write_end[c][d]);
            }
            let end = start + durations[d];
            for &c in &controls {
                read_end[c][d] = read_end[c][d].max(end);
            }
            write_end[t][d] = end;
            depth[d] = depth[d].max(end);
        }
    }
    DepthMetrics {
        logical_depth: depth[0],
        t_depth: depth[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::Circuit;

    #[test]
    fn independent_gates_share_a_layer_and_chains_stack() {
        let mut c = Circuit::new(6);
        c.toffoli(0, 1, 2); // layer 1
        c.toffoli(3, 4, 5); // disjoint: layer 1
        c.toffoli(0, 1, 2); // write-after-write on 2: layer 2
        let m = measure(c.packed());
        assert_eq!(m.logical_depth, 2);
        assert_eq!(m.t_depth, 2);
    }

    #[test]
    fn shared_controls_are_concurrent_reads() {
        let mut c = Circuit::new(4);
        c.toffoli(0, 1, 2);
        c.toffoli(0, 1, 3); // same controls, distinct target: same layer
        let m = measure(c.packed());
        assert_eq!(m.t_depth, 1);
        assert_eq!(m.logical_depth, 1);
    }

    #[test]
    fn clifford_gates_are_free_in_t_depth_but_still_order() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2); // T layer 1
        c.cnot(2, 0); // Clifford, but reads 2 after the write
        c.toffoli(0, 1, 2); // must follow the CNOT's read of 2 and write of 0
        let m = measure(c.packed());
        assert_eq!(m.logical_depth, 3);
        assert_eq!(m.t_depth, 2, "the CNOT adds no T layer");
        assert_eq!(
            measure(&qda_rev::GateArena::new(3)),
            DepthMetrics::default()
        );
    }
}
