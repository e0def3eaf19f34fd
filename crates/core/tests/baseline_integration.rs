//! Integration tests for the Table I baselines and the cross-table
//! comparisons the paper's §V discusses in prose.

use qda_arith::resdiv::resdiv_reciprocal;
use qda_arith::{qnewton_circuit, recip_intdiv};
use qda_core::design::Design;
use qda_core::flow::{EsopFlow, Flow, FunctionalFlow, HierarchicalFlow};
use qda_rev::state::BitState;

#[test]
fn resdiv_reciprocal_matches_intdiv_model() {
    for n in [4usize, 5] {
        let d = resdiv_reciprocal(n);
        for x in 1..(1u64 << n) {
            let mut s = BitState::zeros(d.circuit.num_lines());
            s.write_register(&d.divisor_lines, x);
            d.circuit.apply(&mut s);
            let y = s.read_register(&d.quotient_lines) & ((1 << n) - 1);
            assert_eq!(y, recip_intdiv(n, x), "n={n} x={x}");
        }
    }
}

#[test]
fn baseline_qubit_scaling_matches_paper() {
    // RESDIV: ~6n qubits (paper: exactly 6n; ours carries 3 bookkeeping
    // lines). QNEWTON: linear in n.
    for n in [8usize, 16] {
        let resdiv = resdiv_reciprocal(n).circuit.cost();
        assert_eq!(resdiv.qubits, 6 * n + 3);
        let qnewton = qnewton_circuit(n).circuit.cost();
        assert!(qnewton.qubits > resdiv.qubits, "QNEWTON uses more qubits");
        assert!(qnewton.qubits < 30 * n, "but stays linear in n");
    }
}

#[test]
fn tbs_beats_resdiv_on_qubits_by_paper_ratio() {
    // Paper: "the number of qubits is 3.2× smaller compared to the RESDIV
    // baseline for n = 8".
    let n = 8;
    let resdiv = resdiv_reciprocal(n).circuit.cost();
    let tbs = FunctionalFlow::default()
        .run(&Design::intdiv(n))
        .unwrap()
        .cost;
    let ratio = resdiv.qubits as f64 / tbs.qubits as f64;
    assert!(
        (2.5..4.5).contains(&ratio),
        "expected ~3.2x fewer qubits, got {ratio:.2}"
    );
    // …"with the price of a very high T-count".
    assert!(tbs.t_count > resdiv.t_count);
}

#[test]
fn esop_beats_resdiv_on_qubits_3x() {
    // Paper: "compared to the baseline the number of qubits is 3× smaller
    // for both n = 8 and n = 16" (ESOP flow, p = 0).
    let n = 8;
    let resdiv = resdiv_reciprocal(n).circuit.cost();
    let esop = EsopFlow::with_factoring(0)
        .run(&Design::intdiv(n))
        .unwrap()
        .cost;
    let ratio = resdiv.qubits as f64 / esop.qubits as f64;
    assert!(
        (2.5..4.0).contains(&ratio),
        "expected ~3x fewer qubits, got {ratio:.2}"
    );
}

#[test]
fn hierarchical_beats_resdiv_on_t_count() {
    // Paper: "the T-count is 6.2× smaller for n = 16" (hierarchical
    // INTDIV vs RESDIV), at many times the qubits.
    let n = 16;
    let resdiv = resdiv_reciprocal(n).circuit.cost();
    let hier = HierarchicalFlow::default()
        .run(&Design::intdiv(n))
        .unwrap()
        .cost;
    let t_ratio = resdiv.t_count as f64 / hier.t_count as f64;
    assert!(
        t_ratio > 2.0,
        "expected several-fold smaller T-count, got {t_ratio:.2}"
    );
    let q_ratio = hier.qubits as f64 / resdiv.qubits as f64;
    assert!(q_ratio > 2.0, "hierarchical pays in qubits: {q_ratio:.2}");
}

#[test]
fn esop_t_count_sits_between_tbs_and_hierarchical() {
    // Table II vs III vs IV ordering at a common n.
    let n = 8;
    let tbs = FunctionalFlow::default()
        .run(&Design::intdiv(n))
        .unwrap()
        .cost;
    let esop = EsopFlow::with_factoring(0)
        .run(&Design::intdiv(n))
        .unwrap()
        .cost;
    assert!(esop.t_count < tbs.t_count / 10, "ESOP ≪ TBS in T-count");
}

#[test]
fn qnewton_accuracy_spot_checks() {
    let n = 8;
    let q = qnewton_circuit(n);
    for x in [2u64, 3, 7, 22, 100, 255] {
        let mut s = BitState::zeros(q.circuit.num_lines());
        s.write_register(&q.input_lines, x);
        q.circuit.apply(&mut s);
        let y = s.read_register(&q.output_lines);
        let approx = y as f64 / 256.0;
        let truth = 1.0 / x as f64;
        assert!(
            (approx - truth).abs() <= 4.0 / 256.0,
            "x={x}: {approx} vs {truth}"
        );
    }
}
