//! The benchmark's seeded stream and its independent check of output
//! circuits against the reciprocal golden models of `qda-arith`.

use qda_core::design::{Design, DesignKind};
use qda_rev::batchsim::BatchState;
use qda_rev::circuit::Circuit;

/// Inputs up to this width are checked exhaustively.
pub const EXHAUSTIVE_BITS: usize = 10;

/// Inputs drawn from the seeded stream for wider designs.
pub const SAMPLES: usize = 4096;

/// SplitMix64: every input the benchmark makes comes from this stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The golden model of a generator design at input `x`.
///
/// # Panics
///
/// Panics for external designs, which have no model.
pub fn golden(design: &Design, x: u64) -> u64 {
    match design.kind() {
        DesignKind::IntDiv => qda_arith::recip_intdiv(design.bits(), x),
        DesignKind::Newton => qda_arith::recip_newton(design.bits(), x),
        DesignKind::External => panic!("external designs have no golden model"),
    }
}

/// Simulates `circuit` with every non-input line at 0 and compares the
/// output register with the golden model on the reciprocal's domain
/// `1 ≤ x < 2^n`: on every input when `n ≤ EXHAUSTIVE_BITS`, else on
/// [`SAMPLES`] inputs from `rng`. Returns the number of inputs checked.
///
/// # Errors
///
/// Describes the first input whose output disagrees.
pub fn check_circuit(
    design: &Design,
    circuit: &Circuit,
    input_lines: &[usize],
    output_lines: &[usize],
    rng: &mut Rng,
) -> Result<usize, String> {
    let n = design.bits();
    let mask = (1u64 << n) - 1;
    let inputs: Vec<u64> = if n <= EXHAUSTIVE_BITS {
        (1..=mask).collect()
    } else {
        (0..SAMPLES).map(|_| 1 + rng.next_u64() % mask).collect()
    };
    let mut state = BatchState::zeros(circuit.num_lines(), inputs.len());
    state.load_register(input_lines, &inputs);
    circuit.apply_batch(&mut state);
    let outputs = state.read_register(output_lines);
    for (&x, &y) in inputs.iter().zip(&outputs) {
        let want = golden(design, x);
        if y != want {
            return Err(format!(
                "{}: input {x} gives {y}, the golden model gives {want}",
                design.name()
            ));
        }
    }
    Ok(inputs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_core::flow::{EsopFlow, Flow};

    #[test]
    fn stream_is_seeded_and_shuffle_permutes() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn flow_output_passes_and_a_broken_circuit_fails() {
        let design = Design::intdiv(5);
        let outcome = EsopFlow::with_factoring(0).run(&design).unwrap();
        let mut rng = Rng::new(1);
        let checked = check_circuit(
            &design,
            &outcome.circuit,
            &outcome.input_lines,
            &outcome.output_lines,
            &mut rng,
        )
        .unwrap();
        assert_eq!(checked, 31);
        let mut broken = outcome.circuit.clone();
        broken.not(outcome.output_lines[0]);
        let err = check_circuit(
            &design,
            &broken,
            &outcome.input_lines,
            &outcome.output_lines,
            &mut rng,
        )
        .unwrap_err();
        assert!(err.contains("INTDIV(5)"), "{err}");
    }
}
