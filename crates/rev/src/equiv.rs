//! Functional verification of synthesized reversible circuits.
//!
//! Mirrors the paper's methodology ("correctness of the synthesized designs
//! has been verified using ABC's combinational equivalence checker `cec`"):
//! every circuit coming out of a synthesis flow is replayed against the
//! golden model, exhaustively when the input space is small and with
//! randomized sampling otherwise.
//!
//! Replay runs on the bit-parallel [`crate::batchsim`] engine by default,
//! through the same two sweep drivers the optimizer's soundness gates use
//! (exhaustive spans of consecutive inputs, or seeded pre-drawn samples):
//! both proceed in [`crate::batchsim::BATCH_STATES`]-state batches, so
//! every gate is applied to 64 states per lane word at once. When a batch
//! flags a discrepancy, the batch is re-run scalar, in order, to recover
//! the exact witness input — the reported [`VerifyOutcome::Mismatch`] /
//! [`VerifyOutcome::DirtyLine`] is identical to what a pure scalar run
//! ([`VerifyOptions::batch`] `= false`) would produce.
//!
//! The oracle side batches too: [`verify_computes_batched`] asks its
//! oracle once per batch for every state's expected output (so an AIG
//! can answer 64 states per simulation word), and scalar replay asks it
//! for one input. [`verify_computes`] is the same sweep with a per-input
//! oracle.
//!
//! Exhaustive enumeration requires `2^n` to be representable *and*
//! affordable: with a full 64-bit interface the space can only ever be
//! sampled, no matter how large [`VerifyOptions::exhaustive_limit`] is.
//! (An earlier version computed `1u64 << 64` here, which wraps in release
//! builds to a one-iteration loop — `verify_computes` then returned
//! [`VerifyOutcome::Verified`] without checking anything.)

use crate::batchsim::{first_exhaustive, first_sampled, BatchState, CompiledCascade, Starts};
use crate::circuit::Circuit;
use crate::state::BitState;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seed of the random inputs [`verify_computes`] samples.
const VERIFY_SEED: u64 = 0xC0FFEE;

/// What to check and how hard to try.
#[derive(Clone, Copy, Debug)]
pub struct VerifyOptions {
    /// Exhaustive enumeration is used when the number of input lines is at
    /// most this (and below 64 — a 64-bit space can only be sampled).
    pub exhaustive_limit: usize,
    /// Number of random input samples when exhaustive checking is off.
    pub random_samples: u64,
    /// Use the bit-parallel batch engine (the default). `false` replays
    /// one state and one gate at a time — ~64× slower, kept as an escape
    /// hatch and as the differential-testing reference.
    pub batch: bool,
    /// Additionally require every line that is neither an input nor an
    /// output to end at zero (clean ancillae, as Bennett-style circuits
    /// guarantee).
    pub check_ancilla_clean: bool,
    /// Additionally require input lines (that are not also output lines)
    /// to be preserved.
    pub check_inputs_preserved: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        // The batch engine makes much larger budgets affordable than the
        // scalar replay these defaults were originally tuned for
        // (exhaustive_limit 12 / 512 samples).
        Self {
            exhaustive_limit: 16,
            random_samples: 4096,
            batch: true,
            check_ancilla_clean: false,
            check_inputs_preserved: false,
        }
    }
}

/// Result of a verification run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyOutcome {
    /// Exhaustively proven correct.
    Verified,
    /// All random samples agreed.
    ProbablyCorrect {
        /// Number of inputs tested.
        samples: u64,
    },
    /// The circuit output disagrees with the oracle.
    Mismatch {
        /// Failing input value.
        input: u64,
        /// Oracle output.
        expected: u64,
        /// Circuit output.
        actual: u64,
    },
    /// An ancilla or preserved-input line ended in the wrong state.
    DirtyLine {
        /// Failing input value.
        input: u64,
        /// Offending line.
        line: usize,
    },
    /// Verification was skipped (interface wider than the 64-bit
    /// harness supports; e.g. the paper's n = 128 instance).
    Skipped,
}

impl VerifyOutcome {
    /// Whether no problem was found.
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            VerifyOutcome::Verified
                | VerifyOutcome::ProbablyCorrect { .. }
                | VerifyOutcome::Skipped
        )
    }
}

/// One [`verify_computes_batched`] question: does `circuit`, started with
/// an input on `input_lines` and zeros elsewhere, leave `oracle`'s answer
/// on `output_lines` (and, where the options ask, its ancillae and inputs
/// as they started)? The oracle answers a slice of inputs at once.
struct Check<'a, F> {
    circuit: &'a Circuit,
    /// `circuit`, compiled once for every batch of the sweep.
    cascade: CompiledCascade,
    input_lines: &'a [usize],
    output_lines: &'a [usize],
    oracle: F,
    options: &'a VerifyOptions,
}

impl<F: Fn(&[u64], &mut [u64])> Check<'_, F> {
    /// Replays input `x` scalar (one basis state, one gate at a time);
    /// returns the failure, if any.
    fn scalar(&self, x: u64) -> Option<VerifyOutcome> {
        let (circuit, input_lines, output_lines) =
            (self.circuit, self.input_lines, self.output_lines);
        let options = self.options;
        let mut state = BitState::zeros(circuit.num_lines());
        state.write_register(input_lines, x);
        circuit.apply(&mut state);
        let actual = state.read_register(output_lines);
        let mut expected = 0;
        (self.oracle)(&[x], std::slice::from_mut(&mut expected));
        if actual != expected {
            return Some(VerifyOutcome::Mismatch {
                input: x,
                expected,
                actual,
            });
        }
        if options.check_ancilla_clean || options.check_inputs_preserved {
            for line in 0..circuit.num_lines() {
                let is_input = input_lines.contains(&line);
                let is_output = output_lines.contains(&line);
                if is_output {
                    continue;
                }
                if is_input {
                    if options.check_inputs_preserved {
                        let idx = input_lines.iter().position(|&l| l == line).expect("input");
                        if state.get(line) != ((x >> idx) & 1 == 1) {
                            return Some(VerifyOutcome::DirtyLine { input: x, line });
                        }
                    }
                } else if options.check_ancilla_clean && state.get(line) {
                    return Some(VerifyOutcome::DirtyLine { input: x, line });
                }
            }
        }
        None
    }

    /// Runs one loaded batch of a sweep bit-parallel; on any discrepancy
    /// the batch's inputs are replayed scalar, in order, so the reported
    /// failure is exactly the one a pure scalar run would find.
    fn batch(&self, state: &mut BatchState, starts: Starts<'_>) -> Option<VerifyOutcome> {
        let (input_lines, output_lines) = (self.input_lines, self.output_lines);
        let inputs: Vec<u64> = (0..state.num_states())
            .map(|k| starts.value(0, k))
            .collect();
        // Snapshot the lanes the preserved-inputs check compares against.
        let preserved: Vec<(usize, Vec<u64>)> = if self.options.check_inputs_preserved {
            input_lines
                .iter()
                .filter(|l| !output_lines.contains(l))
                .map(|&l| (l, state.lane(l).to_vec()))
                .collect()
        } else {
            Vec::new()
        };
        self.cascade.apply(state);

        let actual = state.read_register(output_lines);
        let mut expected = vec![0; inputs.len()];
        (self.oracle)(&inputs, &mut expected);
        let mut clean = actual == expected;
        if clean {
            clean = preserved
                .iter()
                .all(|(l, before)| lanes_equal(state, state.lane(*l), before));
        }
        if clean && self.options.check_ancilla_clean {
            clean = (0..self.circuit.num_lines())
                .filter(|l| !output_lines.contains(l) && !input_lines.contains(l))
                .all(|l| !state.lane_is_nonzero(l));
        }
        if clean {
            return None;
        }
        let failure = inputs.iter().find_map(|&x| self.scalar(x));
        assert!(
            failure.is_some(),
            "batch simulation flagged a failure that scalar replay cannot reproduce"
        );
        failure
    }
}

/// Whether two lanes agree on every valid (non-phantom) state bit.
fn lanes_equal(state: &BatchState, a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .zip(b)
        .enumerate()
        .all(|(w, (x, y))| (x ^ y) & state.word_mask(w) == 0)
}

/// Checks that `circuit` computes `oracle` when `input_lines` carry the
/// input bits (all other lines start at zero) and `output_lines` carry the
/// result afterwards.
///
/// `input_lines` and `output_lines` may overlap (in-place circuits).
///
/// Inputs are enumerated exhaustively when there are fewer than 64 of
/// them and at most [`VerifyOptions::exhaustive_limit`]; otherwise
/// [`VerifyOptions::random_samples`] random inputs are drawn (a full
/// 64-bit interface is always sampled — the exhaustive space is not
/// enumerable). Both paths run bit-parallel unless
/// [`VerifyOptions::batch`] is off, and report the same witness either
/// way.
///
/// Batch sweeps compile the circuit once
/// ([`crate::batchsim::CompiledCascade`]) and run on the
/// [`crate::batchsim`] sweep drivers, which shard them across the worker
/// pool (`qda_logic::par`) — exhaustive enumeration in spans of
/// consecutive batches, sampling one pre-drawn batch per job — and keep
/// the first failure in input order, so the outcome, witness included, is
/// byte-identical to the serial sweep at any worker count.
///
/// # Panics
///
/// Panics if more than 64 input or output lines are given.
pub fn verify_computes<F: Fn(u64) -> u64 + Sync>(
    circuit: &Circuit,
    input_lines: &[usize],
    output_lines: &[usize],
    oracle: F,
    options: &VerifyOptions,
) -> VerifyOutcome {
    verify_computes_batched(
        circuit,
        input_lines,
        output_lines,
        |xs: &[u64], ys: &mut [u64]| {
            for (&x, y) in xs.iter().zip(ys) {
                *y = oracle(x);
            }
        },
        options,
    )
}

/// [`verify_computes`] with a batch oracle: `oracle(xs, ys)` writes the
/// expected output of every input `xs[k]` to `ys[k]`. A bit-parallel batch
/// asks it once for all of its states (so an oracle such as
/// [`qda_logic::Aig::eval_many`] can answer 64 inputs per word), and scalar
/// replay asks for one input at a time. The sweep, its states, their
/// order and the reported witness are those of [`verify_computes`].
///
/// # Panics
///
/// Panics if more than 64 input or output lines are given.
pub fn verify_computes_batched<F: Fn(&[u64], &mut [u64]) + Sync>(
    circuit: &Circuit,
    input_lines: &[usize],
    output_lines: &[usize],
    oracle: F,
    options: &VerifyOptions,
) -> VerifyOutcome {
    assert!(input_lines.len() <= 64 && output_lines.len() <= 64);
    let n = input_lines.len();
    let exhaustive = n < 64 && n <= options.exhaustive_limit;
    let check = Check {
        circuit,
        cascade: CompiledCascade::new(circuit.packed()),
        input_lines,
        output_lines,
        oracle,
        options,
    };
    let make_check = || |state: &mut BatchState, starts: Starts<'_>| check.batch(state, starts);
    let failure = match (exhaustive, options.batch) {
        (true, true) => first_exhaustive(circuit.num_lines(), input_lines, make_check),
        (true, false) => (0..1u64 << n).find_map(|x| check.scalar(x)),
        (false, true) => first_sampled(
            circuit.num_lines(),
            input_lines,
            VERIFY_SEED,
            options.random_samples,
            make_check,
        ),
        (false, false) => {
            // The stream `first_sampled` draws for a one-chunk register.
            let mut rng = StdRng::seed_from_u64(VERIFY_SEED);
            let mask = u64::MAX >> (64 - n);
            (0..options.random_samples).find_map(|_| check.scalar(rng.gen::<u64>() & mask))
        }
    };
    failure.unwrap_or(if exhaustive {
        VerifyOutcome::Verified
    } else {
        VerifyOutcome::ProbablyCorrect {
            samples: options.random_samples,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bennett-style XOR: out ^= a ^ b on 3 lines.
    fn xor_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.cnot(0, 2);
        c.cnot(1, 2);
        c
    }

    #[test]
    fn verifies_correct_circuit() {
        let c = xor_circuit();
        let out = verify_computes(
            &c,
            &[0, 1],
            &[2],
            |x| (x & 1) ^ ((x >> 1) & 1),
            &VerifyOptions {
                check_ancilla_clean: true,
                check_inputs_preserved: true,
                ..Default::default()
            },
        );
        assert_eq!(out, VerifyOutcome::Verified);
    }

    #[test]
    fn detects_functional_mismatch() {
        let c = xor_circuit();
        let out = verify_computes(&c, &[0, 1], &[2], |x| x & 1, &VerifyOptions::default());
        assert!(matches!(out, VerifyOutcome::Mismatch { .. }));
    }

    #[test]
    fn detects_dirty_ancilla() {
        let mut c = Circuit::new(4);
        c.cnot(0, 2);
        c.cnot(0, 3); // scribbles on line 3 and never cleans it
        let out = verify_computes(
            &c,
            &[0, 1],
            &[2],
            |x| x & 1,
            &VerifyOptions {
                check_ancilla_clean: true,
                ..Default::default()
            },
        );
        assert!(matches!(out, VerifyOutcome::DirtyLine { line: 3, .. }));
    }

    #[test]
    fn detects_clobbered_inputs() {
        let mut c = Circuit::new(3);
        c.cnot(0, 2);
        c.not(1); // destroys input line 1
        let out = verify_computes(
            &c,
            &[0, 1],
            &[2],
            |x| x & 1,
            &VerifyOptions {
                check_inputs_preserved: true,
                ..Default::default()
            },
        );
        assert!(matches!(out, VerifyOutcome::DirtyLine { line: 1, .. }));
    }

    #[test]
    fn randomized_path_for_wide_inputs() {
        // 16-input parity, checked with sampling (limit forced low).
        let mut c = Circuit::new(17);
        for i in 0..16 {
            c.cnot(i, 16);
        }
        let inputs: Vec<usize> = (0..16).collect();
        let out = verify_computes(
            &c,
            &inputs,
            &[16],
            |x| (x.count_ones() % 2) as u64,
            &VerifyOptions {
                exhaustive_limit: 8,
                random_samples: 64,
                ..Default::default()
            },
        );
        assert_eq!(out, VerifyOutcome::ProbablyCorrect { samples: 64 });
    }

    #[test]
    fn batch_and_scalar_report_the_same_witness() {
        // out ^= a, but the oracle wants a & b: first failing input is
        // x = 1 (a = 1, b = 0) in enumeration order.
        let mut c = Circuit::new(3);
        c.cnot(0, 2);
        let run = |batch| {
            verify_computes(
                &c,
                &[0, 1],
                &[2],
                |x| (x & 1) & ((x >> 1) & 1),
                &VerifyOptions {
                    batch,
                    ..Default::default()
                },
            )
        };
        let scalar = run(false);
        assert_eq!(
            scalar,
            VerifyOutcome::Mismatch {
                input: 1,
                expected: 0,
                actual: 1
            }
        );
        assert_eq!(run(true), scalar);
    }

    #[test]
    fn batch_and_scalar_agree_on_dirty_line_witnesses() {
        let mut c = Circuit::new(4);
        c.cnot(0, 2);
        c.cnot(1, 3); // dirty ancilla 3, first dirtied at x = 2
        let run = |batch| {
            verify_computes(
                &c,
                &[0, 1],
                &[2],
                |x| x & 1,
                &VerifyOptions {
                    batch,
                    check_ancilla_clean: true,
                    check_inputs_preserved: true,
                    ..Default::default()
                },
            )
        };
        let scalar = run(false);
        assert_eq!(scalar, VerifyOutcome::DirtyLine { input: 2, line: 3 });
        assert_eq!(run(true), scalar);
    }

    #[test]
    fn exhaustive_spans_multiple_batches() {
        // 11 inputs = 2048 states = two full 1024-state batches.
        let mut c = Circuit::new(12);
        for i in 0..11 {
            c.cnot(i, 11);
        }
        let inputs: Vec<usize> = (0..11).collect();
        let out = verify_computes(
            &c,
            &inputs,
            &[11],
            |x| (x.count_ones() % 2) as u64,
            &VerifyOptions::default(),
        );
        assert_eq!(out, VerifyOutcome::Verified);
    }

    #[test]
    fn full_64_bit_interface_is_sampled_not_vacuously_verified() {
        // Identity on bit 0 → out: correct, but 2^64 inputs can never be
        // enumerated, so even exhaustive_limit = 64 must yield a sampled
        // verdict (the old shift `1u64 << 64` wrapped in release builds
        // and returned Verified after a single iteration).
        let mut c = Circuit::new(65);
        c.cnot(0, 64);
        let inputs: Vec<usize> = (0..64).collect();
        for batch in [false, true] {
            let opts = VerifyOptions {
                exhaustive_limit: 64,
                random_samples: 128,
                batch,
                ..Default::default()
            };
            let out = verify_computes(&c, &inputs, &[64], |x| x & 1, &opts);
            assert_eq!(out, VerifyOutcome::ProbablyCorrect { samples: 128 });
        }
    }

    #[test]
    fn full_64_bit_interface_still_catches_bugs() {
        // Empty circuit against a non-trivial oracle: sampling must find
        // a mismatch instead of vacuously passing.
        let c = Circuit::new(65);
        let inputs: Vec<usize> = (0..64).collect();
        for batch in [false, true] {
            let opts = VerifyOptions {
                exhaustive_limit: 64,
                random_samples: 128,
                batch,
                ..Default::default()
            };
            let out = verify_computes(&c, &inputs, &[64], |x| x & 1, &opts);
            assert!(matches!(out, VerifyOutcome::Mismatch { .. }), "{out:?}");
        }
    }
}
