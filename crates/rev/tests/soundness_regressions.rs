//! Regression tests for the release-mode soundness holes: the
//! `1u64 << 64` shift wrap that made `verify_computes` vacuously pass on
//! 64-bit interfaces, the same wrap in `Circuit::permutation`, and the
//! debug-only double-release check in `LineAllocator`. The
//! `release_mode` module compiles only without debug assertions, so the
//! `cargo test --release` CI job proves the checks are real asserts, not
//! `debug_assert!`s.
//!
//! The `pinned_*` tests fix the exact witness every equivalence check
//! reports — sampled and exhaustive, single- and multi-chunk, with and
//! without an initial-state assumption — so a change to the sweep that
//! draws, orders or folds states differently fails here first.

use qda_logic::par;
use qda_rev::circuit::{Circuit, LineAllocator, TooWideError, PERMUTATION_LINE_LIMIT};
use qda_rev::equiv::{verify_computes, VerifyOptions, VerifyOutcome};
use qda_rev::gate::{Control, Gate};
use qda_rev::opt::{equivalence_witness, equivalence_witness_assuming, OptMismatch};

/// 64 input lines feeding one output line.
fn wide_interface() -> (Vec<usize>, Vec<usize>) {
    ((0..64).collect(), vec![64])
}

#[test]
fn exhaustive_request_on_64_bit_interface_is_sampled_not_vacuous() {
    // A correct circuit: out ^= bit 0. Even with exhaustive_limit = 64
    // the 2^64 input space can only be sampled, so the verdict must be
    // ProbablyCorrect — the old code returned Verified after checking
    // a single input.
    let mut c = Circuit::new(65);
    c.cnot(0, 64);
    let (inputs, outputs) = wide_interface();
    for batch in [false, true] {
        let out = verify_computes(
            &c,
            &inputs,
            &outputs,
            |x| x & 1,
            &VerifyOptions {
                exhaustive_limit: 64,
                random_samples: 256,
                batch,
                ..Default::default()
            },
        );
        assert_eq!(out, VerifyOutcome::ProbablyCorrect { samples: 256 });
    }
}

#[test]
fn wrong_64_bit_circuit_is_caught_not_vacuously_verified() {
    // The empty circuit against a non-trivial oracle: the old
    // one-iteration loop only checked x = 0 (where both agree) and
    // passed; sampling must find a mismatch.
    let c = Circuit::new(65);
    let (inputs, outputs) = wide_interface();
    for batch in [false, true] {
        let out = verify_computes(
            &c,
            &inputs,
            &outputs,
            |x| (x >> 17) & 1,
            &VerifyOptions {
                exhaustive_limit: 64,
                random_samples: 256,
                batch,
                ..Default::default()
            },
        );
        assert!(matches!(out, VerifyOutcome::Mismatch { .. }), "{out:?}");
    }
}

#[test]
fn permutation_of_64_line_circuit_is_a_typed_error_not_a_wrap() {
    // The old `1u64 << 64` wrapped to 1 in release builds, silently
    // returning a one-entry "permutation" of a 2^64-state circuit. The
    // guard is now a typed error instead of a panic, so flows can route
    // wide circuits to sampled verification.
    let err = Circuit::new(64).permutation().unwrap_err();
    assert_eq!(
        err,
        TooWideError {
            lines: 64,
            limit: PERMUTATION_LINE_LIMIT
        }
    );
    assert!(err.to_string().contains("capped at 24 lines"), "{err}");
}

fn positive(lines: &[usize]) -> Vec<Control> {
    lines.iter().map(|&l| Control::positive(l)).collect()
}

#[test]
fn pinned_sampled_verify_computes_witness() {
    // 20-input parity against an oracle that also flips the result when
    // the low nine input bits are all set: the first such sample of the
    // default 4 096 is in the second 1 024-state batch, and later batches
    // fail too.
    let mut c = Circuit::new(21);
    for i in 0..20 {
        c.cnot(i, 20);
    }
    let inputs: Vec<usize> = (0..20).collect();
    let out = verify_computes(
        &c,
        &inputs,
        &[20],
        |x| u64::from(x.count_ones() % 2 == 1) ^ u64::from(x & 0x1FF == 0x1FF),
        &VerifyOptions::default(),
    );
    assert_eq!(
        out,
        VerifyOutcome::Mismatch {
            input: 694_783,
            expected: 1,
            actual: 0
        }
    );
}

#[test]
fn pinned_sampled_equivalence_witness_across_chunks() {
    // 100 lines: two 64-line chunks drawn per batch. The extra gate's ten
    // controls span both chunks, so it fires on a few samples only.
    let mut a = Circuit::new(100);
    a.cnot(0, 99);
    a.toffoli(64, 3, 70);
    let mut b = a.clone();
    b.add_gate(Gate::mct(
        positive(&[5, 17, 40, 63, 64, 70, 90, 99, 33, 1]),
        2,
    ));
    assert_eq!(
        equivalence_witness(&a, &b),
        Some(OptMismatch {
            input: vec![11_732_100_737_240_569_662, 36_209_312_657],
            original: vec![11_732_100_737_240_569_662, 36_209_312_721],
            optimized: vec![11_732_100_737_240_569_658, 36_209_312_721],
        })
    );
}

#[test]
fn pinned_sampled_assumed_equivalence_witness() {
    // 100 lines with every third line assumed zero leaves 67 free lines:
    // sampled in two free chunks, scattered back over all 100 lines.
    let zeros: Vec<usize> = (0..100).filter(|l| l % 3 == 2).collect();
    let mut a = Circuit::new(100);
    a.cnot(0, 98);
    a.toffoli(96, 3, 2);
    let mut b = a.clone();
    b.add_gate(Gate::toffoli(1, 5, 7)); // guarded by assumed-zero line 5
    b.add_gate(Gate::mct(positive(&[0, 4, 10, 21, 45, 61, 97, 99, 30]), 8));
    assert_eq!(
        equivalence_witness_assuming(&a, &b, &zeros),
        Some(OptMismatch {
            input: vec![11_824_518_738_784_060_953, 47_244_694_336],
            original: vec![11_824_518_738_784_060_957, 64_424_563_520],
            optimized: vec![11_824_518_738_784_061_213, 64_424_563_520],
        })
    );
}

#[test]
fn pinned_exhaustive_witnesses_come_from_the_first_failing_span() {
    // 14 lines = four 4 096-state spans. Both checks fail in spans 1 and
    // 3 and never in 0 or 2, so the span fold picks the witness.
    let mut c = Circuit::new(14);
    c.toffoli(1, 2, 13);
    c.cnot(12, 4);
    c.mct(vec![Control::negative(5), Control::positive(6)], 9);
    let mut perm = c.permutation().expect("14 lines is within the cap");
    perm.swap(5000, 13_000);
    let lines: Vec<usize> = (0..14).collect();
    // Fires exactly when line 12 is set, which no gate of `c` changes.
    let mut b = c.clone();
    b.add_gate(Gate::mct(
        vec![
            Control::positive(12),
            Control::positive(0),
            Control::negative(3),
        ],
        7,
    ));
    for cap in [1, 4] {
        par::with_worker_cap(cap, || {
            assert_eq!(
                verify_computes(
                    &c,
                    &lines,
                    &lines,
                    |x| perm[x as usize],
                    &VerifyOptions::default()
                ),
                VerifyOutcome::Mismatch {
                    input: 5000,
                    expected: 12_504,
                    actual: 5016
                },
                "cap {cap}"
            );
            assert_eq!(
                equivalence_witness(&c, &b),
                Some(OptMismatch {
                    input: vec![4097],
                    original: vec![4113],
                    optimized: vec![4241],
                }),
                "cap {cap}"
            );
        });
    }
}

#[test]
#[should_panic(expected = "double release")]
fn double_release_panics_in_every_profile() {
    let mut alloc = LineAllocator::new(2);
    let line = alloc.alloc();
    alloc.release(line);
    alloc.release(line);
}

#[test]
#[should_panic(expected = "never produced")]
fn releasing_a_foreign_line_panics() {
    // Releasing a reserved (or never-allocated) line would let alloc()
    // hand out a primary-input line as a "clean ancilla" later.
    let mut alloc = LineAllocator::new(2);
    alloc.release(0);
}

#[test]
fn release_then_alloc_reuses_without_aliasing() {
    let mut alloc = LineAllocator::new(1);
    let a = alloc.alloc();
    let b = alloc.alloc();
    alloc.release(a);
    alloc.release(b);
    let c = alloc.alloc();
    let d = alloc.alloc();
    assert_ne!(c, d, "recycled lines must have exactly one owner each");
    assert_eq!(alloc.high_water(), 3);
}

/// Compiled only in release-style builds: `cargo test --release` proves
/// the three fixes hold exactly where the original bugs lived.
#[cfg(not(debug_assertions))]
mod release_mode {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn double_release_check_is_not_a_debug_assert() {
        let result = catch_unwind(|| {
            let mut alloc = LineAllocator::new(1);
            let line = alloc.alloc();
            alloc.release(line);
            alloc.release(line);
        });
        assert!(
            result.is_err(),
            "double release must panic without debug assertions"
        );
    }

    #[test]
    fn shift_guard_holds_without_debug_assertions() {
        // In release builds the old `1u64 << 64` wrapped (debug builds
        // panicked on the overflow instead), which is exactly the
        // profile this test runs under.
        let c = Circuit::new(65);
        let (inputs, outputs) = wide_interface();
        let out = verify_computes(
            &c,
            &inputs,
            &outputs,
            |x| x & 1,
            &VerifyOptions {
                exhaustive_limit: 64,
                ..Default::default()
            },
        );
        assert!(matches!(out, VerifyOutcome::Mismatch { .. }), "{out:?}");
    }

    #[test]
    fn permutation_guard_holds_without_debug_assertions() {
        assert!(Circuit::new(64).permutation().is_err());
    }
}
