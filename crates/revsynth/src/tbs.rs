//! Transformation-based synthesis (Miller–Maslov–Dueck style), the
//! functional synthesis back-end of the paper's first design flow.
//!
//! The input reversible function (an explicit permutation) is transformed
//! into the identity by prepending/appending mixed-polarity
//! multiple-controlled Toffoli gates; the collected gates, reversed,
//! realize the function. Line-count is exactly the number of function
//! variables — functional synthesis never adds lines, which is why it
//! pairs with the optimum embedding.
//!
//! Following the behaviour the paper reports for its symbolic variant
//! ("a property of the transformation-based algorithm is that large
//! Toffoli gates with controls on all circuit lines are generated, which
//! leads to large T-count"), every emitted gate controls on *all* other
//! lines with the polarities of the value being moved. Such a gate is a
//! pure transposition of two adjacent-in-Hamming-space values: it can
//! never disturb already-fixed rows, so no control-subset invariant is
//! needed and the per-gate bookkeeping is O(1). The price is exactly the
//! one the paper highlights: `r − 1` controls per gate.
//!
//! The search records each transposition as a `(value, line)` pair, and
//! the circuit is written as packed mask words straight into its arena
//! ([`Circuit::add_masks`]): the control mask is every line but the
//! target, the polarity mask the moved value on those lines. No control
//! list is built per gate.
//!
//! The paper's SAT-based symbolic variant \[7\] reaches `n = 16` (31 lines,
//! 3.2-day runtime); this explicit implementation covers the same
//! algorithmic behaviour up to 25 lines, which is all the benchmark
//! harness exercises.

use qda_rev::circuit::Circuit;

/// Which sides of the cascade the algorithm may extend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TbsDirection {
    /// Classic output-side-only algorithm.
    Unidirectional,
    /// Choose the cheaper of output-side and input-side at every step.
    Bidirectional,
}

/// Synthesizes a reversible circuit realizing `perm` over
/// `log₂ perm.len()` lines.
///
/// # Panics
///
/// Panics if `perm.len()` is not a power of two, exceeds 2²⁵, or is not a
/// permutation.
///
/// # Example
///
/// ```
/// use qda_revsynth::tbs::{transformation_based_synthesis, TbsDirection};
///
/// // A 2-line swap as a permutation.
/// let perm = vec![0b00, 0b10, 0b01, 0b11];
/// let circuit = transformation_based_synthesis(&perm, TbsDirection::Bidirectional);
/// for (x, &y) in perm.iter().enumerate() {
///     assert_eq!(circuit.simulate_u64(x as u64), y);
/// }
/// ```
pub fn transformation_based_synthesis(perm: &[u64], direction: TbsDirection) -> Circuit {
    let size = perm.len();
    assert!(size.is_power_of_two(), "permutation size must be 2^r");
    assert!(size <= 1 << 25, "explicit TBS limited to 25 lines");
    let r = size.trailing_zeros() as usize;
    {
        let mut seen = vec![false; size];
        for &y in perm {
            assert!(
                (y as usize) < size && !seen[y as usize],
                "not a permutation"
            );
            seen[y as usize] = true;
        }
    }
    let mut fwd: Vec<u64> = perm.to_vec();
    let mut inv: Vec<u64> = vec![0; size];
    for (x, &y) in fwd.iter().enumerate() {
        inv[y as usize] = x as u64;
    }
    // Transpositions `(v, j)` applied at the output side (collected in
    // generation order, emitted reversed) and at the input side (emitted
    // in order).
    let mut out_moves: Vec<(u64, usize)> = Vec::new();
    let mut in_moves: Vec<(u64, usize)> = Vec::new();
    for x in 0..size as u64 {
        let y = fwd[x as usize];
        if y == x {
            continue;
        }
        match direction {
            TbsDirection::Unidirectional => {
                emit_output_side(y, x, &mut fwd, &mut inv, &mut out_moves);
            }
            TbsDirection::Bidirectional => {
                let xp = inv[x as usize]; // the input currently mapping to x
                                          // Cost proxy: gate count = Hamming distance of the move.
                if (xp ^ x).count_ones() < (y ^ x).count_ones() {
                    emit_input_side(xp, x, &mut fwd, &mut inv, &mut in_moves);
                } else {
                    emit_output_side(y, x, &mut fwd, &mut inv, &mut out_moves);
                }
            }
        }
        debug_assert_eq!(fwd[x as usize], x);
    }
    // Circuit = in_moves (in order) ++ reverse(out_moves). The gate
    // exchanging `v` and `v ^ (1 << j)` controls on every line but `j`,
    // with the polarities of `v`: two mask words, written straight into
    // the arena.
    let all = (size - 1) as u64;
    let mut circuit = Circuit::new(r);
    for &(v, j) in in_moves.iter().chain(out_moves.iter().rev()) {
        let ctrl = all & !(1 << j);
        circuit.add_masks(&[ctrl], &[v & ctrl], j);
    }
    circuit
}

/// Moves value `from` to value `to` with output-side transpositions
/// (`f ← g ∘ f`), one gate per differing bit. Bits are set before they are
/// cleared (each group ascending) so intermediate values never collide
/// with already-fixed rows below `to`.
fn emit_output_side(
    from: u64,
    to: u64,
    fwd: &mut [u64],
    inv: &mut [u64],
    moves: &mut Vec<(u64, usize)>,
) {
    let mut cur = from;
    let diff = from ^ to;
    for mut bits in [diff & to, diff & !to] {
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            moves.push((cur, j));
            // Swap the two values cur and cur^bit.
            let other = cur ^ (1 << j);
            let x0 = inv[cur as usize];
            let x1 = inv[other as usize];
            fwd[x0 as usize] = other;
            fwd[x1 as usize] = cur;
            inv[cur as usize] = x1;
            inv[other as usize] = x0;
            cur = other;
        }
    }
    debug_assert_eq!(cur, to);
}

/// Moves domain point `from` to domain point `to` with input-side
/// transpositions (`f ← f ∘ g`), in the bit order of
/// [`emit_output_side`].
fn emit_input_side(
    from: u64,
    to: u64,
    fwd: &mut [u64],
    inv: &mut [u64],
    moves: &mut Vec<(u64, usize)>,
) {
    let mut cur = from;
    let diff = from ^ to;
    for mut bits in [diff & to, diff & !to] {
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // The circuit applies input gates before the remaining
            // function, and the function seen by the algorithm becomes
            // f ∘ g (the gate swaps the two domain points cur and cur^bit).
            moves.push((cur, j));
            let other = cur ^ (1 << j);
            let y0 = fwd[cur as usize];
            let y1 = fwd[other as usize];
            fwd[cur as usize] = y1;
            fwd[other as usize] = y0;
            inv[y0 as usize] = other;
            inv[y1 as usize] = cur;
            cur = other;
        }
    }
    debug_assert_eq!(cur, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_rev::cost::CircuitCost;

    fn check(perm: &[u64], dir: TbsDirection) -> Circuit {
        let c = transformation_based_synthesis(perm, dir);
        for (x, &y) in perm.iter().enumerate() {
            assert_eq!(c.simulate_u64(x as u64), y, "x={x} dir={dir:?}");
        }
        c
    }

    #[test]
    fn identity_needs_no_gates() {
        let perm: Vec<u64> = (0..16).collect();
        let c = check(&perm, TbsDirection::Bidirectional);
        assert_eq!(c.num_gates(), 0);
    }

    #[test]
    fn synthesizes_all_3_line_rotations() {
        for shift in 1..8u64 {
            let perm: Vec<u64> = (0..8).map(|x| (x + shift) & 7).collect();
            check(&perm, TbsDirection::Unidirectional);
            check(&perm, TbsDirection::Bidirectional);
        }
    }

    #[test]
    fn synthesizes_random_permutations() {
        // Deterministic Fisher–Yates.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for r in [3usize, 4, 5, 6] {
            let size = 1usize << r;
            let mut perm: Vec<u64> = (0..size as u64).collect();
            for i in (1..size).rev() {
                let j = (next() as usize) % (i + 1);
                perm.swap(i, j);
            }
            check(&perm, TbsDirection::Unidirectional);
            check(&perm, TbsDirection::Bidirectional);
        }
    }

    #[test]
    fn gates_control_all_other_lines() {
        // The paper-reported property: TBS gates carry controls on all
        // circuit lines but the target.
        let mut perm: Vec<u64> = (0..32).collect();
        perm.swap(3, 27);
        perm.swap(9, 14);
        let c = check(&perm, TbsDirection::Unidirectional);
        for g in c.gates() {
            assert_eq!(g.num_controls(), 4);
        }
    }

    #[test]
    fn bidirectional_not_worse_on_average() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut uni_total = 0u64;
        let mut bi_total = 0u64;
        for _ in 0..8 {
            let size = 32;
            let mut perm: Vec<u64> = (0..size as u64).collect();
            for i in (1..size).rev() {
                let j = (next() as usize) % (i + 1);
                perm.swap(i, j);
            }
            let cu = check(&perm, TbsDirection::Unidirectional);
            let cb = check(&perm, TbsDirection::Bidirectional);
            uni_total += CircuitCost::of(&cu).t_count;
            bi_total += CircuitCost::of(&cb).t_count;
        }
        assert!(bi_total <= uni_total, "bi {bi_total} vs uni {uni_total}");
    }

    #[test]
    fn single_transposition_costs_hamming_distance() {
        // Swapping 14 (0b01110) and 15 differs in one bit: one gate.
        let mut perm: Vec<u64> = (0..16).collect();
        perm.swap(14, 15);
        let c = check(&perm, TbsDirection::Bidirectional);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn near_identity_permutations_stay_cheap() {
        // The transposition property: fixing k displaced rows costs
        // O(k · r) gates, not a cascade over the whole space.
        let mut perm: Vec<u64> = (0..256).collect();
        perm.swap(10, 200);
        perm.swap(33, 77);
        perm.swap(128, 255);
        let c = check(&perm, TbsDirection::Bidirectional);
        assert!(c.num_gates() <= 64, "got {}", c.num_gates());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutation() {
        let _ = transformation_based_synthesis(&[0, 0, 1, 2], TbsDirection::Unidirectional);
    }
}
