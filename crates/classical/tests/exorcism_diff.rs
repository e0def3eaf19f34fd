//! Differential tests pinning the indexed exorcism engine against the
//! naive restart engine, plus regressions for the cube index itself
//! (wildcard-key collisions, output-mask separation, empty-cube
//! cancellation).

use proptest::prelude::*;
use qda_classical::exorcism::{minimize_esop, ExorcismEngine, ExorcismOptions};
use qda_logic::cube::Cube;
use qda_logic::esop::{Esop, MultiEsop};
use qda_logic::tt::TruthTable;

fn indexed() -> ExorcismOptions {
    ExorcismOptions::default()
}

fn naive() -> ExorcismOptions {
    ExorcismOptions {
        engine: ExorcismEngine::Naive,
        ..ExorcismOptions::default()
    }
}

fn literal_count(esop: &MultiEsop) -> usize {
    esop.cubes().iter().map(|(c, _)| c.num_literals()).sum()
}

/// Runs both engines on copies of `esop` and checks the differential
/// contract: identical truth tables (both equal to the input's), and the
/// indexed engine never worse in cubes or literals.
fn check_differential(esop: &MultiEsop, context: &str) {
    let reference = esop.to_truth_table();
    let mut by_indexed = esop.clone();
    minimize_esop(&mut by_indexed, &indexed());
    let mut by_naive = esop.clone();
    minimize_esop(&mut by_naive, &naive());
    assert_eq!(
        by_indexed.to_truth_table(),
        reference,
        "{context}: indexed engine changed the function"
    );
    assert_eq!(
        by_naive.to_truth_table(),
        reference,
        "{context}: naive engine changed the function"
    );
    assert!(
        by_indexed.len() <= by_naive.len(),
        "{context}: indexed kept {} cubes, naive {}",
        by_indexed.len(),
        by_naive.len()
    );
    // Literal count may only exceed the oracle's when it bought a strictly
    // smaller cube count (each cube is one Toffoli gate downstream, so
    // cubes dominate the quality order).
    assert!(
        by_indexed.len() < by_naive.len() || literal_count(&by_indexed) <= literal_count(&by_naive),
        "{context}: same cube count but indexed kept {} literals, naive {}",
        literal_count(&by_indexed),
        literal_count(&by_naive)
    );
}

/// A random multi-output ESOP: cubes restricted to `num_vars` variables,
/// masks restricted to `num_outputs` outputs.
fn arb_multi_esop(
    num_vars: usize,
    num_outputs: usize,
    max_cubes: usize,
) -> impl Strategy<Value = MultiEsop> {
    let var_mask = (1u64 << num_vars) - 1;
    let out_mask = if num_outputs == 64 {
        u64::MAX
    } else {
        (1u64 << num_outputs) - 1
    };
    prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..max_cubes).prop_map(
        move |raw| {
            let cubes = raw
                .into_iter()
                .map(|(care, pol, mask)| {
                    (
                        Cube::from_masks(care & var_mask, pol),
                        (mask & out_mask).max(1),
                    )
                })
                .collect();
            MultiEsop::from_cubes(num_vars, num_outputs, cubes)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn differential_random_multi_output(esop in arb_multi_esop(5, 3, 24)) {
        check_differential(&esop, "random 5-var 3-output");
    }

    #[test]
    fn differential_wide_cubes(esop in arb_multi_esop(8, 2, 16)) {
        check_differential(&esop, "random 8-var 2-output");
    }

    #[test]
    fn differential_minterm_seeded(words in prop::collection::vec(any::<u64>(), 2)) {
        // Dense minterm lists: the regime the index was built for.
        let t0 = TruthTable::from_words(6, vec![words[0]]);
        let t1 = TruthTable::from_words(6, vec![words[1]]);
        let esop = MultiEsop::from_single_outputs(&[
            Esop::from_truth_table(&t0),
            Esop::from_truth_table(&t1),
        ]);
        check_differential(&esop, &format!("minterm-seeded 6-var 2-output {:#x} {:#x}", words[0], words[1]));
    }
}

// ---------------------------------------------------------------------------
// Index regressions
// ---------------------------------------------------------------------------

/// Wildcard keys must separate "variable absent" from "variable present
/// with either phase" — three cubes pairwise at distance 1 through the
/// same wildcard position collapse to nothing (x ⊕ x̄ ⊕ ⊤ = 0), not to a
/// wrong single cube.
#[test]
fn wildcard_key_collisions_on_one_position() {
    let x = Cube::tautology().with_literal(0, true);
    let nx = Cube::tautology().with_literal(0, false);
    let top = Cube::tautology();
    let mut esop = MultiEsop::from_cubes(3, 1, vec![(x, 1), (nx, 1), (top, 1)]);
    let reference = esop.to_truth_table();
    minimize_esop(&mut esop, &indexed());
    assert_eq!(esop.to_truth_table(), reference);
    assert!(esop.is_empty(), "x ⊕ x̄ ⊕ ⊤ must cancel, got {esop:?}");
}

/// Cubes agreeing after wildcarding *different* variables must not be
/// treated as distance-1 partners: x0x1 and x̄0x̄1 are at distance 2.
#[test]
fn wildcard_keys_do_not_alias_across_positions() {
    let a = Cube::tautology()
        .with_literal(0, true)
        .with_literal(1, true);
    let b = Cube::tautology()
        .with_literal(0, false)
        .with_literal(1, false);
    let mut esop = MultiEsop::from_cubes(2, 1, vec![(a, 1), (b, 1)]);
    let reference = esop.to_truth_table();
    minimize_esop(&mut esop, &indexed());
    assert_eq!(esop.to_truth_table(), reference);
    assert_eq!(esop.len(), 2, "distance-2 pair must not merge directly");
}

/// Distance-1 cubes on different outputs share a wildcard position but
/// not a mask; the mask is part of the key, so they must not merge.
#[test]
fn output_mask_separation() {
    let a = Cube::minterm(3, 0b000);
    let b = Cube::minterm(3, 0b001);
    let mut esop = MultiEsop::from_cubes(3, 2, vec![(a, 0b01), (b, 0b10)]);
    let reference = esop.to_truth_table();
    minimize_esop(&mut esop, &indexed());
    assert_eq!(esop.to_truth_table(), reference);
    assert_eq!(esop.len(), 2);
    // Same cubes on the same output do merge.
    let mut esop = MultiEsop::from_cubes(3, 2, vec![(a, 0b01), (b, 0b01)]);
    minimize_esop(&mut esop, &indexed());
    assert_eq!(esop.len(), 1);
}

/// Identical cubes cancel through the exact index: masks XOR, and a cube
/// whose mask cancels to zero leaves the store entirely (no empty-mask
/// residue in the result).
#[test]
fn empty_cube_cancellation() {
    let c = Cube::minterm(4, 9);
    // Four copies on one output: pairwise cancellation to zero.
    let mut esop = MultiEsop::from_cubes(4, 1, vec![(c, 1); 4]);
    minimize_esop(&mut esop, &indexed());
    assert!(esop.is_empty());
    // Three copies: one survives.
    let mut esop = MultiEsop::from_cubes(4, 1, vec![(c, 1); 3]);
    minimize_esop(&mut esop, &indexed());
    assert_eq!(esop.len(), 1);
    assert_eq!(esop.cubes()[0], (c, 1));
    // Tautology cubes (no literals) cancel the same way.
    let top = Cube::tautology();
    let mut esop = MultiEsop::from_cubes(4, 2, vec![(top, 0b11), (top, 0b11)]);
    minimize_esop(&mut esop, &indexed());
    assert!(esop.is_empty());
}

/// A merge cascade: merging two cubes produces a cube identical to a
/// third (distance-0 through the exact map), which cancels, and the
/// survivor chain must stay consistent.
#[test]
fn merge_cascades_through_distance_zero() {
    let ab = Cube::tautology()
        .with_literal(0, true)
        .with_literal(1, true);
    let anb = Cube::tautology()
        .with_literal(0, true)
        .with_literal(1, false);
    let a = Cube::tautology().with_literal(0, true);
    // ab ⊕ ab̄ = a, which cancels the explicit a cube.
    let mut esop = MultiEsop::from_cubes(2, 1, vec![(ab, 1), (anb, 1), (a, 1)]);
    minimize_esop(&mut esop, &indexed());
    assert!(esop.is_empty(), "cascade must cancel, got {esop:?}");
}
