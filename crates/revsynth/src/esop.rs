//! ESOP-based reversible synthesis (the REVS flow of the paper, §IV-B).
//!
//! Every product term of a multi-output ESOP becomes one mixed-polarity
//! multiple-controlled Toffoli gate. The circuit uses `n + m` lines
//! (inputs preserved, outputs accumulated by XOR) — exactly `2n` for the
//! reciprocal, matching Table III's `p = 0` column.
//!
//! *Cube sharing*: a cube feeding several outputs costs a single Toffoli
//! plus a CNOT sandwich (`CNOT(o₁→oⱼ)…, MCT(→o₁), CNOT(o₁→oⱼ)…`) — no
//! ancilla, which is what keeps `p = 0` at `2n` lines.
//!
//! *Factoring* (`p > 0`): `p` greedy extraction passes; each pass finds
//! common literal sub-cubes (≥ 2 literals) shared by several cubes,
//! computes each once onto a fresh ancilla line, and rewrites the cubes to
//! use the ancilla as a single control. Ancillae are computed up front and
//! uncomputed at the end, so they end clean. This reproduces the Table III
//! `p = 1` behaviour: more qubits, fewer T gates.

use qda_logic::cube::Cube;
use qda_logic::esop::MultiEsop;
use qda_rev::circuit::Circuit;
use qda_rev::gate::{Control, Gate};

/// Options for [`synthesize_esop`]. A factoring pass extracts any
/// sub-cube of at least two literals that two or more cubes share, when
/// the controls it saves outweigh its compute/uncompute gates.
#[derive(Clone, Copy, Debug, Default)]
pub struct EsopSynthOptions {
    /// Number of factoring passes (the paper's `p`). `0` disables
    /// factoring and guarantees exactly `n + m` lines.
    pub factoring_passes: usize,
}

/// Result of ESOP-based synthesis.
#[derive(Clone, Debug)]
pub struct EsopSynthesis {
    /// The synthesized circuit.
    pub circuit: Circuit,
    /// Input lines (`0..n`).
    pub input_lines: Vec<usize>,
    /// Output lines (`n..n+m`).
    pub output_lines: Vec<usize>,
    /// Number of factor ancilla lines added by factoring.
    pub num_factors: usize,
}

/// Synthesizes a reversible circuit from a multi-output ESOP.
///
/// Inputs arrive on lines `0..n` (preserved); outputs accumulate on lines
/// `n..n+m` (which must start at zero); factor ancillae above end clean.
///
/// # Example
///
/// ```
/// use qda_logic::cube::Cube;
/// use qda_logic::esop::MultiEsop;
/// use qda_revsynth::esop::{synthesize_esop, EsopSynthOptions};
///
/// // One output: x0 & x1.
/// let esop = MultiEsop::from_cubes(2, 1, vec![(Cube::minterm(2, 3), 1)]);
/// let s = synthesize_esop(&esop, &EsopSynthOptions::default());
/// assert_eq!(s.circuit.num_lines(), 3);
/// assert_eq!(s.circuit.simulate_u64(0b11) >> 2, 1);
/// ```
pub fn synthesize_esop(esop: &MultiEsop, options: &EsopSynthOptions) -> EsopSynthesis {
    let n = esop.num_vars();
    let m = esop.num_outputs();
    // Extended cube list: literals may reference factor variables at
    // indices >= n (mapped onto lines n + m + k).
    let mut cubes: Vec<(Cube, u64)> = esop.cubes().to_vec();
    // factors[k] = the sub-cube computed onto factor line k.
    let mut factors: Vec<Cube> = Vec::new();
    for _ in 0..options.factoring_passes {
        if !factoring_pass(&mut cubes, &mut factors, n) {
            break;
        }
    }
    let num_factors = factors.len();
    let total_lines = n + m + num_factors;
    assert!(
        n + num_factors <= 64,
        "cube variable space exceeds 64 (inputs + factors)"
    );
    let mut circuit = Circuit::new(total_lines);
    // Map extended cube variable -> circuit line.
    let var_line = |v: usize| if v < n { v } else { n + m + (v - n) };
    let cube_controls = |c: &Cube| -> Vec<Control> {
        c.literals()
            .map(|(v, pos)| {
                if pos {
                    Control::positive(var_line(v))
                } else {
                    Control::negative(var_line(v))
                }
            })
            .collect()
    };
    // Compute factors (in order: later factors may use earlier ones).
    for (k, f) in factors.iter().enumerate() {
        circuit.add_gate(Gate::mct(cube_controls(f), n + m + k));
    }
    // Emit one MCT per cube, with the CNOT sandwich for shared cubes.
    for &(cube, mask) in &cubes {
        let outputs: Vec<usize> = (0..m).filter(|j| (mask >> j) & 1 == 1).collect();
        if outputs.is_empty() {
            continue;
        }
        let first = n + outputs[0];
        let controls = cube_controls(&cube);
        if controls.is_empty() {
            // Tautology cube: plain NOTs on every target.
            for &j in &outputs {
                circuit.not(n + j);
            }
            continue;
        }
        for &j in &outputs[1..] {
            circuit.cnot(first, n + j);
        }
        circuit.add_gate(Gate::mct(controls, first));
        for &j in &outputs[1..] {
            circuit.cnot(first, n + j);
        }
    }
    // Uncompute factors in reverse.
    for (k, f) in factors.iter().enumerate().rev() {
        circuit.add_gate(Gate::mct(cube_controls(f), n + m + k));
    }
    EsopSynthesis {
        circuit,
        input_lines: (0..n).collect(),
        output_lines: (n..n + m).collect(),
        num_factors,
    }
}

/// One greedy factoring pass: extracts disjoint best-scoring sub-cubes.
/// Returns whether anything was extracted.
fn factoring_pass(cubes: &mut [(Cube, u64)], factors: &mut Vec<Cube>, n: usize) -> bool {
    let mut changed = false;
    loop {
        // Candidate sub-cubes: pairwise common cubes with >= 2 literals.
        let mut best: Option<(usize, Cube)> = None;
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                let common = cubes[i].0.common(&cubes[j].0);
                if common.num_literals() < 2 {
                    continue;
                }
                // How many cubes contain this sub-cube (`i` and `j` among them).
                let sharers = cubes.iter().filter(|(c, _)| common.covers(c)).count();
                // Saved controls ≈ (sharers − 1) × (literals − 1): each
                // sharer replaces `literals` controls by one; the factor
                // gate itself costs `literals` controls twice.
                let lits = common.num_literals();
                let saved = sharers * (lits - 1);
                let cost = 2 * lits;
                if saved <= cost {
                    continue;
                }
                let score = saved - cost;
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, common));
                }
            }
        }
        let Some((_, sub)) = best else {
            return changed;
        };
        // New factor variable index (extended space).
        if n + factors.len() >= 64 {
            return changed;
        }
        let fvar = n + factors.len();
        factors.push(sub);
        // The sharers counted above: stripping one cube leaves whether
        // `sub` covers another unchanged.
        for (cube, _) in cubes.iter_mut() {
            if sub.covers(cube) {
                *cube = cube.strip(&sub).with_literal(fvar, true);
            }
        }
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qda_logic::esop::Esop;
    use qda_logic::tt::{MultiTruthTable, TruthTable};
    use qda_rev::equiv::{verify_computes, VerifyOptions, VerifyOutcome};

    fn verify(esop: &MultiEsop, options: &EsopSynthOptions) -> EsopSynthesis {
        let s = synthesize_esop(esop, options);
        let reference = esop.clone();
        let outcome = verify_computes(
            &s.circuit,
            &s.input_lines,
            &s.output_lines,
            |x| reference.eval(x),
            &VerifyOptions {
                check_ancilla_clean: true,
                check_inputs_preserved: true,
                ..Default::default()
            },
        );
        assert_eq!(
            outcome,
            VerifyOutcome::Verified,
            "p={}",
            options.factoring_passes
        );
        s
    }

    fn esop_of(tts: &[TruthTable]) -> MultiEsop {
        MultiEsop::from_single_outputs(&tts.iter().map(Esop::from_truth_table).collect::<Vec<_>>())
    }

    #[test]
    fn single_cube_per_output() {
        let esop = MultiEsop::from_cubes(
            3,
            2,
            vec![
                (Cube::minterm(3, 5), 0b01),
                (Cube::tautology().with_literal(1, false), 0b10),
            ],
        );
        let s = verify(&esop, &EsopSynthOptions::default());
        assert_eq!(s.circuit.num_lines(), 5);
        assert_eq!(s.num_factors, 0);
    }

    #[test]
    fn shared_cube_uses_single_toffoli() {
        // One cube feeding both outputs.
        let esop = MultiEsop::from_cubes(3, 2, vec![(Cube::minterm(3, 7), 0b11)]);
        let s = verify(&esop, &EsopSynthOptions::default());
        let cost = s.circuit.cost();
        // 1 MCT + 2 CNOTs, never 2 MCTs.
        assert_eq!(cost.mct_count, 1);
        assert_eq!(cost.cnot_count, 2);
    }

    #[test]
    fn tautology_cube_becomes_nots() {
        let esop = MultiEsop::from_cubes(2, 2, vec![(Cube::tautology(), 0b11)]);
        let s = verify(&esop, &EsopSynthOptions::default());
        assert_eq!(s.circuit.cost().not_count, 2);
    }

    #[test]
    fn random_functions_all_p() {
        for seed in 0..6u64 {
            let t0 = TruthTable::from_fn(4, |x| {
                (x.wrapping_mul(0xABCD).wrapping_add(seed) >> 3) & 1 == 1
            });
            let t1 = TruthTable::from_fn(4, |x| (x + seed) % 3 == 0);
            let esop = esop_of(&[t0, t1]);
            for p in 0..3 {
                verify(
                    &esop,
                    &EsopSynthOptions {
                        factoring_passes: p,
                    },
                );
            }
        }
    }

    #[test]
    fn factoring_reduces_t_count_on_shareable_cubes() {
        // Many cubes sharing the sub-cube x0 x1 x2.
        let base = Cube::tautology()
            .with_literal(0, true)
            .with_literal(1, true)
            .with_literal(2, true);
        let cubes: Vec<(Cube, u64)> = (0..4)
            .map(|k| {
                let c = base
                    .with_literal(3 + k, k % 2 == 0)
                    .with_literal((3 + k + 1).min(7), true);
                (c, 1u64)
            })
            .collect();
        let esop = MultiEsop::from_cubes(8, 1, cubes);
        let p0 = synthesize_esop(&esop, &EsopSynthOptions::default());
        let p1 = synthesize_esop(
            &esop,
            &EsopSynthOptions {
                factoring_passes: 1,
            },
        );
        assert!(p1.num_factors >= 1);
        assert!(p1.circuit.num_lines() > p0.circuit.num_lines());
        assert!(
            p1.circuit.cost().t_count < p0.circuit.cost().t_count,
            "p1 {} vs p0 {}",
            p1.circuit.cost().t_count,
            p0.circuit.cost().t_count
        );
        // Both remain correct.
        verify(&esop, &EsopSynthOptions::default());
        verify(
            &esop,
            &EsopSynthOptions {
                factoring_passes: 1,
            },
        );
    }

    #[test]
    fn matches_truth_table_semantics() {
        let f = MultiTruthTable::from_fn(4, 4, |x| (x * 3 + 1) & 15);
        let esops: Vec<Esop> = f.outputs().iter().map(Esop::from_truth_table).collect();
        let esop = MultiEsop::from_single_outputs(&esops);
        let s = verify(&esop, &EsopSynthOptions::default());
        // p = 0 ⇒ exactly n + m lines (the 2n of Table III).
        assert_eq!(s.circuit.num_lines(), 8);
    }
}
