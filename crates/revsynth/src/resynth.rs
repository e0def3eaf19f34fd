//! Re-entrant synthesis on window permutations: the back-ends that power
//! the [`qda_rev::resynth`] pass.
//!
//! The pass hands each extracted window to every registered
//! [`WindowSynthesizer`] and keeps the cheapest *simulation-verified*
//! candidate, so the two back-ends here optimize for different shapes of
//! window and neither has to be complete (a window both decline keeps
//! its gates):
//!
//! * [`LinearWindowSynth`] — recognizes affine permutations
//!   `x ↦ Mx ⊕ c` over GF(2) and factors `M` into CNOTs by Gaussian
//!   elimination (plus NOTs for `c`). CNOT and NOT are T-free, so this is
//!   the big win on the XOR-heavy windows hierarchical synthesis leaves
//!   behind.
//! * [`EsopWindowSynth`] — writes each modified line `t` as
//!   `x_t ^= g_t(x)` with `g_t = out_t ⊕ x_t`, covers every `g_t` with a
//!   PSDKRO-minimized ESOP, and emits one MPMCT gate per cube. Lines are
//!   ordered by a dependency toposort so every gate still reads *input*
//!   values; windows whose dependency digraph is cyclic (or where `g_t`
//!   reads `x_t` itself) are out of scope and yield `None`.
//!
//! [`resynthesize_circuit`] / [`resynthesize_circuit_checked`] bundle the
//! two into the standard portfolio the flows in `qda-core` use.

use qda_logic::cube::Cube;
use qda_logic::esop::Esop;
use qda_logic::tt::TruthTable;
use qda_rev::circuit::Circuit;
use qda_rev::gate::{Control, Gate};
use qda_rev::opt::OptMismatch;
use qda_rev::resynth::{
    resynthesize, resynthesize_checked, ResynthOptions, Resynthesized, WindowSynthesizer,
};

/// Number of lines of an explicit window permutation.
fn perm_lines(perm: &[u64]) -> usize {
    debug_assert!(perm.len().is_power_of_two());
    perm.len().trailing_zeros() as usize
}

/// Affine (linear ⊕ constant) window recognizer: `x ↦ Mx ⊕ c` becomes a
/// pure CNOT/NOT cascade — zero T-count.
pub struct LinearWindowSynth;

impl WindowSynthesizer for LinearWindowSynth {
    fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
        let k = perm_lines(perm);
        let c = perm[0];
        // Candidate matrix: column j is perm(e_j) ⊕ c. Rows are stored as
        // bitmasks (`rows[i]` bit `j` = M[i][j]).
        let mut rows = vec![0u64; k];
        for j in 0..k {
            let col = perm[1 << j] ^ c;
            for (i, row) in rows.iter_mut().enumerate() {
                *row |= ((col >> i) & 1) << j;
            }
        }
        // Affinity check over the whole table.
        for (x, &y) in perm.iter().enumerate() {
            let mx: u64 = rows
                .iter()
                .enumerate()
                .map(|(i, &row)| (((row & x as u64).count_ones() as u64) & 1) << i)
                .sum();
            if mx ^ c != y {
                return None;
            }
        }
        // Factor M into row operations: Gauss–Jordan to the identity
        // records E_m … E_1 M = I, so M = E_1 … E_m and the circuit must
        // apply the recorded ops in *reverse* order (the cascade composes
        // left-to-right). Row op `row i ^= row j` is CNOT(control j,
        // target i). M is invertible because perm is a permutation.
        let mut ops: Vec<(usize, usize)> = Vec::new();
        for col in 0..k {
            if (rows[col] >> col) & 1 == 0 {
                let pivot = (col + 1..k).find(|&r| (rows[r] >> col) & 1 == 1)?;
                rows[col] ^= rows[pivot];
                ops.push((col, pivot));
            }
            for r in 0..k {
                if r != col && (rows[r] >> col) & 1 == 1 {
                    rows[r] ^= rows[col];
                    ops.push((r, col));
                }
            }
        }
        let mut out = Circuit::new(k);
        for &(target, control) in ops.iter().rev() {
            out.cnot(control, target);
        }
        for t in 0..k {
            if (c >> t) & 1 == 1 {
                out.not(t);
            }
        }
        Some(out)
    }
}

/// ESOP-of-differences window back-end: one PSDKRO-minimized ESOP cover
/// per modified line, emitted in dependency order.
pub struct EsopWindowSynth;

impl WindowSynthesizer for EsopWindowSynth {
    fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
        let k = perm_lines(perm);
        // g_t(x) = out_t(x) ⊕ x_t; lines with g_t ≡ 0 need no gates.
        let mut diffs: Vec<Option<TruthTable>> = Vec::with_capacity(k);
        for t in 0..k {
            let g = TruthTable::from_fn(k, |x| ((perm[x as usize] ^ x) >> t) & 1 == 1);
            if g.is_zero() {
                diffs.push(None);
            } else if g.depends_on(t) {
                // `x_t ^= g_t` cannot read its own target line.
                return None;
            } else {
                diffs.push(Some(g));
            }
        }
        let modified: Vec<usize> = (0..k).filter(|&t| diffs[t].is_some()).collect();
        // Emission order: if g_t reads line u (also modified), the gate
        // for t must run while u still holds its input value — t before
        // u. Kahn's toposort over those edges; a cycle means no straight
        // XOR schedule exists.
        let mut indegree = vec![0usize; k];
        for &t in &modified {
            let g = diffs[t].as_ref().expect("modified line has a diff");
            for &u in &modified {
                if u != t && g.depends_on(u) {
                    indegree[u] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = modified
            .iter()
            .copied()
            .filter(|&t| indegree[t] == 0)
            .collect();
        let mut order = Vec::with_capacity(modified.len());
        while let Some(t) = ready.pop() {
            order.push(t);
            let g = diffs[t].as_ref().expect("modified line has a diff");
            for &u in &modified {
                if u != t && g.depends_on(u) {
                    indegree[u] -= 1;
                    if indegree[u] == 0 {
                        ready.push(u);
                    }
                }
            }
        }
        if order.len() != modified.len() {
            return None; // cyclic dependencies
        }
        let mut out = Circuit::new(k);
        for &t in &order {
            let g = diffs[t].as_ref().expect("modified line has a diff");
            let mut esop = Esop::from_cubes(k, psdkro_cover(g));
            esop.reduce();
            for cube in esop.cubes() {
                let controls: Vec<Control> = cube
                    .literals()
                    .map(|(var, positive)| {
                        if positive {
                            Control::positive(var)
                        } else {
                            Control::negative(var)
                        }
                    })
                    .collect();
                out.add_gate(Gate::mct(controls, t));
            }
        }
        Some(out)
    }
}

/// Exact pseudo-Kronecker (PSDKRO) ESOP cover: at every support variable
/// try all three expansions — positive Davio `f = f0 ⊕ x·∂f`, negative
/// Davio `f = f1 ⊕ x̄·∂f`, Shannon `f = x̄·f0 ⊕ x·f1` — and keep the
/// smallest cover. 3^k nodes for k support variables; windows cap k at 8,
/// so the whole search stays tiny.
fn psdkro_cover(f: &TruthTable) -> Vec<Cube> {
    if f.is_zero() {
        return Vec::new();
    }
    if f.is_one() {
        return vec![Cube::tautology()];
    }
    let var = *f.support().first().expect("non-constant ⇒ support");
    let f0 = f.cofactor(var, false);
    let f1 = f.cofactor(var, true);
    let df = &f0 ^ &f1;
    let with = |cubes: Vec<Cube>, positive: bool| -> Vec<Cube> {
        cubes
            .into_iter()
            .map(|c| c.with_literal(var, positive))
            .collect()
    };
    let (c0, c1, cd) = (psdkro_cover(&f0), psdkro_cover(&f1), psdkro_cover(&df));
    let pos_davio: Vec<Cube> = c0.iter().copied().chain(with(cd.clone(), true)).collect();
    let neg_davio: Vec<Cube> = c1.iter().copied().chain(with(cd, false)).collect();
    let shannon: Vec<Cube> = with(c0, false).into_iter().chain(with(c1, true)).collect();
    [pos_davio, neg_davio, shannon]
        .into_iter()
        .min_by_key(|c| {
            (
                c.len(),
                c.iter().map(qda_logic::Cube::num_literals).sum::<usize>(),
            )
        })
        .expect("three candidates")
}

/// The standard back-end portfolio, cheapest-first: affine recognizer,
/// then ESOP-of-differences.
pub fn default_window_synthesizers() -> [&'static dyn WindowSynthesizer; 2] {
    [&LinearWindowSynth, &EsopWindowSynth]
}

/// Runs [`qda_rev::resynth::resynthesize`] with the
/// [`default_window_synthesizers`] portfolio.
pub fn resynthesize_circuit(circuit: &Circuit, options: &ResynthOptions) -> Resynthesized {
    resynthesize(circuit, options, &default_window_synthesizers())
}

/// Runs [`qda_rev::resynth::resynthesize_checked`] (whole-circuit
/// equivalence gate included) with the [`default_window_synthesizers`]
/// portfolio.
///
/// # Errors
///
/// Returns the witness when the rewritten circuit diverges from the
/// input.
pub fn resynthesize_circuit_checked(
    circuit: &Circuit,
    options: &ResynthOptions,
) -> Result<Resynthesized, OptMismatch> {
    resynthesize_checked(circuit, options, &default_window_synthesizers())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn permutation_of(c: &Circuit) -> Vec<u64> {
        c.permutation().expect("test windows are narrow")
    }

    fn check_realizes(synth: &dyn WindowSynthesizer, perm: &[u64]) -> Circuit {
        let c = synth
            .synthesize(perm)
            .expect("the back-end should handle this window");
        assert_eq!(c.num_lines(), perm_lines(perm));
        for (x, &y) in perm.iter().enumerate() {
            assert_eq!(c.simulate_u64(x as u64), y, "diverges at {x}");
        }
        c
    }

    #[test]
    fn linear_recognizes_a_cnot_cascade() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1);
        c.cnot(1, 2);
        c.cnot(2, 0);
        c.not(1);
        let out = check_realizes(&LinearWindowSynth, &permutation_of(&c));
        assert_eq!(out.cost().t_count, 0);
    }

    #[test]
    fn linear_rejects_a_toffoli() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        assert!(LinearWindowSynth.synthesize(&permutation_of(&c)).is_none());
    }

    #[test]
    fn esop_compresses_shared_products() {
        // (ab⊕a⊕b) on line 2 = ¬a¬b ⊕ 1: 3 naive gates, 2 after PSDKRO.
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.cnot(0, 2);
        c.cnot(1, 2);
        let out = check_realizes(&EsopWindowSynth, &permutation_of(&c));
        assert_eq!(out.num_gates(), 2);
    }

    #[test]
    fn esop_orders_dependent_targets() {
        // b ^= a, then c ^= a·b(old): the diff for line 2 reads line 1's
        // *input*, so the toposort must emit line 2's gates first.
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        c.cnot(0, 1);
        check_realizes(&EsopWindowSynth, &permutation_of(&c));
    }

    #[test]
    fn esop_declines_swaps() {
        // A swap's diffs each read their own target line: out of scope.
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert!(EsopWindowSynth.synthesize(&permutation_of(&c)).is_none());
    }

    #[test]
    fn the_portfolio_reduces_a_naive_xor_cascade() {
        // Toffoli-encoded linear function: the affine route collapses it
        // to T-free CNOTs and the pass accepts the strict improvement.
        let mut c = Circuit::new(4);
        c.cnot(0, 3);
        c.cnot(1, 3);
        c.cnot(0, 3);
        c.toffoli(0, 1, 2);
        c.toffoli(0, 1, 2);
        let out = resynthesize_circuit_checked(&c, &ResynthOptions::default()).unwrap();
        assert!(out.stats.windows_accepted >= 1);
        assert_eq!(out.circuit.cost().t_count, 0);
        assert!(out.circuit.num_gates() < c.num_gates());
        assert_eq!(out.stats.candidates_unsound, 0);
    }
}
