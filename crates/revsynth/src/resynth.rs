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
//!   reads `x_t` itself) are out of scope and yield `None`. A window has
//!   at most [`MAX_WINDOW_LINES`] = 8 lines, so every window function is
//!   one 256-bit table and the PSDKRO search a memoized DP over word
//!   operations.
//!
//! [`resynthesize_circuit`] / [`resynthesize_circuit_checked`] bundle the
//! two into the standard portfolio the flows in `qda-core` use.

use qda_logic::cube::Cube;
use qda_logic::esop::Esop;
use qda_logic::hash::FxHashMap;
use qda_logic::tt::var_word;
use qda_rev::circuit::Circuit;
use qda_rev::gate::{Control, Gate};
use qda_rev::opt::OptMismatch;
use qda_rev::resynth::{
    resynthesize, resynthesize_checked, ResynthOptions, Resynthesized, WindowSynthesizer,
    MAX_WINDOW_LINES,
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
/// per modified line, emitted in dependency order. Takes windows of at
/// most [`MAX_WINDOW_LINES`] lines, as the pass extracts them.
pub struct EsopWindowSynth;

impl WindowSynthesizer for EsopWindowSynth {
    fn synthesize(&self, perm: &[u64]) -> Option<Circuit> {
        let k = perm_lines(perm);
        // g_t(x) = out_t(x) ⊕ x_t; lines with g_t ≡ 0 need no gates.
        let diffs = WindowFn::differences(perm);
        let modified: Vec<usize> = (0..k).filter(|&t| !diffs[t].is_zero()).collect();
        if modified.iter().any(|&t| diffs[t].depends_on(t)) {
            // `x_t ^= g_t` cannot read its own target line.
            return None;
        }
        // Emission order: if g_t reads line u (also modified), the gate
        // for t must run while u still holds its input value — t before
        // u. Kahn's toposort over those edges; a cycle means no straight
        // XOR schedule exists.
        let mut indegree = vec![0usize; k];
        for &t in &modified {
            for &u in &modified {
                if u != t && diffs[t].depends_on(u) {
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
            for &u in &modified {
                if u != t && diffs[t].depends_on(u) {
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
        let mut psdkro = Psdkro::default();
        let mut out = Circuit::new(k);
        for &t in &order {
            let mut esop = Esop::from_cubes(k, psdkro.cover(diffs[t]));
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

/// Words of a [`WindowFn`] table.
const WINDOW_WORDS: usize = (1 << MAX_WINDOW_LINES) / 64;

/// A Boolean function of a window's local lines as one fixed
/// `2^MAX_WINDOW_LINES`-bit table: bit `x` is the value on assignment
/// `x`. A function of `k` lines is replicated over lines `k..`, which
/// makes them don't-cares, so every window function has the same width
/// and its support is the function's own.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct WindowFn([u64; WINDOW_WORDS]);

impl WindowFn {
    /// Replicates a table over `k` lines (its low `2^k` bits, zero above)
    /// over the remaining lines.
    fn replicated(k: usize, mut words: [u64; WINDOW_WORDS]) -> Self {
        for var in k..MAX_WINDOW_LINES {
            if var < 6 {
                words[0] |= words[0] << (1 << var);
            } else {
                let run = 1 << (var - 6);
                words.copy_within(..run, run);
            }
        }
        Self(words)
    }

    /// The difference function `g_t(x) = perm(x)_t ⊕ x_t` of every line
    /// `t` of the window (zero beyond its `log₂ perm.len()` lines).
    fn differences(perm: &[u64]) -> [Self; MAX_WINDOW_LINES] {
        let k = perm_lines(perm);
        assert!(k <= MAX_WINDOW_LINES, "a {k}-line window is too wide");
        let mut tables = [[0u64; WINDOW_WORDS]; MAX_WINDOW_LINES];
        for (x, &y) in perm.iter().enumerate() {
            let mut diff = y ^ x as u64;
            while diff != 0 {
                tables[diff.trailing_zeros() as usize][x / 64] |= 1 << (x % 64);
                diff &= diff - 1;
            }
        }
        tables.map(|words| Self::replicated(k, words))
    }

    fn is_zero(self) -> bool {
        self.0 == [0; WINDOW_WORDS]
    }

    fn is_one(self) -> bool {
        self.0 == [u64::MAX; WINDOW_WORDS]
    }

    /// The Shannon cofactors `(f|x=0, f|x=1)` at `var`, each still a
    /// function of every line. Below line 6 bits move within a word
    /// under the projection mask; from 6 on whole words are copied.
    fn cofactors(self, var: usize) -> (Self, Self) {
        let (mut lo, mut hi) = (self, self);
        if var < 6 {
            let (shift, mask) = (1 << var, var_word(var, 0));
            for ((l, h), &w) in lo.0.iter_mut().zip(&mut hi.0).zip(&self.0) {
                let (zero, one) = (w & !mask, w & mask);
                *l = zero | zero << shift;
                *h = one | one >> shift;
            }
        } else {
            let run = 1 << (var - 6);
            for w in 0..WINDOW_WORDS {
                lo.0[w] = self.0[w & !run];
                hi.0[w] = self.0[w | run];
            }
        }
        (lo, hi)
    }

    fn depends_on(self, var: usize) -> bool {
        let (lo, hi) = self.cofactors(var);
        lo != hi
    }

    /// The expansion of a non-constant function at its first support
    /// variable: `(var, f0, f1, ∂f = f0 ⊕ f1)`.
    fn expand(self) -> (usize, Self, Self, Self) {
        let var = (0..MAX_WINDOW_LINES)
            .find(|&v| self.depends_on(v))
            .expect("non-constant ⇒ support");
        let (f0, f1) = self.cofactors(var);
        let mut df = f0;
        for (d, &w) in df.0.iter_mut().zip(&f1.0) {
            *d ^= w;
        }
        (var, f0, f1, df)
    }
}

/// The expansion an exact PSDKRO cover uses at one subfunction.
#[derive(Clone, Copy)]
enum Expansion {
    /// `f = f0 ⊕ x·∂f`.
    PositiveDavio,
    /// `f = f1 ⊕ x̄·∂f`.
    NegativeDavio,
    /// `f = x̄·f0 ⊕ x·f1`.
    Shannon,
}

/// Exact pseudo-Kronecker (PSDKRO) ESOP covers: at every subfunction's
/// first support variable take whichever of positive Davio, negative
/// Davio and Shannon (first on ties, in that order) gives the fewest
/// cubes, then the fewest literals. The cost `(cubes, literals)` of each
/// subfunction is computed once and memoized with its choice. The
/// expansion variable is outside the support of `f0`, `f1` and `∂f`, so
/// prefixing it adds exactly one literal per cube and the candidate costs
/// are sums of the subfunctions'. One memo serves a whole window: it
/// holds at most the window's subfunctions, so its hasher need resist no
/// crafted keys.
#[derive(Default)]
struct Psdkro {
    memo: FxHashMap<WindowFn, ((usize, usize), Expansion)>,
}

impl Psdkro {
    /// The cover of `f`, cubes in the order the expansions emit them.
    fn cover(&mut self, f: WindowFn) -> Vec<Cube> {
        self.cost(f);
        let mut cubes = Vec::new();
        self.emit(f, Cube::tautology(), &mut cubes);
        cubes
    }

    /// `(cubes, literals)` of `f`'s cover, recording the choice at every
    /// non-constant subfunction.
    fn cost(&mut self, f: WindowFn) -> (usize, usize) {
        if f.is_zero() {
            return (0, 0);
        }
        if f.is_one() {
            return (1, 0);
        }
        if let Some(&(cost, _)) = self.memo.get(&f) {
            return cost;
        }
        let (_, f0, f1, df) = f.expand();
        let (n0, l0) = self.cost(f0);
        let (n1, l1) = self.cost(f1);
        let (nd, ld) = self.cost(df);
        let (cost, expansion) = [
            ((n0 + nd, l0 + ld + nd), Expansion::PositiveDavio),
            ((n1 + nd, l1 + ld + nd), Expansion::NegativeDavio),
            ((n0 + n1, l0 + l1 + n0 + n1), Expansion::Shannon),
        ]
        .into_iter()
        .min_by_key(|&(cost, _)| cost)
        .expect("three candidates");
        self.memo.insert(f, (cost, expansion));
        cost
    }

    /// Appends `f`'s cover, each cube conjoined with `prefix`: positive
    /// Davio emits `f0`'s cubes, then `∂f`'s with `x`; negative Davio
    /// `f1`'s, then `∂f`'s with `x̄`; Shannon `f0`'s with `x̄`, then `f1`'s
    /// with `x`.
    fn emit(&self, f: WindowFn, prefix: Cube, cubes: &mut Vec<Cube>) {
        if f.is_zero() {
            return;
        }
        if f.is_one() {
            cubes.push(prefix);
            return;
        }
        let (var, f0, f1, df) = f.expand();
        match self.memo[&f].1 {
            Expansion::PositiveDavio => {
                self.emit(f0, prefix, cubes);
                self.emit(df, prefix.with_literal(var, true), cubes);
            }
            Expansion::NegativeDavio => {
                self.emit(f1, prefix, cubes);
                self.emit(df, prefix.with_literal(var, false), cubes);
            }
            Expansion::Shannon => {
                self.emit(f0, prefix.with_literal(var, false), cubes);
                self.emit(f1, prefix.with_literal(var, true), cubes);
            }
        }
    }
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
    use proptest::prelude::*;
    use qda_logic::tt::TruthTable;
    use qda_rev::testkit::arb_mpmct_circuit;

    /// The reference PSDKRO: the plain recursion over [`TruthTable`]s,
    /// 3^k nodes for k support variables, no memo.
    fn reference_psdkro_cover(f: &TruthTable) -> Vec<Cube> {
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
        let (c0, c1, cd) = (
            reference_psdkro_cover(&f0),
            reference_psdkro_cover(&f1),
            reference_psdkro_cover(&df),
        );
        let pos_davio: Vec<Cube> = c0.iter().copied().chain(with(cd.clone(), true)).collect();
        let neg_davio: Vec<Cube> = c1.iter().copied().chain(with(cd, false)).collect();
        let shannon: Vec<Cube> = with(c0, false).into_iter().chain(with(c1, true)).collect();
        [pos_davio, neg_davio, shannon]
            .into_iter()
            .min_by_key(|c| (c.len(), literals(c)))
            .expect("three candidates")
    }

    fn literals(cubes: &[Cube]) -> usize {
        cubes.iter().map(Cube::num_literals).sum()
    }

    /// The reference ESOP-of-differences synthesizer over [`TruthTable`]s.
    fn reference_esop_synthesize(perm: &[u64]) -> Option<Circuit> {
        let k = perm_lines(perm);
        let mut diffs: Vec<Option<TruthTable>> = Vec::with_capacity(k);
        for t in 0..k {
            let g = TruthTable::from_fn(k, |x| ((perm[x as usize] ^ x) >> t) & 1 == 1);
            if g.is_zero() {
                diffs.push(None);
            } else if g.depends_on(t) {
                return None;
            } else {
                diffs.push(Some(g));
            }
        }
        let modified: Vec<usize> = (0..k).filter(|&t| diffs[t].is_some()).collect();
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
            return None;
        }
        let mut out = Circuit::new(k);
        for &t in &order {
            let g = diffs[t].as_ref().expect("modified line has a diff");
            let mut esop = Esop::from_cubes(k, reference_psdkro_cover(g));
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

    /// `f` as a window function, replicated over the lines it lacks.
    fn window_fn(f: &TruthTable) -> WindowFn {
        let mut words = [0; WINDOW_WORDS];
        for (w, &word) in words.iter_mut().zip(f.words()) {
            *w = word;
        }
        WindowFn::replicated(f.num_vars(), words)
    }

    /// The memoized cover and its cost equal the reference's.
    fn assert_matches_reference(psdkro: &mut Psdkro, f: &TruthTable) {
        let expected = reference_psdkro_cover(f);
        let g = window_fn(f);
        assert_eq!(
            psdkro.cost(g),
            (expected.len(), literals(&expected)),
            "cost of {f:?}"
        );
        assert_eq!(psdkro.cover(g), expected, "cover of {f:?}");
    }

    #[test]
    fn psdkro_matches_the_reference_on_every_4_variable_function() {
        let mut psdkro = Psdkro::default();
        for word in 0..1u64 << 16 {
            assert_matches_reference(&mut psdkro, &TruthTable::from_words(4, vec![word]));
        }
    }

    #[test]
    fn window_tables_replicate_over_missing_lines() {
        for k in 0..=MAX_WINDOW_LINES {
            let f = TruthTable::from_fn(k, |x| x.count_ones() % 3 == 1);
            let g = window_fn(&f);
            for x in 0..1u64 << MAX_WINDOW_LINES {
                let bit = (g.0[(x / 64) as usize] >> (x % 64)) & 1 == 1;
                assert_eq!(bit, f.get(x & ((1 << k) - 1)), "k={k} x={x}");
            }
            for var in 0..MAX_WINDOW_LINES {
                assert_eq!(g.depends_on(var), var < k && f.depends_on(var));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn psdkro_matches_the_reference_on_random_functions(
            num_vars in 5usize..9,
            words in prop::collection::vec(any::<u64>(), 4usize),
        ) {
            let f = TruthTable::from_words(num_vars, words[..1 << num_vars.saturating_sub(6)].to_vec());
            assert_matches_reference(&mut Psdkro::default(), &f);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn esop_back_end_matches_the_reference_on_random_windows(
            window in arb_mpmct_circuit(2..9, 10),
        ) {
            let perm = window.permutation().expect("windows are narrow");
            prop_assert_eq!(
                EsopWindowSynth.synthesize(&perm),
                reference_esop_synthesize(&perm)
            );
        }
    }

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
