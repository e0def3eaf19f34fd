//! Reversible logic synthesis — the reversible-synthesis level of the
//! paper's design flows (§IV).
//!
//! Three back-ends, each targeting a different cost corner:
//!
//! * [`tbs`] — transformation-based synthesis after an optimum
//!   [`embed`]ding: minimum qubits, very large T-count (Toffoli gates with
//!   many controls), exponential runtime;
//! * [`esop`] — ESOP-based synthesis (REVS): one Toffoli per product term
//!   on `n+m` lines, with a factoring parameter `p` trading extra ancilla
//!   lines for fewer T gates;
//! * [`hierarchical`] — XMG-driven structural synthesis: one ancilla per
//!   gate (Bennett cleanup or eager cleanup), lowest T-count, most qubits,
//!   scales to hundreds of input bits.
//!
//! [`resynth`] re-enters ESOP synthesis (plus an affine recognizer) on the
//! small window permutations extracted by `qda_rev::resynth`, turning the
//! synthesis portfolio into a beyond-peephole circuit optimizer.
//!
//! # Example
//!
//! Transformation-based synthesis of a CNOT, given as a permutation:
//!
//! ```
//! use qda_revsynth::{transformation_based_synthesis, TbsDirection};
//!
//! // x1 ^= x0, tabulated over two lines.
//! let perm = vec![0b00, 0b11, 0b10, 0b01];
//! let circuit = transformation_based_synthesis(&perm, TbsDirection::Unidirectional);
//! assert_eq!(circuit.num_gates(), 1); // TBS finds the single CNOT
//! for (x, &y) in perm.iter().enumerate() {
//!     assert_eq!(circuit.simulate_u64(x as u64), y);
//! }
//! ```

pub mod embed;
pub mod esop;
pub mod hierarchical;
pub mod resynth;
pub mod tbs;

pub use embed::{bennett_embedding, minimum_additional_lines, optimum_embedding, Embedding};
pub use esop::{synthesize_esop, EsopSynthOptions};
pub use hierarchical::{synthesize_xmg, CleanupStrategy, HierarchicalOptions};
pub use resynth::{
    default_window_synthesizers, resynthesize_circuit, resynthesize_circuit_checked,
    EsopWindowSynth, LinearWindowSynth,
};
pub use tbs::{transformation_based_synthesis, TbsDirection};
