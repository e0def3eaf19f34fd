//! Reversible circuits over the mixed-polarity multiple-controlled Toffoli
//! (MPMCT) gate library, plus the quantum-cost machinery of the paper.
//!
//! Provides:
//!
//! * [`gate::Gate`] / [`circuit::Circuit`] — the reversible-circuit IR all
//!   synthesis back-ends emit,
//! * [`packed`] — the packed-mask struct-of-arrays gate storage behind
//!   [`circuit::Circuit`]: control/polarity bit masks instead of per-gate
//!   control vectors, kept as each gate's nonzero mask words, so the
//!   firing/support/commutation tests walk a gate's nonzero entries,
//! * [`cost`] — T-count and qubit accounting (the paper's two cost axes),
//! * [`state`] / [`batchsim`] / [`equiv`] — bit-exact scalar and 64-way
//!   bit-parallel simulation, and equivalence checking on top of them
//!   (the role ABC `cec` plays in the paper),
//! * [`opt`] — post-synthesis peephole optimization (commutation-aware
//!   cancellation, control merging, NOT-propagation), every run
//!   machine-checkable against the original via [`batchsim`],
//! * [`resynth`] — windowed resynthesis: bounded-support subcircuits are
//!   replayed into explicit permutations and re-synthesized by pluggable
//!   [`resynth::WindowSynthesizer`] back-ends, with the same per-splice
//!   and whole-circuit soundness gates as [`opt`],
//! * [`blocks`] — hand-crafted reversible arithmetic (Cuccaro ripple-carry
//!   adder, controlled adders, comparators, shift-and-add multipliers) used
//!   by the manual RESDIV/QNEWTON baselines.
//!
//! # Example
//!
//! ```
//! use qda_rev::circuit::Circuit;
//!
//! let mut c = Circuit::new(3);
//! c.toffoli(0, 1, 2);
//! c.cnot(0, 1);
//! assert_eq!(c.simulate_u64(0b011), 0b101); // target flips, then b ^= a
//! ```

pub mod batchsim;
pub mod blocks;
pub mod circuit;
pub mod cost;
pub mod decompose;
pub mod equiv;
pub mod gate;
pub mod io;
pub mod opt;
pub mod packed;
pub mod resynth;
pub mod state;
#[cfg(feature = "testkit")]
pub mod testkit;

pub use batchsim::BatchState;
pub use circuit::{Circuit, LineAllocator, TooWideError};
pub use cost::CircuitCost;
pub use gate::{Control, Gate};
pub use opt::{optimize, optimize_checked, OptOptions, OptStats};
pub use packed::{GateArena, PackedGate, PackedGateBuf};
pub use resynth::{
    resynthesize, resynthesize_checked, ResynthOptions, ResynthStats, Resynthesized,
    WindowSynthesizer,
};
pub use state::BitState;
