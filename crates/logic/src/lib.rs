//! Boolean function representations used throughout the QDA workspace.
//!
//! This crate provides the *classical* substrate of the DATE 2017 design
//! flows:
//!
//! * [`tt::TruthTable`] — explicit multi-word truth tables (the functional
//!   representation consumed by embedding and transformation-based
//!   synthesis),
//! * [`cube::Cube`] and [`esop::Esop`] — two-level exclusive sum-of-products
//!   (the input of ESOP-based reversible synthesis),
//! * [`aig::Aig`] — And-inverter graphs (the multi-level workhorse of the
//!   logic-synthesis level),
//! * [`xmg::Xmg`] — XOR-majority graphs (the multi-level representation used
//!   by hierarchical reversible synthesis),
//! * [`hash`] — the FxHash-style fast hasher backing every hot map in the
//!   synthesis mid-end (strash tables, BDD caches, cube indexes),
//! * [`par`] — the persistent `QDA_WORKERS` worker pool behind every
//!   sharded inner engine (lazy init, shared injector queue, caller-helps
//!   scheduling, index-ordered results byte-identical to serial).
//!
//! # Example
//!
//! ```
//! use qda_logic::tt::TruthTable;
//!
//! // Majority-of-three as an explicit truth table.
//! let maj = TruthTable::from_fn(3, |x| {
//!     (x & 1) + ((x >> 1) & 1) + ((x >> 2) & 1) >= 2
//! });
//! assert_eq!(maj.count_ones(), 4);
//! ```

pub mod aig;
pub mod cube;
pub mod esop;
pub mod hash;
pub mod par;
pub mod tt;
pub mod xmg;

pub use aig::{Aig, Lit};
pub use cube::Cube;
pub use esop::Esop;
pub use tt::TruthTable;
pub use xmg::Xmg;
