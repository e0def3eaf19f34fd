//! Design automation and design space exploration for quantum computers.
//!
//! This crate is the reproduction of the DATE 2017 paper's central
//! contribution: *design flows* that take an irreversible Verilog design
//! through classical logic synthesis into reversible logic synthesis, and
//! the *design space exploration* this enables.
//!
//! ```text
//! design level        INTDIV(n)      NEWTON(n)          (qda-arith::gen)
//!                          \            /
//! logic synthesis      parse → AIG → optimize            (qda-verilog,
//!                       /        |        \               qda-classical)
//!                     BDD      ESOP       XMG
//!                      |         |         |
//! reversible        embedding  REVS      REVS
//! synthesis          + TBS    (p = 0,1)  hierarchical    (qda-revsynth)
//!                      |         |         |
//!                   reversible circuit (qubits / T-count) (qda-rev)
//! ```
//!
//! # Example
//!
//! ```
//! use qda_core::design::Design;
//! use qda_core::flow::{EsopFlow, Flow};
//!
//! let outcome = EsopFlow::with_factoring(0).run(&Design::intdiv(5))?;
//! assert_eq!(outcome.cost.qubits, 10); // 2n lines at p = 0
//! # Ok::<(), qda_core::flow::FlowError>(())
//! ```

pub mod design;
pub mod dse;
pub mod flow;
pub mod report;

pub use design::Design;
pub use dse::{
    default_workers, DesignSpaceExplorer, Objective, Portfolio, PortfolioOutcome,
    PORTFOLIO_CUTOFF_FACTOR,
};
pub use flow::{
    compute_frontend, BudgetResource, BudgetViolation, EsopFlow, Flow, FlowBudget, FlowError,
    FlowOutcome, FrontendArtifacts, FrontendCache, FunctionalFlow, HierarchicalFlow, PostPasses,
    PostProcessed, StageTimings, Synthesized,
};
