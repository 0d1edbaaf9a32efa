//! # fam-core
//!
//! Core abstractions for the **FAM** problem — *Finding the Average Regret
//! Ratio Minimizing Set* (Zeighami & Wong, ICDE 2019).
//!
//! Given a database `D` of `n` points and a probability distribution `Θ`
//! over user utility functions, FAM asks for the set `S ⊆ D` of `k` points
//! minimizing the expected regret ratio `arr(S) = E_f[1 − sat(S,f)/sat(D,f)]`.
//!
//! This crate provides:
//!
//! * [`Dataset`] — the point database (validated, flat storage);
//! * [`UtilityFunction`] implementations ([`LinearUtility`],
//!   [`CobbDouglasUtility`], [`TableUtility`]) and [`UtilityDistribution`]s
//!   over them (uniform box, simplex, Dirichlet, discrete — Appendix A);
//! * [`ScoreMatrix`] — the `N × n` sampled utility-score matrix every
//!   algorithm consumes, with precomputed per-user best points;
//! * regret metrics ([`regret::arr`], [`regret::vrr`],
//!   [`regret::rr_percentiles`], …);
//! * [`SelectionEvaluator`] — incremental `arr` maintenance implementing the
//!   paper's Improvement 1, with detachable state ([`EvaluatorState`]) for
//!   dynamic databases;
//! * [`DynamicEngine`] — the library replica of the point-update path:
//!   insert/delete edits with warm repair ([`dynamic`]);
//! * Chernoff sampling bounds ([`chernoff_sample_size`], Theorem 4 /
//!   Table V);
//! * structural-property checks (supermodularity, monotonicity, steepness —
//!   Theorems 2–3) in [`properties`];
//! * the deterministic multicore substrate ([`par`]) — every hot path
//!   runs chunked with ordered reductions, so serial and parallel results
//!   are bit-identical;
//! * the cache-blocked numeric kernels those hot paths share ([`kernels`]):
//!   fused score+validate+best scoring, lane-decomposed folds, top-two
//!   scans, and blocked transposes. The memory-layout and performance
//!   model behind them is documented in `docs/PERFORMANCE.md`.
//!
//! Algorithms (GREEDY-SHRINK, the exact 2-D DP, and all baselines) live in
//! the `fam-algos` crate; the `fam` facade crate re-exports everything.

#![warn(missing_docs)]
// fam-lint: allow(U001) -- deny instead of forbid so exactly one module,
// par::pool, can opt back in with #![allow(unsafe_code)]: the persistent
// worker pool needs one audited lifetime-erasure transmute (its soundness
// argument is documented at the top of par/pool.rs). forbid() cannot be
// overridden, so the crate-wide default stays deny and every other module
// still rejects unsafe at compile time.
#![deny(unsafe_code)]

pub mod dataset;
pub mod deadline;
pub mod distribution;
pub mod dynamic;
pub mod error;
pub mod evaluator;
pub mod failpoints;
pub mod kernels;
pub mod linear_scores;
pub mod par;
pub mod properties;
pub mod randext;
pub mod regret;
pub mod sampling;
pub mod scores;
pub mod selection;
pub mod solve;
pub mod stats;
pub mod streaming;
pub mod utility;

pub use dataset::Dataset;
pub use deadline::Deadline;
pub use distribution::{
    CobbDouglasDistribution, DirichletLinear, DiscreteDistribution, SimplexLinear, UniformLinear,
    UtilityDistribution,
};
pub use dynamic::{ApplyReport, DynamicEngine, RepairOutcome, UpdateBatch, WarmStart};
pub use error::{FamError, Result};
pub use evaluator::{EvalCounters, EvaluatorState, SelectionEvaluator};
pub use linear_scores::{LinearColumns, LinearScores};
pub use regret::RegretReport;
pub use sampling::{
    check_matrix_budget, chernoff_epsilon, chernoff_sample_size, PrecisionSpec, SampleSpec,
    DEFAULT_SIGMA,
};
pub use scores::{swap_remove_remap, MemberScores, ScoreMatrix, ScoreSource, TiledBuildStats};
pub use selection::Selection;
pub use solve::{MeasureKind, ReduceKind, SolveCtx, SolveOutput, SolverParams};
pub use utility::{CobbDouglasUtility, LinearUtility, TableUtility, UtilityFunction};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::deadline::Deadline;
    pub use crate::distribution::{
        CobbDouglasDistribution, DirichletLinear, DiscreteDistribution, SimplexLinear,
        UniformLinear, UtilityDistribution,
    };
    pub use crate::dynamic::{DynamicEngine, UpdateBatch, WarmStart};
    pub use crate::error::{FamError, Result};
    pub use crate::evaluator::SelectionEvaluator;
    pub use crate::linear_scores::LinearScores;
    pub use crate::regret;
    pub use crate::sampling::{
        check_matrix_budget, chernoff_epsilon, chernoff_sample_size, PrecisionSpec, SampleSpec,
        DEFAULT_SIGMA,
    };
    pub use crate::scores::{ScoreMatrix, ScoreSource};
    pub use crate::selection::Selection;
    pub use crate::solve::{MeasureKind, ReduceKind, SolveCtx, SolveOutput, SolverParams};
    pub use crate::utility::{CobbDouglasUtility, LinearUtility, TableUtility, UtilityFunction};
}
