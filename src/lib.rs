//! # fam — Finding the Average Regret Ratio Minimizing Set
//!
//! A from-scratch Rust implementation of *"Finding Average Regret Ratio
//! Minimizing Set in Database"* (Zeighami & Wong, ICDE 2019), including
//! the GREEDY-SHRINK approximation algorithm, the exact 2-D dynamic
//! program, every baseline the paper compares against (MRR-GREEDY,
//! SKY-DOM, K-HIT, brute force), and all supporting substrates (skyline
//! computation, an LP solver, matrix factorization, Gaussian mixtures,
//! workload generators).
//!
//! ## Quick start
//!
//! Build an [`Engine`] — dataset, sampled user population, default
//! solver — and solve by registry name:
//!
//! ```
//! use fam::Engine;
//! use fam::prelude::*;
//!
//! // A tiny hotel database: price-value and location scores.
//! let hotels = Dataset::from_rows(vec![
//!     vec![0.9, 0.2],
//!     vec![0.7, 0.6],
//!     vec![0.4, 0.8],
//!     vec![0.1, 0.95],
//! ]).unwrap();
//!
//! // Users with unknown linear preferences, uniformly distributed.
//! let engine = Engine::builder()
//!     .dataset(hotels)
//!     .samples(1_000)
//!     .seed(1)
//!     .solver("greedy-shrink")
//!     .build().unwrap();
//!
//! // Pick the 2 hotels minimizing the average regret ratio.
//! let out = engine.solve(2).unwrap();
//! assert_eq!(out.selection.len(), 2);
//! let report = engine.evaluate(&out.selection.indices).unwrap();
//! assert!(report.arr < 0.1);
//!
//! // Every paper algorithm answers by name through the same engine —
//! // including coordinate-based ones, since the builder kept the
//! // dataset. `fam::Registry::global().names()` lists them all.
//! let exact = engine.solve_as("dp-2d", 2).unwrap();
//! assert_eq!(exact.selection.len(), 2);
//! ```
//!
//! The same registry backs every other front end: `fam solve --algo NAME
//! --param key=val` on the CLI, `/solve?algo=NAME` (plus `GET /algos`)
//! on the HTTP server, and the bench harness's standard series. Typed
//! parameters ([`SolverSpec`]) and declared capabilities ([`Caps`])
//! travel with the name, so unsupported requests fail with a precise
//! error instead of a panic. The historical free functions
//! ([`greedy_shrink`](fn@greedy_shrink), [`dp_2d`](fn@dp_2d), …) remain
//! the canonical implementations and stay exported; registry adapters
//! are bit-identical thin delegates over them.
//!
//! Sampled estimates carry an explicit precision: size the population
//! by a Chernoff target with [`EngineBuilder::precision`], refine a
//! coarse answer in place to any ε with [`refine`](fn@refine) (or the
//! server's `POST /refine`), and read the achieved ε back at any `N`
//! ([`Engine::achieved_epsilon`], `GET /stats`).
//!
//! See the repository `README.md` for the crate map, CLI/server
//! surfaces, and how to reproduce each committed `BENCH_*.json`;
//! `examples/` for end-to-end scenarios (NBA team selection, the
//! Yahoo!Music learned-utility pipeline, exact 2-D optimization); and
//! DESIGN.md / EXPERIMENTS.md for the paper-reproduction map.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;

pub use engine::{Engine, EngineBuilder};

pub use fam_algos as algos;
pub use fam_core as core;
pub use fam_data as data;
pub use fam_geometry as geometry;
pub use fam_lp as lp;
pub use fam_ml as ml;
pub use fam_reduce as reduce;
pub use fam_serve as serve;

pub use fam_algos::{
    add_greedy, add_greedy_from, add_greedy_range, brute_force, brute_force_with_pruning,
    continuous_arr, cube, dp_2d, greedy_shrink, greedy_shrink_range, greedy_shrink_warm, k_hit,
    local_search, mrr_greedy_exact, mrr_greedy_sampled, mrr_linear_exact, refine, reoptimize,
    sky_dom, warm_repair, AngularMeasure, Caps, Dp2dOutput, GreedyShrinkConfig, GreedyShrinkOutput,
    LocalSearchConfig, LocalSearchOutput, QuadratureMeasure, Reducible, RefineConfig, RefineOutput,
    RefineRound, Registry, Solver, SolverSpec, UniformAngleMeasure, UniformBoxMeasure,
};
pub use fam_core::{
    check_matrix_budget, chernoff_epsilon, chernoff_sample_size, regret, ApplyReport, Dataset,
    DiscreteDistribution, DynamicEngine, FamError, LinearScores, LinearUtility, MeasureKind,
    PrecisionSpec, ReduceKind, RegretReport, RepairOutcome, Result, SampleSpec, ScoreMatrix,
    ScoreSource, Selection, SelectionEvaluator, SolveCtx, SolveOutput, SolverParams, TableUtility,
    TiledBuildStats, UniformLinear, UpdateBatch, UtilityDistribution, UtilityFunction, WarmStart,
    DEFAULT_SIGMA,
};
pub use fam_reduce::{CandidateReducer, CoresetReducer, ReduceSpec, Reduction, SkylineReducer};

/// Everything needed for typical use, re-exported flat.
pub mod prelude {
    pub use crate::engine::{Engine, EngineBuilder};
    pub use fam_algos::{
        add_greedy, add_greedy_from, brute_force, continuous_arr, dp_2d, greedy_shrink,
        greedy_shrink_warm, k_hit, mrr_greedy_exact, mrr_greedy_sampled, mrr_linear_exact, sky_dom,
        warm_repair, AngularMeasure, GreedyShrinkConfig, QuadratureMeasure, Registry, SolverSpec,
        UniformAngleMeasure, UniformBoxMeasure,
    };
    pub use fam_core::prelude::*;
    pub use fam_data::{
        simulated, simulated_with_size, synthetic, yahoo_ratings, Correlation, RealDataset,
        YahooConfig,
    };
    pub use fam_geometry::{skyline, Envelope};
    pub use fam_ml::{GmmConfig, LearnedUtilityModel, MfConfig, Ratings};
}
