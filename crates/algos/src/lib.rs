//! # fam-algos
//!
//! All selection algorithms of the FAM paper:
//!
//! * [`greedy_shrink`](fn@greedy_shrink) — the paper's main contribution (Algorithm 1) with
//!   the Appendix C improvements, instrumented and toggleable;
//! * [`dp_2d`](fn@dp_2d) — the exact dynamic program for 2-D linear utilities
//!   (Section IV) over pluggable angular measures;
//! * [`brute_force`](fn@brute_force) — exact enumeration with a monotonicity-based prune;
//! * [`add_greedy`](fn@add_greedy) — the insertion greedy of the SIGMOD'16 poster \[33\]
//!   (ablation baseline);
//! * baselines from prior work: [`mrr_greedy_exact`](fn@mrr_greedy_exact) / [`mrr_greedy_sampled`](fn@mrr_greedy_sampled)
//!   (k-regret, Nanongkai et al. \[22\], LP-backed), [`sky_dom`](fn@sky_dom)
//!   (representative skyline, Lin et al. \[20\]), [`k_hit`](fn@k_hit) (Peng & Wong \[26\]);
//! * warm starts: [`warm_repair`](fn@warm_repair) (the repair policy of
//!   the library update replica in `fam_core::dynamic`; no CLI or server
//!   path runs it) plus the seeded entry points
//!   [`add_greedy_from`](fn@add_greedy_from) and
//!   [`greedy_shrink_warm`](fn@greedy_shrink_warm) ([`repair`]);
//! * multi-`k` harvesting: [`add_greedy_range`](fn@add_greedy_range) /
//!   [`greedy_shrink_range`](fn@greedy_shrink_range) solve a whole range of
//!   output sizes in one greedy trajectory, bit-identical to per-`k` cold
//!   runs ([`trajectory`]) — the substrate of the serving layer's result
//!   cache;
//! * progressive precision: [`refine`](fn@refine) drives the dynamic
//!   sample axis by the Chernoff bound (Theorem 4) — solve coarse at
//!   `N₀`, double samples in place with warm-started repair
//!   ([`reoptimize`](fn@reoptimize)), finish with a canonical cold solve
//!   once the target ε is met, bit-identical to a cold solve at the
//!   final `N` ([`mod@refine`]);
//! * the unified solver API ([`registry`]): a [`Solver`] trait with
//!   declared capabilities ([`Caps`]) and a name-based [`Registry`] of
//!   all ten paper algorithms, each adapter bit-identical to the free
//!   function it wraps — the single dispatch surface behind the CLI,
//!   the HTTP server, and the bench harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod add_greedy;
pub mod brute_force;
pub mod cube;
pub mod dp2d;
pub mod greedy_shrink;
pub mod k_hit;
mod lazy;
pub mod local_search;
pub mod measure;
pub mod mrr;
pub mod mrr_greedy;
pub mod reduction;
pub mod refine;
pub mod registry;
pub mod repair;
pub mod sky_dom;
pub mod trajectory;

pub use add_greedy::{add_greedy, add_greedy_from};
pub use brute_force::{brute_force, brute_force_with_pruning};
pub use cube::cube;
pub use dp2d::{dp_2d, Dp2dOutput};
pub use greedy_shrink::{
    greedy_shrink, greedy_shrink_warm, GreedyShrinkConfig, GreedyShrinkOutput,
};
pub use k_hit::k_hit;
pub use local_search::{local_search, LocalSearchConfig, LocalSearchOutput};
pub use measure::{
    adaptive_simpson, continuous_arr, AngularMeasure, QuadratureMeasure, UniformAngleMeasure,
    UniformBoxMeasure,
};
pub use mrr::{mrr_linear_exact, mrr_sampled, witness_regret};
pub use mrr_greedy::{mrr_greedy_exact, mrr_greedy_sampled};
pub use reduction::{
    reduce_set_cover, set_cover_has_cover_of_size, ReducedInstance, SetCoverInstance,
};
pub use refine::{refine, RefineConfig, RefineOutput, RefineRound, DEFAULT_INITIAL_SAMPLES};
pub use registry::{Caps, Reducible, Registry, Solver, SolverSpec};
pub use repair::{reoptimize, warm_repair};
pub use sky_dom::sky_dom;
pub use trajectory::{add_greedy_range, greedy_shrink_range};
