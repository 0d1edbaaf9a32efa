//! # fam-reduce
//!
//! Candidate reduction for FAM solvers: shrink the point universe a
//! solver sees **before** any `N × n` matrix is built, then map the
//! answer back to original point ids.
//!
//! Dense scoring is the wrong asymptote for production-sized `n`. The
//! k-regret literature (Agarwal et al.; Chester et al. — see PAPERS.md)
//! shows the candidate set can be shrunk in two stages with controlled
//! loss:
//!
//! * [`SkylineReducer`] — **exact**: for every monotone utility the
//!   skyline contains a best point, so restricting candidates to the
//!   skyline changes no objective value (bit-identical for exact solvers;
//!   see `docs/REDUCTION.md` for the fp-level argument).
//! * [`CoresetReducer`] — **ε-kernel-style**: keeps each per-direction
//!   argmax over a deterministic net of positive-orthant directions, with
//!   a declared regret target `ε`. Sound for heuristic solvers; the
//!   achieved loss is reported by the reduced build's shortfall stats
//!   and the reduction bench.
//!
//! The pipeline composes as *skyline → coreset* and produces a
//! [`Reduction`]: the ascending kept original ids plus the remap that
//! the registry (`fam-algos`), the engine facade, the CLI, and
//! `fam-serve` apply to every [`fam_core::SolveOutput`] — callers always
//! see original point ids. [`Reduction::backing`] scores the kept
//! universe from the skyline alone, bit-identical to scoring every
//! point: compactly for a linear population
//! ([`Reduction::linear_scores`]), as a matrix otherwise
//! ([`Reduction::score_matrix`]). It refuses utilities that are not
//! [`fam_core::UtilityFunction::is_monotone`], the capability the
//! skyline argument rests on. Everything here is deterministic and
//! single-pass (no RNG, no ambient state), so reductions are
//! bit-identical across runs, thread counts, and feature configurations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod reducers;
pub mod reduction;

pub use reducers::{CandidateReducer, CoresetReducer, SkylineReducer};
pub use reduction::{Reduction, ReductionRepair};

use fam_core::solve::{ReduceKind, SolverParams, DEFAULT_REDUCE_EPS};
use fam_core::{FamError, Result};

/// A fully-specified reduction request: which stage pipeline to run and
/// the coreset's declared regret target. This is the unit that travels
/// into cache keys (via [`ReduceSpec::fingerprint`]) so reduced and
/// unreduced answers can never alias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReduceSpec {
    /// The stage pipeline to run.
    pub kind: ReduceKind,
    /// Declared regret target for the coreset stage (ignored otherwise).
    pub eps: f64,
}

impl ReduceSpec {
    /// No reduction.
    pub fn none() -> Self {
        ReduceSpec { kind: ReduceKind::None, eps: DEFAULT_REDUCE_EPS }
    }

    /// Skyline-only reduction (exact).
    pub fn skyline() -> Self {
        ReduceSpec { kind: ReduceKind::Skyline, eps: DEFAULT_REDUCE_EPS }
    }

    /// Skyline → coreset reduction with regret target `eps`.
    pub fn coreset(eps: f64) -> Self {
        ReduceSpec { kind: ReduceKind::Coreset, eps }
    }

    /// The spec a parsed parameter set asks for.
    pub fn from_params(params: &SolverParams) -> Self {
        ReduceSpec { kind: params.reduce, eps: params.reduce_eps }
    }

    /// True when no reduction is requested.
    pub fn is_none(&self) -> bool {
        self.kind == ReduceKind::None
    }

    /// Validates the spec's scalar parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FamError::InvalidParameter`] when the coreset `eps` is
    /// not in `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if self.kind == ReduceKind::Coreset && !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(FamError::InvalidParameter {
                name: "reduce_eps",
                message: format!("must be in (0, 1), got {}", self.eps),
            });
        }
        Ok(())
    }

    /// Canonical cache-key component: `"none"`, `"skyline"`, or
    /// `"skyline+coreset:<eps>"`. Floats format with their shortest
    /// round-trip decimal, so distinct `eps` values always produce
    /// distinct fingerprints.
    pub fn fingerprint(&self) -> String {
        match self.kind {
            ReduceKind::None => "none".to_string(),
            ReduceKind::Skyline => "skyline".to_string(),
            ReduceKind::Coreset => format!("skyline+coreset:{}", self.eps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_distinguish_specs() {
        assert_eq!(ReduceSpec::none().fingerprint(), "none");
        assert_eq!(ReduceSpec::skyline().fingerprint(), "skyline");
        assert_eq!(ReduceSpec::coreset(0.05).fingerprint(), "skyline+coreset:0.05");
        assert_ne!(
            ReduceSpec::coreset(0.05).fingerprint(),
            ReduceSpec::coreset(0.050000001).fingerprint(),
            "distinct eps must never alias in a cache key"
        );
    }

    #[test]
    fn validation_bounds_eps() {
        assert!(ReduceSpec::coreset(0.05).validate().is_ok());
        assert!(ReduceSpec::coreset(0.0).validate().is_err());
        assert!(ReduceSpec::coreset(1.0).validate().is_err());
        assert!(ReduceSpec::coreset(f64::NAN).validate().is_err());
        // eps is ignored (and unvalidated) for the eps-free stages.
        assert!(ReduceSpec { kind: ReduceKind::Skyline, eps: 9.0 }.validate().is_ok());
        assert!(ReduceSpec::none().validate().is_ok());
        assert!(ReduceSpec::none().is_none());
    }

    #[test]
    fn from_params_reads_the_reduce_fields() {
        let mut p = SolverParams::new(3);
        assert!(ReduceSpec::from_params(&p).is_none());
        p.reduce = ReduceKind::Coreset;
        p.reduce_eps = 0.1;
        let spec = ReduceSpec::from_params(&p);
        assert_eq!(spec, ReduceSpec::coreset(0.1));
    }
}
