//! Sample-size bounds for estimating the average regret ratio
//! (Theorem 4 and Table V of the paper).

use crate::error::{FamError, Result};

/// Minimum number of i.i.d. utility samples `N` such that the estimated
/// average regret ratio is within `epsilon` of the truth with confidence
/// `1 - sigma` (Theorem 4): `N >= 3 ln(1/sigma) / epsilon^2`.
///
/// The result is the ceiling of the bound (the smallest integer satisfying
/// the theorem); the paper's Table V truncates some entries, so values may
/// differ from the paper by one.
///
/// # Errors
///
/// Returns an error unless `0 < epsilon <= 1` and `0 < sigma < 1`.
///
/// # Examples
///
/// ```
/// use fam_core::chernoff_sample_size;
/// assert_eq!(chernoff_sample_size(0.01, 0.1).unwrap(), 69_078);
/// ```
pub fn chernoff_sample_size(epsilon: f64, sigma: f64) -> Result<u64> {
    if !(epsilon > 0.0 && epsilon <= 1.0 && epsilon.is_finite()) {
        return Err(FamError::InvalidParameter {
            name: "epsilon",
            message: format!("must be in (0, 1], got {epsilon}"),
        });
    }
    if !(sigma > 0.0 && sigma < 1.0 && sigma.is_finite()) {
        return Err(FamError::InvalidParameter {
            name: "sigma",
            message: format!("must be in (0, 1), got {sigma}"),
        });
    }
    Ok((3.0 * (1.0 / sigma).ln() / (epsilon * epsilon)).ceil() as u64)
}

/// Error `epsilon` achieved by `n` samples at confidence `1 - sigma`
/// (the inverse of [`chernoff_sample_size`]): `epsilon = sqrt(3 ln(1/sigma) / N)`.
///
/// # Errors
///
/// Returns an error unless `n >= 1` and `0 < sigma < 1`.
pub fn chernoff_epsilon(n: u64, sigma: f64) -> Result<f64> {
    if n == 0 {
        return Err(FamError::InvalidParameter { name: "n", message: "must be at least 1".into() });
    }
    if !(sigma > 0.0 && sigma < 1.0 && sigma.is_finite()) {
        return Err(FamError::InvalidParameter {
            name: "sigma",
            message: format!("must be in (0, 1), got {sigma}"),
        });
    }
    Ok((3.0 * (1.0 / sigma).ln() / n as f64).sqrt())
}

/// Default failure probability used wherever a precision request names
/// only `epsilon`: the paper's Table V headline confidence (`1 - sigma =
/// 90%`).
pub const DEFAULT_SIGMA: f64 = 0.1;

/// Environment variable naming a hard limit, in bytes, on the score work
/// of one sampled population: `N × n × 8` (one dense layout of its
/// scores). Unset, empty, or unparsable means **no budget** — only
/// address-space overflow is rejected then.
pub const MAX_MATRIX_BYTES_ENV: &str = "FAM_MAX_MATRIX_BYTES";

/// Rejects sample counts whose `N × n × 8`-byte score footprint
/// overflows the address space or exceeds the configured budget
/// ([`MAX_MATRIX_BYTES_ENV`], default off) — *before* the allocator gets
/// a chance to abort the process. `chernoff_sample_size(0.001, 0.01)` is
/// ~1.4e7 samples; against a large database that is a silent
/// hundreds-of-gigabytes allocation without this guard.
///
/// The budget is a **work limit**: it is charged for `N × n` (the kept
/// points of a reduced build) whichever backing then holds the scores
/// ([`crate::ScoreBacking`]). A compact [`crate::LinearScores`] stores
/// only `O(d(N + n))`, yet it is refused exactly where a dense matrix
/// is, because every solve still touches `N × n` scores. On a dense
/// matrix the bound covers one layout; the point-major mirror doubles
/// the resident footprint, so budget roughly half the memory you are
/// willing to spend on a mirrored matrix.
///
/// # Errors
///
/// Returns [`FamError::InvalidParameter`] naming the offending footprint.
pub fn check_matrix_budget(n_samples: usize, n_points: usize) -> Result<()> {
    let budget =
        std::env::var(MAX_MATRIX_BYTES_ENV).ok().and_then(|v| v.trim().parse::<u64>().ok());
    check_matrix_budget_with(n_samples, n_points, budget)
}

/// [`check_matrix_budget`] with an explicit budget instead of the
/// environment variable (`None` = overflow check only).
///
/// # Errors
///
/// See [`check_matrix_budget`].
pub fn check_matrix_budget_with(
    n_samples: usize,
    n_points: usize,
    budget: Option<u64>,
) -> Result<()> {
    let bytes = (n_samples as u64)
        .checked_mul(n_points as u64)
        .and_then(|cells| cells.checked_mul(8))
        .filter(|&b| usize::try_from(b).is_ok());
    let Some(bytes) = bytes else {
        return Err(FamError::InvalidParameter {
            name: "n_samples",
            message: format!("a {n_samples} x {n_points} score matrix overflows the address space"),
        });
    };
    if let Some(limit) = budget {
        if bytes > limit {
            return Err(FamError::InvalidParameter {
                name: "n_samples",
                message: format!(
                    "a {n_samples} x {n_points} score matrix needs {bytes} bytes per layout, \
                     over the {MAX_MATRIX_BYTES_ENV} budget of {limit}"
                ),
            });
        }
    }
    Ok(())
}

/// Validates a precision requirement and reports the Chernoff shortfall
/// of `n_samples`: `Ok(None)` when the count satisfies `(epsilon,
/// sigma)` per Theorem 4, `Ok(Some((needed, achieved)))` when it falls
/// short — the single source of the comparison behind the registry's
/// capability gate and the serving layer's cache-covering twin (each
/// phrases its own error around the numbers).
///
/// # Errors
///
/// See [`chernoff_sample_size`].
pub fn precision_shortfall(n_samples: u64, epsilon: f64, sigma: f64) -> Result<Option<(u64, f64)>> {
    let needed = chernoff_sample_size(epsilon, sigma)?;
    if n_samples >= needed {
        return Ok(None);
    }
    Ok(Some((needed, chernoff_epsilon(n_samples.max(1), sigma)?)))
}

/// A precision target on the estimated average regret ratio: additive
/// error `epsilon` at confidence `1 - sigma`. The progressive-refinement
/// drivers (`fam_algos::refine`, the serving layer's `POST /refine`)
/// steer sample growth by it, and [`PrecisionSpec::achieved_epsilon`]
/// reports the ε any sample count `N` has already earned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionSpec {
    /// Additive error bound on the estimated average regret ratio.
    pub epsilon: f64,
    /// Failure probability (confidence is `1 - sigma`).
    pub sigma: f64,
}

impl PrecisionSpec {
    /// Builds a validated spec.
    ///
    /// # Errors
    ///
    /// See [`chernoff_sample_size`].
    pub fn new(epsilon: f64, sigma: f64) -> Result<Self> {
        chernoff_sample_size(epsilon, sigma)?;
        Ok(PrecisionSpec { epsilon, sigma })
    }

    /// The Chernoff sample count satisfying this spec (Theorem 4).
    ///
    /// # Errors
    ///
    /// See [`chernoff_sample_size`] (the fields are public, so a spec can
    /// be mutated out of range after construction).
    pub fn required_samples(&self) -> Result<u64> {
        chernoff_sample_size(self.epsilon, self.sigma)
    }

    /// [`PrecisionSpec::required_samples`] as a `usize`, guarded against
    /// absurd allocations: the count must fit the platform and the
    /// implied `N × n_points` matrix must pass
    /// [`check_matrix_budget`] — the shared front door of every
    /// precision-driven sizing path (the refine drivers, the engine
    /// builder).
    ///
    /// # Errors
    ///
    /// As [`chernoff_sample_size`] and [`check_matrix_budget`], plus
    /// [`FamError::InvalidParameter`] when the count overflows `usize`.
    pub fn required_samples_checked(&self, n_points: usize) -> Result<usize> {
        let target = self.required_samples()?;
        let target = usize::try_from(target).map_err(|_| FamError::InvalidParameter {
            name: "epsilon",
            message: format!("Chernoff bound of {target} samples overflows this platform"),
        })?;
        check_matrix_budget(target, n_points)?;
        Ok(target)
    }

    /// The ε that `n` samples achieve at this spec's confidence.
    ///
    /// # Errors
    ///
    /// See [`chernoff_epsilon`].
    pub fn achieved_epsilon(&self, n: u64) -> Result<f64> {
        chernoff_epsilon(n, self.sigma)
    }

    /// Whether `n` samples already meet the target.
    ///
    /// # Errors
    ///
    /// See [`chernoff_sample_size`].
    pub fn satisfied_by(&self, n: u64) -> Result<bool> {
        Ok(n >= self.required_samples()?)
    }
}

/// A sampling specification: error and confidence parameters together with
/// the implied sample size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSpec {
    /// Additive error bound on the estimated average regret ratio.
    pub epsilon: f64,
    /// Failure probability (confidence is `1 - sigma`).
    pub sigma: f64,
    /// Implied minimum sample size.
    pub n: u64,
}

impl SampleSpec {
    /// Builds a spec from `(epsilon, sigma)`.
    ///
    /// # Errors
    ///
    /// See [`chernoff_sample_size`].
    pub fn new(epsilon: f64, sigma: f64) -> Result<Self> {
        Ok(SampleSpec { epsilon, sigma, n: chernoff_sample_size(epsilon, sigma)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_values() {
        // Paper Table V (ceiling convention; the paper truncates some rows,
        // so we allow ourselves to be the mathematically-correct +1).
        let cases = [
            (0.01, 0.1, 69_078u64),
            (0.001, 0.1, 6_907_756),
            (0.0001, 0.1, 690_775_528),
            (0.01, 0.05, 89_872),
            (0.001, 0.05, 8_987_197),
            (0.0001, 0.05, 898_719_683),
        ];
        for (eps, sigma, expected) in cases {
            let got = chernoff_sample_size(eps, sigma).unwrap();
            assert_eq!(got, expected, "eps={eps}, sigma={sigma}");
            // Never more than one above the paper's (truncated) table.
            let raw = 3.0 * (1.0f64 / sigma).ln() / (eps * eps);
            assert!((got as f64 - raw) < 1.0 && got as f64 >= raw);
        }
    }

    #[test]
    fn epsilon_inverse_roundtrip() {
        let n = chernoff_sample_size(0.01, 0.1).unwrap();
        let eps = chernoff_epsilon(n, 0.1).unwrap();
        assert!(eps <= 0.01 + 1e-9, "achieved eps {eps} should satisfy request");
        assert!(eps > 0.0099, "achieved eps {eps} should be tight");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(chernoff_sample_size(0.0, 0.1).is_err());
        assert!(chernoff_sample_size(-0.1, 0.1).is_err());
        assert!(chernoff_sample_size(1.5, 0.1).is_err());
        assert!(chernoff_sample_size(0.1, 0.0).is_err());
        assert!(chernoff_sample_size(0.1, 1.0).is_err());
        assert!(chernoff_sample_size(f64::NAN, 0.1).is_err());
        assert!(chernoff_epsilon(0, 0.1).is_err());
        assert!(chernoff_epsilon(100, 2.0).is_err());
    }

    #[test]
    fn spec_carries_size() {
        let spec = SampleSpec::new(0.1, 0.1).unwrap();
        assert_eq!(spec.n, chernoff_sample_size(0.1, 0.1).unwrap());
        assert_eq!(spec.epsilon, 0.1);
    }

    #[test]
    fn chernoff_round_trip_property() {
        // The achieved epsilon of the Chernoff-sized sample always meets
        // the request: chernoff_epsilon(chernoff_sample_size(e, s), s) <= e.
        for &eps in &[1.0, 0.5, 0.1, 0.05, 0.02, 0.01, 0.003, 0.001] {
            for &sigma in &[0.9, 0.5, 0.1, 0.05, 0.01, 1e-6] {
                let n = chernoff_sample_size(eps, sigma).unwrap();
                let achieved = chernoff_epsilon(n, sigma).unwrap();
                assert!(
                    achieved <= eps,
                    "eps={eps} sigma={sigma}: N={n} achieves {achieved} > requested"
                );
                // And the bound is tight: one fewer sample misses it.
                if n > 1 {
                    assert!(chernoff_epsilon(n - 1, sigma).unwrap() > eps);
                }
            }
        }
    }

    #[test]
    fn boundary_values() {
        // epsilon = 1 is the loosest valid request.
        let n = chernoff_sample_size(1.0, 0.5).unwrap();
        assert_eq!(n, (3.0 * 2.0f64.ln()).ceil() as u64);
        assert!(chernoff_epsilon(n, 0.5).unwrap() <= 1.0);
        // sigma -> 0 blows the sample count up but stays finite and valid.
        let tiny_sigma = chernoff_sample_size(0.1, 1e-300).unwrap();
        assert!(tiny_sigma > chernoff_sample_size(0.1, 0.1).unwrap());
        // sigma -> 1 needs almost nothing (ln(1/sigma) -> 0), never zero.
        let loose = chernoff_sample_size(1.0, 1.0 - 1e-12).unwrap();
        assert!(loose <= 1, "near-certain failure tolerance wants ~0 samples, got {loose}");
        // The exact endpoints stay rejected.
        assert!(chernoff_sample_size(1.0 + f64::EPSILON, 0.1).is_err());
        assert!(chernoff_sample_size(0.1, 1.0).is_err());
        assert!(chernoff_sample_size(0.1, 0.0).is_err());
    }

    #[test]
    fn spec_equality_and_derives() {
        let a = SampleSpec::new(0.1, 0.1).unwrap();
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        let c = SampleSpec::new(0.1, 0.05).unwrap();
        assert_ne!(a, c);
        assert_ne!(a.n, c.n);
        assert!(format!("{a:?}").contains("SampleSpec"));
    }

    #[test]
    fn precision_spec_reports_achieved_epsilon() {
        let spec = PrecisionSpec::new(0.05, 0.1).unwrap();
        let target = spec.required_samples().unwrap();
        assert_eq!(target, chernoff_sample_size(0.05, 0.1).unwrap());
        assert!(spec.satisfied_by(target).unwrap());
        assert!(!spec.satisfied_by(target - 1).unwrap());
        assert!(spec.achieved_epsilon(target).unwrap() <= 0.05);
        assert!(spec.achieved_epsilon(target / 4).unwrap() > 0.05);
        assert!(PrecisionSpec::new(0.0, 0.1).is_err());
        assert!(PrecisionSpec::new(0.1, 1.0).is_err());
        assert_eq!(spec, spec.clone());
    }

    #[test]
    fn matrix_budget_rejects_overflow_and_limits() {
        // Small footprints always pass without a budget.
        check_matrix_budget_with(50_000, 2_000, None).unwrap();
        // u64 multiplication overflow is a clean error, not a panic/OOM.
        let err = check_matrix_budget_with(usize::MAX, 3, None).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        // An explicit budget caps the footprint.
        check_matrix_budget_with(100, 100, Some(80_000)).unwrap();
        let err = check_matrix_budget_with(100, 101, Some(80_000)).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        // The paper's eps = 0.001, sigma = 0.01 request (~1.4e7 samples)
        // against a 100k-point database is ~11 TB — exactly what the
        // guard exists to refuse.
        let n = chernoff_sample_size(0.001, 0.01).unwrap() as usize;
        assert!(check_matrix_budget_with(n, 100_000, Some(1 << 33)).is_err());
        // The env-driven path is covered by `tests/budget_env.rs`: a
        // dedicated single-test binary, because mutating the process
        // environment while sibling test threads read it through
        // `check_matrix_budget` races.
    }

    #[test]
    fn smaller_epsilon_needs_more_samples() {
        let a = chernoff_sample_size(0.1, 0.1).unwrap();
        let b = chernoff_sample_size(0.01, 0.1).unwrap();
        let c = chernoff_sample_size(0.01, 0.05).unwrap();
        assert!(b > a);
        assert!(c > b);
    }
}
