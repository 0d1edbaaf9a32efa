//! `FAM_MAX_MATRIX_BYTES` limits the work an engine build may ask for:
//! `N × n × 8` bytes, `N × kept × 8` when reduced, whichever backing then
//! holds the scores. A linear engine (held compactly) is refused exactly
//! where a non-linear one (held densely) is.
//!
//! This binary sets the process environment, which races with any
//! sibling test thread that reads it, so it holds exactly one `#[test]`.

use fam::core::sampling::MAX_MATRIX_BYTES_ENV;
use fam::core::CobbDouglasDistribution;
use fam::data::{synthetic, Correlation};
use fam::{Dataset, Engine, FamError, ReduceKind, UniformLinear, UtilityDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(
    ds: &Dataset,
    dist: Box<dyn UtilityDistribution>,
    samples: usize,
    reduce: ReduceKind,
) -> fam::Result<Engine> {
    Engine::builder().dataset(ds.clone()).distribution(dist).samples(samples).reduce(reduce).build()
}

fn refusal(built: fam::Result<Engine>) -> String {
    match built {
        Err(e @ FamError::InvalidParameter { name: "n_samples", .. }) => e.to_string(),
        Err(e) => panic!("expected the budget refusal, got {e}"),
        Ok(_) => panic!("expected the budget refusal, got an engine"),
    }
}

#[test]
fn the_budget_refuses_linear_and_dense_engines_at_the_same_size() {
    let n = 50;
    let ds = synthetic(n, 3, Correlation::Correlated, &mut StdRng::seed_from_u64(3)).unwrap();
    let linear = || Box::new(UniformLinear::new(3).unwrap()) as Box<dyn UtilityDistribution>;
    let cobb =
        || Box::new(CobbDouglasDistribution::new(3).unwrap()) as Box<dyn UtilityDistribution>;
    let samples = 100;
    let budget = samples * n * 8;
    std::env::set_var(MAX_MATRIX_BYTES_ENV, budget.to_string());

    // At the budget both build; the linear one is held compactly.
    let at = build(&ds, linear(), samples, ReduceKind::None).unwrap();
    assert!(at.scores().linear_columns().is_some());
    let dense = build(&ds, cobb(), samples, ReduceKind::None).unwrap();
    assert!(dense.scores().linear_columns().is_none());
    // One sample over, both are refused with the same error.
    let a = refusal(build(&ds, linear(), samples + 1, ReduceKind::None));
    let b = refusal(build(&ds, cobb(), samples + 1, ReduceKind::None));
    assert_eq!(a, b);
    assert!(a.contains(MAX_MATRIX_BYTES_ENV) && a.contains(&budget.to_string()), "{a}");

    // A reduced engine is charged for its kept points only: correlated
    // data leaves a small skyline, so a population the full dataset
    // could not afford fits.
    let kept = fam::geometry::skyline(&ds).len();
    assert!(kept * 4 <= n, "the skyline keeps {kept} of {n}");
    let fits = budget / (kept * 8);
    refusal(build(&ds, linear(), fits, ReduceKind::None));
    let reduced = build(&ds, linear(), fits, ReduceKind::Skyline).unwrap();
    assert_eq!(reduced.scores().n_points(), kept);
    assert!(reduced.scores().linear_columns().is_some());
    let over = budget / (kept * 8) + 1;
    let a = refusal(build(&ds, linear(), over, ReduceKind::Skyline));
    let b = refusal(build(&ds, cobb(), over, ReduceKind::Skyline));
    assert_eq!(a, b);
    assert!(a.contains(&format!("{over} x {kept}")), "{a}");

    std::env::remove_var(MAX_MATRIX_BYTES_ENV);
}
