//! The candidate-reduction subsystem's equivalence contracts, pinned
//! across execution modes:
//!
//! 1. **Skyline soundness** — a skyline-reduced exact solve (dp-2d,
//!    brute-force) is bit-identical in objective to the unreduced solve,
//!    and answers in original ids.
//! 2. **Determinism** — [`Reduction::compute`] and the tiled matrix
//!    build are bit-identical serial vs forced-parallel.
//! 3. **Coreset loss** — the achieved per-sample shortfall of a coreset
//!    reduction stays within the declared `eps` on 2-D instances (the
//!    angular net's spacing shrinks linearly in `eps`, so the circle-arc
//!    instance meets the target with a wide margin).
//! 4. **Remaps round-trip** — original → reduced → original is the
//!    identity on kept ids and a clean error on pruned ones.
//! 5. **Skyline-sourced scoring** — [`Reduction::score_matrix`], which
//!    scores the skyline alone, is bit-identical to the full-stream
//!    `ScoreMatrix::from_functions_tiled` over every point: rows, bests,
//!    weights and all four stats fields, for monotone utility families.
//!
//! The checks share the process-global execution-mode switches
//! (`par::force_serial` / `par::set_max_threads`), so each contract that
//! sweeps modes runs inside one `#[test]` like `parallel_equivalence.rs`.

use std::sync::Arc;

use fam_algos::{Registry, SolverSpec};
use fam_core::{
    par, CobbDouglasDistribution, Dataset, ScoreMatrix, SimplexLinear, UniformLinear,
    UtilityDistribution, UtilityFunction,
};
use fam_data::{synthetic, Correlation};
use fam_reduce::{ReduceSpec, Reduction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Anti-correlated circle arc (strictly positive, separated optima —
/// bit-identity is well-defined) plus dominated interior points.
fn arc_instance(rng: &mut StdRng, arc: usize, interior: usize) -> Dataset {
    let mut rows: Vec<Vec<f64>> = (0..arc)
        .map(|i| {
            let t = std::f64::consts::FRAC_PI_2 * (i as f64 + 0.5) / arc as f64;
            vec![t.cos(), t.sin()]
        })
        .collect();
    rows.extend((0..interior).map(|_| vec![rng.gen_range(0.05..0.5), rng.gen_range(0.05..0.5)]));
    Dataset::from_rows(rows).unwrap()
}

fn scored(ds: &Dataset, n_samples: usize, seed: u64) -> ScoreMatrix {
    let dist = UniformLinear::new(ds.dim()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    ScoreMatrix::from_distribution(ds, &dist, n_samples, &mut rng).unwrap()
}

#[test]
fn skyline_reduced_exact_solves_are_bit_identical_across_modes() {
    let mut rng = StdRng::seed_from_u64(9);
    let ds = arc_instance(&mut rng, 18, 12);
    let m = scored(&ds, 90, 10);
    let r = Registry::global();
    let mut baselines: Vec<(String, Vec<usize>, u64)> = Vec::new();
    for parallel in [false, true] {
        if parallel {
            par::set_max_threads(Some(4));
        } else {
            par::force_serial(true);
        }
        for (name, k) in [("dp-2d", 2), ("dp-2d", 3), ("brute-force", 2)] {
            let plain = r.solve(&SolverSpec::new(name, k), &m, Some(&ds)).unwrap();
            let spec = SolverSpec::parse(name, k, &[("reduce", "skyline")]).unwrap();
            let reduced = r.solve(&spec, &m, Some(&ds)).unwrap();
            let mode = format!("{name} k={k} parallel={parallel}");
            assert_eq!(
                plain.selection.objective.unwrap().to_bits(),
                reduced.selection.objective.unwrap().to_bits(),
                "{mode}: objective bits"
            );
            assert_eq!(plain.selection.indices, reduced.selection.indices, "{mode}: ids");
            assert_eq!(reduced.note("reduced_from"), Some(30.0), "{mode}");
            assert_eq!(reduced.note("reduced_to"), Some(18.0), "{mode}: arc = skyline");
            // The answer is identical across modes too.
            baselines.push((mode.clone(), reduced.selection.indices.clone(), {
                reduced.selection.objective.unwrap().to_bits()
            }));
        }
        if parallel {
            par::set_max_threads(None);
        } else {
            par::force_serial(false);
        }
    }
    let (serial, parallel) = baselines.split_at(3);
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.1, p.1, "{} vs {}: indices across modes", s.0, p.0);
        assert_eq!(s.2, p.2, "{} vs {}: objective bits across modes", s.0, p.0);
    }
}

#[test]
fn reduction_and_tiled_build_are_deterministic_across_modes() {
    let mut rng = StdRng::seed_from_u64(31);
    let ds = arc_instance(&mut rng, 24, 16);
    let dist = UniformLinear::new(2).unwrap();
    for spec in [ReduceSpec::skyline(), ReduceSpec::coreset(0.1)] {
        par::force_serial(true);
        let serial = Reduction::compute(&ds, spec).unwrap();
        par::force_serial(false);
        par::set_max_threads(Some(4));
        let parallel = Reduction::compute(&ds, spec).unwrap();
        par::set_max_threads(None);
        assert_eq!(serial.kept(), parallel.kept(), "{}: kept set", spec.fingerprint());

        // The tiled build over the kept universe is bit-identical serial
        // vs parallel, and bit-identical to the dense build on the
        // materialized subset (same RNG stream on all three).
        par::force_serial(true);
        let mut r1 = StdRng::seed_from_u64(77);
        let (a, stats) =
            ScoreMatrix::from_distribution_tiled(&ds, &dist, 60, &mut r1, serial.kept()).unwrap();
        par::force_serial(false);
        par::set_max_threads(Some(4));
        let mut r2 = StdRng::seed_from_u64(77);
        let (b, _) =
            ScoreMatrix::from_distribution_tiled(&ds, &dist, 60, &mut r2, serial.kept()).unwrap();
        par::set_max_threads(None);
        let mut r3 = StdRng::seed_from_u64(77);
        let dense =
            ScoreMatrix::from_distribution(&ds.subset(serial.kept()).unwrap(), &dist, 60, &mut r3)
                .unwrap();
        for u in 0..60 {
            assert_eq!(a.row(u), b.row(u), "{}: row {u} serial vs parallel", spec.fingerprint());
            assert_eq!(a.row(u), dense.row(u), "{}: row {u} tiled vs dense", spec.fingerprint());
        }
        assert_eq!(stats.source_points, 40);
        assert_eq!(stats.kept_points, serial.kept().len());
        match spec.kind {
            fam_core::ReduceKind::Skyline => {
                assert_eq!(stats.max_shortfall, 0.0, "a skyline keep loses nothing")
            }
            // The angular net meets its declared target on the arc.
            _ => assert!(stats.max_shortfall <= spec.eps, "{}", stats.max_shortfall),
        }
    }
}

#[test]
fn remaps_round_trip_and_reject_pruned_ids() {
    let mut rng = StdRng::seed_from_u64(63);
    let ds = arc_instance(&mut rng, 15, 10);
    let reduction = Reduction::compute(&ds, ReduceSpec::skyline()).unwrap();
    let kept = reduction.kept().to_vec();
    assert_eq!(kept, (0..15).collect::<Vec<_>>(), "the arc is exactly the skyline");
    // original -> reduced -> original is the identity on kept ids.
    let reduced = reduction.to_reduced(&kept).unwrap();
    assert_eq!(reduced, (0..15).collect::<Vec<_>>());
    for (pos, &orig) in kept.iter().enumerate() {
        assert_eq!(reduction.to_reduced(&[orig]).unwrap(), vec![pos]);
    }
    // A pruned (interior) id is a clean error, not an index panic.
    assert!(reduction.to_reduced(&[20]).is_err());
    assert!(reduction.to_reduced(&[99]).is_err());
}

/// Asserts two builds agree bit for bit: rows, bests, weights, stats.
fn assert_same_build(
    what: &str,
    (a, sa): &(ScoreMatrix, fam_core::TiledBuildStats),
    (b, sb): &(ScoreMatrix, fam_core::TiledBuildStats),
) {
    assert_eq!((a.n_samples(), a.n_points()), (b.n_samples(), b.n_points()), "{what}: shape");
    for u in 0..a.n_samples() {
        assert_eq!(a.row(u), b.row(u), "{what}: row {u}");
        assert_eq!(a.best_index(u), b.best_index(u), "{what}: best index {u}");
        assert_eq!(a.best_value(u).to_bits(), b.best_value(u).to_bits(), "{what}: best {u}");
        assert_eq!(a.weight(u).to_bits(), b.weight(u).to_bits(), "{what}: weight {u}");
    }
    assert_eq!((sa.source_points, sa.kept_points), (sb.source_points, sb.kept_points), "{what}");
    assert_eq!(sa.max_shortfall.to_bits(), sb.max_shortfall.to_bits(), "{what}: max shortfall");
    assert_eq!(sa.mean_shortfall.to_bits(), sb.mean_shortfall.to_bits(), "{what}: mean shortfall");
}

#[test]
fn skyline_sourced_scoring_equals_the_full_stream_across_modes() {
    let correlations =
        [Correlation::Independent, Correlation::Correlated, Correlation::AntiCorrelated];
    let specs = [ReduceSpec::skyline(), ReduceSpec::coreset(0.05), ReduceSpec::coreset(0.2)];
    let mut lossy = 0;
    for parallel in [false, true] {
        if parallel {
            par::set_max_threads(Some(4));
        } else {
            par::force_serial(true);
        }
        for dim in 2..=4 {
            let dists: [(&str, Box<dyn UtilityDistribution>); 3] = [
                ("uniform", Box::new(UniformLinear::new(dim).unwrap())),
                ("simplex", Box::new(SimplexLinear::new(dim).unwrap())),
                ("cobb-douglas", Box::new(CobbDouglasDistribution::new(dim).unwrap())),
            ];
            for (c, &corr) in correlations.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(100 * dim as u64 + c as u64);
                let ds = synthetic(2_000, dim, corr, &mut rng).unwrap();
                for spec in specs {
                    let r = Reduction::compute(&ds, spec).unwrap();
                    for (name, dist) in &dists {
                        let mut rng = StdRng::seed_from_u64(7);
                        let functions: Vec<Arc<dyn UtilityFunction>> =
                            (0..120).map(|_| dist.sample(&mut rng)).collect();
                        let what = format!(
                            "d={dim} {corr:?} {} {name} parallel={parallel}",
                            spec.fingerprint()
                        );
                        let sourced = r.score_matrix(&ds, &functions).unwrap();
                        let full =
                            ScoreMatrix::from_functions_tiled(&ds, &functions, None, r.kept())
                                .unwrap();
                        assert_same_build(&what, &sourced, &full);
                        assert_eq!(sourced.1.source_points, ds.len(), "{what}");
                        if sourced.1.mean_shortfall > 0.0 {
                            lossy += 1;
                        }
                    }
                }
            }
        }
        if parallel {
            par::set_max_threads(None);
        } else {
            par::force_serial(false);
        }
    }
    assert!(lossy > 0, "some coreset must lose something, or the stats checks are vacuous");
}
