//! The registry's delegation contract: every registered solver is
//! **bit-identical** — selection indices, objective bits, algorithm
//! label — to the free function it wraps, for canonical parameters and
//! for every typed override, in serial and forced-parallel execution
//! (the serving layer, CLI, and bench harness all lean on this: answers
//! through the registry must be indistinguishable from direct calls).
//!
//! The checks share process-global execution-mode switches
//! (`par::force_serial` / `par::set_max_threads`), so they run inside
//! one `#[test]` like `parallel_equivalence.rs`.

use fam_algos::{
    add_greedy, add_greedy_from, add_greedy_range, brute_force_with_pruning, cube, dp_2d,
    greedy_shrink, greedy_shrink_range, greedy_shrink_warm, k_hit, local_search, mrr_greedy_exact,
    mrr_greedy_sampled, sky_dom, GreedyShrinkConfig, LocalSearchConfig, Registry, SolverSpec,
    UniformAngleMeasure, UniformBoxMeasure,
};
use fam_core::{par, Dataset, ScoreMatrix, Selection, UniformLinear};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(rng: &mut StdRng, n: usize, n_samples: usize) -> (Dataset, ScoreMatrix) {
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| vec![rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0)]).collect();
    let ds = Dataset::from_rows(rows).unwrap();
    let dist = UniformLinear::new(2).unwrap();
    let m = ScoreMatrix::from_distribution(&ds, &dist, n_samples, rng).unwrap();
    (ds, m)
}

fn assert_same(via_registry: &Selection, direct: &Selection, what: &str) {
    assert_eq!(via_registry.indices, direct.indices, "{what}: indices");
    assert_eq!(via_registry.algorithm, direct.algorithm, "{what}: label");
    assert_eq!(
        via_registry.objective.map(f64::to_bits),
        direct.objective.map(f64::to_bits),
        "{what}: objective bits"
    );
}

/// Every registered solver against its free function, canonical params
/// plus every typed override, on one instance.
fn check_instance(ds: &Dataset, m: &ScoreMatrix, k: usize, mode: &str) {
    let r = Registry::global();
    let spec = |name: &str| SolverSpec::new(name, k);
    let with = |name: &str, pairs: &[(&str, &str)]| SolverSpec::parse(name, k, pairs).unwrap();
    let seed: Vec<usize> = (0..k).map(|i| i * 2).collect();
    let seed_str = seed.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");

    // add-greedy: cold, warm, range.
    let got = r.solve(&spec("add-greedy"), m, Some(ds)).unwrap();
    assert_same(&got.selection, &add_greedy(m, k).unwrap(), &format!("{mode}: add-greedy"));
    let got = r.solve(&with("add-greedy", &[("seed", &seed_str)]), m, Some(ds)).unwrap();
    assert_same(
        &got.selection,
        &add_greedy_from(m, &seed, k).unwrap(),
        &format!("{mode}: add-greedy warm"),
    );
    let got = r.solve_range(&spec("add-greedy"), m, Some(ds), 1..=k).unwrap();
    let direct = add_greedy_range(m, 1..=k).unwrap();
    for (g, d) in got.iter().zip(&direct) {
        assert_same(&g.selection, d, &format!("{mode}: add-greedy range"));
    }

    // greedy-shrink: canonical, eager, naive, warm, range.
    let got = r.solve(&spec("greedy-shrink"), m, Some(ds)).unwrap();
    let direct = greedy_shrink(m, GreedyShrinkConfig::new(k)).unwrap();
    assert_same(&got.selection, &direct.selection, &format!("{mode}: greedy-shrink"));
    assert_eq!(got.note("iterations"), Some(direct.iterations as f64));
    assert_eq!(got.note("arr_evaluations"), Some(direct.arr_evaluations as f64));
    for pairs in [&[("lazy", "false")][..], &[("lazy", "false"), ("cache", "false")][..]] {
        let got = r.solve(&with("greedy-shrink", pairs), m, Some(ds)).unwrap();
        let cfg = GreedyShrinkConfig {
            k,
            best_point_cache: !pairs.contains(&("cache", "false")),
            lazy_pruning: false,
        };
        let direct = greedy_shrink(m, cfg).unwrap();
        assert_same(&got.selection, &direct.selection, &format!("{mode}: greedy-shrink {pairs:?}"));
    }
    let warm_seed: Vec<usize> = (0..m.n_points()).step_by(2).collect();
    if warm_seed.len() >= k {
        let warm_str = warm_seed.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let got = r.solve(&with("greedy-shrink", &[("seed", &warm_str)]), m, Some(ds)).unwrap();
        let direct = greedy_shrink_warm(m, &warm_seed, GreedyShrinkConfig::new(k)).unwrap();
        assert_same(&got.selection, &direct.selection, &format!("{mode}: greedy-shrink warm"));
    }
    let got = r.solve_range(&spec("greedy-shrink"), m, Some(ds), 1..=k).unwrap();
    let direct = greedy_shrink_range(m, 1..=k).unwrap();
    for (g, d) in got.iter().zip(&direct) {
        assert_same(&g.selection, d, &format!("{mode}: greedy-shrink range"));
    }

    // dp-2d under both analytic measures.
    let got = r.solve(&spec("dp-2d"), m, Some(ds)).unwrap();
    let direct = dp_2d(ds, k, &UniformBoxMeasure).unwrap();
    assert_same(&got.selection, &direct.selection, &format!("{mode}: dp-2d box"));
    assert_eq!(got.note("skyline_size"), Some(direct.skyline_size as f64));
    assert_eq!(got.note("states"), Some(direct.states as f64));
    let got = r.solve(&with("dp-2d", &[("measure", "angle")]), m, Some(ds)).unwrap();
    let direct = dp_2d(ds, k, &UniformAngleMeasure).unwrap();
    assert_same(&got.selection, &direct.selection, &format!("{mode}: dp-2d angle"));

    // brute-force, pruned and unpruned.
    for prune in [true, false] {
        let pairs = [("prune", if prune { "true" } else { "false" })];
        let got = r.solve(&with("brute-force", &pairs), m, Some(ds)).unwrap();
        let direct = brute_force_with_pruning(m, k, prune).unwrap();
        assert_same(&got.selection, &direct, &format!("{mode}: brute-force prune={prune}"));
    }

    // cube / k-hit / sky-dom.
    let got = r.solve(&spec("cube"), m, Some(ds)).unwrap();
    assert_same(&got.selection, &cube(ds, k).unwrap(), &format!("{mode}: cube"));
    let got = r.solve(&spec("k-hit"), m, Some(ds)).unwrap();
    assert_same(&got.selection, &k_hit(m, k).unwrap(), &format!("{mode}: k-hit"));
    let got = r.solve(&spec("sky-dom"), m, Some(ds)).unwrap();
    assert_same(&got.selection, &sky_dom(ds, k).unwrap(), &format!("{mode}: sky-dom"));

    // local-search: explicit seed, auto-seed (= polished ADD-GREEDY),
    // and the max-passes cap.
    let cfg = LocalSearchConfig::default();
    let got = r.solve(&with("local-search", &[("seed", &seed_str)]), m, Some(ds)).unwrap();
    let direct = local_search(m, &seed, cfg).unwrap();
    assert_same(&got.selection, &direct.selection, &format!("{mode}: local-search seeded"));
    assert_eq!(got.note("swaps"), Some(direct.swaps as f64));
    assert_eq!(got.note("passes"), Some(direct.passes as f64));
    assert_eq!(got.note("arr_evaluations"), Some(direct.arr_evaluations as f64));
    assert_eq!(got.note("bound_evaluations"), Some(direct.bound_evaluations as f64));
    let got = r.solve(&spec("local-search"), m, Some(ds)).unwrap();
    let auto = add_greedy(m, k).unwrap();
    let direct = local_search(m, &auto.indices, cfg).unwrap();
    assert_same(&got.selection, &direct.selection, &format!("{mode}: local-search auto"));
    let got = r.solve(&with("local-search", &[("max-passes", "1")]), m, Some(ds)).unwrap();
    let direct =
        local_search(m, &auto.indices, LocalSearchConfig { max_passes: 1, ..cfg }).unwrap();
    assert_same(&got.selection, &direct.selection, &format!("{mode}: local-search 1 pass"));

    // mrr-greedy: sampled, the LP registration, and the compat alias.
    let got = r.solve(&spec("mrr-greedy"), m, Some(ds)).unwrap();
    assert_same(
        &got.selection,
        &mrr_greedy_sampled(m, k).unwrap(),
        &format!("{mode}: mrr-greedy sampled"),
    );
    // Every candidate scored once, then between zero and all of the
    // remaining candidates re-scored per later pick.
    let n = m.n_points();
    let evaluations = got.note("regret_evaluations").expect("mrr-greedy reports its scans");
    let exhaustive: usize = (1..k).map(|j| n - j).sum();
    assert!((n - 1) as f64 <= evaluations && evaluations <= exhaustive as f64, "{mode}");
    let direct = mrr_greedy_exact(ds, k).unwrap();
    let got = r.solve(&spec("mrr-greedy-lp"), m, Some(ds)).unwrap();
    assert_same(&got.selection, &direct, &format!("{mode}: mrr-greedy-lp"));
    let got = r.solve(&with("mrr-greedy", &[("exact", "true")]), m, Some(ds)).unwrap();
    assert_same(&got.selection, &direct, &format!("{mode}: mrr-greedy exact alias"));
}

#[test]
fn registry_is_bit_identical_to_free_functions() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..4 {
        let n = rng.gen_range(10usize..24);
        let n_samples = rng.gen_range(40usize..120);
        let k = rng.gen_range(2..=n.min(5));
        let (ds, m) = instance(&mut rng, n, n_samples);
        let bare = m.clone_without_mirror();

        par::force_serial(true);
        check_instance(&ds, &m, k, &format!("trial {trial} serial"));
        check_instance(&ds, &bare, k, &format!("trial {trial} serial bare"));
        par::force_serial(false);

        // Forced 4-worker pool: real spawns even on single-core hosts.
        par::set_max_threads(Some(4));
        check_instance(&ds, &m, k, &format!("trial {trial} parallel"));
        check_instance(&ds, &bare, k, &format!("trial {trial} parallel bare"));
        par::set_max_threads(None);
    }
}

/// On one fixed instance of realistic shape, both pruned solvers report
/// fewer scans than their exhaustive loops spend: MRR-GREEDY scores
/// every unselected candidate for each of its `k − 1` picks, and one
/// local-search pass scores every candidate for each of its `k` members.
/// The counts do not depend on the execution mode, so this test does not
/// touch the mode switches.
#[test]
fn pruned_solvers_report_fewer_scans_than_exhaustive_loops() {
    let mut rng = StdRng::seed_from_u64(1804);
    let (ds, m) = instance(&mut rng, 300, 2_000);
    let (n, k) = (m.n_points(), 10);
    let r = Registry::global();
    for (what, m) in [("mirrored", &m), ("mirrorless", &m.clone_without_mirror())] {
        let got = r.solve(&SolverSpec::new("mrr-greedy", k), m, Some(&ds)).unwrap();
        let evaluations = got.note("regret_evaluations").unwrap();
        let exhaustive: usize = (1..k).map(|j| n - j).sum();
        assert!(evaluations < exhaustive as f64, "{what}: {evaluations} vs {exhaustive}");

        let spec = SolverSpec::parse("local-search", k, &[("max-passes", "1")]).unwrap();
        let got = r.solve(&spec, m, Some(&ds)).unwrap();
        let exact = got.note("arr_evaluations").unwrap();
        let bounds = got.note("bound_evaluations").unwrap();
        let exhaustive = k * (n - k + 1);
        assert_eq!(got.note("passes"), Some(1.0));
        assert!(exact + bounds < exhaustive as f64, "{what}: {exact} + {bounds} vs {exhaustive}");
    }
}
