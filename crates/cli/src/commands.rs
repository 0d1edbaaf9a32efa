//! The CLI commands. Each returns its report as a `String` so the tests
//! can assert on output without spawning processes.

use std::path::Path;
// Explicit import wins over the prelude's `Result<T> = Result<T, FamError>` alias.
use std::result::Result;

use fam::prelude::*;
use fam::regret;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::ParsedArgs;

fn seeded(a: &ParsedArgs) -> Result<StdRng, String> {
    Ok(StdRng::seed_from_u64(a.parsed_or("seed", 42u64)?))
}

fn load(a: &ParsedArgs) -> Result<Dataset, String> {
    let path = a.required("data")?;
    fam::data::read_csv(Path::new(path), a.switch("labelled")).map_err(|e| e.to_string())
}

fn make_dist(a: &ParsedArgs, dim: usize) -> Result<Box<dyn UtilityDistribution>, String> {
    match a.optional("dist").unwrap_or("uniform") {
        "uniform" => Ok(Box::new(UniformLinear::new(dim).map_err(|e| e.to_string())?)),
        "simplex" => Ok(Box::new(SimplexLinear::new(dim).map_err(|e| e.to_string())?)),
        other => Err(format!("unknown --dist `{other}` (uniform|simplex)")),
    }
}

fn sigma_of(a: &ParsedArgs) -> Result<f64, String> {
    a.parsed_or("sigma", fam::DEFAULT_SIGMA)
}

fn sample_count(a: &ParsedArgs) -> Result<usize, String> {
    if let Some(eps) = a.optional("epsilon") {
        let eps: f64 = eps.parse().map_err(|_| "cannot parse --epsilon".to_string())?;
        let sigma = sigma_of(a)?;
        return Ok(chernoff_sample_size(eps, sigma).map_err(|e| e.to_string())? as usize);
    }
    a.parsed_or("samples", 2_000usize)
}

/// [`sample_count`] plus the matrix footprint guard: a `--epsilon` tight
/// enough to imply a multi-terabyte `N × n` matrix (or any count over
/// `FAM_MAX_MATRIX_BYTES`) fails with a clean usage error before the
/// allocator can abort the process.
fn checked_sample_count(a: &ParsedArgs, n_points: usize) -> Result<usize, String> {
    let n = sample_count(a)?;
    fam::check_matrix_budget(n, n_points).map_err(|e| e.to_string())?;
    Ok(n)
}

/// `fam generate` — write a synthetic dataset to CSV.
///
/// # Errors
///
/// Returns usage or I/O errors as strings.
pub fn generate(a: &ParsedArgs) -> Result<String, String> {
    let out = a.required("out")?;
    let n: usize = a.parsed("n")?;
    let d: usize = a.parsed("d")?;
    let corr = match a.optional("corr").unwrap_or("anti") {
        "indep" | "independent" => Correlation::Independent,
        "corr" | "correlated" => Correlation::Correlated,
        "anti" | "anticorrelated" => Correlation::AntiCorrelated,
        other => return Err(format!("unknown --corr `{other}` (indep|corr|anti)")),
    };
    let mut rng = seeded(a)?;
    let ds = synthetic(n, d, corr, &mut rng).map_err(|e| e.to_string())?;
    fam::data::write_csv(&ds, Path::new(out)).map_err(|e| e.to_string())?;
    Ok(format!("wrote {n} points x {d} dims ({corr:?}) to {out}"))
}

/// `fam skyline` — report the skyline of a CSV dataset.
///
/// # Errors
///
/// Returns usage or I/O errors as strings.
pub fn skyline_cmd(a: &ParsedArgs) -> Result<String, String> {
    let ds = load(a)?;
    let sky = skyline(&ds);
    let mut out = format!("n = {}, skyline = {} points\n", ds.len(), sky.len());
    let shown: Vec<String> = sky.iter().take(50).map(|i| i.to_string()).collect();
    out.push_str(&format!(
        "indices: {}{}",
        shown.join(","),
        if sky.len() > 50 { ",…" } else { "" }
    ));
    Ok(out)
}

/// Formats a finished solver run: algorithm, selection (+ labels),
/// solver objective and instrumentation notes, then an honest fresh-
/// sample evaluation. Shared by `fam select` and `fam solve`.
/// `eval_indices` are the column indices valid in `fresh` — identical to
/// the selection except on the reduced path, where the selection holds
/// original ids but `fresh` only has the kept columns.
fn solver_report(
    ds: &Dataset,
    out: &fam::SolveOutput,
    fresh: &dyn ScoreSource,
    eval_indices: &[usize],
    n_samples: usize,
    sigma: f64,
) -> Result<String, String> {
    let selection = &out.selection;
    let mut report = format!(
        "algorithm: {}\nselected ({}): {:?}\n",
        selection.algorithm,
        selection.len(),
        selection.indices
    );
    if ds.label(0).is_some() {
        let names: Vec<&str> = selection.indices.iter().filter_map(|&i| ds.label(i)).collect();
        report.push_str(&format!("labels: {names:?}\n"));
    }
    if let Some(obj) = selection.objective {
        report.push_str(&format!("solver objective: {obj:.6}\n"));
    }
    for (name, value) in &out.notes {
        report.push_str(&format!("{name}: {value}\n"));
    }
    let rep = regret::report(fresh, eval_indices).map_err(|e| e.to_string())?;
    let achieved = chernoff_epsilon(n_samples as u64, sigma).map_err(|e| e.to_string())?;
    report.push_str(&format!(
        "arr = {:.6}, rr std-dev = {:.6}, sampled mrr = {:.6} (fresh N = {n_samples})\n\
         achieved eps = {achieved:.6} at confidence {:.4} (Theorem 4)\n\
         query time: {:?}",
        rep.arr,
        rep.std_dev,
        rep.mrr,
        1.0 - sigma,
        selection.query_time
    ));
    Ok(report)
}

/// `fam select` — run a FAM algorithm on a CSV dataset.
///
/// Dispatches through the same registry as `fam solve`, keeping the
/// subcommand's historical spellings as a compatibility mapping: `dp` is
/// the registry's `dp-2d`, and `mrr-greedy` stays the LP-exact variant
/// (the registry's `mrr-greedy-lp`; `fam solve --algo mrr-greedy` is the
/// sampled one).
///
/// # Errors
///
/// Returns usage, I/O, or solver errors as strings.
pub fn select(a: &ParsedArgs) -> Result<String, String> {
    let ds = load(a)?;
    let k: usize = a.parsed("k")?;
    let n_samples = checked_sample_count(a, ds.len())?;
    let algo = a.optional("algo").unwrap_or("greedy-shrink");
    let mut rng = seeded(a)?;

    let spec = match algo {
        "dp" => fam::SolverSpec::new("dp-2d", k),
        "mrr-greedy" => fam::SolverSpec::new("mrr-greedy-lp", k),
        "greedy-shrink" | "add-greedy" | "sky-dom" | "k-hit" | "brute-force" => {
            fam::SolverSpec::new(algo, k)
        }
        other => return Err(format!("unknown --algo `{other}`")),
    };

    let registry = fam::Registry::global();
    let needs_matrix =
        registry.require(&spec.name).map_err(|e| e.to_string())?.capabilities().needs_matrix;
    let make_scores = |rng: &mut StdRng| -> Result<ScoreBacking, String> {
        let dist = make_dist(a, ds.dim())?;
        ScoreBacking::sample(&ds, dist.as_ref(), n_samples, rng).map_err(|e| e.to_string())
    };

    // Coordinate-only solvers skip the solve-time scoring pass entirely:
    // the fresh evaluation scores double as the (unread) context scores.
    let (out, fresh) = if needs_matrix {
        let m = make_scores(&mut rng)?;
        let out = registry.solve(&spec, m.source(), Some(&ds)).map_err(|e| e.to_string())?;
        // Evaluate on a fresh sample for honesty.
        (out, make_scores(&mut rng)?)
    } else {
        let fresh = make_scores(&mut rng)?;
        let out = registry.solve(&spec, fresh.source(), Some(&ds)).map_err(|e| e.to_string())?;
        (out, fresh)
    };
    solver_report(&ds, &out, fresh.source(), &out.selection.indices, n_samples, sigma_of(a)?)
}

/// `fam solve` — run any registered algorithm by name through the
/// unified solver registry, with typed parameters via `--param key=val`
/// (the same parser the HTTP server applies to `/solve` query
/// parameters).
///
/// # Errors
///
/// Returns usage, I/O, or solver errors as strings — including a list of
/// every registered name when `--algo` is unknown.
pub fn solve(a: &ParsedArgs) -> Result<String, String> {
    let ds = load(a)?;
    let k: usize = a.parsed("k")?;
    let algo = a.optional("algo").unwrap_or("greedy-shrink");
    let spec = fam::SolverSpec::parse_args(algo, k, &a.all("param")).map_err(|e| e.to_string())?;
    if spec.params.reduce != ReduceKind::None {
        return solve_reduced(a, &ds, &spec);
    }
    let n_samples = checked_sample_count(a, ds.len())?;
    let mut rng = seeded(a)?;
    let dist = make_dist(a, ds.dim())?;
    let registry = fam::Registry::global();
    let needs_matrix =
        registry.require(&spec.name).map_err(|e| e.to_string())?.capabilities().needs_matrix;
    let mut make_scores =
        || ScoreBacking::sample(&ds, dist.as_ref(), n_samples, &mut rng).map_err(|e| e.to_string());
    // Coordinate-only solvers skip the solve-time scoring pass: the
    // fresh evaluation scores double as the (unread) context scores.
    let (out, fresh) = if needs_matrix {
        let m = make_scores()?;
        let out = registry.solve(&spec, m.source(), Some(&ds)).map_err(|e| e.to_string())?;
        // Evaluate on a fresh sample for honesty.
        (out, make_scores()?)
    } else {
        let fresh = make_scores()?;
        let out = registry.solve(&spec, fresh.source(), Some(&ds)).map_err(|e| e.to_string())?;
        (out, fresh)
    };
    solver_report(&ds, &out, fresh.source(), &out.selection.indices, n_samples, sigma_of(a)?)
}

/// The `--param reduce=skyline|coreset` path of `fam solve`: gate the
/// solver ([`fam::Registry::check_reducible`]) and compute the candidate
/// reduction on coordinates first, then score the population
/// *over the kept points only*, from the skyline ([`reduced_build`]) —
/// no dominated point is scored, no `N × n` scores are ever resident,
/// and the `FAM_MAX_MATRIX_BYTES` budget is applied to `N × kept`.
/// This is what lets `fam solve` answer on million-point datasets whose
/// unreduced build would exceed the budget. The request then runs in the
/// kept universe through [`fam::Registry::solve_reduced`], which gates
/// it and answers in original point ids.
fn solve_reduced(a: &ParsedArgs, ds: &Dataset, spec: &fam::SolverSpec) -> Result<String, String> {
    let registry = fam::Registry::global();
    registry.check_reducible(&spec.name, spec.params.reduce).map_err(|e| e.to_string())?;
    let reduce_spec = fam::ReduceSpec::from_params(&spec.params);
    let reduction = fam::Reduction::compute(ds, reduce_spec).map_err(|e| e.to_string())?;
    let n_samples = sample_count(a)?;
    let mut rng = seeded(a)?;
    let dist = make_dist(a, ds.dim())?;
    let (m, stats) = reduced_build(&reduction, ds, dist.as_ref(), n_samples, &mut rng)?;
    let kept_ds = reduction.restrict_dataset(ds).map_err(|e| e.to_string())?;
    let mut inner = spec.clone();
    inner.params.reduce = ReduceKind::None;
    let out = registry
        .solve_reduced(&inner, m.source(), Some(&kept_ds), &reduction)
        .map_err(|e| e.to_string())?;
    // Evaluate on a fresh sample (same kept universe) for honesty.
    let (fresh, _) = reduced_build(&reduction, ds, dist.as_ref(), n_samples, &mut rng)?;
    let columns =
        reduction.columns(&out.selection.indices, "selection").map_err(|e| e.to_string())?;
    let sigma = sigma_of(a)?;
    let mut report = solver_report(ds, &out, fresh.source(), &columns, n_samples, sigma)?;
    report.push_str(&format!(
        "\nreduction: {} kept {} of {} points ({:.4}% of the database), \
         build max shortfall = {:.6}, mean = {:.6}",
        reduction.fingerprint(),
        stats.kept_points,
        stats.source_points,
        100.0 * reduction.kept_fraction(),
        stats.max_shortfall,
        stats.mean_shortfall,
    ));
    Ok(report)
}

/// One reduced build, as [`fam::Engine`] makes it: `n_samples`
/// functions drawn from `dist` ([`fam::core::sample_functions`], the
/// draws of `ScoreMatrix::from_distribution`), scored from the skyline
/// in the backing [`fam::Reduction::backing`] picks. The budget is
/// charged for the *reduced* universe; `checked_sample_count` over the
/// full `n` would reject exactly the datasets reduction exists to serve.
fn reduced_build(
    reduction: &fam::Reduction,
    ds: &Dataset,
    dist: &dyn UtilityDistribution,
    n_samples: usize,
    rng: &mut StdRng,
) -> Result<(ScoreBacking, fam::TiledBuildStats), String> {
    let functions = fam::core::sample_functions(dist, n_samples, reduction.kept().len(), rng)
        .map_err(|e| e.to_string())?;
    reduction.backing(ds, &functions).map_err(|e| e.to_string())
}

/// `fam algos` — list the solver registry with per-algorithm
/// capabilities (the CLI twin of the server's `GET /algos`).
pub fn algos() -> String {
    let mut out = format!(
        "{:<14}{:<11}{:>11}{:>9}{:>10}{:>7}{:>9}\n",
        "name", "kind", "warm-start", "range", "dataset", "dim", "reduce"
    );
    for solver in fam::Registry::global().iter() {
        let caps = solver.capabilities();
        out.push_str(&format!(
            "{:<14}{:<11}{:>11}{:>9}{:>10}{:>7}{:>9}\n",
            solver.name(),
            if caps.exact { "exact" } else { "heuristic" },
            if caps.warm_start { "yes" } else { "-" },
            if caps.range_harvest { "yes" } else { "-" },
            if caps.needs_dataset { "needed" } else { "-" },
            caps.dimension.map_or("any".to_string(), |d| d.to_string()),
            caps.reducible.name(),
        ));
    }
    out.push_str("params: --param seed=i,j,.. measure=box|angle max-passes=N ");
    out.push_str("prune|lazy|cache|exact=true|false ");
    out.push_str("reduce=none|skyline|coreset reduce-eps=E");
    out
}

/// `fam evaluate` — score an explicit selection.
///
/// # Errors
///
/// Returns usage, I/O, or evaluation errors as strings.
pub fn evaluate(a: &ParsedArgs) -> Result<String, String> {
    let ds = load(a)?;
    let selection = a.index_list("selection")?;
    let n_samples = checked_sample_count(a, ds.len())?;
    let mut rng = seeded(a)?;
    let dist = UniformLinear::new(ds.dim()).map_err(|e| e.to_string())?;
    let scores =
        ScoreBacking::sample(&ds, &dist, n_samples, &mut rng).map_err(|e| e.to_string())?;
    let m = scores.source();
    let rep = regret::report(m, &selection).map_err(|e| e.to_string())?;
    let pct =
        regret::rr_percentiles(m, &selection, &[70.0, 90.0, 99.0]).map_err(|e| e.to_string())?;
    Ok(format!(
        "selection {:?}\narr = {:.6}\nvrr = {:.6}\nrr std-dev = {:.6}\nsampled mrr = {:.6}\n\
         rr @ p70/p90/p99 = {:.6}/{:.6}/{:.6}",
        selection, rep.arr, rep.vrr, rep.std_dev, rep.mrr, pct[0], pct[1], pct[2]
    ))
}

/// `fam refine` — the progressive-precision driver: solve coarse at
/// `--initial` samples, double the sample population in place with
/// warm-started repair until the Chernoff bound for `--epsilon`
/// (confidence `1 - --sigma`) is met, and finish with a canonical cold
/// solve — bit-identical to a cold solve at the final `N`. Prints the
/// per-round convergence trajectory (N, achieved ε, arr).
///
/// # Errors
///
/// Returns usage, I/O, or driver errors as strings.
pub fn refine_cmd(a: &ParsedArgs) -> Result<String, String> {
    let ds = load(a)?;
    let k: usize = a.parsed("k")?;
    let epsilon: f64 = a.parsed("epsilon")?;
    let sigma = sigma_of(a)?;
    let mut cfg = fam::RefineConfig::new(k, epsilon, sigma).map_err(|e| e.to_string())?;
    cfg.initial_samples = a.parsed_or("initial", cfg.initial_samples)?;
    cfg.churn = a.parsed_or("churn", cfg.churn)?;
    if let Some(algo) = a.optional("algo") {
        cfg.solver = algo.to_string();
    }
    let dist = make_dist(a, ds.dim())?;
    let mut rng = seeded(a)?;
    let out = fam::refine(&ds, dist.as_ref(), &mut rng, &cfg).map_err(|e| e.to_string())?;
    let mut report = format!(
        "target: eps = {epsilon} at confidence {:.4} => N* = {} (n = {}, k = {k}, {})\n",
        1.0 - sigma,
        out.target_samples,
        ds.len(),
        cfg.solver,
    );
    for round in &out.rounds {
        report.push_str(&format!(
            "  N = {:>9}  eps = {:.6}  selection = {:?}  arr = {:.6}  [{}]\n",
            round.n_samples,
            round.epsilon,
            round.selection,
            round.arr,
            if round.warm { "warm repair" } else { "cold solve" }
        ));
    }
    report.push_str(&format!(
        "final: selection = {:?}, arr = {:.6}, achieved eps = {:.6} at N = {}\n\
         (bit-identical to a cold {} solve at the final N)",
        out.selection.indices,
        out.selection.objective.unwrap_or(f64::NAN),
        out.achieved_epsilon,
        out.n_samples,
        cfg.solver,
    ));
    Ok(report)
}

/// `fam replay` (alias `update`) — stream insert/delete batches over a
/// base dataset and print the ADD-GREEDY answer after each batch.
///
/// Builds the [`fam::serve::DatasetService`] `fam serve` builds from the
/// same flags (`--samples`/`--epsilon`/`--sigma`, `--seed`, `--dist`),
/// caching `k` only, and applies the stream in batches of `--batch` ops
/// through [`fam::serve::DatasetService::apply_ops`], which re-harvests
/// the cache cold on the updated database. So every answer equals the
/// one `fam serve` gives for the same op stream, whatever its
/// `--cache-k` range. Update-op streams parse through the shared
/// `fam::data::ops` module, which rejects malformed lines with the file
/// path and 1-based line number; delete indices refer to the point set
/// at the start of their batch (deletion uses swap-remove order — the
/// then-last point fills each freed slot — and inserts append at the
/// end). `arr` prints in shortest round-trip form, as the server's JSON
/// does, so the two compare bit for bit. `--verify` checks every cached
/// answer against a cold registry solve on the current scores after the
/// build and after each batch.
///
/// # Errors
///
/// Returns usage, I/O, parse, or update errors as strings.
pub fn replay(a: &ParsedArgs) -> Result<String, String> {
    let path = a.required("data")?;
    let ds = load(a)?;
    let k: usize = a.parsed("k")?;
    let batch_size: usize = a.parsed_or("batch", 16usize)?;
    if batch_size == 0 {
        return Err("--batch must be at least 1".into());
    }
    // Parse the whole update stream before paying for the build: a
    // malformed ops file should fail in milliseconds, not after the
    // O(n·N) harvest.
    let ops = fam::data::read_update_ops(Path::new(a.required("updates")?), ds.dim())
        .map_err(|e| e.to_string())?;
    let opts = population_options(a, k..=k)?;
    let mut svc = fam::serve::DatasetService::build(path, &ds, &opts).map_err(|e| e.to_string())?;
    let verify = a.switch("verify");
    let (mut selection, mut arr) = cached_answer(&svc, k)?;
    let mut out = format!(
        "base: n = {}, N = {}, k = {k}\ninitial selection: {selection:?} (arr = {arr})\n",
        ds.len(),
        svc.n_samples()
    );
    if verify {
        verify_cache(&svc, k).map_err(|e| format!("initial: {e}"))?;
        out.push_str("initial: verified bit-identical to cold solve\n");
    }
    for (i, chunk) in ops.chunks(batch_size).enumerate() {
        let summary = svc.apply_ops(chunk).map_err(|e| format!("batch {i}: {e}"))?;
        (selection, arr) = cached_answer(&svc, k)?;
        out.push_str(&format!(
            "batch {i}: +{} -{} -> n = {}, arr = {arr}, selection = {selection:?} \
             ({} cache entries re-harvested)\n",
            summary.inserted, summary.deleted, summary.n_points, summary.cache_entries,
        ));
        if verify {
            verify_cache(&svc, k).map_err(|e| format!("batch {i}: {e}"))?;
            out.push_str(&format!("batch {i}: verified bit-identical to cold solve\n"));
        }
    }
    out.push_str(&format!(
        "final: n = {}, arr = {arr}, selection = {selection:?} after {} batches",
        svc.n_points(),
        svc.updates()
    ));
    Ok(out)
}

/// The cached ADD-GREEDY answer at `k`: its sorted indices and `arr`.
fn cached_answer(svc: &fam::serve::DatasetService, k: usize) -> Result<(Vec<usize>, f64), String> {
    let (hit, _) = svc.solve(&fam::SolverSpec::new("add-greedy", k)).map_err(|e| e.to_string())?;
    Ok((hit.indices, hit.arr))
}

/// `--verify`: every cached answer at `k` (one per range-harvesting
/// solver) equals a cold registry solve on the service's current scores,
/// indices and `arr` bits alike.
fn verify_cache(svc: &fam::serve::DatasetService, k: usize) -> Result<(), String> {
    let registry = fam::Registry::global();
    for solver in registry.iter().filter(|s| s.capabilities().range_harvest) {
        let spec = fam::SolverSpec::new(solver.name(), k);
        let (hit, cached) = svc.solve(&spec).map_err(|e| e.to_string())?;
        let cold =
            registry.solve(&spec, svc.matrix(), Some(svc.dataset())).map_err(|e| e.to_string())?;
        let mut indices = cold.selection.indices;
        indices.sort_unstable();
        let arr = cold.selection.objective;
        if !cached || hit.indices != indices || arr.map(f64::to_bits) != Some(hit.arr.to_bits()) {
            return Err(format!(
                "cached {} answer {:?} (arr {}) differs from the cold solve {indices:?} \
                 (arr {arr:?})",
                solver.name(),
                hit.indices,
                hit.arr
            ));
        }
    }
    Ok(())
}

/// Parses a `--cache-k` spec: `LO..HI` (inclusive) or a bare `HI`
/// meaning `1..HI`.
fn parse_cache_k(spec: &str) -> Result<std::ops::RangeInclusive<usize>, String> {
    let parse =
        |s: &str| s.trim().parse::<usize>().map_err(|_| format!("--cache-k: `{s}` is not a size"));
    match spec.split_once("..") {
        Some((lo, hi)) => Ok(parse(lo)?..=parse(hi)?),
        None => Ok(1..=parse(spec)?),
    }
}

/// The population flags `fam serve` and `fam replay` share
/// (`--samples`/`--epsilon`/`--sigma`, `--seed`, `--dist`) as service
/// options caching `cache_k`, with no reduction: two services built from
/// the same flags sample the same functions.
fn population_options(
    a: &ParsedArgs,
    cache_k: std::ops::RangeInclusive<usize>,
) -> Result<fam::serve::ServeOptions, String> {
    let dist_name = a.optional("dist").unwrap_or("uniform");
    let dist = fam::serve::DistKind::parse(dist_name)
        .ok_or_else(|| format!("unknown --dist `{dist_name}` (uniform|simplex)"))?;
    Ok(fam::serve::ServeOptions {
        samples: sample_count(a)?,
        seed: a.parsed_or("seed", 42u64)?,
        dist,
        cache_k,
        sigma: sigma_of(a)?,
        reduce: fam::ReduceSpec::none(),
    })
}

/// Builds the per-dataset services for `fam serve`: one per `--data`
/// flag, named by file stem.
fn build_services(a: &ParsedArgs) -> Result<Vec<fam::serve::DatasetService>, String> {
    let paths = a.all("data");
    if paths.is_empty() {
        return Err("missing required flag --data (repeatable)".into());
    }
    let cache_k = parse_cache_k(a.optional("cache-k").unwrap_or("1..10"))?;
    let labelled = a.switch("labelled");
    let mut opts = population_options(a, cache_k)?;
    opts.reduce = match a.optional("reduce").unwrap_or("none") {
        "none" => fam::ReduceSpec::none(),
        "skyline" => fam::ReduceSpec::skyline(),
        "coreset" => fam::ReduceSpec::coreset(
            a.parsed_or("reduce-eps", fam::core::solve::DEFAULT_REDUCE_EPS)?,
        ),
        other => return Err(format!("unknown --reduce `{other}` (none|skyline|coreset)")),
    };
    let mut services = Vec::with_capacity(paths.len());
    for path in paths {
        let p = Path::new(path);
        let name = p
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("--data {path}: cannot derive a dataset name"))?;
        let ds = fam::data::read_csv(p, labelled).map_err(|e| e.to_string())?;
        services.push(
            fam::serve::DatasetService::build(name, &ds, &opts)
                .map_err(|e| format!("--data {path}: {e}"))?,
        );
    }
    Ok(services)
}

/// Parses the admission-control flags shared by `fam serve` into
/// [`fam::serve::ServerOptions`].
fn server_options(a: &ParsedArgs) -> Result<fam::serve::ServerOptions, String> {
    let defaults = fam::serve::ServerOptions::default();
    let workers: usize = a.parsed_or("workers", fam::serve::DEFAULT_WORKERS)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let default_deadline_ms = match a.optional("deadline-ms") {
        None => None,
        Some(v) => {
            Some(v.parse::<u64>().map_err(|_| format!("--deadline-ms: `{v}` is not a number"))?)
        }
    };
    let max_requests_per_conn: u64 =
        a.parsed_or("keepalive-requests", defaults.max_requests_per_conn)?;
    if max_requests_per_conn == 0 {
        return Err("--keepalive-requests must be at least 1".into());
    }
    let idle_ms: u64 = a.parsed_or("idle-ms", defaults.idle_timeout.as_millis() as u64)?;
    Ok(fam::serve::ServerOptions {
        workers,
        max_pending: a.parsed_or("max-pending", defaults.max_pending)?,
        default_deadline_ms,
        max_requests_per_conn,
        idle_timeout: std::time::Duration::from_millis(idle_ms.max(1)),
        retry_after_secs: a.parsed_or("retry-after", defaults.retry_after_secs)?,
    })
}

/// `fam serve` — host datasets over HTTP (see the `fam-serve` crate).
///
/// Blocks until shut down (`Ctrl-C` in practice; tests drive the server
/// through the library API instead). Prints the bound address to stdout
/// before serving so scripts can poll it.
///
/// # Errors
///
/// Returns usage, I/O, or service-construction errors as strings.
pub fn serve(a: &ParsedArgs) -> Result<String, String> {
    let services = build_services(a)?;
    let port: u16 = a.parsed_or("port", 0u16)?;
    // Loopback by default: /update mutates the database and the server
    // has no authentication, so exposing it beyond the host must be an
    // explicit decision (`--bind 0.0.0.0`).
    let bind = a.optional("bind").unwrap_or("127.0.0.1").to_string();
    let opts = server_options(a)?;
    let workers = opts.workers;
    let names: Vec<String> = services.iter().map(|s| s.name().to_string()).collect();
    let server = fam::serve::Server::bind_with((bind.as_str(), port), services, opts)
        .map_err(|e| format!("bind {bind}:{port}: {e}"))?;
    println!("fam-serve listening on http://{} ({} workers)", server.local_addr(), workers);
    println!("datasets: {}", names.join(", "));
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let addr = server.local_addr();
    server.run();
    Ok(format!("served {} dataset(s) on {addr}, shut down cleanly", names.len()))
}

/// Builds the retrying HTTP client the `remote-*` commands share:
/// `--attempts` bounds the retry budget, `--timeout-ms` the per-attempt
/// socket wait. Shed `503`s are retried with jittered exponential
/// backoff honoring the server's `Retry-After`.
fn remote_client(a: &ParsedArgs) -> Result<fam::serve::Client, String> {
    let server = a.required("server")?;
    let defaults = fam::serve::ClientOptions::default();
    let attempts: u32 = a.parsed_or("attempts", defaults.attempts)?;
    if attempts == 0 {
        return Err("--attempts must be at least 1".into());
    }
    let timeout_ms: u64 = a.parsed_or("timeout-ms", defaults.timeout.as_millis() as u64)?;
    let opts = fam::serve::ClientOptions {
        attempts,
        timeout: std::time::Duration::from_millis(timeout_ms.max(1)),
        ..defaults
    };
    Ok(fam::serve::Client::with_options(server, opts))
}

/// Appends `&deadline_ms=V` when `--deadline-ms` was given (validated).
fn deadline_query(a: &ParsedArgs) -> Result<String, String> {
    match a.optional("deadline-ms") {
        None => Ok(String::new()),
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| format!("--deadline-ms: `{v}` is not a number"))?;
            Ok(format!("&deadline_ms={ms}"))
        }
    }
}

/// Extracts a top-level `"key":<number>` JSON field (the serve wire
/// format is flat enough for this).
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// `fam remote-solve` — query a running `fam serve` instance with
/// retries and backoff; prints the response JSON.
///
/// # Errors
///
/// Returns usage errors, exhausted retry budgets (naming the attempt
/// count), and non-200 server answers as strings.
pub fn remote_solve(a: &ParsedArgs) -> Result<String, String> {
    let dataset = a.required("dataset")?;
    let k: usize = a.required("k")?.parse().map_err(|_| "--k: not a number".to_string())?;
    let algo = a.optional("algo").unwrap_or("add-greedy");
    let path = format!("/solve?dataset={dataset}&k={k}&algo={algo}{}", deadline_query(a)?);
    let mut client = remote_client(a)?;
    let resp = client.get(&path)?;
    match resp.status {
        200 => Ok(resp.body),
        status => Err(format!("server answered {status}: {}", resp.body.trim())),
    }
}

/// `fam remote-replay` — stream an ops file (`insert,c0,..` /
/// `delete,IDX`) to a running server's `POST /update`, in `--batch`-line
/// batches (default: one batch), with shed-aware retries. A batch whose
/// fate is unknown (response lost mid-flight) is *not* re-sent — the
/// error says so and names the batch, so the operator can check
/// `/healthz` generations before resuming.
///
/// # Errors
///
/// Returns usage/I/O errors, exhausted retry budgets, and non-200
/// server answers (with the failing batch index) as strings.
pub fn remote_replay(a: &ParsedArgs) -> Result<String, String> {
    let dataset = a.required("dataset")?;
    let ups_path = a.required("updates")?;
    let text = std::fs::read_to_string(ups_path).map_err(|e| format!("{ups_path}: {e}"))?;
    let batch: usize = a.parsed_or("batch", 0usize)?;
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .collect();
    if lines.is_empty() {
        return Err(format!("{ups_path}: no operations"));
    }
    let batches: Vec<String> = if batch == 0 {
        vec![lines.join("\n")]
    } else {
        lines.chunks(batch).map(|c| c.join("\n")).collect()
    };
    let url = format!("/update?dataset={dataset}{}", deadline_query(a)?);
    let mut client = remote_client(a)?;
    let mut out = String::new();
    let mut last_generation = 0u64;
    for (i, body) in batches.iter().enumerate() {
        let resp =
            client.post(&url, &format!("{body}\n")).map_err(|e| format!("batch {i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "batch {i}: server answered {}: {}",
                resp.status,
                resp.body.trim()
            ));
        }
        last_generation = json_u64(&resp.body, "generation").unwrap_or(0);
        out.push_str(&format!(
            "batch {i}: +{} -{} -> n_points {}, generation {last_generation}\n",
            json_u64(&resp.body, "inserted").unwrap_or(0),
            json_u64(&resp.body, "deleted").unwrap_or(0),
            json_u64(&resp.body, "n_points").unwrap_or(0),
        ));
    }
    out.push_str(&format!(
        "replayed {} op(s) in {} batch(es) to `{dataset}`, generation {last_generation} \
         ({} retries, {} reconnects)",
        lines.len(),
        batches.len(),
        client.retries(),
        client.reconnects(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> ParsedArgs {
        ParsedArgs::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("fam_cli_{}_{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_skyline_then_select_then_evaluate() {
        let path = tmp("roundtrip.csv");
        let msg =
            generate(&argv(&format!("--out {path} --n 300 --d 3 --corr anti --seed 7"))).unwrap();
        assert!(msg.contains("300 points"));

        let msg = skyline_cmd(&argv(&format!("--data {path}"))).unwrap();
        assert!(msg.contains("skyline"));

        for algo in ["greedy-shrink", "add-greedy", "mrr-greedy", "sky-dom", "k-hit"] {
            let msg =
                select(&argv(&format!("--data {path} --k 5 --algo {algo} --samples 200 --seed 7")))
                    .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(msg.contains("arr ="), "{algo}: {msg}");
        }

        let msg =
            evaluate(&argv(&format!("--data {path} --selection 0,1,2 --samples 200"))).unwrap();
        assert!(msg.contains("rr @ p70"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn select_samples_the_requested_dist_and_has_no_compact_flag() {
        // `select` and `solve` draw the solve and the evaluation sample
        // from the same seeded stream, so with `--dist` reaching the
        // solver they print the same selection and the same arr.
        let path = tmp("dist.csv");
        generate(&argv(&format!("--out {path} --n 300 --d 3 --seed 5"))).unwrap();
        let run = |line: String| {
            crate::run(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        };
        let answer = |msg: &str| -> Vec<String> {
            let lines = msg.lines().filter(|l| l.starts_with("selected") || l.starts_with("arr ="));
            lines.map(str::to_string).collect()
        };
        let flags = format!("--data {path} --k 4 --samples 500 --seed 3");
        let simplex = run(format!("select {flags} --dist simplex")).unwrap();
        let solved = run(format!("solve {flags} --algo greedy-shrink --dist simplex")).unwrap();
        assert_eq!(answer(&simplex).len(), 2, "{simplex}");
        assert_eq!(answer(&simplex), answer(&solved));
        let uniform = run(format!("select {flags}")).unwrap();
        assert_ne!(answer(&uniform), answer(&simplex), "the simplex sample is not the uniform one");
        // The flag that sampled uniform weights whatever `--dist` said is
        // gone.
        let err = run(format!("select {flags} --dist simplex --compact")).unwrap_err();
        assert!(err.contains("unknown flag --compact for `fam select`"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_reaches_every_registered_algorithm_by_name() {
        // A 2-D dataset admits the whole registry: dp-2d is 2-D-only and
        // cube needs k >= d.
        let path = tmp("registry.csv");
        generate(&argv(&format!("--out {path} --n 60 --d 2 --corr anti --seed 4"))).unwrap();
        for name in fam::Registry::global().names() {
            let msg =
                solve(&argv(&format!("--data {path} --k 3 --algo {name} --samples 120 --seed 4")))
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(msg.contains("selected (3)"), "{name}: {msg}");
            assert!(msg.contains("arr ="), "{name}: {msg}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_params_and_errors() {
        let path = tmp("solve_params.csv");
        generate(&argv(&format!("--out {path} --n 40 --d 2 --seed 8"))).unwrap();
        // Typed parameters flow through --param.
        let msg = solve(&argv(&format!(
            "--data {path} --k 2 --algo dp-2d --param measure=angle --samples 80"
        )))
        .unwrap();
        assert!(msg.contains("dp-2d"), "{msg}");
        assert!(msg.contains("skyline_size"), "{msg}");
        let msg = solve(&argv(&format!(
            "--data {path} --k 3 --algo greedy-shrink --param lazy=false --samples 80"
        )))
        .unwrap();
        assert!(msg.contains("iterations"), "{msg}");
        // Lazy pruning runs on the best-point cache: asking for it with
        // the cache off is a usage error naming both keys, while
        // `cache=false` alone runs the naive loop.
        let err = solve(&argv(&format!(
            "--data {path} --k 3 --algo greedy-shrink --param cache=false --param lazy=true \
             --samples 80"
        )))
        .unwrap_err();
        assert!(err.contains("lazy=true") && err.contains("cache=false"), "{err}");
        let msg = solve(&argv(&format!(
            "--data {path} --k 3 --algo greedy-shrink --param cache=false --samples 80"
        )))
        .unwrap();
        assert!(msg.contains("greedy-shrink-naive"), "{msg}");
        // An unknown algorithm enumerates the registry.
        let err = solve(&argv(&format!("--data {path} --k 2 --algo quantum"))).unwrap_err();
        assert!(err.contains("add-greedy") && err.contains("sky-dom"), "{err}");
        // Malformed params are usage errors, not panics.
        assert!(solve(&argv(&format!("--data {path} --k 2 --param lazy=maybe"))).is_err());
        assert!(solve(&argv(&format!("--data {path} --k 2 --param warp=1"))).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn algos_lists_the_registry() {
        let listing = algos();
        for name in fam::Registry::global().names() {
            assert!(listing.contains(name), "{name} missing:\n{listing}");
        }
        assert!(listing.contains("exact") && listing.contains("heuristic"));
        // The reducible capability renders as its own column, and the
        // params footer documents the reduce knobs.
        assert!(listing.contains("reduce"), "{listing}");
        assert!(listing.contains("skyline"), "{listing}");
        assert!(listing.contains("reduce-eps=E"), "{listing}");
    }

    #[test]
    fn solve_reduces_candidates_and_answers_in_original_ids() {
        let path = tmp("reduce.csv");
        generate(&argv(&format!("--out {path} --n 400 --d 2 --corr anti --seed 21"))).unwrap();
        // Skyline reduction flows end to end: exact answer, original ids,
        // reduction stats in the report.
        let msg = solve(&argv(&format!(
            "--data {path} --k 3 --algo brute-force --param reduce=skyline --samples 120 --seed 21"
        )))
        .unwrap();
        assert!(msg.contains("selected (3)"), "{msg}");
        assert!(msg.contains("reduced_from: 400"), "{msg}");
        assert!(msg.contains("reduction: skyline kept"), "{msg}");
        assert!(msg.contains("max shortfall = 0.000000"), "{msg}");
        // Coreset on a heuristic, with an explicit epsilon.
        let msg = solve(&argv(&format!(
            "--data {path} --k 3 --algo greedy-shrink --param reduce=coreset \
             --param reduce-eps=0.2 --samples 120 --seed 21"
        )))
        .unwrap();
        assert!(msg.contains("skyline+coreset:0.2"), "{msg}");
        assert!(msg.contains("arr ="), "{msg}");
        // Exact solvers refuse the lossy coreset stage.
        let err = solve(&argv(&format!(
            "--data {path} --k 3 --algo brute-force --param reduce=coreset --samples 120"
        )))
        .unwrap_err();
        assert!(err.contains("reducible"), "{err}");
        // Asking for more points than the reduction keeps is a usage
        // error that names the way out.
        let err = solve(&argv(&format!(
            "--data {path} --k 399 --algo add-greedy --param reduce=skyline --samples 120"
        )))
        .unwrap_err();
        assert!(err.contains("reduce=none"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reduced_solve_matches_unreduced_on_skyline_and_beats_the_budget() {
        let path = tmp("reduce_budget.csv");
        generate(&argv(&format!("--out {path} --n 300 --d 2 --corr anti --seed 33"))).unwrap();
        // Same seed, same algorithm: the skyline-reduced exact solve must
        // report the same selection as the unreduced one (the skyline
        // contains an optimal subset for every monotone utility). The
        // sampled utility streams differ (tiled scores only kept
        // columns), so we compare selections via the solver objective
        // printed from the *solve* matrix only loosely: both runs must
        // pick skyline members. The bit-level equivalence is pinned in
        // `fam-algos`' registry tests; here we pin the CLI plumbing.
        let reduced = solve(&argv(&format!(
            "--data {path} --k 2 --algo dp-2d --param reduce=skyline --samples 200 --seed 33"
        )))
        .unwrap();
        assert!(reduced.contains("selected (2)"), "{reduced}");
        assert!(reduced.contains("reduced_to"), "{reduced}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dp_requires_two_dims() {
        let path = tmp("dp3d.csv");
        generate(&argv(&format!("--out {path} --n 50 --d 3 --seed 3"))).unwrap();
        assert!(select(&argv(&format!("--data {path} --k 2 --algo dp"))).is_err());
        std::fs::remove_file(&path).ok();
        let path2 = tmp("dp2d.csv");
        generate(&argv(&format!("--out {path2} --n 50 --d 2 --seed 3"))).unwrap();
        let msg = select(&argv(&format!("--data {path2} --k 2 --algo dp"))).unwrap();
        assert!(msg.contains("dp-2d"));
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn chernoff_flags_control_sample_count() {
        let a = argv("--epsilon 0.1 --sigma 0.1");
        assert_eq!(sample_count(&a).unwrap(), 691);
        let a = argv("--samples 123");
        assert_eq!(sample_count(&a).unwrap(), 123);
        let a = argv("");
        assert_eq!(sample_count(&a).unwrap(), 2_000);
        // The footprint guard turns absurd allocations into usage
        // errors; the env-driven budget is covered by `tests/budget.rs`
        // (a dedicated single-test binary; env mutation races sibling
        // test threads).
        assert_eq!(checked_sample_count(&argv("--samples 50"), 100).unwrap(), 50);
        assert!(checked_sample_count(&argv("--samples 18446744073709551615"), 8).is_err());
    }

    #[test]
    fn refine_prints_trajectory_and_matches_cold_solve() {
        let path = tmp("refine.csv");
        generate(&argv(&format!("--out {path} --n 80 --d 3 --corr anti --seed 13"))).unwrap();
        let msg = refine_cmd(&argv(&format!(
            "--data {path} --k 4 --epsilon 0.15 --sigma 0.1 --initial 60 --seed 13"
        )))
        .unwrap();
        assert!(msg.contains("N* = 308"), "{msg}");
        assert!(msg.contains("cold solve"), "{msg}");
        assert!(msg.contains("warm repair"), "{msg}");
        assert!(msg.contains("achieved eps"), "{msg}");
        assert!(msg.contains("bit-identical"), "{msg}");
        // Every round prints its points; the last round's are the final ones.
        let rounds: Vec<&str> = msg.lines().filter(|l| l.trim_start().starts_with("N =")).collect();
        assert!(rounds.iter().all(|l| l.contains("selection = [")), "{msg}");
        let points = |l: &str| l[l.find('[').unwrap()..=l.find(']').unwrap()].to_string();
        let last = msg.lines().find(|l| l.starts_with("final:")).unwrap();
        assert_eq!(points(rounds[rounds.len() - 1]), points(last), "{msg}");
        // A different final algorithm flows through --algo.
        let msg = refine_cmd(&argv(&format!(
            "--data {path} --k 3 --epsilon 0.2 --algo add-greedy --initial 50 --seed 13"
        )))
        .unwrap();
        assert!(msg.contains("add-greedy"), "{msg}");
        // Usage errors: missing epsilon, unknown algo, coordinate solver.
        assert!(refine_cmd(&argv(&format!("--data {path} --k 3"))).is_err());
        assert!(
            refine_cmd(&argv(&format!("--data {path} --k 3 --epsilon 0.2 --algo nope"))).is_err()
        );
        let err = refine_cmd(&argv(&format!("--data {path} --k 3 --epsilon 0.2 --algo sky-dom")))
            .unwrap_err();
        assert!(err.contains("sample axis"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_inputs_are_reported() {
        let path = tmp("bad.csv");
        generate(&argv(&format!("--out {path} --n 20 --d 2"))).unwrap();
        assert!(select(&argv(&format!("--data {path} --k 2 --algo nope"))).is_err());
        assert!(select(&argv(&format!("--data {path} --k 2 --dist nope"))).is_err());
        assert!(generate(&argv("--out /tmp/x.csv --n 10 --d 2 --corr weird")).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_dispatches_and_reports_usage() {
        let msg = crate::run(&["help".to_string()]).unwrap();
        assert!(msg.contains("usage"));
        assert!(msg.contains("replay"));
        assert!(msg.contains("serve"));
        assert!(msg.contains("solve"));
        assert!(msg.contains("algos"));
        assert!(msg.contains("refine"));
        assert!(msg.contains("/refine"));
        assert!(msg.contains("remote-solve"));
        assert!(msg.contains("remote-replay"));
        assert!(msg.contains("/healthz"));
        assert!(msg.contains("deadline_ms"));
        assert!(crate::run(&["bogus".to_string()]).is_err());
        assert!(crate::run(&[]).is_err());
        let listing = crate::run(&["algos".to_string()]).unwrap();
        assert!(listing.contains("greedy-shrink"));
    }

    #[test]
    fn cache_k_spec_parses_both_forms() {
        assert_eq!(parse_cache_k("1..8").unwrap(), 1..=8);
        assert_eq!(parse_cache_k("3 .. 5").unwrap(), 3..=5);
        assert_eq!(parse_cache_k("6").unwrap(), 1..=6);
        assert!(parse_cache_k("a..3").is_err());
        assert!(parse_cache_k("..").is_err());
        assert!(parse_cache_k("").is_err());
    }

    #[test]
    fn serve_builds_services_and_validates_flags() {
        let a = tmp("serve_a.csv");
        let b = tmp("serve_b.csv");
        generate(&argv(&format!("--out {a} --n 40 --d 3 --seed 5"))).unwrap();
        generate(&argv(&format!("--out {b} --n 30 --d 2 --seed 6"))).unwrap();
        let services = build_services(&argv(&format!(
            "--data {a} --data {b} --samples 60 --cache-k 1..3 --seed 5"
        )))
        .unwrap();
        assert_eq!(services.len(), 2);
        assert!(services[0].name().starts_with("fam_cli_"));
        assert_eq!(services[0].n_points(), 40);
        assert_eq!(services[1].n_points(), 30);
        assert_eq!(*services[0].cache_k(), 1..=3);
        // Build-time reduction: the engine keeps only the skyline, the
        // client-visible universe stays the full file.
        let reduced = build_services(&argv(&format!(
            "--data {b} --samples 60 --cache-k 1..3 --seed 6 --reduce skyline"
        )))
        .unwrap();
        assert_eq!(reduced[0].reduction_fingerprint(), "skyline");
        assert_eq!(reduced[0].source_points(), 30);
        assert!(reduced[0].n_points() < 30);
        // Usage errors surface without binding anything.
        assert!(build_services(&argv("--samples 60")).is_err());
        assert!(build_services(&argv(&format!("--data {a} --dist nope"))).is_err());
        assert!(build_services(&argv(&format!("--data {a} --cache-k 0..3"))).is_err());
        assert!(build_services(&argv(&format!("--data {a} --cache-k 1..999"))).is_err());
        assert!(build_services(&argv(&format!("--data {a} --reduce sideways"))).is_err());
        assert!(build_services(&argv(&format!("--data {a} --reduce coreset --reduce-eps 0.0")))
            .is_err());
        assert!(serve(&argv(&format!("--data {a} --workers 0"))).is_err());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn remote_commands_drive_a_live_server() {
        let data = tmp("remote.csv");
        let ups = tmp("remote_ops.csv");
        generate(&argv(&format!("--out {data} --n 60 --d 3 --corr anti --seed 15"))).unwrap();
        std::fs::write(&ups, "# stream\ninsert,0.9,0.8,0.7\ndelete,3\ninsert,0.2,0.95,0.4\n")
            .unwrap();
        let services =
            build_services(&argv(&format!("--data {data} --samples 80 --cache-k 1..3 --seed 15")))
                .unwrap();
        let name = services[0].name().to_string();
        let server = fam::serve::Server::bind_with(
            ("127.0.0.1", 0),
            services,
            server_options(&argv("")).unwrap(),
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let server_thread = std::thread::spawn(move || server.run());

        let msg = remote_solve(&argv(&format!(
            "--server {addr} --dataset {name} --k 2 --deadline-ms 30000"
        )))
        .unwrap();
        assert!(msg.contains("\"cached\":true"), "{msg}");
        assert!(msg.contains("\"generation\":1"), "{msg}");
        // A spent budget surfaces the server's 504 verbatim.
        let err =
            remote_solve(&argv(&format!("--server {addr} --dataset {name} --k 2 --deadline-ms 0")))
                .unwrap_err();
        assert!(err.contains("504") && err.contains("deadline"), "{err}");

        let msg = remote_replay(&argv(&format!(
            "--server {addr} --dataset {name} --updates {ups} --batch 2"
        )))
        .unwrap();
        assert!(msg.contains("batch 0: +1 -1"), "{msg}");
        assert!(msg.contains("replayed 3 op(s) in 2 batch(es)"), "{msg}");
        assert!(msg.contains("generation 3"), "{msg}");

        // Usage and transport errors stay clean strings.
        assert!(remote_solve(&argv(&format!("--dataset {name} --k 2"))).is_err());
        assert!(remote_solve(&argv(&format!("--server {addr} --dataset {name} --k two"))).is_err());
        assert!(remote_solve(&argv(&format!(
            "--server {addr} --dataset {name} --k 2 --attempts 0"
        )))
        .is_err());
        let err = remote_solve(&argv(&format!(
            "--server 127.0.0.1:1 --dataset {name} --k 2 --attempts 2 --timeout-ms 200"
        )))
        .unwrap_err();
        assert!(err.contains("2 attempts"), "{err}");
        let err = remote_replay(&argv(&format!("--server {addr} --dataset nope --updates {ups}")))
            .unwrap_err();
        assert!(err.contains("batch 0") && err.contains("404"), "{err}");

        handle.shutdown();
        server_thread.join().unwrap();
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&ups).ok();
    }

    #[test]
    fn server_option_flags_parse_and_validate() {
        let opts = server_options(&argv(
            "--workers 3 --max-pending 9 --deadline-ms 250 --keepalive-requests 5 --idle-ms 100 --retry-after 2",
        ))
        .unwrap();
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.max_pending, 9);
        assert_eq!(opts.default_deadline_ms, Some(250));
        assert_eq!(opts.max_requests_per_conn, 5);
        assert_eq!(opts.idle_timeout, std::time::Duration::from_millis(100));
        assert_eq!(opts.retry_after_secs, 2);
        let defaults = server_options(&argv("")).unwrap();
        assert_eq!(defaults.default_deadline_ms, None);
        assert!(server_options(&argv("--workers 0")).is_err());
        assert!(server_options(&argv("--deadline-ms soon")).is_err());
        assert!(server_options(&argv("--keepalive-requests 0")).is_err());
    }

    #[test]
    fn replay_streams_batches_and_verifies() {
        let data = tmp("replay.csv");
        let ups = tmp("replay_ops.csv");
        generate(&argv(&format!("--out {data} --n 120 --d 3 --corr anti --seed 11"))).unwrap();
        std::fs::write(
            &ups,
            "# churn stream\n\
             insert,0.9,0.8,0.7\n\
             delete,3\n\
             +,0.2,0.95,0.4\n\
             -,17\n\
             insert,0.5,0.5,0.99\n\
             delete,0\n",
        )
        .unwrap();
        let msg = replay(&argv(&format!(
            "--data {data} --updates {ups} --k 4 --samples 150 --seed 11 --batch 2 --verify"
        )))
        .unwrap();
        assert!(msg.contains("initial selection"), "{msg}");
        assert!(msg.contains("batch 2:"), "{msg}");
        assert!(msg.contains("initial: verified bit-identical to cold solve"), "{msg}");
        assert!(msg.contains("batch 2: verified bit-identical to cold solve"), "{msg}");
        assert!(msg.contains("after 3 batches"), "{msg}");
        // The alias dispatches too.
        let msg2 = crate::run(
            &format!("update --data {data} --updates {ups} --k 4 --samples 60 --seed 11")
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(msg2.contains("final:"), "{msg2}");
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&ups).ok();
    }

    /// A top-level `"key":value` field of a flat JSON body, as text.
    fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
        let tag = format!("\"{key}\":");
        let rest =
            &body[body.find(&tag).unwrap_or_else(|| panic!("no {key} in {body}")) + tag.len()..];
        let end = if rest.starts_with('[') {
            rest.find(']').unwrap() + 1
        } else {
            rest.find([',', '}']).unwrap()
        };
        &rest[..end]
    }

    /// Parses `[1, 5, 9]` or `[1,5,9]`.
    fn index_list(text: &str) -> Vec<usize> {
        let inner = text.trim().trim_start_matches('[').trim_end_matches(']');
        inner
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().unwrap())
            .collect()
    }

    #[test]
    fn replay_answers_like_a_live_server() {
        // One op stream through `fam replay` (caching k only) and through
        // a live `fam serve` caching 1..6: the ADD-GREEDY answer and its
        // arr bits agree after every batch.
        let data = tmp("one_answer.csv");
        let ups = tmp("one_answer_ops.csv");
        generate(&argv(&format!("--out {data} --n 150 --d 3 --corr anti --seed 23"))).unwrap();
        let k = 4;
        let flags = format!("--data {data} --samples 300 --seed 23");
        let services = build_services(&argv(&format!("{flags} --cache-k 1..6"))).unwrap();
        let name = services[0].name().to_string();
        let server = fam::serve::Server::bind_with(
            ("127.0.0.1", 0),
            services,
            server_options(&argv("")).unwrap(),
        )
        .unwrap();
        let mut client = fam::serve::Client::new(server.local_addr().to_string());
        let handle = server.handle();
        let server_thread = std::thread::spawn(move || server.run());
        let served = |client: &mut fam::serve::Client| {
            let resp = client.get(&format!("/solve?dataset={name}&k={k}&algo=add-greedy")).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            let arr: f64 = json_field(&resp.body, "arr").parse().unwrap();
            (index_list(json_field(&resp.body, "selection")), arr.to_bits())
        };

        // Three batches of two ops; the first deletes a member of the
        // current answer.
        let (initial, _) = served(&mut client);
        let batches = [
            format!("delete,{}\ninsert,0.9,0.85,0.8", initial[0]),
            "insert,0.95,0.1,0.2\ninsert,0.1,0.2,0.97".to_string(),
            "delete,7\ndelete,140".to_string(),
        ];
        std::fs::write(&ups, batches.join("\n") + "\n").unwrap();
        let msg =
            replay(&argv(&format!("{flags} --updates {ups} --k {k} --batch 2 --verify"))).unwrap();
        let replayed: Vec<(Vec<usize>, u64)> = msg
            .lines()
            .filter(|l| l.starts_with("batch ") && l.contains("selection = "))
            .map(|l| {
                let arr = &l[l.find("arr = ").unwrap() + 6..];
                let arr: f64 = arr[..arr.find(',').unwrap()].parse().unwrap();
                let sel = &l[l.find("selection = ").unwrap() + 12..];
                (index_list(&sel[..=sel.find(']').unwrap()]), arr.to_bits())
            })
            .collect();
        assert_eq!(replayed.len(), batches.len(), "{msg}");
        for (i, batch) in batches.iter().enumerate() {
            let resp =
                client.post(&format!("/update?dataset={name}"), &format!("{batch}\n")).unwrap();
            assert_eq!(resp.status, 200, "batch {i}: {}", resp.body);
            let (selection, arr_bits) = served(&mut client);
            assert_eq!(selection, replayed[i].0, "batch {i}: selection differs\n{msg}");
            assert_eq!(arr_bits, replayed[i].1, "batch {i}: arr bits differ\n{msg}");
        }

        handle.shutdown();
        server_thread.join().unwrap();
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&ups).ok();
    }

    #[test]
    fn replay_rejects_malformed_streams() {
        let data = tmp("replay_bad.csv");
        generate(&argv(&format!("--out {data} --n 30 --d 2 --seed 2"))).unwrap();
        let cases = [
            "teleport,1,2\n",
            "insert,0.5\n",
            "delete\n",
            "delete,notanumber\n",
            "delete,1,2\n",
            "insert,0.5,abc\n",
            "insert,0.5,NaN\n",
            ",1,2\n",
        ];
        for (i, body) in cases.iter().enumerate() {
            let ups = tmp(&format!("replay_bad_ops_{i}.csv"));
            std::fs::write(&ups, body).unwrap();
            let r = replay(&argv(&format!("--data {data} --updates {ups} --k 2 --samples 40")));
            let err = r.expect_err(&format!("case {i} should fail: {body:?}"));
            // Parse errors name the ops file and the 1-based line.
            assert!(err.contains(&ups) && err.contains("line 1"), "case {i}: {err}");
            std::fs::remove_file(&ups).ok();
        }
        // Out-of-bounds delete surfaces the engine error with batch context.
        let ups = tmp("replay_bad_oob.csv");
        std::fs::write(&ups, "delete,999\n").unwrap();
        let err = replay(&argv(&format!("--data {data} --updates {ups} --k 2 --samples 40")))
            .unwrap_err();
        assert!(err.contains("batch 0"), "{err}");
        assert!(replay(&argv(&format!("--data {data} --updates {ups} --k 2 --batch 0"))).is_err());
        std::fs::remove_file(&ups).ok();
        std::fs::remove_file(&data).ok();
    }
}
