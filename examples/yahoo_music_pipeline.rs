//! The full learned-utility pipeline of Section V-B2 on Yahoo!Music-shaped
//! data: sparse song ratings → matrix factorization → 5-component Gaussian
//! mixture over user factors → sampled non-linear utility distribution →
//! GREEDY-SHRINK versus the baselines, dispatched by name through an
//! [`Engine`] built directly on the learned score matrix.
//!
//! Run with: `cargo run --release --example yahoo_music_pipeline`

use fam::prelude::*;
use fam::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> fam::Result<()> {
    let mut rng = StdRng::seed_from_u64(2011);

    // A scaled-down catalogue keeps the example fast; the experiment
    // harness (fam-bench) runs the full 8,933-song version.
    let cfg = YahooConfig { n_users: 400, n_items: 800, density: 0.05, ..Default::default() };
    println!(
        "Synthesizing ratings: {} users x {} songs, {:.0}% density...",
        cfg.n_users,
        cfg.n_items,
        cfg.density * 100.0
    );
    let ratings = yahoo_ratings(cfg, &mut rng)?;
    println!("observed ratings: {}", ratings.len());

    // Matrix factorization (paper: "we use a matrix factorization
    // technique [19]").
    println!("\nFitting the pipeline (MF + 5-component GMM)...");
    let model = LearnedUtilityModel::fit(
        &ratings,
        MfConfig { n_factors: 8, epochs: 30, ..Default::default() },
        GmmConfig { n_components: 5, ..Default::default() },
        &mut rng,
    )?;
    println!("MF training RMSE:       {:.4}", model.mf_rmse());
    println!("GMM mean log-likelihood: {:.4}", model.gmm_log_likelihood());
    for (i, c) in model.gmm().components().iter().enumerate() {
        println!("  component {i}: weight {:.3}", c.weight);
    }

    // Sample utility functions from the learned distribution; the engine
    // wraps the resulting matrix (no coordinates exist for learned
    // utilities, so coordinate-based solvers are gated off — exactly
    // what their declared capabilities say).
    let n_samples = 10_000;
    let m = model.sample_score_matrix(n_samples, &mut rng)?;
    let engine = Engine::builder().matrix(m).solver("greedy-shrink").build()?;
    println!(
        "\nSampled {} users over {} songs.",
        engine.scores().n_samples(),
        engine.scores().n_points()
    );

    // Compare the algorithms on the learned, non-uniform, non-linear Θ.
    println!(
        "\n{:<16}{:>10}{:>10}{:>12}{:>14}",
        "algorithm", "arr", "rr std", "rr @ 95%", "query time"
    );
    let k = 10;
    for algo in ["greedy-shrink", "mrr-greedy", "k-hit"] {
        let sel = engine.solve_as(algo, k)?.selection;
        let rep = engine.evaluate(&sel.indices)?;
        let p95 = regret::rr_percentiles(engine.scores(), &sel.indices, &[95.0])?[0];
        println!(
            "{:<16}{:>10.4}{:>10.4}{:>12.4}{:>14?}",
            sel.algorithm, rep.arr, rep.std_dev, p95, sel.query_time
        );
    }
    println!(
        "\nExpected shape (paper Fig 2-3): GREEDY-SHRINK and K-HIT achieve low \
         arr and low spread;\nMRR-GREEDY ignores the learned distribution and \
         pays for it at every percentile."
    );
    Ok(())
}
