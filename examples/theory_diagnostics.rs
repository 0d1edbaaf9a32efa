//! Diagnostics for the paper's theory on a concrete instance:
//! supermodularity and monotonicity of `arr` (Theorem 2 / Lemma 1),
//! steepness and the resulting approximation bound (Theorem 3), the
//! Chernoff sampling bound (Theorem 4 / Table V), and the solver
//! registry's declared capabilities.
//!
//! Run with: `cargo run --release --example theory_diagnostics`

use fam::core::properties;
use fam::prelude::*;
use fam::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> fam::Result<()> {
    let mut seed_rng = StdRng::seed_from_u64(99);

    // A small instance so the exhaustive property checks are feasible.
    // The engine samples the population; the property checks read its
    // resident scores.
    let ds = synthetic(10, 3, Correlation::AntiCorrelated, &mut seed_rng)?;
    let engine = Engine::builder().dataset(ds).samples(500).seed(99).build()?;
    let m = engine.scores();

    println!("== Structural properties of arr(\u{b7}) on a random instance ==");
    match properties::check_supermodularity(m, 1e-9) {
        None => println!("supermodularity (Theorem 2): holds on all {} subsets", 1 << 10),
        Some(v) => println!("VIOLATION (should be impossible): {v:?}"),
    }
    match properties::check_monotone_decreasing(m, 1e-9) {
        None => println!("monotonicity (Lemma 1):      holds on all subsets"),
        Some((s, x)) => println!("VIOLATION at {s:?} + {x}"),
    }

    let s = properties::steepness(m);
    let bound = properties::approximation_bound(s);
    println!("\n== Theorem 3 ==");
    println!("steepness s = {s:.4}");
    println!("GREEDY-SHRINK guarantee (e^t - 1)/t with t = s/(1-s): {bound:.4}");

    println!("\n== Theorem 4 / Table V: Chernoff sample sizes ==");
    println!("{:>10} {:>8} {:>14}", "epsilon", "sigma", "N");
    for (eps, sigma) in
        [(0.01, 0.1), (0.001, 0.1), (0.0001, 0.1), (0.01, 0.05), (0.001, 0.05), (0.0001, 0.05)]
    {
        println!("{eps:>10} {sigma:>8} {:>14}", chernoff_sample_size(eps, sigma)?);
    }

    // Empirical check: two independently seeded engines of the bound's
    // size give arr estimates within 2*epsilon of each other.
    println!("\n== Empirical sampling accuracy ==");
    let eps = 0.02;
    let n = chernoff_sample_size(eps, 0.1)? as usize;
    let big = synthetic(300, 3, Correlation::AntiCorrelated, &mut seed_rng)?;
    let sel: Vec<usize> = (0..10).collect();
    let e1 = Engine::builder().dataset(big.clone()).samples(n).seed(1).build()?;
    let e2 = Engine::builder().dataset(big).samples(n).seed(2).build()?;
    let a1 = e1.evaluate(&sel)?.arr;
    let a2 = e2.evaluate(&sel)?.arr;
    println!("two independent estimates with N = {n}: {a1:.5} vs {a2:.5}");
    println!("difference {:.5} (bound allows up to ~{:.3})", (a1 - a2).abs(), 2.0 * eps);

    // The registry knows what each algorithm can do before it runs.
    println!("\n== Solver registry capabilities ==");
    for solver in Registry::global().iter() {
        let caps = solver.capabilities();
        println!(
            "{:<14} {}{}{}{}",
            solver.name(),
            if caps.exact { "exact " } else { "heuristic " },
            if caps.warm_start { "+warm-start " } else { "" },
            if caps.range_harvest { "+range-harvest " } else { "" },
            caps.dimension.map_or(String::new(), |d| format!("({d}-D only)")),
        );
    }
    Ok(())
}
