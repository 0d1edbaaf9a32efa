//! The Table II scenario: select 5 representative NBA players with three
//! different objectives — average regret ratio (GREEDY-SHRINK), maximum
//! regret ratio (MRR-GREEDY), and hit probability (K-HIT) — and compare
//! the selections. All three run by name through one [`Engine`].
//!
//! The roster is synthetic (the real one is not redistributable; see
//! DESIGN.md §4) but preserves the structure the paper's discussion relies
//! on: archetypes that are strong in different stat categories, with a
//! small elite tier. The qualitative claim to observe: the ARR set mixes
//! complementary elite archetypes, while the MRR set is dragged toward
//! extreme specialists that matter only to rare utility functions.
//!
//! Run with: `cargo run --release --example nba_team_selection`

use fam::prelude::*;
use fam::Engine;
use fam_data::nba;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> fam::Result<()> {
    let mut rng = StdRng::seed_from_u64(2016);
    let roster = nba::roster(&mut rng)?;
    let ds = &roster.dataset;
    println!("Synthetic roster: {} players x {} stat categories", ds.len(), ds.dim());

    // Uniform linear utilities — the paper had no preference data for NBA
    // fans and used the uniform distribution (Section V-A).
    let engine = Engine::builder()
        .dataset(ds.clone())
        .samples(10_000)
        .seed(2016)
        .solver("greedy-shrink")
        .build()?;

    let k = 5;
    let s_arr = engine.solve(k)?.selection;
    let s_mrr = engine.solve_as("mrr-greedy", k)?.selection;
    let s_hit = engine.solve_as("k-hit", k)?.selection;

    let name = |i: usize| ds.label(i).unwrap_or("?").to_string();
    println!("\n{:<24}{:<24}{:<24}", "S_arr (avg regret)", "S_mrr (max regret)", "S_k-hit");
    for row in 0..k {
        println!(
            "{:<24}{:<24}{:<24}",
            name(s_arr.indices[row]),
            name(s_mrr.indices[row]),
            name(s_hit.indices[row])
        );
    }

    println!("\nPer-objective quality of each set:");
    println!("{:<12}{:>12}{:>12}{:>14}{:>12}", "set", "arr", "rr std", "sampled mrr", "hit prob");
    for (label, sel) in [("S_arr", &s_arr), ("S_mrr", &s_mrr), ("S_k-hit", &s_hit)] {
        let rep = engine.evaluate(&sel.indices)?;
        let hit = hit_probability(engine.scores(), &sel.indices);
        println!("{label:<12}{:>12.4}{:>12.4}{:>14.4}{:>12.4}", rep.arr, rep.std_dev, rep.mrr, hit);
    }

    // Archetype mix of each set: the ARR set should be the most diverse.
    println!("\nArchetype mix:");
    for (label, sel) in [("S_arr", &s_arr), ("S_mrr", &s_mrr), ("S_k-hit", &s_hit)] {
        let mut tags: Vec<&str> = sel.indices.iter().map(|&i| roster.archetypes[i].tag()).collect();
        tags.sort_unstable();
        println!("{label:<12}{tags:?}");
    }
    Ok(())
}

/// Fraction of sampled users whose database-wide favourite is in `sel`.
fn hit_probability(m: &dyn ScoreSource, sel: &[usize]) -> f64 {
    let hits = (0..m.n_samples()).filter(|&u| sel.contains(&m.best_index(u))).count();
    hits as f64 / m.n_samples() as f64
}
