//! The `FAM_MAX_MATRIX_BYTES` budget path of the CLI's sample sizing,
//! isolated in a single-test binary: mutating the process environment
//! while other test threads read it races, so this file must hold
//! exactly one `#[test]`.

#[test]
fn epsilon_over_budget_is_a_clean_usage_error() {
    let mut path = std::env::temp_dir();
    path.push(format!("fam_cli_budget_{}.csv", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    fam_cli::run(&argv(&format!("generate --out {path} --n 50 --d 2 --seed 3"))).unwrap();

    // eps = 0.001 at sigma = 0.01 wants ~1.4e7 samples; over a 1 MiB
    // budget the command fails before any allocation or scoring.
    std::env::set_var(fam::core::sampling::MAX_MATRIX_BYTES_ENV, "1048576");
    let err =
        fam_cli::run(&argv(&format!("solve --data {path} --k 3 --epsilon 0.001 --sigma 0.01")))
            .unwrap_err();
    // A solver the reduction refuses is refused before the reduction is
    // computed or anything is scored: the registry's gate wins over a
    // sample count past the same budget.
    let refused = fam_cli::run(&argv(&format!(
        "solve --data {path} --k 3 --algo brute-force --param reduce=coreset --samples 10000000"
    )))
    .unwrap_err();
    std::env::remove_var(fam::core::sampling::MAX_MATRIX_BYTES_ENV);
    assert!(err.contains("budget"), "{err}");
    assert!(refused.contains("reducible"), "{refused}");
    assert!(!refused.contains("budget"), "{refused}");
    std::fs::remove_file(&path).ok();
}
