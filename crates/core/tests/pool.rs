//! Behavior of the persistent deterministic worker pool.
//!
//! These tests pin the four properties the pool owes the rest of the
//! workspace: bit-identical outputs for any thread count, worker reuse
//! across sequential dispatches (no respawning), survival of panicking
//! tasks (the next job runs clean), and recovery from an injected fault
//! at the `par.dispatch` failpoint.
//!
//! All of them toggle the process-global thread override, so every test
//! serializes on one lock — the harness would otherwise interleave the
//! toggles across its own worker threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use fam_core::failpoints::{self, FailAction};
use fam_core::par;

fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking test (the panic-survival and chaos checks panic on
    // purpose) poisons the lock; the global state it guards is two
    // atomics, valid in every interleaving.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores thread auto-detection when dropped, panics included.
struct ThreadGuard;

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        par::set_max_threads(None);
        par::force_serial(false);
    }
}

fn with_threads(t: usize) -> ThreadGuard {
    par::set_max_threads(Some(t));
    ThreadGuard
}

/// A deterministic workload touching every pool-backed helper shape:
/// per-item fill, fixed-chunk ordered sum, and an argmax reduction.
/// Returns raw bits so comparisons are exact, not epsilon.
fn fingerprint(n: usize) -> Vec<u64> {
    let mut out = vec![0.0f64; n];
    par::fill_adaptive(&mut out, 64, |i| ((i as f64) + 0.5).sqrt().sin());
    let scores = out.clone();
    let sum = par::sum_chunked(n, |r| r.map(|i| scores[i] * 1.25).sum());
    let best = par::arg_reduce(n, 64, |i| Some(scores[i]), |cand, inc| cand > inc);
    let mut bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
    bits.push(sum.to_bits());
    let (v, i) = best.expect("non-empty reduction");
    bits.push(v.to_bits());
    bits.push(i as u64);
    bits
}

#[test]
fn outputs_bit_identical_across_thread_counts() {
    let _x = exclusive();
    let n = 20_000;
    let serial = {
        let _g = ThreadGuard;
        par::force_serial(true);
        fingerprint(n)
    };
    for t in [2, 4] {
        let _g = with_threads(t);
        assert_eq!(fingerprint(n), serial, "threads={t} diverged from serial");
    }
}

#[test]
fn workers_reused_across_sequential_dispatches() {
    let _x = exclusive();
    let _g = with_threads(2);
    let mut out = vec![0.0f64; 4096];
    // First dispatch spawns the (lazy) workers.
    par::fill_adaptive(&mut out, 64, |i| i as f64);
    let before = par::pool_stats();
    assert!(before.workers_spawned >= 1, "first dispatch must have spawned a worker");
    for round in 0..5 {
        par::fill_adaptive(&mut out, 64, |i| (i + round) as f64);
    }
    let after = par::pool_stats();
    assert!(
        after.jobs_dispatched >= before.jobs_dispatched + 5,
        "each call must go through the pool: {before:?} -> {after:?}"
    );
    assert_eq!(
        after.workers_spawned, before.workers_spawned,
        "sequential dispatches must reuse parked workers, not respawn"
    );
}

#[test]
fn pool_survives_a_panicking_task() {
    let _x = exclusive();
    let _g = with_threads(4);
    let n = 4096;
    let mut out = vec![0.0f64; n];
    let err = catch_unwind(AssertUnwindSafe(|| {
        par::fill_adaptive(&mut out, 64, |i| {
            if i == 1234 {
                panic!("injected task panic");
            }
            i as f64
        });
    }))
    .expect_err("a task panic must propagate to the dispatching thread");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"injected task panic"));
    // The pool is not poisoned: the next job completes and is correct.
    par::fill_adaptive(&mut out, 64, |i| (i as f64) + 1.0);
    assert!(out.iter().enumerate().all(|(i, &v)| v == (i as f64) + 1.0));
}

#[test]
fn dispatch_failpoint_faults_then_pool_recovers() {
    let _x = exclusive();
    let _g = with_threads(2);
    let before = failpoints::triggered("par.dispatch");
    {
        let _fp = failpoints::arm_times("par.dispatch", FailAction::Error, 1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            par::map_adaptive(4096, 64, |r| r.len());
        }));
        assert!(err.is_err(), "an injected dispatch fault must surface as a panic");
    }
    assert_eq!(failpoints::triggered("par.dispatch"), before + 1);
    // arm_times(.., 1) auto-disarmed: the very next dispatch succeeds.
    let got = par::map_adaptive(4096, 64, |r| r.len());
    assert_eq!(got.iter().sum::<usize>(), 4096);
}
