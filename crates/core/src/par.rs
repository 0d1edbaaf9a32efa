//! Deterministic fork-join helpers — the multicore substrate behind the
//! `parallel` cargo feature.
//!
//! The offline dependency set has no `rayon`, so this module provides the
//! small slice of it the workspace needs, built on a **persistent
//! deterministic worker pool** (the private `pool` submodule): workers are spawned once
//! (lazily, `FAM_THREADS`-sized), parked on a condvar, and fed fixed-chunk
//! task ranges through a generation-stamped job slot. Dispatching a job
//! costs a mutex round-trip and a wakeup — low single-digit microseconds —
//! where the previous per-call `std::thread::scope` team paid tens of
//! microseconds of spawn+join latency on every reduction.
//!
//! * [`map_chunks`] — map a function over **fixed-size** index chunks and
//!   return the per-chunk results **in chunk order**;
//! * [`for_each_chunk_mut`] — run a function over disjoint mutable
//!   sub-slices of a buffer (parallel writes without `unsafe`);
//! * [`for_each_chunk_mut_map`] — the same, but each chunk also returns a
//!   value, collected **in chunk order** (fused write+summarize passes);
//! * [`fill_adaptive`] — fill a caller-provided buffer element-wise
//!   (the allocation-free sibling of [`map_adaptive`]).
//!
//! # Determinism contract
//!
//! Every reduction in the workspace folds `map_chunks` results in chunk
//! order, and chunk boundaries depend only on the input length — never on
//! the thread count. The pool changes *who* computes a chunk (workers
//! claim chunk indices from a shared cursor, exactly like the scoped
//! teams did), never *what* is computed or how partials fold. The serial
//! fallback (1 core, the `parallel` feature disabled, or [`force_serial`])
//! executes the *same* chunked code path, so parallel and serial runs
//! produce **bit-identical** floating-point results. Do not "optimize" a
//! caller into accumulating across chunk boundaries; that is what breaks
//! the contract.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "parallel")]
mod pool;

/// Fixed reduction granularity (indices per chunk) used by the evaluation
/// engine. Part of the determinism contract: changing it changes the
/// floating-point grouping of every chunked sum.
pub const CHUNK: usize = 4096;

/// Minimum estimated work units (roughly one score read each) before
/// [`map_adaptive`] / [`fill_adaptive`] fan out instead of running one
/// serial chunk.
///
/// With the persistent worker pool, dispatch costs ~2 µs on the reference
/// host (`pool_forkjoin_overhead_us` in `BENCH_engine.json`, measured
/// against the ~40–70 µs scoped-spawn baseline it replaced), so the gate
/// drops from the old `1 << 18` (~0.25 ms of work) to `1 << 15` (~30 µs):
/// dispatch stays under ~10 % of the smallest batch that fans out, and
/// mid-size slices — the serving sweet spot — parallelize for the first
/// time.
pub const PAR_MIN_WORK: usize = 1 << 15;

static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);
static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Forces every helper in this module onto the serial path at runtime.
///
/// Intended for benchmarks (serial-vs-parallel A/B on one binary) and
/// equivalence tests; results are bit-identical either way.
pub fn force_serial(on: bool) {
    FORCE_SERIAL.store(on, Ordering::SeqCst);
}

/// Whether [`force_serial`] is currently active.
pub fn serial_forced() -> bool {
    FORCE_SERIAL.load(Ordering::SeqCst)
}

/// Overrides the worker count ( `None` restores auto-detection). Lets
/// equivalence tests exercise genuine multi-threaded execution on
/// machines that report a single core; [`force_serial`] wins when active.
pub fn set_max_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::SeqCst);
}

/// Number of worker threads the helpers may use right now.
#[cfg(feature = "parallel")]
pub fn max_threads() -> usize {
    if serial_forced() {
        return 1;
    }
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        t => t,
    }
}

/// The auto-detected thread count: `FAM_THREADS` when set to a positive
/// integer, else [`std::thread::available_parallelism`]. Read once — the
/// pool is process-wide, so flip-flopping the default mid-run would only
/// mislead; use [`set_max_threads`] for dynamic control.
#[cfg(feature = "parallel")]
fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FAM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Number of worker threads the helpers may use right now (always 1
/// without the `parallel` feature).
#[cfg(not(feature = "parallel"))]
pub fn max_threads() -> usize {
    1
}

/// Pre-spawns the pool's workers for the current [`max_threads`] so the
/// first real dispatch does not pay thread-spawn latency. Called by the
/// serve layer at startup; a no-op when one thread (or no `parallel`
/// feature) makes the pool irrelevant.
pub fn prewarm() {
    #[cfg(feature = "parallel")]
    {
        let threads = max_threads();
        if threads > 1 {
            pool::ensure_workers(threads - 1);
        }
    }
}

/// Lifetime counters of the persistent worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Workers ever spawned (monotone; workers are never torn down).
    pub workers_spawned: usize,
    /// Jobs ever dispatched through the job slot.
    pub jobs_dispatched: u64,
}

/// Snapshot of the pool's lifetime counters — lets tests pin that
/// sequential solves **reuse** workers instead of respawning them, and
/// the bench harness report dispatch counts.
#[cfg(feature = "parallel")]
pub fn pool_stats() -> PoolStats {
    let (workers_spawned, jobs_dispatched) = pool::stats();
    PoolStats { workers_spawned, jobs_dispatched }
}

/// Snapshot of the pool's lifetime counters (always zeros without the
/// `parallel` feature — there is no pool).
#[cfg(not(feature = "parallel"))]
pub fn pool_stats() -> PoolStats {
    PoolStats::default()
}

/// Splits `0..len` into chunks of `chunk` indices (the last may be short).
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..len.div_ceil(chunk)).map(|i| i * chunk..((i + 1) * chunk).min(len)).collect()
}

/// Applies `f` to every chunk of `0..len` and returns the results in
/// chunk order. Runs on up to [`max_threads`] workers; the serial
/// fallback applies `f` to the identical chunks in the identical order.
pub fn map_chunks<R, F>(len: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, chunk);
    run_indexed(ranges.len(), max_threads(), |i| f(ranges[i].clone()))
}

/// Applies `f(chunk_index, sub_slice)` to disjoint consecutive sub-slices
/// of `data`, each covering `chunk_items` items (the last may be short).
///
/// Writes are element-wise independent by construction, so the result is
/// identical for any thread count.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_items: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_items > 0, "chunk size must be positive");
    #[cfg(feature = "parallel")]
    {
        let threads = max_threads();
        if threads > 1 && data.len() > chunk_items {
            // One slot per chunk: each pool task claims exactly its own
            // sub-slice, so writes stay disjoint without `unsafe`.
            let slots: Vec<std::sync::Mutex<Option<&mut [T]>>> =
                data.chunks_mut(chunk_items).map(|c| std::sync::Mutex::new(Some(c))).collect();
            let task = |i: usize| {
                let chunk = lock_unpoisoned(&slots[i]).take().expect("each chunk claimed once");
                f(i, chunk);
            };
            pool::run(slots.len(), threads, &task);
            return;
        }
    }
    for (i, c) in data.chunks_mut(chunk_items).enumerate() {
        f(i, c);
    }
}

/// [`for_each_chunk_mut`] fused with a per-chunk return value: applies
/// `f(chunk_index, sub_slice)` to disjoint consecutive sub-slices of
/// `data` and returns the per-chunk results **in chunk order**, exactly
/// like [`map_chunks`].
///
/// This is the primitive behind single-pass "fill a buffer and summarize
/// it while it is still cache-hot" passes (the fused score+validate+best
/// matrix construction): chunk results arrive in chunk order, so a
/// short-circuiting fold over them reproduces serial first-error
/// semantics regardless of thread count.
///
/// ```
/// let mut data = vec![0.0f64; 10];
/// let sums = fam_core::par::for_each_chunk_mut_map(&mut data, 4, |i, c| {
///     for v in c.iter_mut() {
///         *v = i as f64;
///     }
///     c.iter().sum::<f64>()
/// });
/// assert_eq!(sums, vec![0.0, 4.0, 4.0]);
/// ```
pub fn for_each_chunk_mut_map<T, R, F>(data: &mut [T], chunk_items: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_items > 0, "chunk size must be positive");
    #[cfg(feature = "parallel")]
    {
        let threads = max_threads();
        if threads > 1 && data.len() > chunk_items {
            let slots: Vec<std::sync::Mutex<Option<&mut [T]>>> =
                data.chunks_mut(chunk_items).map(|c| std::sync::Mutex::new(Some(c))).collect();
            let out: Vec<std::sync::Mutex<Option<R>>> =
                (0..slots.len()).map(|_| std::sync::Mutex::new(None)).collect();
            let task = |i: usize| {
                let chunk = lock_unpoisoned(&slots[i]).take().expect("each chunk claimed once");
                let r = f(i, chunk);
                *lock_unpoisoned(&out[i]) = Some(r);
            };
            pool::run(slots.len(), threads, &task);
            return collect_slots(out);
        }
    }
    data.chunks_mut(chunk_items).enumerate().map(|(i, c)| f(i, c)).collect()
}

/// Computes `f(i)` for `i in 0..count` on up to `threads` workers,
/// returning results in index order.
fn run_indexed<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    #[cfg(feature = "parallel")]
    if threads > 1 && count > 1 {
        let out: Vec<std::sync::Mutex<Option<R>>> =
            (0..count).map(|_| std::sync::Mutex::new(None)).collect();
        let task = |i: usize| {
            let r = f(i);
            *lock_unpoisoned(&out[i]) = Some(r);
        };
        pool::run(count, threads, &task);
        return collect_slots(out);
    }
    #[cfg(not(feature = "parallel"))]
    let _ = threads;
    (0..count).map(f).collect()
}

/// Unwraps per-index result slots into an ordered `Vec` — index order, so
/// downstream folds see exactly the serial sequence.
#[cfg(feature = "parallel")]
fn collect_slots<R>(out: Vec<std::sync::Mutex<Option<R>>>) -> Vec<R> {
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every index produces exactly one result")
        })
        .collect()
}

/// Locks ignoring poisoning: the pool contains task panics before they
/// can poison these per-slot mutexes, and a slot holding plain data has
/// no invariant a panic could break mid-update.
#[cfg(feature = "parallel")]
fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Chunked map for calls whose per-chunk results are chunking-independent
/// (pure per-item maps, argmin/argmax folds with index tie-breaks — *not*
/// floating-point sums, which need the fixed [`CHUNK`] of [`map_chunks`]).
///
/// `per_item` estimates the work units (roughly one score read each) per
/// index. Batches below [`PAR_MIN_WORK`] total units run as one chunk:
/// even a persistent-pool dispatch costs a couple of microseconds, so
/// tiny batches would still pay more in dispatch latency than the work
/// itself.
pub fn map_adaptive<R, F>(len: usize, per_item: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = max_threads();
    if threads <= 1 || len.saturating_mul(per_item.max(1)) < PAR_MIN_WORK {
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(threads * 4).clamp(1, CHUNK);
    map_chunks(len, chunk, f)
}

/// Fills `out` with `f(i)` per element — the allocation-free sibling of
/// [`map_adaptive`] for per-item pure maps: the caller keeps (and
/// re-uses) the buffer, so steady-state rescans allocate nothing.
///
/// Each element is written exactly once from its own index, so the result
/// is identical for any thread count or chunking — the same contract as
/// [`for_each_chunk_mut`], which this delegates to. `per_item` estimates
/// work units per index exactly as in [`map_adaptive`].
pub fn fill_adaptive<R, F>(out: &mut [R], per_item: usize, f: F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fill_adaptive_with(out, per_item, || (), |_, i| f(i));
}

/// [`fill_adaptive`] with per-chunk scratch: `init` builds one state per
/// chunk and `f(&mut state, i)` fills each element, so a buffer the map
/// needs (a computed score row) is allocated once per chunk, not per
/// element. The state carries no results between elements, so the output
/// is identical for any thread count or chunking.
pub fn fill_adaptive_with<R, T, I, F>(out: &mut [R], per_item: usize, init: I, f: F)
where
    R: Send,
    I: Fn() -> T + Sync,
    F: Fn(&mut T, usize) -> R + Sync,
{
    let len = out.len();
    if len == 0 {
        return;
    }
    let threads = max_threads();
    if threads <= 1 || len.saturating_mul(per_item.max(1)) < PAR_MIN_WORK {
        let mut state = init();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(&mut state, i);
        }
        return;
    }
    let chunk = len.div_ceil(threads * 4).clamp(1, CHUNK);
    for_each_chunk_mut(out, chunk, |ci, sub| {
        let base = ci * chunk;
        let mut state = init();
        for (j, slot) in sub.iter_mut().enumerate() {
            *slot = f(&mut state, base + j);
        }
    });
}

/// Deterministic parallel argument-reduction over `0..len`: evaluates
/// `eval(i)` for every index (`None` skips it) and keeps the winning
/// `(value, index)` under `better(candidate, incumbent)` (`true` when the
/// candidate **strictly** wins).
///
/// Chunk winners fold in chunk order, so ties always keep the earliest
/// index — exactly what a serial first-wins scan produces. Every argmin /
/// argmax fan-out in the workspace goes through here so the tie-break
/// rule is single-sourced; `per_item` is the work estimate per index (see
/// [`map_adaptive`]).
pub fn arg_reduce<V, E, B>(len: usize, per_item: usize, eval: E, better: B) -> Option<(V, usize)>
where
    V: Send,
    E: Fn(usize) -> Option<V> + Sync,
    B: Fn(&V, &V) -> bool + Sync,
{
    map_adaptive(len, per_item, |range| {
        let mut best: Option<(V, usize)> = None;
        for i in range {
            if let Some(v) = eval(i) {
                match &best {
                    Some((incumbent, _)) if !better(&v, incumbent) => {}
                    _ => best = Some((v, i)),
                }
            }
        }
        best
    })
    .into_iter()
    .flatten()
    .reduce(|a, b| if better(&b.0, &a.0) { b } else { a })
}

/// Sums `f` over fixed chunks of `0..len`, folding partial sums in chunk
/// order — the canonical deterministic reduction of the engine.
pub fn sum_chunked<F>(len: usize, f: F) -> f64
where
    F: Fn(Range<usize>) -> f64 + Sync,
{
    map_chunks(len, CHUNK, f).into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_everything() {
        assert_eq!(chunk_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
    }

    #[test]
    fn map_chunks_returns_in_order() {
        let got = map_chunks(1000, 7, |r| r.start);
        let want: Vec<usize> = (0..1000).step_by(7).collect();
        assert_eq!(got, want);
    }

    // The two checks below toggle the process-global execution-mode
    // switches, so they run inside one #[test]: on concurrent harness
    // threads one check's force_serial(true) could overlap the other's
    // parallel leg and make the comparison vacuous.
    #[test]
    fn execution_mode_toggles_preserve_results() {
        forced_serial_matches_parallel();
        arg_reduce_matches_serial_first_wins_scan();
    }

    fn forced_serial_matches_parallel() {
        let f = |r: Range<usize>| r.map(|i| (i as f64).sqrt()).sum::<f64>();
        force_serial(true);
        let serial = sum_chunked(100_000, f);
        force_serial(false);
        set_max_threads(Some(4));
        let parallel = sum_chunked(100_000, f);
        set_max_threads(None);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn for_each_chunk_mut_writes_disjointly() {
        let mut data = vec![0usize; 1003];
        for_each_chunk_mut(&mut data, 10, |i, c| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = i * 10 + j;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn for_each_chunk_mut_map_returns_in_chunk_order() {
        let mut data = vec![0usize; 1003];
        let firsts = for_each_chunk_mut_map(&mut data, 10, |i, c| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = i * 10 + j;
            }
            c[0]
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
        let want: Vec<usize> = (0..1003).step_by(10).collect();
        assert_eq!(firsts, want);
    }

    fn arg_reduce_matches_serial_first_wins_scan() {
        // Values with many ties: the winner must be the earliest index
        // among the minima, with skips honored, in every mode.
        let vals: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 13).collect();
        let eval = |i: usize| (!i.is_multiple_of(3)).then_some(vals[i]);
        let serial_expected = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| !i.is_multiple_of(3))
            .min_by_key(|&(_, v)| v)
            .map(|(i, v)| (*v, i));
        force_serial(true);
        let serial = arg_reduce(vals.len(), 1 << 10, eval, |a, b| a < b);
        force_serial(false);
        set_max_threads(Some(4));
        let parallel = arg_reduce(vals.len(), 1 << 10, eval, |a, b| a < b);
        set_max_threads(None);
        assert_eq!(serial, serial_expected);
        assert_eq!(serial, parallel);
        assert_eq!(arg_reduce(0, 1, |_| Some(1u8), |a, b| a < b), None);
    }

    #[test]
    fn sum_chunked_is_chunk_order_fold() {
        let direct: f64 =
            map_chunks(10_000, CHUNK, |r| r.map(|i| i as f64).sum::<f64>()).into_iter().sum();
        assert_eq!(direct.to_bits(), sum_chunked(10_000, |r| r.map(|i| i as f64).sum()).to_bits());
    }

    #[test]
    fn fill_adaptive_matches_serial_fill() {
        let mut serial = vec![0u64; 40_000];
        let mut parallel = vec![0u64; 40_000];
        force_serial(true);
        fill_adaptive(&mut serial, 16, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        force_serial(false);
        set_max_threads(Some(4));
        fill_adaptive(&mut parallel, 16, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        set_max_threads(None);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 7u64.wrapping_mul(0x9E37_79B9));
        let mut empty: Vec<u64> = Vec::new();
        fill_adaptive(&mut empty, 16, |_| 0);
        assert!(empty.is_empty());
    }
}
