//! Cache-blocked, fixed-width-lane numeric kernels — the shared hot-path
//! substrate behind [`crate::scores`], [`crate::evaluator`],
//! [`crate::linear_scores`], and the greedy solvers.
//!
//! Every dense pass in the workspace is one of four stream shapes:
//!
//! * **dot products** over a point's coordinates ([`dot`],
//!   [`linear_score_row`], [`linear_best`], [`linear_best_checked`]) —
//!   the `O(nN)` scoring pass — and their transposed-operand twin
//!   [`linear_fill`], which computes the rows and column bands of the
//!   compact [`crate::LinearScores`] substrate, also fused into the two
//!   hot column folds ([`linear_addition_fold`], [`linear_regret_fold`]);
//! * **row argmax** ([`row_best`], [`validate_row_best`]) — the per-sample
//!   best-point pass, fused with validation;
//! * **ordered folds** ([`lane_sum`], [`lane_max`], and their band-carried
//!   accumulators [`LaneSum`], [`LaneMax`]) — the evaluator's `arr`
//!   refold and addition/candidate sweeps;
//! * **top-two scans** ([`top_two_gather`], [`top_two_listed`],
//!   [`top_two_dense`]) — the evaluator's removal rescans;
//!
//! plus the cache-blocked transposes ([`transpose`],
//! [`transpose_appended`]) that build and grow the point-major mirror.
//! Centralizing them here keeps the floating-point *shape* of each pass
//! single-sourced, which is what the bit-identity contract (every
//! thread count and every backing bit-equal, see [`crate::par`])
//! actually pins.
//!
//! # Determinism model
//!
//! Results are deterministic **within one compiled binary**: every kernel
//! fixes its lane decomposition and combine order, independent of thread
//! count or layout. Results may differ by ~1 ulp *across* binaries
//! compiled for different targets, because [`fmadd`] lowers to a fused
//! multiply-add only where the target has one (see its docs) — the
//! workspace never compares floats across builds, only within a run.
//!
//! The full memory-layout and performance model is documented in
//! `docs/PERFORMANCE.md` at the repository root.

/// Accumulator lanes per kernel. Four independent 64-bit lanes fill one
/// AVX2 vector and give superscalar FMA units enough independent chains
/// on any x86-64/aarch64 core; changing it changes the floating-point
/// grouping of every lane-decomposed reduction (see [`lane_sum`]).
pub const LANES: usize = 4;

/// Element tile processed per blocked-kernel step — small enough that a
/// scored tile is still L1-resident when the fused validate+best pass
/// re-reads it, and the band granularity of the blocked transposes
/// (64 × 64 doubles = two 32 KiB half-tiles).
pub const TILE: usize = 64;

/// `a * b + acc` with a single rounding where the compilation target has
/// a hardware fused multiply-add, and the plain two-rounding form where
/// it does not (on such targets `f64::mul_add` is a *libm call* — an
/// order of magnitude slower than the thing it replaces).
///
/// Both forms are deterministic; they just differ from each other by at
/// most one rounding. Every bit-identity pin in the workspace compares
/// values produced by the same binary, so the `cfg` never makes a test
/// outcome target-dependent.
#[inline(always)]
pub fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_feature = "fma", target_arch = "aarch64")))]
    {
        acc + a * b
    }
}

/// The canonical dot product: a serial [`fmadd`] chain over the shorter
/// of the two slices.
///
/// Everything that scores a linear utility goes through this exact
/// arithmetic shape — [`crate::LinearUtility`], the fused matrix scoring
/// pass ([`linear_score_row`]), and the compact
/// [`crate::LinearScores`] substrate — so a score computed on demand is
/// bit-identical to the same score materialized in a matrix.
///
/// ```
/// let w = [0.25, 0.75];
/// let p = [1.0, 1.0];
/// assert_eq!(fam_core::kernels::dot(&w, &p), 1.0);
/// ```
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc = fmadd(*x, *y, acc);
    }
    acc
}

/// Why a row failed validation: the first offending element in element
/// order, classified. Returned by [`validate_row_best`]; callers add
/// their own row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowIssue {
    /// `row[col]` is NaN or infinite.
    NonFinite {
        /// Element offset within the row.
        col: usize,
    },
    /// `row[col]` is finite but negative.
    Negative {
        /// Element offset within the row.
        col: usize,
    },
}

/// One tile's maximum and validity. The max is computed over `LANES`
/// independent `f64::max` lanes (exact — `max` performs no arithmetic),
/// the validity flag is a branchless conjunction of
/// `v >= 0.0 && v <= f64::MAX`, which rejects exactly NaN, `±inf`, and
/// negatives. NaN never poisons the max (`f64::max` ignores it); a tile
/// containing one always reports `ok == false`, so the max is only
/// consumed for valid tiles.
// Not `RangeInclusive::contains`: the mask is a deliberate non-short-
// circuit `&` conjunction so the lane loop stays branch-free.
#[allow(clippy::manual_range_contains)]
#[inline]
fn tile_max_ok(tile: &[f64]) -> (f64, bool) {
    let mut lanes = [f64::NEG_INFINITY; LANES];
    let mut ok = true;
    let mut i = 0;
    while i + LANES <= tile.len() {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let v = tile[i + l];
            ok &= (v >= 0.0) & (v <= f64::MAX);
            *lane = lane.max(v);
        }
        i += LANES;
    }
    while i < tile.len() {
        let v = tile[i];
        ok &= (v >= 0.0) & (v <= f64::MAX);
        lanes[0] = lanes[0].max(v);
        i += 1;
    }
    ((lanes[0].max(lanes[1])).max(lanes[2].max(lanes[3])), ok)
}

/// Position of the first element equal to `target` in `tile` — exact
/// comparison, used to recover the first-argmax position from a lane max.
#[inline]
fn first_position(tile: &[f64], target: f64) -> usize {
    tile.iter().position(|&v| v == target).expect("lane max is an element of the tile")
}

/// First strict argmax of a non-empty row: the index of the **first**
/// occurrence of the row's maximum, exactly what a serial
/// `if v > best { ... }` scan keeps.
///
/// The row must contain no NaN (validated rows always qualify); `±0.0`
/// compare equal, so a `-0.0` first occurrence wins over a later `+0.0`
/// just as in the serial scan.
///
/// ```
/// assert_eq!(fam_core::kernels::row_best(&[0.3, 0.9, 0.9, 0.1]), (1, 0.9));
/// ```
///
/// # Panics
///
/// Panics on an empty row.
#[inline]
pub fn row_best(row: &[f64]) -> (u32, f64) {
    assert!(!row.is_empty(), "row_best on an empty row");
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < row.len() {
        let t1 = (t0 + TILE).min(row.len());
        let tile = &row[t0..t1];
        let (tmax, _) = tile_max_ok(tile);
        if tmax > bv {
            bi = (t0 + first_position(tile, tmax)) as u32;
            bv = tmax;
        }
        t0 = t1;
    }
    (bi, bv)
}

/// Fused validate + first-strict-argmax over one score row — the
/// per-sample half of the paper's preprocessing, in a single pass.
///
/// Streams the row once in [`TILE`]-element tiles; each tile folds a
/// branchless validity mask and a lane max, and only a failing tile pays
/// for the scalar rescan that locates and classifies the first offending
/// element. The returned argmax is identical to the serial
/// first-strict-argmax scan ([`row_best`]); note that a best value of
/// `0.0` is *valid* here — degenerate-row rejection is the caller's
/// (row-index-aware) concern.
///
/// # Errors
///
/// Returns the first offending element in element order: [`RowIssue::NonFinite`]
/// for NaN/`±inf`, [`RowIssue::Negative`] for finite negatives.
pub fn validate_row_best(row: &[f64]) -> Result<(u32, f64), RowIssue> {
    debug_assert!(!row.is_empty(), "validate_row_best on an empty row");
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < row.len() {
        let t1 = (t0 + TILE).min(row.len());
        let tile = &row[t0..t1];
        let (tmax, ok) = tile_max_ok(tile);
        if !ok {
            // Earlier tiles were clean, so the row's first offending
            // element lives in this tile.
            for (j, &v) in tile.iter().enumerate() {
                if !(0.0..=f64::MAX).contains(&v) {
                    let col = t0 + j;
                    return Err(if v.is_finite() {
                        RowIssue::Negative { col }
                    } else {
                        RowIssue::NonFinite { col }
                    });
                }
            }
            unreachable!("tile failed the mask but every element passed it");
        }
        if tmax > bv {
            bi = (t0 + first_position(tile, tmax)) as u32;
            bv = tmax;
        }
        t0 = t1;
    }
    Ok((bi, bv))
}

/// Fused score + validate + best over one linear-utility row: writes
/// `out[p] = dot(weights, point_p)` for every point and returns
/// `(best_index, best_value, all_valid)` from the same pass.
///
/// `points` is the dataset's flat row-major coordinate buffer (point `p`
/// occupies `points[p * dim .. (p + 1) * dim]`). Points are scored
/// eight (`SCORE_UNROLL`) at a time with one independent accumulator chain per
/// point — each chain performs *exactly* the [`fmadd`] sequence of
/// [`dot`], so every written score is bit-identical to an on-demand
/// `dot(weights, point)` — then each finished [`TILE`] is folded for
/// validity and max while still L1-resident. Dimensions up to 8 are
/// compile-time specialized so the chains fully unroll with the weights
/// in registers.
///
/// When `all_valid` is `false`, call [`validate_row_best`] on the written
/// row to locate and classify the first offending element; the returned
/// best is meaningful only for valid rows.
///
/// # Panics
///
/// Panics if `weights.len() != dim` or `points.len() != out.len() * dim`.
pub fn linear_score_row(
    weights: &[f64],
    points: &[f64],
    dim: usize,
    out: &mut [f64],
) -> (u32, f64, bool) {
    assert_eq!(points.len(), out.len() * dim, "flat coordinate buffer does not match the row");
    assert_eq!(weights.len(), dim, "weight vector does not match the coordinate dimension");
    match dim {
        1 => score_row::<1>(weights, points, out),
        2 => score_row::<2>(weights, points, out),
        3 => score_row::<3>(weights, points, out),
        4 => score_row::<4>(weights, points, out),
        5 => score_row::<5>(weights, points, out),
        6 => score_row::<6>(weights, points, out),
        7 => score_row::<7>(weights, points, out),
        8 => score_row::<8>(weights, points, out),
        _ => score_row_dyn(weights, points, dim, out, fill_tile_dyn),
    }
}

/// Independent accumulator chains kept in flight by the scoring pass.
/// Wider than [`LANES`]: the dot products are latency-bound fmadd chains,
/// and more chains hide more latency. Safe for bit-identity because each
/// point's chain is independent — the chain *count* never changes any
/// chain's op sequence.
const SCORE_UNROLL: usize = 8;

/// [`linear_score_row`] with the dimension as a compile-time constant, so
/// the per-point fmadd chain fully unrolls, the weight vector stays in
/// registers, and the coordinate indexing needs one bounds check per
/// [`SCORE_UNROLL`] block.
#[inline(always)]
fn score_row<const D: usize>(weights: &[f64], points: &[f64], out: &mut [f64]) -> (u32, f64, bool) {
    score_row_dyn(weights, points, D, out, fill_tile::<D>)
}

/// The shared tile skeleton: fill each [`TILE`] of scores with `fill`,
/// then fold validity and the first-strict-argmax while the tile is still
/// L1-resident.
#[inline(always)]
fn score_row_dyn(
    weights: &[f64],
    points: &[f64],
    dim: usize,
    out: &mut [f64],
    fill: impl Fn(&[f64], &[f64], &mut [f64]),
) -> (u32, f64, bool) {
    let n = out.len();
    let (mut bi, mut bv, mut ok) = (0u32, f64::NEG_INFINITY, true);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + TILE).min(n);
        fill(weights, &points[t0 * dim..t1 * dim], &mut out[t0..t1]);
        let tile = &out[t0..t1];
        let (tmax, tok) = tile_max_ok(tile);
        ok &= tok;
        if tmax > bv {
            bi = (t0 + first_position(tile, tmax)) as u32;
            bv = tmax;
        }
        t0 = t1;
    }
    (bi, bv, ok)
}

/// Scores one span of points ([`SCORE_UNROLL`] chains in flight), `D`
/// known at compile time. Every chain performs exactly [`dot`]'s fmadd
/// sequence over coordinates `0..D`, so each written score is bit-equal
/// to `dot(weights, point)`.
#[inline(always)]
fn fill_tile<const D: usize>(weights: &[f64], pts: &[f64], out: &mut [f64]) {
    let w: &[f64; D] = weights.try_into().expect("dispatch guarantees weights.len() == D");
    let mut p = 0;
    let n = out.len();
    while p + SCORE_UNROLL <= n {
        let block = &pts[p * D..(p + SCORE_UNROLL) * D];
        let mut acc = [0.0f64; SCORE_UNROLL];
        for i in 0..D {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = fmadd(w[i], block[l * D + i], *lane);
            }
        }
        out[p..p + SCORE_UNROLL].copy_from_slice(&acc);
        p += SCORE_UNROLL;
    }
    while p < n {
        out[p] = dot(w, &pts[p * D..(p + 1) * D]);
        p += 1;
    }
}

/// Runtime-dimension fallback of [`fill_tile`] for `dim > 8`: same chain
/// shape, [`LANES`] points in flight.
fn fill_tile_dyn(weights: &[f64], pts: &[f64], out: &mut [f64]) {
    let dim = weights.len();
    let mut p = 0;
    let n = out.len();
    while p + LANES <= n {
        let base = p * dim;
        let mut acc = [0.0f64; LANES];
        for (i, &w) in weights.iter().enumerate() {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = fmadd(w, pts[base + l * dim + i], *lane);
            }
        }
        out[p..p + LANES].copy_from_slice(&acc);
        p += LANES;
    }
    while p < n {
        out[p] = dot(weights, &pts[p * dim..(p + 1) * dim]);
        p += 1;
    }
}

/// First-strict-argmax of `dot(weights, point_p)` over all points of a
/// flat coordinate buffer, **without** materializing the scores — the
/// kernel behind [`crate::LinearScores`]' `O(d(N + n))`-space best-point
/// pass. Scores stream through a [`TILE`]-sized stack buffer; each score
/// is bit-identical to [`dot`] on the same pair, so the result matches
/// [`linear_score_row`]'s best exactly.
///
/// # Panics
///
/// Panics if `dim == 0`, `weights.len() != dim`, or `points.len()` is not
/// a multiple of `dim`.
pub fn linear_best(weights: &[f64], points: &[f64], dim: usize) -> (u32, f64) {
    assert!(dim > 0, "points must have at least one coordinate");
    assert_eq!(points.len() % dim, 0, "flat coordinate buffer must be a whole number of points");
    let n = points.len() / dim;
    let mut buf = [0.0f64; TILE];
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + TILE).min(n);
        let tile = &mut buf[..t1 - t0];
        let (tbi, tbv, _) = linear_score_row(weights, &points[t0 * dim..t1 * dim], dim, tile);
        if tbv > bv {
            bi = t0 as u32 + tbi;
            bv = tbv;
        }
        t0 = t1;
    }
    (bi, bv)
}

/// First-strict-argmax of `dot(weights, point_p)` over a flat coordinate
/// buffer, with [`validate_row_best`]'s checks: the kernel behind
/// [`crate::LinearScores`]' validated best-point pass. Scores stream
/// through a [`TILE`]-sized stack buffer exactly as in [`linear_best`];
/// the first tile that fails validation is rescanned for its first
/// offending element, so the result (and the error) equals
/// `validate_row_best` on the materialized [`linear_score_row`].
///
/// # Errors
///
/// The first offending score in point order, classified as in
/// [`validate_row_best`].
///
/// # Panics
///
/// As [`linear_best`].
pub fn linear_best_checked(
    weights: &[f64],
    points: &[f64],
    dim: usize,
) -> Result<(u32, f64), RowIssue> {
    assert!(dim > 0, "points must have at least one coordinate");
    assert_eq!(points.len() % dim, 0, "flat coordinate buffer must be a whole number of points");
    let n = points.len() / dim;
    let mut buf = [0.0f64; TILE];
    let (mut bi, mut bv) = (0u32, f64::NEG_INFINITY);
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + TILE).min(n);
        let tile = &mut buf[..t1 - t0];
        let (tbi, tbv, ok) = linear_score_row(weights, &points[t0 * dim..t1 * dim], dim, tile);
        if !ok {
            return Err(match validate_row_best(tile) {
                Err(RowIssue::NonFinite { col }) => RowIssue::NonFinite { col: t0 + col },
                Err(RowIssue::Negative { col }) => RowIssue::Negative { col: t0 + col },
                Ok(_) => unreachable!("a tile that failed the mask holds an offending score"),
            });
        }
        if tbv > bv {
            bi = t0 as u32 + tbi;
            bv = tbv;
        }
        t0 = t1;
    }
    Ok((bi, bv))
}

/// Samples per band of a banded column fold: a [`linear_fill`] band of
/// this many scores (4 KiB) is folded while it is still L1-resident.
/// A multiple of [`LANES`], so [`LaneSum`] and [`LaneMax`] carry the
/// lane assignment of [`lane_sum`] / [`lane_max`] across bands.
pub const BAND: usize = 512;

/// Fills `out[i] = dot(v, t_{first + i})` where `t` holds `v.len()`
/// coordinate rows of `stride` entries (`t[j * stride + q]` is
/// coordinate `j` of item `q`) — the compact substrate's score fill over
/// *transposed* operands:
///
/// * a **row** fill passes one sample's weight vector as `v` and the
///   coordinates transposed to `d × n`;
/// * a **column band** fill passes one point's coordinates as `v` and
///   the weights transposed to `d × N`.
///
/// Each score runs [`dot`]'s [`fmadd`] chain over `j = 0..d` in order
/// (the product inside `fmadd` is exact and commutative, so which operand
/// comes from `v` changes no bit): every written score is bit-identical
/// to `dot(weights, point)`. The chains of a block of consecutive items
/// run side by side with the accumulators in registers, so the fill
/// streams `t` once and vectorizes across items.
///
/// # Panics
///
/// Panics if `t` is shorter than `v.len()` rows of `stride` entries, or
/// `first + out.len() > stride`.
pub fn linear_fill(v: &[f64], t: &[f64], stride: usize, first: usize, out: &mut [f64]) {
    let len = out.len();
    assert!(first + len <= stride, "fill range exceeds the transposed row length");
    assert!(t.len() >= v.len() * stride, "transposed buffer is shorter than its rows");
    match v.len() {
        1 => fill_transposed::<1>(v, t, stride, first, out),
        2 => fill_transposed::<2>(v, t, stride, first, out),
        3 => fill_transposed::<3>(v, t, stride, first, out),
        4 => fill_transposed::<4>(v, t, stride, first, out),
        5 => fill_transposed::<5>(v, t, stride, first, out),
        6 => fill_transposed::<6>(v, t, stride, first, out),
        7 => fill_transposed::<7>(v, t, stride, first, out),
        8 => fill_transposed::<8>(v, t, stride, first, out),
        _ => fill_transposed_dyn(v, t, stride, first, out),
    }
}

/// Items per register block of [`linear_fill`]: two [`LANES`]-wide
/// accumulator vectors. Wider blocks measured slower (the accumulators
/// stop fitting the register file next to the `D` weights).
const FILL_BLOCK: usize = 2 * LANES;

/// [`linear_fill`] with the dimension known at compile time: each block
/// of [`FILL_BLOCK`] items keeps its accumulators in registers while the
/// `D` coordinate rows stream past.
#[inline(always)]
fn fill_transposed<const D: usize>(
    v: &[f64],
    t: &[f64],
    stride: usize,
    first: usize,
    out: &mut [f64],
) {
    let len = out.len();
    let v: [f64; D] = v.try_into().expect("dispatch guarantees v.len() == D");
    let rows: [&[f64]; D] =
        std::array::from_fn(|j| &t[j * stride + first..j * stride + first + len]);
    let full = len / FILL_BLOCK * FILL_BLOCK;
    let mut i0 = 0;
    while i0 < full {
        let mut acc = [0.0f64; FILL_BLOCK];
        for j in 0..D {
            let row: &[f64; FILL_BLOCK] =
                rows[j][i0..i0 + FILL_BLOCK].try_into().expect("block-sized row slice");
            for l in 0..FILL_BLOCK {
                acc[l] = fmadd(v[j], row[l], acc[l]);
            }
        }
        out[i0..i0 + FILL_BLOCK].copy_from_slice(&acc);
        i0 += FILL_BLOCK;
    }
    for (i, o) in out.iter_mut().enumerate().skip(full) {
        let mut acc = 0.0f64;
        for j in 0..D {
            acc = fmadd(v[j], rows[j][i], acc);
        }
        *o = acc;
    }
}

/// Runtime-dimension fallback of [`fill_transposed`] for `d > 8`: the
/// same per-item chain, one coordinate row at a time over the output.
fn fill_transposed_dyn(v: &[f64], t: &[f64], stride: usize, first: usize, out: &mut [f64]) {
    out.fill(0.0);
    for (j, &vj) in v.iter().enumerate() {
        let row = &t[j * stride + first..j * stride + first + out.len()];
        for (o, &x) in out.iter_mut().zip(row) {
            *o = fmadd(vj, x, *o);
        }
    }
}

/// What a candidate scoring `score` on a sample adds to the addition delta
/// `arr(S ∪ {p}) − arr(S)`: `−weight · max(score − top1, 0) / best`.
/// The evaluator's addition scan folds this term over every sample,
/// whichever substrate supplies the scores.
#[inline(always)]
pub fn addition_term(weight: f64, score: f64, top1: f64, best: f64) -> f64 {
    -(weight * (score - top1).max(0.0) / best)
}

/// A candidate's witness regret on one sample, `(score − sat) / best`:
/// the term MRR-GREEDY's candidate scan takes the maximum of.
#[inline(always)]
pub fn regret_term(score: f64, sat: f64, best: f64) -> f64 {
    (score - sat) / best
}

/// [`linear_fill`]'s register blocks, each handed to `each(lane, i,
/// score)` as it completes, in increasing `i`, with `lane = i % LANES`
/// (the lane [`LaneSum::fold`] gives term `i` of a band that starts on a
/// lane boundary).
#[inline(always)]
fn fold_transposed<const D: usize>(
    v: &[f64],
    t: &[f64],
    stride: usize,
    first: usize,
    len: usize,
    mut each: impl FnMut(usize, usize, f64),
) {
    let v: [f64; D] = v.try_into().expect("dispatch guarantees v.len() == D");
    let rows: [&[f64]; D] =
        std::array::from_fn(|j| &t[j * stride + first..j * stride + first + len]);
    let full = len / FILL_BLOCK * FILL_BLOCK;
    let mut i0 = 0;
    while i0 < full {
        let mut acc = [0.0f64; FILL_BLOCK];
        for j in 0..D {
            let row: &[f64; FILL_BLOCK] =
                rows[j][i0..i0 + FILL_BLOCK].try_into().expect("block-sized row slice");
            for l in 0..FILL_BLOCK {
                acc[l] = fmadd(v[j], row[l], acc[l]);
            }
        }
        for (l, &score) in acc.iter().enumerate() {
            each(l % LANES, i0 + l, score);
        }
        i0 += FILL_BLOCK;
    }
    for i in full..len {
        let mut acc = 0.0f64;
        for (row, &vj) in rows.iter().zip(&v) {
            acc = fmadd(vj, row[i], acc);
        }
        each(i % LANES, i, acc);
    }
}

/// Runtime-dimension fallback of [`fold_transposed`] for `d > 8`: one
/// block at a time through [`fill_transposed_dyn`].
fn fold_transposed_dyn(
    v: &[f64],
    t: &[f64],
    stride: usize,
    first: usize,
    len: usize,
    mut each: impl FnMut(usize, usize, f64),
) {
    let mut block = [0.0f64; FILL_BLOCK];
    let mut i0 = 0;
    while i0 < len {
        let b = (len - i0).min(FILL_BLOCK);
        fill_transposed_dyn(v, t, stride, first + i0, &mut block[..b]);
        for (l, &score) in block[..b].iter().enumerate() {
            each((i0 + l) % LANES, i0 + l, score);
        }
        i0 += b;
    }
}

/// Dispatches [`fold_transposed`] on the dimension, as [`linear_fill`]
/// dispatches its fill.
macro_rules! fold_by_dim {
    ($v:expr, $t:expr, $stride:expr, $first:expr, $len:expr, $each:expr) => {
        match $v.len() {
            1 => fold_transposed::<1>($v, $t, $stride, $first, $len, $each),
            2 => fold_transposed::<2>($v, $t, $stride, $first, $len, $each),
            3 => fold_transposed::<3>($v, $t, $stride, $first, $len, $each),
            4 => fold_transposed::<4>($v, $t, $stride, $first, $len, $each),
            5 => fold_transposed::<5>($v, $t, $stride, $first, $len, $each),
            6 => fold_transposed::<6>($v, $t, $stride, $first, $len, $each),
            7 => fold_transposed::<7>($v, $t, $stride, $first, $len, $each),
            8 => fold_transposed::<8>($v, $t, $stride, $first, $len, $each),
            _ => fold_transposed_dyn($v, $t, $stride, $first, $len, $each),
        }
    };
}

/// [`linear_fill`] fused with the addition scan's fold: adds
/// [`addition_term`]`(weights[i], score_i, top1[i], best[i])` to `sum`
/// for the band `first..first + weights.len()`, each `score_i =
/// dot(w_{first+i}, point)` computed in registers as the fold consumes
/// it. Bit-identical to `linear_fill` into a buffer followed by
/// [`LaneSum::fold`] of the same term; faster, because the fill's
/// multiply-adds run beside the fold's divisions instead of before them.
///
/// # Panics
///
/// As [`linear_fill`], or if `top1` or `best` is shorter than `weights`;
/// `first` must be a multiple of [`LANES`].
#[allow(clippy::too_many_arguments)]
pub fn linear_addition_fold(
    point: &[f64],
    weights_t: &[f64],
    stride: usize,
    first: usize,
    weights: &[f64],
    top1: &[f64],
    best: &[f64],
    sum: &mut LaneSum,
) {
    let len = weights.len();
    assert!(first + len <= stride, "fold range exceeds the transposed row length");
    assert!(weights_t.len() >= point.len() * stride, "transposed buffer is shorter than its rows");
    debug_assert_eq!(first % LANES, 0, "bands start on a lane boundary");
    let (top1, best, acc) = (&top1[..len], &best[..len], &mut sum.0);
    fold_by_dim!(point, weights_t, stride, first, len, |lane: usize, i: usize, score: f64| {
        acc[lane] += addition_term(weights[i], score, top1[i], best[i]);
    });
}

/// [`linear_fill`] fused with MRR-GREEDY's candidate fold: folds
/// [`regret_term`]`(score_i, sat[i], best[i])` into `max` for the band
/// `first..first + sat.len()`, bit-identical to `linear_fill` followed
/// by [`LaneMax::fold`] of the same term.
///
/// # Panics
///
/// As [`linear_addition_fold`].
pub fn linear_regret_fold(
    point: &[f64],
    weights_t: &[f64],
    stride: usize,
    first: usize,
    sat: &[f64],
    best: &[f64],
    max: &mut LaneMax,
) {
    let len = sat.len();
    assert!(first + len <= stride, "fold range exceeds the transposed row length");
    assert!(weights_t.len() >= point.len() * stride, "transposed buffer is shorter than its rows");
    debug_assert_eq!(first % LANES, 0, "bands start on a lane boundary");
    let (best, acc) = (&best[..len], &mut max.0);
    fold_by_dim!(point, weights_t, stride, first, len, |lane: usize, i: usize, score: f64| {
        acc[lane] = acc[lane].max(regret_term(score, sat[i], best[i]));
    });
}

/// Sentinel point index meaning "no point" in the top-two kernels.
pub const NO_POINT: u32 = u32::MAX;

/// The top-two scan every variant below shares: keeps the first strict
/// best and runner-up of `(point, score)` pairs in iteration order,
/// skipping `exclude`. Values are `0.0` where the index is [`NO_POINT`].
#[inline(always)]
fn top_two_scan(scored: impl Iterator<Item = (u32, f64)>, exclude: u32) -> (u32, f64, u32, f64) {
    let (mut b1, mut v1, mut b2, mut v2) = (NO_POINT, 0.0f64, NO_POINT, 0.0f64);
    for (p, s) in scored {
        if p == exclude {
            continue;
        }
        if b1 == NO_POINT || s > v1 {
            b2 = b1;
            v2 = v1;
            b1 = p;
            v1 = s;
        } else if b2 == NO_POINT || s > v2 {
            b2 = p;
            v2 = s;
        }
    }
    (b1, if b1 == NO_POINT { 0.0 } else { v1 }, b2, if b2 == NO_POINT { 0.0 } else { v2 })
}

/// Best and runner-up scores of one sample row over an explicit member
/// list (a *gather*: `members` need not be sorted — the scan order is the
/// list order), skipping `exclude` (pass [`NO_POINT`] to skip nothing).
/// Returned values are `0.0` when the corresponding index is
/// [`NO_POINT`].
///
/// On bit-equal ties the recorded *indices* follow the scan order, so
/// they may differ from [`top_two_dense`]'s; the returned *values* are
/// order statistics of the same multiset and always agree bit-for-bit.
#[inline]
pub fn top_two_gather(row: &[f64], members: &[u32], exclude: u32) -> (u32, f64, u32, f64) {
    top_two_scan(members.iter().map(|&p| (p, row[p as usize])), exclude)
}

/// [`top_two_gather`] over scores already gathered in list order
/// (`scores[i]` is the score of `members[i]`): the same scan, the same
/// tie-breaks, so the result is identical to gathering from the row.
///
/// # Panics
///
/// Panics (debug) if the two slices differ in length.
#[inline]
pub fn top_two_listed(members: &[u32], scores: &[f64], exclude: u32) -> (u32, f64, u32, f64) {
    debug_assert_eq!(members.len(), scores.len(), "one score per member");
    top_two_scan(members.iter().copied().zip(scores.iter().copied()), exclude)
}

/// [`top_two_gather`] for *dense* selections: streams the whole row in
/// index order and keeps the members flagged in `in_sel`. When the
/// selection covers a large fraction of the points this trades the
/// member-list gather (random access within each row once removals have
/// scrambled the list) for a sequential prefetchable read — the
/// GREEDY-SHRINK removal-rescan shape.
///
/// Values are bit-identical to the gather variant on the same selection;
/// tie indices follow index order (see [`top_two_gather`]).
///
/// # Panics
///
/// Panics if `row` is shorter than `in_sel`.
#[inline]
pub fn top_two_dense(row: &[f64], in_sel: &[bool], exclude: u32) -> (u32, f64, u32, f64) {
    let (mut b1, mut v1, mut b2, mut v2) = (NO_POINT, 0.0f64, NO_POINT, 0.0f64);
    for (p, &selected) in in_sel.iter().enumerate() {
        if !selected || p as u32 == exclude {
            continue;
        }
        let s = row[p];
        if b1 == NO_POINT || s > v1 {
            b2 = b1;
            v2 = v1;
            b1 = p as u32;
            v1 = s;
        } else if b2 == NO_POINT || s > v2 {
            b2 = p as u32;
            v2 = s;
        }
    }
    (b1, if b1 == NO_POINT { 0.0 } else { v1 }, b2, if b2 == NO_POINT { 0.0 } else { v2 })
}

/// Sum of `f(0) + f(1) + … + f(n-1)` over [`LANES`] independent
/// accumulators: lane `l` owns indices `≡ l (mod LANES)` (the tail
/// spills into the low lanes) and the lanes combine as
/// `(a0 + a1) + (a2 + a3)`.
///
/// This *is* the canonical grouping: any two call sites folding the same
/// terms through `lane_sum` produce bit-identical sums, which is how the
/// evaluator keeps its incremental `arr` equal to a rebuild's. The
/// grouping deliberately differs from a serial left fold — callers pin
/// against each other, never against a serial reference.
///
/// ```
/// use fam_core::kernels::lane_sum;
/// let v = [1.5, 2.5, 3.5, 4.5, 5.5];
/// // lanes: (1.5 + 5.5), 2.5, 3.5, 4.5 → (7.0 + 2.5) + (3.5 + 4.5)
/// assert_eq!(lane_sum(v.len(), |i| v[i]), 17.5);
/// ```
#[inline]
pub fn lane_sum<F: FnMut(usize) -> f64>(n: usize, f: F) -> f64 {
    let mut sum = LaneSum::new();
    sum.fold(0, n, f);
    sum.total()
}

/// [`lane_sum`]'s accumulator, carried across bands: term `i` always
/// lands in lane `i % LANES` (the main loop's lanes, and the tail's,
/// since every band starts on a multiple of [`LANES`]), so folding
/// `0..n` band by band adds exactly the terms `lane_sum(n, f)` adds, in
/// the same order per lane — the sum is bit-identical for any band size
/// that is a multiple of `LANES` (see [`BAND`]).
#[derive(Debug, Clone, Copy)]
pub struct LaneSum([f64; LANES]);

impl LaneSum {
    /// An empty sum.
    #[inline]
    pub const fn new() -> Self {
        LaneSum([0.0; LANES])
    }

    /// Adds `f(0), …, f(len-1)` as the terms at indices
    /// `start..start + len`. Every band but the last must have a length
    /// that is a multiple of [`LANES`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if `start` is not a multiple of [`LANES`].
    #[inline]
    pub fn fold<F: FnMut(usize) -> f64>(&mut self, start: usize, len: usize, mut f: F) {
        debug_assert_eq!(start % LANES, 0, "bands start on a lane boundary");
        let acc = &mut self.0;
        let mut i = 0;
        while i + LANES <= len {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane += f(i + l);
            }
            i += LANES;
        }
        let mut l = 0;
        while i < len {
            acc[l] += f(i);
            i += 1;
            l += 1;
        }
    }

    /// The sum: the lanes combine as `(a0 + a1) + (a2 + a3)`.
    #[inline]
    pub fn total(self) -> f64 {
        let a = self.0;
        (a[0] + a[1]) + (a[2] + a[3])
    }
}

impl Default for LaneSum {
    fn default() -> Self {
        Self::new()
    }
}

/// Maximum of `init` and `f(0), …, f(n-1)` over [`LANES`] lanes. `max`
/// performs no arithmetic, so unlike [`lane_sum`] the result is
/// **bit-identical to the serial fold** for NaN-free inputs (up to the
/// sign of a zero when `±0.0` tie, which no caller observes) — safe to
/// drop into existing scans without re-pinning anything.
#[inline]
pub fn lane_max<F: FnMut(usize) -> f64>(init: f64, n: usize, f: F) -> f64 {
    let mut max = LaneMax::new(init);
    max.fold(0, n, f);
    max.total()
}

/// [`lane_max`]'s accumulator, carried across bands exactly as
/// [`LaneSum`] carries [`lane_sum`]'s.
#[derive(Debug, Clone, Copy)]
pub struct LaneMax([f64; LANES]);

impl LaneMax {
    /// A maximum seeded with `init` in every lane.
    #[inline]
    pub const fn new(init: f64) -> Self {
        LaneMax([init; LANES])
    }

    /// Folds `f(0), …, f(len-1)` as the terms at indices
    /// `start..start + len` (see [`LaneSum::fold`]).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `start` is not a multiple of [`LANES`].
    #[inline]
    pub fn fold<F: FnMut(usize) -> f64>(&mut self, start: usize, len: usize, mut f: F) {
        debug_assert_eq!(start % LANES, 0, "bands start on a lane boundary");
        let acc = &mut self.0;
        let mut i = 0;
        while i + LANES <= len {
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = lane.max(f(i + l));
            }
            i += LANES;
        }
        let mut l = 0;
        while i < len {
            acc[l] = acc[l].max(f(i));
            i += 1;
            l += 1;
        }
    }

    /// The maximum over every lane.
    #[inline]
    pub fn total(self) -> f64 {
        let a = self.0;
        (a[0].max(a[1])).max(a[2].max(a[3]))
    }
}

/// Cache-blocked transpose of one band of columns: rows `0..n_rows` of
/// `src` (`n_cols` values each) land at `out[local * col_len + offset +
/// u]` for band-local column `local` (absolute column `first_col +
/// local`). Row blocks of [`TILE`] samples keep both the source rows and
/// the destination columns cache-resident.
#[allow(clippy::too_many_arguments)]
fn transpose_band(
    src: &[f64],
    n_rows: usize,
    n_cols: usize,
    out: &mut [f64],
    col_len: usize,
    offset: usize,
    first_col: usize,
    band: usize,
) {
    for u0 in (0..n_rows).step_by(TILE) {
        let u1 = (u0 + TILE).min(n_rows);
        for local in 0..band {
            let p = first_col + local;
            let col = &mut out[local * col_len..(local + 1) * col_len];
            for u in u0..u1 {
                col[offset + u] = src[u * n_cols + p];
            }
        }
    }
}

/// Cache-blocked transpose of a sample-major `n_rows × n_cols` buffer
/// into a point-major one (column `p` is `n_rows` contiguous values).
pub fn transpose(src: &[f64], n_rows: usize, n_cols: usize) -> Vec<f64> {
    transpose_appended(&[], 0, src, n_rows, n_cols)
}

/// A point-major buffer grown by sample-major rows: column `p` of the
/// result holds `columns`' column `p` (`n_old` values), then column `p`
/// of the `n_rows × n_cols` block `rows`, exact-size. Every stage is
/// memory-bandwidth bound, so each band of columns copies its old
/// columns and transposes the new rows behind them in one pass, with no
/// intermediate buffer. Parallelized over bands of whole columns; bands
/// never go below [`TILE`] columns — a one-column band would degenerate
/// the blocked transpose into a cache miss per element.
pub fn transpose_appended(
    columns: &[f64],
    n_old: usize,
    rows: &[f64],
    n_rows: usize,
    n_cols: usize,
) -> Vec<f64> {
    let col_len = n_old + n_rows;
    let mut grown = vec![0.0f64; n_cols * col_len];
    let cols_per_chunk = (crate::par::CHUNK / col_len.max(1)).max(TILE);
    crate::par::for_each_chunk_mut(&mut grown, cols_per_chunk * col_len, |chunk, out| {
        let first_col = chunk * cols_per_chunk;
        let band = out.len() / col_len;
        for local in 0..band {
            let p = first_col + local;
            out[local * col_len..local * col_len + n_old]
                .copy_from_slice(&columns[p * n_old..(p + 1) * n_old]);
        }
        transpose_band(rows, n_rows, n_cols, out, col_len, n_old, first_col, band);
    });
    grown
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sizes straddling every kernel boundary: the empty-adjacent cases,
    /// the lane width, and the tile width ± 1.
    fn edge_sizes() -> Vec<usize> {
        vec![1, 2, LANES - 1, LANES, LANES + 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 3]
    }

    fn serial_first_argmax(row: &[f64]) -> (u32, f64) {
        let (mut bi, mut bv) = (0usize, row[0]);
        for (i, &v) in row.iter().enumerate().skip(1) {
            if v > bv {
                bi = i;
                bv = v;
            }
        }
        (bi as u32, bv)
    }

    /// The naive three-pass reference the fused kernels replace:
    /// element validation in element order, then a serial argmax.
    fn naive_three_pass(row: &[f64]) -> Result<(u32, f64), RowIssue> {
        for (col, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(RowIssue::NonFinite { col });
            }
            if v < 0.0 {
                return Err(RowIssue::Negative { col });
            }
        }
        Ok(serial_first_argmax(row))
    }

    #[test]
    fn dot_exact_cases() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[2.0], &[3.0]), 6.0);
        assert_eq!(dot(&[0.5, 2.0], &[2.0, 0.25]), 1.5);
        // Shorter slice bounds the iteration, either way around.
        assert_eq!(dot(&[1.0, 1.0], &[3.0]), 3.0);
        assert_eq!(dot(&[3.0], &[1.0, 1.0]), 3.0);
    }

    #[test]
    fn row_best_keeps_first_strict_max_across_tile_boundaries() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in edge_sizes() {
            // Coarse quantization forces plenty of exact ties.
            let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64 / 8.0).collect();
            assert_eq!(row_best(&row), serial_first_argmax(&row), "n = {n}, row = {row:?}");
        }
        // A tie straddling a tile boundary must keep the earlier index.
        let mut row = vec![0.1; TILE + 4];
        row[TILE - 1] = 0.9;
        row[TILE + 1] = 0.9;
        assert_eq!(row_best(&row), (TILE as u32 - 1, 0.9));
    }

    #[test]
    fn validate_row_best_matches_naive_three_pass() {
        let mut rng = StdRng::seed_from_u64(12);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25, -0.0, 0.0];
        for trial in 0..500 {
            let n = edge_sizes()[trial % edge_sizes().len()];
            let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..16) as f64 / 16.0).collect();
            // Sprinkle up to three special values at random positions.
            for _ in 0..rng.gen_range(0..4) {
                row[rng.gen_range(0..n)] = specials[rng.gen_range(0..specials.len())];
            }
            let got = validate_row_best(&row);
            let want = naive_three_pass(&row);
            match (got, want) {
                (Ok((gi, gv)), Ok((wi, wv))) => {
                    assert_eq!(gi, wi, "trial {trial}: index, row = {row:?}");
                    assert_eq!(gv.to_bits(), wv.to_bits(), "trial {trial}: value");
                }
                (g, w) => assert_eq!(g, w, "trial {trial}: error, row = {row:?}"),
            }
        }
    }

    #[test]
    fn linear_score_row_is_bitwise_dot_per_element() {
        let mut rng = StdRng::seed_from_u64(13);
        // 1–8 take the const-specialized fill, 9 and 12 the dynamic one.
        for dim in [1usize, 3, 4, 7, 8, 9, 12] {
            for n in edge_sizes() {
                let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let flat: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let mut out = vec![0.0; n];
                let (bi, bv, ok) = linear_score_row(&w, &flat, dim, &mut out);
                assert!(ok);
                for p in 0..n {
                    let want = dot(&w, &flat[p * dim..(p + 1) * dim]);
                    assert_eq!(
                        out[p].to_bits(),
                        want.to_bits(),
                        "dim {dim}, n {n}, point {p}: fused score must equal dot"
                    );
                }
                assert_eq!((bi, bv), serial_first_argmax(&out), "dim {dim}, n {n}: fused best");
                let (ci, cv) = linear_best(&w, &flat, dim);
                assert_eq!((ci, cv.to_bits()), (bi, bv.to_bits()), "linear_best must agree");
            }
        }
    }

    /// Lengths straddling the lane width, the fill block and the band.
    fn fill_lengths() -> Vec<usize> {
        vec![1, LANES - 1, LANES, LANES + 1, FILL_BLOCK + 1, BAND - 1, BAND, BAND + 1, 2 * BAND + 3]
    }

    #[test]
    fn fills_are_bitwise_dot_per_item() {
        let mut rng = StdRng::seed_from_u64(18);
        // 1–8 take the const-specialized fill, 9 and 12 the dynamic one.
        for dim in (1..=9).chain([12]) {
            let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
            for len in fill_lengths() {
                // Row fill: one weight vector against transposed
                // coordinates; the band starts past the first points.
                let first = 3;
                let n = first + len + 2;
                let flat: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let coords_t = transpose(&flat, n, dim);
                let mut out = vec![0.0; len];
                linear_fill(&w, &coords_t, n, first, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let p = first + i;
                    let want = dot(&w, &flat[p * dim..(p + 1) * dim]);
                    assert_eq!(got.to_bits(), want.to_bits(), "row: dim {dim}, len {len}, {p}");
                }
                // Column band fill: one point against transposed weights.
                let weights = flat;
                let weights_t = coords_t;
                let point: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                linear_fill(&point, &weights_t, n, first, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let u = first + i;
                    let want = dot(&weights[u * dim..(u + 1) * dim], &point);
                    assert_eq!(got.to_bits(), want.to_bits(), "column: dim {dim}, len {len}, {u}");
                }
            }
        }
    }

    #[test]
    fn fused_folds_equal_fill_then_fold() {
        let mut rng = StdRng::seed_from_u64(22);
        for dim in (1..=9).chain([12]) {
            for len in fill_lengths() {
                // A band that starts on a lane boundary past the start.
                let first = 2 * LANES;
                let stride = first + len + 5;
                let weights: Vec<f64> =
                    (0..stride * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let weights_t = transpose(&weights, stride, dim);
                let point: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let mass: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..0.1)).collect();
                let top1: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..1.5)).collect();
                let best: Vec<f64> = top1.iter().map(|t| t + rng.gen_range(0.1..1.0)).collect();
                let mut band = vec![0.0; len];
                linear_fill(&point, &weights_t, stride, first, &mut band);
                let what = format!("dim {dim}, len {len}");
                let (mut want, mut got) = (LaneSum::new(), LaneSum::new());
                want.fold(first, len, |i| addition_term(mass[i], band[i], top1[i], best[i]));
                linear_addition_fold(
                    &point, &weights_t, stride, first, &mass, &top1, &best, &mut got,
                );
                assert_eq!(got.total().to_bits(), want.total().to_bits(), "sum: {what}");
                let (mut want, mut got) = (LaneMax::new(0.0), LaneMax::new(0.0));
                want.fold(first, len, |i| regret_term(band[i], top1[i], best[i]));
                linear_regret_fold(&point, &weights_t, stride, first, &top1, &best, &mut got);
                assert_eq!(got.total().to_bits(), want.total().to_bits(), "max: {what}");
            }
        }
    }

    #[test]
    fn banded_folds_equal_one_fold() {
        let mut rng = StdRng::seed_from_u64(19);
        for n in [0, 1, 3, 4, BAND - 1, BAND, BAND + 1, 2 * BAND + 3] {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (mut sum, mut max) = (LaneSum::new(), LaneMax::new(-0.5));
            for b0 in (0..n).step_by(BAND) {
                let band = &v[b0..(b0 + BAND).min(n)];
                sum.fold(b0, band.len(), |i| band[i]);
                max.fold(b0, band.len(), |i| band[i]);
            }
            let want = lane_sum(n, |i| v[i]);
            assert_eq!(sum.total().to_bits(), want.to_bits(), "sum, n = {n}");
            assert_eq!(
                max.total().to_bits(),
                lane_max(-0.5, n, |i| v[i]).to_bits(),
                "max, n = {n}"
            );
        }
    }

    #[test]
    fn listed_top_two_equals_the_gather() {
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..100 {
            let n = rng.gen_range(1..40);
            let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..6) as f64 / 6.0).collect();
            let members: Vec<u32> = (0..n as u32).rev().filter(|_| rng.gen_bool(0.7)).collect();
            let listed: Vec<f64> = members.iter().map(|&p| row[p as usize]).collect();
            let exclude = members.first().copied().unwrap_or(NO_POINT);
            let (a, b) = (
                top_two_gather(&row, &members, exclude),
                top_two_listed(&members, &listed, exclude),
            );
            assert_eq!(
                (a.0, a.1.to_bits(), a.2, a.3.to_bits()),
                (b.0, b.1.to_bits(), b.2, b.3.to_bits())
            );
        }
    }

    #[test]
    fn checked_linear_best_matches_the_row_pass() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in edge_sizes() {
            let dim = 3;
            let w: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
            let mut flat: Vec<f64> =
                (0..n * dim).map(|_| rng.gen_range(0..4) as f64 / 4.0).collect();
            let mut row = vec![0.0; n];
            linear_score_row(&w, &flat, dim, &mut row);
            assert_eq!(linear_best_checked(&w, &flat, dim), validate_row_best(&row), "n = {n}");
            // An overflowing point is found at its own index.
            let bad = n / 2;
            flat[bad * dim..(bad + 1) * dim].fill(f64::MAX);
            let big = [2.0, 2.0, 2.0];
            linear_score_row(&big, &flat, dim, &mut row);
            assert_eq!(linear_best_checked(&big, &flat, dim), validate_row_best(&row), "n = {n}");
            assert_eq!(
                linear_best_checked(&big, &flat, dim),
                Err(RowIssue::NonFinite { col: bad })
            );
        }
    }

    #[test]
    fn linear_score_row_flags_invalid_scores() {
        // A negative coordinate drives one score negative; the fused pass
        // must flag the row and the rescan must locate that element.
        let w = [1.0, 1.0];
        let flat = [0.5, 0.5, 0.25, -0.75, 0.1, 0.2];
        let mut out = vec![0.0; 3];
        let (_, _, ok) = linear_score_row(&w, &flat, 2, &mut out);
        assert!(!ok);
        assert_eq!(validate_row_best(&out), Err(RowIssue::Negative { col: 1 }));
    }

    #[test]
    fn top_two_variants_agree_on_values() {
        let mut rng = StdRng::seed_from_u64(14);
        for trial in 0..200 {
            let n = rng.gen_range(1..2 * TILE);
            let row: Vec<f64> = (0..n).map(|_| rng.gen_range(0..8) as f64 / 8.0).collect();
            let mut members: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.6)).collect();
            // Scramble the member list the way swap-removals do.
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..=i));
            }
            let mut in_sel = vec![false; n];
            for &p in &members {
                in_sel[p as usize] = true;
            }
            let exclude = if members.is_empty() || rng.gen_bool(0.3) {
                NO_POINT
            } else {
                members[rng.gen_range(0..members.len())]
            };
            let (g1, gv1, g2, gv2) = top_two_gather(&row, &members, exclude);
            let (d1, dv1, d2, dv2) = top_two_dense(&row, &in_sel, exclude);
            assert_eq!(gv1.to_bits(), dv1.to_bits(), "trial {trial}: top1 value");
            assert_eq!(gv2.to_bits(), dv2.to_bits(), "trial {trial}: top2 value");
            // Indices agree whenever the winning values are untied; on
            // ties both still point at members holding the same value.
            if g1 != d1 {
                assert_eq!(row[g1 as usize].to_bits(), row[d1 as usize].to_bits());
            }
            if g2 != NO_POINT && d2 != NO_POINT && g2 != d2 {
                assert_eq!(row[g2 as usize].to_bits(), row[d2 as usize].to_bits());
            }
        }
    }

    #[test]
    fn top_two_empty_and_singleton() {
        assert_eq!(top_two_gather(&[0.5], &[], NO_POINT), (NO_POINT, 0.0, NO_POINT, 0.0));
        assert_eq!(top_two_gather(&[0.5], &[0], 0), (NO_POINT, 0.0, NO_POINT, 0.0));
        assert_eq!(top_two_gather(&[0.5], &[0], NO_POINT), (0, 0.5, NO_POINT, 0.0));
        assert_eq!(top_two_dense(&[0.5], &[true], NO_POINT), (0, 0.5, NO_POINT, 0.0));
    }

    #[test]
    fn lane_sum_matches_its_documented_grouping() {
        let mut rng = StdRng::seed_from_u64(15);
        for n in edge_sizes() {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Reference: explicit lane decomposition.
            let mut acc = [0.0f64; LANES];
            let full = (n / LANES) * LANES;
            for i in 0..full {
                acc[i % LANES] += v[i];
            }
            for (l, i) in (full..n).enumerate() {
                acc[l] += v[i];
            }
            let want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            assert_eq!(lane_sum(n, |i| v[i]).to_bits(), want.to_bits(), "n = {n}");
        }
        assert_eq!(lane_sum(0, |_| 1.0), 0.0);
    }

    #[test]
    fn lane_max_matches_serial_fold() {
        let mut rng = StdRng::seed_from_u64(16);
        for n in edge_sizes() {
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = v.iter().fold(0.25f64, |m, &x| if x > m { x } else { m });
            assert_eq!(lane_max(0.25, n, |i| v[i]).to_bits(), want.to_bits(), "n = {n}");
        }
        assert_eq!(lane_max(0.5, 0, |_| 9.0), 0.5);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = StdRng::seed_from_u64(17);
        for (n_rows, n_cols) in [(1, 1), (1, 5), (5, 1), (TILE + 3, 3), (7, TILE + 2)] {
            let src: Vec<f64> = (0..n_rows * n_cols).map(|_| rng.gen_range(0.0..1.0)).collect();
            let tight = transpose(&src, n_rows, n_cols);
            for r in 0..n_rows {
                for c in 0..n_cols {
                    assert_eq!(tight[c * n_rows + r].to_bits(), src[r * n_cols + c].to_bits());
                }
            }
            // Growing by more rows equals transposing the concatenation.
            let extra = n_rows / 2 + 1;
            let more: Vec<f64> = (0..extra * n_cols).map(|_| rng.gen_range(0.0..1.0)).collect();
            let grown = transpose_appended(&tight, n_rows, &more, extra, n_cols);
            let whole = transpose(&[src, more].concat(), n_rows + extra, n_cols);
            assert_eq!(grown, whole, "{n_rows} x {n_cols} + {extra} rows");
        }
    }
}
