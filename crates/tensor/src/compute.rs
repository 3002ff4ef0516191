//! Shared CPU compute substrate: scoped-thread row sharding and the
//! backend-dispatched gemm engine behind [`Tensor`](crate::Tensor)'s
//! matmuls.
//!
//! Everything here preserves **bit-identical results** at any worker count
//! and on any backend: each output element accumulates its `k`
//! contributions in strictly ascending order into a single accumulator,
//! threads only ever split work across *disjoint output rows*, and every
//! backend replays the same per-element accumulation order (see the
//! [`crate::backend`] module docs). That discipline is what
//! lets the attack's checkpoint/determinism suites hold while the kernels
//! run tiled, parallel, and vectorized.
//!
//! Kernel selection and worker counts are **read at dispatch time**: the
//! backend is the CPU-detected one unless [`crate::backend::force_scalar`]
//! pins the scalar reference, and `RELOCK_THREADS` seeds the worker count
//! once while [`set_thread_override`] can re-route any later dispatch, so
//! tests and the CLI can vary the worker count per case without the
//! stale-env footgun the old `OnceLock`-only cache had.

use crate::backend::{active_backend, Backend};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Flop threshold (`m·k·n`) below which a gemm never spawns threads: tiny
/// products dominate the attack's line searches and a spawn costs more
/// than the multiply.
const PAR_FLOPS: usize = 200_000;

/// Minimum output rows per shard — splitting finer than this loses more to
/// coordination than it gains.
const MIN_ROWS_PER_SHARD: usize = 8;

/// 0 = no override; otherwise the pinned worker count.
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-default worker count: `RELOCK_THREADS` if set, otherwise the
/// machine's available parallelism. Read once.
fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RELOCK_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Worker threads available to the kernels: the runtime override when set
/// (see [`set_thread_override`]), else the process default. Read at every
/// dispatch — never cached past a call.
pub fn max_threads() -> usize {
    match THREADS_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Pins (or with `None` releases) the kernel worker count for subsequent
/// dispatches in this process, overriding `RELOCK_THREADS`. `Some(0)` is
/// clamped to one worker.
pub fn set_thread_override(n: Option<usize>) {
    THREADS_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// Splits `rows` into at most `workers` contiguous, near-equal `(lo, hi)`
/// ranges of at least `min_rows_per_shard` rows each (the first
/// `rows % shards` ranges take one extra row). Returns a single full range
/// when the work does not warrant splitting; an empty `Vec` for zero rows.
fn split_rows(rows: usize, workers: usize, min_rows_per_shard: usize) -> Vec<(usize, usize)> {
    if rows == 0 {
        return Vec::new();
    }
    let shards = workers.max(1).min(rows / min_rows_per_shard.max(1)).max(1);
    let base = rows / shards;
    let extra = rows % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for s in 0..shards {
        let hi = lo + base + usize::from(s < extra);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Runs `f(lo, block)` over disjoint row blocks of `out` (a `rows ×
/// row_len` buffer), using scoped threads when more than one shard is
/// warranted. `f` receives the first row index of its block and the
/// mutable block slice. With one shard this is a plain call — no spawn,
/// identical code path to the sequential kernel.
pub fn for_each_row_block<F>(out: &mut [f64], rows: usize, row_len: usize, workers: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_len);
    let ranges = split_rows(rows, workers, MIN_ROWS_PER_SHARD);
    if ranges.len() <= 1 {
        if !out.is_empty() || rows == 0 {
            f(0, out);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut consumed = 0usize;
        for &(lo, hi) in &ranges {
            let (block, tail) = rest.split_at_mut((hi - lo) * row_len);
            rest = tail;
            consumed += hi - lo;
            let fr = &f;
            scope.spawn(move || fr(lo, block));
        }
        debug_assert_eq!(consumed, rows);
    });
}

/// Whether a gemm of `m·k·n` flops should go parallel at all.
fn parallel_workers(m: usize, k: usize, n: usize) -> usize {
    if m.saturating_mul(k).saturating_mul(n) >= PAR_FLOPS {
        max_threads()
    } else {
        1
    }
}

/// `out = A · B` for `A: m×k`, `B: k×n`, `out: m×n`, overwriting `out`.
///
/// Every `out[i][j]` accumulates `k = 0..K` in ascending order into a
/// single accumulator — bit-identical to the naive i-k-j loop at any
/// worker count, on any backend.
pub fn gemm_nn_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_nn_into_with(a, b, out, m, k, n, parallel_workers(m, k, n));
}

/// [`gemm_nn_into`] with an explicit worker count (tests pin this).
pub fn gemm_nn_into_with(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) {
    gemm_nn_into_backend(active_backend(), a, b, out, m, k, n, workers);
}

/// [`gemm_nn_into_with`] on an explicit backend — the equivalence suites
/// and the `hotpath` bench compare backends through this without touching
/// the process-wide selection.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_into_backend(
    be: Backend,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if out.is_empty() {
        return;
    }
    for_each_row_block(out, m, n, workers, |lo, block| {
        be.nn_block(a, b, block, lo, k, n);
    });
}

/// `out = A · Bᵀ` for `A: m×k`, `B: n×k`, `out: m×n`, overwriting `out`.
///
/// Each element is one k-ascending dot product — the same left-fold the
/// naive kernel computes.
pub fn gemm_nt_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_nt_into_with(a, b, out, m, k, n, parallel_workers(m, k, n));
}

/// [`gemm_nt_into`] with an explicit worker count (tests pin this).
pub fn gemm_nt_into_with(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) {
    gemm_nt_into_backend(active_backend(), a, b, out, m, k, n, workers);
}

/// [`gemm_nt_into_with`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_into_backend(
    be: Backend,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if out.is_empty() {
        return;
    }
    for_each_row_block(out, m, n, workers, |lo, block| {
        for (bi, out_row) in block.chunks_mut(n).enumerate() {
            let i = lo + bi;
            be.nt_row(&a[i * k..(i + 1) * k], b, out_row, k, n);
        }
    });
}

/// `out = Aᵀ · B` for `A: k×m`, `B: k×n`, `out: m×n`, overwriting `out`.
///
/// Accumulates `k` (the shared leading dimension) in ascending order per
/// element; threads split the *output* rows `i`, each walking the full `k`
/// range sequentially, so the per-element order never changes.
pub fn gemm_tn_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_tn_into_with(a, b, out, m, k, n, parallel_workers(m, k, n));
}

/// [`gemm_tn_into`] with an explicit worker count (tests pin this).
pub fn gemm_tn_into_with(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) {
    gemm_tn_into_backend(active_backend(), a, b, out, m, k, n, workers);
}

/// [`gemm_tn_into_with`] on an explicit backend.
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn_into_backend(
    be: Backend,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if out.is_empty() {
        return;
    }
    for_each_row_block(out, m, n, workers, |lo, block| {
        let rows = block.len() / n.max(1);
        be.tn_block(a, b, block, lo, rows, m, k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::available_backends;
    use crate::rng::Prng;

    /// Naive reference kernels — the accumulation-order ground truth.
    fn naive_nn(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        out
    }

    fn naive_nt(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k).map(|kk| a[i * k + kk] * b[j * k + kk]).sum();
            }
        }
        out
    }

    fn naive_tn(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for kk in 0..k {
            for i in 0..m {
                for j in 0..n {
                    out[i * n + j] += a[kk * m + i] * b[kk * n + j];
                }
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn split_rows_covers_exactly_without_overlap() {
        for rows in [0usize, 1, 2, 7, 8, 9, 63, 64, 100, 1000] {
            for workers in [1usize, 2, 3, 4, 7, 16] {
                for min_rows in [1usize, 4, 8, 32] {
                    let ranges = split_rows(rows, workers, min_rows);
                    if rows == 0 {
                        assert!(ranges.is_empty());
                        continue;
                    }
                    assert!(ranges.len() <= workers.max(1));
                    let mut next = 0usize;
                    for &(lo, hi) in &ranges {
                        assert_eq!(lo, next, "gap at {lo}");
                        assert!(hi > lo, "empty shard");
                        next = hi;
                    }
                    assert_eq!(next, rows, "rows not covered");
                    if ranges.len() > 1 {
                        for &(lo, hi) in &ranges {
                            assert!(hi - lo >= min_rows.min(rows));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn split_rows_matches_documented_remainder_rule() {
        // 10 rows over 4 workers, min 1: 3,3,2,2.
        assert_eq!(split_rows(10, 4, 1), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        // Too few rows to split: one shard.
        assert_eq!(split_rows(5, 4, 8), vec![(0, 5)]);
    }

    #[test]
    fn gemm_kernels_bit_identical_to_naive_across_shapes_and_workers() {
        let mut rng = Prng::seed_from_u64(77);
        // Odd, degenerate, and block-straddling shapes.
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 5, 3),
            (3, 1, 7),
            (7, 7, 7),
            (13, 29, 17),
            (64, 64, 64),
            (65, 63, 129),
            (2, 200, 5),
        ];
        for &(m, k, n) in &shapes {
            let a_nn: Vec<f64> = (0..m * k).map(|_| rng.normal()).collect();
            let b_nn: Vec<f64> = (0..k * n).map(|_| rng.normal()).collect();
            let a_t: Vec<f64> = (0..k * m).map(|_| rng.normal()).collect();
            let b_t: Vec<f64> = (0..n * k).map(|_| rng.normal()).collect();
            let want_nn = naive_nn(&a_nn, &b_nn, m, k, n);
            let want_nt = naive_nt(&a_nn, &b_t, m, k, n);
            let want_tn = naive_tn(&a_t, &b_nn, m, k, n);
            for be in available_backends() {
                for workers in [1usize, 2, 3, 5, 16] {
                    let tag = be.name();
                    let mut out = vec![f64::NAN; m * n];
                    gemm_nn_into_backend(be, &a_nn, &b_nn, &mut out, m, k, n, workers);
                    assert_eq!(
                        bits(&out),
                        bits(&want_nn),
                        "nn {m}x{k}x{n} w={workers} {tag}"
                    );
                    let mut out = vec![f64::NAN; m * n];
                    gemm_nt_into_backend(be, &a_nn, &b_t, &mut out, m, k, n, workers);
                    assert_eq!(
                        bits(&out),
                        bits(&want_nt),
                        "nt {m}x{k}x{n} w={workers} {tag}"
                    );
                    let mut out = vec![f64::NAN; m * n];
                    gemm_tn_into_backend(be, &a_t, &b_nn, &mut out, m, k, n, workers);
                    assert_eq!(
                        bits(&out),
                        bits(&want_tn),
                        "tn {m}x{k}x{n} w={workers} {tag}"
                    );
                }
            }
        }
    }

    #[test]
    fn backend_sweep_simd_bit_identical_to_scalar_on_random_shapes() {
        // Property sweep: random shapes (including degenerate m=0 / k=0 /
        // n=1 and non-multiple-of-4/8 tails) must produce bit-identical
        // results on every backend. Shapes come from the in-tree Prng so
        // the sweep is reproducible.
        let mut rng = Prng::seed_from_u64(0xBACC);
        let scalar = available_backends()[0];
        let mut shapes: Vec<(usize, usize, usize)> = vec![
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (2, 3, 1),
            (1, 4, 1),
            (5, 6, 7),
            (9, 130, 3),
        ];
        for _ in 0..24 {
            let m = (rng.next_u64() % 24) as usize;
            let k = (rng.next_u64() % 48) as usize;
            let n = (rng.next_u64() % 96) as usize;
            shapes.push((m, k, n));
        }
        for &(m, k, n) in &shapes {
            let a_nn: Vec<f64> = (0..m * k).map(|_| rng.normal()).collect();
            let b_nn: Vec<f64> = (0..k * n).map(|_| rng.normal()).collect();
            let a_t: Vec<f64> = (0..k * m).map(|_| rng.normal()).collect();
            let b_t: Vec<f64> = (0..n * k).map(|_| rng.normal()).collect();

            let mut want_nn = vec![f64::NAN; m * n];
            let mut want_nt = vec![f64::NAN; m * n];
            let mut want_tn = vec![f64::NAN; m * n];
            gemm_nn_into_backend(scalar, &a_nn, &b_nn, &mut want_nn, m, k, n, 1);
            gemm_nt_into_backend(scalar, &a_nn, &b_t, &mut want_nt, m, k, n, 1);
            gemm_tn_into_backend(scalar, &a_t, &b_nn, &mut want_tn, m, k, n, 1);

            for be in available_backends() {
                for workers in [1usize, 3] {
                    let tag = be.name();
                    let mut out = vec![f64::NAN; m * n];
                    gemm_nn_into_backend(be, &a_nn, &b_nn, &mut out, m, k, n, workers);
                    assert_eq!(bits(&out), bits(&want_nn), "nn {m}x{k}x{n} {tag}");
                    let mut out = vec![f64::NAN; m * n];
                    gemm_nt_into_backend(be, &a_nn, &b_t, &mut out, m, k, n, workers);
                    assert_eq!(bits(&out), bits(&want_nt), "nt {m}x{k}x{n} {tag}");
                    let mut out = vec![f64::NAN; m * n];
                    gemm_tn_into_backend(be, &a_t, &b_nn, &mut out, m, k, n, workers);
                    assert_eq!(bits(&out), bits(&want_tn), "tn {m}x{k}x{n} {tag}");
                }
            }
        }
    }

    #[test]
    fn gemm_overwrites_stale_output_contents() {
        // The planner reuses buffers: kernels must fully overwrite, never
        // blend with what a previous pass left behind.
        for be in available_backends() {
            let a = [1.0, 2.0, 3.0, 4.0];
            let b = [5.0, 6.0, 7.0, 8.0];
            let mut out = [999.0f64; 4];
            gemm_nn_into_backend(be, &a, &b, &mut out, 2, 2, 2, 1);
            assert_eq!(out, [19.0, 22.0, 43.0, 50.0], "{}", be.name());
            let mut out = [999.0f64; 4];
            gemm_tn_into_backend(be, &a, &b, &mut out, 2, 2, 2, 1);
            assert_eq!(out, [26.0, 30.0, 38.0, 44.0], "{}", be.name());
        }
    }

    #[test]
    fn zero_rows_are_tolerated() {
        let mut out: Vec<f64> = Vec::new();
        gemm_nn_into_with(&[], &[1.0, 2.0], &mut out, 0, 1, 2, 4);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_override_is_read_at_dispatch_time() {
        set_thread_override(Some(2));
        assert_eq!(max_threads(), 2);
        set_thread_override(Some(5));
        assert_eq!(max_threads(), 5);
        set_thread_override(Some(0));
        assert_eq!(max_threads(), 1, "Some(0) clamps to one worker");
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }
}
