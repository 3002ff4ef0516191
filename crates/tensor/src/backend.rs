//! Backend-dispatched gemm kernels: the scalar reference, an AVX-512
//! backend, and their f32 twins.
//!
//! Every backend honours the same **determinism contract** (see the
//! `compute` module docs): each output element accumulates its `k`
//! contributions in strictly ascending order into a single accumulator, so
//! results are bit-identical across backends at the same precision. The
//! SIMD kernels achieve this by vectorizing across *output columns* (`j`),
//! never across the reduction dimension `k` — each SIMD lane replays
//! exactly the scalar kernel's per-element fold — and by using separate
//! multiply and add instructions (an FMA would fuse the intermediate
//! rounding and change bits).
//!
//! Two backends exist:
//!
//! - [`ScalarBackend`] — the blocked/unrolled reference kernels;
//! - [`Avx512Backend`] (`x86_64` with runtime `avx512f` + `avx`
//!   detection) — register-blocked 8-wide f64 / 16-wide f32 kernels whose
//!   accumulators live in zmm registers across the whole `k` loop.
//!
//! Selection is CPU detection only: [`active_backend`] is the AVX-512
//! backend where the CPU has it and the scalar one everywhere else.
//! [`force_scalar`] pins the scalar reference process-wide — the seam the
//! backend-equivalence suite and the scalar-pinned bench entries use to
//! run the same work on both backends in one process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Column-block width of the blocked `nn` kernels. Inner `j` blocks keep
/// the active `B`/`out` row segments resident in L1 across the `k` loop
/// without changing any element's accumulation order.
const J_BLOCK: usize = 64;

/// Numeric precision of a graph execution path. `F64` is the reference
/// (and the only precision with a bit-exactness contract); `F32` is the
/// opt-in fast path for learning-based work where exactness is not
/// load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double precision — the workspace-wide default.
    #[default]
    F64,
    /// Single precision — opt-in for the monolithic learning attack and
    /// the trainer.
    F32,
}

impl Precision {
    /// Parses `"f64"` / `"f32"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f64" | "double" => Some(Precision::F64),
            "f32" | "single" => Some(Precision::F32),
            _ => None,
        }
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

/// One gemm kernel family. Row-level (`nn_row`, `nt_row`) and block-level
/// (`tn_block`) granularity matches how the dispatcher shards work across
/// threads: threads own disjoint *output rows*, so a backend never sees a
/// partial reduction.
///
/// Implementations MUST keep the strictly-ascending-`k` single-accumulator
/// order per output element; the `backends` property suite enforces
/// bit-identity against [`ScalarBackend`] at both precisions.
#[allow(clippy::too_many_arguments)]
pub trait GemmBackend: Sync {
    /// Backend name as reported in benches and `BENCH.json`.
    fn name(&self) -> &'static str;

    /// One output row of `out = A · B` (`a_row`: `k`, `b`: `k×n`).
    fn nn_row(&self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize);
    /// Rows `lo..lo + rows` of `out = A · B` (`a`: the full `m×k` matrix).
    /// Default: a row loop over [`GemmBackend::nn_row`]. Backends may
    /// override to register-block *across* rows — extra independent
    /// accumulator chains that share the `B` loads — as long as every
    /// element keeps its single ascending-`k` chain.
    fn nn_block(&self, a: &[f64], b: &[f64], block: &mut [f64], lo: usize, k: usize, n: usize) {
        for (bi, out_row) in block.chunks_exact_mut(n.max(1)).enumerate() {
            let i = lo + bi;
            self.nn_row(&a[i * k..(i + 1) * k], b, out_row, k, n);
        }
    }
    /// One output row of `out = A · Bᵀ` (`a_row`: `k`, `b`: `n×k`).
    fn nt_row(&self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize);
    /// Rows `lo..lo + rows` of `out = Aᵀ · B` (`a`: `k×m`, `b`: `k×n`).
    fn tn_block(
        &self,
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    );

    /// f32 twin of [`GemmBackend::nn_row`].
    fn nn_row_f32(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize);
    /// f32 twin of [`GemmBackend::nn_block`].
    fn nn_block_f32(&self, a: &[f32], b: &[f32], block: &mut [f32], lo: usize, k: usize, n: usize) {
        for (bi, out_row) in block.chunks_exact_mut(n.max(1)).enumerate() {
            let i = lo + bi;
            self.nn_row_f32(&a[i * k..(i + 1) * k], b, out_row, k, n);
        }
    }
    /// f32 twin of [`GemmBackend::nt_row`].
    fn nt_row_f32(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize);
    /// f32 twin of [`GemmBackend::tn_block`].
    fn tn_block_f32(
        &self,
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    );
}

// ---------------------------------------------------------------------------
// Scalar reference kernels (f64 and f32 via one macro — identical structure).
// ---------------------------------------------------------------------------

macro_rules! scalar_kernels {
    ($ty:ty, $nn:ident, $nt:ident, $tn:ident) => {
        /// Blocked i-k-j row kernel: four `k` steps per sweep of the output
        /// segment, each element accumulating in ascending `k` order (the
        /// four adds chain in-register).
        fn $nn(a_row: &[$ty], b: &[$ty], out_row: &mut [$ty], k: usize, n: usize) {
            out_row.fill(0.0);
            let mut jb = 0;
            while jb < n {
                let je = (jb + J_BLOCK).min(n);
                let mut kk = 0usize;
                while kk + 4 <= k {
                    let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                    let b0 = &b[kk * n + jb..kk * n + je];
                    let b1 = &b[(kk + 1) * n + jb..(kk + 1) * n + je];
                    let b2 = &b[(kk + 2) * n + jb..(kk + 2) * n + je];
                    let b3 = &b[(kk + 3) * n + jb..(kk + 3) * n + je];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        out_row[jb..je].iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        *o = (((*o + a0 * v0) + a1 * v1) + a2 * v2) + a3 * v3;
                    }
                    kk += 4;
                }
                for (kk, &av) in a_row.iter().enumerate().skip(kk) {
                    let b_seg = &b[kk * n + jb..kk * n + je];
                    for (o, &bv) in out_row[jb..je].iter_mut().zip(b_seg) {
                        *o += av * bv;
                    }
                }
                jb = je;
            }
        }

        /// Unrolled independent dot products: eight (then four) output
        /// columns at a time, each column's accumulator walking `k` in
        /// ascending order — the unroll hides the add latency the strict
        /// summation order would otherwise serialize on.
        fn $nt(a_row: &[$ty], b: &[$ty], out_row: &mut [$ty], k: usize, n: usize) {
            if k == 0 {
                // Empty dot products; also keeps the tail's chunks_exact
                // away from a zero chunk size.
                out_row.fill(0.0);
                return;
            }
            let mut j = 0usize;
            while j + 8 <= n {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let b4 = &b[(j + 4) * k..(j + 5) * k];
                let b5 = &b[(j + 5) * k..(j + 6) * k];
                let b6 = &b[(j + 6) * k..(j + 7) * k];
                let b7 = &b[(j + 7) * k..(j + 8) * k];
                let mut s = [0.0 as $ty; 8];
                for (kk, &av) in a_row.iter().enumerate() {
                    s[0] += av * b0[kk];
                    s[1] += av * b1[kk];
                    s[2] += av * b2[kk];
                    s[3] += av * b3[kk];
                    s[4] += av * b4[kk];
                    s[5] += av * b5[kk];
                    s[6] += av * b6[kk];
                    s[7] += av * b7[kk];
                }
                out_row[j..j + 8].copy_from_slice(&s);
                j += 8;
            }
            while j + 4 <= n {
                let b0 = &b[j * k..(j + 1) * k];
                let b1 = &b[(j + 1) * k..(j + 2) * k];
                let b2 = &b[(j + 2) * k..(j + 3) * k];
                let b3 = &b[(j + 3) * k..(j + 4) * k];
                let (mut s0, mut s1, mut s2, mut s3) =
                    (0.0 as $ty, 0.0 as $ty, 0.0 as $ty, 0.0 as $ty);
                for (&av, ((&v0, &v1), (&v2, &v3))) in
                    a_row.iter().zip(b0.iter().zip(b1).zip(b2.iter().zip(b3)))
                {
                    s0 += av * v0;
                    s1 += av * v1;
                    s2 += av * v2;
                    s3 += av * v3;
                }
                out_row[j] = s0;
                out_row[j + 1] = s1;
                out_row[j + 2] = s2;
                out_row[j + 3] = s3;
                j += 4;
            }
            for (o, b_row) in out_row[j..].iter_mut().zip(b[j * k..].chunks_exact(k)) {
                // Explicit +0.0-seeded fold: `Iterator::sum` seeds with
                // -0.0, which would break bit-identity with the unrolled
                // columns in zero-sign edge cases.
                let mut s = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    s += x * y;
                }
                *o = s;
            }
        }

        /// `k`-outer broadcast accumulation over an output-row block.
        #[allow(clippy::too_many_arguments)]
        fn $tn(
            a: &[$ty],
            b: &[$ty],
            block: &mut [$ty],
            lo: usize,
            rows: usize,
            m: usize,
            k: usize,
            n: usize,
        ) {
            block.fill(0.0);
            for kk in 0..k {
                let a_seg = &a[kk * m + lo..kk * m + lo + rows];
                let b_row = &b[kk * n..(kk + 1) * n];
                for (bi, &av) in a_seg.iter().enumerate() {
                    let out_row = &mut block[bi * n..(bi + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
    };
}

scalar_kernels!(f64, scalar_nn_f64, scalar_nt_f64, scalar_tn_f64);
scalar_kernels!(f32, scalar_nn_f32, scalar_nt_f32, scalar_tn_f32);

/// The blocked scalar reference kernels — the accumulation-order ground
/// truth every other backend is property-tested against.
#[derive(Debug)]
pub struct ScalarBackend;

impl GemmBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }
    fn nn_row(&self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        scalar_nn_f64(a_row, b, out_row, k, n)
    }
    fn nt_row(&self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        scalar_nt_f64(a_row, b, out_row, k, n)
    }
    fn tn_block(
        &self,
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        scalar_tn_f64(a, b, block, lo, rows, m, k, n)
    }
    fn nn_row_f32(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        scalar_nn_f32(a_row, b, out_row, k, n)
    }
    fn nt_row_f32(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        scalar_nt_f32(a_row, b, out_row, k, n)
    }
    fn tn_block_f32(
        &self,
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        scalar_tn_f32(a, b, block, lo, rows, m, k, n)
    }
}

// ---------------------------------------------------------------------------
// AVX `nt` kernels (x86_64). `nt` gathers one scalar per output column per
// `k` step — B's rows are the output columns, so there is no contiguous
// column vector to register-block the way the AVX-512 `nn`/`tn` kernels do
// — and these 4-wide f64 / 8-wide f32 gathers measured 1.0–1.3× the scalar
// kernel, so the AVX-512 backend keeps them (AVX-512F machines always have
// AVX). Multiply + add only — no FMA, which would fuse the intermediate
// rounding and break bit-identity with the scalar reference.
// ---------------------------------------------------------------------------
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn nt_row_f64(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        // Four output columns per vector: B's rows are the columns here, so
        // the lanes gather one scalar from each of four contiguous rows —
        // each lane replays the scalar kernel's ascending-k fold.
        let mut j = 0usize;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = _mm256_setzero_pd();
            for kk in 0..k {
                let av = _mm256_set1_pd(a_row[kk]);
                let bv = _mm256_set_pd(b3[kk], b2[kk], b1[kk], b0[kk]);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
            }
            _mm256_storeu_pd(out_row.as_mut_ptr().add(j), acc);
            j += 4;
        }
        for jj in j..n {
            let mut s = 0.0;
            for (&x, &y) in a_row.iter().zip(&b[jj * k..(jj + 1) * k]) {
                s += x * y;
            }
            out_row[jj] = s;
        }
    }

    /// # Safety
    ///
    /// Requires AVX.
    #[target_feature(enable = "avx")]
    pub unsafe fn nt_row_f32(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        let mut j = 0usize;
        while j + 8 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let b4 = &b[(j + 4) * k..(j + 5) * k];
            let b5 = &b[(j + 5) * k..(j + 6) * k];
            let b6 = &b[(j + 6) * k..(j + 7) * k];
            let b7 = &b[(j + 7) * k..(j + 8) * k];
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let av = _mm256_set1_ps(a_row[kk]);
                let bv = _mm256_set_ps(
                    b7[kk], b6[kk], b5[kk], b4[kk], b3[kk], b2[kk], b1[kk], b0[kk],
                );
                acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
            }
            _mm256_storeu_ps(out_row.as_mut_ptr().add(j), acc);
            j += 8;
        }
        for jj in j..n {
            let mut s = 0.0;
            for (&x, &y) in a_row.iter().zip(&b[jj * k..(jj + 1) * k]) {
                s += x * y;
            }
            out_row[jj] = s;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 kernels (x86_64, runtime-detected). Register-blocked: up to eight
// accumulator vectors live in zmm registers across the *whole* `k` loop, so
// the per-k-chunk load/store traffic of the blocked kernels disappears.
// Each output element still owns a single accumulator walking `k` in
// ascending order; the independent column chains are the only
// instruction-level parallelism the determinism contract permits (the
// reduction itself must stay serial per element), and eight of them are
// enough to hide the add latency that serializes one chain.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    macro_rules! avx512_nn_like {
        ($ty:ty, $mask:ty, $lanes:expr, $setzero:ident, $set1:ident, $loadu:ident,
         $maskz_loadu:ident, $storeu:ident, $mask_storeu:ident, $mul:ident, $add:ident,
         $group:ident, $like:ident, $group2:ident, $pair:ident) => {
            /// One register-blocked column group: `NV` accumulator vectors
            /// (the last one masked when the group has a partial tail), each
            /// lane replaying the scalar per-element ascending-`k` fold with
            /// separate multiply and add.
            ///
            /// # Safety
            ///
            /// Requires AVX-512F. `a` must hold `k` elements at stride
            /// `a_stride`; `b` must cover `k` rows of `n` columns starting at
            /// this group's first column; `out` must cover `width` elements;
            /// `width` must lie in `(NV-1)*LANES + 1 ..= NV*LANES`.
            #[target_feature(enable = "avx512f")]
            unsafe fn $group<const NV: usize>(
                a: *const $ty,
                a_stride: usize,
                b: *const $ty,
                out: *mut $ty,
                k: usize,
                n: usize,
                width: usize,
            ) {
                const LANES: usize = $lanes;
                let tail = width - (NV - 1) * LANES;
                let tmask: $mask = if tail == LANES {
                    <$mask>::MAX
                } else {
                    ((1u32 << tail) - 1) as $mask
                };
                let mut acc = [$setzero(); NV];
                for kk in 0..k {
                    let av = $set1(*a.add(kk * a_stride));
                    let row = b.add(kk * n);
                    for v in 0..NV - 1 {
                        let bv = $loadu(row.add(v * LANES));
                        acc[v] = $add(acc[v], $mul(av, bv));
                    }
                    // Dead tail lanes multiply against 0.0 and are never
                    // stored.
                    let bv = $maskz_loadu(tmask, row.add((NV - 1) * LANES));
                    acc[NV - 1] = $add(acc[NV - 1], $mul(av, bv));
                }
                for v in 0..NV - 1 {
                    $storeu(out.add(v * LANES), acc[v]);
                }
                $mask_storeu(out.add((NV - 1) * LANES), tmask, acc[NV - 1]);
            }

            /// Shared `nn`/`tn` row driver:
            /// `out_row[j] = Σ_k a[k·a_stride] · b[k·n + j]`, walked in
            /// register-blocked groups of up to eight vectors. `k == 0`
            /// stores the zero accumulators, matching the scalar kernels'
            /// `fill(0.0)`.
            ///
            /// # Safety
            ///
            /// Requires AVX-512F. `a` must hold `k` elements at stride
            /// `a_stride`; `b` must be `k×n`; `out_row` must hold `n`.
            #[target_feature(enable = "avx512f")]
            unsafe fn $like(
                a: *const $ty,
                a_stride: usize,
                b: &[$ty],
                out_row: &mut [$ty],
                k: usize,
                n: usize,
            ) {
                const LANES: usize = $lanes;
                let mut jb = 0usize;
                while jb < n {
                    let width = (n - jb).min(8 * LANES);
                    let bp = b.as_ptr().add(jb);
                    let op = out_row.as_mut_ptr().add(jb);
                    match width.div_ceil(LANES) {
                        1 => $group::<1>(a, a_stride, bp, op, k, n, width),
                        2 => $group::<2>(a, a_stride, bp, op, k, n, width),
                        3 => $group::<3>(a, a_stride, bp, op, k, n, width),
                        4 => $group::<4>(a, a_stride, bp, op, k, n, width),
                        5 => $group::<5>(a, a_stride, bp, op, k, n, width),
                        6 => $group::<6>(a, a_stride, bp, op, k, n, width),
                        7 => $group::<7>(a, a_stride, bp, op, k, n, width),
                        _ => $group::<8>(a, a_stride, bp, op, k, n, width),
                    }
                    jb += width;
                }
            }

            /// Two-row column group: the same per-element ascending-`k`
            /// chains as [`$group`], but two output rows' accumulators in
            /// flight sharing every `B` load — doubling the independent
            /// chains that hide the add latency.
            ///
            /// # Safety
            ///
            /// As [`$group`], for both `a` pointers and both `out` rows.
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $group2<const NV: usize>(
                a0: *const $ty,
                a1: *const $ty,
                a_stride: usize,
                b: *const $ty,
                out0: *mut $ty,
                out1: *mut $ty,
                k: usize,
                n: usize,
                width: usize,
            ) {
                const LANES: usize = $lanes;
                let tail = width - (NV - 1) * LANES;
                let tmask: $mask = if tail == LANES {
                    <$mask>::MAX
                } else {
                    ((1u32 << tail) - 1) as $mask
                };
                let mut acc0 = [$setzero(); NV];
                let mut acc1 = [$setzero(); NV];
                for kk in 0..k {
                    let av0 = $set1(*a0.add(kk * a_stride));
                    let av1 = $set1(*a1.add(kk * a_stride));
                    let row = b.add(kk * n);
                    for v in 0..NV - 1 {
                        let bv = $loadu(row.add(v * LANES));
                        acc0[v] = $add(acc0[v], $mul(av0, bv));
                        acc1[v] = $add(acc1[v], $mul(av1, bv));
                    }
                    let bv = $maskz_loadu(tmask, row.add((NV - 1) * LANES));
                    acc0[NV - 1] = $add(acc0[NV - 1], $mul(av0, bv));
                    acc1[NV - 1] = $add(acc1[NV - 1], $mul(av1, bv));
                }
                for v in 0..NV - 1 {
                    $storeu(out0.add(v * LANES), acc0[v]);
                    $storeu(out1.add(v * LANES), acc1[v]);
                }
                $mask_storeu(out0.add((NV - 1) * LANES), tmask, acc0[NV - 1]);
                $mask_storeu(out1.add((NV - 1) * LANES), tmask, acc1[NV - 1]);
            }

            /// Two-row twin of [`$like`].
            ///
            /// # Safety
            ///
            /// As [`$like`], for both `a` pointers and both `out` rows.
            #[target_feature(enable = "avx512f")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $pair(
                a0: *const $ty,
                a1: *const $ty,
                a_stride: usize,
                b: &[$ty],
                out0: *mut $ty,
                out1: *mut $ty,
                k: usize,
                n: usize,
            ) {
                const LANES: usize = $lanes;
                let mut jb = 0usize;
                while jb < n {
                    let width = (n - jb).min(8 * LANES);
                    let bp = b.as_ptr().add(jb);
                    let (o0, o1) = (out0.add(jb), out1.add(jb));
                    match width.div_ceil(LANES) {
                        1 => $group2::<1>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        2 => $group2::<2>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        3 => $group2::<3>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        4 => $group2::<4>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        5 => $group2::<5>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        6 => $group2::<6>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        7 => $group2::<7>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                        _ => $group2::<8>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                    }
                    jb += width;
                }
            }
        };
    }

    avx512_nn_like!(
        f64,
        __mmask8,
        8,
        _mm512_setzero_pd,
        _mm512_set1_pd,
        _mm512_loadu_pd,
        _mm512_maskz_loadu_pd,
        _mm512_storeu_pd,
        _mm512_mask_storeu_pd,
        _mm512_mul_pd,
        _mm512_add_pd,
        nn_group_f64,
        nn_like_f64,
        nn_group2_f64,
        nn_pair_f64
    );
    avx512_nn_like!(
        f32,
        __mmask16,
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_maskz_loadu_ps,
        _mm512_storeu_ps,
        _mm512_mask_storeu_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        nn_group_f32,
        nn_like_f32,
        nn_group2_f32,
        nn_pair_f32
    );

    /// # Safety
    ///
    /// Requires AVX-512F (checked by the dispatcher before this backend is
    /// selected).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn_row_f64(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        nn_like_f64(a_row.as_ptr(), 1, b, out_row, k, n)
    }

    /// Row-paired `nn` block: consecutive output rows two at a time (plus
    /// a single-row tail), sharing each `B` load across both rows' chains.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `a` is the full `m×k` matrix, `block` covers
    /// rows `lo..lo + block.len()/n`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn_block_f64(
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        lo: usize,
        k: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let rows = block.len() / n;
        let mut bi = 0usize;
        while bi + 2 <= rows {
            let i = lo + bi;
            nn_pair_f64(
                a.as_ptr().add(i * k),
                a.as_ptr().add((i + 1) * k),
                1,
                b,
                block.as_mut_ptr().add(bi * n),
                block.as_mut_ptr().add((bi + 1) * n),
                k,
                n,
            );
            bi += 2;
        }
        if bi < rows {
            let i = lo + bi;
            nn_like_f64(
                a.as_ptr().add(i * k),
                1,
                b,
                &mut block[bi * n..(bi + 1) * n],
                k,
                n,
            );
        }
    }

    /// `tn` is the `nn` pattern with the broadcast operand strided: output
    /// row `i` accumulates `a[kk·m + lo + i] · b[kk·n + j]` over ascending
    /// `kk`. Restructuring from the scalar kernel's k-outer loop to one
    /// register-blocked pass per output row changes no element's
    /// accumulation order.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; slice shapes as in [`GemmBackend::tn_block`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tn_block_f64(
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let mut bi = 0usize;
        while bi + 2 <= rows {
            nn_pair_f64(
                a.as_ptr().add(lo + bi),
                a.as_ptr().add(lo + bi + 1),
                m,
                b,
                block.as_mut_ptr().add(bi * n),
                block.as_mut_ptr().add((bi + 1) * n),
                k,
                n,
            );
            bi += 2;
        }
        if bi < rows {
            nn_like_f64(
                a.as_ptr().add(lo + bi),
                m,
                b,
                &mut block[bi * n..(bi + 1) * n],
                k,
                n,
            );
        }
    }

    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn_row_f32(a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        nn_like_f32(a_row.as_ptr(), 1, b, out_row, k, n)
    }

    /// f32 twin of [`nn_block_f64`].
    ///
    /// # Safety
    ///
    /// As [`nn_block_f64`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn_block_f32(
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        lo: usize,
        k: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let rows = block.len() / n;
        let mut bi = 0usize;
        while bi + 2 <= rows {
            let i = lo + bi;
            nn_pair_f32(
                a.as_ptr().add(i * k),
                a.as_ptr().add((i + 1) * k),
                1,
                b,
                block.as_mut_ptr().add(bi * n),
                block.as_mut_ptr().add((bi + 1) * n),
                k,
                n,
            );
            bi += 2;
        }
        if bi < rows {
            let i = lo + bi;
            nn_like_f32(
                a.as_ptr().add(i * k),
                1,
                b,
                &mut block[bi * n..(bi + 1) * n],
                k,
                n,
            );
        }
    }

    /// # Safety
    ///
    /// Requires AVX-512F; slice shapes as in [`GemmBackend::tn_block`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tn_block_f32(
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let mut bi = 0usize;
        while bi + 2 <= rows {
            nn_pair_f32(
                a.as_ptr().add(lo + bi),
                a.as_ptr().add(lo + bi + 1),
                m,
                b,
                block.as_mut_ptr().add(bi * n),
                block.as_mut_ptr().add((bi + 1) * n),
                k,
                n,
            );
            bi += 2;
        }
        if bi < rows {
            nn_like_f32(
                a.as_ptr().add(lo + bi),
                m,
                b,
                &mut block[bi * n..(bi + 1) * n],
                k,
                n,
            );
        }
    }
}

/// The register-blocked AVX-512 backend — what [`active_backend`] selects
/// on machines with AVX-512F and AVX. Constructed only behind a successful
/// runtime detection ([`avx512_available`]), which is the safety contract
/// of every kernel call below.
#[cfg(target_arch = "x86_64")]
#[derive(Debug)]
pub struct Avx512Backend(());

// SAFETY (every `unsafe` block in this impl): an `Avx512Backend` exists
// only as the `AVX512` static, which `detected_backend` hands out only
// after `avx512_available()` detected both AVX-512F and AVX, the target
// features the `avx512` and `avx` kernels require. The kernels also load
// and store through raw pointers, so they rely on the operand shapes
// documented on `GemmBackend`; the `compute` dispatchers derive every
// slice from one `(m, k, n)`, but nothing here re-checks the shapes of a
// direct call.
#[cfg(target_arch = "x86_64")]
impl GemmBackend for Avx512Backend {
    fn name(&self) -> &'static str {
        "simd-avx512"
    }
    fn nn_row(&self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        unsafe { avx512::nn_row_f64(a_row, b, out_row, k, n) }
    }
    fn nn_block(&self, a: &[f64], b: &[f64], block: &mut [f64], lo: usize, k: usize, n: usize) {
        unsafe { avx512::nn_block_f64(a, b, block, lo, k, n) }
    }
    fn nt_row(&self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        unsafe { avx::nt_row_f64(a_row, b, out_row, k, n) }
    }
    fn tn_block(
        &self,
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        unsafe { avx512::tn_block_f64(a, b, block, lo, rows, m, k, n) }
    }
    fn nn_row_f32(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        unsafe { avx512::nn_row_f32(a_row, b, out_row, k, n) }
    }
    fn nn_block_f32(&self, a: &[f32], b: &[f32], block: &mut [f32], lo: usize, k: usize, n: usize) {
        unsafe { avx512::nn_block_f32(a, b, block, lo, k, n) }
    }
    fn nt_row_f32(&self, a_row: &[f32], b: &[f32], out_row: &mut [f32], k: usize, n: usize) {
        unsafe { avx::nt_row_f32(a_row, b, out_row, k, n) }
    }
    fn tn_block_f32(
        &self,
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        unsafe { avx512::tn_block_f32(a, b, block, lo, rows, m, k, n) }
    }
}

// ---------------------------------------------------------------------------
// Selection: CPU detection, plus the process-wide scalar pin read at every
// dispatch.
// ---------------------------------------------------------------------------

static SCALAR: ScalarBackend = ScalarBackend;
#[cfg(target_arch = "x86_64")]
static AVX512: Avx512Backend = Avx512Backend(());

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Whether the register-blocked AVX-512 kernels are usable on this
/// machine. Checks `avx` too: the AVX-512 backend's `nt` kernels are the
/// AVX ones.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx")
                && std::arch::is_x86_feature_detected!("avx512f")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The fastest backend this CPU can run: AVX-512 when detected, else the
/// scalar reference.
fn detected_backend() -> &'static dyn GemmBackend {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        return &AVX512;
    }
    &SCALAR
}

/// Pins (`true`) or releases (`false`) the scalar reference for every
/// subsequent dispatch in this process. Only for running the same work on
/// both backends in one process (the equivalence suite, the scalar bench
/// entries); results are bit-identical either way.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Every backend usable on this machine: the scalar reference first, the
/// detected backend last (one entry where they coincide). The property
/// suites and the `hotpath` table iterate this.
pub fn available_backends() -> Vec<&'static dyn GemmBackend> {
    let detected = detected_backend();
    if detected.name() == SCALAR.name() {
        vec![&SCALAR]
    } else {
        vec![&SCALAR, detected]
    }
}

/// The backend every `gemm_*_into` dispatch uses right now: the scalar
/// reference while [`force_scalar`] pins it, else the detected backend.
pub fn active_backend() -> &'static dyn GemmBackend {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        &SCALAR
    } else {
        detected_backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_parse_round_trips() {
        assert_eq!(Precision::parse("f64"), Some(Precision::F64));
        assert_eq!(Precision::parse("F32"), Some(Precision::F32));
        assert_eq!(Precision::parse("half"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn selection_is_detection_with_a_scalar_pin() {
        let detected = if avx512_available() {
            "simd-avx512"
        } else {
            "scalar"
        };
        assert_eq!(active_backend().name(), detected);

        let names: Vec<&str> = available_backends().iter().map(|b| b.name()).collect();
        assert_eq!(names.first(), Some(&"scalar"));
        assert_eq!(names.last(), Some(&detected));

        force_scalar(true);
        assert_eq!(active_backend().name(), "scalar");
        force_scalar(false);
        assert_eq!(active_backend().name(), detected);
    }
}
