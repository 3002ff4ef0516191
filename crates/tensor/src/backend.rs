//! Backend-dispatched gemm kernels: the scalar reference and an AVX-512
//! family, behind one closed [`Backend`] switch.
//!
//! Both kernel families honour the same **determinism contract** (see the
//! `compute` module docs): each output element accumulates its `k`
//! contributions in strictly ascending order into a single accumulator, so
//! results are bit-identical across backends. The SIMD kernels achieve
//! this by vectorizing across *output columns* (`j`), never across the
//! reduction dimension `k` — each SIMD lane replays exactly the scalar
//! kernel's per-element fold — and by using separate multiply and add
//! instructions (an FMA would fuse the intermediate rounding and change
//! bits).
//!
//! A [`Backend`] is one of two kinds:
//!
//! - scalar — the blocked/unrolled reference kernels;
//! - AVX-512 (`x86_64` with runtime `avx512f` + `avx` detection) —
//!   register-blocked 8-wide kernels whose accumulators live in zmm
//!   registers across the whole `k` loop.
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

/// One gemm kernel family: the scalar reference or, on a CPU that has it,
/// the AVX-512 kernels. Row-level (`nt_row`) and block-level (`nn_block`,
/// `tn_block`) granularity matches how the dispatcher shards work across
/// threads: threads own disjoint *output rows*, so a kernel never sees a
/// partial reduction.
///
/// Only CPU detection makes the AVX-512 value (the field is private and
/// [`available_backends`] / [`active_backend`] build it only where
/// [`avx512_available`] holds). Both kinds keep the strictly-ascending-`k`
/// single-accumulator order per output element; the `compute` property
/// sweeps enforce bit-identity against the scalar reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend(Kind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The blocked scalar reference kernels — the accumulation-order ground
/// truth the AVX-512 kernels are property-tested against.
const SCALAR: Backend = Backend(Kind::Scalar);

impl Backend {
    /// Backend name as reported in benches and `BENCH.json`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => "simd-avx512",
        }
    }

    /// Rows `lo..lo + block.len()/n` of `out = A · B` (`a`: the full `m×k`
    /// matrix, `b`: `k×n`). The scalar kind runs its row kernel once per
    /// row; the AVX-512 kind register-blocks *across* rows — extra
    /// independent accumulator chains that share the `B` loads — while
    /// every element keeps its single ascending-`k` chain.
    pub fn nn_block(self, a: &[f64], b: &[f64], block: &mut [f64], lo: usize, k: usize, n: usize) {
        match self.0 {
            Kind::Scalar => {
                for (bi, out_row) in block.chunks_exact_mut(n.max(1)).enumerate() {
                    let i = lo + bi;
                    scalar_nn(&a[i * k..(i + 1) * k], b, out_row, k, n);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => {
                assert_nn_block_shape(a, b, block, lo, k, n);
                // SAFETY: only `detected_backend` makes `Kind::Avx512`, after
                // `avx512_available()` found the AVX-512F and AVX the kernel
                // needs; the assert above bounds every pointer it derives.
                unsafe { avx512::nn_block(a, b, block, lo, k, n) }
            }
        }
    }

    /// One output row of `out = A · Bᵀ` (`a_row`: `k`, `b`: `n×k`).
    pub fn nt_row(self, a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
        match self.0 {
            Kind::Scalar => scalar_nt(a_row, b, out_row, k, n),
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => {
                assert_row_shape(a_row, b, out_row, k, n);
                // SAFETY: only `detected_backend` makes `Kind::Avx512`, after
                // `avx512_available()` found the AVX-512F and AVX the kernel
                // needs; the assert above bounds every pointer it derives.
                unsafe { avx::nt_row(a_row, b, out_row, k, n) }
            }
        }
    }

    /// Rows `lo..lo + rows` of `out = Aᵀ · B` (`a`: `k×m`, `b`: `k×n`).
    #[allow(clippy::too_many_arguments)]
    pub fn tn_block(
        self,
        a: &[f64],
        b: &[f64],
        block: &mut [f64],
        lo: usize,
        rows: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        match self.0 {
            Kind::Scalar => scalar_tn(a, b, block, lo, rows, m, k, n),
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => {
                assert_tn_block_shape(a, b, block, lo, rows, m, k, n);
                // SAFETY: only `detected_backend` makes `Kind::Avx512`, after
                // `avx512_available()` found the AVX-512F and AVX the kernel
                // needs; the assert above bounds every pointer it derives.
                unsafe { avx512::tn_block(a, b, block, lo, rows, m, k, n) }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

/// Blocked i-k-j row kernel: four `k` steps per sweep of the output
/// segment, each element accumulating in ascending `k` order (the
/// four adds chain in-register).
fn scalar_nn(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
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
fn scalar_nt(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
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
        let mut s = [0.0; 8];
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
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
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
fn scalar_tn(
    a: &[f64],
    b: &[f64],
    block: &mut [f64],
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

// ---------------------------------------------------------------------------
// AVX `nt` kernels (x86_64). `nt` gathers one scalar per output column per
// `k` step — B's rows are the output columns, so there is no contiguous
// column vector to register-block the way the AVX-512 `nn`/`tn` kernels do
// — and these 4-wide gathers measured 1.0–1.3× the scalar kernel, so the
// AVX-512 backend keeps them (AVX-512F machines always have
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
    pub unsafe fn nt_row(a_row: &[f64], b: &[f64], out_row: &mut [f64], k: usize, n: usize) {
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
    unsafe fn nn_group<const NV: usize>(
        a: *const f64,
        a_stride: usize,
        b: *const f64,
        out: *mut f64,
        k: usize,
        n: usize,
        width: usize,
    ) {
        const LANES: usize = 8;
        let tail = width - (NV - 1) * LANES;
        let tmask: __mmask8 = if tail == LANES {
            <__mmask8>::MAX
        } else {
            ((1u32 << tail) - 1) as __mmask8
        };
        let mut acc = [_mm512_setzero_pd(); NV];
        for kk in 0..k {
            let av = _mm512_set1_pd(*a.add(kk * a_stride));
            let row = b.add(kk * n);
            for v in 0..NV - 1 {
                let bv = _mm512_loadu_pd(row.add(v * LANES));
                acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(av, bv));
            }
            // Dead tail lanes multiply against 0.0 and are never
            // stored.
            let bv = _mm512_maskz_loadu_pd(tmask, row.add((NV - 1) * LANES));
            acc[NV - 1] = _mm512_add_pd(acc[NV - 1], _mm512_mul_pd(av, bv));
        }
        for v in 0..NV - 1 {
            _mm512_storeu_pd(out.add(v * LANES), acc[v]);
        }
        _mm512_mask_storeu_pd(out.add((NV - 1) * LANES), tmask, acc[NV - 1]);
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
    unsafe fn nn_like(
        a: *const f64,
        a_stride: usize,
        b: &[f64],
        out_row: &mut [f64],
        k: usize,
        n: usize,
    ) {
        const LANES: usize = 8;
        let mut jb = 0usize;
        while jb < n {
            let width = (n - jb).min(8 * LANES);
            let bp = b.as_ptr().add(jb);
            let op = out_row.as_mut_ptr().add(jb);
            match width.div_ceil(LANES) {
                1 => nn_group::<1>(a, a_stride, bp, op, k, n, width),
                2 => nn_group::<2>(a, a_stride, bp, op, k, n, width),
                3 => nn_group::<3>(a, a_stride, bp, op, k, n, width),
                4 => nn_group::<4>(a, a_stride, bp, op, k, n, width),
                5 => nn_group::<5>(a, a_stride, bp, op, k, n, width),
                6 => nn_group::<6>(a, a_stride, bp, op, k, n, width),
                7 => nn_group::<7>(a, a_stride, bp, op, k, n, width),
                _ => nn_group::<8>(a, a_stride, bp, op, k, n, width),
            }
            jb += width;
        }
    }

    /// Two-row column group: the same per-element ascending-`k`
    /// chains as [`nn_group`], but two output rows' accumulators in
    /// flight sharing every `B` load — doubling the independent
    /// chains that hide the add latency.
    ///
    /// # Safety
    ///
    /// As [`nn_group`], for both `a` pointers and both `out` rows.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn nn_group2<const NV: usize>(
        a0: *const f64,
        a1: *const f64,
        a_stride: usize,
        b: *const f64,
        out0: *mut f64,
        out1: *mut f64,
        k: usize,
        n: usize,
        width: usize,
    ) {
        const LANES: usize = 8;
        let tail = width - (NV - 1) * LANES;
        let tmask: __mmask8 = if tail == LANES {
            <__mmask8>::MAX
        } else {
            ((1u32 << tail) - 1) as __mmask8
        };
        let mut acc0 = [_mm512_setzero_pd(); NV];
        let mut acc1 = [_mm512_setzero_pd(); NV];
        for kk in 0..k {
            let av0 = _mm512_set1_pd(*a0.add(kk * a_stride));
            let av1 = _mm512_set1_pd(*a1.add(kk * a_stride));
            let row = b.add(kk * n);
            for v in 0..NV - 1 {
                let bv = _mm512_loadu_pd(row.add(v * LANES));
                acc0[v] = _mm512_add_pd(acc0[v], _mm512_mul_pd(av0, bv));
                acc1[v] = _mm512_add_pd(acc1[v], _mm512_mul_pd(av1, bv));
            }
            let bv = _mm512_maskz_loadu_pd(tmask, row.add((NV - 1) * LANES));
            acc0[NV - 1] = _mm512_add_pd(acc0[NV - 1], _mm512_mul_pd(av0, bv));
            acc1[NV - 1] = _mm512_add_pd(acc1[NV - 1], _mm512_mul_pd(av1, bv));
        }
        for v in 0..NV - 1 {
            _mm512_storeu_pd(out0.add(v * LANES), acc0[v]);
            _mm512_storeu_pd(out1.add(v * LANES), acc1[v]);
        }
        _mm512_mask_storeu_pd(out0.add((NV - 1) * LANES), tmask, acc0[NV - 1]);
        _mm512_mask_storeu_pd(out1.add((NV - 1) * LANES), tmask, acc1[NV - 1]);
    }

    /// Two-row twin of [`nn_like`].
    ///
    /// # Safety
    ///
    /// As [`nn_like`], for both `a` pointers and both `out` rows.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn nn_pair(
        a0: *const f64,
        a1: *const f64,
        a_stride: usize,
        b: &[f64],
        out0: *mut f64,
        out1: *mut f64,
        k: usize,
        n: usize,
    ) {
        const LANES: usize = 8;
        let mut jb = 0usize;
        while jb < n {
            let width = (n - jb).min(8 * LANES);
            let bp = b.as_ptr().add(jb);
            let (o0, o1) = (out0.add(jb), out1.add(jb));
            match width.div_ceil(LANES) {
                1 => nn_group2::<1>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                2 => nn_group2::<2>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                3 => nn_group2::<3>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                4 => nn_group2::<4>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                5 => nn_group2::<5>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                6 => nn_group2::<6>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                7 => nn_group2::<7>(a0, a1, a_stride, bp, o0, o1, k, n, width),
                _ => nn_group2::<8>(a0, a1, a_stride, bp, o0, o1, k, n, width),
            }
            jb += width;
        }
    }

    /// Row-paired `nn` block: consecutive output rows two at a time (plus
    /// a single-row tail), sharing each `B` load across both rows' chains.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `a` is the full `m×k` matrix, `block` covers
    /// rows `lo..lo + block.len()/n`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn nn_block(a: &[f64], b: &[f64], block: &mut [f64], lo: usize, k: usize, n: usize) {
        if n == 0 {
            return;
        }
        let rows = block.len() / n;
        let mut bi = 0usize;
        while bi + 2 <= rows {
            let i = lo + bi;
            nn_pair(
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
            nn_like(
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
    /// Requires AVX-512F; slice shapes as in [`super::Backend::tn_block`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tn_block(
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
            nn_pair(
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
            nn_like(
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

/// Whether `x` holds at least `rows · cols` elements.
#[cfg(target_arch = "x86_64")]
fn holds(x: &[f64], rows: usize, cols: usize) -> bool {
    rows.checked_mul(cols).is_some_and(|len| x.len() >= len)
}

/// Panics unless a row kernel's operands fit `(k, n)`: `a_row` holds `k`
/// elements, `b` holds `k·n` and `out_row` holds `n`.
#[cfg(target_arch = "x86_64")]
fn assert_row_shape(a_row: &[f64], b: &[f64], out_row: &[f64], k: usize, n: usize) {
    assert!(
        a_row.len() >= k && holds(b, k, n) && out_row.len() >= n,
        "gemm row operands (a_row {}, b {}, out_row {}) do not fit k = {k}, n = {n}",
        a_row.len(),
        b.len(),
        out_row.len()
    );
}

/// Panics unless an `nn` block's operands fit `(lo, k, n)`: `a` holds
/// rows `..lo + block.len()/n` of `k` elements and `b` holds `k·n`.
#[cfg(target_arch = "x86_64")]
fn assert_nn_block_shape(a: &[f64], b: &[f64], block: &[f64], lo: usize, k: usize, n: usize) {
    let end = lo.checked_add(block.len().checked_div(n).unwrap_or(0));
    assert!(
        end.is_some_and(|end| holds(a, end, k)) && holds(b, k, n),
        "gemm nn block operands (a {}, b {}, block {}) do not fit lo = {lo}, k = {k}, n = {n}",
        a.len(),
        b.len(),
        block.len()
    );
}

/// Panics unless a `tn` block's operands fit `(lo, rows, m, k, n)`: rows
/// `lo..lo + rows` lie within `m`, `a` holds `k·m`, `b` holds `k·n` and
/// `block` holds `rows·n`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn assert_tn_block_shape(
    a: &[f64],
    b: &[f64],
    block: &[f64],
    lo: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    assert!(
        lo.checked_add(rows).is_some_and(|end| end <= m)
            && holds(a, k, m)
            && holds(b, k, n)
            && holds(block, rows, n),
        "gemm tn block operands (a {}, b {}, block {}) do not fit \
         lo = {lo}, rows = {rows}, m = {m}, k = {k}, n = {n}",
        a.len(),
        b.len(),
        block.len()
    );
}

// ---------------------------------------------------------------------------
// Selection: CPU detection, plus the process-wide scalar pin read at every
// dispatch.
// ---------------------------------------------------------------------------

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
/// scalar reference. The only place a `Kind::Avx512` value is made.
fn detected_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        return Backend(Kind::Avx512);
    }
    SCALAR
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
pub fn available_backends() -> Vec<Backend> {
    let detected = detected_backend();
    if detected == SCALAR {
        vec![SCALAR]
    } else {
        vec![SCALAR, detected]
    }
}

/// The backend every `gemm_*_into` dispatch uses right now: the scalar
/// reference while [`force_scalar`] pins it, else the detected backend.
pub fn active_backend() -> Backend {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SCALAR
    } else {
        detected_backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    // A direct kernel call with operands too short for its shape must
    // panic on the detected backend, never read or write out of bounds.

    #[test]
    #[should_panic]
    fn mis_shaped_nn_block_panics() {
        // Rows 1..3 of a one-row `a`.
        let (a, b, mut block) = ([1.0; 4], [1.0; 4 * 16], [0.0; 2 * 16]);
        detected_backend().nn_block(&a, &b, &mut block, 1, 4, 16);
    }

    #[test]
    #[should_panic]
    fn mis_shaped_nt_row_panics() {
        let (a, b, mut out) = ([1.0; 4], [1.0; 8 * 4], [0.0; 4]);
        detected_backend().nt_row(&a, &b, &mut out, 4, 8);
    }

    #[test]
    #[should_panic]
    fn mis_shaped_tn_block_panics() {
        // Rows 2..6 of a 4-column `a`.
        let (a, b, mut block) = ([1.0; 4 * 4], [1.0; 4 * 8], [0.0; 4 * 8]);
        detected_backend().tn_block(&a, &b, &mut block, 2, 4, 4, 4, 8);
    }
}
