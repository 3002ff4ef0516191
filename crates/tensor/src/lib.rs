//! Dense `f64` tensor and linear-algebra substrate for the `relock` workspace.
//!
//! The DAC'24 DNN-decryption attack is, at its core, exact linear algebra over
//! the piecewise-linear structure of deep ReLU networks. This crate provides
//! the numerical kernel that everything else builds on:
//!
//! - [`Tensor`]: a row-major, heap-allocated `f64` tensor with shape/stride
//!   bookkeeping, element-wise arithmetic, matrix products and reductions;
//! - [`linalg`]: Householder-QR factorizations and the *minimum-norm
//!   least-squares* solver used by the attack's pre-image computation
//!   (paper §3.3, Algorithm 1 line 7);
//! - [`rng`]: a small, fully deterministic xoshiro256++ PRNG so that every
//!   experiment in the workspace is reproducible bit-for-bit;
//! - [`im2col`]: the image-to-column lowering used by the convolution ops;
//! - [`backend`]: the dispatched gemm engine — the scalar reference and an
//!   AVX-512 backend chosen by CPU detection, each with f64 and f32
//!   kernels, all bit-identical per precision (see [`GemmBackend`] and
//!   [`Precision`]).
//!
//! # Example
//!
//! ```
//! use relock_tensor::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let x = Tensor::from_slice(&[1.0, 1.0]);
//! let y = a.matvec(&x);
//! assert_eq!(y.as_slice(), &[3.0, 7.0]);
//! ```

pub mod backend;
pub mod compute;
pub mod im2col;
pub mod linalg;
pub mod rng;
mod shape;
mod tensor;

pub use backend::{GemmBackend, Precision};
pub use shape::Shape;
pub use tensor::Tensor;

/// Numerical tolerance used across the workspace when deciding whether two
/// floating-point values are "the same" after exact-in-theory arithmetic.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relatively (whichever is looser), the standard mixed comparison.
///
/// ```
/// assert!(relock_tensor::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!relock_tensor::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 0.0, 1e-12));
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-12), 1e-9));
        assert!(!approx_eq(1e-3, 2e-3, 1e-9));
    }
}
