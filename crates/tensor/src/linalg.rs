//! Householder-QR factorization and least-squares solvers.
//!
//! The attack's algebraic step (paper §3.3, Algorithm 1 line 7) needs the
//! *pre-image* `v` of a standard basis vector under the product weight matrix
//! `Â` of a linear region: `Â v = e`. `Â` is `d_i × P`, usually *wide*
//! (contractive network), sometimes rank-deficient (inactive neurons zero out
//! rows of the mask), and occasionally has **no** solution at all (expansive
//! network) — in which case the attack must report ⊥ and fall back to the
//! learning-based procedure. [`preimage`] implements exactly that contract.

use crate::Tensor;

/// Relative pivot threshold below which a diagonal entry of `R` is treated
/// as zero (rank deficiency).
const PIVOT_TOL: f64 = 1e-12;

/// A compact Householder QR factorization `A = Q R`.
///
/// The factor is stored LAPACK-style: `R` on and above the diagonal of
/// `packed`, and the essential parts of the Householder vectors below it.
///
/// ```
/// use relock_tensor::{Tensor, linalg::QrFactors};
/// let a = Tensor::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[0.0, 0.0]]);
/// let qr = QrFactors::compute(&a);
/// let b = Tensor::from_slice(&[2.0, 6.0, 0.0]);
/// let x = qr.solve_least_squares(&b);
/// assert!((x.as_slice()[0] - 1.0).abs() < 1e-12);
/// assert!((x.as_slice()[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct QrFactors {
    m: usize,
    n: usize,
    packed: Tensor,
    beta: Vec<f64>,
}

impl QrFactors {
    /// Factors `a` (any `m × n`).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a matrix.
    pub fn compute(a: &Tensor) -> Self {
        assert!(a.shape().is_matrix(), "QR requires a matrix");
        let (m, n) = (a.dims()[0], a.dims()[1]);
        let mut packed = a.clone();
        let p = m.min(n);
        let mut beta = vec![0.0f64; p];

        for k in 0..p {
            // Householder vector for column k, rows k..m.
            let mut sigma = 0.0;
            for i in (k + 1)..m {
                let x = packed.get2(i, k);
                sigma += x * x;
            }
            let x0 = packed.get2(k, k);
            let (v0, b);
            if sigma == 0.0 {
                // Column already triangular; reflection unnecessary (or a
                // pure sign flip, which we skip — solvers only use |R|
                // through the residual check).
                v0 = 1.0;
                b = 0.0;
            } else {
                let mu = (x0 * x0 + sigma).sqrt();
                let w0 = if x0 <= 0.0 {
                    x0 - mu
                } else {
                    -sigma / (x0 + mu)
                };
                b = 2.0 * w0 * w0 / (sigma + w0 * w0);
                v0 = w0;
            }
            beta[k] = b;
            if b != 0.0 {
                // Normalize so the stored vector has implicit leading 1.
                for i in (k + 1)..m {
                    let x = packed.get2(i, k);
                    packed.set2(i, k, x / v0);
                }
                // New diagonal entry of R: with v₀ = x₀ − μ (computed in the
                // cancellation-free form above), H x = +μ·e₁ in both branches.
                let mu = (x0 * x0 + sigma).sqrt();
                packed.set2(k, k, mu);
                // Apply H = I - b v vᵀ to the remaining columns.
                for j in (k + 1)..n {
                    let mut dot = packed.get2(k, j);
                    for i in (k + 1)..m {
                        dot += packed.get2(i, k) * packed.get2(i, j);
                    }
                    let s = b * dot;
                    let new_kj = packed.get2(k, j) - s;
                    packed.set2(k, j, new_kj);
                    for i in (k + 1)..m {
                        let upd = packed.get2(i, j) - s * packed.get2(i, k);
                        packed.set2(i, j, upd);
                    }
                }
            }
        }

        QrFactors { m, n, packed, beta }
    }

    /// Number of rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Number of columns of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// The diagonal of `R` (useful for rank estimation).
    pub fn r_diag(&self) -> Vec<f64> {
        (0..self.m.min(self.n))
            .map(|k| self.packed.get2(k, k))
            .collect()
    }

    /// Numerical rank: count of `|R_kk|` above `PIVOT_TOL` relative to the
    /// largest diagonal magnitude.
    pub fn rank(&self) -> usize {
        let diag = self.r_diag();
        let scale = diag.iter().fold(0.0f64, |m, &d| m.max(d.abs()));
        if scale == 0.0 {
            return 0;
        }
        diag.iter().filter(|d| d.abs() > PIVOT_TOL * scale).count()
    }

    /// Applies `Qᵀ` to a length-`m` vector in place.
    fn apply_qt(&self, b: &mut [f64]) {
        debug_assert_eq!(b.len(), self.m);
        for k in 0..self.beta.len() {
            let bk = self.beta[k];
            if bk == 0.0 {
                continue;
            }
            let mut dot = b[k];
            for i in (k + 1)..self.m {
                dot += self.packed.get2(i, k) * b[i];
            }
            let s = bk * dot;
            b[k] -= s;
            for i in (k + 1)..self.m {
                b[i] -= s * self.packed.get2(i, k);
            }
        }
    }

    /// Applies `Q` to a length-`m` vector in place.
    fn apply_q(&self, b: &mut [f64]) {
        debug_assert_eq!(b.len(), self.m);
        for k in (0..self.beta.len()).rev() {
            let bk = self.beta[k];
            if bk == 0.0 {
                continue;
            }
            let mut dot = b[k];
            for i in (k + 1)..self.m {
                dot += self.packed.get2(i, k) * b[i];
            }
            let s = bk * dot;
            b[k] -= s;
            for i in (k + 1)..self.m {
                b[i] -= s * self.packed.get2(i, k);
            }
        }
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂` for the factored
    /// `A` with `m ≥ n`. Rank-deficient diagonals contribute zero components
    /// (a *basic* solution).
    ///
    /// # Panics
    ///
    /// Panics if `b.numel() != m` or the matrix is wide (`m < n`).
    pub fn solve_least_squares(&self, b: &Tensor) -> Tensor {
        assert!(self.m >= self.n, "least squares needs a tall matrix");
        assert_eq!(b.numel(), self.m, "rhs length mismatch");
        let mut c = b.as_slice().to_vec();
        self.apply_qt(&mut c);
        // Back-substitute R x = c[0..n].
        let diag = self.r_diag();
        let scale = diag.iter().fold(0.0f64, |acc, &d| acc.max(d.abs()));
        let mut x = vec![0.0f64; self.n];
        for i in (0..self.n).rev() {
            let mut s = c[i];
            for j in (i + 1)..self.n {
                s -= self.packed.get2(i, j) * x[j];
            }
            let d = self.packed.get2(i, i);
            x[i] = if scale == 0.0 || d.abs() <= PIVOT_TOL * scale {
                0.0
            } else {
                s / d
            };
        }
        Tensor::from_slice(&x)
    }

    /// Solves `Aᵀ_factored` systems for the minimum-norm problem: given the
    /// factorization of `Aᵀ` (so the original `A` is wide), returns the
    /// minimum-norm `v` with `A v = b` *if it exists*, without verifying
    /// consistency (the caller checks the residual).
    ///
    /// Here the factored matrix is `Aᵀ` of shape `n × m` with `n ≥ m`;
    /// `b` has length `m`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn solve_min_norm_from_transpose(&self, b: &Tensor) -> Tensor {
        // Factored: Aᵀ (n_rows = self.m entries = original n; cols = original m).
        let orig_m = self.n;
        assert_eq!(b.numel(), orig_m, "rhs length mismatch");
        // A = Rᵀ Qᵀ, so A v = b  ⇔  Rᵀ y = b with y = Qᵀ v; min-norm v = Q [y; 0].
        let diag = self.r_diag();
        let scale = diag.iter().fold(0.0f64, |acc, &d| acc.max(d.abs()));
        let mut y = vec![0.0f64; self.m];
        // Forward-substitute Rᵀ y = b (Rᵀ is lower triangular, orig_m × orig_m).
        for i in 0..orig_m {
            let mut s = b.as_slice()[i];
            for j in 0..i {
                s -= self.packed.get2(j, i) * y[j];
            }
            let d = self.packed.get2(i, i);
            y[i] = if scale == 0.0 || d.abs() <= PIVOT_TOL * scale {
                0.0
            } else {
                s / d
            };
        }
        self.apply_q(&mut y);
        Tensor::from_slice(&y)
    }
}

/// The outcome of a successful pre-image computation.
#[derive(Debug, Clone)]
pub struct Preimage {
    /// A solution of `A v = b` (minimum-norm when `A` is wide).
    pub v: Tensor,
    /// The achieved residual `‖A v − b‖₂`.
    pub residual: f64,
}

/// A matrix `a` factored once to solve `a · v = b` for many `b`: QR of
/// `aᵀ` when `a` is wide (or square), QR of `a` when it is tall.
///
/// Algorithm 1 solves against the same `Â` at every witness of an
/// input-fed layer; one factor then serves every basis vector, and it is
/// shared read-only across threads. [`preimage`] is this factor followed
/// by one [`solve`](Self::solve), so both paths give the same bits.
///
/// ```
/// use relock_tensor::{Tensor, linalg::PreimageSolver};
/// let a = Tensor::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
/// let solver = PreimageSolver::new(a);
/// for j in 0..2 {
///     let p = solver.solve(&Tensor::basis(2, j), 1e-9).expect("onto");
///     assert!(p.residual < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PreimageSolver {
    a: Tensor,
    qr: QrFactors,
    wide: bool,
}

impl PreimageSolver {
    /// Factors `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a matrix.
    pub fn new(a: Tensor) -> Self {
        assert!(a.shape().is_matrix(), "preimage requires a matrix");
        let wide = a.dims()[0] <= a.dims()[1];
        let qr = if wide {
            QrFactors::compute(&a.transpose())
        } else {
            QrFactors::compute(&a)
        };
        PreimageSolver { a, qr, wide }
    }

    /// The factored matrix.
    pub fn matrix(&self) -> &Tensor {
        &self.a
    }

    /// A pre-image of `b` under the factored matrix, checked by its
    /// residual; see [`preimage`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics if `b.numel()` differs from the matrix's row count.
    pub fn solve(&self, b: &Tensor, tol: f64) -> Option<Preimage> {
        assert_eq!(b.numel(), self.a.dims()[0], "rhs length mismatch");
        let v = if self.wide {
            self.qr.solve_min_norm_from_transpose(b)
        } else {
            self.qr.solve_least_squares(b)
        };
        let achieved = self.a.matvec(&v);
        let residual = achieved.max_abs_diff(b);
        if residual <= tol * b.norm_inf().max(1.0) {
            Some(Preimage { v, residual })
        } else {
            None
        }
    }
}

/// Computes a pre-image `v` of `b` under `a`: a vector with `a · v = b`.
///
/// For wide `a` (the contractive case of the paper) the returned solution is
/// the minimum-norm one, which keeps the ε-perturbation `x° ± ε·v` of
/// Algorithm 1 as small as possible in the input space. For tall `a` the
/// least-squares solution is returned. In both cases the candidate is
/// *verified* by multiplication; if the residual exceeds
/// `tol · max(1, ‖b‖)` — i.e. `b` is not (numerically) in the range of `a`,
/// the expansive case — `None` is returned, which Algorithm 1 maps to ⊥.
/// To solve many right-hand sides against one `a`, factor it once with
/// [`PreimageSolver`].
///
/// ```
/// use relock_tensor::{Tensor, linalg::preimage};
/// let a = Tensor::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
/// let e = Tensor::from_slice(&[1.0, 0.0]);
/// let p = preimage(&a, &e, 1e-9).expect("wide full-rank matrix is onto");
/// assert!(p.residual < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `a` is not a matrix or `b.numel() != a.nrows()`.
pub fn preimage(a: &Tensor, b: &Tensor, tol: f64) -> Option<Preimage> {
    PreimageSolver::new(a.clone()).solve(b, tol)
}

/// Solves the square linear system `a x = b` via QR.
///
/// Returns `None` if `a` is numerically singular (verified by residual).
///
/// # Panics
///
/// Panics if `a` is not square or `b.numel() != a.nrows()`.
pub fn solve(a: &Tensor, b: &Tensor, tol: f64) -> Option<Tensor> {
    assert!(a.shape().is_matrix(), "solve requires a matrix");
    assert_eq!(a.dims()[0], a.dims()[1], "solve requires a square matrix");
    preimage(a, b, tol).map(|p| p.v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn random_matrix(rng: &mut Prng, m: usize, n: usize) -> Tensor {
        rng.normal_tensor([m, n])
    }

    #[test]
    fn qr_reconstructs_tall_matrix_solution() {
        let mut rng = Prng::seed_from_u64(11);
        let a = random_matrix(&mut rng, 8, 5);
        let x_true = rng.normal_tensor([5]);
        let b = a.matvec(&x_true);
        let qr = QrFactors::compute(&a);
        let x = qr.solve_least_squares(&b);
        assert!(x.max_abs_diff(&x_true) < 1e-9, "{:?}", x);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Overdetermined inconsistent system: compare against normal equations.
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = Tensor::from_slice(&[1.0, 2.0, 2.0]);
        let qr = QrFactors::compute(&a);
        let x = qr.solve_least_squares(&b);
        // Normal-equation solution for this classic example: x = [2/3, 1/2].
        assert!((x.as_slice()[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((x.as_slice()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_norm_solution_is_consistent_and_minimal() {
        let mut rng = Prng::seed_from_u64(13);
        let a = random_matrix(&mut rng, 4, 10);
        let b = rng.normal_tensor([4]);
        let p = preimage(&a, &b, 1e-8).expect("full-rank wide system");
        assert!(p.residual < 1e-8);
        // Minimality: v ∈ row space of A, so v ⟂ null(A). Verify by
        // projecting a null-space vector against v.
        let v = &p.v;
        // Construct a null vector numerically: w - A⁺(Aw).
        let w = rng.normal_tensor([10]);
        let aw = a.matvec(&w);
        let back = preimage(&a, &aw, 1e-8).expect("consistent");
        let null = &w - &back.v;
        assert!(a.matvec(&null).norm_inf() < 1e-7);
        assert!(v.dot(&null).abs() < 1e-7, "min-norm must be ⟂ null space");
    }

    #[test]
    fn preimage_detects_inconsistent_system() {
        // Rank-1 wide matrix; rhs outside its range.
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]]);
        let b = Tensor::from_slice(&[1.0, 0.0]);
        assert!(preimage(&a, &b, 1e-8).is_none(), "must report ⊥");
        // rhs inside the range works.
        let b2 = Tensor::from_slice(&[1.0, 2.0]);
        let p = preimage(&a, &b2, 1e-8).expect("in range");
        assert!(p.residual < 1e-8);
    }

    #[test]
    fn solve_square_system() {
        let a = Tensor::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = Tensor::from_slice(&[1.0, 2.0]);
        let x = solve(&a, &b, 1e-10).expect("nonsingular");
        let r = a.matvec(&x);
        assert!(r.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none_for_unreachable_rhs() {
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let b = Tensor::from_slice(&[1.0, 2.0]);
        assert!(solve(&a, &b, 1e-10).is_none());
    }

    #[test]
    fn rank_of_rank_deficient_matrix() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = QrFactors::compute(&a);
        assert_eq!(qr.rank(), 1);
        let mut rng = Prng::seed_from_u64(17);
        let full = rng.normal_tensor([6, 4]);
        assert_eq!(QrFactors::compute(&full).rank(), 4);
    }

    #[test]
    fn qt_then_q_is_identity() {
        let mut rng = Prng::seed_from_u64(19);
        let a = random_matrix(&mut rng, 7, 7);
        let qr = QrFactors::compute(&a);
        let b = rng.normal_tensor([7]);
        let mut v = b.as_slice().to_vec();
        qr.apply_qt(&mut v);
        qr.apply_q(&mut v);
        let round = Tensor::from_slice(&v);
        assert!(round.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn preimage_of_basis_vectors_random_wide() {
        let mut rng = Prng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 6, 20);
        for j in 0..6 {
            let e = Tensor::basis(6, j);
            let p = preimage(&a, &e, 1e-8).expect("onto");
            assert!(a.matvec(&p.v).max_abs_diff(&e) < 1e-8);
        }
    }
}
