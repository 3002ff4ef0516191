//! Hardened oracle wrappers: cheap countermeasures an IP owner might bolt
//! onto the accelerator's output path, used to study the attack's
//! robustness (the paper's conclusion asks what *would* make DNN locking
//! safe; these wrappers let the test suite quantify how little the obvious
//! tweaks help).
//!
//! - [`QuantizedOracle`] rounds outputs to a fixed number of decimals
//!   (e.g. a display-precision API);
//! - [`NoisyOracle`] adds i.i.d. Gaussian noise to every logit;
//! - [`LabelOnlyOracle`] reveals nothing but the argmax class (one-hot);
//! - [`UnreliableOracle`] drops a fraction of requests on the floor,
//!   modelling a flaky accelerator link — the failure mode the
//!   `relock-serve` broker's retry policy exists for.

use crate::oracle::{Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::sync::Mutex;

/// Rounds every output to `decimals` decimal places.
#[derive(Debug)]
pub struct QuantizedOracle<O> {
    inner: O,
    scale: f64,
}

impl<O: Oracle> QuantizedOracle<O> {
    /// Wraps `inner`, rounding outputs to `decimals` decimals.
    pub fn new(inner: O, decimals: u32) -> Self {
        QuantizedOracle {
            inner,
            scale: 10f64.powi(decimals as i32),
        }
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for QuantizedOracle<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.inner
            .query_batch(x)
            .map(|v| (v * self.scale).round() / self.scale)
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
}

/// Adds i.i.d. Gaussian noise to every output component.
#[derive(Debug)]
pub struct NoisyOracle<O> {
    inner: O,
    sigma: f64,
    rng: Mutex<Prng>,
}

impl<O: Oracle> NoisyOracle<O> {
    /// Wraps `inner`, adding `N(0, sigma²)` noise per output element.
    ///
    /// # Panics
    ///
    /// Panics when `sigma` is negative or non-finite — a silently
    /// accepted `NaN` sigma would poison every logit the oracle returns.
    pub fn new(inner: O, sigma: f64, seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "NoisyOracle sigma must be finite and non-negative, got {sigma}"
        );
        NoisyOracle {
            inner,
            sigma,
            rng: Mutex::new(Prng::seed_from_u64(seed)),
        }
    }
}

impl<O: Oracle> Oracle for NoisyOracle<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        let mut out = self.inner.query_batch(x);
        let mut rng = self.rng.lock().expect("rng poisoned");
        for v in out.as_mut_slice() {
            *v += self.sigma * rng.normal();
        }
        out
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
}

/// Reveals only the predicted class, as a one-hot vector — the weakest
/// observation model (decision-only access).
#[derive(Debug)]
pub struct LabelOnlyOracle<O> {
    inner: O,
}

impl<O: Oracle> LabelOnlyOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        LabelOnlyOracle { inner }
    }
}

impl<O: Oracle> Oracle for LabelOnlyOracle<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        let y = self.inner.query_batch(x);
        let (b, q) = (y.dims()[0], y.dims()[1]);
        let mut out = Tensor::zeros([b, q]);
        for s in 0..b {
            let row = Tensor::from_slice(y.row(s));
            out.row_mut(s)[row.argmax()] = 1.0;
        }
        out
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
}

/// Fails a deterministic pseudo-random fraction of requests with
/// [`OracleError::Backend`] — a fault-injection double for a lossy
/// hardware link. Only the fallible surface observes the failures; put
/// the `relock-serve` broker in front of it, whose `RetryPolicy` retries
/// them with backoff, to study retry behaviour.
#[derive(Debug)]
pub struct UnreliableOracle<O> {
    inner: O,
    failure_rate: f64,
    rng: Mutex<Prng>,
}

impl<O: Oracle> UnreliableOracle<O> {
    /// Wraps `inner`; each `try_query_batch` fails independently with
    /// probability `failure_rate`.
    ///
    /// # Panics
    ///
    /// Panics when `failure_rate` is outside `[0, 1]` or non-finite. A
    /// rate of exactly `1.0` is accepted for the fallible surface but
    /// internally capped just below it so [`Oracle::query_batch`]'s
    /// resubmit loop cannot spin forever.
    pub fn new(inner: O, failure_rate: f64, seed: u64) -> Self {
        assert!(
            failure_rate.is_finite() && (0.0..=1.0).contains(&failure_rate),
            "UnreliableOracle failure_rate must be within [0, 1], got {failure_rate}"
        );
        UnreliableOracle {
            inner,
            failure_rate: failure_rate.min(0.999_999),
            rng: Mutex::new(Prng::seed_from_u64(seed)),
        }
    }

    /// Unwraps the inner oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    fn roll_failure(&self) -> bool {
        let mut rng = self.rng.lock().expect("rng poisoned");
        rng.uniform() < self.failure_rate
    }
}

impl<O: Oracle> Oracle for UnreliableOracle<O> {
    /// The infallible surface retries internally until the link succeeds —
    /// a dropped request costs nothing but time, so this models a caller
    /// that blindly resubmits. Budgeted callers should use
    /// [`Oracle::try_query_batch`] and a broker retry policy instead.
    fn query_batch(&self, x: &Tensor) -> Tensor {
        while self.roll_failure() {}
        self.inner.query_batch(x)
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        if self.roll_failure() {
            return Err(OracleError::Backend {
                message: "injected transport failure".to_string(),
                attempts: 1,
            });
        }
        self.inner.try_query_batch(x)
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingOracle, Key, LockedModel};
    use relock_graph::{GraphBuilder, KeySlot, Op, UnitLayout};

    fn model() -> LockedModel {
        let mut rng = Prng::seed_from_u64(800);
        let mut gb = GraphBuilder::new();
        let x = gb.input(3);
        let lin = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([4, 3]),
                    b: rng.normal_tensor([4]),
                    weight_locks: vec![],
                },
                &[x],
            )
            .unwrap();
        let keyed = gb
            .add(
                Op::KeyedSign {
                    layout: UnitLayout::scalar(4),
                    slots: vec![Some(KeySlot(0)), None, None, None],
                },
                &[lin],
            )
            .unwrap();
        let relu = gb.add(Op::Relu, &[keyed]).unwrap();
        let out = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([2, 4]),
                    b: rng.normal_tensor([2]),
                    weight_locks: vec![],
                },
                &[relu],
            )
            .unwrap();
        LockedModel::new(gb.build(out).unwrap(), Key::from_bits(vec![true]))
    }

    #[test]
    fn quantized_outputs_are_on_the_grid() {
        let m = model();
        let o = QuantizedOracle::new(CountingOracle::new(&m), 2);
        let mut rng = Prng::seed_from_u64(801);
        let y = o.query(&rng.normal_tensor([3]));
        for &v in y.as_slice() {
            assert!(((v * 100.0).round() / 100.0 - v).abs() < 1e-12);
        }
        assert_eq!(o.query_count(), 1);
    }

    #[test]
    fn noisy_oracle_perturbs_but_tracks() {
        let m = model();
        let o = NoisyOracle::new(CountingOracle::new(&m), 0.01, 7);
        let mut rng = Prng::seed_from_u64(802);
        let x = rng.normal_tensor([3]);
        let clean = m.logits(&x);
        let noisy = o.query(&x);
        let diff = clean.max_abs_diff(&noisy);
        assert!(diff > 0.0 && diff < 0.1, "noise diff {diff}");
    }

    #[test]
    fn unreliable_oracle_fails_sometimes_but_never_corrupts() {
        let m = model();
        let o = UnreliableOracle::new(CountingOracle::new(&m), 0.5, 17);
        let mut rng = Prng::seed_from_u64(804);
        let x = rng.normal_tensor([1, 3]);
        let clean = m.logits(&Tensor::from_slice(x.row(0)));
        let (mut failures, mut successes) = (0u32, 0u32);
        for _ in 0..64 {
            match o.try_query_batch(&x) {
                Ok(y) => {
                    successes += 1;
                    assert_eq!(y.row(0), clean.as_slice(), "successes are bit-exact");
                }
                Err(OracleError::Backend { .. }) => failures += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failures > 5, "only {failures} injected failures");
        assert!(successes > 5, "only {successes} successes");
    }

    #[test]
    #[should_panic(expected = "failure_rate must be within [0, 1]")]
    fn unreliable_oracle_rejects_rate_above_one() {
        let _ = UnreliableOracle::new(CountingOracle::new(&model()), 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "failure_rate must be within [0, 1]")]
    fn unreliable_oracle_rejects_negative_rate() {
        let _ = UnreliableOracle::new(CountingOracle::new(&model()), -0.25, 0);
    }

    #[test]
    #[should_panic(expected = "failure_rate must be within [0, 1]")]
    fn unreliable_oracle_rejects_nan_rate() {
        let _ = UnreliableOracle::new(CountingOracle::new(&model()), f64::NAN, 0);
    }

    #[test]
    fn unreliable_oracle_accepts_certain_failure_without_spinning_try() {
        let o = UnreliableOracle::new(CountingOracle::new(&model()), 1.0, 3);
        let x = Tensor::zeros([1, 3]);
        for _ in 0..8 {
            assert!(o.try_query_batch(&x).is_err(), "rate 1.0 must always fail");
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn noisy_oracle_rejects_negative_sigma() {
        let _ = NoisyOracle::new(CountingOracle::new(&model()), -0.1, 0);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn noisy_oracle_rejects_nan_sigma() {
        let _ = NoisyOracle::new(CountingOracle::new(&model()), f64::NAN, 0);
    }

    #[test]
    fn label_only_reveals_one_hot() {
        let m = model();
        let o = LabelOnlyOracle::new(CountingOracle::new(&m));
        let mut rng = Prng::seed_from_u64(803);
        let y = o.query(&rng.normal_tensor([3]));
        assert_eq!(y.sum(), 1.0);
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }
}
