//! What every workload shares: seed derivation, victim set-up, the guarded
//! attack call, its correctness gates, and the paired traced replay.

use crate::context::{peak_rss_mib, Context};
use crate::layers::{madds_per_row, Ledger, TimedExecutor, TimedOracle};
use crate::metrics::{median, ratio, tail_percentile, Readings, MIN_TAIL};
use relock_attack::{AttackError, DecryptionReport, Decryptor};
use relock_bench::{prepare, Arch, Scale};
use relock_locking::{Key, LockedModel, Oracle, OracleError};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One run's settings, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed; every victim and attack seed derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced replay for per-layer metrics instead.
    pub trace: bool,
}

impl Params {
    /// The timed phase's length.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a run measured and whether its outputs were right.
#[derive(Debug)]
pub struct Outcome {
    /// Where and how it ran.
    pub context: Context,
    /// Attacks or campaigns started.
    pub attempted: u64,
    /// Those that errored, panicked or ended other than completed.
    pub failed: u64,
    /// Correctness-gate violations; any one fails the run.
    pub violations: Vec<String>,
    /// Metrics the run was too small to measure. The run then prints no
    /// result; its outputs may still be correct.
    pub shortfalls: Vec<String>,
    /// Metric values.
    pub readings: Readings,
}

impl Outcome {
    /// An empty outcome for a run stamped with `context`.
    pub fn new(context: Context) -> Self {
        Outcome {
            context,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            shortfalls: Vec::new(),
            readings: Readings::default(),
        }
    }

    /// The gates every completed attack report must pass: balanced broker
    /// books, and a query count equal to the broker's underlying rows.
    pub fn check_report(&mut self, what: &str, report: &DecryptionReport) {
        if !report.stats.is_balanced() {
            self.violations
                .push(format!("{what}: broker books do not balance"));
        }
        if report.queries != report.stats.underlying {
            self.violations.push(format!(
                "{what}: report.queries {} != stats.underlying {}",
                report.queries, report.stats.underlying
            ));
        }
    }

    /// Records the metrics every untraced run reports the same way:
    /// `setup_s` from `victims`, `completed` attacks over `busy`, the timed
    /// phase's wall clock spent attacking, and the median and p90 of
    /// `latencies`.
    pub fn record_end_to_end(
        &mut self,
        victims: &Victims,
        latencies: &[f64],
        completed: usize,
        busy: Duration,
    ) {
        let r = &mut self.readings;
        match victims.setup_s() {
            Some(setup_s) => r.set("setup_s", setup_s),
            None => self
                .shortfalls
                .push("setup_s: no victim was rebuilt in the timed phase".to_string()),
        }
        r.set(
            "attacks_per_min",
            ratio(completed as f64 * 60.0, busy.as_secs_f64()),
        );
        if let Some(p50) = median(latencies) {
            r.set("attack_p50_s", p50);
        }
        match tail_percentile(latencies, 0.9) {
            Some(p90) => r.set("attack_p90_s", p90),
            None => self.shortfalls.push(format!(
                "attack_p90_s: {} latencies are too few for a p90 with {MIN_TAIL} beyond it",
                latencies.len()
            )),
        }
        r.set(
            "ok_ops_rate",
            ratio((self.attempted - self.failed) as f64, self.attempted as f64),
        );
        r.set("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    }
}

/// A key-recovery outcome as the fidelity metrics see it.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyOutcome {
    /// The recovered key.
    pub key: Key,
    /// Underlying oracle rows spent.
    pub queries: u64,
    /// Whether every layer passed validation.
    pub validated: bool,
}

impl KeyOutcome {
    /// The outcome a completed report records.
    pub fn of(report: &DecryptionReport) -> Self {
        KeyOutcome {
            key: report.key.clone(),
            queries: report.queries,
            validated: report.fully_validated(),
        }
    }
}

/// Records `queries`, `key_fidelity`, `exact_key_rate` and
/// `validated_exact_rate` over `outcomes`, each paired with its victim's
/// true key; `None` marks an attack that failed and recovered nothing.
pub fn record_keys<'a>(
    r: &mut Readings,
    outcomes: impl IntoIterator<Item = (Option<&'a KeyOutcome>, &'a Key)>,
) {
    let (mut n, mut done, mut queries, mut fidelity) = (0u64, 0u64, 0u64, 0.0);
    let (mut exact, mut validated, mut validated_exact) = (0u64, 0u64, 0u64);
    for (outcome, truth) in outcomes {
        n += 1;
        let Some(o) = outcome else { continue };
        let is_exact = o.key == *truth;
        done += 1;
        queries += o.queries;
        fidelity += o.key.fidelity(truth);
        exact += u64::from(is_exact);
        validated += u64::from(o.validated);
        validated_exact += u64::from(o.validated && is_exact);
    }
    r.set("queries", ratio(queries as f64, done as f64));
    r.set("key_fidelity", ratio(fidelity, n as f64));
    r.set("exact_key_rate", ratio(exact as f64, n as f64));
    r.set(
        "validated_exact_rate",
        ratio(validated_exact as f64, validated as f64),
    );
}

/// Mixes `(seed, stream, index)` into an independent 64-bit seed
/// (SplitMix64 finalizer), so every victim and attack seed of a run is a
/// pure function of the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed streams, one per kind of derived seed.
pub mod stream {
    /// Victim generation and training.
    pub const VICTIM: u64 = 1;
    /// Attack PRNG.
    pub const ATTACK: u64 = 2;
    /// Attack order and submission plan.
    pub const PLAN: u64 = 3;
}

/// Victim rebuilds an untraced run times for `setup_s` per `--seconds`
/// window, spread evenly over its timed phase.
pub const SETUP_SAMPLES: usize = 360;

/// The victims of a run, and the set-up time of rebuilding them.
#[derive(Debug)]
pub struct Victims {
    /// Trained, locked victims. Their datasets are dropped once trained:
    /// nothing after training reads them, and they are most of a victim's
    /// memory.
    pub models: Vec<LockedModel>,
    /// Wall clock of each victim's first `prepare` call.
    first: Vec<f64>,
    /// Wall clock of every timed rebuild.
    rebuilds: Vec<f64>,
    seed: u64,
    key_bits: Vec<usize>,
    bytes: Vec<Vec<u8>>,
}

impl Victims {
    /// Prepares fast-scale MLP victims with the given key sizes, victim
    /// `i` from the `i`-th derived seed of `seed`.
    pub fn mlp(seed: u64, key_bits: Vec<usize>) -> Self {
        let mut victims = Victims {
            models: Vec::new(),
            first: Vec::new(),
            rebuilds: Vec::new(),
            seed,
            key_bits,
            bytes: Vec::new(),
        };
        for i in 0..victims.key_bits.len() {
            let (model, wall, bytes) = victims.prepare(i);
            victims.first.push(wall);
            victims.bytes.push(bytes);
            victims.models.push(model);
        }
        victims
    }

    fn prepare(&self, i: usize) -> (LockedModel, f64, Vec<u8>) {
        let victim_seed = derive(self.seed, stream::VICTIM, i as u64);
        let start = Instant::now();
        let model = prepare(Arch::Mlp, self.key_bits[i], Scale::Fast, victim_seed).model;
        let wall = start.elapsed().as_secs_f64();
        let mut bytes = Vec::new();
        model
            .save(&mut bytes)
            .expect("serializing to a Vec cannot fail");
        (model, wall, bytes)
    }

    /// Whether a rebuild is due `elapsed` into a timed phase planned to
    /// last `window`: [`SETUP_SAMPLES`] rebuilds per window, evenly
    /// spaced, and on at the same pace if the phase runs longer.
    pub fn rebuild_due(&self, elapsed: Duration, window: Duration) -> bool {
        (self.rebuilds.len() as f64)
            < SETUP_SAMPLES as f64 * elapsed.as_secs_f64() / window.as_secs_f64()
    }

    /// Prepares the next victim in turn again and times it for `setup_s`.
    /// Returns a violation when the rebuild differs from the first build.
    pub fn rebuild(&mut self) -> Option<String> {
        let i = self.rebuilds.len() % self.models.len();
        let (_, wall, bytes) = self.prepare(i);
        self.rebuilds.push(wall);
        (bytes != self.bytes[i]).then(|| format!("victim {i} changed when prepared again"))
    }

    /// `setup_s`: the mean wall clock of the timed rebuilds, `None` when
    /// there were none. The rebuilds are spread over the timed phase, so
    /// the mean averages over the host's fast and slow spells as the
    /// attack latencies do, where a median would flip between them.
    pub fn setup_s(&self) -> Option<f64> {
        (!self.rebuilds.is_empty())
            .then(|| self.rebuilds.iter().sum::<f64>() / self.rebuilds.len() as f64)
    }

    /// Records `nn.train_s` (wall clock of preparing every victim once)
    /// and `nn.victims`.
    pub fn record(&self, r: &mut Readings) {
        r.set("nn.train_s", self.first.iter().sum());
        r.set("nn.victims", self.models.len() as f64);
    }
}

/// A hardware oracle: `inner` computes each answer, then the call holds
/// its thread for `per_row` per input row, the time a device would take to
/// evaluate the rows. It spins rather than sleeps, so the held time does
/// not depend on the host's load: a sleep overshoots by a varying amount.
#[derive(Debug)]
pub struct DeviceOracle<O> {
    inner: O,
    per_row: Duration,
}

impl<O: Oracle> DeviceOracle<O> {
    /// Wraps `inner`; a zero `per_row` adds nothing.
    pub fn new(inner: O, per_row: Duration) -> Self {
        DeviceOracle { inner, per_row }
    }

    fn held<T>(&self, x: &Tensor, call: impl FnOnce() -> T) -> T {
        let out = call();
        let until = Instant::now() + self.per_row * x.dims()[0] as u32;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        out
    }
}

impl<O: Oracle> Oracle for DeviceOracle<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.held(x, || self.inner.query_batch(x))
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        self.held(x, || self.inner.try_query_batch(x))
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

/// Runs one attack, turning an error or a panic into `None`.
pub fn guarded(
    attack: impl FnOnce() -> Result<DecryptionReport, AttackError>,
) -> Option<DecryptionReport> {
    catch_unwind(AssertUnwindSafe(attack)).ok()?.ok()
}

/// Runs each `(victim, attack seed)` twice — plainly through
/// `Decryptor::run`, and traced through a broker over a [`TimedOracle`]
/// with a [`TimedExecutor`] — alternating which goes first, and folds the
/// traced runs into a [`Ledger`]. `oracle` builds the backend for a victim
/// (the same for both arms), and both arms query it through a
/// [`DeviceOracle`] holding each call `per_row` per row. The
/// [`TimedOracle`] sits inside the device, so it times the backend alone.
/// The traced arm must reproduce the plain arm's key and query count bit
/// for bit; the returned outcomes are the traced arm's, `None` where
/// either arm failed.
pub fn replay<O: Oracle>(
    out: &mut Outcome,
    decryptor: &Decryptor,
    victims: &[LockedModel],
    attacks: &[(usize, u64)],
    oracle: impl Fn(&LockedModel) -> O,
    per_row: Duration,
) -> (Ledger, Vec<Option<KeyOutcome>>) {
    let mut ledger = Ledger::default();
    let mut outcomes = Vec::with_capacity(attacks.len());
    for (i, &(v, seed)) in attacks.iter().enumerate() {
        let model = &victims[v];
        let white_box = model.white_box();
        let plain = || {
            let backend = DeviceOracle::new(oracle(model), per_row);
            let start = Instant::now();
            let report =
                guarded(|| decryptor.run(white_box, &backend, &mut Prng::seed_from_u64(seed)));
            report.map(|r| (r, start.elapsed()))
        };
        let traced = || {
            let timed = TimedOracle::new(oracle(model));
            let device = DeviceOracle::new(&timed, per_row);
            let broker = Broker::with_config(
                &device,
                BrokerConfig {
                    max_queries: decryptor.config().query_budget,
                    ..BrokerConfig::default()
                },
            );
            let executor = TimedExecutor::default();
            let start = Instant::now();
            let report = guarded(|| {
                decryptor.run_brokered_with(
                    white_box,
                    &broker,
                    &mut Prng::seed_from_u64(seed),
                    &executor,
                )
            });
            report.map(|r| (r, start.elapsed(), timed.tally(), executor.tally()))
        };
        let (plain, traced) = if i % 2 == 0 {
            let p = plain();
            (p, traced())
        } else {
            let t = traced();
            (plain(), t)
        };
        out.attempted += 2;
        out.failed += u64::from(plain.is_none()) + u64::from(traced.is_none());
        let (Some((p, p_wall)), Some((t, t_wall, oracle_tally, exec_tally))) = (plain, traced)
        else {
            outcomes.push(None);
            continue;
        };
        let what = format!("traced attack {i}");
        out.check_report(&what, &t);
        if t.key != p.key || t.queries != p.queries {
            out.violations.push(format!(
                "{what}: traced run recovered a different key or spent {} queries, untraced {}",
                t.queries, p.queries
            ));
        }
        ledger.add(
            &t,
            model.true_key(),
            (t_wall, p_wall),
            oracle_tally,
            madds_per_row(white_box),
            exec_tally,
        );
        outcomes.push(Some(KeyOutcome::of(&t)));
    }
    out.violations.extend(ledger.violations());
    (ledger, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::CountingOracle;

    #[test]
    fn device_oracle_holds_each_row_and_answers_as_its_backend() {
        let model = prepare(Arch::Mlp, 8, Scale::Fast, 2).model;
        let device = DeviceOracle::new(CountingOracle::new(&model), Duration::from_millis(2));
        let x = Prng::seed_from_u64(3).normal_tensor([5, 48]);
        let start = Instant::now();
        let y = device.query_batch(&x);
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(y, CountingOracle::new(&model).query_batch(&x));
        assert_eq!(device.query_count(), 5);
    }
}
