//! Shared conformance-test harness.
//!
//! The differential suites — `parallel_equiv` (thread sweep),
//! `variant_matrix` (lock-variant × attack matrix), `chaos_soak` and
//! `trace_equiv` — all compare complete attack runs on the same
//! observables: recovered key, underlying query count, broker accounting,
//! and every checkpoint frame byte-for-byte with wall-clock fields zeroed.
//! This module is their single source of victims, sinks, normalizers, and
//! assertions; it is compiled into the library so the integration tests
//! reuse it instead of copy-pasting.
//!
//! Not part of the public API — hidden from docs and exempt from semver.

use crate::checkpoint::{AttackState, CheckpointSink};
use crate::config::AttackConfig;
use crate::decrypt::{DecryptionReport, Decryptor};
use relock_graph::LockSite;
use relock_locking::{CountingOracle, LockSpec, LockVariant, LockedModel, Oracle, OracleError};
use relock_nn::{build_lenet, build_mlp, LenetSpec, MlpSpec};
use relock_serve::{Broker, BrokerConfig, QueryStatsSnapshot};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;
use std::time::Duration;

/// The 16-bit two-hidden-layer MLP victim used across the equivalence
/// suites (seed 700).
pub fn mlp16_victim() -> LockedModel {
    variant_victim(LockVariant::Sign, 16, 700)
}

/// The small LeNet victim used across the equivalence suites (seed 510).
pub fn lenet_victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(510);
    build_lenet(
        &LenetSpec {
            in_channels: 1,
            h: 12,
            w: 12,
            c1: 3,
            c2: 4,
            fc1: 10,
            fc2: 8,
            classes: 4,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .unwrap()
}

/// An MLP victim of the standard equivalence geometry (12 → 10 → 6 → 3)
/// locked with an arbitrary variant — the matrix suite's victim factory.
pub fn variant_victim(variant: LockVariant, bits: usize, seed: u64) -> LockedModel {
    let mut rng = Prng::seed_from_u64(seed);
    build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        },
        LockSpec::with_variant(bits, variant),
        &mut rng,
    )
    .unwrap()
}

/// A sink that records *every* frame the engine persists, not just the
/// last — the sweeps compare whole checkpoint histories, so a divergence
/// at any phase cut is caught even if the final states agree.
#[derive(Default)]
pub struct RecordingSink {
    frames: Mutex<Vec<Vec<u8>>>,
}

impl RecordingSink {
    /// All frames persisted so far, in order.
    pub fn frames(&self) -> Vec<Vec<u8>> {
        self.frames.lock().expect("sink poisoned").clone()
    }
}

impl CheckpointSink for RecordingSink {
    fn save(&self, bytes: &[u8]) -> io::Result<()> {
        self.frames
            .lock()
            .expect("sink poisoned")
            .push(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.frames.lock().expect("sink poisoned").last().cloned())
    }
}

/// Re-encodes a frame with its wall-clock fields zeroed. Everything else —
/// PRNG state, key bits, phase cut, query accounting — must already be
/// deterministic, so the normalized frames are compared byte-for-byte.
pub fn normalize_frame(frame: &[u8]) -> Vec<u8> {
    let mut st = AttackState::decode(frame).expect("engine wrote an undecodable frame");
    st.timing_nanos = [0; 4];
    st.stats.oracle_time = Duration::ZERO;
    st.encode()
}

/// A stats snapshot with its wall-clock field zeroed, for equality checks.
pub fn strip_clock(stats: &QueryStatsSnapshot) -> QueryStatsSnapshot {
    let mut s = stats.clone();
    s.oracle_time = Duration::ZERO;
    s
}

/// One complete attack run: the report plus every normalized checkpoint
/// frame.
pub struct RunTrace {
    /// The decryption report.
    pub report: DecryptionReport,
    /// Normalized checkpoint frames in persistence order.
    pub frames: Vec<Vec<u8>>,
}

/// Runs the attack in-process at the given thread count with an
/// every-cut recording sink.
pub fn run_threads(
    model: &LockedModel,
    mut cfg: AttackConfig,
    threads: usize,
    attack_seed: u64,
) -> RunTrace {
    cfg.threads = threads;
    let oracle = CountingOracle::new(model);
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let sink = RecordingSink::default();
    let (report, status) = Decryptor::new(cfg)
        .resume(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(attack_seed),
            &sink,
        )
        .unwrap();
    assert!(!status.resumed(), "empty sink must start fresh");
    RunTrace {
        report,
        frames: sink.frames().iter().map(|f| normalize_frame(f)).collect(),
    }
}

/// The sequential reference every multi-threaded run is held to.
pub fn sequential_run(model: &LockedModel, cfg: &AttackConfig, attack_seed: u64) -> RunTrace {
    run_threads(model, *cfg, 1, attack_seed)
}

/// Asserts every observable the engine promises to keep stable.
pub fn assert_traces_match(t: &RunTrace, reference: &RunTrace, ctx: &str) {
    assert_eq!(
        t.report.key, reference.report.key,
        "{ctx}: recovered key diverged"
    );
    assert_eq!(
        t.report.queries, reference.report.queries,
        "{ctx}: underlying query count diverged"
    );
    assert_eq!(
        strip_clock(&t.report.stats),
        strip_clock(&reference.report.stats),
        "{ctx}: broker accounting diverged"
    );
    assert_eq!(
        t.frames.len(),
        reference.frames.len(),
        "{ctx}: checkpoint cadence diverged"
    );
    for (i, (p, r)) in t.frames.iter().zip(&reference.frames).enumerate() {
        assert_eq!(
            p,
            r,
            "{ctx}: checkpoint frame {i} of {} is not byte-identical",
            reference.frames.len()
        );
    }
}

/// One oracle call as its rows' bit patterns.
pub type Call = Vec<Vec<u64>>;

/// An oracle that records every call it answers — the round-contract
/// suites (`infer_rounds`, `validation_rounds`) compare these calls with a
/// one-at-a-time reference.
pub struct Recorder {
    inner: CountingOracle,
    calls: Mutex<Vec<Call>>,
}

impl Recorder {
    pub fn new(model: &LockedModel) -> Self {
        Recorder {
            inner: CountingOracle::new(model),
            calls: Mutex::new(Vec::new()),
        }
    }

    pub fn calls(&self) -> Vec<Call> {
        self.calls.lock().unwrap().clone()
    }
}

impl Oracle for Recorder {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        let p = x.dims()[1];
        let rows = x
            .as_slice()
            .chunks(p)
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        self.calls.lock().unwrap().push(rows);
        self.inner.query_batch(x)
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        Ok(self.query_batch(x))
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

/// Every row of every call, counted.
pub fn row_multiset(calls: &[Call]) -> BTreeMap<Vec<u64>, usize> {
    let mut rows = BTreeMap::new();
    for row in calls.iter().flatten() {
        *rows.entry(row.clone()).or_insert(0) += 1;
    }
    rows
}

/// The sites of each locked layer, in canonical order.
pub fn layers(model: &LockedModel) -> Vec<Vec<LockSite>> {
    let mut out: Vec<Vec<LockSite>> = Vec::new();
    for site in model.white_box().lock_sites() {
        match out.last_mut() {
            Some(l) if l[0].keyed_node == site.keyed_node => l.push(site),
            _ => out.push(vec![site]),
        }
    }
    out
}
