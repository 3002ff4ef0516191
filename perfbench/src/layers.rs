//! Outside-in instruments for the per-layer ledger.
//!
//! Nothing here reaches inside the program: [`TimedOracle`] and
//! [`TimedExecutor`] wrap the public `Oracle` and `PhaseExecutor` traits,
//! [`madds_per_row`] reads the public graph, and [`Ledger`] folds in the
//! reports the attack already returns.

use crate::metrics::{ratio, Readings};
use relock_attack::{
    AttackConfig, DecryptionReport, InferredBits, LocalExecutor, PhaseExecutor, Procedure,
    QueryStatsSnapshot, ValidationTarget, ValidationVerdict,
};
use relock_graph::{Graph, KeyAssignment, KeySlot, LockSite, Op};
use relock_locking::{Key, Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Multiply-adds of one forward row through `g`, counting the `Linear`
/// (`out · in`) and `Conv2d` (`out_c · patch · positions`) layers — the
/// gemm work the oracle does per queried row.
pub fn madds_per_row(g: &Graph) -> u64 {
    g.nodes()
        .iter()
        .map(|n| match &n.op {
            Op::Linear { w, .. } => (w.dims()[0] * w.dims()[1]) as u64,
            Op::Conv2d { w, geom, .. } => (w.dims()[0] * w.dims()[1] * geom.out_positions()) as u64,
            _ => 0,
        })
        .sum()
}

/// What a [`TimedOracle`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleTally {
    /// Batch calls that reached the oracle.
    pub calls: u64,
    /// Input rows in those calls.
    pub rows: u64,
    /// Wall clock spent inside them, summed over calling threads.
    pub busy: Duration,
}

/// An [`Oracle`] that counts and times the calls reaching `inner`.
#[derive(Debug)]
pub struct TimedOracle<O> {
    inner: O,
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

impl<O: Oracle> TimedOracle<O> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: O) -> Self {
        TimedOracle {
            inner,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The counters so far. Read after the attack returned: its worker
    /// threads are joined by then, which orders their updates before this.
    pub fn tally(&self) -> OracleTally {
        OracleTally {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
        }
    }

    fn timed<T>(&self, x: &Tensor, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(x.dims()[0] as u64, Ordering::Relaxed);
        out
    }
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.timed(x, || self.inner.query_batch(x))
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        self.timed(x, || self.inner.try_query_batch(x))
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

/// What a [`TimedExecutor`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTally {
    /// Sites handed to Algorithm 1.
    pub infer_sites: u64,
    /// Wall clock of the inference phases.
    pub infer: Duration,
    /// Correction waves validated.
    pub waves: u64,
    /// Candidates in those waves.
    pub wave_candidates: u64,
    /// Candidates whose verdict was `Pass`.
    pub wave_passes: u64,
    /// Candidates whose validation failed with an oracle error.
    pub errors: u64,
}

/// A [`PhaseExecutor`] that runs the sharded phases on a [`LocalExecutor`]
/// and tallies them.
#[derive(Debug, Default)]
pub struct TimedExecutor {
    inner: LocalExecutor,
    tally: Mutex<ExecTally>,
}

impl TimedExecutor {
    /// The tallies so far.
    pub fn tally(&self) -> ExecTally {
        *self.tally.lock().expect("executor tally poisoned")
    }

    fn record(&self, f: impl FnOnce(&mut ExecTally)) {
        f(&mut self.tally.lock().expect("executor tally poisoned"));
    }
}

impl PhaseExecutor for TimedExecutor {
    fn infer_sites(
        &self,
        g: &Graph,
        ka: &KeyAssignment,
        sites: &[LockSite],
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
        rngs: &[Prng],
    ) -> InferredBits {
        let start = Instant::now();
        let out = self.inner.infer_sites(g, ka, sites, oracle, cfg, rngs);
        let took = start.elapsed();
        self.record(|t| {
            t.infer_sites += sites.len() as u64;
            t.infer += took;
        });
        out
    }

    fn validate_wave(
        &self,
        g: &Graph,
        base: &KeyAssignment,
        layer_slots: &[KeySlot],
        wave: &[Vec<usize>],
        target: Option<&ValidationTarget>,
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
        rngs: &[Prng],
    ) -> Vec<Result<ValidationVerdict, OracleError>> {
        let out = self
            .inner
            .validate_wave(g, base, layer_slots, wave, target, oracle, cfg, rngs);
        self.record(|t| {
            t.waves += 1;
            t.wave_candidates += wave.len() as u64;
            for verdict in &out {
                match verdict {
                    Ok(ValidationVerdict::Pass) => t.wave_passes += 1,
                    Ok(_) => {}
                    Err(_) => t.errors += 1,
                }
            }
        });
        out
    }
}

/// Relative slack allowed when checking that the per-procedure self times
/// fit inside the traced wall clock they partition.
pub const PARTITION_TOLERANCE: f64 = 0.01;

/// Per-layer totals over the traced attacks of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Wall clock of the traced `Decryptor` calls.
    traced_wall: Duration,
    /// Wall clock of the same attacks run untraced.
    untraced_wall: Duration,
    timing: [Duration; 4],
    stats: QueryStatsSnapshot,
    max_cache_bytes: u64,
    bits: [u64; 3],
    validation_rounds: u64,
    layers_unvalidated: u64,
    false_accepts: u64,
    oracle: OracleTally,
    madds: u64,
    exec: ExecTally,
}

impl Ledger {
    /// Folds in one traced attack: its report, its wall clock, the
    /// untraced twin's wall clock, and what the wrappers saw.
    pub fn add(
        &mut self,
        report: &DecryptionReport,
        true_key: &Key,
        walls: (Duration, Duration),
        oracle: OracleTally,
        madds_per_row: u64,
        exec: ExecTally,
    ) {
        self.traced_wall += walls.0;
        self.untraced_wall += walls.1;
        for (slot, p) in self.timing.iter_mut().zip(Procedure::ALL) {
            *slot += report.timing.of(p);
        }
        self.stats.merge(&report.stats);
        self.max_cache_bytes = self.max_cache_bytes.max(report.stats.cache_bytes);
        for l in &report.layers {
            self.bits[0] += l.algebraic as u64;
            self.bits[1] += l.learned as u64;
            self.bits[2] += l.corrected as u64;
            self.validation_rounds += l.validation_rounds as u64;
            self.layers_unvalidated += u64::from(!l.validated);
        }
        self.false_accepts += u64::from(report.fully_validated() && report.key != *true_key);
        self.oracle.calls += oracle.calls;
        self.oracle.rows += oracle.rows;
        self.oracle.busy += oracle.busy;
        self.madds += oracle.rows * madds_per_row;
        self.exec.infer_sites += exec.infer_sites;
        self.exec.infer += exec.infer;
        self.exec.waves += exec.waves;
        self.exec.wave_candidates += exec.wave_candidates;
        self.exec.wave_passes += exec.wave_passes;
        self.exec.errors += exec.errors;
    }

    /// Checks that the self times partition the traced wall: the four
    /// procedures and the executor's share of them fit inside it within
    /// [`PARTITION_TOLERANCE`], and the oracle saw every underlying row.
    pub fn violations(&self) -> Vec<String> {
        let wall = self.traced_wall.as_secs_f64();
        let slack = wall * PARTITION_TOLERANCE;
        let procedures: f64 = self.timing.iter().map(Duration::as_secs_f64).sum();
        let mut out = Vec::new();
        if procedures > wall + slack {
            out.push(format!(
                "procedure self times {procedures:.6}s exceed the traced wall {wall:.6}s"
            ));
        }
        let inference = self.timing[0].as_secs_f64();
        if self.exec.infer.as_secs_f64() > inference + slack {
            out.push(format!(
                "executor inference {:.6}s exceeds the inference procedure {inference:.6}s",
                self.exec.infer.as_secs_f64()
            ));
        }
        if self.oracle.rows != self.stats.underlying {
            out.push(format!(
                "oracle saw {} rows but the broker booked {} underlying",
                self.oracle.rows, self.stats.underlying
            ));
        }
        out
    }

    /// Records the attack-side per-layer metrics.
    pub fn record(&self, r: &mut Readings) {
        let busy = self.oracle.busy.as_secs_f64();
        let wall = self.traced_wall.as_secs_f64();
        let t = |i: usize| self.timing[i].as_secs_f64();
        r.set("locking.oracle.calls", self.oracle.calls as f64);
        r.set("locking.oracle.rows", self.oracle.rows as f64);
        r.set("locking.oracle.busy_s", busy);
        r.set(
            "locking.oracle.us_per_row",
            ratio(busy * 1e6, self.oracle.rows as f64),
        );
        r.set("tensor.oracle_madds", self.madds as f64);
        r.set(
            "tensor.oracle_madd_per_ns",
            ratio(self.madds as f64, busy * 1e9),
        );
        r.set("serve.broker.batches", self.stats.batches as f64);
        r.set("serve.broker.rows_per_batch", self.stats.mean_batch_rows());
        r.set("serve.broker.retries", self.stats.retries as f64);
        for (name, p) in UNDERLYING.into_iter().zip(Procedure::ALL) {
            let rows = self
                .stats
                .per_scope
                .iter()
                .find(|(label, _)| label == p.label())
                .map_or(0, |(_, c)| c.underlying);
            r.set(name, rows as f64);
        }
        r.set("attack.key_bit_inference_s", t(0));
        r.set("attack.learning_attack_s", t(1));
        r.set("attack.key_vector_validation_s", t(2));
        r.set("attack.driver_s", wall - (0..4).map(t).sum::<f64>());
        r.set("attack.bits_algebraic", self.bits[0] as f64);
        r.set("attack.bits_learned", self.bits[1] as f64);
        r.set("attack.bits_corrected", self.bits[2] as f64);
        r.set("attack.validation_rounds", self.validation_rounds as f64);
        r.set("attack.layers_unvalidated", self.layers_unvalidated as f64);
        r.set(
            "attack.algebraic_yield",
            ratio(self.bits[0] as f64, self.exec.infer_sites as f64),
        );
        r.set("attack.false_accepts", self.false_accepts as f64);
        r.set("attack.executor.infer_sites", self.exec.infer_sites as f64);
        r.set("attack.executor.infer_s", self.exec.infer.as_secs_f64());
        r.set("attack.executor.waves", self.exec.waves as f64);
        r.set(
            "attack.executor.wave_candidates",
            self.exec.wave_candidates as f64,
        );
        r.set(
            "attack.executor.wave_pass_ratio",
            ratio(
                self.exec.wave_passes as f64,
                self.exec.wave_candidates as f64,
            ),
        );
        r.set("attack.executor.errors", self.exec.errors as f64);
        r.set(
            "bench.traced_overhead_pct",
            100.0
                * ratio(
                    wall - self.untraced_wall.as_secs_f64(),
                    self.untraced_wall.as_secs_f64(),
                ),
        );
    }

    /// Records the broker and cache metrics from the traced attacks' own
    /// brokers (workloads without a shared cache).
    pub fn record_broker(&self, r: &mut Readings) {
        r.set("serve.broker.requested", self.stats.requested as f64);
        r.set("serve.broker.cache_hits", self.stats.cache_hits as f64);
        r.set("serve.broker.hit_rate", self.stats.cache_hit_rate());
        r.set("serve.cache.evictions", self.stats.cache_evictions as f64);
        r.set("serve.cache.resident_bytes", self.max_cache_bytes as f64);
    }
}

/// Per-layer names of the broker's underlying rows per procedure, in
/// [`Procedure::ALL`] order.
const UNDERLYING: [&str; 4] = [
    "serve.broker.underlying.key_bit_inference",
    "serve.broker.underlying.learning_attack",
    "serve.broker.underlying.key_vector_validation",
    "serve.broker.underlying.error_correction",
];

#[cfg(test)]
mod tests {
    use super::*;
    use relock_bench::{prepare, Arch, Scale};

    #[test]
    fn madds_match_hand_counts_of_the_fast_victims() {
        // Fast MLP: 48 → 32 → 16 → 10.
        let mlp = prepare(Arch::Mlp, 8, Scale::Fast, 1);
        assert_eq!(
            madds_per_row(mlp.model.white_box()),
            48 * 32 + 32 * 16 + 16 * 10
        );
        // Fast LeNet on 1×12×12: conv1 6 maps of 5×5 patches at 12×12
        // positions (pad 2), pool to 6×6, conv2 10 maps of 6·5·5 patches
        // at 2×2 positions, pool to 1×1, then 10 → 24 → 16 → 10.
        let lenet = prepare(Arch::Lenet, 8, Scale::Fast, 1);
        assert_eq!(
            madds_per_row(lenet.model.white_box()),
            6 * 25 * 144 + 10 * 150 * 4 + 10 * 24 + 24 * 16 + 16 * 10
        );
    }

    #[test]
    fn timed_oracle_counts_rows_and_calls_once() {
        let p = prepare(Arch::Mlp, 8, Scale::Fast, 2);
        let timed = TimedOracle::new(relock_locking::CountingOracle::new(&p.model));
        let x = Prng::seed_from_u64(3).normal_tensor([5, 48]);
        let y = timed.query_batch(&x);
        let _ = timed.try_query(&Tensor::from_slice(x.row(0))).unwrap();
        assert_eq!(y.dims(), &[5, 10]);
        let t = timed.tally();
        assert_eq!((t.calls, t.rows), (2, 6));
        assert_eq!(timed.query_count(), 6);
    }
}
