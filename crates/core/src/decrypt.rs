//! The DNN decryption algorithm (paper §3.8, Algorithm 2).
//!
//! Layer by layer (in topological order), the decryptor:
//!
//! 1. attempts the cheap algebraic Algorithm 1 on every protected unit
//!    (§3.3), in lock-step [`infer_rounds`] that send one oracle batch per
//!    round;
//! 2. runs the [`learning_attack`] on the ⊥ remainder (§3.6) — jointly over
//!    all not-yet-committed bits, warm-started across layers, committing
//!    only the current layer;
//! 3. validates the layer's key vector (§3.7) and, on failure, searches
//!    confidence-ordered bit flips until validation passes (§3.8's
//!    `error_correction`).
//!
//! Theorem 4's argument carries over: each correction round eliminates one
//! assignment, and a committed layer has passed the rigorous validation.

use crate::checkpoint::{
    AttackState, CheckpointError, CheckpointSink, LayerReportState, PhaseCut, ResumeStatus,
    SerialTarget,
};
use crate::config::AttackConfig;
use crate::correct::{correction_plan, EXHAUSTIVE_BITS};
use crate::error::AttackError;
use crate::infer::{infer_rounds, site_probe_with, InferredBits, SiteCursor};
use crate::learning::{
    learning_attack, multipliers_from_pairs, multipliers_to_pairs, LearnedMultipliers,
};
use crate::telemetry::{Procedure, QueryStatsSnapshot, TimingBreakdown};
use crate::validate::{key_vector_validation_checked_with, ValidationTarget, ValidationVerdict};
use relock_graph::{Graph, KeyAssignment, KeySlot, LockSite, NodeId, Workspace, WorkspacePool};
use relock_locking::{Key, Oracle, OracleError};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;
use relock_trace::FlightRecorder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Per-layer attack statistics.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// The keyed node implementing this layer's flipping units.
    pub keyed_node: NodeId,
    /// Number of key bits in the layer.
    pub bits: usize,
    /// Bits resolved by the algebraic Algorithm 1.
    pub algebraic: usize,
    /// Bits resolved by the learning attack.
    pub learned: usize,
    /// Validation rounds run (1 = passed immediately).
    pub validation_rounds: usize,
    /// Bits repaired by error correction.
    pub corrected: usize,
    /// Whether the committed key vector passed validation. Always `true`
    /// unless [`AttackConfig::continue_on_failure`] let the run proceed
    /// past an exhausted correction budget.
    pub validated: bool,
}

/// The outcome of a full decryption run.
#[derive(Debug, Clone)]
pub struct DecryptionReport {
    /// The recovered key.
    pub key: Key,
    /// Wall-clock breakdown over the four procedures (Figure 3).
    pub timing: TimingBreakdown,
    /// Underlying oracle queries spent by this run (Table 1's
    /// query-complexity column). Cache hits inside the query broker are
    /// free and not counted here.
    pub queries: u64,
    /// Broker metrics of the run: per-procedure query accounting, cache
    /// hit rate, batch-size histogram, backend latency. Cumulative over
    /// the broker's lifetime when a caller reuses one across runs.
    pub stats: QueryStatsSnapshot,
    /// Per-layer statistics in processing order.
    pub layers: Vec<LayerReport>,
}

impl DecryptionReport {
    /// Fraction of key bits matching the reference key (Table 1's fidelity
    /// metric).
    ///
    /// # Panics
    ///
    /// Panics if the key lengths differ.
    pub fn fidelity(&self, reference: &Key) -> f64 {
        self.key.fidelity(reference)
    }

    /// Whether every layer's key vector passed validation.
    pub fn fully_validated(&self) -> bool {
        self.layers.iter().all(|l| l.validated)
    }
}

/// The outcome of one pausable attack *segment* (see
/// [`Decryptor::resume_session`]).
#[derive(Debug)]
pub enum SessionOutcome {
    /// The segment ran the attack to completion.
    Completed(DecryptionReport),
    /// The pause flag was observed at a checkpoint cut. The sink holds the
    /// RLCP frame of exactly that cut; a later `resume_session` (in this
    /// process or another) continues bit-identically.
    Paused(PausedSession),
}

/// Where a paused segment stopped. The authoritative state is the RLCP
/// frame in the checkpoint sink; this summary exists for status reporting.
#[derive(Debug, Clone)]
pub struct PausedSession {
    /// Index of the locked layer the cut belongs to.
    pub layer: usize,
    /// Stable phase name of the cut (see `PhaseCut::phase_name`).
    pub phase: &'static str,
    /// Underlying oracle queries spent by the whole session so far
    /// (pre-pause segments included).
    pub queries: u64,
    /// Merged broker accounting of the whole session so far.
    pub stats: QueryStatsSnapshot,
}

/// Executes the *sharded* phases of Algorithm 2 — per-site algebraic
/// inference and correction-wave validation — on behalf of the driver.
///
/// The driver owns everything that makes the run deterministic: it forks
/// one PRNG stream per item in canonical order *before* calling the
/// executor, and it interprets the returned vectors in canonical item
/// order. An executor is therefore free to schedule items however it
/// likes as long as item `i` consumes exactly `rngs[i]` and lands its
/// result in position `i` — the contract `run_sharded` honours for
/// [`LocalExecutor`] (DESIGN.md §3e). The trait exists so a caller can
/// wrap [`LocalExecutor`], for instance to time the sharded phases, and
/// hand the wrapper to [`Decryptor::run_brokered_with`].
///
/// Serial phases (learning attack, layer validation, target selection)
/// never go through the executor; they stay on the driver's thread.
pub trait PhaseExecutor: Sync {
    /// Runs Algorithm 1 on every site of a layer and returns the bits in
    /// site order. Site `i` starts from a clone of `rngs[i]`. The oracle
    /// sees one batch per lock-step round in canonical site order; broker
    /// batches and the batch-size histogram are part of the asserted
    /// books, so a wrapper must delegate to [`LocalExecutor`] rather than
    /// query the oracle itself.
    fn infer_sites(
        &self,
        g: &Graph,
        ka: &KeyAssignment,
        sites: &[LockSite],
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
        rngs: &[Prng],
    ) -> InferredBits;

    /// Validates one §3.8 correction wave. Item `i` must flip `wave[i]`'s
    /// bits on a **clone** of `base` (the base assignment is never
    /// mutated) and validate on a clone of `rngs[i]`; the verdict vector
    /// must be in candidate order.
    #[allow(clippy::too_many_arguments)]
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
    ) -> Vec<Result<ValidationVerdict, OracleError>>;
}

/// The thread-pool [`PhaseExecutor`]: shards items across
/// `AttackConfig::threads` scoped threads pulling from a shared atomic
/// counter (see `run_sharded`). Every entry point without an explicit
/// executor uses it.
#[derive(Debug, Default)]
pub struct LocalExecutor {
    pool: WorkspacePool,
}

impl LocalExecutor {
    /// Creates an executor with an empty workspace pool. Workspaces are
    /// created on demand and reused across phases and layers.
    pub fn new() -> Self {
        LocalExecutor {
            pool: WorkspacePool::new(),
        }
    }
}

impl PhaseExecutor for LocalExecutor {
    /// **Determinism contract (DESIGN.md §3e):** the driver forked one
    /// PRNG stream per site in canonical site order, so each site's
    /// search consumes its own stream, independent of scheduling. Each
    /// round's white-box half is sharded across the threads; its probes
    /// merge back in canonical site order and go to the oracle as one
    /// batch. The sequential and parallel paths are therefore
    /// bit-identical, broker batches included.
    fn infer_sites(
        &self,
        g: &Graph,
        ka: &KeyAssignment,
        sites: &[LockSite],
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
        rngs: &[Prng],
    ) -> InferredBits {
        let mut cursors: Vec<SiteCursor> = rngs
            .iter()
            .map(|r| SiteCursor::new(r.clone(), cfg))
            .collect();
        infer_rounds(sites, &mut cursors, oracle, cfg, |round| {
            run_sharded(&self.pool, cfg.threads, round.len(), |j, ws| {
                let (i, cursor) = &round[j];
                let mut cursor = cursor.clone();
                let probe = site_probe_with(g, ws, ka, &sites[*i], cfg, &mut cursor);
                (probe, cursor)
            })
        })
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
        run_sharded(&self.pool, cfg.threads, wave.len(), |i, ws| {
            let mut trial = base.clone();
            for &flip in &wave[i] {
                let s = layer_slots[flip];
                let cur = trial.to_bits()[s.index()];
                trial.set_bit(s, !cur);
            }
            let mut cand_rng = rngs[i].clone();
            key_vector_validation_checked_with(g, ws, &trial, target, oracle, cfg, &mut cand_rng)
        })
    }
}

/// The DNN decryption attack (Algorithm 2).
#[derive(Debug, Clone)]
pub struct Decryptor {
    cfg: AttackConfig,
}

impl Decryptor {
    /// Creates a decryptor with the given configuration.
    pub fn new(cfg: AttackConfig) -> Self {
        Decryptor { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AttackConfig {
        &self.cfg
    }

    /// Runs the full attack against `oracle` using the public `white_box`
    /// network description.
    ///
    /// All oracle traffic is routed through a fresh `relock-serve`
    /// [`Broker`]: responses are memoized (repeat probes are free),
    /// [`AttackConfig::query_budget`] is enforced, and the returned
    /// report carries the broker's query-accounting snapshot. To share a
    /// broker (and its cache/budget) across runs, to configure retries,
    /// or to record the run into a flight recorder, use
    /// [`Decryptor::run_brokered`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::OracleMismatch`] on dimension mismatch and
    /// [`AttackError::CorrectionExhausted`] if some layer cannot be made to
    /// pass validation within the configured Hamming budget.
    pub fn run(
        &self,
        white_box: &Graph,
        oracle: &dyn Oracle,
        rng: &mut Prng,
    ) -> Result<DecryptionReport, AttackError> {
        let broker = Broker::with_config(
            oracle,
            BrokerConfig {
                max_queries: self.cfg.query_budget,
                ..BrokerConfig::default()
            },
        );
        self.run_brokered(white_box, &broker, rng)
    }

    /// Runs the full attack through a caller-supplied [`Broker`].
    ///
    /// Procedure scopes are tagged on the broker, so its snapshot breaks
    /// query counts down by `key_bit_inference` / `learning_attack` /
    /// `key_vector_validation` / `error_correction`. When the broker
    /// carries a recorder ([`Broker::with_trace`]), the run records its
    /// `attack.layer` and `attack.wave` spans and `checkpoint.write`
    /// counters there too. If the broker's budget runs out mid-attack,
    /// the run **degrades** rather than fails: unprobeable layers commit
    /// their learned candidates with `validated = false` in the
    /// [`LayerReport`].
    ///
    /// # Errors
    ///
    /// Same as [`Decryptor::run`].
    pub fn run_brokered<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
    ) -> Result<DecryptionReport, AttackError> {
        Self::completed(self.drive(white_box, broker, rng, None, None, None, None)?)
    }

    /// Runs the attack like [`Decryptor::run_brokered`], delegating the
    /// sharded phases (per-site inference, correction waves) to a
    /// caller-supplied [`PhaseExecutor`], such as a wrapper that times a
    /// [`LocalExecutor`]. The determinism contract guarantees the result
    /// is bit-identical to [`Decryptor::run_brokered`] for any conforming
    /// executor.
    ///
    /// # Errors
    ///
    /// Same as [`Decryptor::run`].
    pub fn run_brokered_with<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
        executor: &dyn PhaseExecutor,
    ) -> Result<DecryptionReport, AttackError> {
        Self::completed(self.drive(white_box, broker, rng, None, None, None, Some(executor))?)
    }

    /// Unwraps a [`SessionOutcome`] from a drive that was given no pause
    /// flag and therefore cannot have paused.
    fn completed(outcome: SessionOutcome) -> Result<DecryptionReport, AttackError> {
        match outcome {
            SessionOutcome::Completed(report) => Ok(report),
            SessionOutcome::Paused(_) => unreachable!("no pause flag was supplied"),
        }
    }

    /// Runs the attack like [`Decryptor::run_brokered`], persisting a
    /// crash-consistent [`AttackState`] snapshot through `sink` at every
    /// phase cut. A run killed at any point — even mid-layer — can be
    /// continued with [`Decryptor::resume`].
    ///
    /// # Errors
    ///
    /// Same as [`Decryptor::run`], plus [`AttackError::Checkpoint`] when
    /// the sink refuses a write.
    pub fn run_with_checkpoints<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
        sink: &dyn CheckpointSink,
    ) -> Result<DecryptionReport, AttackError> {
        Self::completed(self.drive(white_box, broker, rng, None, Some(sink), None, None)?)
    }

    /// Continues a checkpointed run, or starts fresh when the sink holds
    /// no usable checkpoint.
    ///
    /// An unusable checkpoint — corrupt bytes, a truncated file, a
    /// format-version mismatch, or a snapshot that does not fit
    /// `white_box` — **never** fails the call: the run falls back to a
    /// fresh start and reports why in [`ResumeStatus::FellBack`].
    ///
    /// Bit-identical continuation (same key and per-layer decisions as the
    /// uninterrupted run) requires replaying the same inputs the original
    /// segment saw: the same `white_box` and [`AttackConfig`], a
    /// deterministic oracle, and a fresh broker per segment (the snapshot
    /// already carries the pre-crash accounting, which is merged back into
    /// the final report). `rng` is overwritten from the checkpoint on
    /// restore, so the random stream continues exactly where the cut was
    /// taken.
    ///
    /// # Errors
    ///
    /// Same as [`Decryptor::run_with_checkpoints`].
    pub fn resume<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
        sink: &dyn CheckpointSink,
    ) -> Result<(DecryptionReport, ResumeStatus), AttackError> {
        let (state, status) = Self::load_state(sink, white_box);
        let report =
            Self::completed(self.drive(white_box, broker, rng, state, Some(sink), None, None)?)?;
        Ok((report, status))
    }

    /// Like [`Decryptor::resume`], but pausable: the driver polls `pause`
    /// at every checkpoint cut (post-inference, post-learning, correction
    /// wave boundaries, layer commits) and, once it reads `true`, forces
    /// the cut's RLCP frame into the sink and returns
    /// [`SessionOutcome::Paused`] without issuing further oracle traffic.
    ///
    /// Pause latency is therefore one attack phase at worst, and pausing
    /// never perturbs the result: the poll consumes neither the PRNG nor
    /// the oracle, so a paused-and-resumed session recovers a key
    /// bit-identical to the uninterrupted run (the campaign soak asserts
    /// this). Each segment needs a fresh broker, like [`Decryptor::resume`].
    ///
    /// # Errors
    ///
    /// Same as [`Decryptor::resume`].
    pub fn resume_session<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
        sink: &dyn CheckpointSink,
        pause: &AtomicBool,
    ) -> Result<(SessionOutcome, ResumeStatus), AttackError> {
        let (state, status) = Self::load_state(sink, white_box);
        let outcome = self.drive(white_box, broker, rng, state, Some(sink), Some(pause), None)?;
        Ok((outcome, status))
    }

    /// Loads and validates the sink's checkpoint; unusable frames fall
    /// back to a fresh start (see [`Decryptor::resume`]).
    fn load_state(
        sink: &dyn CheckpointSink,
        white_box: &Graph,
    ) -> (Option<AttackState>, ResumeStatus) {
        let loaded: Result<Option<AttackState>, String> = match sink.load() {
            Err(e) => Err(format!("checkpoint sink load failed: {e}")),
            Ok(None) => Ok(None),
            Ok(Some(bytes)) => AttackState::decode(&bytes)
                .and_then(|state| {
                    Self::check_compat(&state, white_box)?;
                    Ok(state)
                })
                .map(Some)
                .map_err(|e| e.to_string()),
        };
        match loaded {
            Ok(None) => (None, ResumeStatus::Fresh),
            Ok(Some(state)) => {
                let status = ResumeStatus::Resumed {
                    layer: state.layer_index,
                    phase: state.phase_name(),
                };
                (Some(state), status)
            }
            Err(reason) => (None, ResumeStatus::FellBack { reason }),
        }
    }

    /// Structural fit of a snapshot against the graph it would resume.
    fn check_compat(state: &AttackState, g: &Graph) -> Result<(), CheckpointError> {
        let n_slots = g.key_slot_count();
        if state.n_slots != n_slots {
            return Err(CheckpointError::Incompatible(format!(
                "snapshot is for a {}-slot key, graph has {n_slots}",
                state.n_slots
            )));
        }
        if state.key_bits.len() != n_slots {
            return Err(CheckpointError::Corrupt(format!(
                "key bit vector holds {} bits, expected {n_slots}",
                state.key_bits.len()
            )));
        }
        let n_layers = group_layers(g).len();
        if state.layer_index > n_layers {
            return Err(CheckpointError::Incompatible(format!(
                "layer index {} exceeds the graph's {n_layers} locked layers",
                state.layer_index
            )));
        }
        if state.reports.len() != state.layer_index {
            return Err(CheckpointError::Corrupt(format!(
                "{} layer reports do not match layer index {}",
                state.reports.len(),
                state.layer_index
            )));
        }
        if let Some(max) = state.max_slot_index() {
            if max >= n_slots {
                return Err(CheckpointError::Incompatible(format!(
                    "snapshot references slot {max}, graph has {n_slots} slots"
                )));
            }
        }
        Ok(())
    }

    /// The resumable Algorithm-2 driver behind every public entry point.
    /// `resume_state` restores a previous segment's cut; `ckpt` persists
    /// new cuts as the run progresses; `pause` (meaningful only with a
    /// sink) requests a cooperative stop at the next cut.
    #[allow(clippy::too_many_arguments)]
    fn drive<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
        resume_state: Option<AttackState>,
        ckpt: Option<&dyn CheckpointSink>,
        pause: Option<&AtomicBool>,
        executor: Option<&dyn PhaseExecutor>,
    ) -> Result<SessionOutcome, AttackError> {
        let cfg = &self.cfg;
        let oracle: &dyn Oracle = broker;
        if oracle.input_dim() != white_box.input_size() {
            return Err(AttackError::OracleMismatch {
                expect_in: white_box.input_size(),
                got_in: oracle.input_dim(),
            });
        }
        let start_queries = oracle.query_count();
        let layers = group_layers(white_box);
        let n_slots = white_box.key_slot_count();
        // One execution workspace for the whole session: every white-box
        // evaluation of the serial phases (witness searches, Jacobians,
        // validation probes) reuses its buffers.
        let mut ws = Workspace::new();
        // The sharded phases (per-site inference, correction waves) go to
        // the caller's executor, or to a fresh in-process one whose
        // workspace pool survives across layers and phases.
        let local_executor;
        let executor: &dyn PhaseExecutor = match executor {
            Some(e) => e,
            None => {
                local_executor = LocalExecutor::new();
                &local_executor
            }
        };

        // Session state: fresh defaults, or the snapshot's restoration.
        let mut timing;
        let mut layers_out: Vec<LayerReport>;
        let mut ka;
        let mut committed: HashMap<KeySlot, bool>;
        let mut warm;
        let baseline_stats: QueryStatsSnapshot;
        let baseline_queries: u64;
        let start_layer: usize;
        let mut entry_cut: Option<PhaseCut>;
        match resume_state {
            Some(st) => {
                timing = TimingBreakdown::from_nanos(st.timing_nanos);
                layers_out = st.reports.iter().map(LayerReportState::to_report).collect();
                ka = KeyAssignment::all_zero_bits(n_slots);
                for (i, &bit) in st.key_bits.iter().enumerate() {
                    ka.set_bit(KeySlot(i), bit);
                }
                committed = st.committed.iter().map(|&(i, b)| (KeySlot(i), b)).collect();
                warm = multipliers_from_pairs(&st.warm);
                baseline_stats = st.stats;
                baseline_queries = st.queries;
                start_layer = st.layer_index;
                entry_cut = Some(st.cut);
                // The snapshot's random stream replaces the caller's: the
                // resumed segment must consume exactly where the cut left.
                *rng = Prng::from_state(st.rng);
            }
            None => {
                timing = TimingBreakdown::new();
                layers_out = Vec::new();
                ka = KeyAssignment::all_zero_bits(n_slots);
                committed = HashMap::new();
                warm = LearnedMultipliers::new();
                baseline_stats = QueryStatsSnapshot::default();
                baseline_queries = 0;
                start_layer = 0;
                entry_cut = None;
            }
        }

        let trace = broker.trace();
        let writer = ckpt.map(|sink| CkptWriter { sink, trace });
        // Builds the snapshot for a cut. Never consumes the PRNG, so
        // checkpointed and plain runs stay bit-identical.
        let make_state = |layer_index: usize,
                          cut: PhaseCut,
                          ka: &KeyAssignment,
                          committed: &HashMap<KeySlot, bool>,
                          warm: &LearnedMultipliers,
                          layers_out: &[LayerReport],
                          rng: &Prng,
                          timing: &TimingBreakdown|
         -> AttackState {
            let mut committed_pairs: Vec<(usize, bool)> =
                committed.iter().map(|(s, &b)| (s.index(), b)).collect();
            committed_pairs.sort_unstable_by_key(|&(i, _)| i);
            let mut stats = baseline_stats.clone();
            stats.merge(&broker.snapshot());
            AttackState {
                n_slots,
                layer_index,
                cut,
                key_bits: ka.to_bits(),
                committed: committed_pairs,
                warm: multipliers_to_pairs(warm),
                reports: layers_out
                    .iter()
                    .map(LayerReportState::from_report)
                    .collect(),
                rng: rng.state(),
                timing_nanos: timing.as_nanos(),
                stats,
                queries: baseline_queries + (oracle.query_count() - start_queries),
            }
        };
        // True once the caller requests a pause. Polled only at cut sites,
        // right where a checkpoint frame can capture the exact state; the
        // poll consumes neither the PRNG nor the oracle, so pausing cannot
        // perturb the recovered key. Without a sink there is no frame to
        // resume from, so the flag is ignored.
        let pause_requested = || pause.is_some_and(|p| p.load(Ordering::Relaxed));
        // Session-so-far summary for a Paused outcome.
        let paused_at = |layer: usize, phase: &'static str| -> SessionOutcome {
            let mut stats = baseline_stats.clone();
            stats.merge(&broker.snapshot());
            SessionOutcome::Paused(PausedSession {
                layer,
                phase,
                queries: baseline_queries + (oracle.query_count() - start_queries),
                stats,
            })
        };

        for li in start_layer..layers.len() {
            let _layer_span = trace.map(|t| t.span("attack.layer", li as u64));
            let (keyed_node, layer_sites) = &layers[li];
            let mut report = LayerReport {
                keyed_node: *keyed_node,
                bits: layer_sites.len(),
                algebraic: 0,
                learned: 0,
                validation_rounds: 0,
                corrected: 0,
                validated: true,
            };
            let cut = if li == start_layer {
                entry_cut.take().unwrap_or(PhaseCut::LayerStart)
            } else {
                PhaseCut::LayerStart
            };

            // Map the entry cut to what the snapshot already finished for
            // this layer. All later layers enter at `LayerStart`.
            let mut restored_inferred: Option<InferredBits> = None;
            let mut restored_learn: Option<(Vec<KeySlot>, HashMap<KeySlot, f64>)> = None;
            let mut restored_correction: Option<RestoredCorrection> = None;
            match cut {
                PhaseCut::LayerStart => {}
                PhaseCut::PostInfer { inferred } => {
                    restored_inferred =
                        Some(inferred.iter().map(|&(i, b)| (KeySlot(i), b)).collect());
                }
                PhaseCut::PostLearn {
                    unresolved,
                    confidences,
                } => {
                    restored_learn = Some((
                        unresolved.iter().map(|&i| KeySlot(i)).collect(),
                        confidences.iter().map(|&(i, c)| (KeySlot(i), c)).collect(),
                    ));
                }
                PhaseCut::Correcting {
                    confidences,
                    algebraic,
                    learned,
                    rounds,
                    tried,
                    target,
                } => {
                    restored_correction = Some(RestoredCorrection {
                        confidences: confidences.iter().map(|&(i, c)| (KeySlot(i), c)).collect(),
                        algebraic: algebraic as usize,
                        learned: learned as usize,
                        rounds: rounds as usize,
                        tried: tried as usize,
                        target: target.as_ref().map(SerialTarget::to_target),
                    });
                }
            }

            // ---- Step 1: algebraic inference per site (Algorithm 1). ----
            let inferred: InferredBits = if let Some(inf) = restored_inferred.take() {
                // The snapshot's key bits already hold these commits; only
                // the report tally is rebuilt.
                report.algebraic = inf.iter().filter(|(_, b)| b.is_some()).count();
                inf
            } else if restored_learn.is_some() || restored_correction.is_some() {
                Vec::new() // the snapshot is past this phase entirely
            } else {
                let inf: InferredBits = if cfg.disable_algebraic {
                    layer_sites.iter().map(|s| (s.slot, None)).collect()
                } else {
                    broker.set_scope(Some(Procedure::KeyBitInference.label()));
                    timing.time(Procedure::KeyBitInference, || {
                        // Forked in canonical site order — the parent
                        // stream advances by exactly `sites.len()`, no
                        // matter who executes the items or in what order.
                        let rngs: Vec<Prng> = layer_sites.iter().map(|_| rng.fork()).collect();
                        executor.infer_sites(white_box, &ka, layer_sites, oracle, cfg, &rngs)
                    })
                };
                for (slot, bit) in &inf {
                    if let Some(bit) = bit {
                        ka.set_bit(*slot, *bit);
                        committed.insert(*slot, *bit);
                        report.algebraic += 1;
                    }
                }
                if let Some(w) = &writer {
                    let pausing = pause_requested();
                    w.write(make_state(
                        li,
                        PhaseCut::PostInfer {
                            inferred: inf.iter().map(|&(s, b)| (s.index(), b)).collect(),
                        },
                        &ka,
                        &committed,
                        &warm,
                        &layers_out,
                        rng,
                        &timing,
                    ))?;
                    if pausing {
                        return Ok(paused_at(li, "post-inference"));
                    }
                }
                inf
            };

            // ---- Step 2: learning attack on the remainder (§3.6). ----
            // Free bits: this layer's ⊥ plus everything in later layers —
            // the loss is only meaningful when later bits may co-adapt.
            let (unresolved, mut confidences) = if let Some(rc) = &restored_correction {
                report.algebraic = rc.algebraic;
                report.learned = rc.learned;
                (Vec::new(), rc.confidences.clone())
            } else if let Some((u, c)) = restored_learn.take() {
                // The snapshot's key bits and warm starts already hold the
                // learned assignment.
                report.algebraic = layer_sites.len() - u.len();
                report.learned = u.len();
                (u, c)
            } else {
                let unresolved: Vec<KeySlot> = inferred
                    .iter()
                    .filter(|(_, b)| b.is_none())
                    .map(|(s, _)| *s)
                    .collect();
                let mut confidences: HashMap<KeySlot, f64> = inferred
                    .iter()
                    .filter(|(_, b)| b.is_some())
                    .map(|(s, _)| (*s, 1.0))
                    .collect();
                if !unresolved.is_empty() {
                    let mut free: Vec<KeySlot> = unresolved.clone();
                    for (_, later_sites) in &layers[li + 1..] {
                        free.extend(later_sites.iter().map(|s| s.slot));
                    }
                    broker.set_scope(Some(Procedure::LearningAttack.label()));
                    let learned = timing.time(Procedure::LearningAttack, || {
                        learning_attack(
                            white_box,
                            oracle,
                            &committed,
                            &free,
                            &warm,
                            &cfg.learning,
                            cfg.input_scale,
                            rng,
                        )
                    });
                    for (&slot, &m) in &learned {
                        warm.insert(slot, m);
                        // Provisionally assign *later-layer* bits too: the
                        // validation step's white-box observability predictions
                        // are far more accurate with the learning attack's
                        // estimates than with blanket zeros. These bits are
                        // overwritten when their own layers commit.
                        ka.set_bit(slot, m < 0.0);
                    }
                    for slot in &unresolved {
                        let m = learned.get(slot).copied().unwrap_or(0.0);
                        ka.set_bit(*slot, m < 0.0);
                        confidences.insert(*slot, m.abs());
                        report.learned += 1;
                    }
                }
                if let Some(w) = &writer {
                    // Written BEFORE the validation target is drawn: target
                    // selection consumes the PRNG, so a resume from this
                    // cut redraws the identical target from the restored
                    // state.
                    let pausing = pause_requested();
                    w.write(make_state(
                        li,
                        PhaseCut::PostLearn {
                            unresolved: unresolved.iter().map(|s| s.index()).collect(),
                            confidences: sorted_pairs(&confidences),
                        },
                        &ka,
                        &committed,
                        &warm,
                        &layers_out,
                        rng,
                        &timing,
                    ))?;
                    if pausing {
                        return Ok(paused_at(li, "post-learning"));
                    }
                }
                (unresolved, confidences)
            };

            // ---- Step 3: validation and error correction (§3.7/§3.8). ----
            let mut starved = false;
            let mut correction_from = 0usize;
            let (target, ok) = if let Some(rc) = restored_correction.take() {
                // Mid-correction resume: the earlier validations failed by
                // construction, and the target travels *in* the snapshot —
                // redrawing it here would diverge the random stream.
                report.validation_rounds = rc.rounds;
                correction_from = rc.tried;
                (rc.target, false)
            } else {
                let target = layers
                    .get(li + 1)
                    .map(|(_, next_sites)| self.validation_target(white_box, next_sites, rng));
                broker.set_scope(Some(Procedure::KeyVectorValidation.label()));
                // A starved oracle (budget or backend gone) cannot
                // judge the candidate; the run degrades by committing the
                // learned bits unvalidated and pressing on — §3.6's
                // learning path is the fallback the paper's adversary is
                // left with.
                let mut ok = match timing.time(Procedure::KeyVectorValidation, || {
                    validate_arrival(
                        white_box,
                        &mut ws,
                        &ka,
                        target.as_ref(),
                        oracle,
                        cfg,
                        rng,
                        &mut report.validation_rounds,
                    )
                }) {
                    Ok(v) => v.tolerated(),
                    Err(_) => {
                        starved = true;
                        report.validated = false;
                        true
                    }
                };
                if !ok && !unresolved.is_empty() {
                    // Cheap first remedy: one fresh learning round (new
                    // oracle samples, cold-started θ) often repairs several
                    // bits at once, where the Hamming search below pays one
                    // validation per candidate.
                    broker.set_scope(Some(Procedure::LearningAttack.label()));
                    let relearned = timing.time(Procedure::LearningAttack, || {
                        let mut free: Vec<KeySlot> = unresolved.clone();
                        for (_, later_sites) in &layers[li + 1..] {
                            free.extend(later_sites.iter().map(|s| s.slot));
                        }
                        learning_attack(
                            white_box,
                            oracle,
                            &committed,
                            &free,
                            &LearnedMultipliers::new(),
                            &cfg.learning,
                            cfg.input_scale,
                            rng,
                        )
                    });
                    for slot in &unresolved {
                        let m = relearned.get(slot).copied().unwrap_or(0.0);
                        ka.set_bit(*slot, m < 0.0);
                        confidences.insert(*slot, m.abs());
                    }
                    for (&slot, &m) in &relearned {
                        warm.insert(slot, m);
                        ka.set_bit(slot, m < 0.0);
                    }
                    broker.set_scope(Some(Procedure::KeyVectorValidation.label()));
                    ok = match timing.time(Procedure::KeyVectorValidation, || {
                        validate_arrival(
                            white_box,
                            &mut ws,
                            &ka,
                            target.as_ref(),
                            oracle,
                            cfg,
                            rng,
                            &mut report.validation_rounds,
                        )
                    }) {
                        Ok(v) => v.tolerated(),
                        Err(_) => {
                            starved = true;
                            report.validated = false;
                            true
                        }
                    };
                }
                (target, ok)
            };
            if !ok {
                broker.set_scope(Some(Procedure::ErrorCorrection.label()));
                let corr_start = Instant::now();
                let layer_slots: Vec<KeySlot> = layer_sites.iter().map(|s| s.slot).collect();
                let conf_vec: Vec<f64> = layer_slots
                    .iter()
                    .map(|s| confidences.get(s).copied().unwrap_or(0.0))
                    .collect();
                // Small layers are searched exhaustively (the paper's
                // Theorem 4 termination argument: at most 2^|K_i| rounds);
                // larger ones within the configured Hamming budget.
                let n_bits = layer_slots.len();
                let effective_hamming = if n_bits <= 8 { n_bits } else { cfg.max_hamming };
                // The deterministic candidate plan (confidence-ordered
                // flips plus mirror candidates): a resumed run regenerates
                // it identically and skips the first `correction_from`
                // entries.
                let candidates = correction_plan(
                    &conf_vec,
                    cfg.correction_window,
                    effective_hamming,
                    cfg.max_candidates_per_hd,
                );
                // Candidates are validated in fixed-width *waves*: every
                // member of a wave is fully evaluated (each against its own
                // clone of the assignment, on its own forked PRNG stream)
                // and the earliest Pass in candidate order commits. The
                // wave width is a constant, never derived from `threads`,
                // so PRNG consumption, query traffic, and the committed
                // flip are bit-identical at every thread count; checkpoint
                // cuts land only on wave boundaries for the same reason.
                // A resumed run re-derives the wave boundaries from the
                // frame's `tried` index alone (DESIGN.md §3e).
                const CORRECTION_WAVE: usize = 4;
                let mut applied: Option<Vec<usize>> = None;
                let mut ci = correction_from;
                while ci < candidates.len() && applied.is_none() && !starved {
                    let _wave_span = trace.map(|t| t.span("attack.wave", ci as u64));
                    if let Some(w) = &writer {
                        // `ci > correction_from` guarantees liveness: a
                        // segment must validate at least one wave before it
                        // may pause at a wave boundary, so a caller that
                        // re-raises the flag immediately after every resume
                        // still finishes eventually.
                        let pausing = ci > correction_from && pause_requested();
                        w.write(make_state(
                            li,
                            PhaseCut::Correcting {
                                confidences: sorted_pairs(&confidences),
                                algebraic: report.algebraic as u64,
                                learned: report.learned as u64,
                                rounds: report.validation_rounds as u64,
                                tried: ci as u64,
                                target: target.as_ref().map(SerialTarget::from_target),
                            },
                            &ka,
                            &committed,
                            &warm,
                            &layers_out,
                            rng,
                            &timing,
                        ))?;
                        if pausing {
                            return Ok(paused_at(li, "correcting"));
                        }
                    }
                    let wave = &candidates[ci..candidates.len().min(ci + CORRECTION_WAVE)];
                    report.validation_rounds += wave.len();
                    // Forked in canonical candidate order — the parent
                    // stream advances by exactly `wave.len()`, regardless
                    // of how the wave is scheduled.
                    let wave_rngs: Vec<Prng> = wave.iter().map(|_| rng.fork()).collect();
                    let verdicts = executor.validate_wave(
                        white_box,
                        &ka,
                        &layer_slots,
                        wave,
                        target.as_ref(),
                        oracle,
                        cfg,
                        &wave_rngs,
                    );
                    for (cand, verdict) in wave.iter().zip(&verdicts) {
                        match verdict {
                            // Correction candidates must produce affirmative
                            // evidence: NoEvidence counts as failure here.
                            Ok(ValidationVerdict::Pass) => {
                                for &i in cand {
                                    let s = layer_slots[i];
                                    let cur = ka.to_bits()[s.index()];
                                    ka.set_bit(s, !cur);
                                }
                                applied = Some(cand.clone());
                                break;
                            }
                            Err(_) => {
                                // Out of budget mid-search: keep the
                                // pre-correction learned candidate and stop
                                // burning wall clock.
                                starved = true;
                                break;
                            }
                            Ok(_) => {}
                        }
                    }
                    ci += wave.len();
                }
                timing.add(Procedure::ErrorCorrection, corr_start.elapsed());
                match applied {
                    Some(cand) => report.corrected = cand.len(),
                    None if starved || cfg.continue_on_failure => {
                        report.validated = false;
                    }
                    None => {
                        return Err(AttackError::CorrectionExhausted {
                            layer: *keyed_node,
                            reached_hamming: if n_bits <= EXHAUSTIVE_BITS {
                                n_bits
                            } else {
                                cfg.max_hamming
                            },
                        });
                    }
                }
            }

            // Commit the layer.
            for site in layer_sites {
                committed.insert(site.slot, ka.to_bits()[site.slot.index()]);
            }
            layers_out.push(report);
            if let Some(w) = &writer {
                w.write(make_state(
                    li + 1,
                    PhaseCut::LayerStart,
                    &ka,
                    &committed,
                    &warm,
                    &layers_out,
                    rng,
                    &timing,
                ))?;
                // A pause on the final commit still completes the run:
                // there is nothing left to resume.
                if pause_requested() && li + 1 < layers.len() {
                    return Ok(paused_at(li + 1, "layer-start"));
                }
            }
        }

        broker.set_scope(None);
        let mut stats = baseline_stats;
        stats.merge(&broker.snapshot());
        Ok(SessionOutcome::Completed(DecryptionReport {
            key: Key::from_bits(ka.to_bits()),
            timing,
            queries: baseline_queries + (oracle.query_count() - start_queries),
            stats,
            layers: layers_out,
        }))
    }

    /// Chooses the next layer's probe elements: up to `validation_neurons`
    /// units, each probed at a random element (so channel units are not
    /// always probed at their corner position).
    fn validation_target(
        &self,
        g: &Graph,
        next_sites: &[LockSite],
        rng: &mut Prng,
    ) -> ValidationTarget {
        let keyed = next_sites[0].keyed_node;
        // The hyperplane surface is the input of the ReLU consuming the
        // keyed node — the keyed node itself in a sequential network, or
        // the residual Add join in a ResNet block.
        let consumers = g.consumers();
        let mut surface_node = keyed;
        for _ in 0..3 {
            let next = consumers[surface_node.index()].iter().copied().find(|c| {
                matches!(
                    g.node(*c).op,
                    relock_graph::Op::Add | relock_graph::Op::Relu
                )
            });
            match next {
                Some(c) if matches!(g.node(c).op, relock_graph::Op::Add) => {
                    surface_node = c;
                }
                _ => break,
            }
        }
        let layout = next_sites[0].layout;
        let slot_of_unit: HashMap<usize, KeySlot> =
            next_sites.iter().map(|s| (s.unit, s.slot)).collect();
        // Candidate pool: every unit, unlocked ones first (their
        // observability check is exact — no unknown-bit hypothesis).
        // Validation walks the pool until it has collected its quota of
        // *observable* units; masked witnesses are retried in other linear
        // regions and via unit-extremum witnesses (Lemma 3 handling).
        let mut unlocked = Vec::new();
        let mut locked = Vec::new();
        for u in 0..layout.n_units {
            match slot_of_unit.get(&u).copied() {
                Some(s) => locked.push((u, Some(s))),
                None => unlocked.push((u, None)),
            }
        }
        rng.shuffle(&mut unlocked);
        rng.shuffle(&mut locked);
        let mut units = unlocked;
        units.extend(locked);
        ValidationTarget {
            surface_node,
            layout,
            units,
        }
    }
}

/// Validates the key vector a layer arrived with (§3.7), counting each
/// pass in `rounds`. Algorithm 2 tolerates a [`ValidationVerdict::NoEvidence`]
/// verdict for this candidate, but first gives it one more pass on the
/// continuing stream: the units re-draw their witnesses, and a wrong key
/// vector that every first-pass witness missed is often refuted then,
/// instead of being committed and leaving the next layer unrepairable.
#[allow(clippy::too_many_arguments)]
fn validate_arrival(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
    rounds: &mut usize,
) -> Result<ValidationVerdict, OracleError> {
    *rounds += 1;
    let verdict = key_vector_validation_checked_with(g, ws, ka, target, oracle, cfg, rng)?;
    if verdict != ValidationVerdict::NoEvidence {
        return Ok(verdict);
    }
    *rounds += 1;
    key_vector_validation_checked_with(g, ws, ka, target, oracle, cfg, rng)
}

/// Groups lock sites by keyed node; `NodeId` order is topological, so the
/// groups come out in the paper's layer-processing order.
fn group_layers(g: &Graph) -> Vec<(NodeId, Vec<LockSite>)> {
    let mut layers: Vec<(NodeId, Vec<LockSite>)> = Vec::new();
    for site in g.lock_sites() {
        match layers.last_mut() {
            Some((node, v)) if *node == site.keyed_node => v.push(site),
            _ => layers.push((site.keyed_node, vec![site])),
        }
    }
    layers
}

/// Runs `eval(i, workspace)` for every `i in 0..n` across up to `threads`
/// scoped workers pulling indices from a shared atomic counter, and merges
/// the results back into index order. With one worker (or one item) no
/// thread is spawned and the loop runs inline on one pooled workspace.
///
/// Dynamic pulling instead of static `split_rows` shards because item
/// costs vary wildly (a critical-point search can burn many retry lines
/// while its neighbour bisects at once): the critical path becomes the
/// single slowest item, not the slowest contiguous shard. Scheduling
/// freedom cannot perturb the outcome — every index owns a pre-forked PRNG
/// stream and its own result slot, so the merge is canonical regardless of
/// which worker ran which item (DESIGN.md §3e).
fn run_sharded<T: Send>(
    pool: &WorkspacePool,
    threads: usize,
    n: usize,
    eval: impl Fn(usize, &mut Workspace) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        let mut ws = pool.acquire();
        return (0..n).map(|i| eval(i, &mut ws)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let eval = &eval;
                scope.spawn(move || {
                    // Workspaces are never shared across threads; one
                    // pooled workspace per worker amortizes over all the
                    // items it pulls and is returned for later phases.
                    let mut ws = pool.acquire();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, eval(i, &mut ws)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // A worker panic must surface with its *original* payload:
            // kill-and-resume harnesses downcast to the injected crash
            // type, and `expect()` here would replace it with a String.
            // The scope joins the remaining workers before propagating.
            let items = match h.join() {
                Ok(items) => items,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (i, v) in items {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index was pulled"))
        .collect()
}

/// Confidence map → `(slot, value)` pairs sorted by slot index, so the
/// serialized bytes do not depend on `HashMap` iteration order.
fn sorted_pairs(m: &HashMap<KeySlot, f64>) -> Vec<(usize, f64)> {
    let mut pairs: Vec<(usize, f64)> = m.iter().map(|(s, &v)| (s.index(), v)).collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs
}

/// A `Correcting` cut mapped back to the driver's live types.
struct RestoredCorrection {
    confidences: HashMap<KeySlot, f64>,
    algebraic: usize,
    learned: usize,
    rounds: usize,
    tried: usize,
    target: Option<ValidationTarget>,
}

/// Checkpoint writer: persists the snapshot of every cut it is given.
struct CkptWriter<'a> {
    sink: &'a dyn CheckpointSink,
    /// Hears a `checkpoint.write` (frame bytes) per persisted frame.
    trace: Option<&'a FlightRecorder>,
}

impl CkptWriter<'_> {
    fn write(&self, state: AttackState) -> Result<(), AttackError> {
        let bytes = state.encode();
        self.sink
            .save(&bytes)
            .map_err(|e| AttackError::Checkpoint(CheckpointError::Io(e.to_string())))?;
        if let Some(trace) = self.trace {
            trace.counter("checkpoint.write", bytes.len() as u64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::{CountingOracle, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};

    #[test]
    fn decrypts_contractive_mlp_exactly() {
        let mut rng = Prng::seed_from_u64(130);
        let model = build_mlp(
            &MlpSpec {
                input: 16,
                hidden: vec![12, 8],
                classes: 4,
            },
            LockSpec::evenly(8),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let mut arng = Prng::seed_from_u64(131);
        let report = Decryptor::new(AttackConfig::fast())
            .run(model.white_box(), &oracle, &mut arng)
            .expect("attack should succeed");
        assert_eq!(
            report.fidelity(model.true_key()),
            1.0,
            "recovered {} vs true {}",
            report.key,
            model.true_key()
        );
        assert!(report.queries > 0);
        assert_eq!(report.layers.len(), 2);
    }

    #[test]
    fn decrypts_expansive_mlp_via_learning_path() {
        // First layer wider than the input: Algorithm 1 must yield ⊥ and
        // the learning + validation + correction pipeline must finish.
        let mut rng = Prng::seed_from_u64(132);
        let model = build_mlp(
            &MlpSpec {
                input: 6,
                hidden: vec![12, 8],
                classes: 4,
            },
            LockSpec::evenly(6),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let mut arng = Prng::seed_from_u64(133);
        let report = Decryptor::new(AttackConfig::fast())
            .run(model.white_box(), &oracle, &mut arng)
            .expect("attack should succeed");
        assert_eq!(report.fidelity(model.true_key()), 1.0);
        let learned_bits: usize = report.layers.iter().map(|l| l.learned).sum();
        assert!(learned_bits > 0, "expected the learning path to engage");
    }

    #[test]
    fn unlocked_graph_returns_empty_key() {
        let mut rng = Prng::seed_from_u64(134);
        let model = build_mlp(
            &MlpSpec {
                input: 4,
                hidden: vec![4],
                classes: 2,
            },
            LockSpec::none(),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let report = Decryptor::new(AttackConfig::fast())
            .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(135))
            .unwrap();
        assert!(report.key.is_empty());
        assert_eq!(report.queries, 0);
    }

    #[test]
    fn checkpointing_is_transparent_and_resume_handles_empty_and_finished_sinks() {
        use crate::checkpoint::MemoryCheckpointSink;
        let mut rng = Prng::seed_from_u64(140);
        let model = build_mlp(
            &MlpSpec {
                input: 12,
                hidden: vec![10, 6],
                classes: 3,
            },
            LockSpec::evenly(8),
            &mut rng,
        )
        .unwrap();
        let g = model.white_box();
        let oracle = CountingOracle::new(&model);
        let dec = Decryptor::new(AttackConfig::fast());

        // Checkpointed run produces the same key as a plain run: snapshot
        // construction never consumes the PRNG or queries the oracle.
        let sink = MemoryCheckpointSink::new();
        let broker = Broker::with_config(&oracle, BrokerConfig::default());
        let r1 = dec
            .run_with_checkpoints(g, &broker, &mut Prng::seed_from_u64(141), &sink)
            .unwrap();
        assert!(sink.saves() >= 2, "one write per layer commit at least");
        let broker2 = Broker::with_config(&oracle, BrokerConfig::default());
        let r2 = dec
            .run_brokered(g, &broker2, &mut Prng::seed_from_u64(141))
            .unwrap();
        assert_eq!(r1.key, r2.key);
        assert_eq!(r1.queries, r2.queries);

        // Resuming a *finished* run skips the layer loop and re-emits the
        // recovered key and accounting without new oracle traffic.
        let broker3 = Broker::with_config(&oracle, BrokerConfig::default());
        let before = oracle.query_count();
        let (r3, status) = dec
            .resume(g, &broker3, &mut Prng::seed_from_u64(999), &sink)
            .unwrap();
        assert!(status.resumed(), "got {status:?}");
        assert_eq!(r3.key, r1.key);
        assert_eq!(r3.queries, r1.queries);
        assert_eq!(oracle.query_count(), before);
        assert_eq!(r3.layers.len(), r1.layers.len());

        // An empty sink is a fresh start, not an error.
        let empty = MemoryCheckpointSink::new();
        let broker4 = Broker::with_config(&oracle, BrokerConfig::default());
        let (r4, status) = dec
            .resume(g, &broker4, &mut Prng::seed_from_u64(141), &empty)
            .unwrap();
        assert_eq!(status, ResumeStatus::Fresh);
        assert_eq!(r4.key, r1.key);
    }

    #[test]
    fn pausing_at_every_cut_still_recovers_the_identical_key() {
        use crate::checkpoint::MemoryCheckpointSink;
        use std::sync::atomic::AtomicBool;
        let mut rng = Prng::seed_from_u64(150);
        let model = build_mlp(
            &MlpSpec {
                input: 12,
                hidden: vec![10, 6],
                classes: 3,
            },
            LockSpec::evenly(8),
            &mut rng,
        )
        .unwrap();
        let g = model.white_box();
        let oracle = CountingOracle::new(&model);
        let dec = Decryptor::new(AttackConfig::fast());

        // Reference: one uninterrupted run.
        let broker = Broker::with_config(&oracle, BrokerConfig::default());
        let reference = dec
            .run_brokered(g, &broker, &mut Prng::seed_from_u64(151))
            .unwrap();

        // Session: the pause flag stays raised permanently — the most
        // hostile caller possible. Every segment must still make progress
        // (liveness) and the stitched-together run must be bit-identical.
        let sink = MemoryCheckpointSink::new();
        let pause = AtomicBool::new(true);
        let mut segments = 0;
        let report = loop {
            segments += 1;
            assert!(segments < 200, "pause/resume livelock");
            let seg_broker = Broker::with_config(&oracle, BrokerConfig::default());
            let (outcome, _) = dec
                .resume_session(g, &seg_broker, &mut Prng::seed_from_u64(151), &sink, &pause)
                .unwrap();
            match outcome {
                SessionOutcome::Completed(r) => break r,
                SessionOutcome::Paused(p) => {
                    assert!(p.layer <= 2);
                    assert!(!p.phase.is_empty());
                    assert!(p.stats.is_balanced());
                }
            }
        };
        assert!(segments > 2, "the raised flag must actually have paused");
        assert_eq!(report.key, reference.key, "pause must not perturb the key");
        // Each segment's broker starts with a cold cache, so rows the
        // uninterrupted run served as hits may be re-dispatched — queries
        // can only grow, never change the outcome.
        assert!(report.queries >= reference.queries);
        assert!(report.stats.is_balanced());
    }

    #[test]
    fn parallel_site_inference_matches_sequential_fidelity() {
        let mut rng = Prng::seed_from_u64(136);
        let model = build_mlp(
            &MlpSpec {
                input: 16,
                hidden: vec![10],
                classes: 4,
            },
            LockSpec::evenly(6),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let mut cfg = AttackConfig::fast();
        cfg.threads = 4;
        let report = Decryptor::new(cfg)
            .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(137))
            .unwrap();
        assert_eq!(report.fidelity(model.true_key()), 1.0);
    }
}
