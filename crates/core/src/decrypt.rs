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

use crate::checkpoint::{AttackState, CheckpointError, CheckpointSink, PhaseCut, ResumeStatus};
use crate::config::AttackConfig;
use crate::correct::{correction_plan, EXHAUSTIVE_BITS};
use crate::error::AttackError;
use crate::infer::{infer_rounds, shared_factor, site_probe_with, InferredBits, SiteCursor};
use crate::learning::{learning_attack, LearnedMultipliers};
use crate::telemetry::{Procedure, QueryStatsSnapshot, TimingBreakdown};
use crate::validate::{key_vector_validation_checked_with, ValidationTarget, ValidationVerdict};
use relock_graph::{Graph, KeyAssignment, KeySlot, LockSite, NodeId, Workspace, WorkspacePool};
use relock_locking::{Key, Oracle, OracleError};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Per-layer attack statistics.
#[derive(Debug, Clone, PartialEq)]
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
        let factor = shared_factor(g, ka, sites);
        infer_rounds(sites, &mut cursors, oracle, cfg, |round| {
            run_sharded(&self.pool, cfg.threads, round.len(), |j, ws| {
                let (i, cursor) = &round[j];
                let mut cursor = cursor.clone();
                let probe =
                    site_probe_with(g, ws, ka, &sites[*i], cfg, factor.as_ref(), &mut cursor);
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
        let (state, status) = self.load_state(sink, white_box);
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
        let (state, status) = self.load_state(sink, white_box);
        let outcome = self.drive(white_box, broker, rng, state, Some(sink), Some(pause), None)?;
        Ok((outcome, status))
    }

    /// Loads the sink's checkpoint and checks that it fits `white_box`;
    /// unusable frames fall back to a fresh start (see
    /// [`Decryptor::resume`]).
    fn load_state(
        &self,
        sink: &dyn CheckpointSink,
        white_box: &Graph,
    ) -> (Option<AttackState>, ResumeStatus) {
        let loaded = match sink.load() {
            Err(e) => Err(format!("checkpoint sink load failed: {e}")),
            Ok(None) => return (None, ResumeStatus::Fresh),
            Ok(Some(bytes)) => AttackState::decode(&bytes)
                .and_then(|state| check_fit(&state, white_box, &self.cfg).map(|()| state))
                .map_err(|e| e.to_string()),
        };
        match loaded {
            Ok(state) => {
                let status = ResumeStatus::Resumed {
                    layer: state.layer_index,
                    phase: state.cut.phase_name(),
                };
                (Some(state), status)
            }
            Err(reason) => (None, ResumeStatus::FellBack { reason }),
        }
    }

    /// The resumable Algorithm-2 driver behind every public entry point.
    /// `resume_state` is a previous segment's session; `ckpt` persists new
    /// cuts as the run progresses; `pause` (meaningful only with a sink)
    /// requests a cooperative stop at the next cut.
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
        let layers = group_layers(white_box);
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

        // The session: a fresh one, or the snapshot a resumed segment
        // continues. The snapshot's random stream replaces the caller's:
        // the resumed segment must consume exactly where the cut left.
        let mut st = match resume_state {
            Some(st) => {
                *rng = Prng::from_state(st.rng);
                st
            }
            None => AttackState::fresh(white_box.key_slot_count(), rng.state()),
        };
        // The session's books: what earlier segments spent plus this
        // segment's broker.
        let (spent_stats, spent_queries) = (st.stats.clone(), st.queries);
        let start_queries = oracle.query_count();
        let totals = || {
            let mut stats = spent_stats.clone();
            stats.merge(&broker.snapshot());
            (
                stats,
                spent_queries + (oracle.query_count() - start_queries),
            )
        };
        let trace = broker.trace();
        // Persists the session at its cut, when the run has a sink, and
        // answers whether the caller asked to pause there. The pause flag
        // is polled only here, where the frame captures the exact state;
        // neither the poll nor the write consumes the PRNG or the oracle,
        // so checkpointed, paused and plain runs stay bit-identical.
        let save = |st: &mut AttackState, rng: &Prng| -> Result<bool, AttackError> {
            let Some(sink) = ckpt else {
                return Ok(false);
            };
            let pausing = pause.is_some_and(|p| p.load(Ordering::Relaxed));
            st.rng = rng.state();
            (st.stats, st.queries) = totals();
            let bytes = st.encode();
            sink.save(&bytes)
                .map_err(|e| AttackError::Checkpoint(CheckpointError::Io(e.to_string())))?;
            if let Some(trace) = trace {
                trace.counter("checkpoint.write", bytes.len() as u64);
            }
            Ok(pausing)
        };

        while st.layer_index < layers.len() {
            let li = st.layer_index;
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
            // Free bits of a learning pass: this layer's ⊥ plus everything
            // in later layers — the loss is only meaningful when later bits
            // may co-adapt.
            let free_with = |unresolved: &[KeySlot]| -> Vec<KeySlot> {
                let later = layers[li + 1..]
                    .iter()
                    .flat_map(|(_, s)| s.iter().map(|s| s.slot));
                unresolved.iter().copied().chain(later).collect()
            };
            // Each phase below runs from the cut the previous one left, or
            // from the cut a resumed frame holds, and advances it.

            // ---- Step 1: algebraic inference per site (Algorithm 1). ----
            if matches!(st.cut, PhaseCut::LayerStart) {
                let inferred: InferredBits = if cfg.disable_algebraic {
                    layer_sites.iter().map(|s| (s.slot, None)).collect()
                } else {
                    broker.set_scope(Some(Procedure::KeyBitInference.label()));
                    st.timing.time(Procedure::KeyBitInference, || {
                        // Forked in canonical site order — the parent
                        // stream advances by exactly `sites.len()`, no
                        // matter who executes the items or in what order.
                        let rngs: Vec<Prng> = layer_sites.iter().map(|_| rng.fork()).collect();
                        executor.infer_sites(white_box, &st.key, layer_sites, oracle, cfg, &rngs)
                    })
                };
                for &(slot, bit) in &inferred {
                    if let Some(bit) = bit {
                        st.key.set_bit(slot, bit);
                        st.committed.insert(slot, bit);
                    }
                }
                st.cut = PhaseCut::PostInfer { inferred };
                if save(&mut st, rng)? {
                    return Ok(paused(&st));
                }
            }

            // ---- Step 2: learning attack on the remainder (§3.6). ----
            if let PhaseCut::PostInfer { inferred } = &st.cut {
                let unresolved: Vec<KeySlot> = inferred
                    .iter()
                    .filter(|(_, b)| b.is_none())
                    .map(|(s, _)| *s)
                    .collect();
                let mut confidences: BTreeMap<KeySlot, f64> = inferred
                    .iter()
                    .filter(|(_, b)| b.is_some())
                    .map(|(s, _)| (*s, 1.0))
                    .collect();
                if !unresolved.is_empty() {
                    broker.set_scope(Some(Procedure::LearningAttack.label()));
                    let learned = st.timing.time(Procedure::LearningAttack, || {
                        learning_attack(
                            white_box,
                            oracle,
                            &st.committed,
                            &free_with(&unresolved),
                            &st.warm,
                            &cfg.learning,
                            rng,
                        )
                    });
                    for (&slot, &m) in &learned {
                        st.warm.insert(slot, m);
                        // Provisionally assign *later-layer* bits too: the
                        // validation step's white-box observability predictions
                        // are far more accurate with the learning attack's
                        // estimates than with blanket zeros. These bits are
                        // overwritten when their own layers commit.
                        st.key.set_bit(slot, m < 0.0);
                    }
                    for slot in &unresolved {
                        let m = learned.get(slot).copied().unwrap_or(0.0);
                        st.key.set_bit(*slot, m < 0.0);
                        confidences.insert(*slot, m.abs());
                    }
                }
                // Cut BEFORE the validation target is drawn: target
                // selection consumes the PRNG, so a resume from this cut
                // redraws the identical target from the restored state.
                st.cut = PhaseCut::PostLearn {
                    unresolved,
                    confidences,
                };
                if save(&mut st, rng)? {
                    return Ok(paused(&st));
                }
            }

            // ---- Step 3: validation (§3.7). ----
            if let PhaseCut::PostLearn {
                unresolved,
                confidences,
            } = &st.cut
            {
                let (unresolved, mut confidences) = (unresolved.clone(), confidences.clone());
                report.algebraic = layer_sites.len() - unresolved.len();
                report.learned = unresolved.len();
                let target = layers
                    .get(li + 1)
                    .map(|(_, next_sites)| self.validation_target(white_box, next_sites, rng));
                // A starved oracle (budget or backend gone) cannot judge
                // the candidate; the run degrades by committing the
                // learned bits unvalidated and pressing on — §3.6's
                // learning path is the fallback the paper's adversary is
                // left with.
                let mut validate = |st: &mut AttackState, rng: &mut Prng| {
                    broker.set_scope(Some(Procedure::KeyVectorValidation.label()));
                    let verdict = st.timing.time(Procedure::KeyVectorValidation, || {
                        validate_arrival(
                            white_box,
                            &mut ws,
                            &st.key,
                            target.as_ref(),
                            oracle,
                            cfg,
                            rng,
                            &mut report.validation_rounds,
                        )
                    });
                    match verdict {
                        Ok(v) => v.tolerated(),
                        Err(_) => {
                            report.validated = false;
                            true
                        }
                    }
                };
                let mut ok = validate(&mut st, rng);
                if !ok && !unresolved.is_empty() {
                    // Cheap first remedy: one fresh learning round (new
                    // oracle samples, cold-started θ) often repairs several
                    // bits at once, where the Hamming search below pays one
                    // validation per candidate.
                    broker.set_scope(Some(Procedure::LearningAttack.label()));
                    let relearned = st.timing.time(Procedure::LearningAttack, || {
                        learning_attack(
                            white_box,
                            oracle,
                            &st.committed,
                            &free_with(&unresolved),
                            &LearnedMultipliers::new(),
                            &cfg.learning,
                            rng,
                        )
                    });
                    for slot in &unresolved {
                        let m = relearned.get(slot).copied().unwrap_or(0.0);
                        st.key.set_bit(*slot, m < 0.0);
                        confidences.insert(*slot, m.abs());
                    }
                    for (&slot, &m) in &relearned {
                        st.warm.insert(slot, m);
                        st.key.set_bit(slot, m < 0.0);
                    }
                    ok = validate(&mut st, rng);
                }
                if !ok {
                    st.cut = PhaseCut::Correcting {
                        confidences,
                        algebraic: report.algebraic,
                        learned: report.learned,
                        rounds: report.validation_rounds,
                        tried: 0,
                        target,
                    };
                }
            }

            // ---- Step 4: error correction (§3.8). ----
            if let PhaseCut::Correcting {
                confidences,
                algebraic,
                learned,
                rounds,
                tried,
                target,
            } = &st.cut
            {
                broker.set_scope(Some(Procedure::ErrorCorrection.label()));
                let corr_start = Instant::now();
                report.algebraic = *algebraic;
                report.learned = *learned;
                report.validation_rounds = *rounds;
                let entry = *tried;
                let target = target.clone();
                let layer_slots: Vec<KeySlot> = layer_sites.iter().map(|s| s.slot).collect();
                let n_bits = layer_slots.len();
                // A resumed run regenerates the plan identically and skips
                // the first `tried` entries.
                let candidates = layer_plan(cfg, layer_sites, confidences);
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
                let mut starved = false;
                let mut ci = entry;
                while ci < candidates.len() && applied.is_none() && !starved {
                    let _wave_span = trace.map(|t| t.span("attack.wave", ci as u64));
                    if let PhaseCut::Correcting { rounds, tried, .. } = &mut st.cut {
                        (*rounds, *tried) = (report.validation_rounds, ci);
                    }
                    // `ci > entry` guarantees liveness: a segment must
                    // validate at least one wave before it may pause at a
                    // wave boundary, so a caller that re-raises the flag
                    // immediately after every resume still finishes
                    // eventually.
                    if save(&mut st, rng)? && ci > entry {
                        return Ok(paused(&st));
                    }
                    let wave = &candidates[ci..candidates.len().min(ci + CORRECTION_WAVE)];
                    report.validation_rounds += wave.len();
                    // Forked in canonical candidate order — the parent
                    // stream advances by exactly `wave.len()`, regardless
                    // of how the wave is scheduled.
                    let wave_rngs: Vec<Prng> = wave.iter().map(|_| rng.fork()).collect();
                    let verdicts = executor.validate_wave(
                        white_box,
                        &st.key,
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
                                    let bit = st.key.multiplier(s) < 0.0;
                                    st.key.set_bit(s, !bit);
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
                st.timing
                    .add(Procedure::ErrorCorrection, corr_start.elapsed());
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
                let bit = st.key.multiplier(site.slot) < 0.0;
                st.committed.insert(site.slot, bit);
            }
            st.reports.push(report);
            st.layer_index += 1;
            st.cut = PhaseCut::LayerStart;
            // A pause on the final commit still completes the run: there
            // is nothing left to resume.
            if save(&mut st, rng)? && st.layer_index < layers.len() {
                return Ok(paused(&st));
            }
        }

        broker.set_scope(None);
        let (stats, queries) = totals();
        Ok(SessionOutcome::Completed(DecryptionReport {
            key: Key::from_bits(st.key.to_bits()),
            timing: st.timing,
            queries,
            stats,
            layers: st.reports,
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
        let surface_node = surface_node(g, next_sites[0].keyed_node);
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

/// The hyperplane surface of a keyed layer: the input of the ReLU
/// consuming the keyed node — the keyed node itself in a sequential
/// network, or the residual `Add` join in a ResNet block.
fn surface_node(g: &Graph, keyed: NodeId) -> NodeId {
    let consumers = g.consumers();
    let mut surface = keyed;
    for _ in 0..3 {
        let next = consumers[surface.index()].iter().copied().find(|c| {
            matches!(
                g.node(*c).op,
                relock_graph::Op::Add | relock_graph::Op::Relu
            )
        });
        match next {
            Some(c) if matches!(g.node(c).op, relock_graph::Op::Add) => surface = c,
            _ => break,
        }
    }
    surface
}

/// Whether a decoded session fits the graph it would resume on: the key
/// width, the layer walk, and every slot, node and unit its cut names. A
/// frame that passes cannot lead the decryptor outside the graph; one that
/// fails makes `resume` fall back to a fresh run.
fn check_fit(st: &AttackState, g: &Graph, cfg: &AttackConfig) -> Result<(), CheckpointError> {
    let misfit = |msg: String| Err(CheckpointError::Incompatible(msg));
    let n_slots = g.key_slot_count();
    if st.key.len() != n_slots {
        return misfit(format!(
            "snapshot is for a {}-slot key, graph has {n_slots}",
            st.key.len()
        ));
    }
    let layers = group_layers(g);
    if st.layer_index > layers.len() {
        return misfit(format!(
            "layer index {} exceeds the graph's {} locked layers",
            st.layer_index,
            layers.len()
        ));
    }
    if st.reports.len() != st.layer_index {
        return Err(CheckpointError::Corrupt(format!(
            "{} layer reports do not match layer index {}",
            st.reports.len(),
            st.layer_index
        )));
    }
    let mut slots = st.committed.keys().chain(st.warm.keys());
    if let Some(s) = slots.find(|s| s.index() >= n_slots) {
        return misfit(format!(
            "snapshot references slot {s}, graph has {n_slots} slots"
        ));
    }
    let Some((_, sites)) = layers.get(st.layer_index) else {
        return match st.cut {
            PhaseCut::LayerStart => Ok(()),
            _ => misfit("the cut of a finished run must be a layer start".into()),
        };
    };
    let in_layer = |s: &KeySlot| sites.iter().any(|site| site.slot == *s);
    match &st.cut {
        PhaseCut::LayerStart => Ok(()),
        PhaseCut::PostInfer { inferred } => {
            let matched = inferred.len() == sites.len()
                && inferred
                    .iter()
                    .zip(sites)
                    .all(|(&(s, _), site)| s == site.slot);
            if matched {
                Ok(())
            } else {
                misfit("inference outcomes are not the layer's sites".into())
            }
        }
        PhaseCut::PostLearn {
            unresolved,
            confidences,
        } => {
            // In site order, each at most once.
            let mut order = sites.iter();
            if !unresolved.iter().all(|s| order.any(|site| site.slot == *s)) {
                misfit("unresolved slots are not the layer's, in site order".into())
            } else if !confidences.keys().all(in_layer) {
                misfit("confidences name a slot outside the layer".into())
            } else {
                Ok(())
            }
        }
        PhaseCut::Correcting {
            confidences,
            tried,
            target,
            ..
        } => {
            if !confidences.keys().all(in_layer) {
                return misfit("confidences name a slot outside the layer".into());
            }
            // A cut is only ever taken before a candidate still to try.
            let planned = layer_plan(cfg, sites, confidences).len();
            if *tried >= planned {
                return misfit(format!(
                    "correction candidate {tried} is past the layer's {planned}-candidate plan"
                ));
            }
            match (target, layers.get(st.layer_index + 1)) {
                (None, None) => Ok(()),
                (Some(t), Some((next_keyed, next_sites))) => {
                    let layout = next_sites[0].layout;
                    if t.surface_node != surface_node(g, *next_keyed) || t.layout != layout {
                        return misfit("validation target is not the next layer's surface".into());
                    }
                    let slot_of =
                        |u: usize| next_sites.iter().find(|s| s.unit == u).map(|s| s.slot);
                    match t
                        .units
                        .iter()
                        .find(|&&(u, s)| u >= layout.n_units || slot_of(u) != s)
                    {
                        Some((u, _)) => misfit(format!(
                            "validation unit {u} is out of range or carries another unit's slot"
                        )),
                        None => Ok(()),
                    }
                }
                (Some(_), None) => misfit("the last layer has no validation target".into()),
                (None, Some(_)) => misfit("the validation target is missing".into()),
            }
        }
    }
}

/// A layer's deterministic §3.8 candidate plan: confidence-ordered flips
/// plus mirror candidates, a pure function of the layer's confidences.
/// Small layers are searched exhaustively (the paper's Theorem 4
/// termination argument: at most 2^|K_i| rounds); larger ones within the
/// configured Hamming budget.
fn layer_plan(
    cfg: &AttackConfig,
    sites: &[LockSite],
    confidences: &BTreeMap<KeySlot, f64>,
) -> Vec<Vec<usize>> {
    let conf: Vec<f64> = sites
        .iter()
        .map(|s| confidences.get(&s.slot).copied().unwrap_or(0.0))
        .collect();
    let n_bits = sites.len();
    let hamming = if n_bits <= 8 { n_bits } else { cfg.max_hamming };
    correction_plan(
        &conf,
        cfg.correction_window,
        hamming,
        cfg.max_candidates_per_hd,
    )
}

/// The paused outcome at the cut the session was just saved at.
fn paused(st: &AttackState) -> SessionOutcome {
    SessionOutcome::Paused(PausedSession {
        layer: st.layer_index,
        phase: st.cut.phase_name(),
        queries: st.queries,
        stats: st.stats.clone(),
    })
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
