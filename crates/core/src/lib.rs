//! # relock-attack — the DAC'24 DNN decryption attack
//!
//! This crate implements the paper's primary contribution: a systematic I/O
//! attack that extracts the secret key of an HPNN-locked deep ReLU network
//! from (1) the public white-box description (architecture + parameters)
//! and (2) a bounded number of queries to a working hardware oracle.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.3 Algorithm 1, key-bit inference with basis vectors | [`key_bit_inference`] |
//! | §3.5 finding critical points | [`search_critical_point`] |
//! | §3.6 learning-based attack | [`learning_attack`] |
//! | §3.7 key-vector validation | [`key_vector_validation`] |
//! | §3.7/3.8 error correction | [`correction_candidates`] (driven by [`Decryptor`]) |
//! | §3.8 Algorithm 2, the DNN decryption algorithm | [`Decryptor`] |
//! | §4.3 monolithic learning baseline | [`MonolithicAttack`] |
//! | Figure 3 per-procedure timing | [`TimingBreakdown`] |
//!
//! Oracle traffic is routed through the `relock-serve` query broker
//! ([`Decryptor::run`] wraps any oracle automatically;
//! [`Decryptor::run_brokered`] accepts a pre-configured broker), which
//! adds memoization, query budgets, retries, and the per-procedure query
//! accounting surfaced in [`DecryptionReport::stats`].
//!
//! Long attacks survive crashes: [`Decryptor::run_with_checkpoints`]
//! persists a crash-consistent [`AttackState`] through a
//! [`CheckpointSink`] at every phase cut, and [`Decryptor::resume`]
//! continues bit-identically from the last snapshot (falling back to a
//! fresh run when the checkpoint is missing, corrupt, or incompatible).
//! See the [`checkpoint`] module docs for the cut
//! placement rules and the on-disk format.
//!
//! ## Example
//!
//! ```
//! use relock_attack::{AttackConfig, Decryptor};
//! use relock_locking::{CountingOracle, LockSpec};
//! use relock_nn::{build_mlp, MlpSpec};
//! use relock_tensor::rng::Prng;
//!
//! // The IP owner locks a (here untrained) MLP with an 8-bit key…
//! let mut rng = Prng::seed_from_u64(7);
//! let spec = MlpSpec { input: 16, hidden: vec![12, 8], classes: 4 };
//! let model = build_mlp(&spec, LockSpec::evenly(8), &mut rng)?;
//!
//! // …and the adversary recovers it through I/O queries alone.
//! let oracle = CountingOracle::new(&model);
//! let report = Decryptor::new(AttackConfig::fast())
//!     .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(8))?;
//! assert_eq!(report.fidelity(model.true_key()), 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
mod config;
mod correct;
mod critical;
mod decrypt;
mod error;
mod infer;
mod learning;
mod monolithic;
mod oracleless;
mod probs;
mod sampling;
mod telemetry;
#[doc(hidden)]
pub mod testutil;
mod validate;
mod weightlock;

pub use checkpoint::{
    AttackState, CheckpointError, CheckpointSink, FileCheckpointSink, MemoryCheckpointSink,
    PhaseCut, ResumeStatus, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use config::{AttackConfig, LearningConfig};
pub use correct::{correction_candidates, correction_plan};
pub use critical::{
    search_critical_point, search_target_critical_point, CriticalPoint, TargetScalar,
};
pub use decrypt::{
    DecryptionReport, Decryptor, LayerReport, LocalExecutor, PausedSession, PhaseExecutor,
    SessionOutcome,
};
pub use error::AttackError;
pub use infer::{key_bit_inference, InferredBits};
pub use learning::{learning_attack, round_to_bits, LearnedMultipliers};
pub use monolithic::{MonolithicAttack, MonolithicReport};
pub use oracleless::{
    neuroevolution_key_search, weight_site_features, weight_stats_attack, OracleLessReport,
    WeightStatsClassifier, WEIGHT_FEATURES,
};
pub use sampling::{sampling_key_search, SamplingReport};
pub use telemetry::{Procedure, QueryStats, QueryStatsSnapshot, ScopeCounts, TimingBreakdown};
pub use validate::{
    key_vector_validation, key_vector_validation_checked_with, ValidationTarget, ValidationVerdict,
    VALIDATION_DIRECTIONS, VALIDATION_MAJORITY, WITNESS_ATTEMPTS,
};
pub use weightlock::{weight_lock_attack, WeightLockReport};
