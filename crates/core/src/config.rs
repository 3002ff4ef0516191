//! Attack configuration: the budgets, probe tolerances and ablation
//! switches a caller sets. Each tolerance no caller moves is a named
//! constant beside the procedure it bounds; DESIGN.md §7 lists them with
//! their contracts.

use relock_locking::LockVariant;

/// Worker threads requested via the `RELOCK_THREADS` environment variable,
/// or 1 when unset/invalid. Unlike the tensor kernels' auto-detected
/// parallelism, the attack engine stays sequential unless asked: its
/// parallel path is bit-identical anyway, but opting in keeps default runs
/// reproducible across machines *including* their thread schedules.
fn env_threads() -> usize {
    std::env::var("RELOCK_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Standard deviation of every random input the attacks draw: §3.5 line
/// anchors, §3.6 training samples, the last layer's direct check and the
/// sampling and neuroevolution probes. It must roughly cover the region
/// where the victim's hyperplanes live, and the synthetic tasks put them
/// within a few units of the origin.
pub(crate) const INPUT_SCALE: f64 = 3.0;

/// Budgets of the learning-based attack (paper §3.6). Its Adam rate and
/// settling threshold are the fixed [`learning_attack`] constants.
///
/// [`learning_attack`]: crate::learning_attack
#[derive(Debug, Clone, Copy)]
pub struct LearningConfig {
    /// Number of random oracle-labelled examples in the training set.
    pub samples: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Stop early after this many epochs without a new settled bit or a
    /// loss improvement.
    pub patience: usize,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig {
            samples: 192,
            batch: 24,
            epochs: 80,
            patience: 15,
        }
    }
}

impl LearningConfig {
    /// The §4.3 monolithic baseline's budgets: a larger sample set than
    /// the per-layer attack's, matching the paper's 1k–10k queries.
    pub fn monolithic() -> Self {
        LearningConfig {
            samples: 1000,
            batch: 32,
            epochs: 120,
            patience: 20,
        }
    }
}

/// Budgets, probe tolerances and ablation switches of the DNN decryption
/// algorithm — the settings some caller moves. The tolerances no caller
/// moves are constants beside the procedures that use them (DESIGN.md §7).
///
/// The defaults reproduce the paper's behaviour at the workspace's scaled
/// model sizes; [`AttackConfig::fast`] shrinks the budgets for tests.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Number of samples drawn along each random line when hunting a sign
    /// change of the target pre-activation.
    pub line_samples: usize,
    /// Maximum random lines tried per critical-point search.
    pub max_lines: usize,
    /// Maximum fresh critical points tried per key bit before returning ⊥
    /// (Algorithm 1's retry loop).
    pub max_site_attempts: usize,
    /// Initial ε for the basis-vector probe `x° ± ε·v`.
    pub epsilon: f64,
    /// Relative L∞ tolerance under which two oracle outputs are "equal".
    pub eq_tol: f64,
    /// Relative L∞ difference above which two oracle outputs "differ";
    /// between the two lies the indecisive band that triggers a retry.
    pub diff_tol: f64,
    /// Learning-attack budgets.
    pub learning: LearningConfig,
    /// How many next-layer neurons the validation procedure probes (§3.7).
    pub validation_neurons: usize,
    /// Step of the second-difference kink probe.
    pub probe_delta: f64,
    /// Relative second-difference magnitude below which a probe is treated
    /// as noise (the two-scale ratio test rejects smooth curvature above
    /// it, so this can sit just above machine-precision cancellation).
    pub kink_tol: f64,
    /// Abort on a layer that exhausts error correction (`false`), or keep
    /// the best candidate and continue, recording the failure (`true`) —
    /// used by experiment sweeps to report partial fidelity.
    pub continue_on_failure: bool,
    /// Maximum Hamming distance explored by `error_correction`.
    pub max_hamming: usize,
    /// Maximum candidate flips tried per Hamming distance.
    pub max_candidates_per_hd: usize,
    /// Only the this-many least-confident bits participate in correction.
    pub correction_window: usize,
    /// Worker threads for per-site and per-candidate parallelism
    /// (1 = sequential). The default honours the `RELOCK_THREADS`
    /// environment variable when set (else 1), which is how the CI matrix
    /// re-runs the whole suite in parallel mode. The parallel path is
    /// **bit-identical** to the sequential one — see DESIGN.md §3e for the
    /// determinism contract (per-site/per-candidate PRNG stream forking in
    /// canonical order, canonical merge). §3.8 correction waves have a
    /// fixed width, so this count never changes query traffic.
    pub threads: usize,
    /// Ablation A1: skip the algebraic Algorithm 1 entirely, forcing the
    /// per-layer learning path.
    pub disable_algebraic: bool,
    /// Ablation A2: contaminate the minimum-norm pre-image with a
    /// null-space component of this relative magnitude. Any value > 0
    /// still satisfies `Âv = e` but inflates ‖v‖, pushing the ε-probes out
    /// of the linear region.
    pub preimage_perturbation: f64,
    /// Underlying oracle-query budget for a [`Decryptor::run`] session
    /// (`None` = unlimited). Enforced by the query broker the run wraps
    /// around the oracle: cache hits stay free, and exhaustion degrades
    /// the attack to its learned candidates instead of aborting it.
    ///
    /// [`Decryptor::run`]: crate::Decryptor::run
    pub query_budget: Option<u64>,
    /// Lock variant the victim is believed to carry. The algebraic
    /// [`Decryptor`] handles the unit-lock variants ([`LockVariant::Sign`],
    /// [`LockVariant::Scale`]); trigger variants have no per-unit lock
    /// sites, so attack drivers dispatch them to the sampling search
    /// ([`sampling_key_search`]) instead.
    ///
    /// [`Decryptor`]: crate::Decryptor
    /// [`sampling_key_search`]: crate::sampling_key_search
    pub variant: LockVariant,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            line_samples: 64,
            max_lines: 16,
            max_site_attempts: 4,
            epsilon: 1e-3,
            eq_tol: 1e-7,
            diff_tol: 5e-5,
            learning: LearningConfig::default(),
            validation_neurons: 24,
            probe_delta: 1e-5,
            kink_tol: 1e-9,
            continue_on_failure: false,
            max_hamming: 4,
            max_candidates_per_hd: 128,
            correction_window: 18,
            threads: env_threads(),
            disable_algebraic: false,
            preimage_perturbation: 0.0,
            query_budget: None,
            variant: LockVariant::Sign,
        }
    }
}

impl AttackConfig {
    /// A reduced-budget configuration for unit tests and the quickstart.
    pub fn fast() -> Self {
        AttackConfig {
            line_samples: 32,
            max_lines: 8,
            max_site_attempts: 3,
            learning: LearningConfig {
                samples: 96,
                epochs: 50,
                patience: 10,
                ..LearningConfig::default()
            },
            validation_neurons: 12,
            max_candidates_per_hd: 48,
            ..AttackConfig::default()
        }
    }
}
