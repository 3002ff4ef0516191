//! Attack configuration.

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

/// Hyper-parameters of the learning-based attack (paper §3.6).
#[derive(Debug, Clone, Copy)]
pub struct LearningConfig {
    /// Number of random oracle-labelled examples in the training set.
    pub samples: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Adam learning rate on the key logits θ (multiplier = tanh θ).
    pub lr: f64,
    /// |multiplier| above which a key bit is *settled* (frozen to ±1)
    /// during training — the paper's confidence threshold.
    pub confidence: f64,
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
            lr: 0.08,
            confidence: 0.95,
            patience: 15,
        }
    }
}

/// Tolerances and budgets of the DNN decryption algorithm.
///
/// The defaults reproduce the paper's behaviour at the workspace's scaled
/// model sizes; [`AttackConfig::fast`] shrinks the budgets for tests.
#[derive(Debug, Clone, Copy)]
pub struct AttackConfig {
    /// Standard deviation of random line anchors in the input space (§3.5).
    /// Should roughly cover the region where the victim's hyperplanes live.
    pub input_scale: f64,
    /// Number of samples drawn along each random line when hunting a sign
    /// change of the target pre-activation.
    pub line_samples: usize,
    /// Half-extent of the sampled parameter range along each line.
    pub line_extent: f64,
    /// |z| below which a point counts as on the hyperplane.
    pub bisect_tol: f64,
    /// Maximum bisection iterations.
    pub bisect_iters: usize,
    /// Maximum random lines tried per critical-point search.
    pub max_lines: usize,
    /// Maximum fresh critical points tried per key bit before returning ⊥
    /// (Algorithm 1's retry loop).
    pub max_site_attempts: usize,
    /// Initial ε for the basis-vector probe `x° ± ε·v`.
    pub epsilon: f64,
    /// ε is halved until the linear region holds; below this, the attempt
    /// is abandoned.
    pub epsilon_min: f64,
    /// Relative L∞ tolerance under which two oracle outputs are "equal".
    pub eq_tol: f64,
    /// Relative L∞ difference above which two oracle outputs "differ";
    /// between the two lies the indecisive band that triggers a retry.
    pub diff_tol: f64,
    /// Residual tolerance of the least-squares pre-image (§3.3 line 7–8).
    pub preimage_tol: f64,
    /// Skip the algebraic attempt when the target layer is wider than the
    /// input (`d_i > P`): `Â` cannot be onto, so every basis vector lacks a
    /// pre-image (§3.4). Disable for the A1 ablation.
    pub skip_expansive: bool,
    /// Learning-attack hyper-parameters.
    pub learning: LearningConfig,
    /// How many next-layer neurons the validation procedure probes (§3.7).
    pub validation_neurons: usize,
    /// Fraction of probed neurons whose hyperplane must be confirmed for a
    /// key vector to pass validation.
    pub validation_majority: f64,
    /// Number of probe directions per validated neuron.
    pub validation_directions: usize,
    /// Witness searches per probed element: observability (Lemma 3) is a
    /// property of the linear region, so a masked witness can be retried
    /// in a different region of the same hyperplane.
    pub witness_attempts: usize,
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
    /// Oracle/white-box comparison samples for the last hidden layer's
    /// direct validation.
    pub final_check_samples: usize,
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
            input_scale: 3.0,
            line_samples: 64,
            line_extent: 12.0,
            bisect_tol: 1e-10,
            bisect_iters: 120,
            max_lines: 16,
            max_site_attempts: 4,
            epsilon: 1e-3,
            epsilon_min: 1e-7,
            eq_tol: 1e-7,
            diff_tol: 5e-5,
            preimage_tol: 1e-6,
            skip_expansive: true,
            learning: LearningConfig::default(),
            validation_neurons: 24,
            validation_majority: 0.7,
            validation_directions: 3,
            witness_attempts: 3,
            probe_delta: 1e-5,
            kink_tol: 1e-9,
            continue_on_failure: false,
            final_check_samples: 16,
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
