//! # relock — a reproduction of "Evaluating the Security of Logic Locking on Deep Neural Networks" (DAC 2024)
//!
//! This facade crate re-exports the whole workspace so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! - [`tensor`] — dense `f64` tensors, QR least squares, deterministic PRNG;
//! - [`graph`] — the autodiff computation-graph NN framework;
//! - [`nn`] — the model zoo (MLP, LeNet, ResNet, ReLU-ViT) and the trainer;
//! - [`data`] — synthetic MNIST-like / CIFAR-like classification tasks;
//! - [`locking`] — the HPNN logic-locking scheme, its §3.9 variants, and the
//!   query-counting oracle;
//! - [`serve`] — the oracle query broker (batching, memoization, query
//!   budgets, retries, serving metrics) that every attack routes
//!   its traffic through;
//! - [`attack`] — the paper's primary contribution: the DNN decryption
//!   algorithm (Algorithms 1–2), the monolithic learning baseline, and the
//!   weight-lock variant attack.
//!
//! ## Quickstart
//!
//! ```
//! use relock::prelude::*;
//!
//! // The IP owner locks an MLP with an 8-bit key…
//! let mut rng = Prng::seed_from_u64(1);
//! let spec = MlpSpec { input: 16, hidden: vec![12, 8], classes: 4 };
//! let model = build_mlp(&spec, LockSpec::evenly(8), &mut rng)?;
//!
//! // …and the adversary decrypts it through I/O queries alone.
//! let oracle = CountingOracle::new(&model);
//! let report = Decryptor::new(AttackConfig::fast())
//!     .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(2))?;
//! assert_eq!(report.fidelity(model.true_key()), 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! (See `examples/quickstart.rs` for a narrated end-to-end version with
//! training.)

pub use relock_attack as attack;
pub use relock_data as data;
pub use relock_graph as graph;
pub use relock_locking as locking;
pub use relock_nn as nn;
pub use relock_serve as serve;
pub use relock_tensor as tensor;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use relock_attack::{
        neuroevolution_key_search, sampling_key_search, weight_lock_attack, weight_stats_attack,
        AttackConfig, AttackState, CheckpointSink, DecryptionReport, Decryptor, FileCheckpointSink,
        LearningConfig, MemoryCheckpointSink, MonolithicAttack, OracleLessReport, Procedure,
        ResumeStatus, SamplingReport,
    };
    pub use relock_data::{cifar_like, mnist_like, two_moons, Dataset};
    pub use relock_graph::{Graph, GraphBuilder, KeyAssignment, KeySlot, NodeId, Op};
    pub use relock_locking::{
        CountingOracle, Key, LockSpec, LockVariant, LockedModel, Oracle, OracleError,
    };
    pub use relock_nn::{
        build_lenet, build_mlp, build_mlp_weight_locked, build_resnet, build_vit, LenetSpec,
        MlpSpec, ResnetSpec, Trainer, VitSpec,
    };
    pub use relock_serve::{
        Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle, QueryStatsSnapshot, RetryPolicy,
    };
    pub use relock_tensor::{rng::Prng, Tensor};
}
