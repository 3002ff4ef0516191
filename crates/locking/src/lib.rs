//! HPNN logic locking for deep neural networks, and the adversary's oracle.
//!
//! HPNN (Chakraborty et al., DAC'20) protects a DNN's intellectual property
//! by entangling its parameters with a secret binary key held in hardware
//! root-of-trust: each *key-protected neuron* gets a flipping unit that
//! negates its pre-activation when the key bit is 1 (paper Eq. 1), and the
//! network is **trained as a function of the key**, so a wrong key wrecks
//! accuracy.
//!
//! This crate provides:
//!
//! - [`Key`] — binary keys with the fidelity/Hamming metrics of §4.2;
//! - [`LockSpec`]/[`LockAllocator`] — the §4.2 encryption protocol (equal
//!   split across layers, uniformly random neurons and bits), plus the §3.9
//!   multiplicative variant;
//! - [`LockedModel`] — graph + secret key, the IP owner's artifact;
//! - [`Oracle`]/[`CountingOracle`] — the adversary's query-counted I/O
//!   interface (§2.3 adversary model).
//!
//! Model construction lives in `relock-nn`; this crate is deliberately
//! architecture-agnostic.

mod hardened;
mod key;
mod oracle;
mod scheme;

pub use hardened::{LabelOnlyOracle, NoisyOracle, QuantizedOracle};
pub use key::Key;
pub use oracle::{CountingOracle, LockedModel, Oracle, OracleError, OutputMode};
pub use scheme::{
    apply_key_constraints, KeyConstraint, LockAllocator, LockError, LockSpec, LockVariant,
};
