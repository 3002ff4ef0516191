//! Autodiff computation-graph framework with key-controlled locking ops.
//!
//! This crate is the workspace's stand-in for PyTorch: it provides exactly
//! the machinery the DAC'24 decryption attack exercises on a deep ReLU
//! network, and nothing more:
//!
//! - a DAG of [`Op`]s over flat `f64` vectors ([`Graph`], [`GraphBuilder`]);
//! - batched **forward** evaluation with activation capture
//!   ([`Graph::forward`], [`Activations`]), which gives the attack the
//!   activation patterns of paper §3.2;
//! - **reverse-mode** differentiation for parameters *and* continuous key
//!   multipliers ([`Graph::backward`]), which powers both training and the
//!   learning-based attack of §3.6;
//! - a **forward-mode input Jacobian** ([`Graph::input_jacobian`]) — the
//!   product weight matrix `Â` of Formulas 2–4 — used by the algebraic key
//!   inference of §3.3;
//! - HPNN lock operators ([`Op::KeyedSign`], paper Eq. 1) plus the §3.9
//!   variants ([`Op::KeyedScale`], weight-element locks on [`Op::Linear`]);
//! - a **planned execution engine**: [`Graph::plan`] compiles the topology
//!   once ([`ExecPlan`]: schedule, shapes, ancestor bitsets, liveness) and
//!   the `*_into` entry points ([`Graph::forward_into`],
//!   [`Graph::logits_batch_into`], [`Graph::input_jacobian_into`], …) run
//!   passes through a reusable [`Workspace`], which is what makes the
//!   attack's million-query loops allocation-free.
//!
//! Keys are always *continuous multipliers* `m ∈ [−1, 1]` with `+1 ⇔ bit 0`
//! and `−1 ⇔ bit 1`; discrete evaluation just assigns ±1 (see
//! [`KeyAssignment`]).
//!
//! # Example: a locked neuron is bit-exactly a sign flip
//!
//! ```
//! use relock_graph::{GraphBuilder, Op, KeyAssignment, KeySlot, UnitLayout};
//! use relock_tensor::Tensor;
//!
//! let mut gb = GraphBuilder::new();
//! let x = gb.input(1);
//! let lock = gb.add(Op::KeyedSign {
//!     layout: UnitLayout::scalar(1),
//!     slots: vec![Some(KeySlot(0))],
//! }, &[x])?;
//! let relu = gb.add(Op::Relu, &[lock])?;
//! let g = gb.build(relu)?;
//!
//! let x = Tensor::from_slice(&[2.0]);
//! let bit0 = g.logits(&x, &KeyAssignment::from_bits(&[false]));
//! let bit1 = g.logits(&x, &KeyAssignment::from_bits(&[true]));
//! assert_eq!(bit0.as_slice(), &[2.0]);  // pass-through
//! assert_eq!(bit1.as_slice(), &[0.0]);  // flipped negative, then ReLU
//! # Ok::<(), relock_graph::GraphError>(())
//! ```

mod backward;
mod exec;
mod forward;
mod graph;
mod jvp;
mod key;
mod op;
mod plan;
mod pool;
mod serial;

pub use exec::{Activations, Gradients};
pub use graph::{Graph, GraphBuilder, GraphError, LockSite, Node, NodeId};
pub use key::{KeyAssignment, KeySlot, UnitLayout};
pub use op::{Op, Saved, TriggerKind, WeightLock};
pub use plan::{ExecPlan, MovingSet, Workspace};
pub use pool::{PooledWorkspace, WorkspacePool};
pub use serial::{bounded_vec, Section, SectionReader, SerialError};
