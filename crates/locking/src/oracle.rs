//! The locked model artifact and the adversary-facing oracle.
//!
//! Under the paper's adversary model (§2.3) the attacker holds the network
//! *architecture and parameters* (the white box) but not the key, and can
//! query a working hardware instance (the oracle) with arbitrary inputs,
//! observing logits. The oracle counts queries so experiments can report the
//! query-complexity column of Table 1.

use crate::key::Key;
use relock_graph::{Graph, KeyAssignment, SerialError, WorkspacePool};
use relock_tensor::Tensor;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Failures of the fallible oracle surface.
///
/// Bare hardware oracles never fail (their [`Oracle::try_query_batch`]
/// default forwards to the infallible path), but brokered or flaky
/// transports do: a query broker enforces budgets, and a
/// real accelerator link can drop requests. Procedures that can degrade
/// gracefully (validation, error correction, the learning harvest) call
/// the `try_` surface and treat these as a signal to fall back rather
/// than panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The query budget is spent; `spent + requested` would exceed it.
    BudgetExhausted {
        /// Underlying query rows already issued.
        spent: u64,
        /// The configured budget.
        budget: u64,
        /// Rows the rejected request asked for.
        requested: u64,
    },
    /// The transport/backend failed (after any configured retries).
    Backend {
        /// Human-readable failure description.
        message: String,
        /// Attempts made before giving up (≥ 1).
        attempts: u32,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::BudgetExhausted {
                spent,
                budget,
                requested,
            } => write!(
                f,
                "query budget exhausted: {spent}/{budget} spent, {requested} more requested"
            ),
            OracleError::Backend { message, attempts } => {
                write!(
                    f,
                    "oracle backend failed after {attempts} attempt(s): {message}"
                )
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// What the oracle reveals per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputMode {
    /// Raw logits (the adversary model's stronger observation).
    #[default]
    Logits,
    /// Softmax probabilities.
    Softmax,
}

/// A trained network bundled with its secret key — the IP owner's artifact.
#[derive(Debug, Clone)]
pub struct LockedModel {
    graph: Graph,
    true_key: Key,
}

impl LockedModel {
    /// Bundles a locked graph with its key.
    ///
    /// # Panics
    ///
    /// Panics if the key length does not match the graph's slot count.
    pub fn new(graph: Graph, true_key: Key) -> Self {
        assert_eq!(
            graph.key_slot_count(),
            true_key.len(),
            "key length {} != graph slots {}",
            true_key.len(),
            graph.key_slot_count()
        );
        LockedModel { graph, true_key }
    }

    /// The network description an adversary downloads: architecture and all
    /// weights, but no key.
    pub fn white_box(&self) -> &Graph {
        &self.graph
    }

    /// The compiled execution plan of the model's graph (schedule, shapes,
    /// ancestor bitsets). Compiled on first use and cached; plan statistics
    /// (node count, per-node output sizes) are what harnesses report.
    pub fn plan(&self) -> &relock_graph::ExecPlan {
        self.graph.plan()
    }

    /// Mutable graph access (used by the trainer).
    pub fn white_box_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The secret key (ground truth; experiments only).
    pub fn true_key(&self) -> &Key {
        &self.true_key
    }

    /// Logits under the true key.
    pub fn logits(&self, x: &Tensor) -> Tensor {
        self.graph.logits(x, &self.true_key.to_assignment())
    }

    /// Logits under an arbitrary candidate key.
    pub fn logits_with(&self, x: &Tensor, key: &Key) -> Tensor {
        self.graph.logits(x, &key.to_assignment())
    }

    /// Classification accuracy on a labelled set under an arbitrary key.
    pub fn accuracy_with(&self, x: &Tensor, labels: &[usize], key: &Key) -> f64 {
        let logits = self.graph.logits_batch(x, &key.to_assignment());
        let q = logits.dims()[1];
        let mut correct = 0usize;
        for (s, &label) in labels.iter().enumerate() {
            let row = Tensor::from_slice(&logits.as_slice()[s * q..(s + 1) * q]);
            if row.argmax() == label {
                correct += 1;
            }
        }
        correct as f64 / labels.len().max(1) as f64
    }

    /// Accuracy under the true key.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f64 {
        self.accuracy_with(x, labels, &self.true_key.clone())
    }

    /// Serializes the model (graph + key) into a writer — the IP owner's
    /// on-disk artifact, consumed by the workspace CLI.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        self.graph.save(w)?;
        let bits = self.true_key.bits();
        w.write_all(&(bits.len() as u64).to_le_bytes())?;
        for &b in bits {
            w.write_all(&[u8::from(b)])?;
        }
        Ok(())
    }

    /// Deserializes a model written by [`LockedModel::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on malformed bytes or a key that does not
    /// match the graph's slot count.
    pub fn load(r: &mut impl Read) -> Result<LockedModel, SerialError> {
        let graph = Graph::load(r)?;
        let mut len_buf = [0u8; 8];
        r.read_exact(&mut len_buf).map_err(SerialError::Io)?;
        let n = u64::from_le_bytes(len_buf) as usize;
        if n != graph.key_slot_count() {
            return Err(SerialError::Corrupt(format!(
                "key length {n} does not match graph slots {}",
                graph.key_slot_count()
            )));
        }
        let mut bits = Vec::with_capacity(n);
        for _ in 0..n {
            let mut b = [0u8; 1];
            r.read_exact(&mut b).map_err(SerialError::Io)?;
            bits.push(match b[0] {
                0 => false,
                1 => true,
                t => {
                    return Err(SerialError::Corrupt(format!("bad key bit byte {t}")));
                }
            });
        }
        Ok(LockedModel::new(graph, Key::from_bits(bits)))
    }
}

/// The adversary's I/O interface to a working locked instance.
pub trait Oracle: Sync {
    /// Queries a `(B, P)` batch, returning `(B, Q)` outputs.
    fn query_batch(&self, x: &Tensor) -> Tensor;

    /// Total input rows queried so far.
    fn query_count(&self) -> u64;

    /// Input dimensionality `P`.
    fn input_dim(&self) -> usize;

    /// Output dimensionality `Q`.
    fn output_dim(&self) -> usize;

    /// Queries a single input vector.
    fn query(&self, x: &Tensor) -> Tensor {
        let b = self.query_batch(&x.reshape([1, x.numel()]));
        Tensor::from_slice(b.row(0))
    }

    /// Fallible batch query. Bare oracles never fail; brokered oracles
    /// return [`OracleError::BudgetExhausted`], and
    /// flaky transports [`OracleError::Backend`]. Budget-aware procedures
    /// must use this surface and degrade on `Err`.
    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        Ok(self.query_batch(x))
    }

    /// Fallible single query.
    fn try_query(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let b = self.try_query_batch(&x.reshape([1, x.numel()]))?;
        Ok(Tensor::from_slice(b.row(0)))
    }

    /// Underlying query rows still affordable, if this oracle enforces a
    /// budget (`None` = unlimited). Callers sizing a harvest (e.g. the
    /// learning attack's training set) clamp their request to this.
    fn remaining_budget(&self) -> Option<u64> {
        None
    }
}

/// References to oracles are oracles. This lets wrappers such as the
/// `relock-serve` broker hold `&dyn Oracle` without caring whether they
/// own the backend, and lets call sites stack wrappers without moves.
impl<O: Oracle + ?Sized> Oracle for &O {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        (**self).query_batch(x)
    }

    fn query_count(&self) -> u64 {
        (**self).query_count()
    }

    fn input_dim(&self) -> usize {
        (**self).input_dim()
    }

    fn output_dim(&self) -> usize {
        (**self).output_dim()
    }

    fn query(&self, x: &Tensor) -> Tensor {
        (**self).query(x)
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        (**self).try_query_batch(x)
    }

    fn try_query(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        (**self).try_query(x)
    }

    fn remaining_budget(&self) -> Option<u64> {
        (**self).remaining_budget()
    }
}

/// The standard oracle: a [`LockedModel`] evaluated under its true key,
/// with an atomic query counter.
///
/// Evaluation runs through the graph's planned engine: each query checks a
/// [`Workspace`](relock_graph::Workspace) out of an internal pool, so the per-node buffers of the
/// forward pass are reused across the attack's hundreds of thousands of
/// queries instead of reallocated. The pool grows to the peak number of
/// concurrently querying threads and no further.
#[derive(Debug)]
pub struct CountingOracle {
    graph: Graph,
    keys: KeyAssignment,
    mode: OutputMode,
    counter: AtomicU64,
    pool: WorkspacePool,
}

impl CountingOracle {
    /// Builds the oracle from a locked model (logit output).
    pub fn new(model: &LockedModel) -> Self {
        CountingOracle {
            graph: model.white_box().clone(),
            keys: model.true_key().to_assignment(),
            mode: OutputMode::Logits,
            counter: AtomicU64::new(0),
            pool: WorkspacePool::new(),
        }
    }

    /// Builds the oracle with an explicit output mode.
    pub fn with_mode(model: &LockedModel, mode: OutputMode) -> Self {
        CountingOracle {
            mode,
            ..CountingOracle::new(model)
        }
    }

    /// Resets the query counter (between experiment phases).
    ///
    /// Callers must not race this with in-flight queries; phases are
    /// separated by thread joins in every harness, which synchronize.
    pub fn reset_count(&self) {
        self.counter.store(0, Ordering::Relaxed);
    }

    /// Charges `rows` query rows to the counter in one atomic step — the
    /// batch-counting primitive used by [`Oracle::query_batch`] and by
    /// external accountants (e.g. a broker replaying a cached batch into a
    /// fresh counter). An N-row batch costs exactly N.
    ///
    /// `Relaxed` ordering is correct here and in [`Oracle::query_count`]:
    /// the counter is a statistic, not a synchronization point. Every
    /// reader that needs an exact total (the per-phase accounting in
    /// `Decryptor::run`, the broker's stats snapshots) reads after the
    /// worker threads that issued the queries have been joined, and
    /// `thread::scope`'s join provides the happens-before edge; `fetch_add`
    /// itself is a single atomic RMW, so no increments are lost even under
    /// concurrent batches from the attack's worker threads.
    pub fn add_queries(&self, rows: u64) {
        self.counter.fetch_add(rows, Ordering::Relaxed);
    }

    /// Workspaces currently parked in the pool (diagnostics; equals the
    /// peak number of concurrent queriers once traffic quiesces).
    pub fn pooled_workspaces(&self) -> usize {
        self.pool.idle_count()
    }
}

impl Oracle for CountingOracle {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.add_queries(x.dims()[0] as u64);
        // The RAII guard returns the workspace to the shared pool on drop,
        // so the per-node buffers of the forward pass are reused across
        // the attack's queries (and its lock is held only for the
        // check-out/check-in, never across the pass).
        let mut ws = self.pool.acquire();
        let logits = self.graph.logits_batch_into(&mut ws, x, &self.keys);
        match self.mode {
            OutputMode::Logits => logits.clone(),
            OutputMode::Softmax => {
                let (b, q) = (logits.dims()[0], logits.dims()[1]);
                let mut out = Vec::with_capacity(b * q);
                for s in 0..b {
                    let row = Tensor::from_slice(logits.row(s)).softmax();
                    out.extend_from_slice(row.as_slice());
                }
                Tensor::from_vec(out, [b, q])
            }
        }
    }

    fn query_count(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    fn input_dim(&self) -> usize {
        self.graph.input_size()
    }

    fn output_dim(&self) -> usize {
        self.graph.output_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_graph::{GraphBuilder, KeySlot, Op, UnitLayout};
    use relock_tensor::rng::Prng;

    fn tiny_locked_model() -> LockedModel {
        let mut rng = Prng::seed_from_u64(20);
        let mut gb = GraphBuilder::new();
        let x = gb.input(3);
        let l = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([4, 3]),
                    b: rng.normal_tensor([4]),
                    weight_locks: vec![],
                },
                &[x],
            )
            .unwrap();
        let k = gb
            .add(
                Op::KeyedSign {
                    layout: UnitLayout::scalar(4),
                    slots: vec![Some(KeySlot(0)), Some(KeySlot(1)), None, None],
                },
                &[l],
            )
            .unwrap();
        let r = gb.add(Op::Relu, &[k]).unwrap();
        let out = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([2, 4]),
                    b: rng.normal_tensor([2]),
                    weight_locks: vec![],
                },
                &[r],
            )
            .unwrap();
        let g = gb.build(out).unwrap();
        LockedModel::new(g, Key::from_bits(vec![true, false]))
    }

    #[test]
    fn counter_is_exact_under_concurrent_batches() {
        // The attack's sharded phases hit the counter from several threads
        // at once; every row must be counted exactly once (N per N-row
        // batch, not 1), and the post-join read must see the full total.
        let m = tiny_locked_model();
        let o = CountingOracle::new(&m);
        let threads = 8usize;
        let batches_per_thread = 25usize;
        let rows_per_batch = 3usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let o = &o;
                scope.spawn(move || {
                    let mut rng = Prng::seed_from_u64(900 + t as u64);
                    for _ in 0..batches_per_thread {
                        o.query_batch(&rng.normal_tensor([rows_per_batch, 3]));
                    }
                });
            }
        });
        assert_eq!(
            o.query_count(),
            (threads * batches_per_thread * rows_per_batch) as u64
        );
        // The workspace pool must not leak: it ends with at most one
        // workspace per peak-concurrent querier, and at least one overall.
        let pooled = o.pooled_workspaces();
        assert!(
            (1..=threads).contains(&pooled),
            "pool holds {pooled} workspaces after {threads} threads"
        );
    }

    #[test]
    fn reference_to_oracle_is_an_oracle() {
        let m = tiny_locked_model();
        let o = CountingOracle::new(&m);
        let by_ref: &dyn Oracle = &&o;
        let mut rng = Prng::seed_from_u64(901);
        let x = rng.normal_tensor([3]);
        assert_eq!(by_ref.input_dim(), 3);
        let direct = o.query(&x);
        let through_ref = by_ref.try_query(&x).unwrap();
        assert_eq!(direct.as_slice(), through_ref.as_slice());
        assert_eq!(by_ref.query_count(), 2);
        assert_eq!(by_ref.remaining_budget(), None);
    }

    #[test]
    fn oracle_counts_rows() {
        let m = tiny_locked_model();
        let o = CountingOracle::new(&m);
        let mut rng = Prng::seed_from_u64(21);
        o.query(&rng.normal_tensor([3]));
        o.query_batch(&rng.normal_tensor([5, 3]));
        assert_eq!(o.query_count(), 6);
        o.reset_count();
        assert_eq!(o.query_count(), 0);
    }

    #[test]
    fn oracle_matches_true_key_logits() {
        let m = tiny_locked_model();
        let o = CountingOracle::new(&m);
        let mut rng = Prng::seed_from_u64(22);
        let x = rng.normal_tensor([3]);
        assert!(o.query(&x).max_abs_diff(&m.logits(&x)) < 1e-15);
    }

    #[test]
    fn wrong_key_changes_outputs() {
        let m = tiny_locked_model();
        let mut rng = Prng::seed_from_u64(23);
        // A wrong key must disagree with the oracle somewhere.
        let wrong = Key::from_bits(vec![false, false]);
        let mut differs = false;
        for _ in 0..10 {
            let x = rng.normal_tensor([3]);
            if m.logits(&x).max_abs_diff(&m.logits_with(&x, &wrong)) > 1e-9 {
                differs = true;
                break;
            }
        }
        assert!(differs, "flipping a key bit should change the function");
    }

    #[test]
    fn softmax_mode_normalizes() {
        let m = tiny_locked_model();
        let o = CountingOracle::with_mode(&m, OutputMode::Softmax);
        let mut rng = Prng::seed_from_u64(24);
        let y = o.query(&rng.normal_tensor([3]));
        assert!((y.sum() - 1.0).abs() < 1e-12);
    }
}
