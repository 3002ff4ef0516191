//! Compiled execution plans and reusable evaluation workspaces.
//!
//! The attack loops in `relock-attack` evaluate the same graph tens of
//! thousands of times with different inputs and key hypotheses. The legacy
//! entry points ([`Graph::forward`](crate::Graph::forward) and friends)
//! rebuild every per-node buffer, re-derive the ancestor set of the target
//! node, and re-materialize every locked layer's effective weight matrix on
//! *each* call. This module factors all of that out:
//!
//! - [`ExecPlan`]: per-graph analysis computed once — the topological
//!   schedule (node order is already topological by construction), static
//!   output sizes, per-node **ancestor bitsets** (replacing the per-call
//!   `HashSet` of `Graph::ancestors_of`), and a last-use table for tangent
//!   liveness in the forward-mode Jacobian.
//! - [`Workspace`]: owned, auto-resizing per-node value/saved buffers that
//!   successive passes overwrite in place, plus a cache of effective locked
//!   weight matrices keyed by `(weights generation, key generation)` so a
//!   locked `Linear` only re-applies its §3.9(b) weight locks when either
//!   the parameters or the key assignment actually changed.
//! - [`MovingSet`]: the split of a graph for keys-only training while only
//!   some key slots move — the nodes a training step must recompute, and
//!   the frozen frontier it reads from a cache.
//!
//! A workspace is graph-agnostic: it sizes itself to whatever graph it is
//! handed, so one workspace can serve many graphs (though reusing it for a
//! single graph is what makes it fast).

use crate::graph::{Graph, NodeId};
use crate::key::KeySlot;
use crate::op::{Op, Saved};
use relock_tensor::Tensor;

/// Per-graph execution analysis, computed once and cached on the graph
/// (see [`Graph::plan`](crate::Graph::plan)).
///
/// The plan depends only on graph *structure* (topology and shapes), never
/// on parameter values or keys, so it survives weight mutation.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    n_nodes: usize,
    /// `u64` words per ancestor bitset.
    words: usize,
    /// Row-major `n_nodes × words` bitset matrix: bit `j` of row `i` is set
    /// iff node `j` is an ancestor of node `i` (inclusive).
    ancestors: Vec<u64>,
    /// Static output width of every node.
    out_sizes: Vec<usize>,
    /// Index of the last node consuming each node's value (the node's own
    /// index if it has no consumers) — the liveness horizon after which a
    /// tangent or scratch buffer for that node is dead.
    last_use: Vec<usize>,
    /// Whether each node is a `Linear` or `Conv2d` whose only input is the
    /// graph input: affine in the input, so a line pass evaluates it in
    /// closed form.
    input_affine: Vec<bool>,
    /// Whether a line pass to each node must build the line's points: the
    /// node is the input, or an ancestor reads the input other than
    /// through an input-affine node (a `KeyedTrigger`'s signature branch).
    line_points: Vec<bool>,
}

impl ExecPlan {
    /// Analyzes a graph. Nodes are stored in topological order, so a single
    /// forward sweep suffices to close the ancestor relation.
    pub(crate) fn compile(g: &Graph) -> ExecPlan {
        let n = g.nodes().len();
        let words = n.div_ceil(64).max(1);
        let mut ancestors = vec![0u64; n * words];
        let mut out_sizes = Vec::with_capacity(n);
        let mut last_use: Vec<usize> = (0..n).collect();
        for (i, node) in g.nodes().iter().enumerate() {
            let (done, rest) = ancestors.split_at_mut(i * words);
            let row = &mut rest[..words];
            for inp in &node.inputs {
                let src = &done[inp.0 * words..(inp.0 + 1) * words];
                for (r, s) in row.iter_mut().zip(src) {
                    *r |= *s;
                }
                last_use[inp.0] = last_use[inp.0].max(i);
            }
            row[i / 64] |= 1u64 << (i % 64);
            out_sizes.push(node.out_size);
        }
        let input_affine: Vec<bool> = g
            .nodes()
            .iter()
            .map(|node| {
                matches!(node.op, Op::Linear { .. } | Op::Conv2d { .. })
                    && node.inputs == [g.input_id()]
            })
            .collect();
        let reads_points: Vec<usize> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|&(i, node)| node.inputs.contains(&g.input_id()) && !input_affine[i])
            .map(|(i, _)| i)
            .collect();
        let line_points = (0..n)
            .map(|i| {
                NodeId(i) == g.input_id()
                    || reads_points
                        .iter()
                        .any(|&j| ancestors[i * words + j / 64] >> (j % 64) & 1 == 1)
            })
            .collect();
        ExecPlan {
            n_nodes: n,
            words,
            ancestors,
            out_sizes,
            last_use,
            input_affine,
            line_points,
        }
    }

    /// Number of nodes in the graph this plan was compiled for.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Whether `node` is an ancestor of `target` (inclusive).
    #[inline]
    pub fn is_ancestor(&self, node: NodeId, target: NodeId) -> bool {
        let row = target.0 * self.words;
        self.ancestors[row + node.0 / 64] >> (node.0 % 64) & 1 == 1
    }

    /// Static output width of a node.
    #[inline]
    pub fn out_size(&self, node: NodeId) -> usize {
        self.out_sizes[node.0]
    }

    /// Index of the last node that consumes `node`'s value (its own index
    /// if nothing does).
    #[inline]
    pub fn last_use(&self, node: NodeId) -> usize {
        self.last_use[node.0]
    }

    /// Whether `node` is a `Linear` or `Conv2d` fed only by the graph
    /// input, which a line pass evaluates in closed form.
    #[inline]
    pub fn is_input_affine(&self, node: NodeId) -> bool {
        self.input_affine[node.0]
    }

    /// Whether a line pass to `target` must build the line's points (see
    /// [`Graph::eval_line_into`](crate::Graph::eval_line_into)).
    #[inline]
    pub fn line_needs_points(&self, target: NodeId) -> bool {
        self.line_points[target.0]
    }

    /// Number of ancestors of `target` (inclusive) — the work a partial
    /// forward pass to `target` actually performs.
    pub fn ancestor_count(&self, target: NodeId) -> usize {
        let row = &self.ancestors[target.0 * self.words..(target.0 + 1) * self.words];
        row.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// What a keys-only training pass does with one node (see [`MovingSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Neither moving nor below the frontier: no pass computes it.
    Idle,
    /// Frozen, below the frontier: only the frontier pass computes it.
    Feeds,
    /// Frozen and read by a moving node (or the output when nothing moving
    /// reaches it), at this index of [`MovingSet::frontier`].
    Frontier(usize),
    /// Reads a moving key slot or a moving node.
    Moving,
}

/// The split of a graph for keys-only training while only some key slots
/// move (the §3.6 learning attack).
///
/// A node is **moving** when it reads a moving slot or has a moving input;
/// every other node is frozen, so its value at a given input row is the
/// same at every step. The **frontier** is the frozen nodes a moving node
/// reads, plus the output when no moving node reaches it.
/// [`Graph::eval_frontier_into`](crate::Graph::eval_frontier_into)
/// evaluates the frontier once per training set,
/// [`Graph::forward_moving_into`](crate::Graph::forward_moving_into)
/// gathers a step's rows from it and runs only the moving nodes, and
/// [`Graph::backward_keys_into`](crate::Graph::backward_keys_into)
/// propagates key gradients through the moving nodes alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovingSet {
    roles: Vec<Role>,
    frontier: Vec<NodeId>,
}

impl MovingSet {
    /// The split of `g` in which exactly the slots where `moves` holds
    /// move. `|_| true` gives the split of a plain keys-only pass.
    pub fn new(g: &Graph, moves: impl Fn(KeySlot) -> bool) -> MovingSet {
        let nodes = g.nodes();
        let mut roles = vec![Role::Idle; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            if node.op.key_slots().into_iter().any(&moves)
                || node.inputs.iter().any(|inp| roles[inp.0] == Role::Moving)
            {
                roles[i] = Role::Moving;
            }
        }
        let mut read = vec![false; nodes.len()];
        read[g.output_id().0] = true;
        for (node, role) in nodes.iter().zip(&roles) {
            if *role == Role::Moving {
                for inp in &node.inputs {
                    read[inp.0] = true;
                }
            }
        }
        let mut frontier = Vec::new();
        for (i, role) in roles.iter_mut().enumerate() {
            if *role != Role::Moving && read[i] {
                *role = Role::Frontier(frontier.len());
                frontier.push(NodeId(i));
            }
        }
        // Every ancestor of a frozen node is frozen; the frontier pass
        // computes the frontier's.
        for i in (0..nodes.len()).rev() {
            if matches!(roles[i], Role::Frontier(_) | Role::Feeds) {
                for inp in &nodes[i].inputs {
                    if roles[inp.0] == Role::Idle {
                        roles[inp.0] = Role::Feeds;
                    }
                }
            }
        }
        MovingSet { roles, frontier }
    }

    /// Whether `node` is moving.
    #[inline]
    pub(crate) fn is_moving(&self, node: NodeId) -> bool {
        self.roles[node.0] == Role::Moving
    }

    /// The frontier nodes, in topological order.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// The index of `node` in [`MovingSet::frontier`], if it is there.
    #[inline]
    pub(crate) fn frontier_index(&self, node: NodeId) -> Option<usize> {
        match self.roles[node.0] {
            Role::Frontier(k) => Some(k),
            _ => None,
        }
    }

    /// Whether the frontier pass computes `node`: a frontier node or one
    /// of its ancestors.
    #[inline]
    pub(crate) fn feeds_frontier(&self, node: NodeId) -> bool {
        matches!(self.roles[node.0], Role::Frontier(_) | Role::Feeds)
    }

    /// Whether the moving pass produces `node`: moving, or gathered from
    /// the frontier.
    #[inline]
    pub(crate) fn in_moving_pass(&self, node: NodeId) -> bool {
        matches!(self.roles[node.0], Role::Frontier(_) | Role::Moving)
    }
}

/// A cached **transposed** effective weight matrix (`(in, out)` layout) of
/// one `Linear` node, valid for one `(weights, keys)` generation pair.
///
/// Transposed storage lets the planned forward run the batched product in
/// row-major `A · B` form, whose inner loop vectorizes across output
/// columns — the per-element accumulation order (ascending `k`) is the
/// same as the `A · Bᵀ` reference, so results stay bit-identical. Unlocked
/// layers ignore the key generation (their matrix never depends on keys).
#[derive(Debug, Clone)]
pub(crate) struct EffWeight {
    pub(crate) weights_gen: u64,
    pub(crate) keys_gen: u64,
    pub(crate) wt: Tensor,
}

/// Reusable per-pass buffers for planned graph execution.
///
/// Create one with [`Workspace::new`] and hand it to
/// [`Graph::forward_into`](crate::Graph::forward_into) /
/// [`Graph::forward_partial_into`](crate::Graph::forward_partial_into);
/// every subsequent pass overwrites the same buffers instead of
/// reallocating them. Read results back with [`Workspace::value`],
/// [`Workspace::scalar`] and [`Workspace::saved_of`], which mirror the
/// [`Activations`](crate::Activations) accessors.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per-node `(batch, size)` outputs of the latest pass.
    pub(crate) values: Vec<Tensor>,
    /// Per-node saved contexts of the latest pass.
    pub(crate) saved: Vec<Saved>,
    /// Whether the latest pass computed each node (partial passes skip
    /// non-ancestors, leaving stale buffers behind the flag).
    pub(crate) live: Vec<bool>,
    /// Batch size of the latest pass.
    pub(crate) batch: usize,
    /// Effective-weight cache for locked `Linear` nodes.
    pub(crate) eff_weights: Vec<Option<EffWeight>>,
    /// Reverse-pass per-node cotangent scratch.
    pub(crate) grad_buf: Vec<Option<Tensor>>,
    /// Cached `P × P` identity used to seed the input tangent bundle.
    pub(crate) eye: Option<Tensor>,
    /// Forward passes served so far (first pass allocates, the rest reuse).
    pub(crate) passes: u64,
}

impl Workspace {
    /// An empty workspace; it sizes itself to the first graph it executes.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Grows the per-node buffer tables to cover `n` nodes.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.values.len() < n {
            self.values.resize_with(n, || Tensor::zeros([0]));
            self.saved.resize_with(n, || Saved::None);
            self.live.resize(n, false);
            self.eff_weights.resize_with(n, || None);
            self.grad_buf.resize_with(n, || None);
        }
    }

    /// The `(batch, size)` value of a node from the latest pass.
    ///
    /// # Panics
    ///
    /// Panics with the graph size and node index if the ID is out of range
    /// or the node was skipped by the latest (partial) pass.
    pub fn value(&self, id: NodeId) -> &Tensor {
        match self.live.get(id.index()) {
            Some(true) => &self.values[id.index()],
            Some(false) => panic!(
                "workspace value for node {id} was not computed by the latest \
                 pass (workspace covers {} nodes)",
                self.live.len()
            ),
            None => panic!(
                "node {id} out of range for workspace covering {} nodes",
                self.live.len()
            ),
        }
    }

    /// The saved forward context of a node from the latest pass.
    ///
    /// # Panics
    ///
    /// Panics with the graph size and node index if the ID is out of range
    /// or the node was skipped by the latest (partial) pass.
    pub fn saved_of(&self, id: NodeId) -> &Saved {
        match self.live.get(id.index()) {
            Some(true) => &self.saved[id.index()],
            Some(false) => panic!(
                "workspace saved context for node {id} was not computed by \
                 the latest pass (workspace covers {} nodes)",
                self.live.len()
            ),
            None => panic!(
                "node {id} out of range for workspace covering {} nodes",
                self.live.len()
            ),
        }
    }

    /// Scalar value of element `e` of a node for sample `s`.
    ///
    /// # Panics
    ///
    /// Panics with the offending indices, the node's shape, and the graph
    /// size if anything is out of range.
    pub fn scalar(&self, id: NodeId, s: usize, e: usize) -> f64 {
        let v = self.value(id);
        let d = v.dims();
        assert!(
            s < d[0] && e < d[1],
            "scalar({id}, sample {s}, element {e}) out of bounds for node \
             value of shape {d:?} (workspace covers {} nodes)",
            self.live.len()
        );
        v.get2(s, e)
    }

    /// Batch size of the latest pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Whether the latest pass computed `id`.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// Forward passes this workspace has served. Every pass after the first
    /// runs entirely in reused buffers, so `passes() - 1` passes avoided
    /// their per-node allocations.
    pub fn passes(&self) -> u64 {
        self.passes
    }
}
