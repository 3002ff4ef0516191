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
//!
//! A workspace is graph-agnostic: it sizes itself to whatever graph it is
//! handed, so one workspace can serve many graphs (though reusing it for a
//! single graph is what makes it fast).

use crate::graph::{Graph, NodeId};
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
    /// Whether any **strict** ancestor of each node consults the key
    /// assignment. When false, a keys-only reverse pass has no reason to
    /// propagate a gradient through the node's inputs — nothing below can
    /// turn it into a key gradient.
    keyed_below: Vec<bool>,
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
        let keyed: Vec<usize> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, node)| node.op.is_keyed())
            .map(|(i, _)| i)
            .collect();
        let keyed_below = (0..n)
            .map(|i| {
                keyed
                    .iter()
                    .any(|&j| j != i && ancestors[i * words + j / 64] >> (j % 64) & 1 == 1)
            })
            .collect();
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
            keyed_below,
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

    /// Whether any strict ancestor of `node` consults the key assignment —
    /// i.e. whether a keys-only reverse pass must keep propagating below it.
    #[inline]
    pub fn keyed_below(&self, node: NodeId) -> bool {
        self.keyed_below[node.0]
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
