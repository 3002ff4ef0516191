//! Graph execution: batched forward, reverse-mode backward, and the
//! forward-mode input Jacobian (the paper's product weight matrix Â).
//!
//! Two families of entry points coexist:
//!
//! - **Planned** (`*_into`): execute through a compiled [`ExecPlan`] into a
//!   caller-owned [`Workspace`], reusing every per-node buffer across calls.
//!   These are what the attack's query loops use.
//! - **Legacy** ([`Graph::forward`], [`Graph::logits`], …): allocate a fresh
//!   workspace per call and return owned [`Activations`]. They are thin
//!   wrappers over the planned path and remain the convenient API for
//!   one-shot evaluation.
//!
//! The planned schedule also takes a line instead of a batch:
//! [`Graph::eval_line_into`] evaluates a target at the points `a + tᵢ·d`,
//! filling each input-fed `Linear` or `Conv2d` in closed form. It agrees
//! with the batch pass to rounding, not bit for bit, so only the §3.5
//! line scan uses it.
//!
//! The §3.6 keys-only training step runs the same loop split in two by a
//! [`MovingSet`]: [`Graph::eval_frontier_into`] evaluates the frozen
//! frontier once per training set, [`Graph::forward_moving_into`] gathers
//! a step's rows from it and runs only the moving nodes, and
//! [`Graph::backward_keys_into`] is the keys-only reverse pass bounded by
//! the moving set. Both agree with the full passes bit for bit.
//!
//! The original direct implementations survive as `*_reference` (hidden):
//! they are the oracle the planned path is property-tested **bit-identical**
//! against, and what the benchmarks compare to.

use crate::graph::{Graph, NodeId};
use crate::key::KeyAssignment;
use crate::op::{Op, Saved};
use crate::plan::{EffWeight, MovingSet, Workspace};
use relock_tensor::Tensor;

/// The input of a planned pass.
#[derive(Clone, Copy)]
enum PassInput<'a> {
    /// A `(batch, P)` matrix of points, or one rank-1 point.
    Batch(&'a Tensor),
    /// The points `anchor + tᵢ·dir` of a line, one row per `tᵢ`; `points`
    /// says whether the pass must build them (see
    /// [`ExecPlan::line_needs_points`](crate::ExecPlan::line_needs_points)).
    Line {
        anchor: &'a Tensor,
        dir: &'a Tensor,
        ts: &'a [f64],
        points: bool,
    },
    /// The given rows of a moving set's cached frontier, one tensor per
    /// frontier node; the pass gathers them and runs the moving nodes.
    Frontier {
        moving: &'a MovingSet,
        cache: &'a [Tensor],
        rows: &'a [usize],
    },
}

/// What a planned reverse pass produces.
enum Reverse<'a> {
    /// Parameter gradients into the per-node slots, plus every key
    /// gradient.
    Params(&'a mut [Option<(Tensor, Tensor)>]),
    /// Key gradients only, propagated through the moving nodes alone.
    Keys(&'a MovingSet),
}

/// All per-node values and saved contexts from one forward pass.
#[derive(Debug, Clone)]
pub struct Activations {
    values: Vec<Tensor>,
    saved: Vec<Saved>,
    batch: usize,
}

impl Activations {
    /// The `(batch, size)` value of a node.
    ///
    /// # Panics
    ///
    /// Panics, naming the node index and the graph size, if the ID is out
    /// of range.
    pub fn value(&self, id: NodeId) -> &Tensor {
        match self.values.get(id.index()) {
            Some(v) => v,
            None => panic!(
                "node {id} out of range for activations of a graph with {} nodes",
                self.values.len()
            ),
        }
    }

    /// Batch size of this pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The saved forward context of a node (mask, winners, …).
    ///
    /// # Panics
    ///
    /// Panics, naming the node index and the graph size, if the ID is out
    /// of range.
    pub fn saved_of(&self, id: NodeId) -> &Saved {
        match self.saved.get(id.index()) {
            Some(s) => s,
            None => panic!(
                "node {id} out of range for activations of a graph with {} nodes",
                self.saved.len()
            ),
        }
    }

    /// Scalar value of element `e` of a node for sample `s`.
    ///
    /// # Panics
    ///
    /// Panics, naming the offending indices, the node's shape, and the
    /// graph size, if anything is out of range.
    pub fn scalar(&self, id: NodeId, s: usize, e: usize) -> f64 {
        let v = self.value(id);
        let d = v.dims();
        assert!(
            v.rank() == 2 && s < d[0] && e < d[1],
            "scalar({id}, sample {s}, element {e}) out of bounds for node \
             value of shape {d:?} in a graph with {} nodes",
            self.values.len()
        );
        v.get2(s, e)
    }
}

/// Gradients produced by [`Graph::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    /// Per-node `(weight-like, bias-like)` parameter gradients; `None` for
    /// parameterless nodes.
    pub params: Vec<Option<(Tensor, Tensor)>>,
    /// Gradient of the loss with respect to each continuous key multiplier.
    pub keys: Vec<f64>,
}

impl Gradients {
    /// Sum of squared parameter-gradient entries (diagnostic).
    pub fn param_norm_sq(&self) -> f64 {
        self.params
            .iter()
            .flatten()
            .map(|(w, b)| {
                w.as_slice().iter().map(|x| x * x).sum::<f64>()
                    + b.as_slice().iter().map(|x| x * x).sum::<f64>()
            })
            .sum()
    }
}

/// Moves a workspace's buffers out into legacy [`Activations`], restoring
/// the legacy placeholder convention (`Tensor::zeros([0])`) for nodes the
/// pass skipped.
fn into_activations(ws: Workspace, n: usize) -> Activations {
    let Workspace {
        mut values,
        mut saved,
        live,
        batch,
        ..
    } = ws;
    values.truncate(n);
    saved.truncate(n);
    for (i, &l) in live.iter().enumerate().take(n) {
        if !l {
            values[i] = Tensor::zeros([0]);
            saved[i] = Saved::None;
        }
    }
    Activations {
        values,
        saved,
        batch,
    }
}

/// Returns the workspace-cached **transposed** effective weight of a
/// `Linear` node, rebuilding it only when the weights — or, for layers
/// with §3.9(b) weight locks, the key assignment — changed since it was
/// materialized. Unlocked layers keep one transpose for the lifetime of
/// the weights, however often the keys move (the learning attack mutates
/// keys every step).
fn cached_eff_weight<'a>(
    slot: &'a mut Option<EffWeight>,
    op: &Op,
    keys: &KeyAssignment,
    weights_gen: u64,
) -> &'a Tensor {
    let key_dependent = matches!(op, Op::Linear { weight_locks, .. } if !weight_locks.is_empty());
    let keys_gen = keys.generation();
    let valid = matches!(slot, Some(e) if e.weights_gen == weights_gen
        && (!key_dependent || e.keys_gen == keys_gen));
    if !valid {
        *slot = Some(EffWeight {
            weights_gen,
            keys_gen,
            wt: crate::forward::effective_linear_weight(op, keys).transpose(),
        });
    }
    &slot.as_ref().expect("just filled").wt
}

impl Graph {
    /// Planned forward pass of the whole graph into a reusable workspace.
    ///
    /// `x` is `(batch, P)`; pass a rank-1 tensor for a single sample. Read
    /// results back through [`Workspace::value`] and friends. Bit-identical
    /// to the legacy [`Graph::forward`].
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the graph.
    pub fn forward_into(&self, ws: &mut Workspace, x: &Tensor, keys: &KeyAssignment) {
        self.run_planned(ws, PassInput::Batch(x), keys, &|_| true)
    }

    /// Planned forward pass computing **only the ancestors of `target`**
    /// (inclusive); the workspace's other nodes stay non-live.
    ///
    /// The attack's single-point evaluations (bisection, ε-search, region
    /// signatures, second differences) run through it and pay neither for
    /// the layers above their target nor for re-allocating buffers.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the graph.
    pub fn forward_partial_into(
        &self,
        ws: &mut Workspace,
        x: &Tensor,
        keys: &KeyAssignment,
        target: NodeId,
    ) {
        let plan = self.plan();
        self.run_planned(ws, PassInput::Batch(x), keys, &|id| {
            plan.is_ancestor(id, target)
        })
    }

    /// Planned partial pass along a line: evaluates `target` (and its
    /// ancestors) at the points `anchor + tᵢ·dir` and returns its
    /// `(ts.len(), size)` value inside the workspace.
    ///
    /// Each `Linear` or `Conv2d` fed only by the graph input is affine in
    /// the input, so it is evaluated twice, at `anchor` and (without its
    /// bias) along `dir`, and its rows are filled as `f(anchor) +
    /// tᵢ·L(dir)`. Every other node runs exactly as in the batch pass. The
    /// `(ts.len(), P)` points are built only when an ancestor reads the
    /// input through something else (a `KeyedTrigger`'s signature).
    ///
    /// The result agrees with [`Graph::eval_node_into`] on the same points
    /// up to rounding, not bit for bit. That suffices for the §3.5 line
    /// scan, which reads only signs; every value whose bits matter
    /// (bisection midpoints, Jacobians, oracle probes) comes from the
    /// batch pass.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` or `dir` does not match the graph's input width.
    pub fn eval_line_into<'w>(
        &self,
        ws: &'w mut Workspace,
        anchor: &Tensor,
        dir: &Tensor,
        ts: &[f64],
        keys: &KeyAssignment,
        target: NodeId,
    ) -> &'w Tensor {
        let plan = self.plan();
        let points = plan.line_needs_points(target);
        let line = PassInput::Line {
            anchor,
            dir,
            ts,
            points,
        };
        self.run_planned(ws, line, keys, &|id| plan.is_ancestor(id, target));
        ws.value(target)
    }

    /// Evaluates `moving`'s frontier at every row of `x` into `cache`,
    /// one `(rows, width)` tensor per [`MovingSet::frontier`] node, running
    /// only the frontier and its ancestors over `chunk` rows at a time.
    ///
    /// A row's values never depend on its batch mates (every op works per
    /// row, and every gemm accumulates each output element on its own), so
    /// the cache holds exactly the bits a full pass over any batch would
    /// compute for those rows while no frozen node's keys change. Chunks
    /// the size of a training step keep each product below the kernels'
    /// threading threshold.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a `(rows, P)` matrix or `chunk` is zero.
    pub fn eval_frontier_into(
        &self,
        ws: &mut Workspace,
        moving: &MovingSet,
        x: &Tensor,
        keys: &KeyAssignment,
        chunk: usize,
        cache: &mut Vec<Tensor>,
    ) {
        assert!(chunk > 0, "frontier chunk must be positive");
        let (rows, p) = (x.dims()[0], x.dims()[1]);
        let frontier = moving.frontier();
        cache.resize_with(frontier.len(), || Tensor::zeros([0]));
        for (c, &id) in cache.iter_mut().zip(frontier) {
            c.reset_shape([rows, self.nodes[id.index()].out_size]);
        }
        let mut xc = Tensor::zeros([0]);
        for lo in (0..rows).step_by(chunk) {
            let hi = (lo + chunk).min(rows);
            xc.reset_shape([hi - lo, p]);
            xc.as_mut_slice()
                .copy_from_slice(&x.as_slice()[lo * p..hi * p]);
            self.run_planned(ws, PassInput::Batch(&xc), keys, &|id| {
                moving.feeds_frontier(id)
            });
            for (c, &id) in cache.iter_mut().zip(frontier) {
                let v = ws.value(id).as_slice();
                let w = v.len() / (hi - lo);
                c.as_mut_slice()[lo * w..hi * w].copy_from_slice(v);
            }
        }
    }

    /// Planned forward pass of one keys-only training step: gathers `rows`
    /// of the frontier `cache` (from [`Graph::eval_frontier_into`] with the
    /// same `moving`) and runs the moving nodes on them. The output's value
    /// is bit-identical to [`Graph::forward_into`] on those rows of the
    /// training set, and the workspace holds what
    /// [`Graph::backward_keys_into`] reads.
    pub fn forward_moving_into(
        &self,
        ws: &mut Workspace,
        moving: &MovingSet,
        cache: &[Tensor],
        rows: &[usize],
        keys: &KeyAssignment,
    ) {
        let input = PassInput::Frontier {
            moving,
            cache,
            rows,
        };
        self.run_planned(ws, input, keys, &|id| moving.in_moving_pass(id))
    }

    /// The one planned schedule loop: computes, in topological order,
    /// every node `wanted` selects from `input`.
    fn run_planned(
        &self,
        ws: &mut Workspace,
        input: PassInput<'_>,
        keys: &KeyAssignment,
        wanted: &dyn Fn(NodeId) -> bool,
    ) {
        let p = self.input_size();
        let batch = match input {
            PassInput::Batch(x) => {
                let (batch, width) = if x.rank() == 1 {
                    (1, x.numel())
                } else {
                    assert_eq!(x.rank(), 2, "graph input must be rank 1 or 2");
                    (x.dims()[0], x.dims()[1])
                };
                assert_eq!(width, p, "input width {width} != graph input {p}");
                batch
            }
            PassInput::Line {
                anchor, dir, ts, ..
            } => {
                assert_eq!(anchor.numel(), p, "line anchor width != graph input {p}");
                assert_eq!(dir.numel(), p, "line direction width != graph input {p}");
                ts.len()
            }
            PassInput::Frontier { rows, .. } => rows.len(),
        };
        let plan = self.plan();
        let n = self.nodes.len();
        ws.ensure(n);
        ws.batch = batch;
        ws.passes += 1;
        let weights_gen = self.weights_gen;
        let Workspace {
            values,
            saved,
            live,
            eff_weights,
            ..
        } = &mut *ws;
        for flag in live.iter_mut() {
            *flag = false;
        }
        for idx in 0..n {
            if !wanted(NodeId(idx)) {
                continue;
            }
            let node = &self.nodes[idx];
            // Node inputs precede the node in topological order, so the
            // output buffer and the input buffers never alias.
            let (done, rest) = values.split_at_mut(idx);
            let out = &mut rest[0];
            if let PassInput::Frontier {
                moving,
                cache,
                rows,
            } = input
            {
                if let Some(k) = moving.frontier_index(NodeId(idx)) {
                    let src = &cache[k];
                    let w = src.dims()[1];
                    out.reset_shape([batch, w]);
                    for (dst, &r) in out.as_mut_slice().chunks_exact_mut(w).zip(rows) {
                        dst.copy_from_slice(src.row(r));
                    }
                    saved[idx] = Saved::None;
                    live[idx] = true;
                    continue;
                }
            }
            if matches!(node.op, Op::Input { .. }) {
                match input {
                    PassInput::Batch(x) => {
                        out.reset_shape([batch, p]);
                        out.as_mut_slice().copy_from_slice(x.as_slice());
                    }
                    PassInput::Frontier { .. } => {
                        unreachable!("the input is frozen, so the frontier holds it")
                    }
                    PassInput::Line {
                        anchor,
                        dir,
                        ts,
                        points,
                    } => {
                        if !points {
                            continue;
                        }
                        out.reset_shape([batch, p]);
                        let (a, d) = (anchor.as_slice(), dir.as_slice());
                        for (row, &t) in out.as_mut_slice().chunks_exact_mut(p).zip(ts) {
                            for ((o, &ai), &di) in row.iter_mut().zip(a).zip(d) {
                                *o = ai + t * di;
                            }
                        }
                    }
                }
                saved[idx] = Saved::None;
                live[idx] = true;
                continue;
            }
            let w_eff = match &node.op {
                Op::Linear { .. } => Some(cached_eff_weight(
                    &mut eff_weights[idx],
                    &node.op,
                    keys,
                    weights_gen,
                )),
                _ => None,
            };
            let sv = &mut saved[idx];
            if let PassInput::Line {
                anchor, dir, ts, ..
            } = input
            {
                if plan.is_input_affine(NodeId(idx)) {
                    node.op.affine_line_into(anchor, dir, ts, w_eff, out);
                    *sv = Saved::None;
                    live[idx] = true;
                    continue;
                }
            }
            let run = |inputs: &[&Tensor], out: &mut Tensor, sv: &mut Saved| {
                if !node.op.forward_batch_into(inputs, keys, w_eff, out, sv) {
                    let (v, s) = node.op.forward_batch(inputs, keys);
                    *out = v;
                    *sv = s;
                }
            };
            match *node.inputs.as_slice() {
                [a] => run(&[&done[a.0]], out, sv),
                [a, b] => run(&[&done[a.0], &done[b.0]], out, sv),
                [a, b, c] => run(&[&done[a.0], &done[b.0], &done[c.0]], out, sv),
                _ => {
                    let refs: Vec<&Tensor> = node.inputs.iter().map(|i| &done[i.0]).collect();
                    run(&refs, out, sv)
                }
            }
            live[idx] = true;
        }
    }

    /// Planned single-node evaluation: runs a partial pass to `target` and
    /// returns a borrow of its `(batch, size)` value inside the workspace.
    pub fn eval_node_into<'w>(
        &self,
        ws: &'w mut Workspace,
        x: &Tensor,
        keys: &KeyAssignment,
        target: NodeId,
    ) -> &'w Tensor {
        self.forward_partial_into(ws, x, keys, target);
        ws.value(target)
    }

    /// Planned batched logits: runs a partial pass to the output node and
    /// returns a borrow of the `(batch, Q)` logits inside the workspace.
    pub fn logits_batch_into<'w>(
        &self,
        ws: &'w mut Workspace,
        x: &Tensor,
        keys: &KeyAssignment,
    ) -> &'w Tensor {
        self.forward_partial_into(ws, x, keys, self.output);
        ws.value(self.output)
    }

    /// Runs a batched forward pass.
    ///
    /// `x` is `(batch, P)`; pass a rank-1 tensor for a single sample.
    /// Allocates a fresh workspace per call; loops should use
    /// [`Graph::forward_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the graph.
    pub fn forward(&self, x: &Tensor, keys: &KeyAssignment) -> Activations {
        let mut ws = Workspace::new();
        self.forward_into(&mut ws, x, keys);
        into_activations(ws, self.nodes.len())
    }

    /// Runs a forward pass computing **only the ancestors of `target`**
    /// (inclusive). Non-ancestor nodes get empty placeholder values; only
    /// touch nodes in `target`'s ancestor set on the returned activations.
    ///
    /// Allocates a fresh workspace per call; loops should use
    /// [`Graph::forward_partial_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the graph.
    pub fn forward_partial(&self, x: &Tensor, keys: &KeyAssignment, target: NodeId) -> Activations {
        let mut ws = Workspace::new();
        self.forward_partial_into(&mut ws, x, keys, target);
        into_activations(ws, self.nodes.len())
    }

    /// Evaluates only `target` (and its ancestors), returning its
    /// `(batch, size)` value. See [`Graph::forward_partial`].
    pub fn eval_node(&self, x: &Tensor, keys: &KeyAssignment, target: NodeId) -> Tensor {
        let mut ws = Workspace::new();
        self.eval_node_into(&mut ws, x, keys, target).clone()
    }

    /// Convenience: logits of a single input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a vector of the graph's input width.
    pub fn logits(&self, x: &Tensor, keys: &KeyAssignment) -> Tensor {
        let mut ws = Workspace::new();
        Tensor::from_slice(self.logits_batch_into(&mut ws, x, keys).row(0))
    }

    /// Convenience: batched logits, `(batch, Q)`.
    pub fn logits_batch(&self, x: &Tensor, keys: &KeyAssignment) -> Tensor {
        let mut ws = Workspace::new();
        self.logits_batch_into(&mut ws, x, keys).clone()
    }

    /// The original direct forward implementation, kept as the oracle the
    /// planned path is property-tested bit-identical against.
    #[doc(hidden)]
    pub fn forward_reference(&self, x: &Tensor, keys: &KeyAssignment) -> Activations {
        let x = if x.rank() == 1 {
            x.reshape([1, x.numel()])
        } else {
            x.clone()
        };
        assert_eq!(
            x.dims()[1],
            self.input_size(),
            "input width {} != graph input {}",
            x.dims()[1],
            self.input_size()
        );
        let batch = x.dims()[0];
        let n = self.nodes.len();
        let mut values: Vec<Tensor> = Vec::with_capacity(n);
        let mut saved: Vec<Saved> = Vec::with_capacity(n);
        for node in &self.nodes {
            if matches!(node.op, Op::Input { .. }) {
                values.push(x.clone());
                saved.push(Saved::None);
                continue;
            }
            let inputs: Vec<&Tensor> = node.inputs.iter().map(|i| &values[i.index()]).collect();
            let (v, s) = node.op.forward_batch(&inputs, keys);
            values.push(v);
            saved.push(s);
        }
        Activations {
            values,
            saved,
            batch,
        }
    }

    /// The original direct partial-forward implementation; see
    /// [`Graph::forward_reference`].
    #[doc(hidden)]
    pub fn forward_partial_reference(
        &self,
        x: &Tensor,
        keys: &KeyAssignment,
        target: NodeId,
    ) -> Activations {
        let x = if x.rank() == 1 {
            x.reshape([1, x.numel()])
        } else {
            x.clone()
        };
        assert_eq!(x.dims()[1], self.input_size(), "input width mismatch");
        let batch = x.dims()[0];
        let ancestors = self.ancestors_of(target);
        let n = self.nodes.len();
        let mut values: Vec<Tensor> = Vec::with_capacity(n);
        let mut saved: Vec<Saved> = Vec::with_capacity(n);
        for (idx, node) in self.nodes.iter().enumerate() {
            if !ancestors.contains(&NodeId(idx)) || idx > target.index() {
                values.push(Tensor::zeros([0]));
                saved.push(Saved::None);
                continue;
            }
            if matches!(node.op, Op::Input { .. }) {
                values.push(x.clone());
                saved.push(Saved::None);
                continue;
            }
            let inputs: Vec<&Tensor> = node.inputs.iter().map(|i| &values[i.index()]).collect();
            let (v, s) = node.op.forward_batch(&inputs, keys);
            values.push(v);
            saved.push(s);
        }
        Activations {
            values,
            saved,
            batch,
        }
    }

    /// Reverse-mode pass: propagates `grad_out` (`(batch, Q)`, the loss
    /// gradient at the output node) back through the recorded activations,
    /// producing parameter and key gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grad_out` does not match the output node's batch shape.
    pub fn backward(
        &self,
        acts: &Activations,
        grad_out: &Tensor,
        keys: &KeyAssignment,
    ) -> Gradients {
        let n = self.nodes.len();
        assert_eq!(
            grad_out.dims(),
            acts.value(self.output_id()).dims(),
            "grad_out shape mismatch"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[self.output_id().index()] = Some(grad_out.clone());
        let mut params: Vec<Option<(Tensor, Tensor)>> = vec![None; n];
        let mut key_grads = vec![0.0f64; self.key_slots];

        for idx in (0..n).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            if matches!(node.op, Op::Input { .. }) {
                // Gradient w.r.t. the network input is discarded here;
                // callers that need it use `backward_to_input`.
                continue;
            }
            let inputs: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|i| &acts.values[i.index()])
                .collect();
            let (din, pgrad) = node.op.backward_batch(
                &inputs,
                &acts.saved[idx],
                &g,
                keys,
                &mut key_grads,
                true,
                true,
            );
            params[idx] = pgrad;
            for (inp, d) in node.inputs.iter().zip(din) {
                match &mut grads[inp.index()] {
                    Some(existing) => existing.axpy(1.0, &d),
                    slot => *slot = Some(d),
                }
            }
        }
        Gradients {
            params,
            keys: key_grads,
        }
    }

    /// Planned reverse-mode pass over the workspace's latest forward pass,
    /// producing parameter and key gradients bit-identical to
    /// [`Graph::backward`]'s. The trainer's pass.
    ///
    /// # Panics
    ///
    /// Panics if the workspace's latest pass did not compute the output
    /// node, or if `grad_out` does not match its shape.
    pub fn backward_into(
        &self,
        ws: &mut Workspace,
        grad_out: &Tensor,
        keys: &KeyAssignment,
    ) -> Gradients {
        let mut params = vec![None; self.nodes.len()];
        let mut key_grads = vec![0.0f64; self.key_slots];
        self.run_reverse(
            ws,
            grad_out,
            keys,
            Reverse::Params(&mut params),
            &mut key_grads,
        );
        Gradients {
            params,
            keys: key_grads,
        }
    }

    /// Keys-only reverse pass over the moving nodes of `moving`, after
    /// [`Graph::forward_into`] or [`Graph::forward_moving_into`] with the
    /// same `moving`: overwrites `key_grads` (one entry per key slot) with
    /// the loss gradient at each key multiplier, and forms no parameter
    /// gradient.
    ///
    /// Only moving nodes pass a gradient on, and only to moving inputs.
    /// Every consumer of a moving node is moving, so each moving node
    /// receives exactly the gradient the full reverse pass gives it, and
    /// the key gradients of moving slots are bit-identical to
    /// [`Graph::backward_into`]'s. Other slots read zero, or whatever a
    /// moving node reading them accumulates.
    ///
    /// # Panics
    ///
    /// Panics if the workspace's latest pass did not compute the output
    /// node, if `grad_out` does not match its shape, or if `key_grads`
    /// does not have one entry per key slot.
    pub fn backward_keys_into(
        &self,
        ws: &mut Workspace,
        moving: &MovingSet,
        grad_out: &Tensor,
        keys: &KeyAssignment,
        key_grads: &mut [f64],
    ) {
        assert_eq!(key_grads.len(), self.key_slots, "one key gradient per slot");
        key_grads.fill(0.0);
        self.run_reverse(ws, grad_out, keys, Reverse::Keys(moving), key_grads);
    }

    /// The one planned reverse loop, in reverse topological order.
    fn run_reverse(
        &self,
        ws: &mut Workspace,
        grad_out: &Tensor,
        keys: &KeyAssignment,
        mode: Reverse<'_>,
        key_grads: &mut [f64],
    ) {
        assert_eq!(
            grad_out.dims(),
            ws.value(self.output_id()).dims(),
            "grad_out shape mismatch"
        );
        let (mut params, moving) = match mode {
            Reverse::Params(params) => (Some(params), None),
            Reverse::Keys(moving) => (None, Some(moving)),
        };
        let want_params = params.is_some();
        let moves = |id: NodeId| moving.is_none_or(|m| m.is_moving(id));
        let Workspace {
            values,
            saved,
            grad_buf,
            ..
        } = &mut *ws;
        for g in grad_buf.iter_mut() {
            *g = None;
        }
        let output_idx = self.output_id().index();
        if !moves(self.output_id()) {
            return;
        }

        for idx in (0..self.nodes.len()).rev() {
            // The output node's incoming gradient is the caller's tensor;
            // inner nodes' gradients come out of the buffer. Either way the
            // op only borrows it.
            let taken;
            let g: &Tensor = if idx == output_idx {
                grad_out
            } else {
                match grad_buf[idx].take() {
                    Some(t) => {
                        taken = t;
                        &taken
                    }
                    None => continue,
                }
            };
            let node = &self.nodes[idx];
            if matches!(node.op, Op::Input { .. }) {
                continue;
            }
            // A frozen input can turn no gradient into a key gradient that
            // is read: skip the input gradients of a node with none moving,
            // which in turn skips every node below it.
            let want_dx = node.inputs.iter().any(|&i| moves(i));
            let run = |inputs: &[&Tensor], key_grads: &mut [f64]| {
                node.op.backward_batch(
                    inputs,
                    &saved[idx],
                    g,
                    keys,
                    key_grads,
                    want_params,
                    want_dx,
                )
            };
            let (din, pgrad) = match *node.inputs.as_slice() {
                [a] => run(&[&values[a.0]], key_grads),
                [a, b] => run(&[&values[a.0], &values[b.0]], key_grads),
                [a, b, c] => run(&[&values[a.0], &values[b.0], &values[c.0]], key_grads),
                _ => {
                    let refs: Vec<&Tensor> =
                        node.inputs.iter().map(|i| &values[i.index()]).collect();
                    run(&refs, key_grads)
                }
            };
            if let Some(params) = params.as_deref_mut() {
                params[idx] = pgrad;
            }
            if want_dx {
                for (inp, d) in node.inputs.iter().zip(din) {
                    if !moves(*inp) {
                        continue;
                    }
                    match &mut grad_buf[inp.index()] {
                        Some(existing) => existing.axpy(1.0, &d),
                        slot => *slot = Some(d),
                    }
                }
            }
        }
    }

    /// Like [`Graph::backward`] but also returns the gradient with respect
    /// to the network input (used by gradient-based probes).
    pub fn backward_to_input(
        &self,
        acts: &Activations,
        grad_out: &Tensor,
        keys: &KeyAssignment,
    ) -> (Gradients, Tensor) {
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[self.output_id().index()] = Some(grad_out.clone());
        let mut params: Vec<Option<(Tensor, Tensor)>> = vec![None; n];
        let mut key_grads = vec![0.0f64; self.key_slots];
        let mut input_grad: Option<Tensor> = None;

        for idx in (0..n).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            if matches!(node.op, Op::Input { .. }) {
                input_grad = Some(g);
                continue;
            }
            let inputs: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|i| &acts.values[i.index()])
                .collect();
            let (din, pgrad) = node.op.backward_batch(
                &inputs,
                &acts.saved[idx],
                &g,
                keys,
                &mut key_grads,
                true,
                true,
            );
            params[idx] = pgrad;
            for (inp, d) in node.inputs.iter().zip(din) {
                match &mut grads[inp.index()] {
                    Some(existing) => existing.axpy(1.0, &d),
                    slot => *slot = Some(d),
                }
            }
        }
        let input_grad =
            input_grad.unwrap_or_else(|| Tensor::zeros([acts.batch, self.input_size()]));
        (
            Gradients {
                params,
                keys: key_grads,
            },
            input_grad,
        )
    }

    /// Computes the Jacobian of `target`'s output with respect to the
    /// network input, linearized at the single-sample activations `acts` —
    /// the paper's product weight matrix `Â` (Formulas 2–4) generalized to
    /// DAGs and smooth ops.
    ///
    /// Returns a `(target_size, P)` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `acts` was recorded with batch ≠ 1.
    pub fn input_jacobian(
        &self,
        acts: &Activations,
        target: NodeId,
        keys: &KeyAssignment,
    ) -> Tensor {
        assert_eq!(acts.batch, 1, "input_jacobian requires a single sample");
        let p = self.input_size();
        let ancestors = self.ancestors_of(target);
        // Refcount tangents so bundles are freed as soon as every relevant
        // consumer has used them.
        let mut remaining_uses = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if !ancestors.contains(&NodeId(i)) {
                continue;
            }
            for inp in &node.inputs {
                remaining_uses[inp.index()] += 1;
            }
        }
        let mut tangents: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        tangents[self.input_id().index()] = Some(Tensor::eye(p));

        for idx in 0..=target.index() {
            let id = NodeId(idx);
            if !ancestors.contains(&id) || id == self.input_id() {
                continue;
            }
            let node = &self.nodes[idx];
            let in_values: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|i| &acts.values[i.index()])
                .collect();
            // Shortcut: a Linear fed directly (and only) by the input sees
            // the untouched identity tangent, so its output bundle is just
            // W_effᵀ — skip the (P, P) × (out, P) product. This makes the
            // MLP's Â computation cheap (the paper's Formula 2 base case).
            let is_first_linear = matches!(node.op, Op::Linear { .. })
                && node.inputs.len() == 1
                && node.inputs[0] == self.input_id();
            let out = if is_first_linear {
                crate::forward::effective_linear_weight(&node.op, keys).transpose()
            } else {
                let in_tangents: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|i| {
                        tangents[i.index()]
                            .as_ref()
                            .expect("tangent freed before use")
                    })
                    .collect();
                node.op
                    .jvp(&in_values, &acts.saved[idx], &in_tangents, keys)
            };
            for inp in &node.inputs {
                remaining_uses[inp.index()] -= 1;
                if remaining_uses[inp.index()] == 0 && *inp != self.input_id() {
                    tangents[inp.index()] = None;
                }
            }
            tangents[idx] = Some(out);
        }

        let bundle = if target == self.input_id() {
            tangents[target.index()].clone().expect("input tangent")
        } else {
            tangents[target.index()].take().expect("target tangent")
        };
        // (P, size) → (size, P).
        bundle.transpose()
    }

    /// The input Jacobian of a `Linear` fed only by the graph input: its
    /// effective weight, the same at every point (Formula 2's base case)
    /// and bit for bit what [`Graph::input_jacobian_into`] returns there.
    /// `None` for every other node, whose Jacobian depends on the point.
    pub fn input_linear_jacobian(&self, node: NodeId, keys: &KeyAssignment) -> Option<Tensor> {
        let op = &self.nodes[node.index()].op;
        (matches!(op, Op::Linear { .. }) && self.plan().is_input_affine(node))
            .then(|| crate::forward::effective_linear_weight(op, keys).into_owned())
    }

    /// Planned variant of [`Graph::input_jacobian`]: reads the linearization
    /// point from the workspace's latest (single-sample) pass, resolves the
    /// ancestor set through the compiled plan's bitsets instead of a hash
    /// set, frees tangent bundles at their plan-computed last use, and
    /// caches the `P × P` identity seed inside the workspace.
    ///
    /// Bit-identical to [`Graph::input_jacobian`] over the same pass.
    ///
    /// # Panics
    ///
    /// Panics if the workspace's latest pass had batch ≠ 1 or did not
    /// compute `target`'s ancestors.
    pub fn input_jacobian_into(
        &self,
        ws: &mut Workspace,
        target: NodeId,
        keys: &KeyAssignment,
    ) -> Tensor {
        assert_eq!(ws.batch(), 1, "input_jacobian requires a single sample");
        let p = self.input_size();
        if target == self.input_id() {
            return Tensor::eye(p);
        }
        let plan = self.plan();
        let n = self.nodes.len();
        let input_id = self.input_id();
        let weights_gen = self.weights_gen;
        let Workspace {
            values,
            saved,
            eye,
            eff_weights,
            ..
        } = &mut *ws;
        // Materialize the identity seed only if some ancestor actually
        // consumes the raw input tangent (the first-linear shortcut below
        // bypasses it, so a plain MLP never touches it).
        let needs_eye = self
            .nodes
            .iter()
            .enumerate()
            .take(target.index() + 1)
            .any(|(i, node)| {
                NodeId(i) != input_id
                    && plan.is_ancestor(NodeId(i), target)
                    && node.inputs.contains(&input_id)
                    && !(matches!(node.op, Op::Linear { .. }) && node.inputs.len() == 1)
            });
        if needs_eye && eye.as_ref().is_none_or(|e| e.dims() != &[p, p][..]) {
            *eye = Some(Tensor::eye(p));
        }
        let mut tangents: Vec<Option<Tensor>> = vec![None; n];
        for idx in 0..=target.index() {
            let id = NodeId(idx);
            if id == input_id || !plan.is_ancestor(id, target) {
                continue;
            }
            let node = &self.nodes[idx];
            let is_first_linear = matches!(node.op, Op::Linear { .. }) && plan.is_input_affine(id);
            let out = if is_first_linear {
                // The cached transposed effective weight IS the bundle
                // `W_effᵀ` — one memcpy instead of materialize + transpose.
                cached_eff_weight(&mut eff_weights[idx], &node.op, keys, weights_gen).clone()
            } else {
                let in_values: Vec<&Tensor> =
                    node.inputs.iter().map(|i| &values[i.index()]).collect();
                let in_tangents: Vec<&Tensor> = node
                    .inputs
                    .iter()
                    .map(|i| {
                        if *i == input_id {
                            eye.as_ref().expect("input tangent seed")
                        } else {
                            tangents[i.index()]
                                .as_ref()
                                .expect("tangent freed before use")
                        }
                    })
                    .collect();
                node.op.jvp(&in_values, &saved[idx], &in_tangents, keys)
            };
            // Liveness: once the schedule passes a node's last consumer, its
            // tangent bundle is dead.
            for inp in &node.inputs {
                if *inp != input_id && plan.last_use(*inp) <= idx {
                    tangents[inp.index()] = None;
                }
            }
            tangents[idx] = Some(out);
        }
        tangents[target.index()]
            .take()
            .expect("target tangent")
            // (P, size) → (size, P).
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::key::{KeyAssignment, KeySlot, UnitLayout};
    use relock_tensor::rng::Prng;

    /// A small 2-layer locked MLP for exercising the machinery.
    fn toy_graph() -> (Graph, KeyAssignment) {
        let mut rng = Prng::seed_from_u64(7);
        let mut gb = GraphBuilder::new();
        let x = gb.input(4);
        let l1 = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([6, 4]),
                    b: rng.normal_tensor([6]),
                    weight_locks: vec![],
                },
                &[x],
            )
            .unwrap();
        let k1 = gb
            .add(
                Op::KeyedSign {
                    layout: UnitLayout::scalar(6),
                    slots: vec![Some(KeySlot(0)), None, Some(KeySlot(1)), None, None, None],
                },
                &[l1],
            )
            .unwrap();
        let r1 = gb.add(Op::Relu, &[k1]).unwrap();
        let l2 = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([3, 6]),
                    b: rng.normal_tensor([3]),
                    weight_locks: vec![],
                },
                &[r1],
            )
            .unwrap();
        let g = gb.build(l2).unwrap();
        let keys = KeyAssignment::from_bits(&[true, false]);
        (g, keys)
    }

    #[test]
    fn forward_batch_matches_per_sample() {
        let (g, keys) = toy_graph();
        let mut rng = Prng::seed_from_u64(8);
        let xb = rng.normal_tensor([5, 4]);
        let batch_out = g.logits_batch(&xb, &keys);
        for s in 0..5 {
            let single = g.logits(&Tensor::from_slice(xb.row(s)), &keys);
            assert!(
                single.max_abs_diff(&Tensor::from_slice(batch_out.row(s))) < 1e-12,
                "sample {s}"
            );
        }
    }

    #[test]
    fn planned_forward_is_bit_identical_to_reference() {
        let (g, keys) = toy_graph();
        let mut rng = Prng::seed_from_u64(21);
        let mut ws = Workspace::new();
        for batch in [1usize, 2, 5, 7] {
            let x = rng.normal_tensor([batch, 4]);
            let reference = g.forward_reference(&x, &keys);
            g.forward_into(&mut ws, &x, &keys);
            for id in (0..g.nodes().len()).map(NodeId) {
                let (a, b) = (reference.value(id), ws.value(id));
                assert_eq!(a.dims(), b.dims(), "node {id} shape");
                let same = a
                    .as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "node {id} bits differ at batch {batch}");
            }
        }
        assert_eq!(ws.passes(), 4, "one pass per batch size");
    }

    #[test]
    fn workspace_reports_missing_nodes_with_context() {
        let (g, keys) = toy_graph();
        let mut ws = Workspace::new();
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        // Partial pass to node 1: node 3 stays non-live.
        g.forward_partial_into(&mut ws, &x, &keys, NodeId(1));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = ws.value(NodeId(3));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("n3") && msg.contains("5 nodes"), "got: {msg}");
    }

    #[test]
    fn activations_panics_name_node_and_graph_size() {
        let (g, keys) = toy_graph();
        let acts = g.forward(&Tensor::from_slice(&[0.5, -0.5, 1.0, 2.0]), &keys);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = acts.value(NodeId(17));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("n17") && msg.contains("5 nodes"), "got: {msg}");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = acts.scalar(NodeId(1), 3, 0);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(
            msg.contains("sample 3") && msg.contains("5 nodes"),
            "got: {msg}"
        );
    }

    #[test]
    fn backward_matches_finite_differences_on_params() {
        let (mut g, keys) = toy_graph();
        let mut rng = Prng::seed_from_u64(9);
        let x = rng.normal_tensor([2, 4]);
        // Loss = sum of logits; grad_out = ones.
        let acts = g.forward(&x, &keys);
        let ones = Tensor::ones([2, 3]);
        let grads = g.backward(&acts, &ones, &keys);

        let param_nodes = g.param_nodes();
        for node in param_nodes {
            let (w_grad, _) = grads.params[node.index()].clone().expect("param grad");
            // Probe two weight entries with central differences.
            for probe in [0usize, w_grad.numel() - 1] {
                let eps = 1e-6;
                let orig = {
                    let (w, _) = g.params_mut(node).unwrap();
                    let v = w.as_slice()[probe];
                    w.as_mut_slice()[probe] = v + eps;
                    v
                };
                let up = g.logits_batch(&x, &keys).sum();
                {
                    let (w, _) = g.params_mut(node).unwrap();
                    w.as_mut_slice()[probe] = orig - eps;
                }
                let down = g.logits_batch(&x, &keys).sum();
                {
                    let (w, _) = g.params_mut(node).unwrap();
                    w.as_mut_slice()[probe] = orig;
                }
                let fd = (up - down) / (2.0 * eps);
                let an = w_grad.as_slice()[probe];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "node {node}: fd {fd} vs an {an}"
                );
            }
        }
    }

    #[test]
    fn backward_key_grads_match_finite_differences() {
        let (g, _) = toy_graph();
        let mut keys = KeyAssignment::from_values(vec![0.3, -0.7]);
        let mut rng = Prng::seed_from_u64(10);
        let x = rng.normal_tensor([3, 4]);
        let acts = g.forward(&x, &keys);
        let ones = Tensor::ones([3, 3]);
        let grads = g.backward(&acts, &ones, &keys);
        for slot in 0..2 {
            let eps = 1e-6;
            let orig = keys.values()[slot];
            keys.values_mut()[slot] = orig + eps;
            let up = g.logits_batch(&x, &keys).sum();
            keys.values_mut()[slot] = orig - eps;
            let down = g.logits_batch(&x, &keys).sum();
            keys.values_mut()[slot] = orig;
            let fd = (up - down) / (2.0 * eps);
            assert!(
                (fd - grads.keys[slot]).abs() < 1e-6 * (1.0 + fd.abs()),
                "slot {slot}: fd {fd} vs an {}",
                grads.keys[slot]
            );
        }
    }

    #[test]
    fn planned_backward_matches_legacy_bitwise() {
        let (g, _) = toy_graph();
        let keys = KeyAssignment::from_values(vec![0.3, -0.7]);
        let mut rng = Prng::seed_from_u64(33);
        let x = rng.normal_tensor([3, 4]);
        let ones = Tensor::ones([3, 3]);
        let acts = g.forward_reference(&x, &keys);
        let legacy = g.backward(&acts, &ones, &keys);

        let mut ws = Workspace::new();
        g.forward_into(&mut ws, &x, &keys);
        let full = g.backward_into(&mut ws, &ones, &keys);
        for (slot, (a, b)) in legacy.keys.iter().zip(&full.keys).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "key grad {slot}");
        }
        for (idx, (a, b)) in legacy.params.iter().zip(&full.params).enumerate() {
            match (a, b) {
                (None, None) => {}
                (Some((aw, ab)), Some((bw, bb))) => {
                    assert!(
                        aw.as_slice()
                            .iter()
                            .zip(bw.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "weight grad {idx}"
                    );
                    assert!(
                        ab.as_slice()
                            .iter()
                            .zip(bb.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "bias grad {idx}"
                    );
                }
                _ => panic!("param grad presence mismatch at node {idx}"),
            }
        }
        // Keys-only with every slot moving: identical key grads.
        let mut keys_only = vec![f64::NAN; g.key_slot_count()];
        let every_slot = MovingSet::new(&g, |_| true);
        g.backward_keys_into(&mut ws, &every_slot, &ones, &keys, &mut keys_only);
        for (slot, (a, b)) in legacy.keys.iter().zip(&keys_only).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "keys-only key grad {slot}");
        }
    }

    #[test]
    fn input_jacobian_matches_finite_differences() {
        let (g, keys) = toy_graph();
        let mut rng = Prng::seed_from_u64(11);
        let x = rng.normal_tensor([4]);
        let acts = g.forward(&x, &keys);
        let target = g.output_id();
        let jac = g.input_jacobian(&acts, target, &keys);
        assert_eq!(jac.dims(), &[3, 4]);
        let eps = 1e-7;
        for col in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[col] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[col] -= eps;
            let up = g.logits(&xp, &keys);
            let down = g.logits(&xm, &keys);
            for row in 0..3 {
                let fd = (up.as_slice()[row] - down.as_slice()[row]) / (2.0 * eps);
                let an = jac.get2(row, col);
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "({row},{col}): fd {fd} vs an {an}"
                );
            }
        }
    }

    #[test]
    fn planned_jacobian_matches_legacy_bitwise() {
        let (g, keys) = toy_graph();
        let mut rng = Prng::seed_from_u64(44);
        let x = rng.normal_tensor([4]);
        let acts = g.forward_reference(&x, &keys);
        let mut ws = Workspace::new();
        g.forward_into(&mut ws, &x, &keys);
        for target in (0..g.nodes().len()).map(NodeId) {
            let legacy = g.input_jacobian(&acts, target, &keys);
            let planned = g.input_jacobian_into(&mut ws, target, &keys);
            assert_eq!(legacy.dims(), planned.dims(), "target {target}");
            assert!(
                legacy
                    .as_slice()
                    .iter()
                    .zip(planned.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "target {target} bits differ"
            );
        }
    }

    #[test]
    fn jacobian_of_intermediate_node_has_right_shape() {
        let (g, keys) = toy_graph();
        let mut rng = Prng::seed_from_u64(12);
        let x = rng.normal_tensor([4]);
        let acts = g.forward(&x, &keys);
        // Node 1 is the first linear layer (6 outputs).
        let jac = g.input_jacobian(&acts, NodeId(1), &keys);
        assert_eq!(jac.dims(), &[6, 4]);
        // For the first layer Â is exactly W (no preceding nonlinearity).
        if let Op::Linear { w, .. } = &g.node(NodeId(1)).op {
            assert!(jac.max_abs_diff(w) < 1e-12);
        } else {
            panic!("node 1 should be linear");
        }
    }

    #[test]
    fn effective_weight_cache_invalidates_on_key_and_weight_mutation() {
        use crate::op::WeightLock;
        // A 1-layer graph with a §3.9(b) weight lock so the cache engages.
        let mut gb = GraphBuilder::new();
        let x = gb.input(2);
        let lin = gb
            .add(
                Op::Linear {
                    w: Tensor::from_rows(&[&[2.0, 1.0]]),
                    b: Tensor::zeros([1]),
                    weight_locks: vec![WeightLock {
                        row: 0,
                        col: 0,
                        slot: KeySlot(0),
                    }],
                },
                &[x],
            )
            .unwrap();
        let mut g = gb.build(lin).unwrap();
        let mut keys = KeyAssignment::from_bits(&[false]);
        let xin = Tensor::from_slice(&[1.0, 0.0]);
        let mut ws = Workspace::new();
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), 2.0);
        // Same keys: cache hit must still be correct.
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), 2.0);
        // Key flip invalidates.
        keys.set_bit(KeySlot(0), true);
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), -2.0);
        // Weight mutation invalidates.
        {
            let (w, _) = g.params_mut(NodeId(1)).unwrap();
            w.set2(0, 0, 5.0);
        }
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), -5.0);
    }

    #[test]
    fn effective_weight_cache_invalidates_on_same_step_weight_and_key_mutation() {
        use crate::op::WeightLock;
        // Regression guard for the hardest invalidation case: the weight
        // AND the key change between two passes, in either order, with no
        // pass in between to observe the intermediate generation.
        let mut gb = GraphBuilder::new();
        let x = gb.input(2);
        let lin = gb
            .add(
                Op::Linear {
                    w: Tensor::from_rows(&[&[2.0, 1.0]]),
                    b: Tensor::zeros([1]),
                    weight_locks: vec![WeightLock {
                        row: 0,
                        col: 0,
                        slot: KeySlot(0),
                    }],
                },
                &[x],
            )
            .unwrap();
        let mut g = gb.build(lin).unwrap();
        let mut keys = KeyAssignment::from_bits(&[false]);
        let xin = Tensor::from_slice(&[1.0, 0.0]);
        let mut ws = Workspace::new();
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), 2.0);
        // Weight first, then key, then one pass.
        {
            let (w, _) = g.params_mut(NodeId(1)).unwrap();
            w.set2(0, 0, 3.0);
        }
        keys.set_bit(KeySlot(0), true);
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), -3.0);
        // Key first, then weight, then one pass.
        keys.set_bit(KeySlot(0), false);
        {
            let (w, _) = g.params_mut(NodeId(1)).unwrap();
            w.set2(0, 0, 4.0);
        }
        assert_eq!(g.logits_batch_into(&mut ws, &xin, &keys).get2(0, 0), 4.0);
        // A cloned assignment shares the parent's generation stamp while
        // values are equal; a pooled workspace primed by the clone must
        // still see the parent's later same-step mutations.
        let pool = crate::WorkspacePool::new();
        let snapshot = keys.clone();
        {
            let mut pws = pool.acquire();
            assert_eq!(
                g.logits_batch_into(&mut pws, &xin, &snapshot).get2(0, 0),
                4.0
            );
        }
        {
            let (w, _) = g.params_mut(NodeId(1)).unwrap();
            w.set2(0, 0, 6.0);
        }
        keys.set_bit(KeySlot(0), true);
        {
            let mut pws = pool.acquire();
            assert_eq!(g.logits_batch_into(&mut pws, &xin, &keys).get2(0, 0), -6.0);
            // And the untouched clone still evaluates under its own (old)
            // key value with the new weights.
            assert_eq!(
                g.logits_batch_into(&mut pws, &xin, &snapshot).get2(0, 0),
                6.0
            );
        }
    }
}
