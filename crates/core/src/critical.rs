//! Finding critical points of a neuron (paper §3.5).
//!
//! A neuron's hyperplane is the zero set of its pre-activation. Because a
//! hyperplane has co-dimension 1, a random line in the input space crosses
//! it with probability ≈ 1; `search_critical_point` samples pre-activations
//! along random lines, finds a sign change, and bisects it down to a
//! witness `x°` with `|z(x°)| ≤ 1e-10`.
//!
//! The scan of a line runs through the graph's line pass
//! ([`Graph::eval_line_into`]), which fills the input-fed affine layer in
//! closed form and so agrees with a batch pass over the samples only up
//! to rounding. The scan reads two things from its samples: the first
//! adjacent pair with a strict sign change, and `max|z|`, which enters
//! only the acceptance bound `|z_mid| ≤ 1e-7·max(1, max|z|)` that a
//! converged bisection always meets. The bisection evaluates every
//! midpoint with the exact single-point pass, so a witness's `x`, `z`
//! and `crossing_dir` keep their bits unless a sample lies within
//! rounding of the hyperplane.
//!
//! By Lemma 1 the hyperplane only depends on the (already decrypted) keys
//! of *preceding* layers, so the adversary can run this entirely on the
//! white-box network.

use crate::config::{AttackConfig, INPUT_SCALE};
use relock_graph::{Graph, KeyAssignment, NodeId, Workspace};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Half-extent of the parameter range sampled along each random line.
const LINE_EXTENT: f64 = 12.0;
/// |z| below which a bisected point counts as on the hyperplane.
const BISECT_TOL: f64 = 1e-10;
/// Maximum bisection iterations per crossing.
const BISECT_ITERS: usize = 120;

/// A witness to a hyperplane: an input where the target pre-activation is
/// (numerically) zero.
#[derive(Debug, Clone)]
pub struct CriticalPoint {
    /// The witness input.
    pub x: Tensor,
    /// The achieved pre-activation value (≈ 0).
    pub z: f64,
    /// The line direction that crossed the hyperplane — a direction along
    /// which the pre-activation provably changes, reused by the validation
    /// procedure as its first kink-probe direction.
    pub crossing_dir: Tensor,
}

/// A scalar functional of a node's output row whose zero set the search
/// hunts: a single pre-activation, or the max/min over a locked unit's
/// elements (used by validation to find *pool-visible* channel witnesses).
#[derive(Debug, Clone)]
pub enum TargetScalar {
    /// One element of the node's output.
    Element(usize),
    /// Maximum over the listed elements (crossing zero ⇒ the whole unit
    /// transitions from fully inactive to active at its argmax).
    UnitMax(Vec<usize>),
    /// Minimum over the listed elements (the mirror case for a
    /// sign-flipped unit: `max(−z) = 0 ⇔ min(z) = 0`).
    UnitMin(Vec<usize>),
    /// Difference of two elements — its zero set is the *tie surface*
    /// `z_a = z_b`, where a max-pool window's winner switches. Tie
    /// surfaces are invariant under the unit's own sign flip
    /// (`−z_a = −z_b ⇔ z_a = z_b`), making them prime validation
    /// witnesses for channel-locked layers.
    Diff(usize, usize),
}

impl TargetScalar {
    fn eval(&self, row: &[f64]) -> f64 {
        match self {
            TargetScalar::Element(e) => row[*e],
            TargetScalar::UnitMax(es) => {
                es.iter().map(|&e| row[e]).fold(f64::NEG_INFINITY, f64::max)
            }
            TargetScalar::UnitMin(es) => es.iter().map(|&e| row[e]).fold(f64::INFINITY, f64::min),
            TargetScalar::Diff(a, b) => row[*a] - row[*b],
        }
    }
}

/// Evaluates one element of a node's output at a single point.
pub(crate) fn z_at(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    pre_node: NodeId,
    elem: usize,
    x: &Tensor,
) -> f64 {
    let vals = g.eval_node_into(ws, x, keys, pre_node);
    vals.as_slice()[elem]
}

/// Evaluates a [`TargetScalar`] at a single point.
fn target_at(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    pre_node: NodeId,
    target: &TargetScalar,
    x: &Tensor,
) -> f64 {
    let vals = g.eval_node_into(ws, x, keys, pre_node);
    target.eval(vals.as_slice())
}

/// Searches for a critical point of element `elem` of `pre_node`'s output.
///
/// Samples `cfg.line_samples` points along up to `cfg.max_lines` random
/// lines `a + t·d`, looking for a sign change of the pre-activation, then
/// bisects. Returns `None` when no line crosses the hyperplane within the
/// budget (e.g. a dead neuron whose hyperplane misses the sampled region).
pub fn search_critical_point(
    g: &Graph,
    keys: &KeyAssignment,
    pre_node: NodeId,
    elem: usize,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<CriticalPoint> {
    let mut ws = Workspace::new();
    search_critical_point_with(g, &mut ws, keys, pre_node, elem, cfg, rng)
}

/// [`search_critical_point`] through a caller-owned workspace, so attack
/// loops sweeping many neurons pay for the evaluation buffers once. All
/// randomness comes from the caller's `rng` and all scratch lives in `ws`,
/// so concurrent searches over different neurons (the sharded engine's
/// per-site workers) stay independent and replayable.
pub fn search_critical_point_with(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    pre_node: NodeId,
    elem: usize,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<CriticalPoint> {
    search_target_critical_point_with(
        g,
        ws,
        keys,
        pre_node,
        &TargetScalar::Element(elem),
        cfg,
        rng,
    )
}

/// Generalized critical-point search on any [`TargetScalar`] of a node.
pub fn search_target_critical_point(
    g: &Graph,
    keys: &KeyAssignment,
    pre_node: NodeId,
    target: &TargetScalar,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<CriticalPoint> {
    let mut ws = Workspace::new();
    search_target_critical_point_with(g, &mut ws, keys, pre_node, target, cfg, rng)
}

/// [`search_target_critical_point`] through a caller-owned workspace.
pub fn search_target_critical_point_with(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    pre_node: NodeId,
    target: &TargetScalar,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<CriticalPoint> {
    let p = g.input_size();
    let n = cfg.line_samples;
    let ts: Vec<f64> = (0..n)
        .map(|i| -LINE_EXTENT + 2.0 * LINE_EXTENT * i as f64 / (n - 1) as f64)
        .collect();
    for _ in 0..cfg.max_lines {
        let anchor = rng.normal_tensor([p]).scale(INPUT_SCALE);
        let dir = rng.unit_vector(p);
        // Scan the line in one pass; it reads only the samples' signs
        // and their largest magnitude (see the module docs).
        let vals = g.eval_line_into(ws, &anchor, &dir, &ts, keys, pre_node);
        let zs: Vec<f64> = (0..n).map(|s| target.eval(vals.row(s))).collect();
        // Find the first adjacent strict sign change.
        let Some(seg) = (0..n - 1).find(|&i| zs[i] * zs[i + 1] < 0.0) else {
            continue;
        };
        // Bisection.
        let (mut lo, mut hi) = (ts[seg], ts[seg + 1]);
        let mut zlo = zs[seg];
        let at = |t: f64| -> Tensor {
            let mut x = anchor.clone();
            x.axpy(t, &dir);
            x
        };
        // The witness must land within a small fraction of the kink-probe
        // step of the true hyperplane, or downstream second-difference
        // probes would straddle the wrong segment.
        let bracket_goal = 1e-3 * cfg.probe_delta;
        let mut mid = 0.5 * (lo + hi);
        let mut zmid = 0.0;
        for _ in 0..BISECT_ITERS {
            mid = 0.5 * (lo + hi);
            zmid = target_at(g, ws, keys, pre_node, target, &at(mid));
            if zmid.abs() <= BISECT_TOL && (hi - lo) <= bracket_goal {
                break;
            }
            if zmid * zlo < 0.0 {
                hi = mid;
            } else {
                lo = mid;
                zlo = zmid;
            }
        }
        if hi - lo > bracket_goal {
            continue;
        }
        // Accept only sharp witnesses; a loose one means the scalar varies
        // violently and downstream tolerances would be unreliable.
        let scale = zs.iter().fold(1.0f64, |m, z| m.max(z.abs()));
        if zmid.abs() <= 1e-7 * scale {
            return Some(CriticalPoint {
                x: at(mid),
                z: zmid,
                crossing_dir: dir,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_graph::{GraphBuilder, Op};

    /// z(x) = w·x + b for a hand-built single neuron.
    fn line_graph(w: &[f64], b: f64) -> (Graph, NodeId) {
        let mut gb = GraphBuilder::new();
        let x = gb.input(w.len());
        let lin = gb
            .add(
                Op::Linear {
                    w: Tensor::from_vec(w.to_vec(), [1, w.len()]),
                    b: Tensor::from_slice(&[b]),
                    weight_locks: vec![],
                },
                &[x],
            )
            .unwrap();
        (gb.build(lin).unwrap(), lin)
    }

    #[test]
    fn finds_witness_on_known_hyperplane() {
        let (g, lin) = line_graph(&[1.0, -2.0, 0.5], 0.7);
        let keys = KeyAssignment::all_zero_bits(0);
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(90);
        let cp = search_critical_point(&g, &keys, lin, 0, &cfg, &mut rng)
            .expect("hyperplane through the sampled region");
        assert!(cp.z.abs() < 1e-8, "z = {}", cp.z);
        // Verify independently.
        let z = cp.x.as_slice()[0] - 2.0 * cp.x.as_slice()[1] + 0.5 * cp.x.as_slice()[2] + 0.7;
        assert!(z.abs() < 1e-8);
    }

    #[test]
    fn fails_gracefully_when_no_crossing_exists() {
        // Pre-activation bounded far from zero: z = 0·x + 100.
        let (g, lin) = line_graph(&[0.0, 0.0], 100.0);
        let keys = KeyAssignment::all_zero_bits(0);
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(91);
        assert!(search_critical_point(&g, &keys, lin, 0, &cfg, &mut rng).is_none());
    }

    #[test]
    fn crossing_direction_is_transversal() {
        let (g, lin) = line_graph(&[2.0, 1.0], -1.0);
        let keys = KeyAssignment::all_zero_bits(0);
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(92);
        let cp = search_critical_point(&g, &keys, lin, 0, &cfg, &mut rng).unwrap();
        // Moving along the crossing direction must change z.
        let mut moved = cp.x.clone();
        moved.axpy(1e-3, &cp.crossing_dir);
        let mut ws = Workspace::new();
        let z = z_at(&g, &mut ws, &keys, lin, 0, &moved);
        assert!(z.abs() > 1e-7, "z barely moved: {z}");
    }
}
