//! Algebraic key-bit inference (paper §3.3, Algorithm 1).
//!
//! At a critical point `x°` of a protected neuron, the minimum-norm
//! pre-image `v` of the standard basis vector under the product weight
//! matrix `Â` moves **only** the target pre-activation: `z(x° ± ε·v) = ±ε`
//! while every other same-layer pre-activation stays fixed. The oracle then
//! betrays the key bit (Lemma 2): the side on which its output does *not*
//! move is the side where the (possibly flipped) ReLU is inactive.
//!
//! Algorithm 1 splits at its one oracle call. The white-box half
//! ([`site_probe_with`]) spends a site's attempts on the critical point,
//! the Jacobian, the pre-image and the ε-search until one yields the
//! 3-row probe `[x°, x°+εv, x°−εv]`; the Lemma-2 half reads the oracle's
//! answer to it. [`infer_rounds`] runs a layer's sites in lock-step
//! rounds between the two halves, so a round costs one oracle batch no
//! matter how many sites probe in it.

use crate::config::AttackConfig;
use crate::critical::{search_critical_point_with, z_at};
use relock_graph::{Graph, KeyAssignment, KeySlot, LockSite, NodeId, Op, Saved, Workspace};
use relock_locking::{Oracle, OracleError};
use relock_tensor::linalg::preimage;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Per-site outcomes of one layer's Algorithm-1 pass: `(slot, inferred
/// bit)`, with `None` for the paper's ⊥. Checkpoints serialize this so a
/// resumed attack can skip the pass instead of re-querying it.
pub type InferredBits = Vec<(KeySlot, Option<bool>)>;

/// One site's Algorithm-1 progress between rounds: its private PRNG
/// stream and the witness attempts it has left.
#[derive(Debug, Clone)]
pub(crate) struct SiteCursor {
    /// The site's own stream, pre-forked in canonical site order
    /// (DESIGN.md §3e). Only the white-box half consumes it.
    rng: Prng,
    /// Attempts left before the site settles on ⊥.
    attempts: usize,
}

impl SiteCursor {
    /// A fresh cursor on `rng` with all `cfg.max_site_attempts` attempts.
    pub(crate) fn new(rng: Prng, cfg: &AttackConfig) -> Self {
        SiteCursor {
            rng,
            attempts: cfg.max_site_attempts,
        }
    }
}

/// What the white-box half returns for one site: its 3-row probe (`None`
/// once the site has settled on ⊥) and its advanced cursor.
pub(crate) type ProbeStep = (Option<Tensor>, SiteCursor);

/// The discrete "linear region signature" of a point: ReLU activity masks
/// and max-pool winners over the ancestors of `upto`. Two points share a
/// linear region of the sub-network below `upto` iff their signatures match.
fn region_signature(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    x: &Tensor,
    upto: NodeId,
) -> Vec<u8> {
    g.forward_partial_into(ws, x, keys, upto);
    let plan = g.plan();
    let mut sig = Vec::new();
    // Deterministic node order — signatures must be comparable across calls.
    for idx in 0..=upto.index() {
        let id = NodeId(idx);
        if !plan.is_ancestor(id, upto) {
            continue;
        }
        match g.node(id).op {
            Op::Relu | Op::MaxPool2d { .. } => {}
            _ => continue,
        }
        match ws.saved_of(id) {
            Saved::Mask(m) => sig.extend(m.as_slice().iter().map(|&v| v as u8)),
            Saved::ArgMax(a) => sig.extend(a.iter().map(|&i| (i % 251) as u8)),
            _ => {}
        }
    }
    sig
}

/// Algorithm 1: infers the key bit of `site`, or returns `None` (the
/// paper's ⊥) when the pre-image does not exist, the neuron is not
/// sensitizable, or the oracle responses stay indecisive.
///
/// This is the one-site case of the lock-step rounds the decryptor runs
/// per layer: every round sends the site's single probe, and `rng` is
/// left where the site's search stopped.
/// `keys` must hold the already-decrypted bits of preceding layers; bits
/// of the current and subsequent layers are irrelevant (Lemma 1).
pub fn key_bit_inference(
    g: &Graph,
    keys: &KeyAssignment,
    site: &LockSite,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<bool> {
    let mut ws = Workspace::new();
    let mut cursors = [SiteCursor::new(rng.clone(), cfg)];
    let inferred = infer_rounds(
        std::slice::from_ref(site),
        &mut cursors,
        oracle,
        cfg,
        |round| {
            round
                .iter()
                .map(|(_, cursor)| {
                    let mut cursor = cursor.clone();
                    let probe = site_probe_with(g, &mut ws, keys, site, cfg, &mut cursor);
                    (probe, cursor)
                })
                .collect()
        },
    );
    let [cursor] = cursors;
    *rng = cursor.rng;
    inferred[0].1
}

/// The white-box half of Algorithm 1: spends `cursor`'s attempts on a
/// critical point, the Jacobian, the pre-image and the ε-search until one
/// yields the `[3, P]` probe `[x°, x°+εv, x°−εv]`, or returns `None` (⊥)
/// once the attempts are spent or the site cannot be attacked
/// algebraically. Reads shared state (`g`, `keys`) and mutates only `ws`
/// and `cursor`, so the sites of a layer compute their probes
/// concurrently without synchronizing.
pub(crate) fn site_probe_with(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    site: &LockSite,
    cfg: &AttackConfig,
    cursor: &mut SiteCursor,
) -> Option<Tensor> {
    // The algebraic step is specific to sign locks; other operators route
    // to the learning attack (§3.9 reduction).
    if !matches!(g.node(site.keyed_node).op, Op::KeyedSign { .. }) {
        return None;
    }
    let pre_node = site.pre_node;
    let d_i = g.node(pre_node).out_size;
    let p = g.input_size();
    // Expansive layer: Â (d_i × P) cannot be onto, no basis pre-image
    // exists (§3.4). Skip the expensive Jacobian outright.
    if cfg.skip_expansive && d_i > p {
        return None;
    }
    let elem = site.scalar_index();
    let rng = &mut cursor.rng;

    while cursor.attempts > 0 {
        cursor.attempts -= 1;
        let Some(cp) = search_critical_point_with(g, ws, keys, pre_node, elem, cfg, rng) else {
            continue;
        };
        g.forward_partial_into(ws, &cp.x, keys, pre_node);
        let jac = g.input_jacobian_into(ws, pre_node, keys);
        let e = Tensor::basis(d_i, elem);
        let Some(pre) = preimage(&jac, &e, cfg.preimage_tol) else {
            // No pre-image in this region; a different region might still
            // work (different masks), so retry with a fresh witness.
            continue;
        };
        let mut v = pre.v;
        if cfg.preimage_perturbation > 0.0 {
            // Ablation A2: add a null-space component. The perturbed v
            // still satisfies Âv = e but is no longer minimum-norm.
            let w = rng.normal_tensor([p]).scale(v.norm().max(1.0));
            if let Some(back) = preimage(&jac, &jac.matvec(&w), cfg.preimage_tol) {
                let mut null = w;
                null.axpy(-1.0, &back.v);
                v.axpy(cfg.preimage_perturbation, &null);
            }
        }

        // Pick an ε that keeps x° ± ε·v inside the current linear region
        // and actually moves the target pre-activation by ±ε.
        let sig0 = region_signature(g, ws, keys, &cp.x, pre_node);
        let mut eps = cfg.epsilon;
        while eps >= cfg.epsilon_min {
            let mut xp = cp.x.clone();
            xp.axpy(eps, &v);
            let mut xm = cp.x.clone();
            xm.axpy(-eps, &v);
            let zp = z_at(g, ws, keys, pre_node, elem, &xp);
            let zm = z_at(g, ws, keys, pre_node, elem, &xm);
            let moved_right =
                (zp - (cp.z + eps)).abs() <= 0.2 * eps && (zm - (cp.z - eps)).abs() <= 0.2 * eps;
            if moved_right
                && region_signature(g, ws, keys, &xp, pre_node) == sig0
                && region_signature(g, ws, keys, &xm, pre_node) == sig0
            {
                let mut rows = Vec::with_capacity(3 * p);
                rows.extend_from_slice(cp.x.as_slice());
                rows.extend_from_slice(xp.as_slice());
                rows.extend_from_slice(xm.as_slice());
                return Some(Tensor::from_vec(rows, [3, p]));
            }
            eps *= 0.25;
        }
    }
    None
}

/// The Lemma-2 half of Algorithm 1: reads the oracle's answer `out` to
/// one probe (`O(x°)`, `O(x°+εv)`, `O(x°−εv)`). `None` means indecisive:
/// both sides moved (the probe crossed something unexpected) or neither
/// did (not sensitizable here).
fn lemma2_verdict(out: &Tensor, cfg: &AttackConfig) -> Option<bool> {
    let (o0, op, om) = (out.row(0), out.row(1), out.row(2));
    let mut scale = 1.0f64;
    let mut dp = 0.0f64;
    let mut dm = 0.0f64;
    for i in 0..o0.len() {
        scale = scale.max(o0[i].abs());
        dp = dp.max((op[i] - o0[i]).abs());
        dm = dm.max((om[i] - o0[i]).abs());
    }
    dp /= scale;
    dm /= scale;
    // Lemma 2 contrapositive (Algorithm 1 lines 9–10): a changed output
    // on the +ε side means the ReLU opened there, i.e. no flip (K=0);
    // a changed output on the −ε side means the flip is present (K=1).
    if dp >= cfg.diff_tol && dm <= cfg.eq_tol {
        return Some(false);
    }
    if dm >= cfg.diff_tol && dp <= cfg.eq_tol {
        return Some(true);
    }
    None
}

/// Sends a round of several requests to the oracle as **one** batch and
/// splits the answer back into one tensor per request, in request order.
/// Through a broker the whole round is then a single request: one budget
/// reservation, one dispatch. `None` when the round holds a single
/// request or the oracle refuses the batch (budget, dead backend); the
/// caller then falls back to one call per request, in the same order, so
/// a budget too small for the round still answers the requests it can
/// afford, first come first served.
pub(crate) fn batched(oracle: &dyn Oracle, requests: &[Tensor]) -> Option<Vec<Tensor>> {
    if requests.len() < 2 {
        return None;
    }
    let p = requests[0].dims()[1];
    let n: usize = requests.iter().map(|r| r.dims()[0]).sum();
    let mut rows = Vec::with_capacity(n * p);
    for r in requests {
        rows.extend_from_slice(r.as_slice());
    }
    let out = oracle
        .try_query_batch(&Tensor::from_vec(rows, [n, p]))
        .ok()?;
    let q = out.dims()[1];
    let mut at = 0;
    Some(
        requests
            .iter()
            .map(|r| {
                let k = r.dims()[0];
                let answer = out.as_slice()[at * q..(at + k) * q].to_vec();
                at += k;
                Tensor::from_vec(answer, [k, q])
            })
            .collect(),
    )
}

/// Sends one round's probes (see [`batched`]) and reads their Lemma-2
/// verdicts, in probe order. Under the per-probe fallback every probe is
/// tried, each failure mapping to its own `Err`.
fn round_verdicts(
    oracle: &dyn Oracle,
    probes: &[Tensor],
    cfg: &AttackConfig,
) -> Vec<Result<Option<bool>, OracleError>> {
    match batched(oracle, probes) {
        Some(outs) => outs
            .iter()
            .map(|out| Ok(lemma2_verdict(out, cfg)))
            .collect(),
        None => probes
            .iter()
            .map(|probe| {
                oracle
                    .try_query_batch(probe)
                    .map(|out| lemma2_verdict(&out, cfg))
            })
            .collect(),
    }
}

/// Runs Algorithm 1 over a layer's `sites` in lock-step rounds.
///
/// Each round hands every undecided site, in canonical site order, to
/// `white_box` as `(site index, cursor)`; it must return each site's
/// [`ProbeStep`] in the same order (from [`site_probe_with`] on a clone of
/// the cursor). The round's probes then go to the oracle as one batch in
/// site order, and each answer is judged by Lemma 2. Sites that stay
/// indecisive with attempts left carry their cursor into the next round;
/// everything else is decided, with an oracle failure mapping to ⊥ (the
/// decryptor's learning fallback owns those slots). Every round spends at
/// least one attempt of each site it probes, so a layer takes at most
/// `cfg.max_site_attempts` rounds.
///
/// `cursors[i]` belongs to `sites[i]` and is left where its search
/// stopped. Because a site's stream is consumed only by its own white-box
/// half, its outcome does not depend on how `white_box` schedules the
/// items or on which other sites share its rounds.
pub(crate) fn infer_rounds(
    sites: &[LockSite],
    cursors: &mut [SiteCursor],
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    mut white_box: impl FnMut(&[(usize, SiteCursor)]) -> Vec<ProbeStep>,
) -> InferredBits {
    assert_eq!(sites.len(), cursors.len(), "one cursor per site");
    let mut bits: Vec<Option<bool>> = vec![None; sites.len()];
    let mut pending: Vec<usize> = (0..sites.len()).collect();
    while !pending.is_empty() {
        let round: Vec<(usize, SiteCursor)> =
            pending.iter().map(|&i| (i, cursors[i].clone())).collect();
        let steps = white_box(&round);
        assert_eq!(steps.len(), round.len(), "one probe step per round item");
        let mut probing = Vec::new();
        let mut probes = Vec::new();
        for (&i, (probe, cursor)) in pending.iter().zip(steps) {
            cursors[i] = cursor;
            if let Some(probe) = probe {
                probing.push(i);
                probes.push(probe);
            }
        }
        pending.clear();
        for (i, verdict) in probing
            .into_iter()
            .zip(round_verdicts(oracle, &probes, cfg))
        {
            match verdict {
                Ok(Some(bit)) => bits[i] = Some(bit),
                // Indecisive: retry with a fresh witness next round.
                Ok(None) if cursors[i].attempts > 0 => pending.push(i),
                _ => {}
            }
        }
    }
    sites.iter().map(|s| s.slot).zip(bits).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use relock_locking::{CountingOracle, Key, LockSpec, LockedModel};
    use relock_nn::{build_mlp, MlpSpec};

    /// An untrained (random-weight) locked MLP is a perfectly valid attack
    /// target: the algorithm never uses the data distribution.
    fn locked_mlp(seed: u64, bits: usize) -> LockedModel {
        let mut rng = Prng::seed_from_u64(seed);
        build_mlp(
            &MlpSpec {
                input: 12,
                hidden: vec![8, 6],
                classes: 4,
            },
            LockSpec::evenly(bits),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn recovers_first_layer_bits_of_contractive_mlp() {
        let model = locked_mlp(100, 6);
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(101);
        // Candidate assignment: nothing decrypted yet (all +1); first-layer
        // hyperplanes don't depend on any key bits.
        let ka = Key::zeros(model.true_key().len()).to_assignment();
        let first_layer_node = g.lock_sites()[0].keyed_node;
        let mut inferred = 0usize;
        for site in g
            .lock_sites()
            .iter()
            .filter(|s| s.keyed_node == first_layer_node)
        {
            if let Some(bit) = key_bit_inference(g, &ka, site, &oracle, &cfg, &mut rng) {
                assert_eq!(
                    bit,
                    model.true_key().bit(site.slot.index()),
                    "slot {} misinferred",
                    site.slot
                );
                inferred += 1;
            }
        }
        assert!(inferred >= 2, "only {inferred} bits inferred algebraically");
        assert!(oracle.query_count() > 0);
    }

    #[test]
    fn expansive_layer_returns_bottom_quickly() {
        // hidden wider than the input: d_1 > P, Â cannot be onto.
        let mut rng = Prng::seed_from_u64(102);
        let model = build_mlp(
            &MlpSpec {
                input: 4,
                hidden: vec![16],
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let cfg = AttackConfig::fast();
        let ka = Key::zeros(4).to_assignment();
        let mut arng = Prng::seed_from_u64(103);
        for site in model.white_box().lock_sites() {
            assert_eq!(
                key_bit_inference(model.white_box(), &ka, &site, &oracle, &cfg, &mut arng),
                None
            );
        }
        // skip_expansive means zero oracle traffic was spent.
        assert_eq!(oracle.query_count(), 0);
    }

    #[test]
    fn second_layer_inference_needs_correct_first_layer_keys() {
        // With the first layer decrypted, second-layer bits are inferable
        // and correct.
        let model = locked_mlp(104, 6);
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(105);
        // Assignment with ALL true bits (simulating a decrypted prefix).
        let ka = model.true_key().to_assignment();
        let sites = g.lock_sites();
        let second_layer_node = sites.last().unwrap().keyed_node;
        let mut checked = 0usize;
        for site in sites.iter().filter(|s| s.keyed_node == second_layer_node) {
            if let Some(bit) = key_bit_inference(g, &ka, site, &oracle, &cfg, &mut rng) {
                assert_eq!(bit, model.true_key().bit(site.slot.index()));
                checked += 1;
            }
        }
        assert!(checked >= 1, "no second-layer bits inferred");
    }
}
