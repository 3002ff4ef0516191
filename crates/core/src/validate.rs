//! Key-vector validation (paper §3.7).
//!
//! If the candidate bits for layer `i` are correct, then for a level-`(i+1)`
//! hyperplane of the white-box network the *oracle* must have a hyperplane
//! at the same location (Lemma 1); if they are wrong, the oracle is almost
//! surely smooth there. We test for an oracle hyperplane with an exact
//! second-difference probe: for a piecewise-linear oracle,
//! `O(x+δu) + O(x−δu) − 2·O(x°)` vanishes identically when no hyperplane
//! crosses the segment, and is `Θ(δ)` when one does.

use crate::config::AttackConfig;
use crate::critical::{search_target_critical_point_with, TargetScalar};
use relock_graph::{Graph, KeyAssignment, KeySlot, NodeId, UnitLayout, Workspace};
use relock_locking::{Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Where the validation procedure looks for next-layer hyperplanes.
///
/// The hyperplane of a next-layer neuron is the zero set of the input to
/// its ReLU. In a plain layer that is (up to the flip's sign) the
/// pre-activation itself; in a residual block it is `m̂·z + skip` — which
/// depends on the unit's own (still unknown) key bit, so witnesses are
/// searched **per bit hypothesis** on the ReLU-input node.
#[derive(Debug, Clone)]
pub struct ValidationTarget {
    /// The node feeding the next layer's ReLU (the keyed node itself in a
    /// sequential network, the residual `Add` node in a ResNet block).
    pub surface_node: NodeId,
    /// The next layer's unit layout (element indices are preserved from
    /// the keyed node through element-wise joins).
    pub layout: UnitLayout,
    /// Units of that layout to probe, each with its own key slot if the
    /// unit is itself locked.
    pub units: Vec<(usize, Option<KeySlot>)>,
}

/// Second difference `‖O(x+δu) + O(x−δu) − 2·O(x)‖∞` at step `delta`.
///
/// The probe points go out as **one** batch: through a broker that is one
/// request (one budget reservation, one dispatch), and the symmetric rows
/// land in the same cache generation. `o0` caches the base point's answer
/// `O(x)`; while it is still unknown, `x` rides in front of the ±δ pair
/// (a 3-row batch instead of a 1-row call and a 2-row one) and the answer
/// is stored for the witness's later probes.
fn second_difference(
    oracle: &dyn Oracle,
    o0: &mut Option<Tensor>,
    x: &Tensor,
    u: &Tensor,
    delta: f64,
) -> Result<f64, OracleError> {
    let p = x.numel();
    let mut rows = Vec::with_capacity(3 * p);
    if o0.is_none() {
        rows.extend_from_slice(x.as_slice());
    }
    for step in [delta, -delta] {
        let mut xs = x.clone();
        xs.axpy(step, u);
        rows.extend_from_slice(xs.as_slice());
    }
    let n = rows.len() / p;
    let out = oracle.try_query_batch(&Tensor::from_vec(rows, [n, p]))?;
    let base = o0.get_or_insert_with(|| Tensor::from_slice(out.row(0)));
    let (op, om) = (out.row(n - 2), out.row(n - 1));
    let mut max_c = 0.0f64;
    for i in 0..base.numel() {
        let c = op[i] + om[i] - 2.0 * base.as_slice()[i];
        max_c = max_c.max(c.abs());
    }
    Ok(max_c)
}

/// White-box second difference along `u` — used to decide whether a
/// witness's kink is *observable* from the output at all (Lemma 3: a
/// boundary can be covered by subsequent layers, e.g. masked by a pooling
/// window it does not win).
fn whitebox_second_difference(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    x: &Tensor,
    u: &Tensor,
    delta: f64,
) -> (f64, f64) {
    let p = x.numel();
    let mut pts = Vec::with_capacity(3 * p);
    pts.extend_from_slice(x.as_slice());
    let mut xp = x.clone();
    xp.axpy(delta, u);
    let mut xm = x.clone();
    xm.axpy(-delta, u);
    pts.extend_from_slice(xp.as_slice());
    pts.extend_from_slice(xm.as_slice());
    let out = g.logits_batch_into(ws, &Tensor::from_vec(pts, [3, p]), ka);
    let q = out.dims()[1];
    let o = out.as_slice();
    let mut max_c = 0.0f64;
    let mut scale = 1.0f64;
    for i in 0..q {
        let c = o[q + i] + o[2 * q + i] - 2.0 * o[i];
        max_c = max_c.max(c.abs());
        scale = scale.max(o[i].abs());
    }
    (max_c, scale)
}

/// Per-witness validation outcome.
enum WitnessVerdict {
    /// The kink is not observable from the output even in the white box —
    /// the witness carries no information (tolerated, not counted).
    NotObservable,
    /// The oracle shows the expected kink.
    Confirmed,
    /// The oracle is smooth where a kink was predicted.
    Refuted,
}

/// Probes one witness.
///
/// For each probe direction, the white box (with the candidate key) must
/// itself show a kink — otherwise the direction is uninformative (the
/// boundary is covered downstream and even a correct key would look
/// smooth). On informative directions the oracle is tested with a
/// two-scale second difference: a genuine ReLU kink scales *linearly* in δ
/// (halving δ halves it), whereas smooth curvature (softmax attention,
/// layer norm) scales *quadratically*. Requiring both a magnitude above
/// `kink_tol` and a ≥ 0.4 ratio under halving separates the regimes
/// without model-specific thresholds.
#[allow(clippy::too_many_arguments)]
fn probe_witness(
    g: &Graph,
    ws: &mut Workspace,
    observability_keys: &[&KeyAssignment],
    oracle: &dyn Oracle,
    x: &Tensor,
    first_dir: &Tensor,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<WitnessVerdict, OracleError> {
    let mut informative = false;
    let mut o0: Option<Tensor> = None;
    for d in 0..cfg.validation_directions {
        let u = if d == 0 {
            first_dir.clone()
        } else {
            rng.unit_vector(x.numel())
        };
        // Observability pre-filter on the white box (no oracle queries):
        // every supplied key hypothesis must predict a visible kink, or
        // the oracle's (unknown-bit) masking could differ from ours.
        let mut visible = true;
        for ka in observability_keys {
            let (wb, wb_scale) = whitebox_second_difference(g, ws, ka, x, &u, cfg.probe_delta);
            if wb / wb_scale < cfg.kink_tol {
                visible = false;
                break;
            }
        }
        if !visible {
            continue;
        }
        informative = true;
        let c_full = second_difference(oracle, &mut o0, x, &u, cfg.probe_delta)?;
        let scale = o0.as_ref().expect("answered above").norm_inf().max(1.0);
        if c_full / scale < cfg.kink_tol {
            continue;
        }
        let c_half = second_difference(oracle, &mut o0, x, &u, 0.5 * cfg.probe_delta)?;
        if c_half >= 0.4 * c_full {
            return Ok(WitnessVerdict::Confirmed);
        }
    }
    Ok(if informative {
        WitnessVerdict::Refuted
    } else {
        WitnessVerdict::NotObservable
    })
}

/// Probes one next-layer unit, trying positional witnesses first and
/// unit-extremum witnesses second.
///
/// *Positional*: a witness of a single pre-activation's zero crossing,
/// vetted for observability under both hypotheses of the unit's own bit
/// (downstream masking — e.g. which pool-window entry wins — depends on
/// it).
///
/// *Extremum*: under pooling, positional witnesses are almost always
/// masked, so we instead find points where the unit's **max** (hypothesis
/// `bit = 0`) or **min** (hypothesis `bit = 1`; `max(−z) = 0 ⇔ min(z) =
/// 0`) crosses zero — there the whole unit transitions from silent to
/// active and the kink survives any pooling. A correct key prefix shows an
/// oracle kink at the witness of whichever hypothesis matches the true
/// bit, so the unit confirms if *either* hypothesis' witness kinks.
#[allow(clippy::too_many_arguments)]
fn probe_unit(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    t: &ValidationTarget,
    unit: usize,
    slot: Option<KeySlot>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<WitnessVerdict, OracleError> {
    let elems: Vec<usize> = t.layout.unit_elements(unit).collect();
    // Bit hypotheses for the unit's own key: the witness surface
    // (ReLU input under that bit) and its downstream observability both
    // depend on it. A correct key prefix must show an oracle kink at the
    // witnesses of whichever hypothesis matches the true bit, so the unit
    // confirms if **either** hypothesis' witnesses kink, and refutes only
    // when every informative witness of every hypothesis stays smooth.
    let mut hypotheses: Vec<KeyAssignment> = vec![ka.clone()];
    if let Some(slot) = slot {
        let mut other = ka.clone();
        let m = ka.multiplier(slot);
        other.set(slot, if m == 0.0 { -1.0 } else { -m });
        hypotheses.push(other);
    }

    // A unit is condemned only when EVERY bit hypothesis accumulates
    // corroborated refuting evidence: under a correct prefix the wrong-bit
    // hypothesis legitimately refutes, so cross-hypothesis pooling would
    // condemn correct keys whose true-bit witnesses happen to be masked.
    let mut hypotheses_refuted = 0usize;
    for ka_h in &hypotheses {
        // Witness scalars, cheapest discriminators first: single ReLU
        // inputs, then tie surfaces (where a pool window's winner
        // switches — plentiful and pool-visible), then the unit extremum
        // (the whole unit waking up — survives any masking).
        let mut scalars: Vec<TargetScalar> = Vec::new();
        for _ in 0..cfg.witness_attempts {
            scalars.push(TargetScalar::Element(elems[rng.below(elems.len())]));
        }
        if elems.len() > 1 {
            for _ in 0..cfg.witness_attempts {
                let a = elems[rng.below(elems.len())];
                let mut b = elems[rng.below(elems.len())];
                if a == b {
                    b = elems[(elems.iter().position(|&e| e == a).unwrap() + 1) % elems.len()];
                }
                scalars.push(TargetScalar::Diff(a, b));
            }
            scalars.push(TargetScalar::UnitMax(elems.clone()));
            scalars.push(TargetScalar::UnitMin(elems.clone()));
        }
        let mut refutes_here = 0usize;
        for scalar in &scalars {
            let Some(cp) =
                search_target_critical_point_with(g, ws, ka_h, t.surface_node, scalar, cfg, rng)
            else {
                continue;
            };
            match probe_witness(g, ws, &[ka_h], oracle, &cp.x, &cp.crossing_dir, cfg, rng)? {
                WitnessVerdict::Confirmed => return Ok(WitnessVerdict::Confirmed),
                WitnessVerdict::Refuted => refutes_here += 1,
                WitnessVerdict::NotObservable => {}
            }
            if refutes_here >= 2 {
                // Two independent un-kinked witnesses condemn this
                // hypothesis; move on to the other one.
                break;
            }
        }
        if refutes_here >= 2 {
            hypotheses_refuted += 1;
        }
    }

    // Single refuting witnesses can be white-box masking mispredictions
    // (unknown downstream bits); and a hypothesis with no observable
    // witnesses cannot be judged. Condemn the unit only when every
    // hypothesis was judged and condemned; anything less is inconclusive
    // and not counted.
    Ok(if hypotheses_refuted == hypotheses.len() {
        WitnessVerdict::Refuted
    } else {
        WitnessVerdict::NotObservable
    })
}

/// Tests whether the oracle has a kink at `x` (used by the weight-lock
/// attack's hypothesis testing). Returns `None` when the white box says
/// the location is not observable from the output, `Some(true)` on a
/// confirmed oracle kink, `Some(false)` when the oracle is smooth there.
/// Oracle failures (budget, deadline, dead backend) propagate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_kink_at(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    oracle: &dyn Oracle,
    x: &Tensor,
    first_dir: &Tensor,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<Option<bool>, OracleError> {
    Ok(
        match probe_witness(g, ws, &[ka], oracle, x, first_dir, cfg, rng)? {
            WitnessVerdict::Confirmed => Some(true),
            WitnessVerdict::Refuted => Some(false),
            WitnessVerdict::NotObservable => None,
        },
    )
}

/// Outcome of a validation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationVerdict {
    /// A majority of observable witnesses confirmed the key vector.
    Pass,
    /// Observable witnesses refuted the key vector.
    Fail,
    /// No observable witness at all — the layer could not be judged with
    /// this candidate. Algorithm 2 tolerates this for the candidate it
    /// arrived with (paper §3.7's uncertainty handling) but treats it as a
    /// failure for error-correction candidates: a *worse* candidate can
    /// push every witness into unobservable regions, and accepting it
    /// blindly would commit garbage.
    NoEvidence,
}

impl ValidationVerdict {
    /// Whether Algorithm 2 accepts the candidate it *arrived* with:
    /// everything except an affirmative [`ValidationVerdict::Fail`].
    pub fn tolerated(self) -> bool {
        !matches!(self, ValidationVerdict::Fail)
    }
}

/// Validates the candidate key bits of a layer (paper §3.7).
///
/// With `target = Some(..)`, hunts for oracle kinks at the white-box
/// critical points of the next layer's neurons and passes when a
/// `cfg.validation_majority` fraction of the probed neurons confirms.
/// With `target = None` (the last hidden layer, where all bits are already
/// determined), directly compares white-box and oracle outputs on random
/// inputs. `NoEvidence` maps to `true`; use
/// [`key_vector_validation_verdict`] for the three-way outcome.
pub fn key_vector_validation(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> bool {
    !matches!(
        key_vector_validation_verdict(g, ka, target, oracle, cfg, rng),
        ValidationVerdict::Fail
    )
}

/// Three-way variant of [`key_vector_validation`]. Oracle failures map to
/// [`ValidationVerdict::NoEvidence`] — an unreachable oracle cannot refute
/// a candidate; callers that must distinguish "could not probe" from "no
/// observable witness" use [`key_vector_validation_checked`].
pub fn key_vector_validation_verdict(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> ValidationVerdict {
    key_vector_validation_checked(g, ka, target, oracle, cfg, rng)
        .unwrap_or(ValidationVerdict::NoEvidence)
}

/// Fallible variant of [`key_vector_validation_verdict`]: a typed
/// [`OracleError`] (budget exhausted, deadline passed, backend down)
/// surfaces as `Err` so the decryptor can fall back to its learned
/// candidate instead of mistaking starvation for evidence.
///
/// # Errors
///
/// Propagates the first [`OracleError`] hit while probing.
pub fn key_vector_validation_checked(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<ValidationVerdict, OracleError> {
    let mut ws = Workspace::new();
    key_vector_validation_checked_with(g, &mut ws, ka, target, oracle, cfg, rng)
}

/// [`key_vector_validation_checked`] through a caller-owned workspace: all
/// witness searches and white-box observability probes of the pass share
/// one set of forward buffers.
#[allow(clippy::too_many_arguments)]
pub fn key_vector_validation_checked_with(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<ValidationVerdict, OracleError> {
    match target {
        Some(t) => {
            let mut informative = 0usize;
            let mut confirmed = 0usize;
            let quota = cfg.validation_neurons;
            // The verdict is a majority vote over `quota` observable
            // units; stop as soon as the vote's outcome is decided.
            let pass_at = (cfg.validation_majority * quota as f64).ceil() as usize;
            let fail_at = quota - pass_at + 1;
            for &(unit, slot) in &t.units {
                if informative >= quota
                    || confirmed >= pass_at
                    || informative - confirmed >= fail_at
                {
                    break;
                }
                match probe_unit(g, ws, ka, t, unit, slot, oracle, cfg, rng)? {
                    WitnessVerdict::Confirmed => {
                        informative += 1;
                        confirmed += 1;
                    }
                    WitnessVerdict::Refuted => informative += 1,
                    WitnessVerdict::NotObservable => {}
                }
            }
            if confirmed >= pass_at {
                return Ok(ValidationVerdict::Pass);
            }
            if informative - confirmed >= fail_at {
                return Ok(ValidationVerdict::Fail);
            }
            if informative == 0 {
                return Ok(ValidationVerdict::NoEvidence);
            }
            Ok(
                if confirmed as f64 / informative as f64 >= cfg.validation_majority {
                    ValidationVerdict::Pass
                } else {
                    ValidationVerdict::Fail
                },
            )
        }
        None => {
            let p = g.input_size();
            let x = rng
                .normal_tensor([cfg.final_check_samples, p])
                .scale(cfg.input_scale);
            let theirs = oracle.try_query_batch(&x)?;
            let ours = g.logits_batch_into(ws, &x, ka);
            // A probability oracle is compared in probability space.
            let diff = if crate::probs::looks_like_probabilities(&theirs) {
                crate::probs::softmax_rows(ours).max_abs_diff(&theirs)
            } else {
                ours.max_abs_diff(&theirs)
            };
            let scale = theirs.norm_inf().max(1.0);
            Ok(if diff / scale <= cfg.eq_tol {
                ValidationVerdict::Pass
            } else {
                ValidationVerdict::Fail
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use relock_locking::{CountingOracle, Key, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};

    fn setup() -> (relock_locking::LockedModel, AttackConfig) {
        let mut rng = Prng::seed_from_u64(120);
        let model = build_mlp(
            &MlpSpec {
                input: 10,
                hidden: vec![8, 8],
                classes: 4,
            },
            LockSpec::evenly(8),
            &mut rng,
        )
        .unwrap();
        (model, AttackConfig::fast())
    }

    fn second_layer_target(g: &Graph) -> ValidationTarget {
        let sites = g.lock_sites();
        let last = sites.last().unwrap();
        ValidationTarget {
            surface_node: last.keyed_node,
            layout: last.layout,
            units: (0..last.layout.n_units)
                .map(|u| {
                    let slot = sites
                        .iter()
                        .find(|s| s.keyed_node == last.keyed_node && s.unit == u)
                        .map(|s| s.slot);
                    (u, slot)
                })
                .collect(),
        }
    }

    #[test]
    fn correct_first_layer_passes() {
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let ka = model.true_key().to_assignment();
        let t = second_layer_target(g);
        let mut rng = Prng::seed_from_u64(121);
        assert!(key_vector_validation(
            g,
            &ka,
            Some(&t),
            &oracle,
            &cfg,
            &mut rng
        ));
    }

    #[test]
    fn wrong_first_layer_fails() {
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        // Corrupt a first-layer bit.
        let sites = g.lock_sites();
        let first_node = sites[0].keyed_node;
        let first_slot = sites
            .iter()
            .find(|s| s.keyed_node == first_node)
            .unwrap()
            .slot;
        let mut wrong = model.true_key().clone();
        wrong.flip_bit(first_slot.index());
        let ka = wrong.to_assignment();
        let t = second_layer_target(g);
        let mut rng = Prng::seed_from_u64(122);
        assert!(!key_vector_validation(
            g,
            &ka,
            Some(&t),
            &oracle,
            &cfg,
            &mut rng
        ));
    }

    #[test]
    fn witness_confirmed_on_its_first_direction_costs_two_oracle_calls() {
        use crate::critical::search_target_critical_point;
        use relock_serve::Broker;
        let (model, mut cfg) = setup();
        // One direction: a Confirmed verdict must come from the first.
        cfg.validation_directions = 1;
        let g = model.white_box();
        let ka = model.true_key().to_assignment();
        let t = second_layer_target(g);
        let mut rng = Prng::seed_from_u64(124);
        let mut ws = Workspace::new();
        let mut confirmed = 0usize;
        for unit in 0..t.layout.n_units {
            let elem = t.layout.unit_elements(unit).next().unwrap();
            let scalar = TargetScalar::Element(elem);
            let Some(cp) =
                search_target_critical_point(g, &ka, t.surface_node, &scalar, &cfg, &mut rng)
            else {
                continue;
            };
            let oracle = CountingOracle::new(&model);
            let broker = Broker::new(&oracle);
            let kink = oracle_kink_at(
                g,
                &mut ws,
                &ka,
                &broker,
                &cp.x,
                &cp.crossing_dir,
                &cfg,
                &mut rng,
            )
            .unwrap();
            if kink == Some(true) {
                // x° rides with the first ±δ pair, then the ±δ/2 pair.
                let stats = broker.snapshot();
                assert_eq!(stats.batches, 2, "unit {unit}: {stats:?}");
                assert_eq!(stats.requested, 5, "unit {unit}: {stats:?}");
                confirmed += 1;
            }
        }
        assert!(confirmed > 0, "no witness confirmed");
    }

    #[test]
    fn final_direct_check_accepts_true_key_and_rejects_wrong() {
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let mut rng = Prng::seed_from_u64(123);
        assert!(key_vector_validation(
            g,
            &model.true_key().to_assignment(),
            None,
            &oracle,
            &cfg,
            &mut rng
        ));
        let wrong = Key::random(model.true_key().len(), &mut rng);
        if &wrong != model.true_key() {
            assert!(!key_vector_validation(
                g,
                &wrong.to_assignment(),
                None,
                &oracle,
                &cfg,
                &mut rng
            ));
        }
    }
}
