//! Key-vector validation (paper §3.7).
//!
//! If the candidate bits for layer `i` are correct, then for a level-`(i+1)`
//! hyperplane of the white-box network the *oracle* must have a hyperplane
//! at the same location (Lemma 1); if they are wrong, the oracle is almost
//! surely smooth there. We test for an oracle hyperplane with an exact
//! second-difference probe: for a piecewise-linear oracle,
//! `O(x+δu) + O(x−δu) − 2·O(x°)` vanishes identically when no hyperplane
//! crosses the segment, and is `Θ(δ)` when one does.
//!
//! A pass splits at its oracle calls, like Algorithm 1. Each probed
//! next-layer unit gets a cursor on its own PRNG stream, forked from the
//! pass's stream in unit order when the unit is admitted. The cursor's
//! white-box step runs witness searches and observability checks until
//! the unit needs its next second difference (a 3- or 2-row request) or
//! has its verdict. The pass runs its in-flight units in lock-step rounds,
//! one oracle batch per round in unit order. A unit is admitted only while
//! the majority vote would stay open even if every unit in flight went
//! the same way, so the pass admits, queries and decides exactly what a
//! one-unit-at-a-time loop over the same per-unit streams would.

use crate::config::{AttackConfig, INPUT_SCALE};
use crate::critical::{search_target_critical_point_with, TargetScalar};
use crate::infer::batched;
use relock_graph::{Graph, KeyAssignment, KeySlot, NodeId, UnitLayout, Workspace};
use relock_locking::{Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Fraction of probed neurons whose hyperplane must be confirmed for a key
/// vector to pass (§3.7): the vote passes early at `⌈0.7 · quota⌉`
/// confirmations of `AttackConfig::validation_neurons`, else on a 70%
/// share of its informative units.
pub const VALIDATION_MAJORITY: f64 = 0.7;
/// Probe directions per witness: its crossing direction, then fresh
/// random ones.
pub const VALIDATION_DIRECTIONS: usize = 3;
/// Witness searches per probed element: observability (Lemma 3) is a
/// property of the linear region, so a masked witness can be retried in
/// a different region of the same hyperplane.
pub const WITNESS_ATTEMPTS: usize = 3;
/// Oracle/white-box comparison samples of the last hidden layer's direct
/// validation.
const FINAL_CHECK_SAMPLES: usize = 16;

/// Where the validation procedure looks for next-layer hyperplanes.
///
/// The hyperplane of a next-layer neuron is the zero set of the input to
/// its ReLU. In a plain layer that is (up to the flip's sign) the
/// pre-activation itself; in a residual block it is `m̂·z + skip` — which
/// depends on the unit's own (still unknown) key bit, so witnesses are
/// searched **per bit hypothesis** on the ReLU-input node.
#[derive(Debug, Clone, PartialEq)]
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

/// Per-witness (and per-unit) validation outcome.
enum WitnessVerdict {
    /// The kink is not observable from the output even in the white box —
    /// the witness carries no information (tolerated, not counted).
    NotObservable,
    /// The oracle shows the expected kink.
    Confirmed,
    /// The oracle is smooth where a kink was predicted.
    Refuted,
}

/// What a cursor's white-box step ends on.
enum Step {
    /// The rows of its next second-difference request.
    Ask(Tensor),
    /// Its verdict: it needs no more oracle answers.
    Done(WitnessVerdict),
}

/// One witness's probe between oracle round trips.
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
struct WitnessCursor {
    x: Tensor,
    /// The current direction: the witness's crossing direction first,
    /// then fresh random ones.
    u: Tensor,
    /// Directions started so far.
    dirs: usize,
    /// Whether some direction was observable in the white box.
    informative: bool,
    /// `O(x°)` once answered. Until then `x°` rides in front of the ±δ
    /// pair (a 3-row request); afterwards every request is the 2-row pair.
    o0: Option<Tensor>,
    /// The current direction's full-step second difference while its
    /// half-step request is out.
    c_full: Option<f64>,
}

impl WitnessCursor {
    fn new(x: Tensor, crossing_dir: Tensor) -> Self {
        WitnessCursor {
            x,
            u: crossing_dir,
            dirs: 0,
            informative: false,
            o0: None,
            c_full: None,
        }
    }

    /// Reads `answer`, the oracle's reply to the last request (`None` on
    /// the first step), then runs the white box up to the next request or
    /// the verdict.
    fn step(
        &mut self,
        g: &Graph,
        ws: &mut Workspace,
        ka: &KeyAssignment,
        cfg: &AttackConfig,
        rng: &mut Prng,
        answer: Option<&Tensor>,
    ) -> Step {
        if let Some(out) = answer {
            let n = out.dims()[0];
            let base = self
                .o0
                .get_or_insert_with(|| Tensor::from_slice(out.row(0)));
            let (op, om) = (out.row(n - 2), out.row(n - 1));
            let mut c = 0.0f64;
            for i in 0..base.numel() {
                c = c.max((op[i] + om[i] - 2.0 * base.as_slice()[i]).abs());
            }
            match self.c_full.take() {
                // Smooth at the full step: try the next direction.
                None if c / base.norm_inf().max(1.0) < cfg.kink_tol => {}
                None => {
                    self.c_full = Some(c);
                    return Step::Ask(self.request(0.5 * cfg.probe_delta));
                }
                Some(c_full) if c >= 0.4 * c_full => return Step::Done(WitnessVerdict::Confirmed),
                Some(_) => {}
            }
        }
        while self.dirs < VALIDATION_DIRECTIONS {
            if self.dirs > 0 {
                self.u = rng.unit_vector(self.x.numel());
            }
            self.dirs += 1;
            // Observability pre-filter on the white box (no oracle
            // queries): the key hypothesis must predict a visible kink, or
            // the oracle's (unknown-bit) masking could differ from ours.
            let (wb, wb_scale) =
                whitebox_second_difference(g, ws, ka, &self.x, &self.u, cfg.probe_delta);
            if wb / wb_scale < cfg.kink_tol {
                continue;
            }
            self.informative = true;
            return Step::Ask(self.request(cfg.probe_delta));
        }
        Step::Done(if self.informative {
            WitnessVerdict::Refuted
        } else {
            WitnessVerdict::NotObservable
        })
    }

    /// The rows `x°+δu, x°−δu`, behind `x°` while `O(x°)` is unknown.
    fn request(&self, delta: f64) -> Tensor {
        let p = self.x.numel();
        let mut rows = Vec::with_capacity(3 * p);
        if self.o0.is_none() {
            rows.extend_from_slice(self.x.as_slice());
        }
        for step in [delta, -delta] {
            let mut xs = self.x.clone();
            xs.axpy(step, &self.u);
            rows.extend_from_slice(xs.as_slice());
        }
        let n = rows.len() / p;
        Tensor::from_vec(rows, [n, p])
    }
}

/// One next-layer unit's probe between oracle round trips, trying
/// positional witnesses first and unit-extremum witnesses second.
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
struct UnitCursor {
    /// The unit's own stream, forked from the pass's stream at admission.
    rng: Prng,
    elems: Vec<usize>,
    /// Bit hypotheses for the unit's own key: the witness surface (ReLU
    /// input under that bit) and its downstream observability both depend
    /// on it.
    hypotheses: Vec<KeyAssignment>,
    /// The hypothesis being probed.
    h: usize,
    /// Its witness scalars, drawn when it starts.
    scalars: Vec<TargetScalar>,
    /// The next of them to search a witness for.
    next_scalar: usize,
    /// Its refuting witnesses so far.
    refutes: usize,
    /// Hypotheses condemned so far.
    condemned: usize,
    /// The witness being probed.
    witness: Option<WitnessCursor>,
}

impl UnitCursor {
    fn new(
        t: &ValidationTarget,
        (unit, slot): (usize, Option<KeySlot>),
        ka: &KeyAssignment,
        rng: Prng,
    ) -> Self {
        let mut hypotheses = vec![ka.clone()];
        if let Some(slot) = slot {
            let mut other = ka.clone();
            let m = ka.multiplier(slot);
            other.set(slot, if m == 0.0 { -1.0 } else { -m });
            hypotheses.push(other);
        }
        let mut cursor = UnitCursor {
            rng,
            elems: t.layout.unit_elements(unit).collect(),
            hypotheses,
            h: 0,
            scalars: Vec::new(),
            next_scalar: 0,
            refutes: 0,
            condemned: 0,
            witness: None,
        };
        cursor.start_hypothesis();
        cursor
    }

    /// Draws the current hypothesis' witness scalars, cheapest
    /// discriminators first: single ReLU inputs, then tie surfaces (where a
    /// pool window's winner switches — plentiful and pool-visible), then
    /// the unit extremum (the whole unit waking up — survives any
    /// masking).
    fn start_hypothesis(&mut self) {
        let (elems, rng) = (&self.elems, &mut self.rng);
        self.scalars.clear();
        for _ in 0..WITNESS_ATTEMPTS {
            self.scalars
                .push(TargetScalar::Element(elems[rng.below(elems.len())]));
        }
        if elems.len() > 1 {
            for _ in 0..WITNESS_ATTEMPTS {
                let i = rng.below(elems.len());
                let a = elems[i];
                let mut b = elems[rng.below(elems.len())];
                if a == b {
                    b = elems[(i + 1) % elems.len()];
                }
                self.scalars.push(TargetScalar::Diff(a, b));
            }
            self.scalars.push(TargetScalar::UnitMax(elems.clone()));
            self.scalars.push(TargetScalar::UnitMin(elems.clone()));
        }
        self.next_scalar = 0;
        self.refutes = 0;
    }

    /// Feeds `answer` (the reply to the unit's last request, `None` on the
    /// first step) to the current witness, then runs the white box — each
    /// witness search and observability check once — up to the unit's
    /// next request or its verdict.
    fn step(
        &mut self,
        g: &Graph,
        ws: &mut Workspace,
        surface: NodeId,
        cfg: &AttackConfig,
        answer: Option<&Tensor>,
    ) -> Step {
        let mut witness = answer.map(|out| {
            let w = self.witness.as_mut().expect("an answer follows a request");
            w.step(
                g,
                ws,
                &self.hypotheses[self.h],
                cfg,
                &mut self.rng,
                Some(out),
            )
        });
        loop {
            match witness {
                Some(Step::Ask(rows)) => return Step::Ask(rows),
                Some(Step::Done(WitnessVerdict::Confirmed)) => {
                    return Step::Done(WitnessVerdict::Confirmed)
                }
                Some(Step::Done(WitnessVerdict::Refuted)) => self.refutes += 1,
                Some(Step::Done(WitnessVerdict::NotObservable)) | None => {}
            }
            // Two independent un-kinked witnesses condemn a hypothesis;
            // move on to the other one. Under a correct prefix the
            // wrong-bit hypothesis legitimately refutes, so evidence is
            // never pooled across hypotheses.
            while self.refutes >= 2 || self.next_scalar == self.scalars.len() {
                if self.refutes >= 2 {
                    self.condemned += 1;
                }
                self.h += 1;
                if self.h == self.hypotheses.len() {
                    // Single refuting witnesses can be white-box masking
                    // mispredictions (unknown downstream bits), and a
                    // hypothesis with no observable witnesses cannot be
                    // judged. Condemn the unit only when every hypothesis
                    // was judged and condemned; anything less is
                    // inconclusive and not counted.
                    return Step::Done(if self.condemned == self.hypotheses.len() {
                        WitnessVerdict::Refuted
                    } else {
                        WitnessVerdict::NotObservable
                    });
                }
                self.start_hypothesis();
            }
            let scalar = &self.scalars[self.next_scalar];
            self.next_scalar += 1;
            let ka = &self.hypotheses[self.h];
            witness =
                search_target_critical_point_with(g, ws, ka, surface, scalar, cfg, &mut self.rng)
                    .map(|cp| {
                        let w = self
                            .witness
                            .insert(WitnessCursor::new(cp.x, cp.crossing_dir));
                        w.step(g, ws, ka, cfg, &mut self.rng, None)
                    });
        }
    }
}

/// The running majority vote of one pass over `quota` observable units.
struct Vote {
    quota: usize,
    pass_at: usize,
    fail_at: usize,
    confirmed: usize,
    refuted: usize,
}

impl Vote {
    fn new(cfg: &AttackConfig) -> Self {
        let quota = cfg.validation_neurons;
        let pass_at = (VALIDATION_MAJORITY * quota as f64).ceil() as usize;
        Vote {
            quota,
            pass_at,
            fail_at: quota - pass_at + 1,
            confirmed: 0,
            refuted: 0,
        }
    }

    /// Whether one more unit may join `in_flight` others: the vote must
    /// stay undecided, and the quota unfilled, even if all of them go the
    /// same way. A one-unit-at-a-time loop would then probe it too.
    fn admits(&self, in_flight: usize) -> bool {
        self.confirmed + in_flight < self.pass_at
            && self.refuted + in_flight < self.fail_at
            && self.confirmed + self.refuted + in_flight < self.quota
    }

    fn count(&mut self, v: WitnessVerdict) {
        match v {
            WitnessVerdict::Confirmed => self.confirmed += 1,
            WitnessVerdict::Refuted => self.refuted += 1,
            WitnessVerdict::NotObservable => {}
        }
    }

    fn verdict(&self) -> ValidationVerdict {
        let informative = self.confirmed + self.refuted;
        if self.confirmed >= self.pass_at {
            ValidationVerdict::Pass
        } else if self.refuted >= self.fail_at {
            ValidationVerdict::Fail
        } else if informative == 0 {
            ValidationVerdict::NoEvidence
        } else if self.confirmed as f64 / informative as f64 >= VALIDATION_MAJORITY {
            ValidationVerdict::Pass
        } else {
            ValidationVerdict::Fail
        }
    }
}

/// Tests whether the oracle has a kink at `x` (used by the weight-lock
/// attack's hypothesis testing): the one-witness case of a validation
/// pass, on `rng` itself. Returns `None` when the white box says the
/// location is not observable from the output, `Some(true)` on a
/// confirmed oracle kink, `Some(false)` when the oracle is smooth there.
/// Oracle failures (budget, dead backend) propagate.
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
    let mut witness = WitnessCursor::new(x.clone(), first_dir.clone());
    let mut step = witness.step(g, ws, ka, cfg, rng, None);
    loop {
        match step {
            Step::Ask(rows) => {
                let out = oracle.try_query_batch(&rows)?;
                step = witness.step(g, ws, ka, cfg, rng, Some(&out));
            }
            Step::Done(v) => {
                return Ok(match v {
                    WitnessVerdict::Confirmed => Some(true),
                    WitnessVerdict::Refuted => Some(false),
                    WitnessVerdict::NotObservable => None,
                })
            }
        }
    }
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

/// Validates the candidate key bits of a layer (paper §3.7) and reports
/// whether Algorithm 2 would accept them: every outcome except
/// [`ValidationVerdict::Fail`] is `true`, an oracle failure included (an
/// unreachable oracle cannot refute a candidate). See
/// [`key_vector_validation_checked_with`] for the three-way, fallible
/// outcome.
pub fn key_vector_validation(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> bool {
    let mut ws = Workspace::new();
    !matches!(
        key_vector_validation_checked_with(g, &mut ws, ka, target, oracle, cfg, rng),
        Ok(ValidationVerdict::Fail)
    )
}

/// Validates the candidate key bits of a layer (paper §3.7) through a
/// caller-owned workspace.
///
/// With `target = Some(..)`, hunts for oracle kinks at the white-box
/// critical points of the next layer's neurons and passes when a
/// [`VALIDATION_MAJORITY`] fraction of `cfg.validation_neurons`
/// observable units confirms; the vote stops as soon as its outcome is
/// decided. Units are admitted in `target.units` order, each forking its
/// own stream from `rng`, and the units in flight share one oracle batch
/// per round (see the module docs). With `target = None` (the last hidden
/// layer, where all bits are already determined), directly compares
/// white-box and oracle outputs on random inputs.
///
/// # Errors
///
/// A typed [`OracleError`] (budget exhausted, backend down) surfaces as
/// `Err` so the decryptor can fall back to its learned candidate instead
/// of mistaking starvation for evidence.
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
            let mut vote = Vote::new(cfg);
            let mut queue = t.units.iter();
            // The units in flight, in unit order, and their requests.
            let mut flight: Vec<UnitCursor> = Vec::new();
            let mut requests: Vec<Tensor> = Vec::new();
            loop {
                while vote.admits(flight.len()) {
                    let Some(&unit) = queue.next() else { break };
                    let mut cursor = UnitCursor::new(t, unit, ka, rng.fork());
                    match cursor.step(g, ws, t.surface_node, cfg, None) {
                        Step::Ask(rows) => {
                            flight.push(cursor);
                            requests.push(rows);
                        }
                        Step::Done(v) => vote.count(v),
                    }
                }
                if flight.is_empty() {
                    break;
                }
                // One batch per round; if it is refused, one call per
                // request, and the first refused call fails the pass.
                let answers = match batched(oracle, &requests) {
                    Some(answers) => answers,
                    None => requests
                        .iter()
                        .map(|r| oracle.try_query_batch(r))
                        .collect::<Result<Vec<_>, _>>()?,
                };
                requests.clear();
                let mut still = Vec::with_capacity(flight.len());
                for (mut cursor, out) in flight.into_iter().zip(answers) {
                    match cursor.step(g, ws, t.surface_node, cfg, Some(&out)) {
                        Step::Ask(rows) => {
                            still.push(cursor);
                            requests.push(rows);
                        }
                        Step::Done(v) => vote.count(v),
                    }
                }
                flight = still;
            }
            Ok(vote.verdict())
        }
        None => {
            let p = g.input_size();
            let x = rng
                .normal_tensor([FINAL_CHECK_SAMPLES, p])
                .scale(INPUT_SCALE);
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
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
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
            // Drive the witness the way `oracle_kink_at` does, logging
            // each request's row count.
            let mut witness = WitnessCursor::new(cp.x, cp.crossing_dir);
            let mut rows = Vec::new();
            let mut step = witness.step(g, &mut ws, &ka, &cfg, &mut rng, None);
            while let Step::Ask(request) = step {
                rows.push(request.dims()[0]);
                let out = oracle.query_batch(&request);
                step = witness.step(g, &mut ws, &ka, &cfg, &mut rng, Some(&out));
            }
            if matches!(step, Step::Done(WitnessVerdict::Confirmed)) && witness.dirs == 1 {
                // x° rides with the first ±δ pair, then the ±δ/2 pair.
                assert_eq!(rows, [3, 2], "unit {unit}");
                confirmed += 1;
            }
        }
        assert!(confirmed > 0, "no witness confirmed on its first direction");
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
