//! The §3.7 validation round contract: `key_vector_validation_checked_with`
//! runs a layer's witness units in lock-step rounds, one oracle batch per
//! round in unit order, and must agree with a one-unit-at-a-time loop that
//! forks one stream per unit in unit order — on the verdict, on every row
//! it asks the oracle and on the parent stream's final state. Under a
//! budget that cannot pay for a whole round, the round falls back to one
//! call per request in unit order.
//!
//! The reference below probes one unit at a time: each unit to its
//! verdict before the next is admitted, each witness to its verdict before
//! the next is searched, one oracle call per second difference.

use relock_attack::testutil::{layers, lenet_victim, row_multiset, variant_victim, Call, Recorder};
use relock_attack::{
    key_vector_validation_checked_with, search_target_critical_point, AttackConfig, LocalExecutor,
    PhaseExecutor, TargetScalar, ValidationTarget, ValidationVerdict, VALIDATION_DIRECTIONS,
    VALIDATION_MAJORITY, WITNESS_ATTEMPTS,
};
use relock_graph::{Graph, KeyAssignment, KeySlot, LockSite, Workspace};
use relock_locking::{LockVariant, LockedModel, Oracle, OracleError};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::sync::Mutex;

/// An oracle that logs every call it is asked, by row count and whether
/// `inner` answered it.
struct Attempts<'a> {
    inner: &'a dyn Oracle,
    log: Mutex<Vec<(usize, bool)>>,
}

impl<'a> Attempts<'a> {
    fn new(inner: &'a dyn Oracle) -> Self {
        Attempts {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    fn log(&self) -> Vec<(usize, bool)> {
        self.log.lock().unwrap().clone()
    }
}

impl Oracle for Attempts<'_> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.try_query_batch(x).unwrap()
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let out = self.inner.try_query_batch(x);
        self.log.lock().unwrap().push((x.dims()[0], out.is_ok()));
        out
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
}

/// A unit's (or a witness's) outcome in the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    NotObservable,
    Confirmed,
    Refuted,
}

/// How many witness searches the reference ran per scalar kind:
/// `[Element, Diff, UnitMax, UnitMin]`.
type ScalarKinds = [usize; 4];

/// `‖O(x+δu) + O(x−δu) − 2·O(x)‖∞`, with `x` riding in front of the pair
/// while `O(x)` is unknown.
fn second_difference(
    oracle: &dyn Oracle,
    o0: &mut Option<Tensor>,
    x: &Tensor,
    u: &Tensor,
    delta: f64,
) -> Result<f64, OracleError> {
    let p = x.numel();
    let mut rows = Vec::new();
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
    let mut c = 0.0f64;
    for i in 0..base.numel() {
        c = c.max((op[i] + om[i] - 2.0 * base.as_slice()[i]).abs());
    }
    Ok(c)
}

/// The white box's second difference and output scale at `x` along `u`.
fn whitebox_second_difference(
    g: &Graph,
    ka: &KeyAssignment,
    x: &Tensor,
    u: &Tensor,
    delta: f64,
) -> (f64, f64) {
    let mut pts = x.as_slice().to_vec();
    for step in [delta, -delta] {
        let mut xs = x.clone();
        xs.axpy(step, u);
        pts.extend_from_slice(xs.as_slice());
    }
    let out = g.logits_batch(&Tensor::from_vec(pts, [3, x.numel()]), ka);
    let (o, op, om) = (out.row(0), out.row(1), out.row(2));
    let mut c = 0.0f64;
    let mut scale = 1.0f64;
    for i in 0..o.len() {
        c = c.max((op[i] + om[i] - 2.0 * o[i]).abs());
        scale = scale.max(o[i].abs());
    }
    (c, scale)
}

#[allow(clippy::too_many_arguments)]
fn probe_witness(
    g: &Graph,
    ka: &KeyAssignment,
    oracle: &dyn Oracle,
    x: &Tensor,
    first_dir: &Tensor,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<Outcome, OracleError> {
    let mut informative = false;
    let mut o0 = None;
    for d in 0..VALIDATION_DIRECTIONS {
        let u = if d == 0 {
            first_dir.clone()
        } else {
            rng.unit_vector(x.numel())
        };
        let (wb, wb_scale) = whitebox_second_difference(g, ka, x, &u, cfg.probe_delta);
        if wb / wb_scale < cfg.kink_tol {
            continue;
        }
        informative = true;
        let c_full = second_difference(oracle, &mut o0, x, &u, cfg.probe_delta)?;
        let scale = o0.as_ref().unwrap().norm_inf().max(1.0);
        if c_full / scale < cfg.kink_tol {
            continue;
        }
        let c_half = second_difference(oracle, &mut o0, x, &u, 0.5 * cfg.probe_delta)?;
        if c_half >= 0.4 * c_full {
            return Ok(Outcome::Confirmed);
        }
    }
    Ok(if informative {
        Outcome::Refuted
    } else {
        Outcome::NotObservable
    })
}

#[allow(clippy::too_many_arguments)]
fn probe_unit(
    g: &Graph,
    ka: &KeyAssignment,
    t: &ValidationTarget,
    (unit, slot): (usize, Option<KeySlot>),
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
    kinds: &mut ScalarKinds,
) -> Result<Outcome, OracleError> {
    let elems: Vec<usize> = t.layout.unit_elements(unit).collect();
    let mut hypotheses = vec![ka.clone()];
    if let Some(slot) = slot {
        let mut other = ka.clone();
        let m = ka.multiplier(slot);
        other.set(slot, if m == 0.0 { -1.0 } else { -m });
        hypotheses.push(other);
    }
    let mut condemned = 0usize;
    for ka_h in &hypotheses {
        let mut scalars = Vec::new();
        for _ in 0..WITNESS_ATTEMPTS {
            scalars.push(TargetScalar::Element(elems[rng.below(elems.len())]));
        }
        if elems.len() > 1 {
            for _ in 0..WITNESS_ATTEMPTS {
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
        let mut refutes = 0usize;
        for scalar in &scalars {
            kinds[match scalar {
                TargetScalar::Element(_) => 0,
                TargetScalar::Diff(..) => 1,
                TargetScalar::UnitMax(_) => 2,
                TargetScalar::UnitMin(_) => 3,
            }] += 1;
            let Some(cp) = search_target_critical_point(g, ka_h, t.surface_node, scalar, cfg, rng)
            else {
                continue;
            };
            match probe_witness(g, ka_h, oracle, &cp.x, &cp.crossing_dir, cfg, rng)? {
                Outcome::Confirmed => return Ok(Outcome::Confirmed),
                Outcome::Refuted => refutes += 1,
                Outcome::NotObservable => {}
            }
            if refutes >= 2 {
                break;
            }
        }
        if refutes >= 2 {
            condemned += 1;
        }
    }
    Ok(if condemned == hypotheses.len() {
        Outcome::Refuted
    } else {
        Outcome::NotObservable
    })
}

/// The vote's thresholds: `(quota, pass_at, fail_at)`.
fn thresholds(cfg: &AttackConfig) -> (usize, usize, usize) {
    let quota = cfg.validation_neurons;
    let pass_at = (VALIDATION_MAJORITY * quota as f64).ceil() as usize;
    (quota, pass_at, quota - pass_at + 1)
}

/// One admitted unit of the reference: its outcome and its oracle calls.
struct UnitRun {
    outcome: Outcome,
    calls: Vec<Call>,
}

/// The reference pass: the verdict, the admitted units in unit order, and
/// the scalar kinds searched. `rng` ends where the pass leaves it.
fn one_unit_at_a_time(
    model: &LockedModel,
    ka: &KeyAssignment,
    t: &ValidationTarget,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> (ValidationVerdict, Vec<UnitRun>, ScalarKinds) {
    let g = model.white_box();
    let (quota, pass_at, fail_at) = thresholds(cfg);
    let mut votes = (0usize, 0usize);
    let mut units = Vec::new();
    let mut kinds = [0; 4];
    for &unit in &t.units {
        let (confirmed, refuted) = votes;
        if confirmed + refuted >= quota || confirmed >= pass_at || refuted >= fail_at {
            break;
        }
        let oracle = Recorder::new(model);
        let mut unit_rng = rng.fork();
        let outcome = probe_unit(g, ka, t, unit, &oracle, cfg, &mut unit_rng, &mut kinds)
            .expect("an unbudgeted oracle answers");
        count(outcome, &mut votes);
        units.push(UnitRun {
            outcome,
            calls: oracle.calls(),
        });
    }
    let (confirmed, refuted) = votes;
    let informative = confirmed + refuted;
    let verdict = if confirmed >= pass_at {
        ValidationVerdict::Pass
    } else if refuted >= fail_at {
        ValidationVerdict::Fail
    } else if informative == 0 {
        ValidationVerdict::NoEvidence
    } else if confirmed as f64 / informative as f64 >= VALIDATION_MAJORITY {
        ValidationVerdict::Pass
    } else {
        ValidationVerdict::Fail
    };
    (verdict, units, kinds)
}

/// Counts `outcome` into `(confirmed, refuted)`.
fn count(outcome: Outcome, votes: &mut (usize, usize)) {
    match outcome {
        Outcome::Confirmed => votes.0 += 1,
        Outcome::Refuted => votes.1 += 1,
        Outcome::NotObservable => {}
    }
}

/// The rounds a lock-step pass makes over the reference's units, each as
/// its requests in unit order: admit in unit order while the vote stays
/// open even if every unit in flight went the same way; each round
/// carries the next request of every unit in flight. Also returns the
/// most units ever in flight.
fn expected_rounds(units: &[UnitRun], cfg: &AttackConfig) -> (Vec<Vec<Call>>, usize) {
    let (quota, pass_at, fail_at) = thresholds(cfg);
    let mut votes = (0usize, 0usize);
    let mut admitted = 0usize;
    // (unit, requests sent)
    let mut flight: Vec<(usize, usize)> = Vec::new();
    let mut rounds = Vec::new();
    let mut most = 0usize;
    loop {
        while admitted < units.len()
            && votes.0 + flight.len() < pass_at
            && votes.1 + flight.len() < fail_at
            && votes.0 + votes.1 + flight.len() < quota
        {
            if units[admitted].calls.is_empty() {
                count(units[admitted].outcome, &mut votes);
            } else {
                flight.push((admitted, 0));
            }
            admitted += 1;
        }
        if flight.is_empty() {
            break;
        }
        most = most.max(flight.len());
        let mut round = Vec::new();
        for (u, sent) in &mut flight {
            round.push(units[*u].calls[*sent].clone());
            *sent += 1;
        }
        rounds.push(round);
        flight.retain(|&(u, sent)| {
            let done = sent == units[u].calls.len();
            if done {
                count(units[u].outcome, &mut votes);
            }
            !done
        });
    }
    assert_eq!(
        admitted,
        units.len(),
        "the schedule admits the reference's units"
    );
    (rounds, most)
}

/// Each round as the one call that carries it.
fn calls_of(rounds: &[Vec<Call>]) -> Vec<Call> {
    rounds.iter().map(|r| r.concat()).collect()
}

/// The validation target of the layer before `next`: every unit of
/// `next`'s layout, with its slot if locked, in a seeded order.
fn target(next: &[LockSite], seed: u64) -> ValidationTarget {
    let layout = next[0].layout;
    let mut units: Vec<(usize, Option<KeySlot>)> = (0..layout.n_units)
        .map(|u| (u, next.iter().find(|s| s.unit == u).map(|s| s.slot)))
        .collect();
    Prng::seed_from_u64(seed).shuffle(&mut units);
    ValidationTarget {
        surface_node: next[0].keyed_node,
        layout,
        units,
    }
}

/// The true key, which passes, and the true key with the first bit of
/// `layer` flipped, which fails.
fn keys(
    model: &LockedModel,
    layer: &[LockSite],
) -> [(KeyAssignment, &'static str, ValidationVerdict); 2] {
    let mut wrong = model.true_key().clone();
    wrong.flip_bit(layer[0].slot.index());
    [
        (
            model.true_key().to_assignment(),
            "true key",
            ValidationVerdict::Pass,
        ),
        (
            wrong.to_assignment(),
            "one wrong bit",
            ValidationVerdict::Fail,
        ),
    ]
}

/// Checks one pass against the reference at threads 1 and 4, directly and
/// through a one-candidate correction wave. Returns the reference verdict,
/// whether some round held more than one unit, and the scalar kinds.
fn check_pass(
    model: &LockedModel,
    ka: &KeyAssignment,
    t: &ValidationTarget,
    seed: u64,
    ctx: &str,
) -> (ValidationVerdict, bool, ScalarKinds) {
    let g = model.white_box();
    let base = AttackConfig::fast();
    let mut ref_rng = Prng::seed_from_u64(seed);
    let (verdict, units, kinds) = one_unit_at_a_time(model, ka, t, &base, &mut ref_rng);
    let (rounds, most) = expected_rounds(&units, &base);
    let rounds = calls_of(&rounds);
    let (quota, pass_at, fail_at) = thresholds(&base);
    assert!(
        most <= pass_at.min(fail_at).min(quota),
        "{ctx}: {most} in flight"
    );
    let reference_calls: Vec<Call> = units.iter().flat_map(|u| u.calls.clone()).collect();
    for threads in [1usize, 4] {
        let cfg = AttackConfig { threads, ..base };
        let ctx = format!("{ctx} threads {threads}");
        let inner = Recorder::new(model);
        let broker = Broker::new(&inner);
        let mut rng = Prng::seed_from_u64(seed);
        let got = key_vector_validation_checked_with(
            g,
            &mut Workspace::new(),
            ka,
            Some(t),
            &broker,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert_eq!(got, verdict, "{ctx}: verdict");
        assert_eq!(rng.state(), ref_rng.state(), "{ctx}: parent stream");
        let calls = inner.calls();
        assert_eq!(
            row_multiset(&calls),
            row_multiset(&reference_calls),
            "{ctx}: queried rows"
        );
        assert_eq!(calls, rounds, "{ctx}: one call per round, in unit order");
        let stats = broker.snapshot();
        assert_eq!(stats.batches, rounds.len() as u64, "{ctx}: {stats:?}");
        assert!(stats.is_balanced(), "{ctx}: {stats:?}");

        // A correction wave of one candidate with no flips is the same pass.
        let inner = Recorder::new(model);
        let wave = LocalExecutor::new().validate_wave(
            g,
            ka,
            &[],
            &[Vec::new()],
            Some(t),
            &inner,
            &cfg,
            &[Prng::seed_from_u64(seed)],
        );
        assert_eq!(wave.len(), 1);
        assert_eq!(*wave[0].as_ref().unwrap(), verdict, "{ctx}: wave verdict");
        assert_eq!(inner.calls(), rounds, "{ctx}: wave calls");
    }
    (verdict, most > 1, kinds)
}

#[test]
fn rounds_match_one_unit_at_a_time_with_one_batch_per_round() {
    let mut shared = false;
    for (bits, seed) in [(16usize, 700u64), (8, 701), (16, 702)] {
        let model = variant_victim(LockVariant::Sign, bits, seed);
        let layers = layers(&model);
        for (ka, which, want) in keys(&model, &layers[0]) {
            for pass_seed in [31u64, 32] {
                let t = target(&layers[1], pass_seed);
                let ctx = format!("mlp {bits}/{seed} {which} pass {pass_seed}");
                let (verdict, batched, _) = check_pass(&model, &ka, &t, pass_seed, &ctx);
                assert_eq!(verdict, want, "{ctx}");
                shared |= batched;
            }
        }
    }
    assert!(shared, "some round must carry more than one unit");
}

#[test]
fn channel_units_match_one_unit_at_a_time() {
    let model = lenet_victim();
    let layers = layers(&model);
    let mut kinds = [0; 4];
    for (ka, which, want) in keys(&model, &layers[0]) {
        let t = target(&layers[1], 41);
        let ctx = format!("lenet {which}");
        let (verdict, batched, k) = check_pass(&model, &ka, &t, 41, &ctx);
        assert_eq!(verdict, want, "{ctx}");
        assert!(batched, "{ctx}: some round must carry more than one unit");
        for (a, b) in kinds.iter_mut().zip(k) {
            *a += b;
        }
    }
    assert!(
        kinds[1..].iter().all(|&n| n > 0),
        "channel units must reach the Diff, UnitMax and UnitMin scalars: {kinds:?}"
    );
}

#[test]
fn a_refused_round_answers_requests_in_unit_order() {
    let model = variant_victim(LockVariant::Sign, 16, 700);
    let g = model.white_box();
    let layers = layers(&model);
    let ka = model.true_key().to_assignment();
    let t = target(&layers[1], 31);
    let cfg = AttackConfig::fast();
    let (_, units, _) = one_unit_at_a_time(&model, &ka, &t, &cfg, &mut Prng::seed_from_u64(31));
    let (rounds, _) = expected_rounds(&units, &cfg);

    // Afford every round before the first shared one, and the first
    // request of the shared round but not its second.
    let shared = rounds
        .iter()
        .position(|r| r.len() > 1)
        .expect("some round carries more than one request");
    let mut want = calls_of(&rounds[..shared]);
    want.push(rounds[shared][0].clone());
    let budget: usize = want.iter().map(Vec::len).sum();
    let inner = Recorder::new(&model);
    let broker = Broker::with_config(
        &inner,
        BrokerConfig {
            max_queries: Some(budget as u64),
            ..BrokerConfig::default()
        },
    );
    let front = Attempts::new(&broker);
    let got = key_vector_validation_checked_with(
        g,
        &mut Workspace::new(),
        &ka,
        Some(&t),
        &front,
        &cfg,
        &mut Prng::seed_from_u64(31),
    );
    assert!(got.is_err(), "the second request of the round is refused");
    // Whole rounds as one batch each, then the refused round's batch,
    // then its requests one by one until the first refusal.
    let mut asked: Vec<(usize, bool)> = want[..shared].iter().map(|c| (c.len(), true)).collect();
    asked.push((rounds[shared].concat().len(), false));
    asked.push((rounds[shared][0].len(), true));
    asked.push((rounds[shared][1].len(), false));
    assert_eq!(front.log(), asked);
    let stats = broker.snapshot();
    assert!(stats.is_balanced(), "books must balance: {stats:?}");
    assert_eq!(stats.underlying, budget as u64);
    assert_eq!(
        inner.calls(),
        want,
        "the refused round answers in unit order"
    );

    // A zero budget answers nothing.
    let inner = Recorder::new(&model);
    let broker = Broker::with_config(
        &inner,
        BrokerConfig {
            max_queries: Some(0),
            ..BrokerConfig::default()
        },
    );
    let got = key_vector_validation_checked_with(
        g,
        &mut Workspace::new(),
        &ka,
        Some(&t),
        &broker,
        &cfg,
        &mut Prng::seed_from_u64(31),
    );
    assert!(got.is_err(), "{got:?}");
    assert_eq!(broker.snapshot().underlying, 0);
    assert!(inner.calls().is_empty());
}
