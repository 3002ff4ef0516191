//! The Algorithm-1 round contract: `LocalExecutor::infer_sites` runs a
//! layer's sites in lock-step rounds, one oracle batch per round in
//! canonical site order, and must agree with a one-site-at-a-time loop on
//! every bit and on every row it asks the oracle. Under a budget that
//! cannot pay for a whole round, the round falls back to one call per
//! site in site order.

use relock_attack::testutil::{layers, mlp16_victim, row_multiset, Call, Recorder};
use relock_attack::{key_bit_inference, AttackConfig, LocalExecutor, PhaseExecutor};
use relock_graph::LockSite;
use relock_locking::LockedModel;
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;

/// One site at a time: each site's bit and the oracle calls it made.
fn one_at_a_time(
    model: &LockedModel,
    sites: &[LockSite],
    cfg: &AttackConfig,
    rngs: &[Prng],
) -> Vec<(Option<bool>, Vec<Call>)> {
    let ka = model.true_key().to_assignment();
    sites
        .iter()
        .zip(rngs)
        .map(|(site, rng)| {
            let oracle = Recorder::new(model);
            let bit =
                key_bit_inference(model.white_box(), &ka, site, &oracle, cfg, &mut rng.clone());
            (bit, oracle.calls())
        })
        .collect()
}

fn forked(seed: u64, n: usize) -> Vec<Prng> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.fork()).collect()
}

#[test]
fn rounds_match_one_site_at_a_time_with_one_call_per_round() {
    let model = mlp16_victim();
    let g = model.white_box();
    // The true key stands in for a decrypted prefix (Lemma 1: the
    // current and later layers' bits do not matter).
    let ka = model.true_key().to_assignment();
    let mut retried = false;
    for (li, sites) in layers(&model).iter().enumerate() {
        for seed in [11u64, 12, 13] {
            let rngs = forked(seed + 100 * li as u64, sites.len());
            let base = AttackConfig::fast();
            let reference = one_at_a_time(&model, sites, &base, &rngs);
            let probes: Vec<usize> = reference.iter().map(|(_, c)| c.len()).collect();
            retried |= probes.iter().any(|&n| n > 1);
            let rounds = probes.iter().copied().max().unwrap_or(0);
            for threads in [1usize, 4] {
                let cfg = AttackConfig { threads, ..base };
                let ctx = format!("layer {li} seed {seed} threads {threads}");
                let oracle = Recorder::new(&model);
                let bits = LocalExecutor::new().infer_sites(g, &ka, sites, &oracle, &cfg, &rngs);
                let want: Vec<_> = sites
                    .iter()
                    .zip(&reference)
                    .map(|(s, (b, _))| (s.slot, *b))
                    .collect();
                assert_eq!(bits, want, "{ctx}: bits diverged");
                let calls = oracle.calls();
                let reference_calls: Vec<_> =
                    reference.iter().flat_map(|(_, c)| c.clone()).collect();
                assert_eq!(
                    row_multiset(&calls),
                    row_multiset(&reference_calls),
                    "{ctx}: queried rows diverged"
                );
                // Site i probes in rounds 1..=probes[i], so round r sends
                // one batch of 3 rows per site still probing.
                assert_eq!(calls.len(), rounds, "{ctx}: one call per round");
                assert!(calls.len() <= cfg.max_site_attempts, "{ctx}");
                for (r, call) in calls.iter().enumerate() {
                    let probing = probes.iter().filter(|&&n| n > r).count();
                    assert_eq!(call.len(), 3 * probing, "{ctx}: round {r}");
                }
            }
        }
    }
    assert!(retried, "the fixture must exercise a carried-over site");
}

#[test]
fn a_refused_round_falls_back_to_one_call_per_site_in_site_order() {
    let model = mlp16_victim();
    let g = model.white_box();
    let ka = model.true_key().to_assignment();
    let sites = &layers(&model)[0];
    let cfg = AttackConfig::fast();
    let rngs = forked(21, sites.len());
    let reference = one_at_a_time(&model, sites, &cfg, &rngs);
    let first = reference
        .iter()
        .position(|(_, calls)| !calls.is_empty())
        .expect("some site probes");
    assert!(
        reference[first + 1..].iter().any(|(_, c)| !c.is_empty()),
        "the round must hold more than one probe"
    );

    // A 3-row budget pays for exactly one probe: the first probing site's.
    let inner = Recorder::new(&model);
    let broker = Broker::with_config(
        &inner,
        BrokerConfig {
            max_queries: Some(3),
            ..BrokerConfig::default()
        },
    );
    let bits = LocalExecutor::new().infer_sites(g, &ka, sites, &broker, &cfg, &rngs);
    let stats = broker.snapshot();
    assert!(stats.is_balanced(), "books must balance: {stats:?}");
    assert_eq!(stats.underlying, 3);
    assert_eq!(inner.calls(), vec![reference[first].1[0].clone()]);
    for (i, (slot, bit)) in bits.iter().enumerate() {
        assert_eq!(*slot, sites[i].slot);
        // A first probe that stays indecisive leaves nothing to pay for
        // the site's second round.
        let want = match &reference[i] {
            (b, calls) if i == first && calls.len() == 1 => *b,
            _ => None,
        };
        assert_eq!(*bit, want, "site {i}");
    }

    // A zero budget answers nothing: every site is ⊥.
    let inner = Recorder::new(&model);
    let broker = Broker::with_config(
        &inner,
        BrokerConfig {
            max_queries: Some(0),
            ..BrokerConfig::default()
        },
    );
    let bits = LocalExecutor::new().infer_sites(g, &ka, sites, &broker, &cfg, &rngs);
    assert!(bits.iter().all(|(_, b)| b.is_none()), "{bits:?}");
    assert_eq!(broker.snapshot().underlying, 0);
    assert!(inner.calls().is_empty());
}
