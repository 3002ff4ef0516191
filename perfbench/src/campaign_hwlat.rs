//! `campaign_hwlat`: a closed loop of campaigns on an in-process
//! `CampaignHub` whose victims answer through a fixed per-call hardware
//! latency. Round trips, cross-campaign cache reads, evictions and slot
//! scheduling set the time while attacker compute sits idle, so a kernel
//! speedup should show no change here and a broker or cache change should
//! show mostly here.

use crate::context::Context;
use crate::metrics::{ratio, MIN_TAIL};
use crate::workload::{
    derive, guarded, record_keys, replay, stream, KeyOutcome, Outcome, Params, Victims,
};
use relock_attack::{AttackConfig, Decryptor};
use relock_campaign::{CampaignConfig, CampaignHub, CampaignState, CampaignView};
use relock_locking::{CountingOracle, LockedModel};
use relock_serve::{ChaosConfig, ChaosOracle};
use relock_tensor::rng::Prng;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Shape of one run of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Distinct victims; key sizes alternate between [`KEY_SIZES`].
    pub victims: usize,
    /// Hub scheduler slots; two closed-loop clients per slot keep
    /// campaigns in flight.
    pub slots: usize,
    /// Distinct (victim, seed) pairs the traced run replays.
    pub replay: usize,
}

impl Plan {
    /// The benchmark's plan on this machine: `slots = nproc`.
    pub fn standard() -> Self {
        Plan {
            victims: 24,
            slots: relock_bench::bench_threads(),
            replay: 12,
        }
    }
}

/// Victim key sizes. 32-bit victims are left to `mlp_sweep`: about one in
/// 150 needs a 5k–17k-row correction search, which behind the slow oracle
/// holds both hub slots for many seconds and stalls the whole loop, so
/// throughput would hinge on whether a seed draws such a victim.
pub const KEY_SIZES: [usize; 2] = [8, 16];

/// Shared-cache cap. A campaign requests ~300 rows of ~570 bytes, so this
/// holds the traffic of about the last dozen campaigns, far below the
/// tens of MB a run's distinct campaigns touch.
pub const CACHE_CAP: usize = 2 << 20;

/// The hardware oracle's per-call latency. A sleep overshoots by 0.06 ms
/// on a quiet host and by several times that when other tenants load it;
/// at 1 ms per call that swung throughput by 25% between runs, at 5 ms
/// the same overshoot moves it by a few percent.
pub const CALL_LATENCY: Duration = Duration::from_millis(5);

/// Submissions per second of `--seconds`: the run submits a fixed number
/// of campaigns, sized so the closed loop takes a little over `--seconds`
/// on a 2-core Xeon (~580 campaigns/min). A fixed count keeps
/// the submission plan a pure function of the seed and keeps the hub's
/// retained state, and so `peak_rss_mb`, independent of throughput.
pub const SUBMISSIONS_PER_SECOND: f64 = 11.0;

/// The shortest untraced `--seconds`: enough submissions for a p90 with
/// [`MIN_TAIL`] latencies beyond it.
pub const MIN_SECONDS: f64 = (10 * MIN_TAIL) as f64 / SUBMISSIONS_PER_SECOND;

/// Repeats pick among this many most recent distinct submissions, so a
/// repeat finds its twin's rows in the capped cache only some of the time.
const REPEAT_WINDOW: usize = 8;

/// Submissions per wave. The closed loop runs in waves; between two, the
/// hub is idle while victims are rebuilt for `setup_s`, so that set-up is
/// timed through the whole run without sharing the cores with the hub.
/// Each wave ends as its last campaigns drain with fewer in flight; at 40
/// per wave that cost throughput and steadiness, at 110 a few percent.
/// The clients live across waves: spawning them afresh for each wave
/// raised `peak_rss_mb` by 3–5 MiB and made it vary from run to run.
const WAVE: usize = 110;

/// How long a client waits for one campaign before counting it failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

/// The per-call latency model: every call sleeps [`CALL_LATENCY`].
fn latency(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        latency_spike_rate: 1.0,
        latency_spike: CALL_LATENCY,
        ..ChaosConfig::default()
    }
}

/// The attack configuration a default `CampaignConfig` runs with.
fn hub_attack_config() -> AttackConfig {
    let mut cfg = AttackConfig::fast();
    cfg.threads = 1;
    cfg
}

/// Deterministic submission sequence: one submission in four repeats one
/// of the [`REPEAT_WINDOW`] most recent distinct `(victim, seed)` pairs.
/// With half of them repeating, cache-served and backend-served campaigns
/// split the latency distribution into two equal modes, and its median
/// jumped between them from seed to seed (spread 0.18 over ten seeds,
/// against 0.08 at one in four).
struct Dispenser {
    rng: Prng,
    victims: usize,
    distinct: Vec<(usize, u64)>,
    /// Submissions left in the run.
    left: usize,
    /// Submissions left in the current wave.
    wave_left: usize,
}

impl Dispenser {
    fn next(&mut self) -> Option<(usize, u64)> {
        self.wave_left = self.wave_left.checked_sub(1)?;
        self.left = self.left.checked_sub(1)?;
        Some(self.pick())
    }

    fn pick(&mut self) -> (usize, u64) {
        if !self.distinct.is_empty() && self.rng.below(4) == 0 {
            let window = self.distinct.len().min(REPEAT_WINDOW);
            return self.distinct[self.distinct.len() - 1 - self.rng.below(window)];
        }
        let pair = (self.rng.below(self.victims), self.rng.next_u64());
        self.distinct.push(pair);
        pair
    }
}

/// One submission as its client saw it.
struct Record {
    pair: (usize, u64),
    wall: Duration,
    view: Option<CampaignView>,
}

impl Record {
    fn completed(&self) -> Option<&CampaignView> {
        self.view
            .as_ref()
            .filter(|v| v.state == CampaignState::Completed && v.key.is_some())
    }
}

/// Runs the workload. Closed-loop clients keep two campaigns per slot on
/// the hub until the planned submissions are done, in waves of [`WAVE`].
/// Untraced, victims are rebuilt for `setup_s` between waves, at an even
/// pace over the hub's time. Then, outside the timed phase, every
/// completed campaign's key is checked against a one-shot
/// `Decryptor::run` of the same (victim, seed). Traced, the hub phase
/// supplies the hub, broker and cache metrics, and `plan.replay` distinct
/// pairs, spread over the victims, are replayed through the instrumented
/// stack behind the same latency for the rest.
pub fn run(p: &Params, plan: Plan) -> Outcome {
    let mut out = Outcome::new(Context::new("campaign_hwlat", p.seed, "slots", plan.slots));
    let key_bits: Vec<usize> = (0..plan.victims)
        .map(|i| KEY_SIZES[i % KEY_SIZES.len()])
        .collect();
    let mut victims = Victims::mlp(p.seed, key_bits);
    let models: Vec<LockedModel> = victims.models.clone();

    let clients = 2 * plan.slots;
    let hub = CampaignHub::new(plan.slots, Some(CACHE_CAP));
    let dispenser = Mutex::new(Dispenser {
        rng: Prng::seed_from_u64(derive(p.seed, stream::PLAN, 0)),
        victims: plan.victims,
        distinct: Vec::new(),
        left: ((p.seconds * SUBMISSIONS_PER_SECOND).round() as usize).max(clients),
        wave_left: 0,
    });
    let records = Mutex::new(Vec::new());
    let finished = AtomicBool::new(false);
    let barrier = Barrier::new(clients + 1);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        for client in 0..clients {
            let (hub, dispenser, records, models) = (&hub, &dispenser, &records, &models);
            let (finished, barrier) = (&finished, &barrier);
            // A client waits at the barrier for its wave to start, runs
            // campaigns until the wave's submissions are taken, and waits
            // at the barrier again for the wave to end.
            s.spawn(move || loop {
                barrier.wait();
                if finished.load(Ordering::Acquire) {
                    break;
                }
                loop {
                    // A statement of its own, so the lock is released
                    // before the campaign runs.
                    let next = dispenser.lock().expect("dispenser poisoned").next();
                    let Some(pair) = next else { break };
                    let model = models[pair.0].clone();
                    let cfg = CampaignConfig {
                        tenant: format!("client-{client}"),
                        seed: pair.1,
                        chaos: Some(latency(pair.1)),
                        ..CampaignConfig::default()
                    };
                    let t = Instant::now();
                    // A panic counts as a failed campaign; it must not
                    // end the client, or the barrier would wait forever.
                    let view = catch_unwind(AssertUnwindSafe(|| {
                        let id = hub.submit(model, cfg).ok()?;
                        hub.wait_terminal(id, CAMPAIGN_TIMEOUT).ok()
                    }))
                    .ok()
                    .flatten();
                    let wall = t.elapsed();
                    records
                        .lock()
                        .expect("records poisoned")
                        .push(Record { pair, wall, view });
                }
                barrier.wait();
            });
        }
        loop {
            let more = {
                let mut d = dispenser.lock().expect("dispenser poisoned");
                d.wave_left = WAVE;
                d.left > 0
            };
            finished.store(!more, Ordering::Release);
            let start = Instant::now();
            barrier.wait();
            if !more {
                break;
            }
            barrier.wait();
            elapsed += start.elapsed();
            while !p.trace && victims.rebuild_due(elapsed, p.window()) {
                out.violations.extend(victims.rebuild());
            }
        }
    });
    let cache = hub.cache_stats();
    hub.shutdown();
    let records = records.into_inner().expect("records poisoned");

    // Outside the timed phase: the one-shot reference of every distinct
    // completed pair, computed on `plan.slots` threads, and the gates.
    let decryptor = Decryptor::new(hub_attack_config());
    let pairs: Vec<(usize, u64)> = records
        .iter()
        .filter(|r| r.completed().is_some())
        .map(|r| r.pair)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let references: BTreeMap<(usize, u64), Option<KeyOutcome>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..plan.slots.max(1))
            .map(|w| {
                let (pairs, models, decryptor) = (&pairs, &models, &decryptor);
                s.spawn(move || {
                    pairs
                        .iter()
                        .skip(w)
                        .step_by(plan.slots.max(1))
                        .map(|&(v, seed)| {
                            let oracle = CountingOracle::new(&models[v]);
                            let reference = guarded(|| {
                                decryptor.run(
                                    models[v].white_box(),
                                    &oracle,
                                    &mut Prng::seed_from_u64(seed),
                                )
                            });
                            ((v, seed), reference.map(|r| KeyOutcome::of(&r)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect()
    });
    for r in &records {
        out.attempted += 1;
        let Some(view) = r.completed() else {
            out.failed += 1;
            continue;
        };
        if view.requested != view.cache_hits + view.queries {
            out.violations.push(format!(
                "campaign {}: {} requested rows != {} hits + {} queries",
                view.id, view.requested, view.cache_hits, view.queries
            ));
        }
        if references[&r.pair].as_ref().map(|o| &o.key) != view.key.as_ref() {
            out.violations.push(format!(
                "campaign {} (victim {}, seed {}) recovered a different key than its one-shot run",
                view.id, r.pair.0, r.pair.1
            ));
        }
    }

    let completed: Vec<(&Record, &CampaignView)> = records
        .iter()
        .filter_map(|r| r.completed().map(|v| (r, v)))
        .collect();
    if p.trace {
        let stride = (pairs.len() / plan.replay.max(1)).max(1);
        let pairs: Vec<(usize, u64)> = pairs
            .into_iter()
            .step_by(stride)
            .take(plan.replay)
            .collect();
        let (ledger, replayed) = replay(
            &mut out,
            &decryptor,
            &victims.models,
            &pairs,
            |m| ChaosOracle::new(CountingOracle::new(m), latency(0)),
            Duration::ZERO,
        );
        for (pair, outcome) in pairs.iter().zip(&replayed) {
            let reference = references[pair].as_ref();
            if outcome.is_some() && outcome.as_ref() != reference {
                out.violations.push(format!(
                    "replay of victim {} seed {} differs from its one-shot run",
                    pair.0, pair.1
                ));
            }
        }
        let r = &mut out.readings;
        victims.record(r);
        ledger.record(r);
        let requested: u64 = completed.iter().map(|(_, v)| v.requested).sum();
        let hits: u64 = completed.iter().map(|(_, v)| v.cache_hits).sum();
        r.set("serve.broker.requested", requested as f64);
        r.set("serve.broker.cache_hits", hits as f64);
        r.set(
            "serve.broker.hit_rate",
            ratio(hits as f64, requested as f64),
        );
        r.set("serve.cache.evictions", cache.evicted as f64);
        r.set("serve.cache.resident_bytes", cache.bytes as f64);
        r.set(
            "campaign.segments_per_campaign",
            ratio(
                completed.iter().map(|(_, v)| v.segments as f64).sum(),
                completed.len() as f64,
            ),
        );
        r.set(
            "campaign.crashes",
            records
                .iter()
                .filter_map(|r| r.view.as_ref())
                .map(|v| v.crashes as f64)
                .sum(),
        );
        r.set("bench.failed_ops", out.failed as f64);
        return out;
    }

    let walls: Vec<f64> = completed
        .iter()
        .map(|(r, _)| r.wall.as_secs_f64())
        .collect();
    out.record_end_to_end(&victims, &walls, walls.len(), elapsed);
    let outcomes: Vec<Option<KeyOutcome>> = records
        .iter()
        .map(|r| {
            r.completed().map(|v| KeyOutcome {
                key: v.key.clone().expect("completed campaigns carry a key"),
                queries: v.queries,
                validated: v.validated,
            })
        })
        .collect();
    record_keys(
        &mut out.readings,
        outcomes
            .iter()
            .zip(&records)
            .map(|(o, r)| (o.as_ref(), models[r.pair.0].true_key())),
    );
    out
}
