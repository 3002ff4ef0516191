//! Multi-tenant campaign soak: N concurrent campaigns on one
//! [`CampaignHub`], all attacking the same victim through the
//! process-global memo cache, with a pause → "daemon restart" → resume
//! migration exercised mid-flight on one of them.
//!
//! The correctness bar is the same as the kill-and-resume soak: every
//! campaign's recovered key must be **bit-identical** to its one-shot
//! sequential reference run. Concurrency, fair-share scheduling, latency
//! chaos, cross-campaign cache hits, LRU eviction, and checkpoint
//! migration are all allowed to change *when* queries happen — never
//! *what* key comes out.
//!
//! Seeds come in pairs (43, 43, 44, 44, …) so adjacent campaigns replay
//! identical traffic: whichever of a pair runs second hits the broker
//! rows its twin already paid for, which is what the reported
//! cross-campaign cache-hit rate measures.

use crate::{prepare, Arch, Scale};
use relock_attack::{AttackConfig, Decryptor};
use relock_campaign::{CampaignConfig, CampaignHub, CampaignState};
use relock_locking::{CountingOracle, Key};
use relock_serve::ChaosConfig;
use relock_tensor::rng::Prng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Aggregate outcome of one soak run (all keys already verified).
#[derive(Debug, Clone)]
pub struct CampaignSoakOutcome {
    /// Campaigns submitted.
    pub campaigns: usize,
    /// Wall clock from first submit to last terminal state.
    pub elapsed_ms: f64,
    /// Broker-level row requests summed over every campaign, the migrated
    /// one by its final view on the second hub. Equals the sum of the
    /// one-shot references' requests: only where rows are served from
    /// varies.
    pub requested: u64,
    /// Rows served from the shared memo caches.
    pub cache_hits: u64,
    /// `cache_hits / requested` (0 when nothing was requested).
    pub hit_rate: f64,
    /// Rows evicted by the LRU byte cap over the whole soak.
    pub evicted: u64,
    /// Rows resident in the shared cache at the end.
    pub cache_rows: usize,
    /// Bytes resident in the shared cache at the end.
    pub cache_bytes: usize,
}

/// Runs `n` concurrent campaigns against an MLP-12 Fast victim on a hub
/// with `slots` scheduler slots and a `cache_cap`-byte shared cache,
/// verifying every recovered key against its sequential reference.
///
/// Campaign 0 runs under a permanent per-call latency floor and is
/// paused as soon as it reports `Running`, so the pause lands at its
/// first checkpoint cut; it is then checkpointed, its frame is migrated
/// to a *second* hub (a simulated daemon restart with a cold cache), and
/// the resumed run must still produce the reference key.
///
/// Returns `Err` on any divergence — wrong key, failed campaign, a
/// migration that was skipped or did not complete, or row books whose
/// summed `requested` differs from the references' sum.
pub fn run_campaign_soak(
    n: usize,
    slots: usize,
    cache_cap: Option<usize>,
) -> Result<CampaignSoakOutcome, String> {
    let n = n.max(2);
    let p = prepare(Arch::Mlp, 12, Scale::Fast, 42);
    let seeds: Vec<u64> = (0..n).map(|i| 43 + i as u64 / 2).collect();

    // One-shot sequential references, one per distinct seed, on a clean
    // uncached oracle — the hub must reproduce these bit-for-bit: each
    // reference's key and the rows it requested.
    let mut references: HashMap<u64, (Key, u64)> = HashMap::new();
    let mut cfg = AttackConfig::fast();
    cfg.threads = 1;
    let decryptor = Decryptor::new(cfg);
    for &seed in &seeds {
        if references.contains_key(&seed) {
            continue;
        }
        let oracle = CountingOracle::new(&p.model);
        let report = decryptor
            .run(p.model.white_box(), &oracle, &mut Prng::seed_from_u64(seed))
            .map_err(|e| format!("reference run (seed {seed}) failed: {e}"))?;
        references.insert(seed, (report.key, report.stats.requested));
    }

    let hub = CampaignHub::new(slots, cache_cap);
    let t0 = Instant::now();
    let ids: Vec<u64> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            // Campaign 0 gets a permanent latency floor (so the pause can
            // land); the rest get sparse spikes — realistic jitter that
            // shuffles completion order without touching results.
            let chaos = Some(ChaosConfig {
                seed: 100 + i as u64,
                latency_spike_rate: if i == 0 { 1.0 } else { 0.25 },
                latency_spike: Duration::from_millis(if i == 0 { 2 } else { 1 }),
                ..ChaosConfig::default()
            });
            hub.submit(
                p.model.clone(),
                CampaignConfig {
                    tenant: if i % 2 == 0 { "alice" } else { "bob" }.to_string(),
                    weight: if i % 2 == 0 { 2 } else { 1 },
                    seed,
                    chaos,
                    ..CampaignConfig::default()
                },
            )
            .expect("soak hub has no admission cap")
        })
        .collect();

    // Mid-soak: pause campaign 0 as soon as it runs — its first pause
    // poll is its first checkpoint cut — lift its RLCP frame, and resume
    // it on a fresh hub: a daemon restart with nothing but the checkpoint.
    let started = Instant::now();
    loop {
        let state = hub.status(ids[0]).map_err(|e| e.to_string())?.state;
        match state {
            CampaignState::Running => break,
            CampaignState::Queued if started.elapsed() < Duration::from_secs(120) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => {
                return Err(format!(
                    "migration skipped: campaign 0 was {} before it could be paused",
                    other.name()
                ))
            }
        }
    }
    hub.pause(ids[0])
        .map_err(|e| format!("migration skipped: pausing campaign 0: {e}"))?;
    let paused = hub
        .wait_paused(ids[0], Duration::from_secs(120))
        .map_err(|e| format!("campaign 0 never paused or finished: {e}"))?;
    if paused.state != CampaignState::Paused {
        return Err(format!(
            "migration skipped: campaign 0 ended {} before its pause landed",
            paused.state.name()
        ));
    }
    let frame = hub
        .checkpoint_bytes(ids[0])
        .map_err(|e| e.to_string())?
        .ok_or("paused campaign 0 left no checkpoint frame")?;
    let hub2 = CampaignHub::new(1, cache_cap);
    let id2 = hub2
        .submit_checkpointed(
            p.model.clone(),
            CampaignConfig {
                seed: seeds[0],
                tenant: "alice".to_string(),
                weight: 2,
                ..CampaignConfig::default()
            },
            frame,
        )
        .expect("fresh hub has no admission cap");
    hub.cancel(ids[0]).map_err(|e| e.to_string())?;

    // Drain the hub: everything except the migrated-away campaign 0 must
    // complete with its reference key. Campaign 0's view here stops at its
    // pause; its resumed run on the second hub starts from the checkpoint's
    // books, so its final view there counts the whole campaign.
    let mut requested = 0u64;
    let mut cache_hits = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        let view = hub
            .wait_terminal(id, Duration::from_secs(300))
            .map_err(|e| format!("campaign {i} (id {id}): {e}"))?;
        if i == 0 {
            continue; // cancelled here, finishing on the second hub
        }
        requested += view.requested;
        cache_hits += view.cache_hits;
        if view.state != CampaignState::Completed {
            return Err(format!(
                "campaign {i} (id {id}) ended {}: {:?}",
                view.state.name(),
                view.error
            ));
        }
        if view.key.as_ref() != Some(&references[&seeds[i]].0) {
            return Err(format!(
                "campaign {i} (id {id}, seed {}) diverged from its sequential reference key",
                seeds[i]
            ));
        }
    }
    let done = hub2
        .wait_terminal(id2, Duration::from_secs(300))
        .map_err(|e| format!("migrated campaign: {e}"))?;
    if done.state != CampaignState::Completed {
        return Err(format!(
            "migrated campaign ended {}: {:?}",
            done.state.name(),
            done.error
        ));
    }
    if done.key.as_ref() != Some(&references[&seeds[0]].0) {
        return Err("migrated campaign diverged from its sequential reference key".to_string());
    }
    requested += done.requested;
    cache_hits += done.cache_hits;
    let want: u64 = seeds.iter().map(|seed| references[seed].1).sum();
    if requested != want {
        return Err(format!(
            "row books: the campaigns requested {requested} rows, their one-shot references {want}"
        ));
    }
    hub2.shutdown();
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

    let stats = hub.cache_stats();
    hub.shutdown();
    Ok(CampaignSoakOutcome {
        campaigns: n,
        elapsed_ms,
        requested,
        cache_hits,
        hit_rate: if requested > 0 {
            cache_hits as f64 / requested as f64
        } else {
            0.0
        },
        evicted: stats.evicted,
        cache_rows: stats.rows,
        cache_bytes: stats.bytes,
    })
}
