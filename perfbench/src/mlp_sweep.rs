//! `mlp_sweep`: the paper's contractive case and the single-threaded
//! baseline. Seeded fast-scale MLP victims with keys rotating 8/16/32 bits
//! are attacked one at a time with `threads = 1`, using the Table 1
//! harness configuration, against a hardware oracle: a `CountingOracle`
//! behind a fixed device time per queried row. Algorithm 1 and the
//! learning attack do all the attacker's work on tiny dense shapes; that
//! compute is a third to a half of an attack's time, depending on the
//! host's speed, and the device answering its queries is the rest.

use crate::context::Context;
use crate::metrics::Readings;
use crate::workload::{
    derive, guarded, record_keys, replay, stream, DeviceOracle, KeyOutcome, Outcome, Params,
    Victims,
};
use relock_attack::Decryptor;
use relock_bench::{attack_config, Arch, Scale};
use relock_locking::CountingOracle;
use relock_tensor::rng::Prng;
use std::time::{Duration, Instant};

/// Key sizes the victims rotate through.
pub const KEY_SIZES: [usize; 3] = [8, 16, 32];

/// The device's time per queried row. An attack queries ~410 rows, so it
/// waits ~21 ms on the device, about as long as its own compute takes on a
/// 2-core Xeon whose other tenants load the host. Compute alone follows
/// the host's speed, which moved by 10–30% between runs minutes apart:
/// against the oracle alone, ten seeds spread 0.26–0.28 in throughput and
/// 0.22–0.30 in p90. The device time does not move with the host, so it
/// damps that spread by its share of the attack. A change to the attacker's compute
/// moves the timings by the compute's share; in the traced run, each
/// procedure's time less its underlying rows × `ROW_TIME` shows it in full.
pub const ROW_TIME: Duration = Duration::from_micros(50);

/// Size of one run of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Victims per key size.
    pub per_size: usize,
}

impl Sweep {
    /// The benchmark's size: 160 victims per key size; each attack costs
    /// ~25–60 ms. Which victims a seed draws moves the run's timings: with
    /// the oracle alone, at 40 per key size the draw spread the median
    /// attack 0.09 and the mean 0.04 over seeds, at 160 about 0.04 and
    /// 0.02.
    pub fn standard() -> Self {
        Sweep { per_size: 160 }
    }
}

/// Runs the workload.
///
/// Untraced, the timed phase cycles through a seed-shuffled list of one
/// attack per victim until the window closes, always finishing the first
/// pass. The first pass fixes the count and key metrics, so they repeat
/// exactly for a seed; every later pass must reproduce it bit for bit.
/// The latency percentiles are taken over the victims' attacks, each
/// represented by the mean of its repeats, so they need 100 victims for a
/// p90. Between attacks, victims are rebuilt for `setup_s` at an even pace
/// through the window; the throughput counts only the time spent
/// attacking.
pub fn run(p: &Params, sweep: Sweep) -> Outcome {
    let mut out = Outcome::new(Context::new("mlp_sweep", p.seed, "threads", 1));
    let key_bits: Vec<usize> = (0..sweep.per_size * KEY_SIZES.len())
        .map(|i| KEY_SIZES[i % KEY_SIZES.len()])
        .collect();
    let mut victims = Victims::mlp(p.seed, key_bits);
    let mut cfg = attack_config(Arch::Mlp, Scale::Fast);
    cfg.threads = 1;
    let decryptor = Decryptor::new(cfg);
    let mut attacks: Vec<(usize, u64)> = (0..victims.models.len())
        .map(|v| (v, derive(p.seed, stream::ATTACK, v as u64)))
        .collect();
    Prng::seed_from_u64(derive(p.seed, stream::PLAN, 0)).shuffle(&mut attacks);

    if p.trace {
        let (ledger, _) = replay(
            &mut out,
            &decryptor,
            &victims.models,
            &attacks,
            CountingOracle::new,
            ROW_TIME,
        );
        let r = &mut out.readings;
        victims.record(r);
        ledger.record(r);
        ledger.record_broker(r);
        no_campaigns(r);
        r.set("bench.failed_ops", out.failed as f64);
        return out;
    }

    let mut first: Vec<Option<KeyOutcome>> = vec![None; attacks.len()];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); attacks.len()];
    let mut rebuilding = Duration::ZERO;
    let start = Instant::now();
    'passes: for pass in 0usize.. {
        for (i, &(v, seed)) in attacks.iter().enumerate() {
            if pass > 0 && start.elapsed() >= p.window() {
                break 'passes;
            }
            if victims.rebuild_due(start.elapsed(), p.window()) {
                let t = Instant::now();
                out.violations.extend(victims.rebuild());
                rebuilding += t.elapsed();
            }
            out.attempted += 1;
            let model = &victims.models[v];
            let oracle = DeviceOracle::new(CountingOracle::new(model), ROW_TIME);
            let t = Instant::now();
            let report = guarded(|| {
                decryptor.run(model.white_box(), &oracle, &mut Prng::seed_from_u64(seed))
            });
            let wall = t.elapsed().as_secs_f64();
            let Some(report) = report else {
                out.failed += 1;
                continue;
            };
            walls[i].push(wall);
            out.check_report(&format!("attack {i}"), &report);
            let outcome = KeyOutcome::of(&report);
            match &first[i] {
                None if pass == 0 => first[i] = Some(outcome),
                Some(f) if *f == outcome => {}
                _ => out.violations.push(format!(
                    "attack {i} changed its key or query count on pass {pass}"
                )),
            }
        }
        if start.elapsed() >= p.window() {
            break;
        }
    }
    let busy = start.elapsed().saturating_sub(rebuilding);
    // An attack's latency is the mean of its repeats, which are spread
    // over the whole window. Other tenants of the host slow this single
    // thread by up to half for seconds to minutes at a time; the mean
    // averages over those phases, where the median or the fastest repeat
    // flips between a fast and a slow value from run to run.
    let latencies: Vec<f64> = walls
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| w.iter().sum::<f64>() / w.len() as f64)
        .collect();
    let completed = walls.iter().map(Vec::len).sum();
    out.record_end_to_end(&victims, &latencies, completed, busy);
    record_keys(
        &mut out.readings,
        first
            .iter()
            .zip(&attacks)
            .map(|(o, &(v, _))| (o.as_ref(), victims.models[v].true_key())),
    );
    out
}

/// Campaign-hub metrics of a workload that runs no hub.
fn no_campaigns(r: &mut Readings) {
    r.set("campaign.segments_per_campaign", 0.0);
    r.set("campaign.crashes", 0.0);
}
