//! Microbenchmarks of the attack's primitive operations, using an in-tree
//! timing harness (no external benchmark dependency):
//!
//! ```text
//! cargo bench -p relock-bench --bench micro
//! ```

use relock_attack::testutil::lenet_victim;
use relock_attack::{learning_attack, search_critical_point, AttackConfig, LearnedMultipliers};
use relock_bench::{attack_config, monolithic_config, prepare, Arch, Scale};
use relock_graph::KeySlot;
use relock_locking::{CountingOracle, LockSpec, LockedModel, Oracle};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::Broker;
use relock_tensor::linalg::preimage;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Times `f` adaptively: warms up for ~200ms, then runs batches until
/// ~1.5s of measurement, reporting mean/min per-iteration time.
fn bench(name: &str, f: impl FnMut()) {
    bench_per(name, 1, f)
}

/// [`bench`], reporting the time per one of the `per` items each call
/// handles.
fn bench_per(name: &str, per: u64, mut f: impl FnMut()) {
    const WARMUP: Duration = Duration::from_millis(200);
    const MEASURE: Duration = Duration::from_millis(1500);

    // Warm-up while estimating the per-iteration cost.
    let mut iters: u64 = 0;
    let warm = Instant::now();
    while warm.elapsed() < WARMUP {
        f();
        iters += 1;
    }
    let per_iter = warm.elapsed().as_secs_f64() / iters as f64;
    let batch = ((0.05 / per_iter.max(1e-9)) as u64).clamp(1, 10_000);

    let mut total = Duration::ZERO;
    let mut total_iters: u64 = 0;
    let mut best = f64::INFINITY;
    while total < MEASURE {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let dt = t.elapsed();
        best = best.min(dt.as_secs_f64() / batch as f64);
        total += dt;
        total_iters += batch;
    }
    let mean = total.as_secs_f64() / total_iters as f64;
    println!(
        "{name:<32} mean {:>12}  min {:>12}  ({total_iters} iters)",
        human(mean / per as f64),
        human(best / per as f64)
    );
}

fn human(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(500);
    build_mlp(
        &MlpSpec {
            input: 64,
            hidden: vec![48, 24],
            classes: 10,
        },
        LockSpec::evenly(16),
        &mut rng,
    )
    .expect("spec fits")
}

fn main() {
    let m = victim();
    let g = m.white_box();
    let keys = m.true_key().to_assignment();
    let cfg = AttackConfig::fast();

    let mut rng = Prng::seed_from_u64(501);
    let x32 = rng.normal_tensor([32, 64]);
    bench("forward_batch32_mlp", || {
        std::hint::black_box(g.logits_batch(&x32, &keys));
    });

    let site = g.lock_sites()[0];
    let mut cp_rng = Prng::seed_from_u64(502);
    bench("search_critical_point_mlp", || {
        std::hint::black_box(search_critical_point(
            g,
            &keys,
            site.pre_node,
            site.scalar_index(),
            &cfg,
            &mut cp_rng,
        ));
    });

    // Behind the first `Linear`, which the line scan fills in closed form.
    let last_site = *g.lock_sites().last().expect("locked");
    let mut last_rng = Prng::seed_from_u64(506);
    bench("search_critical_point_mlp_last", || {
        std::hint::black_box(search_critical_point(
            g,
            &keys,
            last_site.pre_node,
            last_site.scalar_index(),
            &cfg,
            &mut last_rng,
        ));
    });

    // At the first `Conv2d`, which the line scan fills in closed form.
    let lenet = lenet_victim();
    let (lg, lkeys) = (lenet.white_box(), lenet.true_key().to_assignment());
    let conv_site = lg.lock_sites()[0];
    let mut conv_rng = Prng::seed_from_u64(507);
    bench("search_critical_point_lenet_conv1", || {
        std::hint::black_box(search_critical_point(
            lg,
            &lkeys,
            conv_site.pre_node,
            conv_site.scalar_index(),
            &cfg,
            &mut conv_rng,
        ));
    });

    let mut jac_rng = Prng::seed_from_u64(503);
    let x1 = jac_rng.normal_tensor([64]);
    let acts = g.forward(&x1, &keys);
    bench("input_jacobian_layer2_mlp", || {
        std::hint::black_box(g.input_jacobian(&acts, last_site.pre_node, &keys));
    });

    let mut pre_rng = Prng::seed_from_u64(504);
    let a = pre_rng.normal_tensor([24, 64]);
    let e = Tensor::basis(24, 7);
    bench("preimage_24x64", || {
        std::hint::black_box(preimage(&a, &e, 1e-8));
    });

    let mut back_rng = Prng::seed_from_u64(505);
    let x16 = back_rng.normal_tensor([16, 64]);
    let acts16 = g.forward(&x16, &keys);
    let grad = Tensor::ones([16, 10]);
    bench("backward_batch16_mlp", || {
        std::hint::black_box(g.backward(&acts16, &grad, &keys));
    });

    // The shape of `mlp_sweep`'s first learning call: half the first
    // layer's bits decrypted, the rest and every second-layer bit free.
    let p = prepare(Arch::Mlp, 16, Scale::Fast, 1);
    let mg = p.model.white_box();
    let sites = mg.lock_sites();
    let first = sites[0].keyed_node;
    let layer1: Vec<KeySlot> = sites
        .iter()
        .filter(|s| s.keyed_node == first)
        .map(|s| s.slot)
        .collect();
    let fixed: BTreeMap<KeySlot, bool> = layer1[..layer1.len() / 2]
        .iter()
        .map(|&s| (s, p.model.true_key().bit(s.index())))
        .collect();
    let free: Vec<KeySlot> = sites
        .iter()
        .map(|s| s.slot)
        .filter(|s| !fixed.contains_key(s))
        .collect();
    let learning = attack_config(Arch::Mlp, Scale::Fast).learning;
    bench("learning_attack_mlp_layer1", || {
        std::hint::black_box(learning_attack(
            mg,
            &CountingOracle::new(&p.model),
            &fixed,
            &free,
            &LearnedMultipliers::new(),
            &learning,
            &mut Prng::seed_from_u64(508),
        ));
    });

    // The §4.3 monolithic baseline: every slot free.
    let lp = prepare(Arch::Lenet, 16, Scale::Fast, 1);
    let lg = lp.model.white_box();
    let every: Vec<KeySlot> = (0..lg.key_slot_count()).map(KeySlot).collect();
    let mono = monolithic_config(Scale::Fast);
    bench("learning_attack_lenet_monolithic", || {
        std::hint::black_box(learning_attack(
            lg,
            &CountingOracle::new(&lp.model),
            &BTreeMap::new(),
            &every,
            &LearnedMultipliers::new(),
            &mono,
            &mut Prng::seed_from_u64(509),
        ));
    });

    // A fresh broker's cost per missed row over a bare oracle (48 inputs).
    let oracle = CountingOracle::new(&p.model);
    let rows16 = Prng::seed_from_u64(510).normal_tensor([16, mg.input_size()]);
    bench_per("broker_batch16", 16, || {
        std::hint::black_box(Broker::new(&oracle).query_batch(&rows16));
    });
}
