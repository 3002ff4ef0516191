//! RLCP byte pins across commits: each run's normalized checkpoint
//! history (wall-clock fields zeroed, every frame in persistence order) is
//! hashed and compared against a digest recorded from an earlier build.
//!
//! The equivalence suites compare two runs of the same build, so a change
//! that moves the format (or the attack's PRNG discipline) on both sides
//! passes them. These digests do not move with the build: a failure here
//! means the bytes a resumed run reads from an older binary's frames have
//! changed, which requires a `CHECKPOINT_VERSION` bump.
//!
//! The searches that write no frames (the monolithic baseline, the
//! sampling search and the neuroevolution) are pinned the same way, on
//! their key plus the bits of their score or multipliers: a failure there
//! means a fixed budget or tolerance moved.
//!
//! The §3.5 witnesses are pinned on their own, over victims the histories
//! never reach (ResNet, ViT, weight and trigger locks): a failure there
//! means a line scan picked another segment or a bisection moved a bit.
//! The §3.6 multipliers are pinned on the same victims: a failure there
//! means a learning step's moving pass or frontier cache moved a bit.

use relock_attack::testutil::{lenet_victim, mlp16_victim, run_threads, variant_victim};
use relock_attack::{
    learning_attack, neuroevolution_key_search, sampling_key_search, search_critical_point,
    search_target_critical_point, AttackConfig, CriticalPoint, LearnedMultipliers, LearningConfig,
    MonolithicAttack, TargetScalar,
};
use relock_graph::{Graph, KeySlot, NodeId, Op};
use relock_locking::{CountingOracle, Key, LockSpec, LockVariant, LockedModel, Oracle};
use relock_nn::{
    build_mlp_weight_locked, build_resnet, build_vit, MlpSpec, ResnetSpec, StageSpec, VitSpec,
};
use relock_tensor::rng::Prng;
use std::collections::BTreeMap;

/// FNV-1a over every frame, each prefixed by its length so frame
/// boundaries count.
fn history_digest(frames: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in frames {
        eat(&(f.len() as u64).to_le_bytes());
        eat(f);
    }
    h
}

fn assert_pinned(model: &LockedModel, cfg: AttackConfig, seed: u64, frames: usize, digest: u64) {
    let run = run_threads(model, cfg, 1, seed);
    let got = history_digest(&run.frames);
    assert_eq!(
        (run.frames.len(), got),
        (frames, digest),
        "seed {seed}: frame history moved (got {} frames, digest {got:#018x})",
        run.frames.len()
    );
}

#[test]
fn mlp16_fast_history_is_pinned() {
    assert_pinned(
        &mlp16_victim(),
        AttackConfig::fast(),
        701,
        6,
        0xccd2_8b6e_7111_1432,
    );
}

#[test]
fn lenet_fast_history_is_pinned() {
    assert_pinned(
        &lenet_victim(),
        AttackConfig::fast(),
        512,
        14,
        0x46a1_2f0c_439c_6a6e,
    );
}

/// Learning-only MLP-16 at seed 732 reaches §3.8 correction, so its
/// history carries `Correcting` cuts with a serialized validation target.
#[test]
fn learning_only_mlp16_history_is_pinned() {
    let cfg = AttackConfig {
        disable_algebraic: true,
        ..AttackConfig::fast()
    };
    assert_pinned(&mlp16_victim(), cfg, 732, 267, 0xb482_b9c3_e227_d9ac);
}

/// The default configuration runs every tolerance and budget the fast
/// one shares plus its own larger budgets, so its history pins them all.
#[test]
fn mlp16_default_history_is_pinned() {
    assert_pinned(
        &mlp16_victim(),
        AttackConfig::default(),
        703,
        6,
        0xb11f_8348_155a_c696,
    );
}

/// FNV-1a over a search's key bits, the bits of its score or
/// multipliers, and its query count.
fn search_digest(key: &Key, reals: &[f64], queries: u64) -> u64 {
    let bits: Vec<u8> = key.bits().iter().map(|&b| u8::from(b)).collect();
    let reals: Vec<u8> = reals
        .iter()
        .flat_map(|r| r.to_bits().to_le_bytes())
        .collect();
    history_digest(&[bits, reals, queries.to_le_bytes().to_vec()])
}

fn assert_search_pinned(what: &str, key: &Key, reals: &[f64], queries: u64, digest: u64) {
    let got = search_digest(key, reals, queries);
    assert_eq!(got, digest, "{what}: search moved (digest {got:#018x})");
}

#[test]
fn monolithic_search_is_pinned() {
    let model = mlp16_victim();
    let report = MonolithicAttack::new(LearningConfig::monolithic()).run(
        model.white_box(),
        &CountingOracle::new(&model),
        &mut Prng::seed_from_u64(704),
    );
    assert_search_pinned(
        "monolithic",
        &report.key,
        &report.multipliers,
        report.queries,
        0x1e10_1a0b_a67a_e836,
    );
}

#[test]
fn sampling_search_is_pinned() {
    let model = variant_victim(LockVariant::SarTrigger, 10, 770);
    let report = sampling_key_search(
        model.white_box(),
        &CountingOracle::new(&model),
        &AttackConfig::fast(),
        &mut Prng::seed_from_u64(705),
    );
    assert_search_pinned(
        "sampling",
        &report.key,
        &[report.agreement],
        report.queries,
        0x7a89_8d3c_a4ef_7470,
    );
}

#[test]
fn neuroevolution_search_is_pinned() {
    let model = mlp16_victim();
    let report = neuroevolution_key_search(model.white_box(), &mut Prng::seed_from_u64(706));
    assert_search_pinned(
        "neuroevolution",
        &report.key,
        &[report.score],
        report.queries,
        0xb9fe_007e_a0af_2b42,
    );
}

/// The bits of one search's outcome: `x`, `z` and `crossing_dir`, or a
/// one-byte marker for `None`.
fn witness_bytes(cp: Option<CriticalPoint>) -> Vec<u8> {
    let Some(cp) = cp else {
        return vec![0xff];
    };
    let mut reals: Vec<f64> = cp.x.as_slice().to_vec();
    reals.push(cp.z);
    reals.extend_from_slice(cp.crossing_dir.as_slice());
    reals
        .iter()
        .flat_map(|r| r.to_bits().to_le_bytes())
        .collect()
}

/// The hyperplane surface of a keyed node: itself, or the residual `Add`
/// join that consumes it.
fn surface_of(g: &Graph, keyed: NodeId) -> NodeId {
    let consumers = g.consumers();
    let mut surface = keyed;
    while let Some(&add) = consumers[surface.index()]
        .iter()
        .find(|c| matches!(g.node(**c).op, Op::Add))
    {
        surface = add;
    }
    surface
}

/// Every search the pin runs on one graph: `(node, element)` pre-node
/// targets, then `(surface, elements)` pairs for the target scalars.
#[allow(clippy::type_complexity)]
fn search_targets(g: &Graph) -> (Vec<(NodeId, usize)>, Vec<(NodeId, Vec<usize>)>) {
    let mut pre = Vec::new();
    let mut surfaces = Vec::new();
    for site in g.lock_sites() {
        pre.push((site.pre_node, site.scalar_index()));
    }
    for (idx, node) in g.nodes().iter().enumerate() {
        let id = NodeId(idx);
        match &node.op {
            Op::KeyedSign { layout, slots } | Op::KeyedScale { layout, slots, .. } => {
                let Some(u) = slots.iter().position(Option::is_some) else {
                    continue;
                };
                let mut elems: Vec<usize> = layout.unit_elements(u).collect();
                if elems.len() < 2 {
                    elems.push((elems[0] + 1) % node.out_size);
                }
                surfaces.push((surface_of(g, id), elems));
            }
            Op::KeyedTrigger { .. } => {
                pre.push((node.inputs[0], 0));
                surfaces.push((id, vec![0, 1]));
            }
            Op::Linear { weight_locks, .. } if !weight_locks.is_empty() => {
                pre.extend(weight_locks.iter().map(|l| (id, l.row)));
                surfaces.push((id, vec![0, 1]));
            }
            _ => {}
        }
    }
    (pre, surfaces)
}

/// Seeded searches on one victim under its true key, hashed in order.
fn witness_digest(model: &LockedModel, cfg: &AttackConfig, seed: u64) -> Vec<u8> {
    let g = model.white_box();
    let ka = model.true_key().to_assignment();
    let mut rng = Prng::seed_from_u64(seed);
    let (pre, surfaces) = search_targets(g);
    assert!(!surfaces.is_empty(), "seed {seed}: victim has no surface");
    let mut parts = Vec::new();
    for (node, elem) in pre {
        parts.push(witness_bytes(search_critical_point(
            g, &ka, node, elem, cfg, &mut rng,
        )));
    }
    for (surface, elems) in surfaces {
        let (first, last) = (elems[0], elems[elems.len() - 1]);
        for scalar in [
            TargetScalar::Element(first),
            TargetScalar::UnitMax(elems.clone()),
            TargetScalar::UnitMin(elems.clone()),
            TargetScalar::Diff(first, last),
        ] {
            parts.push(witness_bytes(search_target_critical_point(
                g, &ka, surface, &scalar, cfg, &mut rng,
            )));
        }
    }
    history_digest(&parts).to_le_bytes().to_vec()
}

/// The victims the §3.5 and §3.6 pins share: MLP-16, LeNet, an untrained
/// ResNet and ViT, a weight-locked MLP and a SARLock-triggered MLP.
fn pin_victims() -> [LockedModel; 6] {
    let mut rng = Prng::seed_from_u64(720);
    let resnet = build_resnet(
        &ResnetSpec {
            in_channels: 2,
            h: 8,
            w: 8,
            stem: 4,
            stages: vec![StageSpec {
                channels: 4,
                blocks: 1,
                stride: 1,
            }],
            classes: 3,
        },
        LockSpec::evenly(6),
        &mut rng,
    )
    .unwrap();
    let vit = build_vit(
        &VitSpec {
            in_channels: 1,
            h: 8,
            w: 8,
            patch: 4,
            embed: 8,
            heads: 2,
            blocks: 2,
            mlp_hidden: 12,
            classes: 3,
        },
        LockSpec::evenly(6),
        &mut rng,
    )
    .unwrap();
    let weight_locked = build_mlp_weight_locked(
        &MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        },
        8,
        &mut rng,
    )
    .unwrap();
    [
        mlp16_victim(),
        lenet_victim(),
        resnet,
        vit,
        weight_locked,
        variant_victim(LockVariant::SarTrigger, 10, 770),
    ]
}

/// §3.5 witnesses on every pin victim: every lock site's pre-node, and
/// every keyed layer's surface under each scalar kind.
#[test]
fn critical_points_are_pinned() {
    let victims = pin_victims();
    let mut parts = Vec::new();
    for (i, model) in victims.iter().enumerate() {
        parts.push(witness_digest(model, &AttackConfig::fast(), 730 + i as u64));
    }
    parts.push(witness_digest(&victims[0], &AttackConfig::default(), 736));
    let got = history_digest(&parts);
    assert_eq!(
        got, 0xcf25_ccd9_38a9_792b,
        "witnesses moved (digest {got:#018x})"
    );
}

/// The key slots of a graph's first keyed node, in unit order.
fn first_keyed_slots(g: &Graph) -> Vec<KeySlot> {
    g.nodes()
        .iter()
        .map(|node| node.op.key_slots())
        .find(|slots| !slots.is_empty())
        .expect("victim has a keyed node")
}

/// §3.6 multipliers on every pin victim under the fast configuration: one
/// call with every slot free, and one with the first keyed layer's bits
/// fixed to the true key and the rest free. Each call contributes the
/// bits of its multipliers in slot order and the oracle's query count.
#[test]
fn learned_multipliers_are_pinned() {
    let cfg = AttackConfig::fast().learning;
    let mut parts = Vec::new();
    for (i, model) in pin_victims().iter().enumerate() {
        let g = model.white_box();
        let all: Vec<KeySlot> = (0..g.key_slot_count()).map(KeySlot).collect();
        let first = first_keyed_slots(g);
        let fixed: BTreeMap<KeySlot, bool> = first
            .iter()
            .map(|&s| (s, model.true_key().bit(s.index())))
            .collect();
        let rest: Vec<KeySlot> = all
            .iter()
            .copied()
            .filter(|s| !fixed.contains_key(s))
            .collect();
        for (j, (fixed, free)) in [(BTreeMap::new(), all.clone()), (fixed, rest)]
            .iter()
            .enumerate()
        {
            let oracle = CountingOracle::new(model);
            let learned = learning_attack(
                g,
                &oracle,
                fixed,
                free,
                &LearnedMultipliers::new(),
                &cfg,
                &mut Prng::seed_from_u64(740 + 2 * i as u64 + j as u64),
            );
            let reals: Vec<u8> = learned
                .values()
                .flat_map(|m| m.to_bits().to_le_bytes())
                .collect();
            parts.push(reals);
            parts.push(oracle.query_count().to_le_bytes().to_vec());
        }
    }
    let got = history_digest(&parts);
    assert_eq!(
        got, 0x64bd_808b_f7ef_f778,
        "learned multipliers moved (digest {got:#018x})"
    );
}
