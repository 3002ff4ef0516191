//! Property-style integration tests over the workspace's core invariants
//! (randomized with the in-tree `Prng`; no external test dependencies).

use relock::prelude::*;
use relock::tensor::linalg::preimage;

/// Fidelity and Hamming distance are consistent for arbitrary keys.
#[test]
fn key_fidelity_matches_hamming() {
    let mut rng = Prng::seed_from_u64(0xF1DE);
    for _ in 0..32 {
        let n = 1 + rng.below(63);
        let bits_a: Vec<bool> = (0..n).map(|_| rng.flip()).collect();
        let flips: Vec<bool> = (0..n).map(|_| rng.flip()).collect();
        let a = Key::from_bits(bits_a);
        let b = Key::from_bits(a.bits().iter().zip(&flips).map(|(&x, &f)| x ^ f).collect());
        let hd = a.hamming(&b);
        assert!((a.fidelity(&b) - (1.0 - hd as f64 / n as f64)).abs() < 1e-12);
        assert_eq!(hd, flips.iter().filter(|&&f| f).count());
    }
}

/// A key round-trips through its continuous assignment.
#[test]
fn key_assignment_round_trip() {
    let mut rng = Prng::seed_from_u64(0x2071);
    for _ in 0..32 {
        let n = rng.below(64);
        let bits: Vec<bool> = (0..n).map(|_| rng.flip()).collect();
        let k = Key::from_bits(bits.clone());
        assert_eq!(k.to_assignment().to_bits(), bits);
    }
}

/// The min-norm pre-image really solves wide consistent systems.
#[test]
fn preimage_solves_wide_systems() {
    for seed in 0..32u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let m = 2 + (seed as usize % 5);
        let n = m + 3 + (seed as usize % 7);
        let a = rng.normal_tensor([m, n]);
        let b = rng.normal_tensor([m]);
        let p = preimage(&a, &b, 1e-8).expect("random wide matrices are onto");
        assert!(a.matvec(&p.v).max_abs_diff(&b) < 1e-7, "seed {seed}");
    }
}

/// Flipping any key bit changes a locked network's function somewhere
/// (no silent bits on randomly initialized victims).
#[test]
fn every_key_bit_matters_on_random_mlp() {
    for seed in 0..16u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let model = build_mlp(
            &MlpSpec {
                input: 6,
                hidden: vec![8],
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .expect("spec fits");
        for bit in 0..4 {
            let mut wrong = model.true_key().clone();
            wrong.flip_bit(bit);
            let mut differs = false;
            for _ in 0..32 {
                let x = rng.normal_tensor([6]).scale(3.0);
                if model
                    .logits(&x)
                    .max_abs_diff(&model.logits_with(&x, &wrong))
                    > 1e-12
                {
                    differs = true;
                    break;
                }
            }
            assert!(differs, "seed {seed}: bit {bit} is silent");
        }
    }
}

/// The oracle under the true key is exactly the white box under the
/// true key — the hardware evaluates the same function.
#[test]
fn oracle_equals_whitebox_under_true_key() {
    for seed in 0..32u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let model = build_mlp(
            &MlpSpec {
                input: 5,
                hidden: vec![7, 6],
                classes: 4,
            },
            LockSpec::evenly(6),
            &mut rng,
        )
        .expect("spec fits");
        let oracle = CountingOracle::new(&model);
        let x = rng.normal_tensor([5]);
        let from_oracle = oracle.query(&x);
        let from_whitebox = model
            .white_box()
            .logits(&x, &model.true_key().to_assignment());
        assert!(
            from_oracle.max_abs_diff(&from_whitebox) == 0.0,
            "seed {seed}"
        );
    }
}

/// Batched and single-sample evaluation agree on every architecture's
/// building blocks (here: the ViT, which exercises attention, layer
/// norm, token ops and conv embedding at once).
#[test]
fn vit_batched_forward_matches_single() {
    for seed in 0..8u64 {
        let mut rng = Prng::seed_from_u64(seed);
        let model = build_vit(
            &VitSpec {
                in_channels: 1,
                h: 8,
                w: 8,
                patch: 4,
                embed: 8,
                heads: 2,
                blocks: 1,
                mlp_hidden: 12,
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .expect("spec fits");
        let keys = model.true_key().to_assignment();
        let xb = rng.normal_tensor([3, 64]);
        let batched = model.white_box().logits_batch(&xb, &keys);
        for s in 0..3 {
            let single = model
                .white_box()
                .logits(&Tensor::from_slice(xb.row(s)), &keys);
            assert!(
                single.max_abs_diff(&Tensor::from_slice(batched.row(s))) < 1e-12,
                "seed {seed} sample {s}"
            );
        }
    }
}

/// The nodes a §3.5 scan targets on `g`: each keyed node's pre-node, the
/// keyed node itself and the residual join consuming it.
fn scan_targets(g: &Graph) -> Vec<NodeId> {
    let consumers = g.consumers();
    let mut out = Vec::new();
    for (idx, node) in g.nodes().iter().enumerate() {
        if !node.op.is_keyed() {
            continue;
        }
        if node.inputs[0] != g.input_id() {
            out.push(node.inputs[0]);
        }
        out.push(NodeId(idx));
        out.extend(
            consumers[idx]
                .iter()
                .filter(|c| matches!(g.node(**c).op, Op::Add)),
        );
    }
    out
}

/// An MLP, a LeNet, an untrained ResNet and ViT, a weight-locked MLP and a
/// SARLock-triggered MLP: every graph shape the planned passes treat apart.
fn shape_victims(rng: &mut Prng) -> [LockedModel; 6] {
    let mlp = MlpSpec {
        input: 12,
        hidden: vec![10, 6],
        classes: 3,
    };
    [
        build_mlp(&mlp, LockSpec::evenly(8), rng).unwrap(),
        build_lenet(
            &LenetSpec {
                in_channels: 1,
                h: 12,
                w: 12,
                c1: 3,
                c2: 4,
                fc1: 10,
                fc2: 8,
                classes: 4,
            },
            LockSpec::evenly(8),
            rng,
        )
        .unwrap(),
        build_resnet(
            &ResnetSpec {
                in_channels: 2,
                h: 8,
                w: 8,
                stem: 4,
                stages: vec![relock::nn::StageSpec {
                    channels: 4,
                    blocks: 1,
                    stride: 1,
                }],
                classes: 3,
            },
            LockSpec::evenly(6),
            rng,
        )
        .unwrap(),
        build_vit(
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
            rng,
        )
        .unwrap(),
        build_mlp_weight_locked(&mlp, 8, rng).unwrap(),
        build_mlp(
            &mlp,
            LockSpec::with_variant(8, LockVariant::SarTrigger),
            rng,
        )
        .unwrap(),
    ]
}

/// The line pass, which fills an input-fed `Linear` or `Conv2d` in closed
/// form, agrees with the batch pass over the materialized points to
/// rounding, and with equal signs wherever a value clears that bound: on
/// random lines, under a wrong key, at every scan target of an MLP, a
/// LeNet, a ResNet, a ViT, a weight-locked MLP and a SARLock-triggered
/// MLP. Only a target behind the trigger builds the points.
#[test]
fn line_pass_matches_the_batch_pass() {
    let mut rng = Prng::seed_from_u64(0x11E);
    let victims = shape_victims(&mut rng);
    let ts: Vec<f64> = (0..17).map(|i| -12.0 + 1.5 * f64::from(i)).collect();
    for (v, model) in victims.iter().enumerate() {
        let g = model.white_box();
        // Every bit wrong, so each lock acts and the trigger fires.
        let wrong: Vec<bool> = model.true_key().bits().iter().map(|b| !b).collect();
        let keys = Key::from_bits(wrong).to_assignment();
        let p = g.input_size();
        let mut ws = relock::graph::Workspace::new();
        let targets = scan_targets(g);
        assert!(!targets.is_empty(), "victim {v} has no scan target");
        let triggers: Vec<NodeId> = (0..g.nodes().len())
            .map(NodeId)
            .filter(|&id| matches!(g.node(id).op, Op::KeyedTrigger { .. }))
            .collect();
        for node in targets {
            // Only a trigger's signature reads the points themselves.
            let reads_points = triggers.iter().any(|&t| g.plan().is_ancestor(t, node));
            assert_eq!(
                g.plan().line_needs_points(node),
                reads_points,
                "victim {v}, node {node}"
            );
            for _ in 0..4 {
                let anchor = rng.normal_tensor([p]).scale(3.0);
                let dir = rng.unit_vector(p);
                let line = g
                    .eval_line_into(&mut ws, &anchor, &dir, &ts, &keys, node)
                    .clone();
                let mut points = Vec::with_capacity(ts.len() * p);
                for &t in &ts {
                    let mut x = anchor.clone();
                    x.axpy(t, &dir);
                    points.extend_from_slice(x.as_slice());
                }
                let points = Tensor::from_vec(points, [ts.len(), p]);
                let batch = g.eval_node_into(&mut ws, &points, &keys, node);
                assert_eq!(line.dims(), batch.dims(), "victim {v}, node {node}");
                for i in 0..ts.len() {
                    let (l, b) = (line.row(i), batch.row(i));
                    let top = l.iter().chain(b).fold(0.0f64, |m, z| m.max(z.abs()));
                    let bound = 1e-9 * (1.0 + top);
                    for (e, (&zl, &zb)) in l.iter().zip(b).enumerate() {
                        let at = format!("victim {v}, node {node}, row {i}, element {e}");
                        assert!((zl - zb).abs() <= bound, "{at}: {zl} vs {zb}");
                        if zb.abs() > bound {
                            assert_eq!(zl > 0.0, zb > 0.0, "{at}: sign of {zl} vs {zb}");
                        }
                    }
                }
            }
        }
    }
}

/// The keys-only training step over the moving nodes alone agrees bit for
/// bit with the full pass: on random free-slot sets (some slots settled to
/// ±1, the others at random multipliers), frontier chunk sizes and row
/// subsets of a training batch, the gathered logits and every moving
/// slot's key gradient equal those of `forward_into` plus the keys-only
/// reverse pass with every slot moving, on the rows gathered up front.
#[test]
fn moving_pass_matches_the_full_pass() {
    use relock::graph::{MovingSet, Workspace};
    let mut rng = Prng::seed_from_u64(0x3B6);
    let n = 20;
    for (v, model) in shape_victims(&mut rng).iter().enumerate() {
        let g = model.white_box();
        let slots = g.key_slot_count();
        let every = MovingSet::new(g, |_| true);
        let (mut ws, mut full_ws) = (Workspace::new(), Workspace::new());
        let mut cache = Vec::new();
        let x = rng.normal_tensor([n, g.input_size()]).scale(2.0);
        for trial in 0..12 {
            // Each slot is fixed or settled (±1), or moves at a random
            // multiplier; trial 0 moves every slot, trial 1 none.
            let moves: Vec<bool> = (0..slots)
                .map(|_| match trial {
                    0 => true,
                    1 => false,
                    _ => rng.uniform_in(0.0, 1.0) < 0.5,
                })
                .collect();
            let values: Vec<f64> = moves
                .iter()
                .map(|&m| {
                    let sign = if rng.uniform_in(0.0, 1.0) < 0.5 {
                        -1.0
                    } else {
                        1.0
                    };
                    if m {
                        rng.uniform_in(-0.95, 0.95)
                    } else {
                        sign
                    }
                })
                .collect();
            let keys = KeyAssignment::from_values(values);
            let moving = MovingSet::new(g, |s| moves[s.index()]);
            let chunk = 1 + (rng.uniform_in(0.0, n as f64) as usize).min(n - 1);
            g.eval_frontier_into(&mut ws, &moving, &x, &keys, chunk, &mut cache);

            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let take = 1 + (rng.uniform_in(0.0, n as f64) as usize).min(n - 1);
            let rows = &order[..take];
            g.forward_moving_into(&mut ws, &moving, &cache, rows, &keys);
            let logits = ws.value(g.output_id()).clone();
            let grad = rng.normal_tensor(logits.dims().to_vec());
            let mut grads = vec![f64::NAN; slots];
            g.backward_keys_into(&mut ws, &moving, &grad, &keys, &mut grads);

            let mut xb = Vec::with_capacity(take * g.input_size());
            for &r in rows {
                xb.extend_from_slice(x.row(r));
            }
            let xb = Tensor::from_vec(xb, [take, g.input_size()]);
            g.forward_into(&mut full_ws, &xb, &keys);
            let at = format!("victim {v}, trial {trial}, chunk {chunk}, {take} rows");
            let full = full_ws.value(g.output_id());
            assert_eq!(logits.dims(), full.dims(), "{at}");
            for (a, b) in logits.as_slice().iter().zip(full.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{at}: logit {a} vs {b}");
            }
            let mut full_grads = vec![f64::NAN; slots];
            g.backward_keys_into(&mut full_ws, &every, &grad, &keys, &mut full_grads);
            for s in (0..slots).filter(|&s| moves[s]) {
                assert_eq!(
                    grads[s].to_bits(),
                    full_grads[s].to_bits(),
                    "{at}: key gradient of slot {s}: {} vs {}",
                    grads[s],
                    full_grads[s]
                );
            }
        }
    }
}
