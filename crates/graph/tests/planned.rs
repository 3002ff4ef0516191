//! Property tests for the planned execution engine.
//!
//! The planned path (`forward_into`, `backward_into`, `input_jacobian_into`
//! through a reusable [`Workspace`]) must be **bit-identical** — compared via
//! `f64::to_bits`, not a tolerance — to the original direct implementations
//! (`forward_reference` / `forward_partial_reference` / `backward` /
//! `input_jacobian`) across a zoo of graphs (odd layer widths, weight-element
//! locks, KeyedScale, conv/pool, attention/layer-norm), batch sizes, key
//! assignments, and kernel worker counts. Anything weaker would let the
//! engine silently change attack transcripts and checkpoint hashes.

use relock_graph::{
    Graph, GraphBuilder, KeyAssignment, KeySlot, MovingSet, NodeId, Op, UnitLayout, WeightLock,
    Workspace,
};
use relock_tensor::im2col::ConvGeometry;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Odd-width MLP with per-neuron sign locks, a §3.9(a) scale lock layer,
/// and a §3.9(b) weight-element lock — every lock family on one graph.
fn odd_mlp(rng: &mut Prng) -> Graph {
    let mut gb = GraphBuilder::new();
    let x = gb.input(7);
    let l1 = gb
        .add(
            Op::Linear {
                w: rng.normal_tensor([5, 7]),
                b: rng.normal_tensor([5]),
                weight_locks: vec![
                    WeightLock {
                        row: 0,
                        col: 3,
                        slot: KeySlot(0),
                    },
                    WeightLock {
                        row: 4,
                        col: 6,
                        slot: KeySlot(1),
                    },
                ],
            },
            &[x],
        )
        .unwrap();
    let s1 = gb
        .add(
            Op::KeyedSign {
                layout: UnitLayout::scalar(5),
                slots: vec![Some(KeySlot(2)), None, Some(KeySlot(3)), None, None],
            },
            &[l1],
        )
        .unwrap();
    let r1 = gb.add(Op::Relu, &[s1]).unwrap();
    let l2 = gb
        .add(
            Op::Linear {
                w: rng.normal_tensor([9, 5]),
                b: rng.normal_tensor([9]),
                weight_locks: vec![],
            },
            &[r1],
        )
        .unwrap();
    let sc = gb
        .add(
            Op::KeyedScale {
                layout: UnitLayout::scalar(9),
                slots: vec![
                    Some(KeySlot(4)),
                    None,
                    None,
                    None,
                    Some(KeySlot(5)),
                    None,
                    None,
                    None,
                    None,
                ],
                factor: 0.25,
            },
            &[l2],
        )
        .unwrap();
    let r2 = gb.add(Op::Relu, &[sc]).unwrap();
    let out = gb
        .add(
            Op::Linear {
                w: rng.normal_tensor([3, 9]),
                b: rng.normal_tensor([3]),
                weight_locks: vec![],
            },
            &[r2],
        )
        .unwrap();
    gb.build(out).unwrap()
}

/// Conv → channel lock → relu → maxpool → global avg → linear.
fn conv_net(rng: &mut Prng) -> Graph {
    let mut gb = GraphBuilder::new();
    let x = gb.input(2 * 6 * 6);
    let geom = ConvGeometry {
        in_channels: 2,
        in_h: 6,
        in_w: 6,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    let conv = gb
        .add(
            Op::Conv2d {
                w: rng.normal_tensor([3, geom.patch_len()]).scale(0.4),
                b: rng.normal_tensor([3]).scale(0.2),
                geom,
            },
            &[x],
        )
        .unwrap();
    let keyed = gb
        .add(
            Op::KeyedSign {
                layout: UnitLayout::channel_major(3, 36),
                slots: vec![Some(KeySlot(0)), None, Some(KeySlot(1))],
            },
            &[conv],
        )
        .unwrap();
    let relu = gb.add(Op::Relu, &[keyed]).unwrap();
    let pool = gb
        .add(
            Op::MaxPool2d {
                channels: 3,
                in_h: 6,
                in_w: 6,
                k: 2,
                stride: 2,
            },
            &[relu],
        )
        .unwrap();
    let gap = gb
        .add(
            Op::AvgPoolGlobal {
                channels: 3,
                positions: 9,
            },
            &[pool],
        )
        .unwrap();
    let out = gb
        .add(
            Op::Linear {
                w: rng.normal_tensor([2, 3]),
                b: rng.normal_tensor([2]),
                weight_locks: vec![],
            },
            &[gap],
        )
        .unwrap();
    gb.build(out).unwrap()
}

/// One attention block with residual, token-feature lock, and mean pool —
/// exercises the long-tail ops that fall back to the allocating kernels.
fn attention_net(rng: &mut Prng) -> Graph {
    let (tokens, dim, heads) = (4usize, 6usize, 2usize);
    let mut gb = GraphBuilder::new();
    let x = gb.input(tokens * dim);
    let ln = gb
        .add(
            Op::LayerNorm {
                tokens,
                dim,
                gamma: rng.uniform_tensor([dim], 0.5, 1.5),
                beta: rng.normal_tensor([dim]).scale(0.1),
            },
            &[x],
        )
        .unwrap();
    let mk_lin = |gb: &mut GraphBuilder, rng: &mut Prng, input| {
        gb.add(
            Op::TokenLinear {
                tokens,
                w: rng.normal_tensor([dim, dim]).scale(0.5),
                b: rng.normal_tensor([dim]).scale(0.1),
            },
            &[input],
        )
        .unwrap()
    };
    let q = mk_lin(&mut gb, rng, ln);
    let k = mk_lin(&mut gb, rng, ln);
    let v = mk_lin(&mut gb, rng, ln);
    let attn = gb
        .add(
            Op::Attention {
                tokens,
                heads,
                head_dim: dim / heads,
            },
            &[q, k, v],
        )
        .unwrap();
    let proj = mk_lin(&mut gb, rng, attn);
    let res = gb.add(Op::Add, &[x, proj]).unwrap();
    let keyed = gb
        .add(
            Op::KeyedSign {
                layout: UnitLayout::token_feature(tokens, dim),
                slots: vec![Some(KeySlot(0)), None, None, Some(KeySlot(1)), None, None],
            },
            &[res],
        )
        .unwrap();
    let relu = gb.add(Op::Relu, &[keyed]).unwrap();
    let pooled = gb.add(Op::MeanTokens { tokens, dim }, &[relu]).unwrap();
    let out = gb
        .add(
            Op::Linear {
                w: rng.normal_tensor([3, dim]),
                b: rng.normal_tensor([3]),
                weight_locks: vec![],
            },
            &[pooled],
        )
        .unwrap();
    gb.build(out).unwrap()
}

fn zoo(rng: &mut Prng) -> Vec<Graph> {
    vec![odd_mlp(rng), conv_net(rng), attention_net(rng)]
}

/// A mix of discrete and continuous key assignments for `n` slots.
fn key_variants(n: usize, rng: &mut Prng) -> Vec<KeyAssignment> {
    let bits: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
    let cont: Vec<f64> = (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect();
    vec![
        KeyAssignment::all_zero_bits(n),
        KeyAssignment::from_bits(&bits),
        KeyAssignment::from_values(cont),
    ]
}

#[test]
fn planned_forward_bitwise_across_zoo_batches_and_keys() {
    let mut rng = Prng::seed_from_u64(101);
    // One workspace across all graphs and batch sizes: the engine must be
    // graph-agnostic, growing and re-using its buffers as graphs change.
    let mut ws = Workspace::new();
    for g in zoo(&mut rng) {
        for keys in key_variants(g.key_slot_count(), &mut rng) {
            for batch in [1usize, 3, 8] {
                let x = rng.normal_tensor([batch, g.input_size()]);
                let reference = g.forward_reference(&x, &keys);
                g.forward_into(&mut ws, &x, &keys);
                assert_eq!(ws.batch(), batch);
                for id in (0..g.nodes().len()).map(NodeId) {
                    assert!(
                        bits_eq(reference.value(id), ws.value(id)),
                        "node {id} differs (batch {batch})"
                    );
                }
                // The allocating wrapper must agree bit-for-bit too.
                let wrapped = g.forward(&x, &keys);
                for id in (0..g.nodes().len()).map(NodeId) {
                    assert!(bits_eq(reference.value(id), wrapped.value(id)));
                }
            }
        }
    }
    assert!(ws.passes() > 1, "workspace should have been reused");
}

#[test]
fn planned_partial_forward_bitwise_on_every_target() {
    let mut rng = Prng::seed_from_u64(102);
    let mut ws = Workspace::new();
    for g in zoo(&mut rng) {
        let keys = KeyAssignment::from_bits(&vec![true; g.key_slot_count()]);
        let x = rng.normal_tensor([2, g.input_size()]);
        for target in (0..g.nodes().len()).map(NodeId) {
            let reference = g.forward_partial_reference(&x, &keys, target);
            g.forward_partial_into(&mut ws, &x, &keys, target);
            let ancestors = g.ancestors_of(target);
            for id in (0..g.nodes().len()).map(NodeId) {
                let in_pass = ancestors.contains(&id) && id.index() <= target.index();
                assert_eq!(ws.is_live(id), in_pass, "liveness of {id} for {target}");
                if in_pass {
                    assert!(bits_eq(reference.value(id), ws.value(id)));
                } else {
                    // Legacy placeholder semantics: empty tensors for nodes
                    // outside the ancestor cone.
                    assert_eq!(reference.value(id).numel(), 0);
                    let wrapped = g.forward_partial(&x, &keys, target);
                    assert_eq!(wrapped.value(id).numel(), 0);
                }
            }
            // eval_node and the borrowing variant agree with the reference.
            let owned = g.eval_node(&x, &keys, target);
            assert!(bits_eq(&owned, reference.value(target)));
            let borrowed = g.eval_node_into(&mut ws, &x, &keys, target);
            assert!(bits_eq(borrowed, reference.value(target)));
        }
        // Logits wrappers ride the same partial pass.
        let reference = g.forward_partial_reference(&x, &keys, g.output_id());
        assert!(bits_eq(
            &g.logits_batch(&x, &keys),
            reference.value(g.output_id())
        ));
        assert!(bits_eq(
            g.logits_batch_into(&mut ws, &x, &keys),
            reference.value(g.output_id())
        ));
    }
}

#[test]
fn planned_backward_bitwise_and_keys_only_mode() {
    let mut rng = Prng::seed_from_u64(103);
    let mut ws = Workspace::new();
    for g in zoo(&mut rng) {
        for keys in key_variants(g.key_slot_count(), &mut rng) {
            for batch in [1usize, 4] {
                let x = rng.normal_tensor([batch, g.input_size()]);
                let acts = g.forward_reference(&x, &keys);
                let out_dims = acts.value(g.output_id()).dims().to_vec();
                let seed = rng.normal_tensor(out_dims);
                let legacy = g.backward(&acts, &seed, &keys);

                g.forward_into(&mut ws, &x, &keys);
                let planned = g.backward_into(&mut ws, &seed, &keys);
                for (slot, (a, b)) in legacy.keys.iter().zip(&planned.keys).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "key grad {slot}");
                }
                for (idx, (a, b)) in legacy.params.iter().zip(&planned.params).enumerate() {
                    match (a, b) {
                        (None, None) => {}
                        (Some((aw, ab)), Some((bw, bb))) => {
                            assert!(bits_eq(aw, bw), "weight grad at node {idx}");
                            assert!(bits_eq(ab, bb), "bias grad at node {idx}");
                        }
                        _ => panic!("param grad presence mismatch at node {idx}"),
                    }
                }

                // Keys-only mode with every slot moving: bit-identical key
                // gradients.
                let mut keys_only = vec![f64::NAN; g.key_slot_count()];
                let every_slot = MovingSet::new(&g, |_| true);
                g.backward_keys_into(&mut ws, &every_slot, &seed, &keys, &mut keys_only);
                for (a, b) in legacy.keys.iter().zip(&keys_only) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}

#[test]
fn planned_jacobian_bitwise_on_every_target() {
    let mut rng = Prng::seed_from_u64(104);
    let mut ws = Workspace::new();
    for g in zoo(&mut rng) {
        let keys = KeyAssignment::from_values(
            (0..g.key_slot_count())
                .map(|_| rng.uniform_in(-1.0, 1.0))
                .collect(),
        );
        let x = rng.normal_tensor([g.input_size()]);
        let acts = g.forward_reference(&x, &keys);
        g.forward_into(&mut ws, &x, &keys);
        for target in (0..g.nodes().len()).map(NodeId) {
            let legacy = g.input_jacobian(&acts, target, &keys);
            let planned = g.input_jacobian_into(&mut ws, target, &keys);
            assert!(bits_eq(&legacy, &planned), "Â differs at target {target}");
        }
    }
}

#[test]
fn planned_linear_is_worker_count_invariant() {
    use relock_tensor::compute::gemm_nt_into_with;
    // The engine's Linear runs `x · Wᵀ` through the shared tiled kernel;
    // whatever worker count the host picks, the bits must match the
    // single-threaded reference because threads only split output rows.
    let mut rng = Prng::seed_from_u64(105);
    let g = odd_mlp(&mut rng);
    let keys = KeyAssignment::from_bits(&[false, true, true, false, true, false]);
    let x = rng.normal_tensor([9, 7]);
    let mut ws = Workspace::new();
    g.forward_into(&mut ws, &x, &keys);
    // Node 1 is the weight-locked first Linear; recompute its matmul at
    // several explicit worker counts against the engine's output.
    let w_eff = {
        let Op::Linear {
            w, weight_locks, ..
        } = &g.node(NodeId(1)).op
        else {
            panic!("node 1 should be linear");
        };
        let mut w = w.clone();
        for l in weight_locks {
            let cur = w.get2(l.row, l.col);
            w.set2(l.row, l.col, cur * keys.values()[l.slot.0]);
        }
        w
    };
    let b = {
        let Op::Linear { b, .. } = &g.node(NodeId(1)).op else {
            unreachable!()
        };
        b.clone()
    };
    for workers in [1usize, 2, 3, 5] {
        let mut out = vec![0.0f64; 9 * 5];
        gemm_nt_into_with(x.as_slice(), w_eff.as_slice(), &mut out, 9, 7, 5, workers);
        for (row, chunk) in out.chunks(5).enumerate() {
            for (col, v) in chunk.iter().enumerate() {
                let expect = v + b.as_slice()[col];
                let got = ws.value(NodeId(1)).get2(row, col);
                assert_eq!(
                    expect.to_bits(),
                    got.to_bits(),
                    "workers {workers} row {row} col {col}"
                );
            }
        }
    }
}

#[test]
fn weight_mutation_between_passes_is_respected() {
    // The effective-weight cache keys on (weights generation, key
    // generation); mutating weights through `params_mut` between planned
    // passes must invalidate it even when the key assignment is unchanged.
    let mut rng = Prng::seed_from_u64(106);
    let mut g = odd_mlp(&mut rng);
    let keys = KeyAssignment::from_bits(&vec![true; g.key_slot_count()]);
    let x = rng.normal_tensor([3, g.input_size()]);
    let mut ws = Workspace::new();
    g.forward_into(&mut ws, &x, &keys);
    for node in g.param_nodes() {
        let (w, _) = g.params_mut(node).unwrap();
        let v = w.as_slice()[0];
        w.as_mut_slice()[0] = v * 2.0 + 0.125;
    }
    let reference = g.forward_reference(&x, &keys);
    g.forward_into(&mut ws, &x, &keys);
    for id in (0..g.nodes().len()).map(NodeId) {
        assert!(bits_eq(reference.value(id), ws.value(id)), "node {id}");
    }
}
