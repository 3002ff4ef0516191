//! Checkpoint format properties: randomized `AttackState` values must
//! survive an encode/decode round trip bit-exactly, and *no* corrupted or
//! truncated frame may ever decode — the resume path must detect the
//! damage and fall back to a fresh run instead of panicking.

use relock_attack::testutil::{mlp16_victim, run_threads};
use relock_attack::{
    AttackConfig, AttackState, CheckpointError, Decryptor, LayerReport, MemoryCheckpointSink,
    PhaseCut, QueryStatsSnapshot, ResumeStatus, ScopeCounts, TimingBreakdown, ValidationTarget,
};
use relock_graph::{KeyAssignment, KeySlot, NodeId, UnitLayout};
use relock_locking::{CountingOracle, LockSpec};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::{Prng, PrngState};
use std::collections::BTreeMap;
use std::time::Duration;

fn random_slot_map(rng: &mut Prng, max_len: usize) -> BTreeMap<KeySlot, f64> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|i| (KeySlot(i * 2 + rng.below(2)), rng.normal()))
        .collect()
}

fn random_cut(rng: &mut Prng) -> PhaseCut {
    match rng.below(4) {
        0 => PhaseCut::LayerStart,
        1 => PhaseCut::PostInfer {
            inferred: (0..rng.below(9))
                .map(|i| {
                    let bit = match rng.below(3) {
                        0 => None,
                        1 => Some(false),
                        _ => Some(true),
                    };
                    (KeySlot(i), bit)
                })
                .collect(),
        },
        2 => PhaseCut::PostLearn {
            unresolved: (0..rng.below(7)).map(KeySlot).collect(),
            confidences: random_slot_map(rng, 8),
        },
        _ => PhaseCut::Correcting {
            confidences: random_slot_map(rng, 8),
            algebraic: rng.below(100),
            learned: rng.below(100),
            rounds: rng.below(1000),
            tried: rng.below(500),
            target: if rng.flip() {
                Some(ValidationTarget {
                    surface_node: NodeId(rng.below(64)),
                    layout: UnitLayout {
                        n_units: 1 + rng.below(8),
                        unit_len: 1 + rng.below(8),
                        unit_stride: 1 + rng.below(8),
                        elem_stride: 1 + rng.below(8),
                    },
                    units: (0..rng.below(6))
                        .map(|u| (u, rng.flip().then(|| KeySlot(rng.below(16)))))
                        .collect(),
                })
            } else {
                None
            },
        },
    }
}

fn random_state(rng: &mut Prng) -> AttackState {
    let n_slots = 1 + rng.below(24);
    let mut stats = QueryStatsSnapshot {
        requested: rng.below(1 << 20) as u64,
        cache_hits: rng.below(1 << 20) as u64,
        underlying: rng.below(1 << 20) as u64,
        batches: rng.below(1 << 16) as u64,
        retries: rng.below(100) as u64,
        injected_faults: rng.below(100) as u64,
        oracle_time: Duration::from_nanos(rng.below(1 << 30) as u64),
        ..Default::default()
    };
    for b in &mut stats.histogram {
        *b = rng.below(1000) as u64;
    }
    stats.per_scope = (0..rng.below(4))
        .map(|i| {
            (
                format!("scope-{i}"),
                ScopeCounts {
                    requested: rng.below(1000) as u64,
                    cache_hits: rng.below(1000) as u64,
                    underlying: rng.below(1000) as u64,
                },
            )
        })
        .collect();
    AttackState {
        layer_index: rng.below(5),
        cut: random_cut(rng),
        key: KeyAssignment::from_bits(&(0..n_slots).map(|_| rng.flip()).collect::<Vec<_>>()),
        committed: (0..rng.below(n_slots + 1))
            .map(|i| (KeySlot(i), rng.flip()))
            .collect(),
        warm: random_slot_map(rng, n_slots),
        reports: (0..rng.below(4))
            .map(|i| LayerReport {
                keyed_node: NodeId(i * 3 + 1),
                bits: rng.below(32),
                algebraic: rng.below(32),
                learned: rng.below(32),
                validation_rounds: rng.below(64),
                corrected: rng.below(8),
                validated: rng.flip(),
            })
            .collect(),
        rng: PrngState {
            s: [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ],
            spare_normal: if rng.flip() { Some(rng.normal()) } else { None },
        },
        timing: TimingBreakdown::from_nanos([
            rng.below(1 << 30) as u64,
            rng.below(1 << 30) as u64,
            rng.below(1 << 30) as u64,
            rng.below(1 << 30) as u64,
        ]),
        stats,
        queries: rng.below(1 << 24) as u64,
    }
}

#[test]
fn random_states_round_trip_bit_exactly() {
    let mut rng = Prng::seed_from_u64(4200);
    for case in 0..200 {
        let state = random_state(&mut rng);
        let bytes = state.encode();
        let back = AttackState::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(back, state, "case {case}");
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let mut rng = Prng::seed_from_u64(4300);
    let state = random_state(&mut rng);
    let bytes = state.encode();
    for pos in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[pos] ^= flip;
            assert!(
                AttackState::decode(&bad).is_err(),
                "flip 0x{flip:02x} at byte {pos}/{} went undetected",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_truncation_is_detected() {
    let mut rng = Prng::seed_from_u64(4400);
    let state = random_state(&mut rng);
    let bytes = state.encode();
    for len in 0..bytes.len() {
        match AttackState::decode(&bytes[..len]) {
            Err(CheckpointError::Corrupt(_)) => {}
            Err(e) => panic!("truncation to {len} gave non-corrupt error {e}"),
            Ok(_) => panic!("truncation to {len} bytes decoded"),
        }
    }
}

#[test]
fn trailing_garbage_is_detected() {
    let mut rng = Prng::seed_from_u64(4500);
    let state = random_state(&mut rng);
    let mut bytes = state.encode();
    bytes.extend_from_slice(&[0xAB; 7]);
    assert!(AttackState::decode(&bytes).is_err());
}

/// Applies one randomly chosen damage pattern to `bytes`: a truncation to
/// a random length, a burst of 1–8 random bit flips, or both.
fn random_damage(rng: &mut Prng, bytes: &[u8]) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    let mode = rng.below(3);
    if mode != 1 {
        bad.truncate(rng.below(bad.len() + 1));
    }
    if mode != 0 && !bad.is_empty() {
        for _ in 0..1 + rng.below(8) {
            let pos = rng.below(bad.len());
            bad[pos] ^= 1 << rng.below(8);
        }
    }
    bad
}

/// Fuzz the `RLCP` parser: random truncations and multi-bit flip bursts
/// must never panic the decoder, and whenever a damaged frame *does*
/// decode (the damage cancelled out, or — vanishingly unlikely — the
/// checksum collided), the result must equal the original state. There is
/// no third outcome: decode errors or the truth, never a silently-wrong
/// resume.
#[test]
fn random_damage_never_panics_and_never_decodes_to_a_different_state() {
    let mut rng = Prng::seed_from_u64(4700);
    for case in 0..400 {
        let state = random_state(&mut rng);
        let bytes = state.encode();
        let bad = random_damage(&mut rng, &bytes);
        let outcome = std::panic::catch_unwind(|| AttackState::decode(&bad))
            .unwrap_or_else(|_| panic!("case {case}: decoder panicked on damaged frame"));
        if let Ok(back) = outcome {
            assert_eq!(
                back, state,
                "case {case}: damaged frame decoded to a different state"
            );
        }
    }
}

/// End-to-end recovery contract: a corrupted checkpoint never panics and
/// never poisons the result — `resume` reports the fallback and the fresh
/// run still recovers the exact key.
#[test]
fn corrupted_checkpoint_falls_back_to_clean_fresh_run() {
    let mut rng = Prng::seed_from_u64(4600);
    let model = build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .unwrap();
    let g = model.white_box();
    let oracle = CountingOracle::new(&model);
    let dec = Decryptor::new(AttackConfig::fast());

    let sink = MemoryCheckpointSink::new();
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let reference = dec
        .run_with_checkpoints(g, &broker, &mut Prng::seed_from_u64(4601), &sink)
        .unwrap();

    // Smash a byte in the middle of the stored frame.
    let mut bytes = sink.contents().expect("run must have checkpointed");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    sink.set(Some(bytes));

    let broker2 = Broker::with_config(&oracle, BrokerConfig::default());
    let (report, status) = dec
        .resume(g, &broker2, &mut Prng::seed_from_u64(4601), &sink)
        .unwrap();
    match &status {
        ResumeStatus::FellBack { reason } => {
            assert!(
                reason.contains("corrupt") || reason.contains("checksum"),
                "unexpected fallback reason: {reason}"
            );
        }
        other => panic!("expected FellBack, got {other:?}"),
    }
    assert_eq!(report.key, reference.key);
    assert_eq!(report.fidelity(model.true_key()), 1.0);

    // The fresh run has overwritten the damage: a second resume continues
    // from the (now valid) final snapshot.
    let broker3 = Broker::with_config(&oracle, BrokerConfig::default());
    let (again, status) = dec
        .resume(g, &broker3, &mut Prng::seed_from_u64(4601), &sink)
        .unwrap();
    assert!(status.resumed(), "got {status:?}");
    assert_eq!(again.key, reference.key);
}

/// Sampled end-to-end sweep of the same damage patterns the parser fuzz
/// uses: every damaged checkpoint planted in the sink makes `resume`
/// report `FellBack` and run fresh to the exact key — never a panic and
/// never a silently-wrong resume from rotten state.
#[test]
fn sampled_damage_always_falls_back_and_recovers_exact_key() {
    let mut rng = Prng::seed_from_u64(4800);
    let model = build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .unwrap();
    let g = model.white_box();
    let oracle = CountingOracle::new(&model);
    let dec = Decryptor::new(AttackConfig::fast());

    let sink = MemoryCheckpointSink::new();
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let reference = dec
        .run_with_checkpoints(g, &broker, &mut Prng::seed_from_u64(4801), &sink)
        .unwrap();
    let pristine = sink.contents().expect("run must have checkpointed");

    let mut damage_rng = Prng::seed_from_u64(4802);
    for round in 0..6 {
        // Re-damage the pristine frame each round (a fallback run will
        // have overwritten the sink with fresh valid checkpoints).
        let bad = loop {
            let bad = random_damage(&mut damage_rng, &pristine);
            if bad != pristine {
                break bad;
            }
        };
        sink.set(Some(bad));
        let broker = Broker::with_config(&oracle, BrokerConfig::default());
        let (report, status) = dec
            .resume(g, &broker, &mut Prng::seed_from_u64(4801), &sink)
            .unwrap();
        assert!(
            matches!(status, ResumeStatus::FellBack { .. }),
            "round {round}: damaged checkpoint must fall back, got {status:?}"
        );
        assert_eq!(
            report.key, reference.key,
            "round {round}: fallback run diverged from the reference"
        );
    }
}

/// A checksum-valid frame whose `Correcting` cut does not fit the graph
/// makes `resume` fall back to a fresh run, never panic or fail. The
/// frames are a real run's `Correcting` cut (learning-only MLP-16, seed
/// 732) with one field of its validation target, or its candidate index,
/// changed; the unchanged frame resumes to the uninterrupted run's key.
#[test]
fn correcting_frames_that_do_not_fit_the_graph_fall_back() {
    let victim = mlp16_victim();
    let g = victim.white_box();
    let cfg = AttackConfig {
        disable_algebraic: true,
        ..AttackConfig::fast()
    };
    let reference = run_threads(&victim, cfg, 1, 732);
    let frame = reference
        .frames
        .iter()
        .map(|f| AttackState::decode(f).expect("engine frames decode"))
        .find(|st| {
            matches!(
                st.cut,
                PhaseCut::Correcting {
                    target: Some(_),
                    ..
                }
            )
        })
        .expect("seed 732 corrects a layer with a successor");
    let retarget = |edit: &dyn Fn(&mut ValidationTarget)| {
        let mut st = frame.clone();
        if let PhaseCut::Correcting {
            target: Some(t), ..
        } = &mut st.cut
        {
            edit(t);
        }
        st
    };
    let resume = |cfg: AttackConfig, st: &AttackState| {
        let sink = MemoryCheckpointSink::new();
        sink.set(Some(st.encode()));
        let oracle = CountingOracle::new(&victim);
        let broker = Broker::with_config(&oracle, BrokerConfig::default());
        Decryptor::new(cfg)
            .resume(g, &broker, &mut Prng::seed_from_u64(732), &sink)
            .expect("the run completes")
    };

    let (report, status) = resume(cfg, &frame);
    assert!(status.resumed(), "the engine's own frame: {status:?}");
    assert_eq!(report.key, reference.report.key);

    let misfits: [(&str, AttackState); 7] = [
        ("node 999", retarget(&|t| t.surface_node = NodeId(999))),
        ("unit 500", retarget(&|t| t.units[0].0 = 500)),
        ("1,000-unit layout", retarget(&|t| t.layout.n_units = 1000)),
        ("elem_stride 100", retarget(&|t| t.layout.elem_stride = 100)),
        (
            "another unit's slot",
            retarget(&|t| {
                let locked = t.units.iter().position(|u| u.1.is_some()).unwrap();
                t.units[locked].1 = None;
            }),
        ),
        ("missing target", {
            let mut st = frame.clone();
            if let PhaseCut::Correcting { target, .. } = &mut st.cut {
                *target = None;
            }
            st
        }),
        ("candidate past the plan", {
            let mut st = frame.clone();
            if let PhaseCut::Correcting { tried, .. } = &mut st.cut {
                *tried = 1_000_000;
            }
            st
        }),
    ];
    // The fallback runs fresh; the algebraic path keeps that run short.
    for (what, st) in misfits {
        let (report, status) = resume(AttackConfig::fast(), &st);
        match &status {
            ResumeStatus::FellBack { reason } => {
                assert!(reason.contains("incompatible"), "{what}: {reason}")
            }
            other => panic!("{what}: expected FellBack, got {other:?}"),
        }
        assert_eq!(report.fidelity(victim.true_key()), 1.0, "{what}: fresh run");
    }
}
