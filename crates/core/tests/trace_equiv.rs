//! No-feedback contract of the trace layer: an MLP-16 attack whose broker
//! carries a `FlightRecorder` must be bit-identical to the untraced run:
//! same key, same underlying query count, same broker accounting, same
//! checkpoint frames byte-for-byte (wall-clock fields zeroed), at 1 and 4
//! threads. Tracing observes the engine; it must never steer it. And what
//! it records is the nine-label catalogue of DESIGN.md §3f, nothing else.

use relock_attack::{AttackConfig, AttackState, CheckpointSink, DecryptionReport, Decryptor};
use relock_locking::{CountingOracle, LockSpec, LockedModel};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{
    Broker, BrokerConfig, ChaosConfig, ChaosOracle, QueryStatsSnapshot, RetryPolicy,
};
use relock_tensor::rng::Prng;
use relock_trace::{Event, FlightRecorder, Trace};
use std::collections::BTreeSet;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every label the program records: three spans and six counters.
const CATALOGUE: [&str; 9] = [
    "broker.batch",
    "attack.layer",
    "attack.wave",
    "broker.requested",
    "broker.cache_hits",
    "broker.underlying",
    "broker.retry",
    "chaos.injected",
    "checkpoint.write",
];

fn mlp16_victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(700);
    build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        },
        LockSpec::evenly(16),
        &mut rng,
    )
    .unwrap()
}

#[derive(Default)]
struct RecordingSink {
    frames: Mutex<Vec<Vec<u8>>>,
}

impl RecordingSink {
    fn frames(&self) -> Vec<Vec<u8>> {
        self.frames.lock().expect("sink poisoned").clone()
    }
}

impl CheckpointSink for RecordingSink {
    fn save(&self, bytes: &[u8]) -> io::Result<()> {
        self.frames
            .lock()
            .expect("sink poisoned")
            .push(bytes.to_vec());
        Ok(())
    }

    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.frames.lock().expect("sink poisoned").last().cloned())
    }
}

/// Re-encodes a frame with wall-clock fields zeroed; everything else must
/// be deterministic and is compared byte-for-byte.
fn normalize_frame(frame: &[u8]) -> Vec<u8> {
    let mut st = AttackState::decode(frame).expect("engine wrote an undecodable frame");
    st.timing_nanos = [0; 4];
    st.stats.oracle_time = Duration::ZERO;
    st.encode()
}

fn strip_clock(stats: &QueryStatsSnapshot) -> QueryStatsSnapshot {
    let mut s = stats.clone();
    s.oracle_time = Duration::ZERO;
    s
}

struct RunTrace {
    report: DecryptionReport,
    frames: Vec<Vec<u8>>,
}

/// A checkpointed run, recorded into `trace` when one is given.
fn run(model: &LockedModel, threads: usize, trace: Option<&Arc<FlightRecorder>>) -> RunTrace {
    let cfg = AttackConfig {
        threads,
        ..AttackConfig::fast()
    };
    let oracle = CountingOracle::new(model);
    let mut broker = Broker::with_config(&oracle, BrokerConfig::default());
    if let Some(flight) = trace {
        broker = broker.with_trace(Arc::clone(flight));
    }
    let sink = RecordingSink::default();
    let (report, _status) = Decryptor::new(cfg)
        .resume(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(701),
            &sink,
        )
        .unwrap();
    RunTrace {
        report,
        frames: sink.frames().iter().map(|f| normalize_frame(f)).collect(),
    }
}

fn assert_same_run(a: &RunTrace, b: &RunTrace, ctx: &str) {
    assert_eq!(a.report.key, b.report.key, "{ctx}: recovered key diverged");
    assert_eq!(
        a.report.queries, b.report.queries,
        "{ctx}: underlying query count diverged"
    );
    assert_eq!(
        strip_clock(&a.report.stats),
        strip_clock(&b.report.stats),
        "{ctx}: broker accounting diverged"
    );
    assert_eq!(
        a.frames.len(),
        b.frames.len(),
        "{ctx}: checkpoint cadence diverged"
    );
    for (i, (fa, fb)) in a.frames.iter().zip(&b.frames).enumerate() {
        assert_eq!(fa, fb, "{ctx}: checkpoint frame {i} is not byte-identical");
    }
}

/// The capture a recorder holds, read back through its JSONL as
/// `report --analyze` reads a `--trace` file.
fn capture(flight: &FlightRecorder) -> Trace {
    Trace::parse(&flight.to_jsonl()).expect("captured JSONL parses")
}

/// The headline contract: untraced vs `FlightRecorder`, at 1 and 4
/// threads, bit-identical — and the flight recorder must have actually
/// captured the run it observed (a trivially-empty trace would prove
/// nothing).
#[test]
fn instrumented_attack_is_bit_identical_to_uninstrumented() {
    let model = mlp16_victim();
    for threads in [1usize, 4] {
        let bare = run(&model, threads, None);
        assert_eq!(
            bare.report.fidelity(model.true_key()),
            1.0,
            "threads {threads}: reference run must recover the key exactly"
        );
        assert!(
            !bare.frames.is_empty(),
            "a checkpointed run must persist frames"
        );

        let flight = Arc::new(FlightRecorder::new());
        let traced = run(&model, threads, Some(&flight));
        assert_same_run(&traced, &bare, &format!("FlightRecorder threads {threads}"));

        let trace = capture(&flight);
        // Every begin has exactly one end, and the stamps follow arrival
        // order even with worker threads recording at once.
        assert!(
            trace.check().is_empty(),
            "threads {threads}: {:?}",
            trace.check()
        );
        let spans = trace.spans().expect("spans pair");
        for label in ["attack.layer", "broker.batch"] {
            assert!(
                spans.iter().any(|s| s.label == label),
                "threads {threads}: no '{label}' span captured"
            );
        }
        let checkpoint_writes = trace
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Counter { label, .. } if label == "checkpoint.write"))
            .count();
        assert_eq!(
            checkpoint_writes,
            traced.frames.len(),
            "threads {threads}: one checkpoint.write counter per persisted frame"
        );
        assert_eq!(
            trace.counter_total("broker.requested"),
            traced.report.stats.requested,
            "threads {threads}: trace books must match the broker snapshot"
        );
    }
}

/// A transient-fault run, recorded: a 10% drop rate that retries absorb.
fn chaos_capture(model: &LockedModel) -> Trace {
    let chaos = ChaosOracle::new(
        CountingOracle::new(model),
        ChaosConfig {
            seed: 13,
            transient_rate: 0.10,
            ..ChaosConfig::default()
        },
    );
    let flight = Arc::new(FlightRecorder::new());
    let broker = Broker::with_config(
        &chaos,
        BrokerConfig {
            retry: RetryPolicy {
                max_attempts: 24,
                base_backoff: Duration::ZERO,
                multiplier: 1,
                ..RetryPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .with_trace(Arc::clone(&flight));
    Decryptor::new(AttackConfig::fast())
        .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(701))
        .unwrap();
    chaos.sync_stats(broker.stats());
    capture(&flight)
}

/// Real captures use only the nine catalogued labels: checkpointed runs
/// at 1 and 4 threads and a transient-chaos run.
#[test]
fn captures_use_only_the_nine_catalogued_labels() {
    let model = mlp16_victim();
    let mut seen = BTreeSet::new();
    let mut captures = Vec::new();
    for threads in [1usize, 4] {
        let flight = Arc::new(FlightRecorder::new());
        run(&model, threads, Some(&flight));
        captures.push(capture(&flight));
    }
    captures.push(chaos_capture(&model));
    for trace in &captures {
        for event in trace.events() {
            let label = event.label();
            assert!(CATALOGUE.contains(&label), "uncatalogued label '{label}'");
            seen.insert(label.to_string());
        }
    }
    for label in [
        "broker.batch",
        "attack.layer",
        "broker.retry",
        "chaos.injected",
        "checkpoint.write",
    ] {
        assert!(
            seen.contains(label),
            "no '{label}' in any capture: {seen:?}"
        );
    }
}

/// The JSONL a real attack writes round-trips losslessly: every line
/// parses back to the event that produced it, and re-encoding is
/// byte-identical — the property `--trace` files rely on.
#[test]
fn captured_attack_trace_round_trips_through_jsonl() {
    let model = mlp16_victim();
    let flight = Arc::new(FlightRecorder::new());
    run(&model, 1, Some(&flight));
    let events = flight.events();
    assert!(!events.is_empty());
    let jsonl = flight.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, event) in lines.iter().zip(&events) {
        let parsed = Event::from_jsonl(line).expect("captured line must parse");
        assert_eq!(&parsed, event);
        assert_eq!(parsed.to_jsonl(), *line, "re-encode must be byte-equal");
    }
}
