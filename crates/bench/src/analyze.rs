//! Offline mining of a flight-recorder capture (`report --analyze`).
//!
//! A `--trace` run leaves a JSONL event stream behind; this module parses
//! it back through [`relock_trace::Trace`] and distils the run into the
//! questions an operator actually asks:
//!
//! - **Where did the run stall?** `broker.batch` spans bracket every
//!   oracle round trip; their durations, attributed to the procedure
//!   scope active inside them, give stall time per phase.
//! - **What was wasted?** Cache hits are requests the attack repeated
//!   (served free from the memo), retries are transport do-overs, and
//!   injected faults are the chaos schedule's contribution.
//! - **How full were the batches?** Span args re-bucket through the
//!   *same* [`bucket_of`] edges the broker's histogram uses, so the two
//!   books must agree bucket for bucket.
//! - **Did the cache decay?** The counter stream splits into
//!   event-ordered windows; each window's hit rate shows whether the memo
//!   kept earning its memory as the attack moved into fresh input space.
//! - **How much correction ran?** `attack.wave` spans count the §3.8
//!   correction waves the run validated.
//!
//! The books agree **by construction**: every trace counter is emitted by
//! the same code path that updates [`QueryStatsSnapshot`], so
//! [`Analysis::reconcile`] demands *exact* equality against a
//! `--stats-json` sidecar — any drift is a bug in the instrumentation,
//! never tolerance noise, and CI fails on it. The capture's own recorder
//! invariants ([`Trace::check`]: span pairing, timestamps in arrival
//! order) are problems too.

use relock_serve::{bucket_label, bucket_of, QueryStatsSnapshot, HISTOGRAM_BUCKETS};
use relock_trace::json::Value;
use relock_trace::{Event, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the `ANALYZE.json` document layout.
///
/// v2: removed the wave-controller tallies (`wave_commits`,
/// `wave_discards`, `commit_efficiency`, `adapt_decisions`,
/// `shard_retunes`); correction runs one fixed wave schedule.
pub const ANALYZE_SCHEMA_VERSION: u64 = 2;

/// Scope label the broker books unscoped traffic under; mirrored here so
/// the per-phase ledgers line up with `QueryStatsSnapshot::per_scope`.
const UNTAGGED: &str = "(untagged)";

/// One procedure scope's ledger mined from the trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseAccount {
    /// Scope label (a `Procedure` label, or `(untagged)`).
    pub scope: String,
    /// Rows requested while this scope was active.
    pub requested: u64,
    /// Rows served from the memo cache (free).
    pub cache_hits: u64,
    /// Rows that reached the underlying oracle (the paper's `#Q`).
    pub underlying: u64,
    /// Broker batches dispatched under this scope.
    pub batches: u64,
    /// Transport retries burned under this scope.
    pub retries: u64,
    /// Total `broker.batch` span time attributed to this scope — the
    /// phase's oracle-stall time.
    pub stall_nanos: u64,
}

/// One event-ordered window of the cache-decay series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitWindow {
    /// Rows requested inside the window.
    pub requested: u64,
    /// Rows the cache answered inside the window.
    pub cache_hits: u64,
}

impl HitWindow {
    /// The window's cache-hit rate (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requested as f64
        }
    }
}

/// Everything `report --analyze` mines out of one capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Events in the capture.
    pub events: u64,
    /// Total rows requested (`broker.requested` across scopes).
    pub requested: u64,
    /// Total rows served from the memo cache.
    pub cache_hits: u64,
    /// Total rows that reached the underlying oracle.
    pub underlying: u64,
    /// Broker batches (one `broker.requested` counter each).
    pub batches: u64,
    /// Transport retries.
    pub retries: u64,
    /// Chaos-injected faults.
    pub injected_faults: u64,
    /// Total oracle-stall time: the sum of `broker.batch` span durations.
    pub stall_nanos: u64,
    /// Batch-fill histogram rebuilt from span args with [`bucket_of`].
    pub histogram: [u64; HISTOGRAM_BUCKETS],
    /// Per-scope ledgers, sorted by scope label.
    pub phases: Vec<PhaseAccount>,
    /// Cache-hit decay over event-ordered windows.
    pub windows: Vec<HitWindow>,
    /// `attack.layer` spans.
    pub layers: u64,
    /// `attack.wave` spans (correction waves driven).
    pub waves: u64,
    /// Checkpoint frames persisted (`checkpoint.write` counters).
    pub checkpoint_writes: u64,
    /// Internal inconsistencies found in the trace alone (every
    /// [`Trace::check`] violation, ledger imbalance, histogram drift
    /// against batch count). Empty on a healthy capture.
    pub problems: Vec<String>,
}

impl Analysis {
    /// Rows the attack asked for more than once (served by the memo).
    pub fn duplicated_rows(&self) -> u64 {
        self.cache_hits
    }

    /// Overall cache-hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requested as f64
        }
    }
}

/// Number of cache-decay windows the counter stream splits into.
const DECAY_WINDOWS: usize = 8;

/// Mines a parsed capture. Fails on structural trace problems (unpaired
/// or mislabelled spans) — those mean the capture is truncated or the
/// schema drifted, and no metric derived from it can be trusted.
pub fn analyze(trace: &Trace) -> Result<Analysis, String> {
    let spans = trace.spans().map_err(|e| e.to_string())?;
    let events = trace.events();

    // Counter ledgers, keyed by scope. Absent counters are zero: the
    // broker only emits cache_hits/underlying lines when non-zero.
    let mut phases: BTreeMap<String, PhaseAccount> = BTreeMap::new();
    let mut injected_faults = 0u64;
    let mut checkpoint_writes = 0u64;
    // (event index, scope) of every `broker.requested` counter — the
    // anchor that attributes a `broker.batch` span to its phase.
    let mut request_marks: Vec<(usize, String)> = Vec::new();
    let mut windows = vec![HitWindow::default(); DECAY_WINDOWS.min(events.len().max(1))];

    // A capture is untrusted input: its values add up saturating, so a
    // forged or corrupt counter near `u64::MAX` cannot overflow a total.
    let add = |total: &mut u64, v: u64| *total = total.saturating_add(v);
    for (idx, ev) in events.iter().enumerate() {
        let &Event::Counter {
            ref label,
            ref scope,
            value,
            ..
        } = ev
        else {
            continue;
        };
        let scope_key = || scope.as_deref().unwrap_or(UNTAGGED).to_string();
        let window = idx * windows.len() / events.len();
        match label.as_ref() {
            "broker.requested" => {
                let p = phases.entry(scope_key()).or_default();
                add(&mut p.requested, value);
                p.batches += 1;
                request_marks.push((idx, scope.as_deref().unwrap_or(UNTAGGED).to_string()));
                add(&mut windows[window].requested, value);
            }
            "broker.cache_hits" => {
                add(
                    &mut phases.entry(scope_key()).or_default().cache_hits,
                    value,
                );
                add(&mut windows[window].cache_hits, value);
            }
            "broker.underlying" => {
                add(
                    &mut phases.entry(scope_key()).or_default().underlying,
                    value,
                );
            }
            "broker.retry" => {
                add(&mut phases.entry(scope_key()).or_default().retries, value);
            }
            "chaos.injected" => add(&mut injected_faults, value),
            "checkpoint.write" => checkpoint_writes += 1,
            _ => {}
        }
    }

    // Span-derived metrics: stall per phase, batch fill, layer/wave
    // counts. Batches bucket by `requested.max(1)` exactly as
    // `QueryStats::record_batch` does.
    let mut histogram = [0u64; HISTOGRAM_BUCKETS];
    let mut stall_nanos = 0u64;
    let mut layers = 0u64;
    let mut waves = 0u64;
    for span in &spans {
        match span.label.as_str() {
            "broker.batch" => {
                histogram[bucket_of(span.arg.max(1))] += 1;
                let d = span.duration_nanos();
                add(&mut stall_nanos, d);
                let scope = request_marks
                    .iter()
                    .find(|&&(idx, _)| span.begin_index < idx && idx < span.end_index)
                    .map(|(_, s)| s.as_str())
                    .unwrap_or(UNTAGGED);
                add(
                    &mut phases.entry(scope.to_string()).or_default().stall_nanos,
                    d,
                );
            }
            "attack.layer" => layers += 1,
            "attack.wave" => waves += 1,
            _ => {}
        }
    }

    let mut phases: Vec<PhaseAccount> = phases
        .into_iter()
        .map(|(scope, mut p)| {
            p.scope = scope;
            p
        })
        .collect();
    phases.sort_by(|a, b| a.scope.cmp(&b.scope));

    let total =
        |field: fn(&PhaseAccount) -> u64| phases.iter().map(field).fold(0, u64::saturating_add);
    let requested = total(|p| p.requested);
    let cache_hits = total(|p| p.cache_hits);
    let underlying = total(|p| p.underlying);
    let batches = total(|p| p.batches);
    let retries = total(|p| p.retries);

    // Trace-internal consistency: the recorder's invariants hold, the
    // ledger balances per scope and in total, and every batch appears in
    // exactly one histogram bucket. These hold by construction; a
    // violation is instrumentation drift, not noise.
    let mut problems = trace.check();
    if Some(requested) != cache_hits.checked_add(underlying) {
        problems.push(format!(
            "ledger imbalance: requested {requested} != cache_hits {cache_hits} + underlying {underlying}"
        ));
    }
    for p in &phases {
        if Some(p.requested) != p.cache_hits.checked_add(p.underlying) {
            problems.push(format!(
                "scope {:?} imbalance: requested {} != cache_hits {} + underlying {}",
                p.scope, p.requested, p.cache_hits, p.underlying
            ));
        }
    }
    let bucketed: u64 = histogram.iter().sum();
    if bucketed != batches {
        problems.push(format!(
            "histogram drift: {bucketed} bucketed batch spans vs {batches} broker.requested counters"
        ));
    }

    Ok(Analysis {
        events: events.len() as u64,
        requested,
        cache_hits,
        underlying,
        batches,
        retries,
        injected_faults,
        stall_nanos,
        histogram,
        phases,
        windows,
        layers,
        waves,
        checkpoint_writes,
        problems,
    })
}

impl Analysis {
    /// Reconciles the trace books against a `QueryStatsSnapshot` sidecar
    /// (the run's `--stats-json` output). Every comparison is **exact**:
    /// both books are written by the same code paths, so any drift fails.
    /// Returns the list of discrepancies (empty = books agree).
    pub fn reconcile(&self, snap: &QueryStatsSnapshot) -> Vec<String> {
        let mut drift = Vec::new();
        let mut check = |what: &str, trace: u64, stats: u64| {
            if trace != stats {
                drift.push(format!("{what}: trace {trace} != stats {stats}"));
            }
        };
        check("requested", self.requested, snap.requested);
        check("cache_hits", self.cache_hits, snap.cache_hits);
        check("underlying", self.underlying, snap.underlying);
        check("batches", self.batches, snap.batches);
        check("retries", self.retries, snap.retries);
        check(
            "injected_faults",
            self.injected_faults,
            snap.injected_faults,
        );
        for (b, (&t, &s)) in self.histogram.iter().zip(&snap.histogram).enumerate() {
            if t != s {
                drift.push(format!(
                    "histogram[{}]: trace {t} != stats {s}",
                    bucket_label(b)
                ));
            }
        }
        let trace_scopes: BTreeMap<&str, &PhaseAccount> =
            self.phases.iter().map(|p| (p.scope.as_str(), p)).collect();
        for (scope, sc) in &snap.per_scope {
            match trace_scopes.get(scope.as_str()) {
                None => drift.push(format!("scope {scope:?} missing from trace")),
                Some(p) => {
                    if (p.requested, p.cache_hits, p.underlying)
                        != (sc.requested, sc.cache_hits, sc.underlying)
                    {
                        drift.push(format!(
                            "scope {scope:?}: trace ({}, {}, {}) != stats ({}, {}, {})",
                            p.requested,
                            p.cache_hits,
                            p.underlying,
                            sc.requested,
                            sc.cache_hits,
                            sc.underlying
                        ));
                    }
                }
            }
        }
        for p in &self.phases {
            if !snap.per_scope.iter().any(|(scope, _)| *scope == p.scope) {
                drift.push(format!("scope {:?} missing from stats", p.scope));
            }
        }
        drift
    }

    /// The machine-readable `ANALYZE.json` document.
    pub fn to_json_value(&self) -> Value {
        let phase_value = |p: &PhaseAccount| {
            Value::Obj(vec![
                ("scope".into(), Value::str(p.scope.clone())),
                ("requested".into(), Value::num_u64(p.requested)),
                ("cache_hits".into(), Value::num_u64(p.cache_hits)),
                ("underlying".into(), Value::num_u64(p.underlying)),
                ("batches".into(), Value::num_u64(p.batches)),
                ("retries".into(), Value::num_u64(p.retries)),
                ("stall_nanos".into(), Value::num_u64(p.stall_nanos)),
            ])
        };
        let window_value = |w: &HitWindow| {
            Value::Obj(vec![
                ("requested".into(), Value::num_u64(w.requested)),
                ("cache_hits".into(), Value::num_u64(w.cache_hits)),
                ("hit_rate".into(), Value::num_f64(w.hit_rate(), 4)),
            ])
        };
        Value::Obj(vec![
            (
                "schema_version".into(),
                Value::num_u64(ANALYZE_SCHEMA_VERSION),
            ),
            ("events".into(), Value::num_u64(self.events)),
            ("requested".into(), Value::num_u64(self.requested)),
            ("cache_hits".into(), Value::num_u64(self.cache_hits)),
            ("underlying".into(), Value::num_u64(self.underlying)),
            ("batches".into(), Value::num_u64(self.batches)),
            ("retries".into(), Value::num_u64(self.retries)),
            (
                "injected_faults".into(),
                Value::num_u64(self.injected_faults),
            ),
            ("hit_rate".into(), Value::num_f64(self.hit_rate(), 4)),
            ("stall_nanos".into(), Value::num_u64(self.stall_nanos)),
            (
                "histogram".into(),
                Value::Arr(self.histogram.iter().map(|&c| Value::num_u64(c)).collect()),
            ),
            (
                "phases".into(),
                Value::Arr(self.phases.iter().map(phase_value).collect()),
            ),
            (
                "cache_decay".into(),
                Value::Arr(self.windows.iter().map(window_value).collect()),
            ),
            ("layers".into(), Value::num_u64(self.layers)),
            ("waves".into(), Value::num_u64(self.waves)),
            (
                "checkpoint_writes".into(),
                Value::num_u64(self.checkpoint_writes),
            ),
            (
                "problems".into(),
                Value::Arr(
                    self.problems
                        .iter()
                        .map(|p| Value::str(p.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace analysis ({} events)", self.events);
        let _ = writeln!(
            out,
            "  requested {}   cache hits {} ({:.1}%)   underlying {}   batches {}",
            self.requested,
            self.cache_hits,
            100.0 * self.hit_rate(),
            self.underlying,
            self.batches
        );
        let _ = writeln!(
            out,
            "  waste: {} duplicated rows, {} retries, {} injected faults",
            self.duplicated_rows(),
            self.retries,
            self.injected_faults
        );
        let _ = writeln!(
            out,
            "  oracle stall {:.3}s over {} batches   layers {}   checkpoint writes {}",
            self.stall_nanos as f64 / 1e9,
            self.batches,
            self.layers,
            self.checkpoint_writes
        );
        let _ = writeln!(out, "\n  per-phase ledger and stall:");
        let _ = writeln!(
            out,
            "  {:<24}{:>10} {:>10} {:>10} {:>8} {:>8} {:>10}",
            "scope", "requested", "hits", "underlying", "batches", "retries", "stall(s)"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<24}{:>10} {:>10} {:>10} {:>8} {:>8} {:>10.3}",
                p.scope,
                p.requested,
                p.cache_hits,
                p.underlying,
                p.batches,
                p.retries,
                p.stall_nanos as f64 / 1e9
            );
        }
        let _ = writeln!(out, "\n  batch-fill histogram (rows per batch):");
        for (b, &count) in self.histogram.iter().enumerate() {
            if count > 0 {
                let _ = writeln!(out, "  {:>8}: {count}", bucket_label(b));
            }
        }
        let _ = writeln!(out, "\n  cache-hit decay (event-ordered windows):");
        for (i, w) in self.windows.iter().enumerate() {
            let _ = writeln!(
                out,
                "  window {i}: {:>6} requested, {:>6} hits ({:>5.1}%)",
                w.requested,
                w.cache_hits,
                100.0 * w.hit_rate()
            );
        }
        let _ = writeln!(out, "\n  correction: {} waves", self.waves);
        if !self.problems.is_empty() {
            let _ = writeln!(out, "\n  PROBLEMS:");
            for p in &self.problems {
                let _ = writeln!(out, "  - {p}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_attack::{AttackConfig, Decryptor};
    use relock_locking::{CountingOracle, LockSpec, LockedModel};
    use relock_nn::{build_mlp, MlpSpec};
    use relock_serve::{Broker, BrokerConfig};
    use relock_tensor::rng::Prng;
    use relock_trace::FlightRecorder;
    use std::sync::Arc;

    fn victim() -> LockedModel {
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

    /// Runs a seeded attack whose broker carries its own recorder and
    /// returns the capture alongside the broker's own books.
    fn capture_with(model: &LockedModel, seed: u64, threads: usize) -> (Trace, QueryStatsSnapshot) {
        let flight = Arc::new(FlightRecorder::new());
        let oracle = CountingOracle::new(model);
        let broker =
            Broker::with_config(&oracle, BrokerConfig::default()).with_trace(flight.clone());
        let cfg = AttackConfig {
            threads,
            ..AttackConfig::fast()
        };
        Decryptor::new(cfg)
            .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(seed))
            .expect("attack succeeds");
        let trace = Trace::parse(&flight.to_jsonl()).expect("capture parses");
        (trace, broker.snapshot())
    }

    fn captured_run() -> (Trace, QueryStatsSnapshot) {
        capture_with(&victim(), 701, 1)
    }

    #[test]
    fn a_real_capture_reconciles_exactly_against_the_broker_books() {
        let (trace, snap) = captured_run();
        let analysis = analyze(&trace).expect("structurally sound capture");
        assert!(
            analysis.problems.is_empty(),
            "internal problems: {:?}",
            analysis.problems
        );
        let drift = analysis.reconcile(&snap);
        assert!(drift.is_empty(), "books drifted: {drift:?}");
        assert!(analysis.requested > 0);
        assert_eq!(analysis.requested, snap.requested);
        assert_eq!(analysis.batches, snap.batches);
        assert!(analysis.layers > 0, "attack.layer spans present");
        assert!(analysis.stall_nanos > 0, "batch spans carry duration");
        // The decay series repartitions the same totals.
        let w_req: u64 = analysis.windows.iter().map(|w| w.requested).sum();
        let w_hits: u64 = analysis.windows.iter().map(|w| w.cache_hits).sum();
        assert_eq!(w_req, analysis.requested);
        assert_eq!(w_hits, analysis.cache_hits);
    }

    #[test]
    fn reconcile_flags_every_accounting_drift() {
        let (trace, snap) = captured_run();
        let analysis = analyze(&trace).unwrap();
        let mut bad = snap.clone();
        bad.requested += 1;
        bad.histogram[0] += 3;
        let drift = analysis.reconcile(&bad);
        assert!(
            drift.iter().any(|d| d.starts_with("requested:")),
            "{drift:?}"
        );
        assert!(
            drift.iter().any(|d| d.starts_with("histogram[")),
            "{drift:?}"
        );
    }

    #[test]
    fn json_document_carries_the_headline_numbers() {
        let (trace, _) = captured_run();
        let analysis = analyze(&trace).unwrap();
        let doc = analysis.to_json_value();
        assert_eq!(
            doc.get("schema_version").and_then(Value::as_u64),
            Some(ANALYZE_SCHEMA_VERSION)
        );
        assert_eq!(
            doc.get("requested").and_then(Value::as_u64),
            Some(analysis.requested)
        );
        assert_eq!(
            doc.get("phases").and_then(Value::as_arr).map(|a| a.len()),
            Some(analysis.phases.len())
        );
        // And it survives a text round trip.
        let back = Value::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            back.get("underlying").and_then(Value::as_u64),
            Some(analysis.underlying)
        );
        let table = analysis.render();
        assert!(table.contains("per-phase ledger"));
        assert!(table.contains("cache-hit decay"));
    }

    #[test]
    fn truncated_captures_are_rejected_outright() {
        let (trace, _) = captured_run();
        // Drop the last span-closing line: its begin is left dangling,
        // exactly what a crashed writer leaves behind.
        let cut = trace
            .events()
            .iter()
            .rposition(|e| matches!(e, Event::SpanEnd { .. }))
            .expect("capture has spans");
        let text: String = trace
            .events()
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != cut)
            .map(|(_, e)| e.to_jsonl() + "\n")
            .collect();
        let truncated = Trace::parse(&text).unwrap();
        // The span can no longer close, so spans() errors and analyze
        // refuses the capture.
        assert!(analyze(&truncated).is_err());
    }

    /// Two traced attacks at once, each with its own broker and recorder:
    /// neither capture sees the other's events, so each reconciles exactly
    /// against its own broker's books.
    #[test]
    fn concurrent_runs_keep_separate_complete_captures() {
        let model = victim();
        let runs = std::thread::scope(|scope| {
            let a = scope.spawn(|| capture_with(&model, 701, 1));
            let b = scope.spawn(|| capture_with(&model, 702, 2));
            [a.join().unwrap(), b.join().unwrap()]
        });
        for (i, (trace, snap)) in runs.iter().enumerate() {
            let analysis = analyze(trace).expect("structurally sound capture");
            assert!(
                analysis.problems.is_empty(),
                "run {i}: {:?}",
                analysis.problems
            );
            let drift = analysis.reconcile(snap);
            assert!(drift.is_empty(), "run {i}: books drifted: {drift:?}");
            assert!(analysis.layers > 0, "run {i}: attack.layer spans present");
        }
    }

    fn event_t(e: &Event) -> u64 {
        match e {
            Event::SpanBegin { t, .. } | Event::SpanEnd { t, .. } | Event::Counter { t, .. } => *t,
        }
    }

    fn with_t(e: &Event, t: u64) -> Event {
        match e.clone() {
            Event::SpanBegin { id, label, arg, .. } => Event::SpanBegin { id, label, arg, t },
            Event::SpanEnd { id, label, .. } => Event::SpanEnd { id, label, t },
            Event::Counter {
                label,
                scope,
                value,
                ..
            } => Event::Counter {
                label,
                scope,
                value,
                t,
            },
        }
    }

    /// A capture whose timestamps run backwards somewhere breaks a
    /// recorder invariant; analyze reports it, so `report --analyze`
    /// exits non-zero.
    #[test]
    fn swapped_timestamps_are_a_problem() {
        let (trace, snap) = captured_run();
        let mut events = trace.events().to_vec();
        let i = (1..events.len())
            .find(|&i| event_t(&events[i - 1]) < event_t(&events[i]))
            .expect("the clock advanced somewhere");
        let (a, b) = (event_t(&events[i - 1]), event_t(&events[i]));
        events[i - 1] = with_t(&events[i - 1], b);
        events[i] = with_t(&events[i], a);
        let text: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        let swapped = Trace::parse(&text).unwrap();
        let analysis = analyze(&swapped).expect("spans still pair");
        assert!(
            analysis.problems.iter().any(|p| p.contains("monotone")),
            "{:?}",
            analysis.problems
        );
        // The counters are untouched, so the books still agree: only the
        // check can catch it.
        assert!(analysis.reconcile(&snap).is_empty());
    }

    /// Counter values are untrusted: two that overflow a `u64` total
    /// saturate and show up as an imbalance instead of a panic.
    #[test]
    fn overflowing_counter_values_are_a_problem_not_a_panic() {
        let line = format!(
            "{{\"ev\":\"count\",\"label\":\"broker.requested\",\"value\":{},\"t\":1}}\n",
            u64::MAX
        );
        let trace = Trace::parse(&line.repeat(2)).unwrap();
        let analysis = analyze(&trace).expect("no spans to pair");
        assert_eq!(analysis.requested, u64::MAX);
        assert!(
            analysis.problems.iter().any(|p| p.contains("imbalance")),
            "{:?}",
            analysis.problems
        );
    }

    /// Seeded mutations of a real capture — bit flips, JSON-significant
    /// bytes, deleted and duplicated runs — go through parse, analyze and
    /// reconcile without a panic: a capture is untrusted input.
    #[test]
    fn mutated_captures_never_panic_the_reader() {
        let (trace, snap) = captured_run();
        let original: Vec<u8> = trace
            .events()
            .iter()
            .flat_map(|e| (e.to_jsonl() + "\n").into_bytes())
            .collect();
        const SIGNIFICANT: &[u8] = b"{}[]:,\"\\-+.0123456789eE \n";
        let mut rng = Prng::seed_from_u64(0x7ace);
        let (mut parsed, mut analyzed) = (0u32, 0u32);
        for _ in 0..10_000 {
            let mut bytes = original.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len());
                match rng.below(4) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes[at] = SIGNIFICANT[rng.below(SIGNIFICANT.len())],
                    2 => {
                        let end = (at + 1 + rng.below(32)).min(bytes.len());
                        bytes.drain(at..end);
                    }
                    _ => {
                        let end = (at + 1 + rng.below(64)).min(bytes.len());
                        let run = bytes[at..end].to_vec();
                        bytes.splice(at..at, run);
                    }
                }
                if bytes.is_empty() {
                    break;
                }
            }
            let Ok(mutant) = Trace::parse(&String::from_utf8_lossy(&bytes)) else {
                continue;
            };
            parsed += 1;
            if let Ok(analysis) = analyze(&mutant) {
                analyzed += 1;
                let _ = analysis.reconcile(&snap);
                let _ = analysis.render();
            }
        }
        assert!(
            parsed > 0 && analyzed > 0,
            "parsed {parsed}, analyzed {analyzed}"
        );
    }
}
