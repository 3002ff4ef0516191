//! Serving metrics: query accounting, cache effectiveness, batch shapes,
//! and oracle latency — the observability layer printed next to Table 1's
//! query-complexity column.

use relock_trace::json::Value;
use relock_trace::FlightRecorder;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Batch-size histogram buckets: `1, 2–3, 4–7, …, ≥128` (powers of two).
pub const HISTOGRAM_BUCKETS: usize = 8;

/// Returns the histogram bucket of a batch of `rows` rows. Public so the
/// offline trace analyzer can bucket `broker.batch` span args with the
/// exact same edges the live histogram uses.
pub fn bucket_of(rows: u64) -> usize {
    let mut b = 0usize;
    let mut edge = 1u64; // upper edge of bucket b: 1, 3, 7, 15, …
    while b + 1 < HISTOGRAM_BUCKETS && rows > edge {
        edge = edge * 2 + 1;
        b += 1;
    }
    b
}

/// Human-readable label of a histogram bucket (bucket `b` covers
/// `2^b ..= 2^(b+1)-1` rows; the last bucket is open-ended).
pub fn bucket_label(b: usize) -> String {
    if b == 0 {
        "1".to_string()
    } else if b + 1 == HISTOGRAM_BUCKETS {
        format!(">={}", 1u64 << b)
    } else {
        format!("{}-{}", 1u64 << b, (1u64 << (b + 1)) - 1)
    }
}

/// Per-scope (attack-procedure) accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeCounts {
    /// Rows requested through the broker while the scope was active.
    pub requested: u64,
    /// Rows served from the memo cache (free).
    pub cache_hits: u64,
    /// Rows actually issued to the underlying oracle.
    pub underlying: u64,
}

/// Live, thread-safe metrics of one broker.
#[derive(Debug, Default)]
pub struct QueryStats {
    requested: AtomicU64,
    cache_hits: AtomicU64,
    underlying: AtomicU64,
    batches: AtomicU64,
    retries: AtomicU64,
    injected_faults: AtomicU64,
    oracle_nanos: AtomicU64,
    histogram: [AtomicU64; HISTOGRAM_BUCKETS],
    scope: Mutex<ScopeState>,
    /// The run's recorder, when the broker was given one
    /// (`Broker::with_trace`).
    pub(crate) trace: Option<Arc<FlightRecorder>>,
}

#[derive(Debug, Default)]
struct ScopeState {
    current: Option<&'static str>,
    per_scope: BTreeMap<&'static str, ScopeCounts>,
}

impl QueryStats {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        QueryStats::default()
    }

    /// Tags subsequent traffic with a procedure label (e.g.
    /// `"key_bit_inference"`); `None` clears the tag. Untagged traffic is
    /// accounted under `"(untagged)"`.
    pub fn set_scope(&self, label: Option<&'static str>) {
        self.scope.lock().expect("scope poisoned").current = label;
    }

    /// Records one batch: `requested` rows asked for, of which `hits` came
    /// from cache and `underlying` were issued to the oracle (deduplicated
    /// rows account for the difference), taking `oracle_time` of backend
    /// wall clock.
    pub fn record_batch(&self, requested: u64, hits: u64, underlying: u64, oracle_time: Duration) {
        self.requested.fetch_add(requested, Ordering::Relaxed);
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.underlying.fetch_add(underlying, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.oracle_nanos
            .fetch_add(oracle_time.as_nanos() as u64, Ordering::Relaxed);
        self.histogram[bucket_of(requested.max(1))].fetch_add(1, Ordering::Relaxed);
        let mut scope = self.scope.lock().expect("scope poisoned");
        let label = scope.current.unwrap_or("(untagged)");
        let entry = scope.per_scope.entry(label).or_default();
        entry.requested += requested;
        entry.cache_hits += hits;
        entry.underlying += underlying;
        // Trace events are emitted here, where the scope label is in hand,
        // so the flight-recorder totals and this snapshot's books agree at
        // every call site by construction (the chaos soak cross-checks it).
        if let Some(trace) = &self.trace {
            trace.scoped_counter("broker.requested", label, requested);
            if hits > 0 {
                trace.scoped_counter("broker.cache_hits", label, hits);
            }
            if underlying > 0 {
                trace.scoped_counter("broker.underlying", label, underlying);
            }
        }
    }

    /// Records `n` backend retry attempts (beyond the first try).
    pub fn record_retries(&self, n: u64) {
        self.retries.fetch_add(n, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            let scope = self.scope.lock().expect("scope poisoned");
            let label = scope.current.unwrap_or("(untagged)");
            trace.scoped_counter("broker.retry", label, n);
        }
    }

    /// Records `n` deliberately injected faults (chaos testing). Kept
    /// separate from `retries` so a soak run can tell scheduled damage
    /// apart from organic backend trouble.
    pub fn record_injected_faults(&self, n: u64) {
        self.injected_faults.fetch_add(n, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.counter("chaos.injected", n);
        }
    }

    /// Rows actually issued to the underlying oracle so far.
    pub fn underlying_queries(&self) -> u64 {
        self.underlying.load(Ordering::Relaxed)
    }

    /// A consistent point-in-time copy for reporting.
    pub fn snapshot(&self) -> QueryStatsSnapshot {
        let scope = self.scope.lock().expect("scope poisoned");
        QueryStatsSnapshot {
            requested: self.requested.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            underlying: self.underlying.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            oracle_time: Duration::from_nanos(self.oracle_nanos.load(Ordering::Relaxed)),
            histogram: std::array::from_fn(|i| self.histogram[i].load(Ordering::Relaxed)),
            per_scope: scope
                .per_scope
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            // Cache gauges belong to the cache, not the stats: the broker
            // fills them in (`Broker::snapshot`) from the cache it fronts.
            cache_evictions: 0,
            cache_rows: 0,
            cache_bytes: 0,
        }
    }
}

/// A plain-data snapshot of [`QueryStats`], cheap to clone and embed in
/// attack reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStatsSnapshot {
    /// Rows requested through the broker (cache hits included).
    pub requested: u64,
    /// Rows served from the memo cache.
    pub cache_hits: u64,
    /// Rows issued to the underlying oracle — the paper's query count.
    pub underlying: u64,
    /// Broker batches served.
    pub batches: u64,
    /// Backend retry attempts performed.
    pub retries: u64,
    /// Faults deliberately injected by a chaos harness (see
    /// `ChaosOracle`); 0 outside fault-injection runs.
    pub injected_faults: u64,
    /// Wall clock spent inside the underlying oracle.
    pub oracle_time: Duration,
    /// Batch-size histogram (`1, 2–3, 4–7, …, ≥128` requested rows).
    pub histogram: [u64; HISTOGRAM_BUCKETS],
    /// Accounting per procedure scope, sorted by label.
    pub per_scope: Vec<(String, ScopeCounts)>,
    /// Rows evicted from the memo cache since construction (0 for
    /// unbounded caches). Filled in by `Broker::snapshot` from the cache
    /// it fronts; deliberately *not* serialized into RLCP checkpoints —
    /// cache occupancy describes the live process, not the attack state.
    pub cache_evictions: u64,
    /// Rows resident in the memo cache at snapshot time (a gauge, not a
    /// counter: `merge` keeps the most recent segment's value).
    pub cache_rows: u64,
    /// Estimated bytes resident in the memo cache at snapshot time (gauge,
    /// like [`QueryStatsSnapshot::cache_rows`]).
    pub cache_bytes: u64,
}

impl QueryStatsSnapshot {
    /// Fraction of requested rows served from cache (0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requested as f64
        }
    }

    /// Whether the accounting books balance: every requested row was served
    /// either from cache or by the backend — globally *and* within every
    /// procedure scope. A lost or double-counted row under concurrency
    /// breaks this; the soak suites assert it after parallel runs.
    pub fn is_balanced(&self) -> bool {
        self.requested == self.cache_hits + self.underlying
            && self
                .per_scope
                .iter()
                .all(|(_, c)| c.requested == c.cache_hits + c.underlying)
    }

    /// Mean requested rows per broker batch (0 when idle).
    pub fn mean_batch_rows(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requested as f64 / self.batches as f64
        }
    }

    /// Accumulates `other` into `self` — counters add, histograms add
    /// bucket-wise, per-scope entries merge by label. A resumed attack uses
    /// this to splice the pre-crash broker accounting (restored from a
    /// checkpoint) onto the post-resume segment, so the final report shows
    /// the whole session.
    pub fn merge(&mut self, other: &QueryStatsSnapshot) {
        self.requested += other.requested;
        self.cache_hits += other.cache_hits;
        self.underlying += other.underlying;
        self.batches += other.batches;
        self.retries += other.retries;
        self.injected_faults += other.injected_faults;
        self.oracle_time += other.oracle_time;
        for (a, b) in self.histogram.iter_mut().zip(&other.histogram) {
            *a += *b;
        }
        for (label, counts) in &other.per_scope {
            match self.per_scope.iter_mut().find(|(l, _)| l == label) {
                Some((_, mine)) => {
                    mine.requested += counts.requested;
                    mine.cache_hits += counts.cache_hits;
                    mine.underlying += counts.underlying;
                }
                None => self.per_scope.push((label.clone(), *counts)),
            }
        }
        self.per_scope.sort_by(|(a, _), (b, _)| a.cmp(b));
        // Eviction is a counter; occupancy is a gauge. When splicing an
        // older (checkpointed) segment onto a newer one, the newer side's
        // occupancy is the live one — but a decoded checkpoint carries
        // zeros here, so keep the larger reading instead of blindly taking
        // `other`'s.
        self.cache_evictions += other.cache_evictions;
        self.cache_rows = self.cache_rows.max(other.cache_rows);
        self.cache_bytes = self.cache_bytes.max(other.cache_bytes);
    }

    /// Encodes the snapshot as a JSON object — the `--stats-json` sidecar
    /// an offline trace analysis reconciles a capture against. Oracle time
    /// is carried as integer nanoseconds so the round trip is exact.
    pub fn to_json_value(&self) -> Value {
        let per_scope = self
            .per_scope
            .iter()
            .map(|(label, c)| {
                Value::Obj(vec![
                    ("scope".to_string(), Value::str(label)),
                    ("requested".to_string(), Value::num_u64(c.requested)),
                    ("cache_hits".to_string(), Value::num_u64(c.cache_hits)),
                    ("underlying".to_string(), Value::num_u64(c.underlying)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("requested".to_string(), Value::num_u64(self.requested)),
            ("cache_hits".to_string(), Value::num_u64(self.cache_hits)),
            ("underlying".to_string(), Value::num_u64(self.underlying)),
            ("batches".to_string(), Value::num_u64(self.batches)),
            ("retries".to_string(), Value::num_u64(self.retries)),
            (
                "injected_faults".to_string(),
                Value::num_u64(self.injected_faults),
            ),
            (
                "oracle_nanos".to_string(),
                Value::num_u64(self.oracle_time.as_nanos() as u64),
            ),
            (
                "histogram".to_string(),
                Value::Arr(self.histogram.iter().map(|&n| Value::num_u64(n)).collect()),
            ),
            ("per_scope".to_string(), Value::Arr(per_scope)),
            (
                "cache_evictions".to_string(),
                Value::num_u64(self.cache_evictions),
            ),
            ("cache_rows".to_string(), Value::num_u64(self.cache_rows)),
            ("cache_bytes".to_string(), Value::num_u64(self.cache_bytes)),
        ])
    }

    /// Decodes [`QueryStatsSnapshot::to_json_value`] output.
    pub fn from_json_value(doc: &Value) -> Result<QueryStatsSnapshot, String> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let hist = doc
            .get("histogram")
            .and_then(Value::as_arr)
            .ok_or("missing 'histogram' array")?;
        if hist.len() != HISTOGRAM_BUCKETS {
            return Err(format!(
                "histogram has {} buckets, expected {HISTOGRAM_BUCKETS}",
                hist.len()
            ));
        }
        let mut histogram = [0u64; HISTOGRAM_BUCKETS];
        for (slot, v) in histogram.iter_mut().zip(hist) {
            *slot = v.as_u64().ok_or("non-integer histogram bucket")?;
        }
        let mut per_scope = Vec::new();
        for entry in doc
            .get("per_scope")
            .and_then(Value::as_arr)
            .ok_or("missing 'per_scope' array")?
        {
            let scope = entry
                .get("scope")
                .and_then(Value::as_str)
                .ok_or("missing or non-string scope label")?
                .to_string();
            let sub = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("scope '{scope}': missing field '{key}'"))
            };
            per_scope.push((
                scope.clone(),
                ScopeCounts {
                    requested: sub("requested")?,
                    cache_hits: sub("cache_hits")?,
                    underlying: sub("underlying")?,
                },
            ));
        }
        Ok(QueryStatsSnapshot {
            requested: field("requested")?,
            cache_hits: field("cache_hits")?,
            underlying: field("underlying")?,
            batches: field("batches")?,
            retries: field("retries")?,
            injected_faults: field("injected_faults")?,
            oracle_time: Duration::from_nanos(field("oracle_nanos")?),
            histogram,
            per_scope,
            cache_evictions: field("cache_evictions")?,
            cache_rows: field("cache_rows")?,
            cache_bytes: field("cache_bytes")?,
        })
    }
}

impl fmt::Display for QueryStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries: {} underlying / {} requested ({:.1}% cache hits, {} batches, mean {:.1} rows/batch)",
            self.underlying,
            self.requested,
            100.0 * self.cache_hit_rate(),
            self.batches,
            self.mean_batch_rows(),
        )?;
        write!(
            f,
            "oracle time: {:.3}s  retries: {}",
            self.oracle_time.as_secs_f64(),
            self.retries
        )?;
        if self.injected_faults > 0 {
            write!(f, "  injected faults: {}", self.injected_faults)?;
        }
        if self.cache_evictions > 0 {
            write!(
                f,
                "  cache: {} rows / {} B resident, {} evicted",
                self.cache_rows, self.cache_bytes, self.cache_evictions
            )?;
        }
        writeln!(f)?;
        write!(f, "batch-size histogram:")?;
        for (b, &n) in self.histogram.iter().enumerate() {
            if n > 0 {
                write!(f, "  {}:{}", bucket_label(b), n)?;
            }
        }
        writeln!(f)?;
        for (label, c) in &self.per_scope {
            writeln!(
                f,
                "  {:<24} {:>8} underlying  {:>8} hits  {:>8} requested",
                label, c.underlying, c.cache_hits, c.requested
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_all_sizes() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(64), 6);
        assert_eq!(bucket_of(128), 7);
        assert_eq!(bucket_of(1_000_000), 7);
    }

    #[test]
    fn bucket_labels_match_their_edges() {
        assert_eq!(bucket_label(0), "1");
        assert_eq!(bucket_label(1), "2-3");
        assert_eq!(bucket_label(2), "4-7");
        assert_eq!(bucket_label(6), "64-127");
        assert_eq!(bucket_label(HISTOGRAM_BUCKETS - 1), ">=128");
    }

    #[test]
    fn scoped_accounting_splits_by_label() {
        let s = QueryStats::new();
        s.set_scope(Some("learning_attack"));
        s.record_batch(100, 0, 100, Duration::from_millis(5));
        s.set_scope(Some("key_vector_validation"));
        s.record_batch(4, 3, 1, Duration::from_millis(1));
        s.record_batch(2, 2, 0, Duration::ZERO);
        s.set_scope(None);
        let snap = s.snapshot();
        assert_eq!(snap.requested, 106);
        assert_eq!(snap.cache_hits, 5);
        assert_eq!(snap.underlying, 101);
        assert_eq!(snap.batches, 3);
        let validation = snap
            .per_scope
            .iter()
            .find(|(l, _)| l == "key_vector_validation")
            .map(|(_, c)| *c)
            .unwrap();
        assert_eq!(
            validation,
            ScopeCounts {
                requested: 6,
                cache_hits: 5,
                underlying: 1
            }
        );
        assert!((snap.cache_hit_rate() - 5.0 / 106.0).abs() < 1e-12);
        let rendered = snap.to_string();
        assert!(rendered.contains("learning_attack"));
        assert!(rendered.contains("cache hits"));
    }

    #[test]
    fn merge_accumulates_counters_scopes_and_histogram() {
        let a_stats = QueryStats::new();
        a_stats.set_scope(Some("learning_attack"));
        a_stats.record_batch(100, 10, 90, Duration::from_millis(4));
        a_stats.record_retries(2);
        a_stats.record_injected_faults(3);
        let mut a = a_stats.snapshot();

        let b_stats = QueryStats::new();
        b_stats.set_scope(Some("learning_attack"));
        b_stats.record_batch(50, 0, 50, Duration::from_millis(1));
        b_stats.set_scope(Some("error_correction"));
        b_stats.record_batch(1, 1, 0, Duration::ZERO);
        let b = b_stats.snapshot();

        a.merge(&b);
        assert_eq!(a.requested, 151);
        assert_eq!(a.cache_hits, 11);
        assert_eq!(a.underlying, 140);
        assert_eq!(a.batches, 3);
        assert_eq!(a.retries, 2);
        assert_eq!(a.injected_faults, 3);
        assert_eq!(a.oracle_time, Duration::from_millis(5));
        assert_eq!(a.histogram.iter().sum::<u64>(), 3);
        let learn = a
            .per_scope
            .iter()
            .find(|(l, _)| l == "learning_attack")
            .map(|(_, c)| *c)
            .unwrap();
        assert_eq!(learn.requested, 150);
        assert_eq!(learn.underlying, 140);
        assert!(a.per_scope.iter().any(|(l, _)| l == "error_correction"));
        // Labels stay sorted after the merge, matching snapshot() order.
        let labels: Vec<&str> = a.per_scope.iter().map(|(l, _)| l.as_str()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let stats = QueryStats::new();
        stats.set_scope(Some("learning_attack"));
        stats.record_batch(100, 10, 90, Duration::from_nanos(12_345_678));
        stats.set_scope(Some("key_vector_validation"));
        stats.record_batch(4, 3, 1, Duration::from_millis(1));
        stats.record_retries(2);
        stats.record_injected_faults(1);
        let mut snap = stats.snapshot();
        snap.cache_evictions = 7;
        snap.cache_rows = 11;
        snap.cache_bytes = 4096;
        let doc = snap.to_json_value();
        let back = QueryStatsSnapshot::from_json_value(&doc).unwrap();
        assert_eq!(back, snap);
        // Text round trip too — the sidecar crosses a file.
        let reparsed = Value::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            QueryStatsSnapshot::from_json_value(&reparsed).unwrap(),
            snap
        );
    }

    #[test]
    fn json_decode_rejects_malformed_documents() {
        assert!(QueryStatsSnapshot::from_json_value(&Value::Obj(vec![])).is_err());
        let mut doc = QueryStatsSnapshot::default().to_json_value();
        if let Value::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "histogram");
        }
        assert!(QueryStatsSnapshot::from_json_value(&doc).is_err());
    }
}
