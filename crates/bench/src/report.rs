//! The unified bench report: one schema-versioned `BENCH.json` covering
//! the engine, parallel, soak, smoke, and campaign measurements, plus
//! the `benchdiff` comparison that CI gates on.
//!
//! Document shape (schema version [`BENCH_SCHEMA_VERSION`]):
//!
//! * machine info — `os`, `threads`, `git_rev`;
//! * one entry per benchmark — median and spread (max − min) over N
//!   repeats, and, where the workload queries an oracle, the exact
//!   underlying query count and cache-hit rate.
//!
//! Query counts are deterministic (fixed seeds, bit-identical engine at
//! any thread count), so [`diff`] compares them *exactly* and any change
//! is a failure. Wall-clock medians are noisy on shared runners, so time
//! regressions beyond a tolerance either fail or warn depending on the
//! caller (`--time-warn-only` in CI).
//!
//! The JSON is built on `relock_trace::json::Value`, whose emitters are
//! byte-stable under parse → re-emit — the schema round-trip tests below
//! pin that down.

use crate::{attack_config, bench_threads, prepare, Arch, Scale};
use relock_attack::{AttackState, DecryptionReport, Decryptor};
use relock_locking::CountingOracle;
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle};
use relock_tensor::backend;
use relock_tensor::rng::Prng;
use relock_trace::json::Value;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Version of the `BENCH.json` document shape. Bump on any field rename,
/// removal, or semantic change; `diff` refuses to compare across
/// versions. (Policy: additions of new *benchmarks* are not schema
/// changes; additions of new *fields* bump the version.)
///
/// v2: added the optional `evictions` field (campaign-soak LRU counter).
/// v3: added the optional `workers` field (worker-process count of the
/// distributed-attack section).
/// v4: added the optional `backend` field (resolved gemm-backend name of
/// kernel-pinned benchmarks, e.g. `scalar` / `simd-avx512`), the
/// `forward_batch32_simd` comparison point, and a single-precision
/// monolithic measurement.
/// v5: added the optional `lock_variant` field and the
/// `matrix_<variant>_<attack>` entries of the lock-variant × attack
/// matrix (unit `key_acc`, higher is better). `key_acc` medians are
/// deterministic fidelities, so `diff` compares them exactly like query
/// counts.
/// v6: added an optional boolean field marking entries measured with an
/// online wave/shard controller, and two MLP-32 entries measured that way.
/// v7: removed that field and those two entries along with the controller:
/// §3.8 correction has one fixed wave schedule (DESIGN.md §3e).
/// v8: removed the single-precision monolithic entry along with the
/// single-precision learning path: everything computes in double
/// precision (DESIGN.md §3g).
/// v9: removed the `workers` field and the 4-process MLP-32 entry along
/// with the multi-process executor: the sharded phases run on
/// threads of one process (DESIGN.md §3e).
pub const BENCH_SCHEMA_VERSION: u64 = 9;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub name: String,
    /// `"ms"` (lower is better) or `"rows_per_sec"` (higher is better).
    pub unit: String,
    /// Median over the repeats.
    pub median: f64,
    /// Max − min over the repeats (0 for a single repeat).
    pub spread: f64,
    pub repeats: u64,
    /// Exact underlying oracle query count — deterministic, diffed
    /// bit-for-bit.
    pub queries: Option<u64>,
    /// Broker cache-hit rate of the measured run.
    pub cache_hit_rate: Option<f64>,
    /// Rows evicted by the shared LRU cache during the run. Depends on
    /// concurrent interleaving, so `diff` reports changes as notes, never
    /// failures.
    pub evictions: Option<u64>,
    /// Gemm-backend name a kernel-pinned benchmark ran on: `scalar` for
    /// the scalar-pinned entries, else the CPU-detected backend
    /// (`simd-avx512` or `scalar`); absent for benchmarks that don't pin
    /// one. Machine-dependent, so `diff` reports changes as notes, never
    /// failures.
    pub backend: Option<String>,
    /// Full lock-variant spelling of a matrix entry (`sign`,
    /// `scale:0.25`, `sar`, `antisat`); absent for non-matrix
    /// benchmarks.
    pub lock_variant: Option<String>,
}

/// The whole report document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    pub schema_version: u64,
    pub git_rev: String,
    pub os: String,
    pub threads: u64,
    pub entries: Vec<BenchEntry>,
}

impl BenchDoc {
    /// Serializes the document (pretty, two-space indent, trailing
    /// newline) — the exact bytes of `BENCH.json`.
    pub fn to_json(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_string(), Value::str(&e.name)),
                    ("unit".to_string(), Value::str(&e.unit)),
                    ("median".to_string(), Value::num_f64(e.median, 3)),
                    ("spread".to_string(), Value::num_f64(e.spread, 3)),
                    ("repeats".to_string(), Value::num_u64(e.repeats)),
                ];
                if let Some(q) = e.queries {
                    fields.push(("queries".to_string(), Value::num_u64(q)));
                }
                if let Some(r) = e.cache_hit_rate {
                    fields.push(("cache_hit_rate".to_string(), Value::num_f64(r, 4)));
                }
                if let Some(ev) = e.evictions {
                    fields.push(("evictions".to_string(), Value::num_u64(ev)));
                }
                if let Some(b) = &e.backend {
                    fields.push(("backend".to_string(), Value::str(b)));
                }
                if let Some(v) = &e.lock_variant {
                    fields.push(("lock_variant".to_string(), Value::str(v)));
                }
                Value::Obj(fields)
            })
            .collect();
        Value::Obj(vec![
            (
                "schema_version".to_string(),
                Value::num_u64(self.schema_version),
            ),
            ("git_rev".to_string(), Value::str(&self.git_rev)),
            ("os".to_string(), Value::str(&self.os)),
            ("threads".to_string(), Value::num_u64(self.threads)),
            ("benchmarks".to_string(), Value::Arr(entries)),
        ])
        .to_pretty()
    }

    /// Parses a document produced by [`BenchDoc::to_json`].
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let field_u64 = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let field_f64 = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or non-number field '{key}'"))
        };
        let field_str = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field '{key}'"))
        };
        let mut entries = Vec::new();
        for entry in doc
            .get("benchmarks")
            .and_then(Value::as_arr)
            .ok_or("missing 'benchmarks' array")?
        {
            entries.push(BenchEntry {
                name: field_str(entry, "name")?,
                unit: field_str(entry, "unit")?,
                median: field_f64(entry, "median")?,
                spread: field_f64(entry, "spread")?,
                repeats: field_u64(entry, "repeats")?,
                queries: match entry.get("queries") {
                    Some(v) => Some(v.as_u64().ok_or("non-integer 'queries'")?),
                    None => None,
                },
                cache_hit_rate: match entry.get("cache_hit_rate") {
                    Some(v) => Some(v.as_f64().ok_or("non-number 'cache_hit_rate'")?),
                    None => None,
                },
                evictions: match entry.get("evictions") {
                    Some(v) => Some(v.as_u64().ok_or("non-integer 'evictions'")?),
                    None => None,
                },
                backend: match entry.get("backend") {
                    Some(v) => Some(v.as_str().ok_or("non-string 'backend'")?.to_string()),
                    None => None,
                },
                lock_variant: match entry.get("lock_variant") {
                    Some(v) => Some(v.as_str().ok_or("non-string 'lock_variant'")?.to_string()),
                    None => None,
                },
            });
        }
        Ok(BenchDoc {
            schema_version: field_u64(&doc, "schema_version")?,
            git_rev: field_str(&doc, "git_rev")?,
            os: field_str(&doc, "os")?,
            threads: field_u64(&doc, "threads")?,
            entries,
        })
    }
}

/// The outcome of a benchdiff: hard failures (exit non-zero), warnings
/// (reported but tolerated), and informational notes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DiffOutcome {
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    pub notes: Vec<String>,
}

impl DiffOutcome {
    /// Whether the comparison passed (warnings allowed).
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a fresh run against a committed baseline.
///
/// * Query counts are deterministic: **any** difference (changed value,
///   appeared, disappeared) is a failure.
/// * A benchmark present in the baseline but missing from the current run
///   is a failure (coverage loss); new benchmarks are notes.
/// * A median worse than the baseline by more than `time_tolerance`
///   (fractional, e.g. `0.5` = 50%) fails — or warns when
///   `time_warn_only` is set, the CI mode for noisy shared runners.
pub fn diff(
    current: &BenchDoc,
    baseline: &BenchDoc,
    time_tolerance: f64,
    time_warn_only: bool,
) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    if current.schema_version != baseline.schema_version {
        out.failures.push(format!(
            "schema version mismatch: current {} vs baseline {} — regenerate the baseline",
            current.schema_version, baseline.schema_version
        ));
        return out;
    }
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.name == base.name) else {
            out.failures
                .push(format!("{}: benchmark missing from current run", base.name));
            continue;
        };
        if cur.unit != base.unit {
            out.failures.push(format!(
                "{}: unit changed ({} -> {}) — regenerate the baseline",
                base.name, base.unit, cur.unit
            ));
            continue;
        }
        match (cur.queries, base.queries) {
            (Some(c), Some(b)) if c != b => out.failures.push(format!(
                "{}: query count changed {b} -> {c} (exact, deterministic — any drift is a regression or an intentional change that must update the baseline)",
                base.name
            )),
            (None, Some(b)) => out.failures.push(format!(
                "{}: query count ({b}) disappeared from current run",
                base.name
            )),
            (Some(c), None) => out.notes.push(format!(
                "{}: query count appeared ({c}); baseline has none",
                base.name
            )),
            _ => {}
        }
        // `key_acc` medians are deterministic bit fidelities, not noisy
        // wall-clock: any drift means an attack's behaviour changed, so
        // compare exactly (like query counts), skipping the tolerance path.
        if cur.unit == "key_acc" {
            if (cur.median - base.median).abs() > 1e-9 {
                out.failures.push(format!(
                    "{}: key-recovery accuracy changed {:.4} -> {:.4} (deterministic — any drift is a regression or an intentional change that must update the baseline)",
                    base.name, base.median, cur.median
                ));
            }
            continue;
        }
        if base.median > 0.0 {
            let lower_is_better = base.unit == "ms";
            let ratio = cur.median / base.median;
            let regressed = if lower_is_better {
                ratio > 1.0 + time_tolerance
            } else {
                ratio < 1.0 / (1.0 + time_tolerance)
            };
            let improved = if lower_is_better {
                ratio < 1.0 / (1.0 + time_tolerance)
            } else {
                ratio > 1.0 + time_tolerance
            };
            if regressed {
                let msg = format!(
                    "{}: {} {:.3} vs baseline {:.3} ({:+.1}%) beyond ±{:.0}% tolerance",
                    base.name,
                    base.unit,
                    cur.median,
                    base.median,
                    (ratio - 1.0) * 100.0,
                    time_tolerance * 100.0
                );
                if time_warn_only {
                    out.warnings.push(msg);
                } else {
                    out.failures.push(msg);
                }
            } else if improved {
                out.notes.push(format!(
                    "{}: improved to {:.3} {} from {:.3} ({:+.1}%)",
                    base.name,
                    cur.median,
                    base.unit,
                    base.median,
                    (ratio - 1.0) * 100.0
                ));
            }
        }
        if let (Some(c), Some(b)) = (cur.cache_hit_rate, base.cache_hit_rate) {
            if (c - b).abs() > 1e-9 {
                out.notes.push(format!(
                    "{}: cache-hit rate {:.4} vs baseline {:.4}",
                    base.name, c, b
                ));
            }
        }
        if let (Some(c), Some(b)) = (cur.evictions, base.evictions) {
            if c != b {
                out.notes.push(format!(
                    "{}: LRU evictions {c} vs baseline {b} (interleaving-dependent, informational)",
                    base.name
                ));
            }
        }
        if cur.backend != base.backend {
            out.notes.push(format!(
                "{}: gemm backend {:?} vs baseline {:?} (machine-dependent, informational)",
                base.name, cur.backend, base.backend
            ));
        }
    }
    for cur in &current.entries {
        if !baseline.entries.iter().any(|e| e.name == cur.name) {
            out.notes.push(format!(
                "{}: new benchmark (not in baseline); refresh the baseline to gate it",
                cur.name
            ));
        }
    }
    out
}

/// `git rev-parse --short=12 HEAD`, or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn median_and_spread(samples: &mut [f64]) -> (f64, f64) {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    (median, samples[n - 1] - samples[0])
}

fn entry(
    name: &str,
    unit: &str,
    mut samples: Vec<f64>,
    queries: Option<u64>,
    cache_hit_rate: Option<f64>,
) -> BenchEntry {
    let repeats = samples.len() as u64;
    let (median, spread) = median_and_spread(&mut samples);
    BenchEntry {
        name: name.to_string(),
        unit: unit.to_string(),
        median,
        spread,
        repeats,
        queries,
        cache_hit_rate,
        evictions: None,
        backend: None,
        lock_variant: None,
    }
}

/// Planned-path forward throughput (rows/sec) of the white-box MLP
/// through one reused workspace, repeated.
///
/// The gemm backend is pinned for the duration: the legacy
/// `forward_batch*_planned` entries run on `scalar` (so their baselines
/// keep their historical meaning on any machine), and
/// `forward_batch32_simd` runs the same workload on the CPU-detected
/// backend — the pair is the report's headline speedup.
fn forward_entry(name: &str, batch: usize, repeats: usize, scalar: bool) -> BenchEntry {
    backend::force_scalar(scalar);
    let p = prepare(Arch::Mlp, 16, Scale::Fast, 42);
    let g = p.model.white_box();
    let keys = p.model.true_key().to_assignment();
    let mut rng = Prng::seed_from_u64(7);
    let x = rng.normal_tensor([batch, g.input_size()]);
    let mut ws = relock_graph::Workspace::new();
    for _ in 0..50 {
        black_box(g.logits_batch_into(&mut ws, &x, &keys));
    }
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        let mut iters = 0u64;
        while t.elapsed().as_secs_f64() < 0.15 {
            for _ in 0..20 {
                black_box(g.logits_batch_into(&mut ws, &x, &keys));
            }
            iters += 20;
        }
        samples.push(iters as f64 * batch as f64 / t.elapsed().as_secs_f64());
    }
    let ran_on = backend::active_backend().name();
    backend::force_scalar(false);
    BenchEntry {
        backend: Some(ran_on.to_string()),
        ..entry(name, "rows_per_sec", samples, None, None)
    }
}

/// The §4.3 monolithic learning attack on the MLP-16 victim, on the
/// CPU-detected backend. The query count stays exact and deterministic
/// (one labelled training set up front), so `diff` gates on it like any
/// other attack entry.
fn monolithic_entry(repeats: usize) -> BenchEntry {
    let p = prepare(Arch::Mlp, 16, Scale::Fast, 42);
    let attack = relock_attack::MonolithicAttack::new(crate::monolithic_config(Scale::Fast));
    let oracle = CountingOracle::new(&p.model);
    let mut samples = Vec::with_capacity(repeats);
    let mut queries: Option<u64> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let report = attack.run(p.model.white_box(), &oracle, &mut Prng::seed_from_u64(43));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(q) = queries {
            assert_eq!(q, report.queries, "repeats must replay identical traffic");
        }
        queries = Some(report.queries);
    }
    BenchEntry {
        backend: Some(backend::active_backend().name().to_string()),
        ..entry("monolithic_f64", "ms", samples, queries, None)
    }
}

/// End-to-end MLP-16 Fast attack (the smoke workload: prep seed 42,
/// attack seed 43), fresh broker per repeat so the memo cache never
/// carries over. Asserts exactness, balanced broker books, and identical
/// query counts across repeats — the determinism the diff gate relies on.
fn attack_mlp16_entry(repeats: usize) -> BenchEntry {
    let p = prepare(Arch::Mlp, 16, Scale::Fast, 42);
    let mut cfg = attack_config(Arch::Mlp, Scale::Fast);
    cfg.threads = 1;
    let decryptor = Decryptor::new(cfg);
    let g = p.model.white_box();
    let oracle = CountingOracle::new(&p.model);
    let mut samples = Vec::with_capacity(repeats);
    let mut queries: Option<u64> = None;
    let mut hit_rate = None;
    for _ in 0..repeats {
        let broker = Broker::with_config(&oracle, BrokerConfig::default());
        let t = Instant::now();
        let report = decryptor
            .run_brokered(g, &broker, &mut Prng::seed_from_u64(43))
            .expect("attack run");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            report.fidelity(p.model.true_key()),
            1.0,
            "MLP-16 attack must stay exact while being timed"
        );
        let snap = broker.snapshot();
        assert!(snap.is_balanced(), "broker books must balance: {snap:?}");
        assert_eq!(report.queries, snap.underlying);
        if let Some(q) = queries {
            assert_eq!(q, report.queries, "repeats must replay identical traffic");
        }
        queries = Some(report.queries);
        hit_rate = Some(snap.cache_hit_rate());
    }
    entry("attack_mlp16", "ms", samples, queries, hit_rate)
}

/// Per-call latency of the simulated hardware oracle in the parallel
/// measurement. Under the paper's threat model the oracle is a locked
/// hardware instance on the other side of a link, so its per-call
/// turnaround, not attacker-side arithmetic, dominates the wall clock;
/// the sharded engine wins by keeping several oracle calls in flight.
const ORACLE_LATENCY: Duration = Duration::from_millis(3);

fn time_sharded(p: &crate::Prepared, threads: usize, reps: usize) -> (Vec<f64>, DecryptionReport) {
    let mut cfg = attack_config(Arch::Mlp, Scale::Fast);
    cfg.threads = threads;
    let decryptor = Decryptor::new(cfg);
    let g = p.model.white_box();
    // `latency_spike_rate: 1.0` = a constant per-call delay, no faults.
    let oracle = ChaosOracle::new(
        CountingOracle::new(&p.model),
        ChaosConfig {
            seed: 1,
            latency_spike_rate: 1.0,
            latency_spike: ORACLE_LATENCY,
            ..ChaosConfig::default()
        },
    );
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let broker = Broker::with_config(&oracle, BrokerConfig::default());
        let t = Instant::now();
        let report = decryptor
            .run_brokered(g, &broker, &mut Prng::seed_from_u64(43))
            .expect("attack run");
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    (samples, last.expect("reps >= 1"))
}

/// Sequential vs 4-thread MLP-32 attack against the fixed-latency
/// oracle — the parallel section. The sharded engine is bit-identical by
/// contract, so keys and query counts are asserted equal before the
/// timings are reported.
fn mlp32_entries(reps: usize) -> Vec<BenchEntry> {
    let p = prepare(Arch::Mlp, 32, Scale::Fast, 42);
    let (seq_samples, seq) = time_sharded(&p, 1, reps);
    let (par_samples, par) = time_sharded(&p, 4, reps);
    assert_eq!(
        seq.fidelity(p.model.true_key()),
        1.0,
        "MLP-32 attack must stay exact while being timed"
    );
    assert_eq!(par.key, seq.key, "parallel run must stay bit-identical");
    assert_eq!(par.queries, seq.queries);
    vec![
        entry(
            "attack_mlp32_seq_latency3ms",
            "ms",
            seq_samples,
            Some(seq.queries),
            None,
        ),
        entry(
            "attack_mlp32_par4_latency3ms",
            "ms",
            par_samples,
            Some(par.queries),
            None,
        ),
    ]
}

/// Kill-and-resume soak (MLP-12 at lock seed 42, attack seed 43, 3
/// scheduled kills): total wall clock across all segments, and the soaked
/// session's cumulative query count. Asserts that every kill fired and
/// that the resumed key is bit-identical to the uninterrupted reference.
fn soak_entry() -> BenchEntry {
    let kills = 3u64;
    let p = prepare(Arch::Mlp, 12, Scale::Fast, 42);
    let mut cfg = attack_config(Arch::Mlp, Scale::Fast);
    cfg.threads = 1;
    let decryptor = Decryptor::new(cfg);
    let g = p.model.white_box();

    let clean_oracle = CountingOracle::new(&p.model);
    let broker = Broker::with_config(&clean_oracle, BrokerConfig::default());
    let reference = decryptor
        .run_brokered(g, &broker, &mut Prng::seed_from_u64(43))
        .expect("reference run");
    assert_eq!(reference.fidelity(p.model.true_key()), 1.0);

    let crash_at: Vec<u64> = (1..=kills)
        .map(|k| reference.queries * k / (kills + 1))
        .collect();
    let chaos = ChaosOracle::new(
        CountingOracle::new(&p.model),
        ChaosConfig::crash_only(42, crash_at),
    );
    let sink = relock_attack::MemoryCheckpointSink::new();
    // The scheduled panics are the point of the exercise — keep them quiet.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let t = Instant::now();
    let soaked: DecryptionReport = loop {
        let broker = Broker::with_config(&chaos, BrokerConfig::default());
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Prng::seed_from_u64(43);
            decryptor.resume(g, &broker, &mut rng, &sink)
        }));
        match attempt {
            Ok(Ok((report, _status))) => break report,
            Ok(Err(e)) => panic!("attack error during soak: {e}"),
            Err(payload) => {
                payload
                    .downcast::<ChaosCrash>()
                    .expect("only scheduled chaos crashes should unwind");
                // The checkpoint a resume will load must stay decodable.
                if let Some(bytes) = sink.contents() {
                    AttackState::decode(&bytes).expect("crash must leave a valid checkpoint");
                }
            }
        }
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::panic::set_hook(prev_hook);
    assert_eq!(
        soaked.key, reference.key,
        "resumed key must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        chaos.counters().crashes,
        kills,
        "every scheduled kill must fire"
    );
    entry(
        "soak_mlp12_resume",
        "ms",
        vec![ms],
        Some(soaked.queries),
        None,
    )
}

/// Multi-tenant campaign soak (the campaign_soak bin's workload: 8
/// concurrent campaigns, 4 scheduler slots, a 256 KiB shared LRU cache,
/// one mid-flight pause → daemon-restart → resume migration). Key
/// identity vs the sequential references is asserted inside the soak;
/// the entry reports wall clock plus the cross-campaign cache-hit rate
/// and LRU eviction count. No query count: concurrent interleaving makes
/// the traffic nondeterministic by design, so there is nothing exact to
/// gate on.
fn campaign_entry() -> BenchEntry {
    let soak = crate::campaign::run_campaign_soak(8, 4, Some(256 * 1024))
        .expect("campaign soak must recover every reference key");
    BenchEntry {
        evictions: Some(soak.evicted),
        ..entry(
            "campaign_soak8_resume",
            "ms",
            vec![soak.elapsed_ms],
            None,
            Some(soak.hit_rate),
        )
    }
}

/// Runs every measurement and assembles the document. `repeats` drives
/// the cheap measurements; the latency-bound parallel section uses
/// `min(repeats, 2)` and the soaks run once (their determinism is
/// asserted, not sampled).
pub fn run_report(repeats: usize) -> BenchDoc {
    let repeats = repeats.max(1);
    let mut entries = vec![
        forward_entry("forward_batch1_planned", 1, repeats, true),
        forward_entry("forward_batch32_planned", 32, repeats, true),
        forward_entry("forward_batch32_simd", 32, repeats, false),
        attack_mlp16_entry(repeats),
        monolithic_entry(repeats),
    ];
    entries.extend(mlp32_entries(repeats.min(2)));
    entries.push(soak_entry());
    entries.push(campaign_entry());
    entries.extend(crate::matrix::matrix_entries());
    BenchDoc {
        schema_version: BENCH_SCHEMA_VERSION,
        git_rev: git_rev(),
        os: format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH),
        threads: bench_threads() as u64,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> BenchDoc {
        BenchDoc {
            schema_version: BENCH_SCHEMA_VERSION,
            git_rev: "abc123def456".to_string(),
            os: "linux-x86_64".to_string(),
            threads: 4,
            entries: vec![
                BenchEntry {
                    name: "attack_mlp16".to_string(),
                    unit: "ms".to_string(),
                    median: 20.733,
                    spread: 1.25,
                    repeats: 5,
                    queries: Some(4242),
                    cache_hit_rate: Some(0.3125),
                    evictions: Some(17),
                    backend: None,
                    lock_variant: None,
                },
                BenchEntry {
                    name: "forward_batch1_planned".to_string(),
                    unit: "rows_per_sec".to_string(),
                    median: 125000.5,
                    spread: 300.0,
                    repeats: 3,
                    queries: None,
                    cache_hit_rate: None,
                    evictions: None,
                    backend: Some("scalar".to_string()),
                    lock_variant: None,
                },
            ],
        }
    }

    #[test]
    fn schema_round_trip_is_byte_identical() {
        let doc = sample_doc();
        let text = doc.to_json();
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "re-emit must be byte-equal");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(BenchDoc::parse("").is_err());
        assert!(BenchDoc::parse("{}").is_err());
        let mut doc = sample_doc();
        doc.entries.clear();
        // Valid JSON with a missing required field.
        let butchered = doc.to_json().replace("\"schema_version\"", "\"schema\"");
        assert!(BenchDoc::parse(&butchered).is_err());
    }

    #[test]
    fn query_count_drift_fails_exactly() {
        let base = sample_doc();
        let mut cur = base.clone();
        cur.entries[0].queries = Some(4243);
        let out = diff(&cur, &base, 0.5, true);
        assert_eq!(out.failures.len(), 1, "{out:?}");
        assert!(out.failures[0].contains("query count changed 4242 -> 4243"));
        // Same counts → clean.
        assert!(diff(&base, &base, 0.5, true).is_ok());
        // A disappeared count is a failure too.
        let mut gone = base.clone();
        gone.entries[0].queries = None;
        assert!(!diff(&gone, &base, 0.5, true).is_ok());
    }

    #[test]
    fn backend_drift_is_a_note_not_a_failure() {
        let base = sample_doc();
        let mut cur = base.clone();
        cur.entries[1].backend = Some("simd-avx512".to_string());
        let out = diff(&cur, &base, 0.5, false);
        assert!(out.is_ok(), "{out:?}");
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("gemm backend") && n.contains("simd-avx512")));
    }

    #[test]
    fn eviction_drift_is_a_note_not_a_failure() {
        let base = sample_doc();
        let mut cur = base.clone();
        cur.entries[0].evictions = Some(23);
        let out = diff(&cur, &base, 0.5, false);
        assert!(out.is_ok(), "{out:?}");
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("LRU evictions 23 vs baseline 17")));
    }

    #[test]
    fn missing_benchmark_is_a_failure_and_new_one_a_note() {
        let base = sample_doc();
        let mut cur = base.clone();
        cur.entries.remove(1);
        cur.entries.push(BenchEntry {
            name: "brand_new".to_string(),
            unit: "ms".to_string(),
            median: 1.0,
            spread: 0.0,
            repeats: 1,
            queries: None,
            cache_hit_rate: None,
            evictions: None,
            backend: None,
            lock_variant: None,
        });
        let out = diff(&cur, &base, 0.5, true);
        assert!(out.failures.iter().any(|f| f.contains("missing")));
        assert!(out.notes.iter().any(|n| n.contains("new benchmark")));
    }

    #[test]
    fn time_regressions_respect_direction_and_mode() {
        let base = sample_doc();
        // 2x slower attack (ms, lower is better) and 2x slower forward
        // (rows/sec, higher is better) both regress.
        let mut cur = base.clone();
        cur.entries[0].median *= 2.0;
        cur.entries[1].median /= 2.0;
        let warn = diff(&cur, &base, 0.5, true);
        assert!(warn.is_ok(), "warn-only mode must not fail: {warn:?}");
        assert_eq!(warn.warnings.len(), 2);
        let hard = diff(&cur, &base, 0.5, false);
        assert_eq!(hard.failures.len(), 2);
        // Within tolerance: clean both ways.
        let mut close = base.clone();
        close.entries[0].median *= 1.2;
        assert!(diff(&close, &base, 0.5, false).is_ok());
        // Improvements are notes, never failures.
        let mut faster = base.clone();
        faster.entries[0].median /= 4.0;
        let out = diff(&faster, &base, 0.5, false);
        assert!(out.is_ok());
        assert!(out.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn key_acc_drift_fails_exactly() {
        let mut base = sample_doc();
        base.entries.push(BenchEntry {
            name: "matrix_sar_decrypt".to_string(),
            unit: "key_acc".to_string(),
            median: 0.5,
            spread: 0.0,
            repeats: 1,
            queries: Some(64),
            cache_hit_rate: None,
            evictions: None,
            backend: None,
            lock_variant: Some("sar".to_string()),
        });
        // Identical → clean.
        assert!(diff(&base, &base, 0.5, true).is_ok());
        // A fidelity change fails even inside the time tolerance, and
        // even in warn-only mode — key_acc is deterministic.
        let mut cur = base.clone();
        cur.entries.last_mut().unwrap().median = 0.625;
        let out = diff(&cur, &base, 0.5, true);
        assert_eq!(out.failures.len(), 1, "{out:?}");
        assert!(out.failures[0].contains("key-recovery accuracy changed"));
    }

    #[test]
    fn schema_version_mismatch_refuses_comparison() {
        let base = sample_doc();
        let mut cur = base.clone();
        cur.schema_version += 1;
        let out = diff(&cur, &base, 0.5, true);
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("schema version mismatch"));
    }
}
