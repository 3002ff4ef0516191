//! The unified bench report: runs the engine, attack, parallel, and soak
//! measurements in one process, writes a schema-versioned `BENCH.json`,
//! and optionally diffs it against a committed baseline.
//!
//! ```text
//! report [--out BENCH.json] [--repeats N] [--diff BASELINE.json]
//!        [--time-tolerance FRACTION] [--time-warn-only]
//! report --analyze TRACE.jsonl [--stats STATS.json] [--out ANALYZE.json]
//! ```
//!
//! With `--diff`, the exit code is non-zero on any hard failure: schema
//! mismatch, a benchmark missing from the current run, or **any** change
//! in a query count (those are deterministic; drift means the engine's
//! traffic changed and the baseline must be deliberately refreshed).
//! Time regressions beyond the tolerance fail too, unless
//! `--time-warn-only` (the CI mode — shared runners are noisy).
//!
//! With `--analyze`, no benchmarks run: the given flight-recorder capture
//! (a `relock attack --trace` JSONL file) is mined for stall time per
//! phase, wasted queries, batch fill, cache-hit decay, and correction
//! waves; the human table goes to stdout and the machine-readable
//! document to `--out` (default `ANALYZE.json`). The exit code is
//! non-zero if the capture is structurally broken, internally
//! inconsistent (any `Trace::check` violation, such as timestamps out of
//! arrival order, included), or — when a `--stats` sidecar (the run's
//! `--stats-json` output) is given — disagrees with the broker's own
//! books in *any* counter. Both books are written by the same code paths,
//! so equality is exact, never a tolerance.

use relock_bench::analyze::analyze;
use relock_bench::report::{diff, run_report, BenchDoc};
use relock_serve::QueryStatsSnapshot;
use relock_trace::Trace;
use std::process::ExitCode;

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `report --analyze`: mine a capture, reconcile it against the optional
/// stats sidecar, and gate on any drift.
fn run_analyze(args: &[String], trace_path: &str) -> ExitCode {
    let out_path = flag_value(args, "--out").unwrap_or_else(|| "ANALYZE.json".to_string());
    let trace = match Trace::read_file(std::path::Path::new(trace_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: cannot read trace {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = match analyze(&trace) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("FAIL: capture is structurally broken: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", analysis.render());
    std::fs::write(&out_path, analysis.to_json_value().to_pretty() + "\n")
        .expect("write ANALYZE.json");
    println!("wrote {out_path}");
    let mut failed = false;
    for p in &analysis.problems {
        eprintln!("FAIL: trace inconsistency: {p}");
        failed = true;
    }
    if let Some(stats_path) = flag_value(args, "--stats") {
        let snap = std::fs::read_to_string(&stats_path)
            .map_err(|e| e.to_string())
            .and_then(|text| relock_trace::json::Value::parse(&text).map_err(|e| e.to_string()))
            .and_then(|doc| QueryStatsSnapshot::from_json_value(&doc));
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL: cannot read stats sidecar {stats_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let drift = analysis.reconcile(&snap);
        for d in &drift {
            eprintln!("FAIL: accounting drift vs {stats_path}: {d}");
            failed = true;
        }
        if drift.is_empty() {
            println!("trace books reconcile exactly against {stats_path}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(trace_path) = flag_value(&args, "--analyze") {
        return run_analyze(&args, &trace_path);
    }
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH.json".to_string());
    let repeats: usize = flag_value(&args, "--repeats")
        .map(|s| s.parse().expect("--repeats expects an integer"))
        .unwrap_or(3);
    let baseline_path = flag_value(&args, "--diff");
    let time_tolerance: f64 = flag_value(&args, "--time-tolerance")
        .map(|s| s.parse().expect("--time-tolerance expects a number"))
        .unwrap_or(0.5);
    let time_warn_only = args.iter().any(|a| a == "--time-warn-only");

    let doc = run_report(repeats);
    for e in &doc.entries {
        let extras = match (e.queries, e.cache_hit_rate) {
            (Some(q), Some(r)) => format!(", {q} queries, {:.1}% cache hits", r * 100.0),
            (Some(q), None) => format!(", {q} queries"),
            _ => String::new(),
        };
        println!(
            "{:<32} {:>12.3} {} (spread {:.3} over {} repeats{extras})",
            e.name, e.median, e.unit, e.spread, e.repeats
        );
    }
    std::fs::write(&out_path, doc.to_json()).expect("write BENCH.json");
    println!("wrote {out_path} (schema v{})", doc.schema_version);

    let Some(baseline_path) = baseline_path else {
        return ExitCode::SUCCESS;
    };
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match BenchDoc::parse(&baseline_text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL: cannot parse baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = diff(&doc, &baseline, time_tolerance, time_warn_only);
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for warning in &outcome.warnings {
        println!("WARN: {warning}");
    }
    for failure in &outcome.failures {
        eprintln!("FAIL: {failure}");
    }
    if outcome.is_ok() {
        println!(
            "benchdiff vs {baseline_path} (baseline rev {}): OK",
            baseline.git_rev
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchdiff vs {baseline_path}: {} failure(s) — if the query-count change is intentional, refresh the baseline (see README)",
            outcome.failures.len()
        );
        ExitCode::FAILURE
    }
}
