//! Campaign-daemon soak bench: N concurrent campaigns on one hub,
//! latency chaos on every oracle, fair-share scheduling across two
//! tenants, and a pause → daemon-restart → resume migration mid-flight.
//! Every recovered key must be bit-identical to its one-shot sequential
//! reference; exits non-zero on any divergence — CI runs this as the
//! `campaign-soak` job with fixed seeds, fully offline.
//!
//! ```text
//! campaign_soak [campaigns] [slots] [cache_kib]
//! ```
//!
//! `cache_kib 0` lifts the LRU byte cap entirely.

use relock_bench::campaign::run_campaign_soak;
use std::process::ExitCode;

fn main() -> ExitCode {
    let campaigns: usize = arg_or(1, 8);
    let slots: usize = arg_or(2, 4);
    let cache_kib: usize = arg_or(3, 256);
    let cap = if cache_kib == 0 {
        None
    } else {
        Some(cache_kib * 1024)
    };

    println!(
        "campaign soak: {campaigns} campaigns, {slots} slots, cache cap {}",
        cap.map(|b| format!("{} KiB", b / 1024))
            .unwrap_or_else(|| "unbounded".to_string())
    );
    match run_campaign_soak(campaigns, slots, cap) {
        Ok(outcome) => {
            println!(
                "soaked {} campaigns in {:.1}s: {} rows requested, {} cache hits ({:.1}%), \
                 {} evicted, {} rows / {} B resident, migration exercised",
                outcome.campaigns,
                outcome.elapsed_ms / 1e3,
                outcome.requested,
                outcome.cache_hits,
                outcome.hit_rate * 100.0,
                outcome.evicted,
                outcome.cache_rows,
                outcome.cache_bytes,
            );
            println!("OK: every key bit-identical to its sequential reference");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("FAIL: {why}");
            ExitCode::FAILURE
        }
    }
}

fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
