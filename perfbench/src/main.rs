//! The repository's benchmark: one command runs a named workload at a seed
//! and prints every metric by name with its unit, then a one-line JSON
//! result. See README.md for the workloads, the metrics and why.
//!
//! ```text
//! relock-perfbench --workload <mlp_sweep|campaign_hwlat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! run through outside-in instruments for the per-layer metrics. The exit
//! code is 0 only when every correctness gate held and every metric was
//! measured: 1 for a violated gate, 2 for a usage error, 3 for a run too
//! small to measure a metric.

mod campaign_hwlat;
mod context;
mod layers;
mod metrics;
mod mlp_sweep;
mod workload;

use metrics::{result_line, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workload::{Outcome, Params};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["mlp_sweep", "campaign_hwlat"];

fn run_workload(name: &str, p: &Params) -> Outcome {
    match name {
        "mlp_sweep" => mlp_sweep::run(p, mlp_sweep::Sweep::standard()),
        "campaign_hwlat" => campaign_hwlat::run(p, campaign_hwlat::Plan::standard()),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => p.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                p.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("a number of seconds in (0, 600]"))?;
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload == "campaign_hwlat" && !p.trace && p.seconds < campaign_hwlat::MIN_SECONDS {
        return Err(format!(
            "an untraced campaign_hwlat run needs --seconds of at least {:.2} for a p90",
            campaign_hwlat::MIN_SECONDS
        ));
    }
    Ok((workload, p))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, params) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("relock-perfbench: {e}");
            eprintln!(
                "usage: relock-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = run_workload(&name, &params);
    let catalogue: &[(&str, &str)] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!("{}", out.context);
    for &(metric, unit) in catalogue {
        if let Some(v) = out.readings.get(metric) {
            println!("{metric:<48} {v:>16.6} {unit}");
        }
    }
    for v in &out.violations {
        eprintln!("correctness: {v}");
    }
    if !out.shortfalls.is_empty() {
        for s in &out.shortfalls {
            eprintln!("relock-perfbench: not measured: {s}");
        }
        return ExitCode::from(3);
    }
    let correct = out.violations.is_empty();
    match result_line(correct, out.attempted, out.failed, catalogue, &out.readings) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("relock-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, trace: bool, seconds: f64) {
        let p = Params {
            seed: 7,
            seconds,
            trace,
        };
        let out = match name {
            "mlp_sweep" => mlp_sweep::run(&p, mlp_sweep::Sweep { per_size: 34 }),
            _ => campaign_hwlat::run(
                &p,
                campaign_hwlat::Plan {
                    victims: 3,
                    slots: 2,
                    replay: 2,
                },
            ),
        };
        assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
        assert!(out.shortfalls.is_empty(), "{name}: {:?}", out.shortfalls);
        assert!(out.attempted >= 1);
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let line = result_line(true, out.attempted, out.failed, catalogue, &out.readings)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (metric, unit) in catalogue {
            let entry = format!(r#""{metric}":{{"value":"#);
            let at = line
                .find(&entry)
                .unwrap_or_else(|| panic!("{name}: {metric} missing"));
            let unit_field = format!(r#","unit":"{unit}"}}"#);
            assert!(
                line[at..].contains(&unit_field),
                "{name}: {metric} lacks unit {unit}"
            );
        }
    }

    #[test]
    fn mlp_sweep_emits_every_metric() {
        smoke("mlp_sweep", false, 0.1);
        smoke("mlp_sweep", true, 0.1);
    }

    #[test]
    fn campaign_hwlat_emits_every_metric() {
        smoke("campaign_hwlat", false, 9.5);
        smoke("campaign_hwlat", true, 0.5);
    }

    #[test]
    fn parse_checks_every_flag() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let (w, p) = parse(&args(
            "--workload mlp_sweep --seed 3 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), p.seed, p.seconds, p.trace),
            ("mlp_sweep", 3, 2.5, true)
        );
        // Only an untraced campaign_hwlat run needs a p90.
        assert!(parse(&args("--workload campaign_hwlat --seconds 9 --trace 1")).is_ok());
        assert!(parse(&args("--workload campaign_hwlat --seconds 9.1 --trace 0")).is_ok());
        for bad in [
            "--workload nope",
            "--workload mlp_sweep --trace 2",
            "--workload mlp_sweep --seconds 0",
            "--workload mlp_sweep --seed -1",
            "--workload campaign_hwlat --seconds 9 --trace 0",
            "--workload mlp_sweep --extra 1",
            "--seed 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad} accepted");
        }
    }
}
