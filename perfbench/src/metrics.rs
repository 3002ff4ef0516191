//! The metric catalogue, the sample statistics behind it, and the result
//! line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

use relock_trace::json::Value;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("attacks_per_min", "1/min"),
    ("attack_p50_s", "s"),
    ("attack_p90_s", "s"),
    ("queries", "rows"),
    ("key_fidelity", "ratio"),
    ("exact_key_rate", "ratio"),
    ("validated_exact_rate", "ratio"),
    ("ok_ops_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("nn.train_s", "s"),
    ("nn.victims", "count"),
    ("locking.oracle.calls", "count"),
    ("locking.oracle.rows", "rows"),
    ("locking.oracle.busy_s", "s"),
    ("locking.oracle.us_per_row", "us"),
    ("tensor.oracle_madds", "madd"),
    ("tensor.oracle_madd_per_ns", "madd/ns"),
    ("serve.broker.requested", "rows"),
    ("serve.broker.cache_hits", "rows"),
    ("serve.broker.hit_rate", "ratio"),
    ("serve.broker.batches", "count"),
    ("serve.broker.rows_per_batch", "rows"),
    ("serve.broker.retries", "count"),
    ("serve.broker.underlying.key_bit_inference", "rows"),
    ("serve.broker.underlying.learning_attack", "rows"),
    ("serve.broker.underlying.key_vector_validation", "rows"),
    ("serve.broker.underlying.error_correction", "rows"),
    ("serve.cache.evictions", "rows"),
    ("serve.cache.resident_bytes", "bytes"),
    ("attack.key_bit_inference_s", "s"),
    ("attack.learning_attack_s", "s"),
    ("attack.key_vector_validation_s", "s"),
    ("attack.driver_s", "s"),
    ("attack.bits_algebraic", "bits"),
    ("attack.bits_learned", "bits"),
    ("attack.bits_corrected", "bits"),
    ("attack.validation_rounds", "count"),
    ("attack.layers_unvalidated", "count"),
    ("attack.algebraic_yield", "ratio"),
    ("attack.false_accepts", "count"),
    ("attack.executor.infer_sites", "count"),
    ("attack.executor.infer_s", "s"),
    ("attack.executor.waves", "count"),
    ("attack.executor.wave_candidates", "count"),
    ("attack.executor.wave_pass_ratio", "ratio"),
    ("attack.executor.errors", "count"),
    ("campaign.segments_per_campaign", "count"),
    ("campaign.crashes", "count"),
    ("bench.traced_overhead_pct", "%"),
    ("bench.failed_ops", "count"),
];

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the middle pair for an even count), `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q < 1`), reported only when
/// at least [`MIN_TAIL`] samples lie beyond it — so a p90 needs 100 samples.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    let rank = (q * s.len() as f64).ceil() as usize;
    let beyond = s.len().checked_sub(rank)?;
    (rank >= 1 && beyond >= MIN_TAIL).then(|| s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric values of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Readings(Vec<(&'static str, f64)>);

impl Readings {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every recorded `(name, value)` pair.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64)> {
        self.0.iter()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `catalogue` in catalogue
/// order with its unit.
///
/// # Errors
///
/// Names the first catalogue metric with an illegal name, or that the run
/// did not record exactly once, or recorded as a non-finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&'static str, &'static str)],
    readings: &Readings,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is not legal"));
        }
        let mut found = readings.iter().filter(|(n, _)| *n == name);
        let value = match (found.next(), found.next()) {
            (Some(&(_, v)), None) if v.is_finite() => v,
            (None, _) => return Err(format!("metric {name} was not measured")),
            (Some(_), Some(_)) => return Err(format!("metric {name} was measured twice")),
            (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
        };
        metrics.push((
            name.to_string(),
            Value::Obj(vec![
                ("value".to_string(), Value::Num(format!("{value:?}"))),
                ("unit".to_string(), Value::str(unit)),
            ]),
        ));
    }
    Ok(Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::num_u64(attempted)),
        ("failed".to_string(), Value::num_u64(failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), None, "99 samples leave 9 beyond");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        let beyond = xs.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, MIN_TAIL);
        assert_eq!(tail_percentile(&[], 0.9), None);
        // The median needs only ten samples above it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.5), Some(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn catalogue_names_are_legal_unique_and_few() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "illegal metric name {name}");
            assert!(seen.insert(*name), "metric {name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit {unit} of {name}"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for bad in ["", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalogue, "{key} differs from the catalogue");
        }
    }

    #[test]
    fn result_line_keeps_every_digit_and_refuses_gaps() {
        let cat = [("a_s", "s"), ("b", "count")];
        let mut r = Readings::default();
        r.set("b", 3.0);
        r.set("a_s", 0.012_345_678_9);
        let line = result_line(true, 4, 1, &cat, &r).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":4,"failed":1,"metrics":{"a_s":{"value":0.0123456789,"unit":"s"},"b":{"value":3.0,"unit":"count"}}}"#
        );
        let mut missing = Readings::default();
        missing.set("a_s", 1.0);
        assert!(result_line(true, 1, 0, &cat, &missing).is_err());
        r.set("b", 4.0);
        assert!(result_line(true, 1, 0, &cat, &r).is_err());
        let mut nan = Readings::default();
        nan.set("a_s", f64::NAN);
        nan.set("b", 1.0);
        assert!(result_line(true, 1, 0, &cat, &nan).is_err());
    }
}
