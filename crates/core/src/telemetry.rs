//! Per-procedure timing, the raw material of the paper's Figure 3, plus
//! the query-broker metrics that accompany it (re-exported from
//! `relock-serve` so attack reports carry both time and query accounting).

pub use relock_serve::{QueryStats, QueryStatsSnapshot, ScopeCounts};

use std::fmt;
use std::time::{Duration, Instant};

/// The four procedures whose execution-time breakdown Figure 3 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Procedure {
    /// Algorithm 1 (§3.3), including its critical-point searches.
    KeyBitInference,
    /// The learning-based attack (§3.6).
    LearningAttack,
    /// Key-vector validation (§3.7).
    KeyVectorValidation,
    /// The error-correction search (§3.8).
    ErrorCorrection,
}

impl Procedure {
    /// All procedures in Figure 3 order.
    pub const ALL: [Procedure; 4] = [
        Procedure::KeyBitInference,
        Procedure::LearningAttack,
        Procedure::KeyVectorValidation,
        Procedure::ErrorCorrection,
    ];

    /// Static name, shared with the query broker's per-scope accounting
    /// (`Broker::set_scope` wants a `&'static str`).
    pub const fn label(self) -> &'static str {
        match self {
            Procedure::KeyBitInference => "key_bit_inference",
            Procedure::LearningAttack => "learning_attack",
            Procedure::KeyVectorValidation => "key_vector_validation",
            Procedure::ErrorCorrection => "error_correction",
        }
    }
}

impl fmt::Display for Procedure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated wall-clock time per procedure: the run's one record of
/// procedure time (a trace capture carries none).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingBreakdown {
    spans: [Duration; 4],
}

impl TimingBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        TimingBreakdown::default()
    }

    fn slot(p: Procedure) -> usize {
        match p {
            Procedure::KeyBitInference => 0,
            Procedure::LearningAttack => 1,
            Procedure::KeyVectorValidation => 2,
            Procedure::ErrorCorrection => 3,
        }
    }

    /// Adds a measured span to a procedure.
    pub fn add(&mut self, p: Procedure, d: Duration) {
        self.spans[Self::slot(p)] += d;
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &TimingBreakdown) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            *a += *b;
        }
    }

    /// Total time of a procedure.
    pub fn of(&self, p: Procedure) -> Duration {
        self.spans[Self::slot(p)]
    }

    /// Sum over all procedures.
    pub fn total(&self) -> Duration {
        self.spans.iter().sum()
    }

    /// Fraction of the total spent in a procedure (0 when nothing ran).
    pub fn fraction(&self, p: Procedure) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.of(p).as_secs_f64() / total
        }
    }

    /// Per-procedure totals as nanoseconds in [`Procedure::ALL`] order —
    /// the checkpoint serialization of a breakdown. Restore with
    /// [`TimingBreakdown::from_nanos`].
    pub fn as_nanos(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.spans[i].as_nanos() as u64)
    }

    /// Rebuilds a breakdown from [`TimingBreakdown::as_nanos`] output.
    pub fn from_nanos(nanos: [u64; 4]) -> Self {
        TimingBreakdown {
            spans: nanos.map(Duration::from_nanos),
        }
    }

    /// Times `f`, attributing the span to `p`.
    pub fn time<T>(&mut self, p: Procedure, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(p, start.elapsed());
        out
    }
}

impl fmt::Display for TimingBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in Procedure::ALL {
            writeln!(
                f,
                "{:<24} {:>10.3}s  {:>5.1}%",
                p.to_string(),
                self.of(p).as_secs_f64(),
                100.0 * self.fraction(p)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let mut t = TimingBreakdown::new();
        t.add(Procedure::KeyBitInference, Duration::from_millis(30));
        t.add(Procedure::LearningAttack, Duration::from_millis(70));
        let total: f64 = Procedure::ALL.iter().map(|&p| t.fraction(p)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_attributes_span() {
        let mut t = TimingBreakdown::new();
        let v = t.time(Procedure::ErrorCorrection, || 21 * 2);
        assert_eq!(v, 42);
        assert!(t.of(Procedure::ErrorCorrection) > Duration::ZERO);
        assert_eq!(t.of(Procedure::LearningAttack), Duration::ZERO);
    }

    #[test]
    fn nanos_round_trip() {
        let mut t = TimingBreakdown::new();
        t.add(
            Procedure::KeyBitInference,
            Duration::from_nanos(123_456_789),
        );
        t.add(Procedure::ErrorCorrection, Duration::from_micros(42));
        let back = TimingBreakdown::from_nanos(t.as_nanos());
        for p in Procedure::ALL {
            assert_eq!(back.of(p), t.of(p));
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TimingBreakdown::new();
        a.add(Procedure::KeyBitInference, Duration::from_millis(10));
        let mut b = TimingBreakdown::new();
        b.add(Procedure::KeyBitInference, Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.of(Procedure::KeyBitInference), Duration::from_millis(15));
    }
}
