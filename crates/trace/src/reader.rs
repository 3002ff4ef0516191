//! Reading captured traces back in: the inverse of the flight recorder.
//!
//! A `--trace` capture is JSONL, one [`Event`] per line, in arrival
//! order. [`Trace::parse`] turns the text back into typed events with
//! line-numbered errors, and the model layer on top pairs span begin/end
//! events into [`SpanRecord`]s and re-derives the per-`(label, scope)`
//! counter books, so an offline analysis pass can reconcile a capture
//! against `QueryStatsSnapshot` exactly. Tests read a live
//! [`FlightRecorder`] the same way, through its JSONL.
//!
//! [`Trace::check`] is the schema gate: span pairing, label agreement
//! across a pair, and arrival-order timestamp monotonicity are recorder
//! invariants, so any violation means the capture (or the writer) drifted
//! from the wire contract. `report --analyze` reports every violation as
//! a problem and exits non-zero on it.
//!
//! [`FlightRecorder`]: crate::FlightRecorder

use crate::Event;
use std::collections::BTreeMap;
use std::path::Path;

/// A parse failure, tagged with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReadError {
    /// 1-based line number of the offending line (0 for I/O failures).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.reason)
        } else {
            write!(f, "line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for TraceReadError {}

/// A span begin/end pair reconstructed from a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span id shared by the begin and end events, unique within the
    /// capture.
    pub id: u64,
    /// The span label (`attack.layer`, `broker.batch`, …).
    pub label: String,
    /// The begin event's label-specific payload (layer index, wave
    /// number, batch rows…).
    pub arg: u64,
    /// Begin timestamp (nanos since the recorder was created).
    pub begin_t: u64,
    /// End timestamp.
    pub end_t: u64,
    /// Index of the begin event in [`Trace::events`].
    pub begin_index: usize,
    /// Index of the end event.
    pub end_index: usize,
}

impl SpanRecord {
    /// End minus begin, in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_t.saturating_sub(self.begin_t)
    }
}

/// A parsed capture: the typed event stream plus the derived span and
/// counter model.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Parses a JSONL capture. Every line must be one valid event; blank
    /// lines (other than the trailing newline) and malformed lines are
    /// rejected with their line number, because the recorder never writes
    /// them — their presence means the capture is corrupt.
    pub fn parse(text: &str) -> Result<Trace, TraceReadError> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let event = Event::from_jsonl(line).map_err(|reason| TraceReadError {
                line: i + 1,
                reason,
            })?;
            events.push(event);
        }
        Ok(Trace { events })
    }

    /// Reads and parses a capture file.
    pub fn read_file(path: &Path) -> Result<Trace, TraceReadError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceReadError {
            line: 0,
            reason: format!("cannot read {path:?}: {e}"),
        })?;
        Trace::parse(&text)
    }

    /// The typed events, in capture order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of all counter events with `label`, across every scope.
    pub fn counter_total(&self, label: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Counter {
                    label: l, value, ..
                } if l == label => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// Per-`(label, scope)` counter totals; unscoped counters appear
    /// under scope `None`.
    #[allow(clippy::type_complexity)]
    pub fn counter_totals(&self) -> BTreeMap<(String, Option<String>), u64> {
        let mut totals = BTreeMap::new();
        for event in &self.events {
            if let Event::Counter {
                label,
                scope,
                value,
                ..
            } = event
            {
                *totals
                    .entry((label.to_string(), scope.as_ref().map(|s| s.to_string())))
                    .or_insert(0u64) += value;
            }
        }
        totals
    }

    /// Pairs every span begin with its end, in begin order. Errors on an
    /// end without a begin, a label mismatch within a pair, or a begin
    /// left open at the end of the capture — all writer-contract
    /// violations a truncated or corrupt file would exhibit.
    pub fn spans(&self) -> Result<Vec<SpanRecord>, TraceReadError> {
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
        let mut records = Vec::new();
        for (i, event) in self.events.iter().enumerate() {
            match event {
                Event::SpanBegin { id, .. } => {
                    if open.insert(*id, i).is_some() {
                        return Err(TraceReadError {
                            line: i + 1,
                            reason: format!("span id {id} opened twice"),
                        });
                    }
                }
                Event::SpanEnd { id, label, t } => {
                    let Some(begin_index) = open.remove(id) else {
                        return Err(TraceReadError {
                            line: i + 1,
                            reason: format!("span id {id} ended without a begin"),
                        });
                    };
                    let Event::SpanBegin {
                        label: begin_label,
                        arg,
                        t: begin_t,
                        ..
                    } = &self.events[begin_index]
                    else {
                        unreachable!("open table only holds begin indices");
                    };
                    if begin_label != label {
                        return Err(TraceReadError {
                            line: i + 1,
                            reason: format!(
                                "span id {id} began as '{begin_label}' but ended as '{label}'"
                            ),
                        });
                    }
                    records.push(SpanRecord {
                        id: *id,
                        label: label.to_string(),
                        arg: *arg,
                        begin_t: *begin_t,
                        end_t: *t,
                        begin_index,
                        end_index: i,
                    });
                }
                Event::Counter { .. } => {}
            }
        }
        if let Some((id, begin_index)) = open.iter().next() {
            return Err(TraceReadError {
                line: begin_index + 1,
                reason: format!("span id {id} never ended (truncated capture?)"),
            });
        }
        records.sort_by_key(|r| r.begin_index);
        Ok(records)
    }

    /// Runs every recorder-invariant check and returns the violations:
    /// span pairing (via [`Trace::spans`]) and arrival-order timestamp
    /// monotonicity. An empty result means the capture honours the wire
    /// contract end to end.
    pub fn check(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if let Err(e) = self.spans() {
            issues.push(e.to_string());
        }
        let mut last_t = 0u64;
        for (i, event) in self.events.iter().enumerate() {
            let t = match event {
                Event::SpanBegin { t, .. }
                | Event::SpanEnd { t, .. }
                | Event::Counter { t, .. } => *t,
            };
            if t < last_t {
                issues.push(format!(
                    "line {}: timestamp {t} precedes previous event's {last_t} (arrival order must be monotone)",
                    i + 1
                ));
            }
            last_t = t;
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, Label};

    fn capture() -> String {
        let flight = FlightRecorder::new();
        {
            let _outer = flight.span("test.outer", 3);
            {
                let _inner = flight.span("test.inner", 9);
                flight.counter("test.items", 5);
                flight.scoped_counter("test.rows", "learning_attack", 40);
                flight.scoped_counter("test.rows", "error_correction", 2);
            }
            flight.counter("test.items", 7);
        }
        flight.to_jsonl()
    }

    #[test]
    fn parse_recovers_the_recorded_stream() {
        let text = capture();
        let trace = Trace::parse(&text).unwrap();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.counter_total("test.items"), 12);
        assert_eq!(trace.counter_total("test.rows"), 42);
        let totals = trace.counter_totals();
        assert_eq!(
            totals[&("test.rows".to_string(), Some("learning_attack".to_string()))],
            40
        );
        assert_eq!(totals[&("test.items".to_string(), None)], 12);
        assert!(trace.check().is_empty(), "{:?}", trace.check());
    }

    #[test]
    fn spans_pair_in_begin_order_with_durations() {
        let trace = Trace::parse(&capture()).unwrap();
        let spans = trace.spans().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].label, "test.outer");
        assert_eq!(spans[0].arg, 3);
        assert_eq!(spans[1].label, "test.inner");
        assert_eq!(spans[1].arg, 9);
        // Inner nests inside outer: begins after, ends before.
        assert!(spans[1].begin_index > spans[0].begin_index);
        assert!(spans[1].end_index < spans[0].end_index);
        assert!(spans[0].duration_nanos() >= spans[1].duration_nanos());
    }

    #[test]
    fn malformed_lines_carry_their_line_number() {
        let mut text = capture();
        text.push_str("{\"ev\":\"warp\"}\n");
        let err = Trace::parse(&text).unwrap_err();
        assert_eq!(err.line, 9);
        assert!(err.to_string().contains("line 9"), "{err}");
        assert!(Trace::parse("not json\n").is_err());
        // Blank interior lines are a corruption signal, not padding.
        assert!(Trace::parse("\n").is_err());
    }

    #[test]
    fn truncated_and_mismatched_captures_fail_the_span_check() {
        let begin = Event::SpanBegin {
            id: 1,
            label: Label::Borrowed("test.only"),
            arg: 0,
            t: 1,
        };
        let dangling = Trace::parse(&(begin.to_jsonl() + "\n")).unwrap();
        let err = dangling.spans().unwrap_err();
        assert!(err.reason.contains("never ended"), "{err}");
        assert_eq!(dangling.check().len(), 1);

        let end = Event::SpanEnd {
            id: 2,
            label: Label::Borrowed("test.only"),
            t: 2,
        };
        let orphan = Trace::parse(&(end.to_jsonl() + "\n")).unwrap();
        assert!(orphan
            .spans()
            .unwrap_err()
            .reason
            .contains("without a begin"));

        let relabelled = Event::SpanEnd {
            id: 1,
            label: Label::Borrowed("test.other"),
            t: 2,
        };
        let mismatch =
            Trace::parse(&(begin.to_jsonl() + "\n" + &relabelled.to_jsonl() + "\n")).unwrap();
        assert!(mismatch.spans().unwrap_err().reason.contains("began as"));
    }

    #[test]
    fn non_monotone_timestamps_fail_the_check() {
        let a = Event::Counter {
            label: Label::Borrowed("test.a"),
            scope: None,
            value: 1,
            t: 10,
        };
        let b = Event::Counter {
            label: Label::Borrowed("test.b"),
            scope: None,
            value: 1,
            t: 5,
        };
        let trace = Trace::parse(&(a.to_jsonl() + "\n" + &b.to_jsonl() + "\n")).unwrap();
        let issues = trace.check();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("monotone"), "{issues:?}");
    }
}
