//! The [`FlightRecorder`]: one run's event buffer, which drains to JSONL.

use crate::{Event, Label};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Records one run's events in arrival order behind one mutex.
///
/// The recorder is the run's handle: whoever starts the run creates one
/// and hands it to the run's broker, and every instrumentation site
/// reaches it through that broker. Two runs with two recorders never see
/// each other's events.
///
/// Each event is stamped and, for a span begin, given its id while the
/// buffer lock is held, so timestamps never decrease in arrival order,
/// even when worker threads record at once (`Trace::check` verifies it).
/// Each span's begin precedes its end.
#[derive(Debug)]
pub struct FlightRecorder {
    /// The zero of every event's `t`.
    anchor: Instant,
    buf: Mutex<Buffer>,
}

#[derive(Debug)]
struct Buffer {
    events: Vec<Event>,
    next_span_id: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            anchor: Instant::now(),
            buf: Mutex::new(Buffer {
                events: Vec::new(),
                next_span_id: 1,
            }),
        }
    }
}

impl FlightRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Stamps and appends the event `make` builds from the timestamp,
    /// both under the buffer lock.
    fn push(&self, make: impl FnOnce(&mut Buffer, u64) -> Event) {
        let mut buf = self.buf.lock().expect("flight buffer poisoned");
        let t = self.anchor.elapsed().as_nanos() as u64;
        let event = make(&mut buf, t);
        buf.events.push(event);
    }

    /// Records a counter increment.
    pub fn counter(&self, label: &'static str, value: u64) {
        self.push(|_, t| Event::Counter {
            label: Label::Borrowed(label),
            scope: None,
            value,
            t,
        });
    }

    /// Records a counter increment tagged with a procedure scope (the
    /// broker's per-scope accounting labels).
    pub fn scoped_counter(&self, label: &'static str, scope: &'static str, value: u64) {
        self.push(|_, t| Event::Counter {
            label: Label::Borrowed(label),
            scope: Some(Label::Borrowed(scope)),
            value,
            t,
        });
    }

    /// Opens a span; the returned guard records the matching end when it
    /// drops.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, label: &'static str, arg: u64) -> SpanGuard<'_> {
        let mut id = 0;
        self.push(|buf, t| {
            id = buf.next_span_id;
            buf.next_span_id += 1;
            Event::SpanBegin {
                id,
                label: Label::Borrowed(label),
                arg,
                t,
            }
        });
        SpanGuard {
            recorder: self,
            id,
            label,
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.buf
            .lock()
            .expect("flight buffer poisoned")
            .events
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("flight buffer poisoned")
            .events
            .clone()
    }

    /// The recorded events encoded as JSONL (one event per line, trailing
    /// newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let buf = self.buf.lock().expect("flight buffer poisoned");
        let mut out = String::new();
        for event in &buf.events {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Writes the recorded events as JSONL to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.flush()
    }
}

/// An open span of a [`FlightRecorder`] (see [`FlightRecorder::span`]).
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a FlightRecorder,
    id: u64,
    label: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (id, label) = (self.id, self.label);
        self.recorder.push(|_, t| Event::SpanEnd {
            id,
            label: Label::Borrowed(label),
            t,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let flight = FlightRecorder::new();
        {
            let _outer = flight.span("test.outer", 1);
            let _inner = flight.span("test.inner", 2);
            flight.counter("test.work", 5);
            flight.counter("test.work", 7);
            flight.scoped_counter("test.rows", "learning_attack", 3);
        }
        let trace = Trace::parse(&flight.to_jsonl()).unwrap();
        assert_eq!(trace.len(), 7);
        assert_eq!(trace.counter_total("test.work"), 12);
        assert_eq!(
            trace.counter_totals()[&("test.rows".to_string(), Some("learning_attack".to_string()))],
            3
        );
        // Begin/end ids pair up and close innermost-first.
        let spans = trace.spans().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].label.as_str(), spans[0].arg), ("test.outer", 1));
        assert_eq!((spans[1].label.as_str(), spans[1].arg), ("test.inner", 2));
        assert!(spans[1].end_index < spans[0].end_index);
        assert!(trace.check().is_empty(), "{:?}", trace.check());
    }

    /// Concurrent writers interleave, but every stamp is taken under the
    /// buffer lock, so arrival order and time order agree.
    #[test]
    fn four_writer_threads_leave_a_capture_that_passes_the_check() {
        let flight = FlightRecorder::new();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let flight = &flight;
                scope.spawn(move || {
                    for i in 0..2_000 {
                        let _span = flight.span("test.work", w);
                        flight.counter("test.items", i);
                    }
                });
            }
        });
        let trace = Trace::parse(&flight.to_jsonl()).unwrap();
        assert_eq!(trace.len(), 4 * 2_000 * 3);
        assert!(trace.check().is_empty(), "{:?}", trace.check());
        // Span ids are unique within the capture.
        assert_eq!(trace.spans().unwrap().len(), 4 * 2_000);
    }

    #[test]
    fn jsonl_drain_round_trips_every_line() {
        let rec = FlightRecorder::new();
        rec.counter("checkpoint.write", 812);
        drop(rec.span("broker.batch", 16));
        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let decoded: Vec<Event> = lines
            .iter()
            .map(|l| Event::from_jsonl(l).unwrap())
            .collect();
        assert_eq!(decoded, rec.events());
        // Re-encoding the decoded events reproduces the file byte-for-byte.
        let reencoded: String = decoded.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(reencoded, text);
    }
}
