//! The structured events a [`FlightRecorder`](crate::FlightRecorder)
//! records, and their JSONL wire form.
//!
//! Three event shapes cover the whole instrumentation surface:
//!
//! * span begin/end pairs (matched by `id`) for nested work — layers,
//!   correction waves, broker batches;
//! * counters for monotone totals — broker rows, retries, injected
//!   faults, checkpoint bytes — optionally tagged with the broker's
//!   procedure scope so the trace books can be reconciled against
//!   `QueryStatsSnapshot` per-scope accounting.
//!
//! Every event encodes to exactly one JSON line with a fixed key order
//! and canonical integer tokens, so `from_jsonl(to_jsonl(e)) == e` and
//! re-encoding a parsed line reproduces it byte-for-byte.

use crate::json::Value;
use std::borrow::Cow;

/// An event label: a `&'static str` at recording sites, an owned string
/// after parsing a JSONL line back in.
pub type Label = Cow<'static, str>;

/// One structured trace event. Timestamps (`t`) are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A span opened: `id` is unique within the capture, `arg` is a
    /// label-specific payload (layer index, wave number, batch rows…).
    SpanBegin {
        id: u64,
        label: Label,
        arg: u64,
        t: u64,
    },
    /// The matching close of span `id`.
    SpanEnd { id: u64, label: Label, t: u64 },
    /// A monotone counter increment, optionally tagged with the active
    /// broker procedure scope.
    Counter {
        label: Label,
        scope: Option<Label>,
        value: u64,
        t: u64,
    },
}

impl Event {
    /// The event's label.
    pub fn label(&self) -> &str {
        match self {
            Event::SpanBegin { label, .. }
            | Event::SpanEnd { label, .. }
            | Event::Counter { label, .. } => label,
        }
    }

    /// Encodes the event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let fields = match self {
            Event::SpanBegin { id, label, arg, t } => vec![
                ("ev".to_string(), Value::str("begin")),
                ("id".to_string(), Value::num_u64(*id)),
                ("label".to_string(), Value::str(label.as_ref())),
                ("arg".to_string(), Value::num_u64(*arg)),
                ("t".to_string(), Value::num_u64(*t)),
            ],
            Event::SpanEnd { id, label, t } => vec![
                ("ev".to_string(), Value::str("end")),
                ("id".to_string(), Value::num_u64(*id)),
                ("label".to_string(), Value::str(label.as_ref())),
                ("t".to_string(), Value::num_u64(*t)),
            ],
            Event::Counter {
                label,
                scope,
                value,
                t,
            } => {
                let mut fields = vec![
                    ("ev".to_string(), Value::str("count")),
                    ("label".to_string(), Value::str(label.as_ref())),
                ];
                if let Some(scope) = scope {
                    fields.push(("scope".to_string(), Value::str(scope.as_ref())));
                }
                fields.push(("value".to_string(), Value::num_u64(*value)));
                fields.push(("t".to_string(), Value::num_u64(*t)));
                fields
            }
        };
        Value::Obj(fields).to_compact()
    }

    /// Decodes one JSON line produced by [`Event::to_jsonl`].
    pub fn from_jsonl(line: &str) -> Result<Event, String> {
        let doc = Value::parse(line).map_err(|e| e.to_string())?;
        let field_u64 = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let field_str = |key: &str| -> Result<Label, String> {
            doc.get(key)
                .and_then(Value::as_str)
                .map(|s| Label::Owned(s.to_string()))
                .ok_or_else(|| format!("missing or non-string field '{key}'"))
        };
        match doc.get("ev").and_then(Value::as_str) {
            Some("begin") => Ok(Event::SpanBegin {
                id: field_u64("id")?,
                label: field_str("label")?,
                arg: field_u64("arg")?,
                t: field_u64("t")?,
            }),
            Some("end") => Ok(Event::SpanEnd {
                id: field_u64("id")?,
                label: field_str("label")?,
                t: field_u64("t")?,
            }),
            Some("count") => Ok(Event::Counter {
                label: field_str("label")?,
                scope: match doc.get("scope") {
                    Some(v) => Some(Label::Owned(
                        v.as_str().ok_or("non-string 'scope'")?.to_string(),
                    )),
                    None => None,
                },
                value: field_u64("value")?,
                t: field_u64("t")?,
            }),
            Some(other) => Err(format!("unknown event kind '{other}'")),
            None => Err("missing 'ev' field".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::SpanBegin {
                id: 1,
                label: Label::Borrowed("attack.layer"),
                arg: 0,
                t: 17,
            },
            Event::SpanEnd {
                id: 1,
                label: Label::Borrowed("attack.layer"),
                t: 912,
            },
            Event::Counter {
                label: Label::Borrowed("checkpoint.write"),
                scope: None,
                value: 812,
                t: 44,
            },
            Event::Counter {
                label: Label::Borrowed("broker.underlying"),
                scope: Some(Label::Borrowed("key_bit_inference")),
                value: 96,
                t: 1_000_000_007,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        for event in samples() {
            let line = event.to_jsonl();
            let back = Event::from_jsonl(&line).unwrap();
            assert_eq!(back, event);
            assert_eq!(back.to_jsonl(), line, "re-emit must be byte-equal");
        }
    }

    #[test]
    fn wire_form_is_stable() {
        assert_eq!(
            samples()[0].to_jsonl(),
            r#"{"ev":"begin","id":1,"label":"attack.layer","arg":0,"t":17}"#
        );
        assert_eq!(
            samples()[3].to_jsonl(),
            r#"{"ev":"count","label":"broker.underlying","scope":"key_bit_inference","value":96,"t":1000000007}"#
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            r#"{"ev":"warp","t":1}"#,
            r#"{"ev":"count","label":"x","value":-1,"t":1}"#,
            r#"{"ev":"begin","id":1,"label":"x","t":1}"#,
        ] {
            assert!(Event::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }
}
