//! Flight-recorder observability: a zero-dependency structured-event
//! layer (DESIGN.md §3f).
//!
//! A [`FlightRecorder`] belongs to one run. Whoever starts the run (the
//! CLI's `attack --trace`, a test) creates it and attaches it to the
//! run's query broker; the broker, its stats and the attack driver record
//! through that handle, and a run without one records nothing at the cost
//! of an `Option` check. Two concurrent runs with their own recorders
//! produce two separate, complete captures.
//!
//! Events carry `&'static str` labels from a fixed catalogue (see
//! DESIGN.md §3f) and encode to JSONL via [`Event::to_jsonl`]; a captured
//! file parses back into typed events, paired spans, and per-`(label,
//! scope)` counter books via [`Trace`].
//!
//! ```
//! use relock_trace::{FlightRecorder, Trace};
//!
//! let flight = FlightRecorder::new();
//! {
//!     let _span = flight.span("example.work", 7);
//!     flight.counter("example.items", 3);
//! }
//! let trace = Trace::parse(&flight.to_jsonl()).unwrap();
//! assert_eq!(trace.counter_total("example.items"), 3);
//! assert_eq!(trace.spans().unwrap().len(), 1);
//! assert!(trace.check().is_empty());
//! ```

pub mod json;

mod event;
mod flight;
mod reader;

pub use event::{Event, Label};
pub use flight::{FlightRecorder, SpanGuard};
pub use reader::{SpanRecord, Trace, TraceReadError};
