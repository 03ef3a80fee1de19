//! # bds-trace — event tracing for the batch-transaction simulator
//!
//! The paper's results are *explained* by where time goes — lock-wait
//! vs. CPU vs. restarted work under each scheduler — but an end-of-run
//! report cannot show that. This crate provides the observability
//! substrate:
//!
//! * [`event`] — a typed event model over the full transaction
//!   lifecycle, including scheduler refusal reasons;
//! * [`sink`] — the [`Tracer`] handle (enum dispatch: the disabled path
//!   is a single branch, no event construction, no virtual call) and a
//!   bounded [`RingRecorder`];
//! * [`analyze`] — fold a trace into per-transaction span summaries,
//!   per-file contention tallies and a wait-for critical-path report;
//! * [`chrome`] — export to Chrome `trace_event` JSON, viewable in
//!   `chrome://tracing` or Perfetto;
//! * [`json`] — the workspace's hand-rolled JSON writers (no external
//!   serialization dependency anywhere in the workspace).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod chrome;
pub mod event;
pub mod json;
pub mod sink;

pub use analyze::{Analysis, Breakdown, CriticalPath, FileStats, TxnSpan};
pub use chrome::chrome_trace;
pub use event::{AbortCause, EventKind, Rec};
pub use json::{JsonArr, JsonObj};
pub use sink::{Counts, RingRecorder, TraceData, Tracer};
