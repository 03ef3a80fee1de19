//! `bds-metrics` — live telemetry for the batch-scheduling simulator.
//!
//! Three pieces, all dependency-free:
//!
//! * [`hist`] — [`LogHistogram`], an HDR-style log-bucketed histogram
//!   with ≤ 1 % relative error, exact merge, and O(1) recording. This
//!   replaces the legacy 1-second-bin percentile path in the simulator
//!   report.
//! * [`series`] — [`TimeSeries`] (fixed-Δt named columns) and
//!   [`Sampler`], the enum-dispatch handle that keeps sampling at one
//!   predictable branch per event when disabled, mirroring
//!   `bds-trace::Tracer`.
//! * [`export`]/[`jsonv`]/[`regress`] — Prometheus text and sparkline
//!   rendering, a JSON reader, and the exact bench-regression comparison
//!   core of the `benchdiff` CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod jsonv;
pub mod regress;
pub mod series;

pub use export::{check_exposition, sparkline, PromText};
pub use hist::{LogHistogram, REL_ERROR, TICKS_PER_SEC};
pub use jsonv::{parse, JsonValue};
pub use regress::{compare, DiffReport};
pub use series::{ActiveSampler, Sampler, TimeSeries};
