//! # bds-engine — the incremental step engine behind `batchsched`
//!
//! The simulator's event loop, factored into an [`engine::Engine`] that
//! can be driven one event at a time. Three layers live here:
//!
//! * [`engine::Engine`] — the event core: [`engine::Engine::step`] pops
//!   exactly one event, and [`engine::Engine::step_records`] also hands
//!   back the trace records it produced (grants, blocks, restarts,
//!   commits, fault transitions); [`engine::Engine::run_until`] and
//!   [`engine::Engine::run_to_horizon`] drive the same loop in bulk,
//!   and [`engine::Engine::run`] wraps build, run and report in one
//!   call. Exactly one event loop exists in the workspace.
//! * **Checkpoint/restore** — the run is deterministic, so
//!   [`engine::Engine::snapshot`] captures its *inputs*: the
//!   configuration's cache key plus every external call that changes
//!   state (submit, scheduler swap, sampler on/off), in a [`Snapshot`]
//!   that round-trips through the workspace's hand-rolled JSON layer;
//!   [`engine::Engine::restore`] replays them against a fresh engine,
//!   whose continuation is byte-identical to the uninterrupted run.
//! * **Service front** — the `bds-serve` binary speaks NDJSON over
//!   stdin/stdout (or a TCP socket) and exposes submit / step /
//!   run-until / snapshot / restore / scheduler hot-swap / metrics
//!   streaming on top of a long-lived engine.
//!
//! The simulator-facing modules [`config`] and [`metrics`] moved here
//! from the `batchsched` crate, which re-exports them under their old
//! paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod snapshot;

pub use config::{SimConfig, WorkloadKind};
pub use engine::{validate_spec, AbortCause, Engine};
pub use metrics::SimReport;
pub use snapshot::Snapshot;
