//! # bds-engine — the incremental step engine behind `batchsched`
//!
//! The simulator's event loop, factored into an [`engine::Engine`] that
//! can be driven one event at a time. Three layers live here:
//!
//! * [`engine::Engine`] — the event core: [`engine::Engine::step`] pops
//!   exactly one event, and [`engine::Engine::step_records`] also hands
//!   back the trace records it produced (grants, blocks, restarts,
//!   commits, fault transitions); [`engine::Engine::run_until`] and
//!   [`engine::Engine::run_to_horizon`] drive the same loop in bulk.
//!   [`sim::Simulator`] is a thin adapter over it, so exactly one event
//!   loop exists in the workspace.
//! * **Checkpoint/restore** — [`engine::Engine::snapshot`] captures the
//!   complete simulation state (timing wheel, transaction arena, RNG
//!   streams, scheduler op-log, metrics cursors) into a [`Snapshot`]
//!   that round-trips through the workspace's hand-rolled JSON layer;
//!   [`engine::Engine::restore`] rebuilds an engine whose continuation
//!   is byte-identical to the uninterrupted run.
//! * **Service front** — the `bds-serve` binary speaks NDJSON over
//!   stdin/stdout (or a TCP socket) and exposes submit / step /
//!   run-until / snapshot / restore / scheduler hot-swap / metrics
//!   streaming on top of a long-lived engine.
//!
//! The simulator-facing modules [`config`], [`metrics`] and [`sim`]
//! moved here from the `batchsched` crate, which re-exports them under
//! their old paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arena;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod sim;
pub mod snapshot;

pub use config::{SimConfig, WorkloadKind};
pub use engine::{AbortCause, Engine};
pub use metrics::SimReport;
pub use sim::Simulator;
pub use snapshot::Snapshot;
