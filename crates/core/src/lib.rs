//! # batchsched — batch-transaction scheduling on shared-nothing parallel
//! database machines
//!
//! A full reproduction of *"Scheduling Batch Transactions on
//! Shared-Nothing Parallel Database Machines: Effects of Concurrency and
//! Parallelism"* (Ohmori, Kitsuregawa, Tanaka — ICDE 1991).
//!
//! The crate glues the substrates together into a discrete-event
//! simulator and provides drivers that regenerate every table and figure
//! of the paper's evaluation:
//!
//! * [`config::SimConfig`] — one simulation point (scheduler × workload ×
//!   arrival rate × degree of declustering × seed).
//! * [`engine::Engine`] — the event loop: Poisson arrivals at the control
//!   node, admission, file-level lock scheduling, cohort execution on the
//!   DPNs' round-robin servers, two-phase-commit cost accounting.
//! * [`metrics::SimReport`] — mean response time, throughput,
//!   utilizations, restart counts.
//! * [`driver`] — λ-sweeps, the "throughput at RT = 70 s" bisection, and
//!   response-time speedup computations used throughout §5.
//! * [`experiments`] — one entry point per paper artifact (Fig. 8–13,
//!   Tables 2–5), and [`ablations`] — sweeps of the design knobs plus a
//!   wait-depth-limited extension scheduler.
//! * [`telemetry`] (the `bds-metrics` crate) — sim-time series sampling
//!   ([`engine::Engine::run_with_metrics`]), the log-bucketed
//!   response-time histogram behind `rt_p50/p90/p99`, Prometheus/CSV/
//!   JSON exporters, and the exact-count comparison behind the
//!   `benchdiff` bench regression gate.
//!
//! ## Quickstart
//!
//! ```
//! use batchsched::config::{SimConfig, WorkloadKind};
//! use batchsched::engine::Engine;
//! use bds_sched::SchedulerKind;
//!
//! let mut cfg = SimConfig::new(SchedulerKind::Low(2), WorkloadKind::Exp1 { num_files: 16 });
//! cfg.lambda_tps = 0.6;
//! cfg.dd = 2;
//! cfg.horizon = bds_des::Duration::from_secs(2_000);
//! let report = Engine::run(&cfg);
//! assert!(report.completed > 0);
//! assert!(report.mean_rt_secs() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod driver;
pub mod experiments;
pub mod parallel;
pub mod report;

// The simulator core (config, event loop, report types) lives in the
// `bds-engine` crate since the step-engine refactor; re-export its
// modules under their historical paths so downstream code is unchanged.
pub use bds_engine::{config, metrics};

pub use config::{SimConfig, WorkloadKind};
pub use metrics::SimReport;
pub use parallel::{resolve_thread_budget, ExecCtx, PointCache};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use bds_des as des;
pub use bds_engine as engine;
pub use bds_fault as fault;
pub use bds_machine as machine;
pub use bds_metrics as telemetry;
pub use bds_obs as obs;
pub use bds_sched as sched;
pub use bds_trace as trace;
pub use bds_workload as workload;
pub use bds_wtpg as wtpg;
