//! # bds-des — discrete-event simulation kernel
//!
//! This crate provides the simulation substrate used by the `batchsched`
//! reproduction of *"Scheduling Batch Transactions on Shared-Nothing Parallel
//! Database Machines"* (Ohmori, Kitsuregawa, Tanaka — ICDE 1991):
//!
//! * [`SimTime`] / [`Duration`] — a millisecond-resolution simulated clock
//!   (the paper uses `1 clock = 1 ms`).
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   ordering of simultaneous events, backed by a `std` binary heap on
//!   (firing time, insertion sequence).
//! * [`rng::Xoshiro256`] — a small, fast, fully deterministic PRNG so that
//!   simulation results are reproducible across platforms and do not depend
//!   on third-party RNG version churn.
//! * [`dist`] — the distributions the paper's workloads need (exponential
//!   inter-arrival times, normally distributed I/O-demand estimation error,
//!   uniform file choice).
//! * [`stats`] — online statistics: Welford mean/variance, histograms,
//!   time-weighted averages (for utilization), and batch-means confidence
//!   intervals.
//! * [`fcfs::FcfsServer`] — an analytic single-server FCFS queue used to
//!   model the control node's CPU.
//!
//! Everything here is deliberately free of unsafe code and external runtime
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod events;
pub mod fcfs;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use time::{Duration, SimTime};
