//! # bds-machine — shared-nothing machine model
//!
//! Implements the paper's §4.1 machine: one **control node** (CN) that
//! owns the file-level lock table and coordinates two-phase commit, plus
//! `NumNodes` **data-processing nodes** (DPNs) that execute file scans.
//!
//! * [`placement::Placement`] — file → home node mapping
//!   (`nodeID = fileID mod NumNodes`) and declustering over `DD`
//!   consecutive nodes.
//! * [`costs::CostBook`] — every constant of the paper's Table 1.
//! * [`dpn::Dpn`] — the round-robin cohort service: with declustering
//!   degree `k`, the unit of round-robin service is a scan of `1/k`
//!   object (quantum `ObjTime / k` milliseconds).
//!
//! The CN CPU itself is modeled with [`bds_des::fcfs::FcfsServer`]; the
//! event wiring lives in the `batchsched` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod dpn;
pub mod placement;

pub use costs::CostBook;
pub use dpn::{Cohort, CohortId, Dpn};
pub use placement::{NodeId, Placement};
