//! The typed trace event model.
//!
//! One [`Rec`] per observable simulator action, covering the full
//! transaction lifecycle: arrival, admission, lock request/grant/block/
//! deny, WTPG edge insertion, per-DPN cohort execution and round-robin
//! CPU quanta, control-node CPU bursts, certification, commit, abort and
//! restart. Scheduler refusals carry a static `reason` string (e.g.
//! C2PL's `"predicted-deadlock"`, LOW's `"E(q)>E(p)"`, GOW's
//! `"critical-path"`), so analyzers can attribute denied time to policy.

use bds_des::time::{Duration, SimTime};
use bds_workload::FileId;
use bds_wtpg::TxnId;

/// One trace record: the instant it was emitted plus its payload.
///
/// Span-like events ([`EventKind::Quantum`], [`EventKind::CnCpu`]) carry
/// their own `start`; `at` is the span's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Emission time (for spans: the end of the span).
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Why a transaction attempt was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// OPT certification failed at commit.
    Validation,
    /// The scheduler ordered a restart (restart-oriented protocols).
    Scheduler,
    /// An injected fault (DPN crash) destroyed the attempt's cohorts.
    Fault,
}

/// The payload of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction arrived and was registered with the scheduler.
    Arrival {
        /// The arriving transaction.
        txn: TxnId,
    },
    /// Admission granted: the transaction is live (and, under ASL, holds
    /// its whole lock set).
    Admit {
        /// The admitted transaction.
        txn: TxnId,
    },
    /// Admission refused by the scheduler; the transaction stays queued.
    AdmitRefuse {
        /// The refused transaction.
        txn: TxnId,
        /// Policy reason (`"chain-form"`, `"k-conflict"`, …).
        reason: &'static str,
    },
    /// A lock request was submitted to the scheduler.
    LockRequest {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// File whose lock is requested.
        file: FileId,
    },
    /// The lock request was granted.
    LockGrant {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Granted file.
        file: FileId,
    },
    /// The request conflicts with a currently held lock (the paper's
    /// "blocked").
    LockBlock {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Contested file.
        file: FileId,
        /// Why the scheduler blocked it.
        reason: &'static str,
    },
    /// The request was refused by scheduler policy (the paper's
    /// "delayed").
    LockDeny {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Contested file.
        file: FileId,
        /// Policy reason (`"predicted-deadlock"`, `"E(q)>E(p)"`, …).
        reason: &'static str,
    },
    /// The scheduler ordered the requester aborted and restarted
    /// (restart-oriented protocols such as WDL).
    LockRestart {
        /// Requesting transaction.
        txn: TxnId,
        /// Step index within the transaction.
        step: u32,
        /// Contested file.
        file: FileId,
        /// Policy reason (`"wait-depth"`, …).
        reason: &'static str,
    },
    /// A precedence edge `from → to` entered the wait-for/WTPG state.
    WtpgEdge {
        /// Transaction ordered first.
        from: TxnId,
        /// Transaction ordered after `from`.
        to: TxnId,
    },
    /// A step's cohorts were dispatched to their DPNs.
    StepDispatch {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
    },
    /// Every cohort of the step finished and the completion message was
    /// processed at the control node.
    StepDone {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
    },
    /// One cohort of a step entered a DPN's ready queue.
    CohortStart {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
        /// The DPN serving this cohort.
        node: u32,
    },
    /// One cohort of a step completed its scan on a DPN.
    CohortFinish {
        /// Owning transaction.
        txn: TxnId,
        /// Step index.
        step: u32,
        /// The DPN that served this cohort.
        node: u32,
    },
    /// A round-robin CPU slice `[start, at]` ran on a DPN.
    Quantum {
        /// Transaction whose cohort ran.
        txn: TxnId,
        /// The DPN the slice ran on.
        node: u32,
        /// Slice start (the record's `at` is the slice end).
        start: SimTime,
    },
    /// A CPU burst `[start, at]` served by the control node's FCFS CPU.
    CnCpu {
        /// Transaction the burst was charged to, when attributable.
        txn: Option<TxnId>,
        /// What the burst paid for (`"sot"`, `"sched"`, `"msg"`, `"cot"`).
        what: &'static str,
        /// Burst start (the record's `at` is the burst end).
        start: SimTime,
    },
    /// Commit certification verdict (locking schedulers always pass; OPT
    /// validates backward).
    Certify {
        /// The certified transaction.
        txn: TxnId,
        /// Whether certification passed.
        ok: bool,
    },
    /// The transaction committed.
    Commit {
        /// The committed transaction.
        txn: TxnId,
    },
    /// The transaction's current attempt was aborted.
    Abort {
        /// The aborted transaction.
        txn: TxnId,
        /// Why the attempt died.
        cause: AbortCause,
    },
    /// The transaction re-entered the start queue after its restart
    /// delay.
    Restart {
        /// The restarting transaction.
        txn: TxnId,
    },
    /// A fault-plan action fired (DPN crash, CN stall, link loss, …).
    FaultInjected {
        /// The affected DPN, or `None` for machine-wide faults (CN
        /// stalls, link faults).
        node: Option<u32>,
        /// What happened (`"dpn-crash"`, `"cn-stall"`, `"link-loss"`).
        what: &'static str,
        /// How long the fault lasts when the action fixes it up front
        /// (CN stalls); zero otherwise.
        dur: Duration,
    },
    /// A transaction was dropped permanently after exhausting its
    /// fault-retry budget.
    TxnKilled {
        /// The killed transaction.
        txn: TxnId,
        /// How many times it had been fault-killed (== the retry cap).
        attempts: u32,
    },
    /// A crashed DPN came back up and accepts cohorts again.
    NodeRecovered {
        /// The recovered DPN.
        node: u32,
    },
}

impl EventKind {
    /// Short static name of the event kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::Admit { .. } => "admit",
            EventKind::AdmitRefuse { .. } => "admit_refuse",
            EventKind::LockRequest { .. } => "lock_request",
            EventKind::LockGrant { .. } => "lock_grant",
            EventKind::LockBlock { .. } => "lock_block",
            EventKind::LockDeny { .. } => "lock_deny",
            EventKind::LockRestart { .. } => "lock_restart",
            EventKind::WtpgEdge { .. } => "wtpg_edge",
            EventKind::StepDispatch { .. } => "step_dispatch",
            EventKind::StepDone { .. } => "step_done",
            EventKind::CohortStart { .. } => "cohort_start",
            EventKind::CohortFinish { .. } => "cohort_finish",
            EventKind::Quantum { .. } => "quantum",
            EventKind::CnCpu { .. } => "cn_cpu",
            EventKind::Certify { .. } => "certify",
            EventKind::Commit { .. } => "commit",
            EventKind::Abort { .. } => "abort",
            EventKind::Restart { .. } => "restart",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::TxnKilled { .. } => "txn_killed",
            EventKind::NodeRecovered { .. } => "node_recovered",
        }
    }

    /// The transaction this event belongs to, when there is exactly one.
    pub fn txn(&self) -> Option<TxnId> {
        match *self {
            EventKind::Arrival { txn }
            | EventKind::Admit { txn }
            | EventKind::AdmitRefuse { txn, .. }
            | EventKind::LockRequest { txn, .. }
            | EventKind::LockGrant { txn, .. }
            | EventKind::LockBlock { txn, .. }
            | EventKind::LockDeny { txn, .. }
            | EventKind::LockRestart { txn, .. }
            | EventKind::StepDispatch { txn, .. }
            | EventKind::StepDone { txn, .. }
            | EventKind::CohortStart { txn, .. }
            | EventKind::CohortFinish { txn, .. }
            | EventKind::Quantum { txn, .. }
            | EventKind::Certify { txn, .. }
            | EventKind::Commit { txn }
            | EventKind::Abort { txn, .. }
            | EventKind::Restart { txn }
            | EventKind::TxnKilled { txn, .. } => Some(txn),
            EventKind::CnCpu { txn, .. } => txn,
            EventKind::WtpgEdge { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::NodeRecovered { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_txn_extraction() {
        let k = EventKind::Commit { txn: TxnId(7) };
        assert_eq!(k.name(), "commit");
        assert_eq!(k.txn(), Some(TxnId(7)));
        let e = EventKind::WtpgEdge {
            from: TxnId(1),
            to: TxnId(2),
        };
        assert_eq!(e.txn(), None);
        let c = EventKind::CnCpu {
            txn: None,
            what: "sot",
            start: SimTime::ZERO,
        };
        assert_eq!(c.txn(), None);
        assert_eq!(c.name(), "cn_cpu");
    }
}
