//! # bds-sched — concurrency-control schedulers for batch transactions
//!
//! The six schedulers evaluated by the paper, behind one [`Scheduler`]
//! trait driven by the `batchsched` simulator:
//!
//! | Scheduler | Module | Strategy |
//! |-----------|--------|----------|
//! | NODC | [`nodc`] | grant everything (performance upper bound) |
//! | ASL  | [`asl`]  | atomic static locking: all locks at start |
//! | C2PL | [`c2pl`] | cautious 2PL: block, but never toward deadlock |
//! | OPT  | [`opt`]  | optimistic: no locks, certify at commit |
//! | GOW  | [`gow`]  | chain-form WTPG, globally optimized order |
//! | LOW  | [`low`]  | K-conflict WTPG, locally optimized `E(q)` |
//!
//! (`C2PL+M` is C2PL run under a finite multiprogramming level; the
//! throttle lives in the simulator, not here.)
//!
//! Post-1991 extensions behind the same trait:
//!
//! | Scheduler | Module | Strategy |
//! |-----------|--------|----------|
//! | WDL   | [`wdl`]   | wait-depth-limited locking (restart-based) |
//! | DGCC  | [`dgcc`]  | window batching via conflict-graph coloring |
//! | BROOK | [`brook`] | deadlock-free 2PL via total lock ordering |
//!
//! Every scheduler decision reports the control-node CPU time it costs
//! (Table 1: `ddtime`, `kwtpgtime`, `chaintime`, `toptime`), which the
//! simulator serializes through the CN's FCFS CPU.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asl;
pub mod brook;
pub mod c2pl;
pub mod dgcc;
pub mod gow;
pub mod lock_table;
pub mod low;
pub mod nodc;
pub mod opt;
pub mod wdl;
pub mod wtpg_core;

use bds_des::time::Duration;
use bds_machine::CostBook;
use bds_workload::{BatchSpec, FileId};
use bds_wtpg::TxnId;

/// Admission decision for a transaction attempting to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDecision {
    /// The transaction becomes live and may issue its first lock request.
    Admit,
    /// The transaction cannot start now (GOW's chain-form abort, LOW's
    /// K-conflict refusal, ASL's unavailable lock set); it stays queued
    /// and is retried later.
    Refuse,
}

/// Decision on a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqDecision {
    /// Lock granted; the step may execute.
    Granted,
    /// Conflicts with a currently *held* lock; retry when the file's
    /// locks are released (the paper's "blocked").
    Blocked,
    /// Refused by scheduler policy (deadlock prediction, inconsistency
    /// with the optimal order, losing the `E(q)` comparison); retried
    /// after a delay or on a state change (the paper's "delayed").
    Delayed,
    /// The requesting transaction must abort and restart from its first
    /// step (used by restart-oriented protocols such as the wait-depth
    /// limited extension scheduler; none of the paper's six locking
    /// protocols restarts).
    Restart,
}

/// A decision together with the control-node CPU time it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome<D> {
    /// The decision.
    pub decision: D,
    /// CPU time to charge on the control node.
    pub cpu: Duration,
    /// Short static policy reason for a refusal/denial decision, surfaced
    /// in traces (e.g. `"predicted-deadlock"`, `"E(q)>E(p)"`). `None` for
    /// grants and for decisions whose cause is self-evident.
    pub reason: Option<&'static str>,
    /// `Some(file)` marks a refusal that **stands**: asked the same
    /// question again, the scheduler would return the same `decision`,
    /// `cpu` and `reason`, and change none of its own state, for as long
    /// as no transaction that holds or declares `file` leaves the live
    /// set (commits, aborts or is forgotten). The simulator then replays
    /// the refusal without calling the scheduler until such a departure.
    ///
    /// Only mark a refusal whose inputs are the lock row or the declarer
    /// row of `file` and which that row's growth cannot undo. `None`
    /// (the default) means the answer may change with any state change.
    pub until_release: Option<FileId>,
}

impl<D> Outcome<D> {
    /// A decision that consumed no measurable CPU.
    pub fn free(decision: D) -> Self {
        Outcome {
            decision,
            cpu: Duration::ZERO,
            reason: None,
            until_release: None,
        }
    }

    /// A decision with a CPU charge.
    pub fn costed(decision: D, cpu: Duration) -> Self {
        Outcome {
            decision,
            cpu,
            reason: None,
            until_release: None,
        }
    }

    /// Attach a policy reason (builder-style).
    pub fn because(mut self, reason: &'static str) -> Self {
        self.reason = Some(reason);
        self
    }

    /// Mark the refusal as standing until a holder or declarer of `file`
    /// leaves the live set (builder-style; see
    /// [`Outcome::until_release`]).
    pub fn until_released(mut self, file: FileId) -> Self {
        self.until_release = Some(file);
        self
    }
}

/// A cheap snapshot of scheduler-internal state, sampled by the metrics
/// subsystem at its Δt grid points (never on the per-event hot path, so
/// an O(edges) walk is acceptable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTelemetry {
    /// File locks currently held across all live transactions.
    pub locks_held: usize,
    /// Transactions tracked in the WTPG (0 for non-WTPG schedulers).
    pub wtpg_nodes: usize,
    /// Undirected pair edges in the WTPG (0 for non-WTPG schedulers).
    pub wtpg_edges: usize,
    /// Slots allocated in the WTPG arena (live + free-listed); 0 for
    /// non-WTPG schedulers. Leak invariant: `wtpg_slots - wtpg_free ==
    /// wtpg_nodes` must hold at every quiescent point.
    pub wtpg_slots: usize,
    /// Slots currently on the WTPG arena free list.
    pub wtpg_free: usize,
}

/// The scheduler interface driven by the simulator.
///
/// Lifecycle per transaction:
/// `register` → (`try_start` until `Admit`) → per step needing a lock:
/// (`request` until `Granted`) → `step_complete` → … → `validate` →
/// `commit` (or `abort` + later `try_start` again, for OPT restarts).
pub trait Scheduler: Send {
    /// Short machine-readable name ("GOW", "LOW", …).
    fn name(&self) -> &'static str;

    /// Make the transaction's access declaration known. Called once per
    /// transaction, before any `try_start`.
    fn register(&mut self, id: TxnId, spec: BatchSpec);

    /// Attempt admission. On [`StartDecision::Admit`] the transaction is
    /// live (and, for ASL, holds its whole lock set).
    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision>;

    /// Lock request for the given step of a live transaction. Only
    /// called for steps whose lock is not already covered
    /// ([`BatchSpec::needs_lock_request`]).
    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision>;

    /// The step's scan finished; remaining-demand bookkeeping (the WTPG
    /// `T0` weights) updates here.
    fn step_complete(&mut self, id: TxnId, step: usize);

    /// Certification at commit. Locking schedulers always pass; OPT
    /// validates backward and fails on read/write-set intersection.
    fn validate(&mut self, id: TxnId) -> Outcome<bool>;

    /// Commit: release all locks, drop the transaction from internal
    /// structures. Returns the files whose locks were released (the
    /// simulator wakes their waiters).
    fn commit(&mut self, id: TxnId) -> Vec<FileId>;

    /// Abort (OPT restart): drop live state but keep the registration so
    /// the transaction can `try_start` again. Returns released files.
    fn abort(&mut self, id: TxnId) -> Vec<FileId>;

    /// Scratch-buffer variant of [`Scheduler::commit`]: append the
    /// released files to `released` (the caller owns and clears the
    /// buffer). The default delegates to `commit`; lock-table schedulers
    /// override it to release without allocating.
    fn commit_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        released.extend(self.commit(id));
    }

    /// Scratch-buffer variant of [`Scheduler::abort`]; see
    /// [`Scheduler::commit_into`].
    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        released.extend(self.abort(id));
    }

    /// Permanently remove a transaction: like [`Scheduler::abort_into`]
    /// but the registration is dropped too — the transaction will never
    /// `try_start` again. Used by fault injection when a transaction
    /// exhausts its retry budget. Implementations must leave no lock
    /// rows, WTPG slots, chain entries or validation history behind.
    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.abort_into(id, released);
    }

    /// Number of live (started, uncommitted) transactions.
    fn live_count(&self) -> usize;

    /// Drain precedence constraints observed since the last call — used
    /// by serializability tests. Default: none recorded.
    fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        Vec::new()
    }

    /// Snapshot internal occupancy for the metrics sampler. The default
    /// reports zeros (suitable for schedulers with no lock table).
    fn telemetry(&self) -> SchedTelemetry {
        SchedTelemetry::default()
    }

    /// Structural self-audit of an invariant the scheduler claims *by
    /// construction* — e.g. Brook-2PL's ascending-prefix lock discipline
    /// (the source of its deadlock-freedom) or DGCC's conflict-free
    /// batches. Returns `Some(Ok(()))` when the invariant holds,
    /// `Some(Err(description))` when it is violated, and `None` for
    /// schedulers that assert nothing structurally. The conformance
    /// harness probes this at quiescent points; implementations may walk
    /// their state (never called on the per-event hot path).
    fn audit_invariant(&self) -> Option<Result<(), String>> {
        None
    }
}

/// Which scheduler to run — the paper's six (C2PL+M is C2PL plus a
/// simulator-level mpl cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// No data contention (upper bound).
    Nodc,
    /// Atomic static locking.
    Asl,
    /// Cautious two-phase locking.
    C2pl,
    /// Optimistic locking.
    Opt,
    /// Globally-Optimized WTPG scheduler.
    Gow,
    /// Locally-Optimized WTPG scheduler with the given K (paper: K = 2).
    Low(u32),
    /// Wait-Depth Limited locking (extension beyond the paper): block
    /// only when no conflicting holder is itself waiting, restart the
    /// requester otherwise — bounds blocking chains to depth 1 at the
    /// price of rollbacks.
    Wdl,
    /// DGCC-style dependency-graph batcher (arXiv 1503.03642): color the
    /// conflict graph of an admission window into non-conflicting
    /// batches, released epoch-by-epoch.
    Dgcc,
    /// Brook-2PL (arXiv 2508.18576): deadlock-free 2PL acquiring locks
    /// in one global total order (ascending file id).
    Brook,
}

impl SchedulerKind {
    /// All six schedulers as evaluated in the paper (LOW with K = 2).
    pub const PAPER_SET: [SchedulerKind; 6] = [
        SchedulerKind::Nodc,
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Opt,
    ];

    /// The paper's six plus the post-1991 batch/epoch family (DGCC and
    /// Brook-2PL) — the set the differential fuzzer cross-checks on one
    /// workload + fault plan. `PAPER_SET` stays frozen (the golden
    /// artifact hashes derive from it); extended surfaces use this.
    pub const EXTENDED_SET: [SchedulerKind; 8] = [
        SchedulerKind::Nodc,
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Opt,
        SchedulerKind::Dgcc,
        SchedulerKind::Brook,
    ];

    /// Every scheduler kind the conformance suite must cover: the
    /// extended set plus the WDL extension.
    pub const ALL: [SchedulerKind; 9] = [
        SchedulerKind::Nodc,
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Opt,
        SchedulerKind::Wdl,
        SchedulerKind::Dgcc,
        SchedulerKind::Brook,
    ];

    /// Instantiate the scheduler with the given cost book.
    pub fn build(self, costs: &CostBook) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Nodc => Box::new(nodc::Nodc::new()),
            SchedulerKind::Asl => Box::new(asl::Asl::new()),
            SchedulerKind::C2pl => Box::new(c2pl::C2pl::new(costs.dd_time)),
            SchedulerKind::Opt => Box::new(opt::Opt::new()),
            SchedulerKind::Gow => Box::new(gow::Gow::new(costs.chain_time, costs.top_time)),
            SchedulerKind::Low(k) => Box::new(low::Low::new(k, costs.kwtpg_time)),
            SchedulerKind::Wdl => Box::new(wdl::Wdl::new(costs.dd_time)),
            SchedulerKind::Dgcc => Box::new(dgcc::Dgcc::new(costs.dd_time)),
            SchedulerKind::Brook => Box::new(brook::Brook::new(costs.dd_time)),
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> String {
        match self {
            SchedulerKind::Nodc => "NODC".into(),
            SchedulerKind::Asl => "ASL".into(),
            SchedulerKind::C2pl => "C2PL".into(),
            SchedulerKind::Opt => "OPT".into(),
            SchedulerKind::Gow => "GOW".into(),
            SchedulerKind::Low(2) => "LOW".into(),
            SchedulerKind::Low(k) => format!("LOW(K={k})"),
            SchedulerKind::Wdl => "WDL".into(),
            SchedulerKind::Dgcc => "DGCC".into(),
            SchedulerKind::Brook => "BROOK".into(),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}
