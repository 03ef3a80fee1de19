//! Timing wrappers around the `Scheduler` and `WorkloadGen` traits.
//!
//! Each wrapper forwards every trait method to the wrapped value, so an
//! engine driven through them behaves exactly like one built by
//! `Engine::new`: a method left to its trait default would change
//! behaviour (`forget` falls back to `abort_into`) or allocation
//! (`commit_into` falls back to `commit`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use batchsched::des::rng::Xoshiro256;
use batchsched::engine::Engine;
use batchsched::sched::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use batchsched::workload::gen::{GenCursor, WorkloadGen};
use batchsched::workload::{BatchSpec, FileId};
use batchsched::wtpg::TxnId;
use batchsched::SimConfig;

/// Call count and summed wall time of one operation.
#[derive(Debug, Default)]
pub struct OpStat {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl OpStat {
    fn add(&self, since: Instant) {
        // Relaxed: plain statistics, read after the run on the same thread.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed wall nanoseconds so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        crate::measure::ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// A scheduler operation, as counted by [`SchedStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `register`.
    Register,
    /// `try_start`.
    TryStart,
    /// `request`.
    Request,
    /// `step_complete`.
    StepComplete,
    /// `validate`.
    Validate,
    /// `commit` and `commit_into`.
    Commit,
    /// `abort`, `abort_into` and `forget`.
    Abort,
}

impl Op {
    /// Every operation, in report order.
    pub const ALL: [Op; 7] = [
        Op::Register,
        Op::TryStart,
        Op::Request,
        Op::StepComplete,
        Op::Validate,
        Op::Commit,
        Op::Abort,
    ];

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Op::Register => "register",
            Op::TryStart => "try_start",
            Op::Request => "request",
            Op::StepComplete => "step_complete",
            Op::Validate => "validate",
            Op::Commit => "commit",
            Op::Abort => "abort",
        }
    }
}

/// Per-operation counts and times of one or more wrapped schedulers,
/// plus the outcome counts behind the grant/admit/pass ratios.
#[derive(Debug, Default)]
pub struct SchedStats {
    ops: [OpStat; 7],
    granted: AtomicU64,
    admitted: AtomicU64,
    passed: AtomicU64,
}

impl SchedStats {
    /// Statistics of one operation.
    pub fn op(&self, op: Op) -> &OpStat {
        &self.ops[op as usize]
    }

    /// Requests answered `Granted`.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// `try_start` calls answered `Admit`.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Validations that passed.
    pub fn passed(&self) -> u64 {
        self.passed.load(Ordering::Relaxed)
    }

    /// Wall seconds spent inside the scheduler, all operations.
    pub fn host_s(&self) -> f64 {
        self.ops.iter().map(|o| o.ns() as f64).sum::<f64>() * 1e-9
    }

    /// Admission and lock-request evaluations (`try_start + request`).
    pub fn evals(&self) -> u64 {
        self.op(Op::TryStart).calls() + self.op(Op::Request).calls()
    }

    /// Add another set of statistics into this one.
    pub fn absorb(&self, o: &SchedStats) {
        for (a, b) in self.ops.iter().zip(&o.ops) {
            a.calls.fetch_add(b.calls(), Ordering::Relaxed);
            a.ns.fetch_add(b.ns(), Ordering::Relaxed);
        }
        self.granted.fetch_add(o.granted(), Ordering::Relaxed);
        self.admitted.fetch_add(o.admitted(), Ordering::Relaxed);
        self.passed.fetch_add(o.passed(), Ordering::Relaxed);
    }

    fn bump(counter: &AtomicU64, hit: bool) {
        if hit {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A scheduler that times every call into the one it wraps.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: Arc<SchedStats>,
}

impl TimedScheduler {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn Scheduler>, stats: Arc<SchedStats>) -> Self {
        TimedScheduler { inner, stats }
    }

    fn timed<R>(&mut self, op: Op, call: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let t = Instant::now();
        let r = call(self.inner.as_mut());
        self.stats.op(op).add(t);
        r
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.timed(Op::Register, |s| s.register(id, spec));
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        let o = self.timed(Op::TryStart, |s| s.try_start(id));
        SchedStats::bump(&self.stats.admitted, o.decision == StartDecision::Admit);
        o
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let o = self.timed(Op::Request, |s| s.request(id, step));
        SchedStats::bump(&self.stats.granted, o.decision == ReqDecision::Granted);
        o
    }

    fn step_complete(&mut self, id: TxnId, step: usize) {
        self.timed(Op::StepComplete, |s| s.step_complete(id, step));
    }

    fn validate(&mut self, id: TxnId) -> Outcome<bool> {
        let o = self.timed(Op::Validate, |s| s.validate(id));
        SchedStats::bump(&self.stats.passed, o.decision);
        o
    }

    fn commit(&mut self, id: TxnId) -> Vec<FileId> {
        self.timed(Op::Commit, |s| s.commit(id))
    }

    fn abort(&mut self, id: TxnId) -> Vec<FileId> {
        self.timed(Op::Abort, |s| s.abort(id))
    }

    fn commit_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.timed(Op::Commit, |s| s.commit_into(id, released));
    }

    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.timed(Op::Abort, |s| s.abort_into(id, released));
    }

    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.timed(Op::Abort, |s| s.forget(id, released));
    }

    fn live_count(&self) -> usize {
        self.inner.live_count()
    }

    fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        self.inner.drain_constraints()
    }

    fn telemetry(&self) -> SchedTelemetry {
        self.inner.telemetry()
    }

    fn audit_invariant(&self) -> Option<Result<(), String>> {
        self.inner.audit_invariant()
    }
}

/// A workload generator that times every `next_batch` of the one it
/// wraps.
pub struct TimedGen {
    inner: Box<dyn WorkloadGen>,
    stats: Arc<OpStat>,
}

impl TimedGen {
    /// Wrap `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn WorkloadGen>, stats: Arc<OpStat>) -> Self {
        TimedGen { inner, stats }
    }
}

impl WorkloadGen for TimedGen {
    fn next_batch(&mut self) -> BatchSpec {
        let t = Instant::now();
        let b = self.inner.next_batch();
        self.stats.add(t);
        b
    }

    fn num_files(&self) -> u32 {
        self.inner.num_files()
    }

    fn mean_demand(&self) -> f64 {
        self.inner.mean_demand()
    }

    fn save_cursor(&self) -> Option<GenCursor> {
        self.inner.save_cursor()
    }

    fn load_cursor(&mut self, cursor: &GenCursor) -> bool {
        self.inner.load_cursor(cursor)
    }
}

/// The RNG streams `Engine::new` derives from `cfg.seed`:
/// `(arrival stream, workload stream)`.
pub fn engine_streams(cfg: &SimConfig) -> (Xoshiro256, Xoshiro256) {
    let mut master = Xoshiro256::seed_from_u64(cfg.seed);
    let arrival = master.fork();
    let workload = master.fork();
    (arrival, workload)
}

/// An engine equivalent to `Engine::new(cfg)` whose generator and
/// scheduler are wrapped in timing shims.
pub fn timed_engine(cfg: &SimConfig, sched: Arc<SchedStats>, gen: Arc<OpStat>) -> Engine {
    let (arrival, workload) = engine_streams(cfg);
    let genr = Box::new(TimedGen::new(cfg.workload.build(workload), gen));
    let mut e = Engine::with_generator(cfg, genr, arrival);
    e.replace_scheduler(Box::new(TimedScheduler::new(
        cfg.scheduler.build(&cfg.costs),
        sched,
    )));
    e
}
