//! The incremental step engine: §4.1's machine executing §2's batch
//! transactions under one of §3/§4.2's schedulers, driven one event at
//! a time.
//!
//! ## Transaction lifecycle
//!
//! 1. **Arrival** (Poisson, rate λ) at the control node; the declaration
//!    is registered with the scheduler and the transaction joins the
//!    FIFO start queue.
//! 2. **Admission**: the scheduler's `try_start` runs (ASL checks its
//!    whole lock set; GOW tests chain form at `toptime`; LOW checks the
//!    K-conflict bound). Admitted transactions pay `sot_time` on the CN.
//! 3. **Steps**: each step needing a new lock submits a request; the
//!    scheduler grants (→ execute), blocks (→ wait for the file's locks
//!    to be released) or delays (→ wait for a state change / retry
//!    tick). Execution sends the transaction to the file's home node
//!    (one CN message), splits it into `DD` cohorts served round-robin
//!    at the DPNs, and returns (one CN message).
//! 4. **Commit**: `cot_time` on the CN (two-phase-commit coordination);
//!    OPT validates here and restarts from scratch on failure. Locks
//!    release, waiters wake, the WTPG drops the node.
//!
//! All CPU costs serialize through the CN's FCFS server; all scheduling
//! decisions take effect at the event that issued them (the CPU time
//! defers only the transaction's own progress), which keeps the
//! simulation deterministic.
//!
//! ## Engine vs. Simulator
//!
//! [`Engine`] owns the single event loop. [`Engine::step`] pops exactly
//! one event; [`Engine::step_records`] does the same and hands back the
//! trace records that event produced; [`Engine::run_until`] and
//! [`Engine::run_to_horizon`] drive the same internal `pump` in bulk.
//! The historical [`crate::sim::Simulator`] API is a thin adapter over
//! an `Engine`.
//!
//! Three optional observers ride on the hot loop, each costing one
//! predictable branch when off (the same pattern as `bds-trace`'s
//! `Tracer`): the tracer, the metrics sampler, and the scheduler op-log.
//! The tracer is the one lifecycle stream: every externally visible fact
//! (arrival, admission, grant, block, commit, abort, fault) is emitted
//! once, as a [`Rec`]. The op-log behind [`Engine::snapshot`] is enabled
//! by [`Engine::enable_checkpointing`] and records every scheduler call
//! so a restore can rebuild the scheduler by replay (schedulers are
//! deterministic, RNG-free state machines).

use crate::arena::{Arena, IdMap};
use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::snapshot::{DpnState, HistState, MetricsState, SchedOp, Snapshot};
use bds_des::events::Scheduled;
use bds_des::fcfs::FcfsServer;
use bds_des::stats::{TimeWeighted, Welford};
use bds_des::time::{Duration, SimTime};
use bds_des::EventQueue;
use bds_fault::{DegradedMode, FaultAction};
use bds_machine::{Cohort, CohortId, Dpn, Placement};
use bds_metrics::{LogHistogram, Sampler, TimeSeries};
use bds_obs::{ObsReport, Phase as ObsPhase, Profiler};
use bds_sched::{ReqDecision, Scheduler, SchedulerKind, StartDecision};
use bds_trace::{EventKind, Rec, TraceData, Tracer};
use bds_workload::arrivals::PoissonArrivals;
use bds_workload::gen::WorkloadGen;
use bds_workload::{BatchSpec, FileId};
use bds_wtpg::TxnId;
use std::collections::VecDeque;

pub use bds_trace::AbortCause;

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Event {
    /// The next transaction arrives.
    Arrival,
    /// The CN finished a processing phase for a transaction.
    CnDone { id: TxnId, phase: Phase },
    /// A DPN's current round-robin slice ended. `epoch` tombstones
    /// slices scheduled before a crash of the node: a crash bumps the
    /// node's epoch, so stale slice-ends are ignored.
    SliceEnd { node: u32, epoch: u32 },
    /// Periodic re-submission of blocked/delayed requests.
    RetryTick,
    /// An aborted transaction re-enters the start queue.
    Restart { id: TxnId },
    /// A fault-plan action fires (DPN crash/recovery, CN stall).
    Fault { action: FaultAction },
    /// A dispatch message delivers a cohort to its DPN after the link
    /// delay (only scheduled when the fault plan models link faults).
    CohortArrive { node: u32, cohort: Cohort },
}

/// CN processing phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Phase {
    /// Startup (`sot_time`) done; begin step 0.
    Started,
    /// Lock granted and send message processed; dispatch cohorts.
    Dispatch { step: usize },
    /// All cohorts returned and the receive message processed.
    StepDone { step: usize },
    /// Commit processing (`cot_time`) done; validate and finish.
    Commit,
}

/// Why a pending request is waiting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WaitKind {
    Blocked,
    Delayed,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PendingReq {
    /// Submission sequence number; the `pending` vec is kept in
    /// ascending `seq` order, which is also retry order.
    pub(crate) seq: u64,
    pub(crate) id: TxnId,
    pub(crate) step: usize,
    pub(crate) file: FileId,
    pub(crate) kind: WaitKind,
    pub(crate) eligible: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Txn {
    pub(crate) spec: BatchSpec,
    pub(crate) arrival: SimTime,
    pub(crate) step: usize,
    pub(crate) outstanding_cohorts: u32,
    pub(crate) ever_started: bool,
    /// How many times a fault has killed an attempt of this
    /// transaction; drives the retry backoff and the permanent-kill cap.
    pub(crate) fault_kills: u32,
}

/// The incremental step engine (see the module docs).
pub struct Engine {
    placement: Placement,
    events: EventQueue<Event>,
    cn: FcfsServer,
    dpns: Vec<Dpn>,
    scheduler: Box<dyn Scheduler>,
    arrivals: PoissonArrivals,
    genr: Box<dyn WorkloadGen>,
    /// In-flight transactions in a slot arena (free-list reuse; see
    /// [`crate::arena`]) — never iterated on the hot path, so the
    /// unordered index is determinism-safe (the checkpoint layer sorts).
    txns: Arena<Txn>,
    start_queue: VecDeque<TxnId>,
    /// Blocked/delayed lock requests in ascending `seq` order (inserts
    /// always append — `next_seq` is monotone — and removals preserve
    /// order), so retry sweeps visit requests in submission order.
    pending: Vec<PendingReq>,
    next_txn: u64,
    next_seq: u64,
    next_cohort: u64,
    /// Live cohort → owning transaction (unordered; lookups only).
    cohort_owner: IdMap,
    live: TimeWeighted,
    rt: Welford,
    arrived: u64,
    started: u64,
    completed: u64,
    restarts: u64,
    lock_requests: u64,
    requests_denied: u64,
    retry_tick_armed: bool,
    label: String,
    // ----- fault-injection state (all inert when the plan is empty) ---
    /// True when `cfg.faults` is non-empty; gates every fault-path
    /// branch so an empty plan stays byte-identical to the pre-fault
    /// simulator.
    faults_on: bool,
    /// True when the plan models link delay/loss: cohort dispatch goes
    /// through `CohortArrive` events instead of immediate delivery.
    link_on: bool,
    /// Dedicated fault RNG (link-loss draws). Never touches the
    /// workload or arrival streams.
    fault_rng: bds_des::rng::Xoshiro256,
    /// Per-DPN up/down flag.
    node_up: Vec<bool>,
    /// Per-DPN crash epoch; bumped on crash to tombstone stale
    /// `SliceEnd` events.
    dpn_epoch: Vec<u32>,
    /// When each currently-down DPN went down.
    down_since: Vec<Option<SimTime>>,
    /// Accumulated per-DPN downtime.
    downtime: Vec<Duration>,
    /// Cohorts parked under [`DegradedMode::Hold`] until their home
    /// node recovers: `(home node, cohort)` in arrival order.
    held_cohorts: Vec<(u32, Cohort)>,
    /// Aborts caused by OPT validation failure.
    aborts_validation: u64,
    /// Aborts ordered by the scheduler (restart-oriented protocols).
    aborts_scheduler: u64,
    /// Aborts caused by injected faults (DPN crashes).
    aborts_fault: u64,
    /// Transactions dropped permanently after exhausting the retry cap.
    killed: u64,
    /// Histogram of fault-kill attempt counts at permanent kill time.
    retry_hist: LogHistogram,
    /// Reused buffer for released/touched files at commit and abort.
    released_buf: Vec<FileId>,
    /// Reused buffer for eligible pending-request sequence numbers.
    eligible_buf: Vec<u64>,
    /// Lifecycle tracer. Lives on the engine, **not** on `SimConfig`:
    /// the report must stay a pure function of the configuration
    /// (`cache_key` hashes the config), and tracing must never perturb
    /// the simulation itself.
    tracer: Tracer,
    /// Log-bucketed response-time histogram (sub-second percentiles).
    rt_log: LogHistogram,
    /// Time-series sampler. Like the tracer it lives off-config and only
    /// observes: with sampling off this costs one branch per event.
    metrics: Sampler,
    /// Counter/busy-time snapshot at the previous metrics sample, for
    /// per-window rates and utilizations.
    metrics_prev: PrevSample,
    /// Scheduler op-log for [`Engine::snapshot`]; `None` (one branch
    /// per scheduler call) unless [`Engine::enable_checkpointing`] ran.
    oplog: Option<Vec<SchedOp>>,
    /// True while [`Engine::swap_scheduler`] drains in-flight work:
    /// admissions pause so the live set runs dry.
    admission_hold: bool,
    /// Set by [`Engine::replace_scheduler`]: a custom scheduler cannot
    /// be rebuilt from `SchedulerKind`, so checkpointing is refused.
    custom_scheduler: bool,
    /// Host-side wall-clock profiler. Like the tracer it lives
    /// off-config, never touches sim time or the RNG, and costs one
    /// predictable branch per probe when off.
    obs: Profiler,
    cfg: SimConfig,
}

/// Snapshot of cumulative quantities at the last metrics sample, for
/// windowed rates.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PrevSample {
    pub(crate) at_ms: u64,
    pub(crate) arrived: u64,
    pub(crate) completed: u64,
    pub(crate) restarts: u64,
    pub(crate) denied: u64,
    pub(crate) lock_requests: u64,
    pub(crate) cn_busy_ms: f64,
    pub(crate) dpn_busy_ms: Vec<f64>,
}

/// Column names of the metrics time series, in row order.
fn metric_columns(num_nodes: u32) -> Vec<String> {
    let mut names: Vec<String> = [
        "mpl_live",
        "start_queue",
        "cn_util",
        "cn_backlog_secs",
        "locks_held",
        "wtpg_nodes",
        "wtpg_edges",
        "arrivals_ps",
        "commits_ps",
        "restarts_ps",
        "denied_ps",
        "lock_reqs_ps",
        "dpn_util",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for n in 0..num_nodes {
        names.push(format!("dpn{n}_util"));
    }
    names.push("nodes_up".to_string());
    names
}

impl Engine {
    /// Build an engine from a configuration (workload taken from
    /// `cfg.workload`).
    pub fn new(cfg: &SimConfig) -> Self {
        cfg.validate();
        let mut master = bds_des::rng::Xoshiro256::seed_from_u64(cfg.seed);
        let arrival_rng = master.fork();
        let workload_rng = master.fork();
        let genr = cfg.workload.build(workload_rng);
        Self::with_generator(cfg, genr, arrival_rng)
    }

    /// Build with an explicit workload generator (for custom workloads
    /// beyond the paper's experiments).
    pub fn with_generator(
        cfg: &SimConfig,
        genr: Box<dyn WorkloadGen>,
        arrival_rng: bds_des::rng::Xoshiro256,
    ) -> Self {
        cfg.validate();
        let placement = Placement::new(cfg.costs.num_nodes, cfg.dd);
        let arrivals = PoissonArrivals::new(cfg.lambda_tps, arrival_rng);
        let mut events = EventQueue::new();
        events.schedule_at(arrivals.peek(), Event::Arrival);
        let faults_on = !cfg.faults.is_empty();
        if faults_on {
            // Fault actions are ordinary DES events: the expanded
            // timeline is scheduled up front, deterministically.
            for (at, action) in cfg.faults.timeline(cfg.costs.num_nodes, cfg.horizon) {
                events.schedule_at(at, Event::Fault { action });
            }
        }
        let num_nodes = cfg.costs.num_nodes as usize;
        Engine {
            placement,
            events,
            cn: FcfsServer::new(SimTime::ZERO),
            dpns: (0..cfg.costs.num_nodes).map(|_| Dpn::new()).collect(),
            scheduler: cfg.scheduler.build(&cfg.costs),
            arrivals,
            genr,
            txns: Arena::new(),
            start_queue: VecDeque::new(),
            pending: Vec::new(),
            next_txn: 1,
            next_seq: 1,
            next_cohort: 1,
            cohort_owner: IdMap::new(),
            live: TimeWeighted::new(SimTime::ZERO, 0.0),
            rt: Welford::new(),
            arrived: 0,
            started: 0,
            completed: 0,
            restarts: 0,
            lock_requests: 0,
            requests_denied: 0,
            retry_tick_armed: false,
            label: cfg.scheduler.label(),
            faults_on,
            link_on: faults_on && !cfg.faults.link.is_perfect(),
            fault_rng: bds_des::rng::Xoshiro256::seed_from_u64(cfg.faults.rng_seed(cfg.seed)),
            node_up: vec![true; num_nodes],
            dpn_epoch: vec![0; num_nodes],
            down_since: vec![None; num_nodes],
            downtime: vec![Duration::ZERO; num_nodes],
            held_cohorts: Vec::new(),
            aborts_validation: 0,
            aborts_scheduler: 0,
            aborts_fault: 0,
            killed: 0,
            retry_hist: LogHistogram::new(),
            released_buf: Vec::new(),
            eligible_buf: Vec::new(),
            tracer: Tracer::Off,
            rt_log: LogHistogram::new(),
            metrics: Sampler::Off,
            metrics_prev: PrevSample::default(),
            oplog: None,
            obs: Profiler::Off,
            admission_hold: false,
            custom_scheduler: false,
            cfg: cfg.clone(),
        }
    }

    // ----- observers ---------------------------------------------------

    /// Install a tracer (replace any previous one). Call before driving
    /// the engine to capture the whole run.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Enable metrics sampling at the given simulated-time interval
    /// (replace any previous sampler). Call before driving the engine.
    pub fn set_metrics_interval(&mut self, dt: Duration) {
        let names = metric_columns(self.cfg.costs.num_nodes);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        self.metrics = Sampler::every_ms(dt.as_millis(), &refs);
        self.metrics_prev = PrevSample {
            dpn_busy_ms: vec![0.0; self.cfg.costs.num_nodes as usize],
            ..PrevSample::default()
        };
    }

    /// Detach the sampler and return the series (`None` when sampling
    /// was off).
    pub fn take_metrics(&mut self) -> Option<TimeSeries> {
        std::mem::take(&mut self.metrics).finish()
    }

    /// The log-bucketed response-time histogram over committed
    /// transactions (exporters render its buckets directly).
    pub fn rt_histogram(&self) -> &LogHistogram {
        &self.rt_log
    }

    /// Detach the tracer and return its captured data (`None` when
    /// tracing was off).
    pub fn take_trace(&mut self) -> Option<TraceData> {
        std::mem::take(&mut self.tracer).finish()
    }

    /// Install a host-side profiler (replace any previous one). Like
    /// the tracer it only observes: profiled runs stay byte-identical.
    pub fn set_profiler(&mut self, obs: Profiler) {
        self.obs = obs;
    }

    /// Is a host-side profiler collecting?
    pub fn profiler_enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// Move the profiler out (leaving `Off`); used to carry profiling
    /// across [`Engine::restore`], which builds a fresh engine.
    pub fn take_profiler(&mut self) -> Profiler {
        std::mem::take(&mut self.obs)
    }

    /// Detach the profiler and return its report (`None` when off).
    pub fn take_profile(&mut self) -> Option<ObsReport> {
        std::mem::take(&mut self.obs).finish()
    }

    /// Snapshot the live profile without stopping collection (`None`
    /// when off). Drives the `watch` stream's phase shares.
    pub fn profile(&self) -> Option<ObsReport> {
        self.obs.report()
    }

    /// Start recording the scheduler op-log that [`Engine::snapshot`]
    /// embeds. Must run before the first event so the replayed
    /// scheduler sees its complete call history.
    ///
    /// # Panics
    /// Panics if events were already processed or a custom scheduler is
    /// installed (it cannot be rebuilt from the config on restore).
    pub fn enable_checkpointing(&mut self) {
        assert_eq!(
            self.events.events_processed(),
            0,
            "enable_checkpointing after events were processed"
        );
        assert!(
            !self.custom_scheduler,
            "checkpointing cannot rebuild a custom scheduler"
        );
        if self.oplog.is_none() {
            self.oplog = Some(Vec::new());
        }
    }

    /// Append a scheduler op when checkpointing is enabled (one
    /// predictable branch when off).
    #[inline(always)]
    fn op(&mut self, make: impl FnOnce() -> SchedOp) {
        if let Some(log) = &mut self.oplog {
            log.push(make());
        }
    }

    // ----- driving the loop -------------------------------------------

    /// End of the simulated run.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.cfg.horizon
    }

    /// Pop and handle the next event if it lies at or before `limit`;
    /// returns its timestamp. This is the single event loop every
    /// driver shares.
    #[inline]
    fn pump(&mut self, limit: SimTime) -> Option<SimTime> {
        let tok = self.obs.phase_start(ObsPhase::EventQueue);
        let Some(t) = self.events.peek_time().filter(|&t| t <= limit) else {
            self.obs.phase_end(tok);
            return None;
        };
        // State is piecewise constant between events, so sampling the
        // pre-event state covers every grid point up to `t` exactly.
        // One predictable branch when sampling is off.
        if self.metrics.due(t) {
            self.sample_metrics(t);
        }
        let Scheduled { event, .. } = self.events.pop().expect("peeked event vanished");
        self.obs.phase_end(tok);
        self.handle(event);
        Some(t)
    }

    /// Process exactly one event (the next one at or before the
    /// horizon) and return its timestamp. Returns `None` when the run is
    /// over — queue drained or next event past the horizon.
    pub fn step(&mut self) -> Option<SimTime> {
        self.pump(self.horizon())
    }

    /// [`Engine::step`], appending the trace records the event produced
    /// to `out`. The records come through a tap on the tracer that is
    /// open only for this call, so nothing accumulates between calls;
    /// an installed ring keeps recording underneath. The tap changes no
    /// simulation state: precedence edges are drained from the
    /// scheduler only when a ring is installed, exactly as without it.
    pub fn step_records(&mut self, out: &mut Vec<Rec>) -> Option<SimTime> {
        self.tracer.tap(std::mem::take(out));
        let at = self.step();
        *out = self.tracer.untap();
        at
    }

    /// Process every event at or before `limit` (clamped to the
    /// horizon); returns the number processed. Interleaving `run_until`
    /// calls is byte-identical to one [`Engine::run_to_horizon`].
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        let limit = limit.min(self.horizon());
        let mut n = 0;
        while self.pump(limit).is_some() {
            n += 1;
        }
        // Fill the metrics grid to `limit`: the state in force is the
        // same one the next event would sample, so this is identical to
        // an uninterrupted run.
        if self.metrics.due(limit) {
            self.sample_metrics(limit);
        }
        n
    }

    /// Drive the event loop until the horizon.
    pub fn run_to_horizon(&mut self) {
        let horizon = self.horizon();
        while self.pump(horizon).is_some() {}
        // Fill the grid to the horizon so the series spans the whole
        // run even when the event queue drains early.
        if self.metrics.due(horizon) {
            self.sample_metrics(horizon);
        }
    }

    /// Record one row per unsampled grid point `≤ upto` (the state seen
    /// is the one in force since the last processed event).
    fn sample_metrics(&mut self, upto: SimTime) {
        let mpl = self.scheduler.live_count() as f64;
        let start_q = self.start_queue.len() as f64;
        let tel = self.scheduler.telemetry();
        let upto_ms = upto.as_millis();
        let Some(s) = self.metrics.active() else {
            return;
        };
        while s.next_ms() <= upto_ms {
            let at = SimTime::from_millis(s.next_ms());
            let at_ms = s.next_ms() as f64;
            let prev = &mut self.metrics_prev;
            let window_ms = (s.next_ms() - prev.at_ms) as f64;
            let window_secs = window_ms / 1000.0;
            // Busy-time deltas: utilization(at) integrates the busy step
            // function over [0, at], so util·at is cumulative busy time.
            // Clamped: the reconstruction wobbles by a few ulps.
            let cn_busy = self.cn.utilization(at) * at_ms;
            let cn_util = ((cn_busy - prev.cn_busy_ms) / window_ms).clamp(0.0, 1.0);
            let cn_backlog = self.cn.free_at().saturating_since(at).as_secs_f64();
            let mut dpn_sum = 0.0;
            let mut dpn_row = Vec::with_capacity(self.dpns.len());
            for (n, d) in self.dpns.iter().enumerate() {
                let busy = d.utilization(at) * at_ms;
                let u = ((busy - prev.dpn_busy_ms[n]) / window_ms).clamp(0.0, 1.0);
                prev.dpn_busy_ms[n] = busy;
                dpn_sum += u;
                dpn_row.push(u);
            }
            s.row.clear();
            s.row.push(mpl);
            s.row.push(start_q);
            s.row.push(cn_util);
            s.row.push(cn_backlog);
            s.row.push(tel.locks_held as f64);
            s.row.push(tel.wtpg_nodes as f64);
            s.row.push(tel.wtpg_edges as f64);
            s.row
                .push((self.arrived - prev.arrived) as f64 / window_secs);
            s.row
                .push((self.completed - prev.completed) as f64 / window_secs);
            s.row
                .push((self.restarts - prev.restarts) as f64 / window_secs);
            s.row
                .push((self.requests_denied - prev.denied) as f64 / window_secs);
            s.row
                .push((self.lock_requests - prev.lock_requests) as f64 / window_secs);
            s.row.push(dpn_sum / self.dpns.len() as f64);
            s.row.extend_from_slice(&dpn_row);
            s.row
                .push(self.node_up.iter().filter(|&&up| up).count() as f64);
            prev.at_ms = s.next_ms();
            prev.arrived = self.arrived;
            prev.completed = self.completed;
            prev.restarts = self.restarts;
            prev.denied = self.requests_denied;
            prev.lock_requests = self.lock_requests;
            prev.cn_busy_ms = cn_busy;
            s.commit_row();
        }
    }

    // ----- accessors ---------------------------------------------------

    /// Per-DPN downtime accumulated up to `at` (nodes still down are
    /// charged through `at`).
    pub fn node_downtime(&self, at: SimTime) -> Vec<Duration> {
        self.downtime
            .iter()
            .zip(&self.down_since)
            .map(|(&d, since)| match since {
                Some(s) => d + at.saturating_since(*s),
                None => d,
            })
            .collect()
    }

    /// Transactions arrived but neither committed nor killed yet.
    pub fn in_flight(&self) -> u64 {
        self.txns.len() as u64
    }

    /// Transactions that have arrived so far.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Transactions that have committed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Transactions dropped permanently (fault retry cap).
    pub fn killed(&self) -> u64 {
        self.killed
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events.events_processed()
    }

    /// Current simulated time (the timestamp of the last processed
    /// event).
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The active scheduler's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configuration this engine runs (the scheduler field tracks
    /// [`Engine::swap_scheduler`]).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Histogram of fault-kill attempt counts at permanent kill time.
    pub fn retry_histogram(&self) -> &LogHistogram {
        &self.retry_hist
    }

    /// Produce the report (callable at any point of the run; the
    /// utilization/availability denominators always use the full
    /// horizon).
    pub fn report(&self) -> SimReport {
        let horizon = self.horizon();
        let dpn_util = self
            .dpns
            .iter()
            .map(|d| d.utilization(horizon))
            .sum::<f64>()
            / self.dpns.len() as f64;
        let downtime_secs: f64 = self
            .node_downtime(horizon)
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        let node_secs = self.dpns.len() as f64 * self.cfg.horizon.as_secs_f64();
        SimReport {
            scheduler: self.label.clone(),
            lambda_tps: self.cfg.lambda_tps,
            dd: self.cfg.dd,
            horizon_secs: self.cfg.horizon.as_secs_f64(),
            arrived: self.arrived,
            started: self.started,
            completed: self.completed,
            restarts: self.restarts,
            rt: self.rt,
            cn_utilization: self.cn.utilization(horizon),
            dpn_utilization: dpn_util,
            mean_live: self.live.average(horizon),
            rt_p50_secs: self.rt_log.quantile(0.50),
            rt_p90_secs: self.rt_log.quantile(0.90),
            rt_p99_secs: self.rt_log.quantile(0.99),
            queued_at_end: self.start_queue.len() as u64,
            events: self.events.events_processed(),
            lock_requests: self.lock_requests,
            requests_denied: self.requests_denied,
            aborts_validation: self.aborts_validation,
            aborts_scheduler: self.aborts_scheduler,
            aborts_fault: self.aborts_fault,
            killed: self.killed,
            availability: 1.0 - downtime_secs / node_secs,
            downtime_secs,
        }
    }

    /// Replace the scheduler with a custom implementation (extension
    /// point beyond the paper's six). Must be called before the first
    /// event is processed. Incompatible with checkpointing: a custom
    /// scheduler cannot be rebuilt from the config on restore.
    ///
    /// # Panics
    /// Panics if the simulation has already started or checkpointing is
    /// enabled.
    pub fn replace_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        assert_eq!(
            self.events.events_processed(),
            0,
            "replace_scheduler after events were processed"
        );
        assert!(
            self.oplog.is_none(),
            "replace_scheduler is incompatible with checkpointing"
        );
        self.custom_scheduler = true;
        self.label = scheduler.name().to_string();
        self.scheduler = scheduler;
    }

    /// Drain the precedence constraints the scheduler observed — used by
    /// the serializability audit in the integration tests.
    pub fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        self.op(|| SchedOp::Drain);
        self.scheduler.drain_constraints()
    }

    /// Access the scheduler (e.g. for downcasting to read statistics in
    /// tests).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }

    /// The lifecycle record of a live transaction.
    ///
    /// # Panics
    /// Panics if `id` is not in flight.
    fn txn(&self, id: TxnId) -> &Txn {
        self.txns.get(id.0).expect("unknown txn")
    }

    /// Position of a pending request by its submission seq.
    fn pending_pos(&self, seq: u64) -> Option<usize> {
        self.pending.binary_search_by_key(&seq, |p| p.seq).ok()
    }

    /// Drop a pending request by seq (no-op when already gone).
    fn remove_pending(&mut self, seq: u64) {
        if let Some(i) = self.pending_pos(seq) {
            self.pending.remove(i);
        }
    }

    /// Enqueue CN work, tracing the busy span `[begin, end]` when the
    /// demand is non-zero. `what` labels the burst ("sot", "cot", …).
    fn cn_work(
        &mut self,
        now: SimTime,
        demand: Duration,
        txn: Option<TxnId>,
        what: &'static str,
    ) -> SimTime {
        let tok = self.obs.phase_start(ObsPhase::CnWork);
        let (begin, end) = self.cn.enqueue_span(now, demand);
        if !demand.is_zero() {
            self.tracer.emit(|| Rec {
                at: end,
                kind: EventKind::CnCpu {
                    txn,
                    what,
                    start: begin,
                },
            });
        }
        self.obs.phase_end(tok);
        end
    }

    /// Record precedence edges the scheduler decided since the last call.
    /// Only drains the scheduler's constraint log when a trace ring is
    /// installed, so the serializability audit (which drains it itself)
    /// is unaffected by untraced runs and by [`Engine::step_records`].
    fn trace_edges(&mut self) {
        if !self.tracer.has_ring() {
            return;
        }
        self.op(|| SchedOp::Drain);
        let now = self.now();
        for (from, to) in self.scheduler.drain_constraints() {
            self.tracer.emit(|| Rec {
                at: now,
                kind: EventKind::WtpgEdge { from, to },
            });
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Arrival => self.on_arrival(),
            Event::CnDone { id, phase } => self.on_cn_done(id, phase),
            Event::SliceEnd { node, epoch } => self.on_slice_end(node, epoch),
            Event::RetryTick => self.on_retry_tick(),
            Event::Restart { id } => {
                let now = self.now();
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::Restart { txn: id },
                });
                self.start_queue.push_back(id);
                self.try_admissions();
            }
            Event::Fault { action } => self.on_fault(action),
            Event::CohortArrive { node, cohort } => {
                let now = self.now();
                self.deliver_cohort(now, node, cohort);
            }
        }
    }

    // ----- arrivals & admission ---------------------------------------

    /// Register a fresh transaction at the current time and queue it
    /// for admission (shared by Poisson arrivals and external
    /// [`Engine::submit`]).
    fn enroll(&mut self, mut spec: BatchSpec) -> TxnId {
        let now = self.now();
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        // Declared demands scale with parallelism: a step of cost C
        // declares C/k when DD = k (§4.2).
        let dd = self.cfg.dd as f64;
        for s in &mut spec.steps {
            s.declared /= dd;
        }
        self.op(|| SchedOp::Register {
            id,
            spec: spec.clone(),
        });
        self.scheduler.register(id, spec.clone());
        self.txns.insert(
            id.0,
            Txn {
                spec,
                arrival: now,
                step: 0,
                outstanding_cohorts: 0,
                ever_started: false,
                fault_kills: 0,
            },
        );
        self.arrived += 1;
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::Arrival { txn: id },
        });
        self.start_queue.push_back(id);
        id
    }

    fn on_arrival(&mut self) {
        let now = self.now();
        let spec = self.genr.next_batch();
        self.enroll(spec);
        // Next arrival.
        let t = self.arrivals.pop();
        debug_assert_eq!(t, now);
        self.events
            .schedule_at(self.arrivals.peek(), Event::Arrival);
        self.try_admissions();
    }

    /// Submit an external transaction at the current simulated time,
    /// outside the Poisson arrival process (the `bds-serve` front uses
    /// this). The spec's declared demands are DD-scaled exactly like
    /// generated arrivals. Returns the assigned id.
    pub fn submit(&mut self, spec: BatchSpec) -> TxnId {
        let id = self.enroll(spec);
        self.try_admissions();
        id
    }

    fn mpl_room(&self) -> bool {
        match self.cfg.mpl {
            None => true,
            Some(m) => (self.scheduler.live_count() as u32) < m,
        }
    }

    fn try_admissions(&mut self) {
        if self.admission_hold {
            return;
        }
        let now = self.now();
        let mut costed_tests = 0usize;
        let mut i = 0usize;
        while i < self.start_queue.len() {
            if !self.mpl_room() {
                break;
            }
            let id = self.start_queue[i];
            self.op(|| SchedOp::TryStart { id });
            let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
            let outcome = self.scheduler.try_start(id);
            self.obs.phase_end(tok);
            if !outcome.cpu.is_zero() {
                self.cn_work(now, outcome.cpu, Some(id), "sched");
                costed_tests += 1;
            }
            match outcome.decision {
                StartDecision::Admit => {
                    self.start_queue.remove(i);
                    self.tracer.emit(|| Rec {
                        at: now,
                        kind: EventKind::Admit { txn: id },
                    });
                    self.trace_edges();
                    let txn = self.txns.get_mut(id.0).expect("admitted unknown txn");
                    if !txn.ever_started {
                        txn.ever_started = true;
                        self.started += 1;
                    }
                    txn.step = 0;
                    self.live.add(now, 1.0);
                    let done = self.cn_work(now, self.cfg.costs.sot_time, Some(id), "sot");
                    self.events.schedule_at(
                        done,
                        Event::CnDone {
                            id,
                            phase: Phase::Started,
                        },
                    );
                }
                StartDecision::Refuse => {
                    let reason = outcome.reason.unwrap_or("refused");
                    self.tracer.emit(|| Rec {
                        at: now,
                        kind: EventKind::AdmitRefuse { txn: id, reason },
                    });
                    i += 1;
                    if costed_tests >= self.cfg.admission_scan_limit {
                        break;
                    }
                }
            }
        }
    }

    // ----- CN phases ---------------------------------------------------

    fn on_cn_done(&mut self, id: TxnId, phase: Phase) {
        match phase {
            Phase::Started => self.begin_step(id, 0),
            Phase::Dispatch { step } => self.dispatch_step(id, step),
            Phase::StepDone { step } => self.finish_step(id, step),
            Phase::Commit => self.finish_txn(id),
        }
    }

    fn begin_step(&mut self, id: TxnId, step: usize) {
        let needs_lock = self.txn(id).spec.needs_lock_request(step);
        if needs_lock {
            self.submit_request(id, step, None);
        } else {
            // Lock already covered: only the send message is needed.
            let now = self.now();
            let done = self.cn_work(now, self.cfg.costs.msg_time, Some(id), "msg");
            self.events.schedule_at(
                done,
                Event::CnDone {
                    id,
                    phase: Phase::Dispatch { step },
                },
            );
        }
    }

    /// Submit (or retry, when `pending_seq` is given) a lock request.
    /// Returns true if the request was granted.
    fn submit_request(&mut self, id: TxnId, step: usize, pending_seq: Option<u64>) -> bool {
        let now = self.now();
        self.lock_requests += 1;
        let file = self.txn(id).spec.steps[step].file;
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::LockRequest {
                txn: id,
                step: step as u32,
                file,
            },
        });
        self.op(|| SchedOp::Request { id, step });
        let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
        let outcome = self.scheduler.request(id, step);
        self.obs.phase_end(tok);
        match outcome.decision {
            ReqDecision::Granted => {
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::LockGrant {
                        txn: id,
                        step: step as u32,
                        file,
                    },
                });
                self.trace_edges();
                if let Some(seq) = pending_seq {
                    self.remove_pending(seq);
                }
                let done = self.cn_work(
                    now,
                    outcome.cpu + self.cfg.costs.msg_time,
                    Some(id),
                    "grant+msg",
                );
                self.events.schedule_at(
                    done,
                    Event::CnDone {
                        id,
                        phase: Phase::Dispatch { step },
                    },
                );
                true
            }
            ReqDecision::Restart => {
                let reason = outcome.reason.unwrap_or("restart");
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::LockRestart {
                        txn: id,
                        step: step as u32,
                        file,
                        reason,
                    },
                });
                if !outcome.cpu.is_zero() {
                    self.cn_work(now, outcome.cpu, Some(id), "sched");
                }
                if let Some(seq) = pending_seq {
                    self.remove_pending(seq);
                }
                self.restart_txn(id);
                false
            }
            ReqDecision::Blocked | ReqDecision::Delayed => {
                if !outcome.cpu.is_zero() {
                    self.cn_work(now, outcome.cpu, Some(id), "sched");
                }
                self.requests_denied += 1;
                let kind = if outcome.decision == ReqDecision::Blocked {
                    WaitKind::Blocked
                } else {
                    WaitKind::Delayed
                };
                let reason = outcome.reason.unwrap_or(match kind {
                    WaitKind::Blocked => "lock-held",
                    WaitKind::Delayed => "delayed",
                });
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: match kind {
                        WaitKind::Blocked => EventKind::LockBlock {
                            txn: id,
                            step: step as u32,
                            file,
                            reason,
                        },
                        WaitKind::Delayed => EventKind::LockDeny {
                            txn: id,
                            step: step as u32,
                            file,
                            reason,
                        },
                    },
                });
                match pending_seq {
                    Some(seq) => {
                        let i = self.pending_pos(seq).expect("pending vanished");
                        let p = &mut self.pending[i];
                        p.kind = kind;
                        p.eligible = false;
                    }
                    None => {
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        // `next_seq` is monotone, so this append keeps
                        // `pending` sorted by seq.
                        self.pending.push(PendingReq {
                            seq,
                            id,
                            step,
                            file,
                            kind,
                            eligible: false,
                        });
                    }
                }
                self.arm_retry_tick();
                false
            }
        }
    }

    fn dispatch_step(&mut self, id: TxnId, step: usize) {
        let now = self.now();
        let (file, cost) = {
            let s = &self.txn(id).spec.steps[step];
            (s.file, s.cost)
        };
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::StepDispatch {
                txn: id,
                step: step as u32,
            },
        });
        let nodes = self.placement.nodes(file);
        let per_cohort = self.placement.cohort_objects(cost);
        let work = self.cfg.costs.scan_time(per_cohort);
        if work.is_zero() {
            // Degenerate zero-I/O step: return immediately (receive msg).
            let done = self.cn_work(now, self.cfg.costs.msg_time, Some(id), "recv");
            self.events.schedule_at(
                done,
                Event::CnDone {
                    id,
                    phase: Phase::StepDone { step },
                },
            );
            return;
        }
        let quantum = self.cfg.costs.quantum(self.cfg.dd);
        self.txns
            .get_mut(id.0)
            .expect("dispatch unknown txn")
            .outstanding_cohorts = nodes.len() as u32;
        let start_at = now + self.cfg.costs.net_delay;
        for node in nodes {
            let cid = CohortId(self.next_cohort);
            self.next_cohort += 1;
            self.cohort_owner.insert(cid.0, id.0);
            let cohort = Cohort {
                id: cid,
                remaining: work,
                quantum,
            };
            if !self.faults_on {
                // Fault-free fast path, byte-identical to the pre-fault
                // simulator.
                self.tracer.emit(|| Rec {
                    at: start_at,
                    kind: EventKind::CohortStart {
                        txn: id,
                        step: step as u32,
                        node: node.0,
                    },
                });
                // net_delay is zero in the paper; the cohort starts now.
                debug_assert_eq!(start_at, now);
                let epoch = self.dpn_epoch[node.0 as usize];
                if let Some(end) = self.dpns[node.0 as usize].add_cohort(start_at, cohort) {
                    self.events.schedule_at(
                        end,
                        Event::SliceEnd {
                            node: node.0,
                            epoch,
                        },
                    );
                }
                continue;
            }
            // Fault path: apply the link model, then degraded routing at
            // delivery time.
            let link = self.cfg.faults.link;
            if !self.link_on {
                self.deliver_cohort(start_at, node.0, cohort);
                continue;
            }
            let mut deliver_at = start_at + link.delay;
            if link.loss_per_mille > 0
                && self.fault_rng.next_range(1000) < u64::from(link.loss_per_mille)
            {
                // The dispatch message is lost; the home node redelivers
                // after its timeout.
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::FaultInjected {
                        node: Some(node.0),
                        what: "link-loss",
                        dur: Duration::ZERO,
                    },
                });
                deliver_at += link.redeliver_after;
            }
            self.events.schedule_at(
                deliver_at,
                Event::CohortArrive {
                    node: node.0,
                    cohort,
                },
            );
        }
    }

    /// Hand a dispatched cohort to its DPN, applying degraded-mode
    /// routing when the target is down. Drops the cohort silently when
    /// its owner was aborted while the message was in flight.
    fn deliver_cohort(&mut self, now: SimTime, node: u32, cohort: Cohort) {
        let Some(owner) = self.cohort_owner.get(cohort.id.0).map(TxnId) else {
            return;
        };
        let target = if self.node_up[node as usize] {
            Some(node)
        } else {
            match self.cfg.faults.degraded {
                DegradedMode::Reroute => self.first_up_node(node),
                DegradedMode::Hold => None,
            }
        };
        let Some(n) = target else {
            self.held_cohorts.push((node, cohort));
            return;
        };
        let step = self.txn(owner).step as u32;
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::CohortStart {
                txn: owner,
                step,
                node: n,
            },
        });
        let epoch = self.dpn_epoch[n as usize];
        if let Some(end) = self.dpns[n as usize].add_cohort(now, cohort) {
            self.events
                .schedule_at(end, Event::SliceEnd { node: n, epoch });
        }
    }

    /// The first up node at or after `from` in ring order, if any.
    fn first_up_node(&self, from: u32) -> Option<u32> {
        let n = self.node_up.len() as u32;
        (0..n)
            .map(|k| (from + k) % n)
            .find(|&cand| self.node_up[cand as usize])
    }

    fn on_slice_end(&mut self, node: u32, epoch: u32) {
        if epoch != self.dpn_epoch[node as usize] {
            // Scheduled before the node crashed: the slice never ran.
            return;
        }
        let now = self.now();
        let out = self.dpns[node as usize].on_slice_end(now);
        if let Some(end) = out.next_slice_end {
            self.events
                .schedule_at(end, Event::SliceEnd { node, epoch });
        }
        if self.tracer.enabled() {
            // Owner lookup must precede the `finished` removal below.
            if let Some(txn) = self.cohort_owner.get(out.ran.0).map(TxnId) {
                let start = now - out.slice;
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::Quantum { txn, node, start },
                });
            }
        }
        if let Some(cid) = out.finished {
            let id = match self.cohort_owner.remove(cid.0).map(TxnId) {
                Some(id) => id,
                None => {
                    // Orphan of a fault-aborted transaction: its CPU was
                    // wasted, its completion is ignored.
                    debug_assert!(self.faults_on, "finished cohort has no owner");
                    return;
                }
            };
            let cur_step = self.txn(id).step as u32;
            self.tracer.emit(|| Rec {
                at: now,
                kind: EventKind::CohortFinish {
                    txn: id,
                    step: cur_step,
                    node,
                },
            });
            let step = {
                let txn = self.txns.get_mut(id.0).expect("cohort of unknown txn");
                txn.outstanding_cohorts -= 1;
                if txn.outstanding_cohorts > 0 {
                    return;
                }
                txn.step
            };
            // All cohorts returned to the home node; the transaction
            // returns to the CN (receive message).
            let done = self.cn_work(now, self.cfg.costs.msg_time, Some(id), "recv");
            self.events.schedule_at(
                done,
                Event::CnDone {
                    id,
                    phase: Phase::StepDone { step },
                },
            );
        }
    }

    fn finish_step(&mut self, id: TxnId, step: usize) {
        let now = self.now();
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::StepDone {
                txn: id,
                step: step as u32,
            },
        });
        self.op(|| SchedOp::StepComplete { id, step });
        let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
        self.scheduler.step_complete(id, step);
        self.obs.phase_end(tok);
        let total_steps = self.txn(id).spec.len();
        let next = step + 1;
        self.txns.get_mut(id.0).expect("unknown txn").step = next;
        if next < total_steps {
            self.begin_step(id, next);
        } else {
            let done = self.cn_work(now, self.cfg.costs.cot_time, Some(id), "cot");
            self.events.schedule_at(
                done,
                Event::CnDone {
                    id,
                    phase: Phase::Commit,
                },
            );
        }
    }

    fn finish_txn(&mut self, id: TxnId) {
        let now = self.now();
        self.op(|| SchedOp::Validate { id });
        let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
        let valid = self.scheduler.validate(id).decision;
        self.obs.phase_end(tok);
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::Certify { txn: id, ok: valid },
        });
        if valid {
            let mut touched = std::mem::take(&mut self.released_buf);
            touched.clear();
            self.op(|| SchedOp::Commit { id });
            let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
            self.scheduler.commit_into(id, &mut touched);
            self.obs.phase_end(tok);
            let txn = self.txns.remove(id.0).expect("commit of unknown txn");
            self.live.add(now, -1.0);
            self.completed += 1;
            self.tracer.emit(|| Rec {
                at: now,
                kind: EventKind::Commit { txn: id },
            });
            let rt_secs = now.since(txn.arrival).as_secs_f64();
            self.rt.push(rt_secs);
            self.rt_log.record_secs(rt_secs);
            // Files the committed transaction touched (declared), even
            // if the scheduler held no lock on them (OPT): their
            // contention state changed.
            touched.extend(txn.spec.steps.iter().map(|s| s.file));
            touched.sort_unstable();
            touched.dedup();
            self.wake_waiters(&touched);
            self.released_buf = touched;
            self.sweep_retries();
            self.try_admissions();
        } else {
            // OPT validation failure: abort and restart from scratch.
            self.abort_txn(id, AbortCause::Validation);
            self.try_admissions();
        }
    }

    /// Abort `id` and queue its restart; all its I/O will be redone.
    ///
    /// Scheduler and validation aborts retry after `restart_delay`
    /// (unchanged legacy behaviour). Fault aborts retry under the
    /// plan's exponential-backoff policy and are killed permanently —
    /// scheduler state dropped via `Scheduler::forget`, no restart —
    /// once the kill count reaches the retry cap.
    fn abort_txn(&mut self, id: TxnId, cause: AbortCause) {
        let now = self.now();
        self.restarts += 1;
        match cause {
            AbortCause::Validation => self.aborts_validation += 1,
            AbortCause::Scheduler => self.aborts_scheduler += 1,
            AbortCause::Fault => self.aborts_fault += 1,
        }
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::Abort { txn: id, cause },
        });
        let kills = if cause == AbortCause::Fault {
            let txn = self.txns.get_mut(id.0).expect("fault abort of unknown txn");
            txn.fault_kills += 1;
            txn.fault_kills
        } else {
            0
        };
        let kill_for_good =
            cause == AbortCause::Fault && kills >= self.cfg.faults.retry.max_attempts;
        let mut released = std::mem::take(&mut self.released_buf);
        released.clear();
        let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
        if kill_for_good {
            self.op(|| SchedOp::Forget { id });
            self.scheduler.forget(id, &mut released);
        } else {
            self.op(|| SchedOp::Abort { id });
            self.scheduler.abort_into(id, &mut released);
        }
        self.obs.phase_end(tok);
        self.live.add(now, -1.0);
        let had_cohorts = {
            let txn = self.txns.get_mut(id.0).expect("abort of unknown txn");
            let had = txn.outstanding_cohorts > 0;
            txn.step = 0;
            txn.outstanding_cohorts = 0;
            had
        };
        if had_cohorts {
            // Orphan every cohort of the aborted attempt: still-running
            // or in-flight cohorts lose their owner and are dropped when
            // they finish or arrive. Only fault aborts can get here —
            // scheduler/validation aborts never have work outstanding.
            self.cohort_owner.retain(|_, owner| owner != id.0);
        }
        if kill_for_good {
            self.txns.remove(id.0);
            self.killed += 1;
            self.retry_hist.record_ticks(u64::from(kills));
            self.tracer.emit(|| Rec {
                at: now,
                kind: EventKind::TxnKilled {
                    txn: id,
                    attempts: kills,
                },
            });
            // Defensive: a killed transaction must not linger anywhere.
            self.pending.retain(|p| p.id != id);
        } else {
            let delay = if cause == AbortCause::Fault {
                self.cfg.faults.retry.delay_for(kills)
            } else {
                self.cfg.restart_delay
            };
            self.events.schedule_at(now + delay, Event::Restart { id });
        }
        self.wake_waiters(&released);
        self.released_buf = released;
    }

    /// Legacy entry point: abort with the scheduler cause.
    fn restart_txn(&mut self, id: TxnId) {
        self.abort_txn(id, AbortCause::Scheduler);
    }

    // ----- fault injection --------------------------------------------

    fn on_fault(&mut self, action: FaultAction) {
        let now = self.now();
        match action {
            FaultAction::CrashNode { node } => {
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::FaultInjected {
                        node: Some(node),
                        what: "dpn-crash",
                        dur: Duration::ZERO,
                    },
                });
                let n = node as usize;
                self.node_up[n] = false;
                self.down_since[n] = Some(now);
                // Tombstone every slice scheduled on this node.
                self.dpn_epoch[n] += 1;
                let lost = self.dpns[n].crash(now);
                let mut victims: Vec<TxnId> = lost
                    .iter()
                    .filter_map(|cid| self.cohort_owner.remove(cid.0).map(TxnId))
                    .collect();
                victims.sort_unstable();
                victims.dedup();
                for id in victims {
                    self.abort_txn(id, AbortCause::Fault);
                }
                self.sweep_retries();
                self.try_admissions();
            }
            FaultAction::RecoverNode { node } => {
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::NodeRecovered { node },
                });
                let n = node as usize;
                self.node_up[n] = true;
                if let Some(since) = self.down_since[n].take() {
                    self.downtime[n] += now.since(since);
                }
                // Deliver cohorts held for this node (Hold mode); their
                // owners may have been aborted meanwhile, in which case
                // deliver_cohort drops them.
                let mut held = std::mem::take(&mut self.held_cohorts);
                held.retain(|&(home, cohort)| {
                    if home == node {
                        self.deliver_cohort(now, node, cohort);
                        false
                    } else {
                        true
                    }
                });
                self.held_cohorts = held;
            }
            FaultAction::StallCn { dur } => {
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::FaultInjected {
                        node: None,
                        what: "cn-stall",
                        dur,
                    },
                });
                self.cn.stall_until(now + dur);
            }
        }
    }

    // ----- retries -----------------------------------------------------

    /// Mark pending requests eligible: those (blocked or delayed) whose
    /// file's contention state just changed. Delayed requests on
    /// unrelated files are re-submitted by the retry tick instead —
    /// waking every delayed request on every commit would melt the CN
    /// under C2PL's hundreds of live transactions.
    fn wake_waiters(&mut self, touched: &[FileId]) {
        for p in &mut self.pending {
            if touched.contains(&p.file) {
                p.eligible = true;
            }
        }
        if !self.pending.is_empty() {
            self.arm_retry_tick();
        }
    }

    fn sweep_retries(&mut self) {
        let mut eligible = std::mem::take(&mut self.eligible_buf);
        eligible.clear();
        eligible.extend(self.pending.iter().filter(|p| p.eligible).map(|p| p.seq));
        for &seq in &eligible {
            // A retry earlier in this sweep may have removed (or
            // restarted) this request; look it up fresh each time.
            let (id, step) = match self.pending_pos(seq) {
                Some(i) => {
                    let p = &mut self.pending[i];
                    p.eligible = false;
                    (p.id, p.step)
                }
                None => continue,
            };
            self.submit_request(id, step, Some(seq));
        }
        self.eligible_buf = eligible;
    }

    fn arm_retry_tick(&mut self) {
        if !self.retry_tick_armed && !self.pending.is_empty() {
            self.retry_tick_armed = true;
            let at = self.now() + self.cfg.retry_delay;
            self.events.schedule_at(at, Event::RetryTick);
        }
    }

    fn on_retry_tick(&mut self) {
        self.retry_tick_armed = false;
        for p in &mut self.pending {
            p.eligible = true;
        }
        self.sweep_retries();
        self.try_admissions();
        self.arm_retry_tick();
    }

    // ----- scheduler hot-swap -----------------------------------------

    /// Swap the concurrency-control protocol at an epoch boundary:
    /// pause admissions, drain every live (admitted) transaction to
    /// commit or abort, build the new scheduler, re-register every
    /// still-in-flight (queued or restarting) declaration, and resume
    /// admissions. Returns the number of events processed while
    /// draining.
    ///
    /// Arrivals keep flowing during the drain — they queue up behind
    /// the held admission gate. If the horizon is reached before the
    /// live set runs dry (a pathological plan), the swap proceeds
    /// anyway; the remaining live transactions are re-registered as
    /// not-yet-started, which only matters if the engine is driven
    /// past the horizon.
    ///
    /// # Panics
    /// Panics after [`Engine::replace_scheduler`]: a custom scheduler
    /// has no `SchedulerKind` to swap back to.
    pub fn swap_scheduler(&mut self, kind: SchedulerKind) -> u64 {
        assert!(
            !self.custom_scheduler,
            "swap_scheduler after replace_scheduler"
        );
        self.admission_hold = true;
        let horizon = self.horizon();
        let mut drained = 0u64;
        while self.scheduler.live_count() > 0 && self.pump(horizon).is_some() {
            drained += 1;
        }
        // Re-seed: every in-flight transaction (start queue, restart
        // delay, or — past the horizon — still live) re-registers its
        // declaration, already DD-scaled, with the fresh scheduler.
        let mut sched = kind.build(&self.cfg.costs);
        let mut ids = self.txns.ids();
        ids.sort_unstable();
        if let Some(log) = &mut self.oplog {
            log.clear();
        }
        for raw in ids {
            let spec = self
                .txns
                .get(raw)
                .expect("listed txn vanished")
                .spec
                .clone();
            let id = TxnId(raw);
            self.op(|| SchedOp::Register {
                id,
                spec: spec.clone(),
            });
            sched.register(id, spec);
        }
        self.scheduler = sched;
        self.label = kind.label();
        // Keep cfg.scheduler in sync so `cache_key` (and snapshots
        // taken after the swap) describe the engine actually running.
        self.cfg.scheduler = kind;
        self.admission_hold = false;
        self.try_admissions();
        drained
    }

    // ----- checkpoint / restore ---------------------------------------

    /// Capture the complete simulation state. Requires
    /// [`Engine::enable_checkpointing`] to have run before the first
    /// event (the scheduler is captured as its op-log). The tracer is
    /// *not* captured: it is an observer, and a restored engine starts
    /// with it off.
    ///
    /// # Panics
    /// Panics if checkpointing is not enabled.
    pub fn snapshot(&mut self) -> Snapshot {
        let tok = self.obs.phase_start(ObsPhase::Snapshot);
        let snap = self.snapshot_inner();
        self.obs.phase_end(tok);
        snap
    }

    fn snapshot_inner(&mut self) -> Snapshot {
        let oplog = self
            .oplog
            .as_ref()
            .expect("snapshot requires enable_checkpointing before the first event")
            .clone();
        let gen_cursor = self
            .genr
            .save_cursor()
            .expect("workload generator does not support checkpointing");
        let (cn_free_at, cn_busy, cn_total_demand, cn_jobs) = self.cn.state();
        let dpns = self
            .dpns
            .iter()
            .map(|d| {
                let (ready, running, busy, busy_time, completed) = d.state();
                DpnState {
                    ready,
                    running,
                    busy,
                    busy_time,
                    completed,
                }
            })
            .collect();
        let (arrivals_rng, arrivals_next) = self.arrivals.state();
        let mut txns: Vec<(u64, Txn)> = self
            .txns
            .ids()
            .into_iter()
            .map(|id| (id, self.txns.get(id).expect("listed txn vanished").clone()))
            .collect();
        txns.sort_by_key(|&(id, _)| id);
        let mut cohort_owner = self.cohort_owner.pairs();
        cohort_owner.sort_unstable();
        let hist_state = |h: &LogHistogram| {
            let (counts, total, sum_ticks, min_ticks, max_ticks) = h.state();
            HistState {
                counts: counts.to_vec(),
                total,
                sum_ticks,
                min_ticks,
                max_ticks,
            }
        };
        let retry_hist = hist_state(&self.retry_hist);
        let rt_log = hist_state(&self.rt_log);
        let metrics_prev = self.metrics_prev.clone();
        let metrics = self.metrics.active().map(|s| MetricsState {
            next_ms: s.next_ms(),
            dt_ms: s.series.dt_ms(),
            names: s.series.names().to_vec(),
            times_ms: s.series.times_ms().to_vec(),
            values: s.series.values().to_vec(),
            prev: metrics_prev,
        });
        Snapshot {
            cache_key: self.cfg.cache_key(),
            scheduler: self.cfg.scheduler,
            label: self.label.clone(),
            now: self.events.now(),
            events_popped: self.events.events_processed(),
            events: self
                .events
                .snapshot_entries()
                .into_iter()
                .map(|s| (s.at, s.event))
                .collect(),
            cn_free_at,
            cn_busy,
            cn_total_demand,
            cn_jobs,
            dpns,
            oplog,
            arrivals_rng,
            arrivals_next,
            gen_cursor,
            txns,
            start_queue: self.start_queue.iter().map(|id| id.0).collect(),
            pending: self.pending.clone(),
            next_txn: self.next_txn,
            next_seq: self.next_seq,
            next_cohort: self.next_cohort,
            cohort_owner,
            live: self.live,
            rt: self.rt,
            arrived: self.arrived,
            started: self.started,
            completed: self.completed,
            restarts: self.restarts,
            lock_requests: self.lock_requests,
            requests_denied: self.requests_denied,
            retry_tick_armed: self.retry_tick_armed,
            fault_rng: self.fault_rng.state(),
            node_up: self.node_up.clone(),
            dpn_epoch: self.dpn_epoch.clone(),
            down_since: self.down_since.clone(),
            downtime: self.downtime.clone(),
            held_cohorts: self.held_cohorts.clone(),
            aborts_validation: self.aborts_validation,
            aborts_scheduler: self.aborts_scheduler,
            aborts_fault: self.aborts_fault,
            killed: self.killed,
            retry_hist,
            rt_log,
            metrics,
        }
    }

    /// [`Engine::restore`], timing the rebuild (including oplog replay)
    /// under `obs`'s `Restore` phase and carrying `obs` onto the
    /// restored engine. Restore builds a fresh engine, so the caller's
    /// profiler must be moved across explicitly (see
    /// [`Engine::take_profiler`]).
    pub fn restore_with_profiler(base: &SimConfig, snap: &Snapshot, mut obs: Profiler) -> Engine {
        let tok = obs.phase_start(ObsPhase::Restore);
        let mut e = Engine::restore(base, snap);
        obs.phase_end(tok);
        e.obs = obs;
        e
    }

    /// Rebuild an engine from a snapshot. `base` must be the
    /// configuration of the run that produced the snapshot (its
    /// `scheduler` field is overridden by the snapshot's, so a snapshot
    /// taken after [`Engine::swap_scheduler`] restores correctly).
    ///
    /// The restored engine continues byte-identically to the
    /// uninterrupted run. Checkpointing stays enabled (the op-log is
    /// carried over), so a snapshot of a restored run works too. The
    /// tracer starts off.
    ///
    /// # Panics
    /// Panics if `base` (with the snapshot's scheduler) does not match
    /// the snapshot's configuration cache key, or if the snapshot's
    /// generator cursor does not fit the configured workload.
    pub fn restore(base: &SimConfig, snap: &Snapshot) -> Engine {
        let mut cfg = base.clone();
        cfg.scheduler = snap.scheduler;
        assert_eq!(
            cfg.cache_key(),
            snap.cache_key,
            "snapshot was taken under a different configuration"
        );
        let mut e = Engine::new(&cfg);
        e.events = EventQueue::from_snapshot(
            snap.now,
            snap.events_popped,
            snap.events
                .iter()
                .map(|&(at, event)| Scheduled { at, event })
                .collect(),
        );
        e.cn = FcfsServer::from_state(
            snap.cn_free_at,
            snap.cn_busy,
            snap.cn_total_demand,
            snap.cn_jobs,
        );
        e.dpns = snap
            .dpns
            .iter()
            .map(|d| Dpn::from_state(d.ready.clone(), d.running, d.busy, d.busy_time, d.completed))
            .collect();
        // The scheduler is a deterministic, RNG-free state machine:
        // replaying its recorded call history against a fresh instance
        // reproduces its exact state. Outputs are discarded.
        let mut sched = cfg.scheduler.build(&cfg.costs);
        let mut scratch: Vec<FileId> = Vec::new();
        for op in &snap.oplog {
            match op {
                SchedOp::Register { id, spec } => sched.register(*id, spec.clone()),
                SchedOp::TryStart { id } => {
                    let _ = sched.try_start(*id);
                }
                SchedOp::Request { id, step } => {
                    let _ = sched.request(*id, *step);
                }
                SchedOp::StepComplete { id, step } => sched.step_complete(*id, *step),
                SchedOp::Validate { id } => {
                    let _ = sched.validate(*id);
                }
                SchedOp::Commit { id } => {
                    scratch.clear();
                    sched.commit_into(*id, &mut scratch);
                }
                SchedOp::Abort { id } => {
                    scratch.clear();
                    sched.abort_into(*id, &mut scratch);
                }
                SchedOp::Forget { id } => {
                    scratch.clear();
                    sched.forget(*id, &mut scratch);
                }
                SchedOp::Drain => {
                    let _ = sched.drain_constraints();
                }
            }
        }
        e.scheduler = sched;
        e.arrivals =
            PoissonArrivals::from_state(cfg.lambda_tps, snap.arrivals_rng, snap.arrivals_next);
        assert!(
            e.genr.load_cursor(&snap.gen_cursor),
            "workload-generator cursor does not match the configured workload"
        );
        e.txns = Arena::new();
        // Insertion order differs from the original run's, which is
        // safe: the arena is never iterated order-sensitively (only the
        // checkpoint layer enumerates it, and it sorts).
        for (id, txn) in &snap.txns {
            e.txns.insert(*id, txn.clone());
        }
        e.start_queue = snap.start_queue.iter().map(|&id| TxnId(id)).collect();
        e.pending = snap.pending.clone();
        e.next_txn = snap.next_txn;
        e.next_seq = snap.next_seq;
        e.next_cohort = snap.next_cohort;
        e.cohort_owner = IdMap::new();
        for &(k, v) in &snap.cohort_owner {
            e.cohort_owner.insert(k, v);
        }
        e.live = snap.live;
        e.rt = snap.rt;
        e.arrived = snap.arrived;
        e.started = snap.started;
        e.completed = snap.completed;
        e.restarts = snap.restarts;
        e.lock_requests = snap.lock_requests;
        e.requests_denied = snap.requests_denied;
        e.retry_tick_armed = snap.retry_tick_armed;
        e.label = snap.label.clone();
        e.fault_rng = bds_des::rng::Xoshiro256::from_state(snap.fault_rng);
        e.node_up = snap.node_up.clone();
        e.dpn_epoch = snap.dpn_epoch.clone();
        e.down_since = snap.down_since.clone();
        e.downtime = snap.downtime.clone();
        e.held_cohorts = snap.held_cohorts.clone();
        e.aborts_validation = snap.aborts_validation;
        e.aborts_scheduler = snap.aborts_scheduler;
        e.aborts_fault = snap.aborts_fault;
        e.killed = snap.killed;
        let hist = |s: &HistState| {
            LogHistogram::from_state(
                s.counts.clone(),
                s.total,
                s.sum_ticks,
                s.min_ticks,
                s.max_ticks,
            )
        };
        e.retry_hist = hist(&snap.retry_hist);
        e.rt_log = hist(&snap.rt_log);
        match &snap.metrics {
            Some(m) => {
                e.metrics = Sampler::resume(
                    m.next_ms,
                    TimeSeries::from_parts(
                        m.dt_ms,
                        m.names.clone(),
                        m.times_ms.clone(),
                        m.values.clone(),
                    ),
                );
                e.metrics_prev = m.prev.clone();
            }
            None => {
                e.metrics = Sampler::Off;
                e.metrics_prev = PrevSample::default();
            }
        }
        e.oplog = Some(snap.oplog.clone());
        e
    }
}
