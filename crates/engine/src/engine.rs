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
//! ## Driving the loop
//!
//! [`Engine`] owns the single event loop. [`Engine::step`] pops exactly
//! one event; [`Engine::step_records`] does the same and hands back the
//! trace records that event produced; [`Engine::run_until`] and
//! [`Engine::run_to_horizon`] drive the same internal `pump` in bulk.
//! [`Engine::run`], [`Engine::run_traced`] and
//! [`Engine::run_with_metrics`] build an engine, run it to the horizon
//! and return the report (plus the trace or series).
//!
//! Three optional observers ride on the hot loop, each costing one
//! predictable branch when off (the same pattern as `bds-trace`'s
//! `Tracer`): the tracer, the metrics sampler and the host-side
//! profiler. The tracer is the one lifecycle stream: every externally
//! visible fact (arrival, admission, grant, block, commit, abort, fault)
//! is emitted once, as a [`Rec`].
//!
//! [`Engine::enable_checkpointing`] records the external calls that
//! change simulation state (submit, scheduler swap, sampler on/off);
//! nothing on the event loop. The run is deterministic, so
//! [`Engine::snapshot`] is that input log and [`Engine::restore`]
//! replays it against a fresh engine (see [`crate::snapshot`]).

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::snapshot::{Call, Input, Mark, Snapshot};
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
use bds_workload::spec::Access;
use bds_workload::{BatchSpec, FileId, LockMode};
use bds_wtpg::TxnId;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

pub use bds_trace::AbortCause;

/// Hasher for the engine's id-keyed tables. Ids are sequence numbers
/// the engine issues (never read from input), so one Fibonacci
/// multiply (2⁶⁴/φ) spreads them; a fixed hash keeps each table a pure
/// function of its operations, unlike `RandomState`.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdHash = BuildHasherDefault<IdHasher>;

/// Simulation events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
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
enum Phase {
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
enum WaitKind {
    Blocked,
    Delayed,
}

#[derive(Debug, Clone, PartialEq)]
struct PendingReq {
    /// Submission sequence number; the `pending` vec is kept in
    /// ascending `seq` order, which is also retry order.
    seq: u64,
    id: TxnId,
    step: usize,
    file: FileId,
    kind: WaitKind,
    eligible: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct Txn {
    spec: BatchSpec,
    arrival: SimTime,
    step: usize,
    outstanding_cohorts: u32,
    ever_started: bool,
    /// How many times a fault has killed an attempt of this
    /// transaction; drives the retry backoff and the permanent-kill cap.
    fault_kills: u32,
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
    /// In-flight transactions. Never iterated on the hot path, so the
    /// unordered table is determinism-safe (the scheduler swap sorts).
    txns: HashMap<TxnId, Txn, IdHash>,
    start_queue: VecDeque<TxnId>,
    /// Blocked/delayed lock requests in ascending `seq` order (inserts
    /// always append — `next_seq` is monotone — and removals preserve
    /// order), so retry sweeps visit requests in submission order.
    pending: Vec<PendingReq>,
    next_txn: u64,
    next_seq: u64,
    next_cohort: u64,
    /// Live cohort → owning transaction (unordered; lookups only).
    cohort_owner: HashMap<CohortId, TxnId, IdHash>,
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
    /// External calls recorded for [`Engine::snapshot`]; `None` unless
    /// [`Engine::enable_checkpointing`] ran.
    inputs: Option<Vec<Input>>,
    /// The scheduler a restore starts from: the one running when
    /// checkpointing was enabled (later swaps are inputs).
    start_kind: SchedulerKind,
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
struct PrevSample {
    at_ms: u64,
    arrived: u64,
    completed: u64,
    restarts: u64,
    denied: u64,
    lock_requests: u64,
    cn_busy_ms: f64,
    dpn_busy_ms: Vec<f64>,
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
    ///
    /// # Panics
    /// Panics if [`SimConfig::validate`] refuses the configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        if let Err(err) = cfg.validate() {
            panic!("{err}");
        }
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
        if let Err(err) = cfg.validate() {
            panic!("{err}");
        }
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
            txns: HashMap::default(),
            start_queue: VecDeque::new(),
            pending: Vec::new(),
            next_txn: 1,
            next_seq: 1,
            next_cohort: 1,
            cohort_owner: HashMap::default(),
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
            inputs: None,
            start_kind: cfg.scheduler,
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
        self.record(|| Call::Metrics(Some(dt)));
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
        if self.metrics.enabled() {
            self.record(|| Call::Metrics(None));
        }
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

    /// Start recording the input log that [`Engine::snapshot`] returns.
    /// Must run before the first event so a restore can replay the whole
    /// run. An active metrics sampler is logged as the first input;
    /// transactions submitted earlier are not, so a snapshot of such a
    /// run is refused on restore.
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
        if self.inputs.is_some() {
            return;
        }
        self.start_kind = self.cfg.scheduler;
        let mut inputs = Vec::new();
        if let Sampler::On(s) = &self.metrics {
            inputs.push(Input {
                at: Mark {
                    events: 0,
                    next_sample_ms: None,
                },
                call: Call::Metrics(Some(Duration::from_millis(s.series.dt_ms()))),
            });
        }
        self.inputs = Some(inputs);
    }

    /// Where the run stands between events (see [`Mark`]).
    fn mark(&self) -> Mark {
        Mark {
            events: self.events.events_processed(),
            next_sample_ms: match &self.metrics {
                Sampler::On(s) => Some(s.next_ms()),
                Sampler::Off => None,
            },
        }
    }

    /// Log an external call when checkpointing is enabled.
    fn record(&mut self, call: impl FnOnce() -> Call) {
        let at = self.mark();
        if let Some(log) = &mut self.inputs {
            log.push(Input { at, call: call() });
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

    /// Run to the horizon and report.
    pub fn run(cfg: &SimConfig) -> SimReport {
        let mut sim = Engine::new(cfg);
        sim.run_to_horizon();
        sim.report()
    }

    /// Run with a ring-buffer tracer of the given capacity and return
    /// both the report and the captured trace. The report is
    /// byte-identical to an untraced [`Engine::run`] of the same
    /// configuration — tracing only observes.
    pub fn run_traced(cfg: &SimConfig, capacity: usize) -> (SimReport, TraceData) {
        let mut sim = Engine::new(cfg);
        sim.set_tracer(Tracer::ring(capacity));
        sim.run_to_horizon();
        let report = sim.report();
        let data = sim.take_trace().expect("ring tracer was installed");
        (report, data)
    }

    /// Run with time-series sampling every `dt` of simulated time,
    /// returning the report and the sampled series. The report is
    /// byte-identical to an unsampled [`Engine::run`] of the same
    /// configuration — sampling only observes.
    pub fn run_with_metrics(cfg: &SimConfig, dt: Duration) -> (SimReport, TimeSeries) {
        let mut sim = Engine::new(cfg);
        sim.set_metrics_interval(dt);
        sim.run_to_horizon();
        let report = sim.report();
        let series = sim.take_metrics().expect("sampler was installed");
        (report, series)
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
            self.inputs.is_none(),
            "replace_scheduler is incompatible with checkpointing"
        );
        self.custom_scheduler = true;
        self.label = scheduler.name().to_string();
        self.scheduler = scheduler;
    }

    /// Drain the precedence constraints the scheduler observed — used by
    /// the serializability audit in the integration tests.
    pub fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
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
        self.txns.get(&id).expect("unknown txn")
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
        self.scheduler.register(id, spec.clone());
        let txn = Txn {
            spec,
            arrival: now,
            step: 0,
            outstanding_cohorts: 0,
            ever_started: false,
            fault_kills: 0,
        };
        let dup = self.txns.insert(id, txn);
        assert!(dup.is_none(), "duplicate txn id {}", id.0);
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
    ///
    /// # Panics
    /// Panics if [`validate_spec`] refuses the spec for this workload.
    pub fn submit(&mut self, spec: BatchSpec) -> TxnId {
        if let Err(err) = validate_spec(&spec, self.genr.num_files()) {
            panic!("submit: {err}");
        }
        self.record(|| Call::Submit(spec.clone()));
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
                    let txn = self.txns.get_mut(&id).expect("admitted unknown txn");
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
                self.abort_txn(id, AbortCause::Scheduler);
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
            .get_mut(&id)
            .expect("dispatch unknown txn")
            .outstanding_cohorts = nodes.len() as u32;
        let start_at = now + self.cfg.costs.net_delay;
        for node in nodes {
            let cid = CohortId(self.next_cohort);
            self.next_cohort += 1;
            self.cohort_owner.insert(cid, id);
            let cohort = Cohort {
                id: cid,
                remaining: work,
                quantum,
            };
            if !self.link_on {
                self.deliver_cohort(start_at, node.0, cohort);
                continue;
            }
            // Link faults: the cohort arrives after the link delay (and
            // the redelivery timeout when the message is lost).
            let link = self.cfg.faults.link;
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
        let Some(owner) = self.cohort_owner.get(&cohort.id).copied() else {
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
        self.tracer.emit(|| Rec {
            at: now,
            kind: EventKind::CohortStart {
                txn: owner,
                step: self.txns[&owner].step as u32,
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
            if let Some(txn) = self.cohort_owner.get(&out.ran).copied() {
                let start = now - out.slice;
                self.tracer.emit(|| Rec {
                    at: now,
                    kind: EventKind::Quantum { txn, node, start },
                });
            }
        }
        if let Some(cid) = out.finished {
            let id = match self.cohort_owner.remove(&cid) {
                Some(id) => id,
                None => {
                    // Orphan of a fault-aborted transaction: its CPU was
                    // wasted, its completion is ignored.
                    debug_assert!(!self.cfg.faults.is_empty(), "finished cohort has no owner");
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
                let txn = self.txns.get_mut(&id).expect("cohort of unknown txn");
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
        let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
        self.scheduler.step_complete(id, step);
        self.obs.phase_end(tok);
        let total_steps = self.txn(id).spec.len();
        let next = step + 1;
        self.txns.get_mut(&id).expect("unknown txn").step = next;
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
            let tok = self.obs.phase_start(ObsPhase::SchedulerDecide);
            self.scheduler.commit_into(id, &mut touched);
            self.obs.phase_end(tok);
            let txn = self.txns.remove(&id).expect("commit of unknown txn");
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
            let txn = self.txns.get_mut(&id).expect("fault abort of unknown txn");
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
            self.scheduler.forget(id, &mut released);
        } else {
            self.scheduler.abort_into(id, &mut released);
        }
        self.obs.phase_end(tok);
        self.live.add(now, -1.0);
        let had_cohorts = {
            let txn = self.txns.get_mut(&id).expect("abort of unknown txn");
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
            self.cohort_owner.retain(|_, owner| *owner != id);
        }
        if kill_for_good {
            self.txns.remove(&id);
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
                    .filter_map(|cid| self.cohort_owner.remove(cid))
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
        self.record(|| Call::Swap(kind));
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
        let mut live: Vec<_> = self.txns.iter().collect();
        live.sort_unstable_by_key(|&(id, _)| *id);
        for (&id, txn) in live {
            sched.register(id, txn.spec.clone());
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

    /// Capture the run as its input log (see [`crate::snapshot`]).
    /// Requires [`Engine::enable_checkpointing`] to have run before the
    /// first event. Observers (tracer, profiler) are not captured: a
    /// restored engine starts with them off.
    ///
    /// # Panics
    /// Panics if checkpointing is not enabled.
    pub fn snapshot(&mut self) -> Snapshot {
        let tok = self.obs.phase_start(ObsPhase::Snapshot);
        let inputs = self
            .inputs
            .clone()
            .expect("snapshot requires enable_checkpointing before the first event");
        let mut start = self.cfg.clone();
        start.scheduler = self.start_kind;
        let snap = Snapshot {
            cache_key: start.cache_key(),
            scheduler: self.start_kind,
            inputs,
            end: self.mark(),
            now: self.now(),
            arrived: self.arrived,
            completed: self.completed,
            gen_cursor: self.genr.save_cursor(),
        };
        self.obs.phase_end(tok);
        snap
    }

    /// [`Engine::restore`], returning an error instead of panicking and
    /// timing the replay under `obs`'s `Restore` phase. On success the
    /// restored engine takes over `obs` (leaving `Off` behind); on
    /// failure `obs` stays with the caller.
    ///
    /// # Errors
    /// Returns why the snapshot cannot be restored under `base`: another
    /// configuration, an input the engine would refuse, or a replay that
    /// does not reach the recorded check values.
    pub fn restore_with_profiler(
        base: &SimConfig,
        snap: &Snapshot,
        obs: &mut Profiler,
    ) -> Result<Engine, String> {
        let tok = obs.phase_start(ObsPhase::Restore);
        let replayed = Engine::replay(base, snap);
        obs.phase_end(tok);
        let mut e = replayed?;
        e.obs = std::mem::take(obs);
        Ok(e)
    }

    /// Rebuild an engine from a snapshot by replaying its input log.
    /// `base` must be the configuration of the run that produced the
    /// snapshot (its `scheduler` field is overridden by the snapshot's
    /// starting scheduler; swaps are replayed as inputs).
    ///
    /// The restored engine continues byte-identically to the
    /// uninterrupted run. Checkpointing stays enabled, so a snapshot of
    /// a restored run works too. The tracer starts off, and the
    /// scheduler's audit constraints hold every edge of the replayed
    /// prefix, whatever was drained before the snapshot.
    ///
    /// # Panics
    /// Panics if [`Engine::restore_with_profiler`] would return an error.
    pub fn restore(base: &SimConfig, snap: &Snapshot) -> Engine {
        Engine::replay(base, snap)
            .unwrap_or_else(|err| panic!("snapshot cannot be restored: {err}"))
    }

    fn replay(base: &SimConfig, snap: &Snapshot) -> Result<Engine, String> {
        let mut cfg = base.clone();
        cfg.scheduler = snap.scheduler;
        if cfg.cache_key() != snap.cache_key {
            return Err("snapshot was taken under a different configuration".into());
        }
        cfg.validate()?;
        let mut e = Engine::new(&cfg);
        e.enable_checkpointing();
        for input in &snap.inputs {
            e.replay_to(input.at)?;
            match &input.call {
                Call::Submit(spec) => {
                    validate_spec(spec, e.genr.num_files())?;
                    e.submit(spec.clone());
                }
                Call::Swap(kind) => {
                    e.swap_scheduler(*kind);
                }
                Call::Metrics(Some(dt)) if dt.is_zero() => {
                    return Err("metrics interval must be positive".into());
                }
                Call::Metrics(Some(dt)) => e.set_metrics_interval(*dt),
                Call::Metrics(None) => {
                    e.take_metrics();
                }
            }
        }
        e.replay_to(snap.end)?;
        for (what, got, want) in [
            ("clock (ms)", e.now().0, snap.now.0),
            ("arrivals", e.arrived, snap.arrived),
            ("commits", e.completed, snap.completed),
        ] {
            if got != want {
                return Err(format!(
                    "replay diverged: {what} {got}, snapshot says {want}"
                ));
            }
        }
        if e.genr.save_cursor() != snap.gen_cursor {
            return Err(
                "replay diverged: workload-generator cursor differs from the snapshot's".into(),
            );
        }
        Ok(e)
    }

    /// Drive a replay to `mark`: process events up to its count, then
    /// sample the metrics grid up to its position, as a `run_until` past
    /// the last event did in the recorded run.
    fn replay_to(&mut self, mark: Mark) -> Result<(), String> {
        while self.events_processed() < mark.events {
            if self.step().is_none() {
                return Err(format!(
                    "replay diverged: the run ends after {} events, the log expects {}",
                    self.events_processed(),
                    mark.events
                ));
            }
        }
        if self.events_processed() != mark.events {
            return Err(format!(
                "replay diverged: {} events processed, the log expects {}",
                self.events_processed(),
                mark.events
            ));
        }
        let have = self.mark().next_sample_ms;
        if let (Some(have), Some(want), Sampler::On(s)) = (have, mark.next_sample_ms, &self.metrics)
        {
            if want > have {
                // The last grid point a `run_until` filled must lie
                // before the next event and within the horizon.
                let last = SimTime(want - s.series.dt_ms());
                if last > self.horizon() || self.events.peek_time().is_some_and(|t| t <= last) {
                    return Err(format!(
                        "replay diverged: sample grid position {want} ms lies past the next event"
                    ));
                }
                self.sample_metrics(last);
            }
        }
        let got = self.mark().next_sample_ms;
        if got != mark.next_sample_ms {
            return Err(format!(
                "replay diverged: sampler at {got:?} ms, the log expects {:?}",
                mark.next_sample_ms
            ));
        }
        Ok(())
    }
}

/// Largest cost or declared demand of one step, in objects: about 32
/// simulated years of scan at the paper's `ObjTime`, far from the point
/// where millisecond arithmetic overflows.
const MAX_STEP_OBJECTS: f64 = 1e9;

/// Check that the engine can run `spec` on a workload of `num_files`
/// files: at least one step, every file in `0..num_files`, every cost
/// in `(0, 1e9]` objects, every declared demand in `[0, 1e9]`, and
/// every write step exclusively locked. [`Engine::submit`] and
/// [`Engine::restore`] apply it to each external transaction.
///
/// # Errors
/// Names the first offending step.
pub fn validate_spec(spec: &BatchSpec, num_files: u32) -> Result<(), String> {
    if spec.steps.is_empty() {
        return Err("a transaction needs at least one step".into());
    }
    for (i, s) in spec.steps.iter().enumerate() {
        if s.file.0 >= num_files {
            return Err(format!(
                "step {i}: file must be an integer in 0..{num_files}, got {}",
                s.file.0
            ));
        }
        if !(s.cost > 0.0 && s.cost <= MAX_STEP_OBJECTS) {
            return Err(format!("step {i}: bad cost {}", s.cost));
        }
        if !(s.declared >= 0.0 && s.declared <= MAX_STEP_OBJECTS) {
            return Err(format!("step {i}: bad declared {}", s.declared));
        }
        if s.access == Access::Write && s.mode != LockMode::Exclusive {
            return Err(format!("step {i}: a write step needs an exclusive lock"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadKind;
    use bds_des::time::Duration;
    use bds_sched::SchedulerKind;

    fn cfg(kind: SchedulerKind) -> SimConfig {
        let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        c.horizon = Duration::from_secs(200_000 / 1000); // 200 s
        c.lambda_tps = 0.5;
        c
    }

    #[test]
    fn nodc_light_load_rt_matches_service_time() {
        // At a very light load with DD = 1 the response time is just the
        // sum of per-step scans (7.2 s) plus small CN costs.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 0.02;
        c.horizon = Duration::from_secs(2000);
        let r = Engine::run(&c);
        assert!(r.completed >= 20, "completed {}", r.completed);
        let rt = r.mean_rt_secs();
        assert!(
            (rt - 7.2).abs() < 0.3,
            "light-load RT should be ≈ 7.2 s, got {rt}"
        );
    }

    #[test]
    fn nodc_dd8_light_load_speedup() {
        // With DD = 8 every scan runs 8-way parallel: RT ≈ 7.2/8 ≈ 0.9 s.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 0.02;
        c.dd = 8;
        c.horizon = Duration::from_secs(2000);
        let r = Engine::run(&c);
        let rt = r.mean_rt_secs();
        assert!(rt < 1.2, "DD=8 light-load RT should be ≈ 0.9 s, got {rt}");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let c = cfg(SchedulerKind::Low(2)).with_lambda(0.6);
        let a = Engine::run(&c);
        let b = Engine::run(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let a = Engine::run(&c);
        let b = Engine::run(&c.clone().with_seed(123));
        assert_ne!(a.completed, b.completed);
    }

    #[test]
    fn all_schedulers_complete_work() {
        for kind in SchedulerKind::PAPER_SET {
            let c = cfg(kind).with_lambda(0.4);
            let r = Engine::run(&c);
            // OPT genuinely thrashes under this contention level (the
            // paper's Fig. 8 shows it saturating first), so only demand
            // meaningful forward progress.
            assert!(
                r.completed > r.arrived / 4,
                "{kind}: completed only {} of {}",
                r.completed,
                r.arrived
            );
            assert!(r.mean_rt_secs() > 0.0);
        }
    }

    #[test]
    fn mpl_caps_live_transactions() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(1.2).with_mpl(4);
        let r = Engine::run(&c);
        assert!(r.mean_live <= 4.01, "mean live {} exceeds mpl", r.mean_live);
    }

    #[test]
    fn overload_grows_queue() {
        // λ beyond capacity (≈ 1.11 TPS for Pattern 1 on 8 nodes): the
        // backlog at the horizon must be substantial under NODC.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 1.4;
        c.horizon = Duration::from_secs(2000);
        let r = Engine::run(&c);
        assert!(
            r.arrived > r.completed + 100,
            "arrived {} completed {}",
            r.arrived,
            r.completed
        );
        assert!(r.dpn_utilization > 0.9, "dpn {}", r.dpn_utilization);
    }

    #[test]
    fn engine_step_matches_bulk_run() {
        // Driving the engine one event at a time produces the identical
        // report to the bulk run — there is only one event loop.
        let c = cfg(SchedulerKind::Gow).with_lambda(0.6);
        let bulk = Engine::run(&c);
        let mut e = Engine::new(&c);
        let mut steps = 0u64;
        while e.step().is_some() {
            steps += 1;
        }
        assert_eq!(e.report(), bulk);
        assert_eq!(steps, bulk.events);

        // The recording entry point under a ring tracer: same report,
        // per-step records that concatenate to the ring's, and a ring
        // identical to a traced bulk run's.
        let mut traced = Engine::new(&c);
        traced.set_tracer(Tracer::ring(Tracer::DEFAULT_CAPACITY));
        traced.run_to_horizon();
        let want = traced.take_trace().expect("ring installed");
        let mut e = Engine::new(&c);
        e.set_tracer(Tracer::ring(Tracer::DEFAULT_CAPACITY));
        let mut records = Vec::new();
        let mut steps = 0u64;
        while e.step_records(&mut records).is_some() {
            steps += 1;
        }
        assert_eq!(e.report(), bulk);
        assert_eq!(steps, bulk.events);
        let ring = e.take_trace().expect("ring survives the taps");
        assert_eq!(ring.dropped, 0, "ring must hold the whole run");
        assert_eq!(records, ring.records);
        assert_eq!(ring, want);
    }

    #[test]
    fn step_records_changes_no_state() {
        // A tap without a ring must not drain the scheduler's constraint
        // log: the snapshot and the edges the serializability audit
        // drains both match plain stepping.
        let c = cfg(SchedulerKind::Gow).with_lambda(0.6);
        let mut plain = Engine::new(&c);
        let mut recorded = Engine::new(&c);
        plain.enable_checkpointing();
        recorded.enable_checkpointing();
        let mut records = Vec::new();
        while plain.step().is_some() {
            assert!(recorded.step_records(&mut records).is_some());
        }
        assert!(recorded.step_records(&mut records).is_none());
        assert!(!records.is_empty());
        assert_eq!(plain.snapshot(), recorded.snapshot());
        let edges = plain.drain_constraints();
        assert!(!edges.is_empty(), "GOW orders conflicting transactions");
        assert_eq!(edges, recorded.drain_constraints());
    }

    #[test]
    fn validate_spec_names_the_bad_step() {
        use bds_workload::Step;
        // Built field by field: `BatchSpec::new` asserts some of these.
        let spec = |steps| BatchSpec { steps };
        let ok = Step::read(FileId(15), LockMode::Shared, 1.0);
        assert_eq!(validate_spec(&spec(vec![ok]), 16), Ok(()));
        let mut shared_write = Step::write(FileId(2), 1.0);
        shared_write.mode = LockMode::Shared;
        let bad = [
            (Step::read(FileId(16), LockMode::Shared, 1.0), "file"),
            (Step::write(FileId(1), 0.0), "cost"),
            (Step::write(FileId(1), f64::NAN), "cost"),
            (Step::write(FileId(1), 1e10), "cost"),
            (Step::write(FileId(1), 1.0).with_declared(1e10), "declared"),
            (shared_write, "exclusive"),
        ];
        for (step, needle) in bad {
            let err =
                validate_spec(&spec(vec![ok, step]), 16).expect_err("bad step must be refused");
            assert!(err.starts_with("step 1:") && err.contains(needle), "{err}");
        }
        let mut negative = Step::write(FileId(1), 1.0);
        negative.declared = -0.5;
        assert!(validate_spec(&spec(vec![negative]), 16).is_err());
        assert!(validate_spec(&spec(Vec::new()), 16).is_err());
    }

    #[test]
    fn run_until_interleaving_matches_bulk_run() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let bulk = Engine::run(&c);
        let mut e = Engine::new(&c);
        let mut n = 0u64;
        for ms in [10_000u64, 50_000, 120_000, 200_000] {
            n += e.run_until(SimTime::from_millis(ms));
        }
        assert_eq!(e.report(), bulk);
        assert_eq!(n, bulk.events);
    }

    #[test]
    #[should_panic(expected = "duplicate txn id 1")]
    fn txns_reject_duplicate_ids() {
        // Reissuing a live id must panic, not replace the transaction.
        let mut e = Engine::new(&cfg(SchedulerKind::Nodc));
        let write = || BatchSpec::new(vec![bds_workload::spec::Step::write(FileId(1), 1.0)]);
        e.submit(write());
        e.next_txn = 1;
        // A fresh scheduler, so the engine's own check is the one hit.
        e.scheduler = SchedulerKind::Nodc.build(&e.cfg.costs);
        e.submit(write());
    }
}
