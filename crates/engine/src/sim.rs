//! The historical batch-run simulator API: a thin adapter over
//! [`Engine`].
//!
//! [`Simulator`] is what the drivers, experiments and tests have always
//! used — build from a [`SimConfig`], run to the horizon, read the
//! report. Since the engine refactor it owns no loop of its own: every
//! method delegates to the single event loop in [`crate::engine`], so
//! batch runs, incremental [`Engine::step`] runs and the `bds-serve`
//! front all execute identical code.

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::metrics::SimReport;
use bds_des::time::{Duration, SimTime};
use bds_metrics::{LogHistogram, TimeSeries};
use bds_sched::Scheduler;
use bds_trace::{TraceData, Tracer};
use bds_wtpg::TxnId;

/// The discrete-event simulator (adapter over [`Engine`]).
pub struct Simulator {
    engine: Engine,
}

impl Simulator {
    /// Build a simulator from a configuration (workload taken from
    /// `cfg.workload`).
    pub fn new(cfg: &SimConfig) -> Self {
        Simulator {
            engine: Engine::new(cfg),
        }
    }

    /// Build with an explicit workload generator (for custom workloads
    /// beyond the paper's experiments).
    pub fn with_generator(
        cfg: &SimConfig,
        genr: Box<dyn bds_workload::gen::WorkloadGen>,
        arrival_rng: bds_des::rng::Xoshiro256,
    ) -> Self {
        Simulator {
            engine: Engine::with_generator(cfg, genr, arrival_rng),
        }
    }

    /// Run to the horizon and report.
    pub fn run(cfg: &SimConfig) -> SimReport {
        let mut sim = Simulator::new(cfg);
        sim.run_to_horizon();
        sim.report()
    }

    /// Run with a ring-buffer tracer of the given capacity and return
    /// both the report and the captured trace. The report is
    /// byte-identical to an untraced [`Simulator::run`] of the same
    /// configuration — tracing only observes.
    pub fn run_traced(cfg: &SimConfig, capacity: usize) -> (SimReport, TraceData) {
        let mut sim = Simulator::new(cfg);
        sim.set_tracer(Tracer::ring(capacity));
        sim.run_to_horizon();
        let report = sim.report();
        let data = sim.take_trace().expect("ring tracer was installed");
        (report, data)
    }

    /// Run with time-series sampling every `dt` of simulated time,
    /// returning the report and the sampled series. The report is
    /// byte-identical to an unsampled [`Simulator::run`] of the same
    /// configuration — sampling only observes.
    pub fn run_with_metrics(cfg: &SimConfig, dt: Duration) -> (SimReport, TimeSeries) {
        let mut sim = Simulator::new(cfg);
        sim.set_metrics_interval(dt);
        sim.run_to_horizon();
        let report = sim.report();
        let series = sim.take_metrics().expect("sampler was installed");
        (report, series)
    }

    /// Install a tracer (replace any previous one). Call before
    /// [`Simulator::run_to_horizon`] to capture the whole run.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer);
    }

    /// Enable metrics sampling at the given simulated-time interval
    /// (replace any previous sampler). Call before
    /// [`Simulator::run_to_horizon`].
    pub fn set_metrics_interval(&mut self, dt: Duration) {
        self.engine.set_metrics_interval(dt);
    }

    /// Detach the sampler and return the series (`None` when sampling
    /// was off).
    pub fn take_metrics(&mut self) -> Option<TimeSeries> {
        self.engine.take_metrics()
    }

    /// The log-bucketed response-time histogram over committed
    /// transactions (exporters render its buckets directly).
    pub fn rt_histogram(&self) -> &LogHistogram {
        self.engine.rt_histogram()
    }

    /// Detach the tracer and return its captured data (`None` when
    /// tracing was off).
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.engine.take_trace()
    }

    /// Drive the event loop until the horizon.
    pub fn run_to_horizon(&mut self) {
        self.engine.run_to_horizon();
    }

    /// Per-DPN downtime accumulated up to `at` (nodes still down are
    /// charged through `at`).
    pub fn node_downtime(&self, at: SimTime) -> Vec<Duration> {
        self.engine.node_downtime(at)
    }

    /// Transactions arrived but neither committed nor killed yet.
    pub fn in_flight(&self) -> u64 {
        self.engine.in_flight()
    }

    /// Histogram of fault-kill attempt counts at permanent kill time.
    pub fn retry_histogram(&self) -> &LogHistogram {
        self.engine.retry_histogram()
    }

    /// Produce the report (call after [`Simulator::run_to_horizon`]).
    pub fn report(&self) -> SimReport {
        self.engine.report()
    }

    /// Replace the scheduler with a custom implementation (extension
    /// point beyond the paper's six). Must be called before the first
    /// event is processed.
    ///
    /// # Panics
    /// Panics if the simulation has already started.
    pub fn replace_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.engine.replace_scheduler(scheduler);
    }

    /// Drain the precedence constraints the scheduler observed — used by
    /// the serializability audit in the integration tests.
    pub fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        self.engine.drain_constraints()
    }

    /// Access the scheduler (e.g. for downcasting to read statistics in
    /// tests).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.engine.scheduler()
    }

    /// The underlying engine, for incremental driving (stepping,
    /// checkpointing, hot-swap) of a simulator built through this API.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
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
        let r = Simulator::run(&c);
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
        let r = Simulator::run(&c);
        let rt = r.mean_rt_secs();
        assert!(rt < 1.2, "DD=8 light-load RT should be ≈ 0.9 s, got {rt}");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let c = cfg(SchedulerKind::Low(2)).with_lambda(0.6);
        let a = Simulator::run(&c);
        let b = Simulator::run(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let a = Simulator::run(&c);
        let b = Simulator::run(&c.clone().with_seed(123));
        assert_ne!(a.completed, b.completed);
    }

    #[test]
    fn all_schedulers_complete_work() {
        for kind in SchedulerKind::PAPER_SET {
            let c = cfg(kind).with_lambda(0.4);
            let r = Simulator::run(&c);
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
        let r = Simulator::run(&c);
        assert!(r.mean_live <= 4.01, "mean live {} exceeds mpl", r.mean_live);
    }

    #[test]
    fn overload_grows_queue() {
        // λ beyond capacity (≈ 1.11 TPS for Pattern 1 on 8 nodes): the
        // backlog at the horizon must be substantial under NODC.
        let mut c = cfg(SchedulerKind::Nodc);
        c.lambda_tps = 1.4;
        c.horizon = Duration::from_secs(2000);
        let r = Simulator::run(&c);
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
        let bulk = Simulator::run(&c);
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
        // log: the op-log, the snapshot and the edges the
        // serializability audit drains all match plain stepping.
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
    fn run_until_interleaving_matches_bulk_run() {
        let c = cfg(SchedulerKind::C2pl).with_lambda(0.6);
        let bulk = Simulator::run(&c);
        let mut e = Engine::new(&c);
        let mut n = 0u64;
        for ms in [10_000u64, 50_000, 120_000, 200_000] {
            n += e.run_until(SimTime::from_millis(ms));
        }
        assert_eq!(e.report(), bulk);
        assert_eq!(n, bulk.events);
    }
}
