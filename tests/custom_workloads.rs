//! The library beyond the paper: custom patterns, skewed popularity and
//! custom schedulers through the public extension points.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::{Outcome, ReqDecision, Scheduler, SchedulerKind, StartDecision};
use batchsched::workload::gen::CustomPattern;
use batchsched::workload::pattern::{Pattern, StepTemplate};
use batchsched::workload::spec::Access;
use batchsched::workload::{BatchSpec, FileId, LockMode};
use batchsched::wtpg::TxnId;

/// A read-mostly analysis pattern: scan three files, update none.
fn scan_pattern() -> Pattern {
    Pattern::new(
        3,
        (0..3)
            .map(|slot| StepTemplate {
                slot,
                mode: LockMode::Shared,
                access: Access::Read,
                cost: 2.0,
            })
            .collect(),
    )
}

#[test]
fn read_only_workload_has_no_contention() {
    // S locks never conflict: every scheduler behaves like NODC.
    let workload = WorkloadKind::Custom {
        pattern: scan_pattern(),
        num_files: 16,
    };
    let mut reference = SimConfig::new(SchedulerKind::Nodc, workload.clone());
    reference.lambda_tps = 0.8;
    reference.horizon = Duration::from_secs(600);
    let nodc = Engine::run(&reference);
    for kind in [
        SchedulerKind::Asl,
        SchedulerKind::C2pl,
        SchedulerKind::Low(2),
    ] {
        let mut cfg = reference.clone();
        cfg.scheduler = kind;
        let r = Engine::run(&cfg);
        assert_eq!(
            r.completed, nodc.completed,
            "{kind} should match NODC on a read-only workload"
        );
        assert!((r.mean_rt_secs() - nodc.mean_rt_secs()).abs() < 2.0);
    }
}

#[test]
fn skewed_popularity_increases_contention() {
    // A Zipf-ish skew concentrates updates on two files: response time
    // under LOW must exceed the uniform case.
    let pattern = Pattern::pattern1();
    let uniform = {
        let mut cfg = SimConfig::new(
            SchedulerKind::Low(2),
            WorkloadKind::Custom {
                pattern: pattern.clone(),
                num_files: 16,
            },
        );
        cfg.lambda_tps = 0.6;
        cfg.horizon = Duration::from_secs(600);
        Engine::run(&cfg)
    };
    let skewed = {
        let mut weights = vec![0.2f64; 16];
        weights[0] = 10.0;
        weights[1] = 10.0;
        let genr = CustomPattern::skewed(pattern, &weights, Xoshiro256::seed_from_u64(42));
        let mut cfg = SimConfig::new(
            SchedulerKind::Low(2),
            WorkloadKind::Exp1 { num_files: 16 }, // placeholder; generator overrides
        );
        cfg.lambda_tps = 0.6;
        cfg.horizon = Duration::from_secs(600);
        let mut sim =
            Engine::with_generator(&cfg, Box::new(genr), Xoshiro256::seed_from_u64(cfg.seed));
        sim.run_to_horizon();
        sim.report()
    };
    assert!(
        skewed.mean_rt_secs() > uniform.mean_rt_secs(),
        "skewed RT {:.1} must exceed uniform RT {:.1}",
        skewed.mean_rt_secs(),
        uniform.mean_rt_secs()
    );
}

/// A minimal scheduler: delays every contended request until a wakeup
/// or the retry tick. It has no deadlock avoidance, so the test drives
/// it with single-lock transactions (deadlock-free by construction) to
/// check liveness through timer-driven retries.
#[derive(Debug, Default)]
struct LazyLocker {
    table: batchsched::sched::lock_table::LockTable,
    specs: std::collections::BTreeMap<TxnId, BatchSpec>,
    live: std::collections::BTreeSet<TxnId>,
}

impl Scheduler for LazyLocker {
    fn name(&self) -> &'static str {
        "LAZY"
    }
    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.specs.insert(id, spec);
    }
    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        self.live.insert(id);
        Outcome::free(StartDecision::Admit)
    }
    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let s = self.specs[&id].steps[step];
        if self.table.can_grant(id, s.file, s.mode) {
            self.table.grant(id, s.file, s.mode);
            Outcome::free(ReqDecision::Granted)
        } else {
            Outcome::free(ReqDecision::Delayed)
        }
    }
    fn step_complete(&mut self, _id: TxnId, _step: usize) {}
    fn validate(&mut self, _id: TxnId) -> Outcome<bool> {
        Outcome::free(true)
    }
    fn commit(&mut self, id: TxnId) -> Vec<FileId> {
        self.live.remove(&id);
        self.specs.remove(&id);
        self.table.release_all(id)
    }
    fn abort(&mut self, id: TxnId) -> Vec<FileId> {
        self.live.remove(&id);
        self.table.release_all(id)
    }
    fn live_count(&self) -> usize {
        self.live.len()
    }
}

#[test]
fn custom_scheduler_runs_through_public_api() {
    // One exclusive scan per transaction: contention without deadlock.
    let single_lock = Pattern::new(
        1,
        vec![StepTemplate {
            slot: 0,
            mode: LockMode::Exclusive,
            access: Access::Write,
            cost: 3.0,
        }],
    );
    let workload = WorkloadKind::Custom {
        pattern: single_lock,
        num_files: 16,
    };
    let mut cfg = SimConfig::new(SchedulerKind::Nodc, workload.clone());
    cfg.lambda_tps = 0.4;
    cfg.horizon = Duration::from_secs(600);
    let mut master = Xoshiro256::seed_from_u64(cfg.seed);
    let arrivals = master.fork();
    let genr = workload.build(master.fork());
    let mut sim = Engine::with_generator(&cfg, genr, arrivals);
    sim.replace_scheduler(Box::new(LazyLocker::default()));
    sim.run_to_horizon();
    let r = sim.report();
    assert_eq!(r.scheduler, "LAZY");
    assert!(
        r.completed > 100,
        "custom scheduler completed only {}",
        r.completed
    );
    assert_eq!(r.restarts, 0);
}
