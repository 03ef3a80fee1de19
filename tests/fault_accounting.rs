//! Accounting invariants under fault injection: no transaction is lost
//! (arrivals = commits + permanent kills + in-flight), no lock rows or
//! WTPG arena slots leak when attempts are destroyed by crashes, and
//! the abort counters partition cleanly by cause.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;

fn cfg(kind: SchedulerKind, lambda: f64, plan: &str) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.lambda_tps = lambda;
    c.horizon = Duration::from_secs(400);
    c.with_faults(FaultPlan::parse(plan).expect("plan parses"))
}

/// Run and check every invariant that must hold for *any* scheduler and
/// *any* fault plan.
fn check(kind: SchedulerKind, lambda: f64, plan: &str) {
    let c = cfg(kind, lambda, plan);
    let mut sim = Engine::new(&c);
    sim.run_to_horizon();
    let r = sim.report();
    let ctx = format!("{kind} λ={lambda} plan={plan:?}");
    // Conservation: every arrival is committed, permanently killed, or
    // still tracked (queued, executing, or awaiting restart).
    assert_eq!(
        r.arrived,
        r.completed + r.killed + sim.in_flight(),
        "{ctx}: conservation violated (arrived {} completed {} killed {} in-flight {})",
        r.arrived,
        r.completed,
        r.killed,
        sim.in_flight()
    );
    // The abort causes partition the legacy restart counter.
    assert_eq!(
        r.restarts,
        r.aborts_validation + r.aborts_scheduler + r.aborts_fault,
        "{ctx}: abort causes do not partition restarts"
    );
    assert!(
        r.killed <= r.aborts_fault,
        "{ctx}: kills without fault aborts"
    );
    assert!(
        (0.0..=1.0).contains(&r.availability),
        "{ctx}: availability {} out of range",
        r.availability
    );
    // WTPG arena leak check: every allocated slot is either free or a
    // live graph node — a killed transaction's slot must return to the
    // free list exactly once (PR 3's arena reuse path).
    let tel = sim.scheduler().telemetry();
    assert_eq!(
        tel.wtpg_slots - tel.wtpg_free,
        tel.wtpg_nodes,
        "{ctx}: WTPG arena leaked slots ({} allocated, {} free, {} nodes)",
        tel.wtpg_slots,
        tel.wtpg_free,
        tel.wtpg_nodes
    );
    // Lock rows must be attributable to tracked transactions. Pattern-1
    // batches hold at most 3 locks each.
    assert!(
        tel.locks_held as u64 <= 3 * sim.in_flight(),
        "{ctx}: {} lock rows but only {} tracked transactions",
        tel.locks_held,
        sim.in_flight()
    );
    if sim.in_flight() == 0 {
        assert_eq!(tel.locks_held, 0, "{ctx}: locks held by dead transactions");
    }
}

const CRASHY: &str = "crash=1@40x20,crash=4@90x15,crash=1@200x25,retry=1000:8000:4";

#[test]
fn crashes_conserve_transactions_all_schedulers() {
    for kind in SchedulerKind::PAPER_SET {
        check(kind, 0.6, CRASHY);
    }
}

#[test]
fn aggressive_kills_release_everything() {
    // max_attempts=1: the first crash a transaction is caught in kills
    // it permanently, exercising `Scheduler::forget` heavily.
    let plan = "mtbf=80,mttr=10,retry=500:500:1,seed=9";
    for kind in SchedulerKind::PAPER_SET {
        check(kind, 0.8, plan);
    }
}

#[test]
fn link_faults_and_stalls_conserve() {
    let plan = "delay=5,loss=60,redeliver=400,stall=50x5,stall=150x10,crash=3@100x20";
    for kind in SchedulerKind::PAPER_SET {
        check(kind, 0.7, plan);
    }
}

#[test]
fn hold_mode_conserves() {
    let plan = "crash=2@60x40,mode=hold,retry=2000:16000:6";
    for kind in SchedulerKind::PAPER_SET {
        check(kind, 0.5, plan);
    }
}

#[test]
fn empty_plan_reports_no_fault_activity() {
    for kind in SchedulerKind::PAPER_SET {
        let c = cfg(kind, 0.8, "");
        let r = Engine::run(&c);
        assert_eq!(r.aborts_fault, 0, "{kind}: fault aborts without a plan");
        assert_eq!(r.killed, 0, "{kind}: kills without a plan");
        assert_eq!(r.availability, 1.0, "{kind}: downtime without a plan");
        assert_eq!(r.downtime_secs, 0.0);
        // The cause split still covers legacy aborts.
        assert_eq!(r.restarts, r.aborts_validation + r.aborts_scheduler);
    }
}

#[test]
fn kills_happen_and_are_counted() {
    // A long outage with a tight retry budget must actually kill work:
    // the counters can only be trusted if the path is exercised.
    let c = cfg(
        SchedulerKind::Nodc,
        0.9,
        "mtbf=60,mttr=30,retry=200:400:2,seed=3",
    );
    let mut sim = Engine::new(&c);
    sim.run_to_horizon();
    let r = sim.report();
    assert!(r.aborts_fault > 0, "no fault aborts under heavy crashing");
    assert!(r.killed > 0, "no kills despite retry=..:..:2 under crashes");
    assert!(r.downtime_secs > 0.0);
    assert!(r.availability < 1.0);
    assert_eq!(
        sim.retry_histogram().total(),
        r.killed,
        "retry histogram must record one entry per kill"
    );
}

#[test]
fn faults_eventually_drain() {
    // All faults cease by t=120s; over a long horizon the system must
    // return to its faults-off backlog — a crash may not wedge anything
    // permanently. Compared against the clean baseline rather than an
    // absolute bound because some schedulers (C2PL) convoy on their own
    // at this load, faults or not.
    let plan = "crash=0@30x20,crash=5@60x30,crash=2@100x15,retry=1000:4000:3";
    for kind in SchedulerKind::PAPER_SET {
        let mut faulty = cfg(kind, 0.4, plan);
        faulty.horizon = Duration::from_secs(900);
        let mut clean = cfg(kind, 0.4, "");
        clean.horizon = Duration::from_secs(900);
        let mut sim = Engine::new(&faulty);
        sim.run_to_horizon();
        let r = sim.report();
        let mut base = Engine::new(&clean);
        base.run_to_horizon();
        assert!(
            sim.in_flight() <= base.in_flight() + 10,
            "{kind}: {} in flight after faults ceased vs {} clean — faults wedged work",
            sim.in_flight(),
            base.in_flight()
        );
        assert!(r.completed > 0);
    }
}
