//! Shared helpers for the scheduler test suites. This file is included
//! as a module (`#[path = "harness.rs"] mod harness;`) by
//! `sched_conformance.rs` and `chaos.rs`, so the helpers are written
//! once and every suite sees the same workloads, fault plans, and
//! invariant checks. It also compiles stand-alone as an (empty)
//! integration-test crate, hence the crate-level `dead_code` allow.
#![allow(dead_code)]

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::time::SimTime;
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::fault::{CnStall, CrashFault, DegradedMode, FaultPlan, LinkFaults, RetryPolicy};
use batchsched::sched::SchedulerKind;
use batchsched::workload::spec::{BatchSpec, FileId, LockMode, Step};
use batchsched::wtpg::oracle::is_serializable;

/// Draw a random-but-reproducible fault plan over a `horizon_secs` run.
pub fn random_plan(rng: &mut Xoshiro256, horizon_secs: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = rng.next_u64();
    for _ in 0..rng.next_range(4) {
        plan.crashes.push(CrashFault {
            node: rng.next_range(8) as u32,
            at: SimTime::from_millis(rng.next_range(horizon_secs * 800) + 1),
            down_for: Duration::from_millis(rng.next_range(30_000) + 1_000),
        });
    }
    if rng.next_range(2) == 1 {
        plan.cn_stalls.push(CnStall {
            at: SimTime::from_millis(rng.next_range(horizon_secs * 1000)),
            stall_for: Duration::from_millis(rng.next_range(8_000) + 500),
        });
    }
    if rng.next_range(2) == 1 {
        plan.link = LinkFaults {
            delay: Duration::from_millis(rng.next_range(20)),
            loss_per_mille: rng.next_range(80) as u32,
            redeliver_after: Duration::from_millis(rng.next_range(1500) + 100),
        };
    }
    if rng.next_range(4) == 0 {
        plan.mtbf = Some(Duration::from_secs(rng.next_range(200) + 40));
        plan.mttr = Duration::from_secs(rng.next_range(20) + 5);
    }
    plan.retry = RetryPolicy {
        base_delay: Duration::from_millis(rng.next_range(3_000) + 200),
        max_delay: Duration::from_secs(20),
        max_attempts: rng.next_range(5) as u32 + 1,
    };
    plan.degraded = if rng.next_range(2) == 0 {
        DegradedMode::Reroute
    } else {
        DegradedMode::Hold
    };
    plan
}

/// Derive a full chaos-case config (seed, load point, fault plan) from
/// one case seed.
pub fn case_config(kind: SchedulerKind, case_seed: u64) -> SimConfig {
    let mut rng = Xoshiro256::seed_from_u64(case_seed);
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.seed = rng.next_u64();
    c.lambda_tps = [0.4, 0.7, 1.0][rng.next_index(3)];
    c.horizon = Duration::from_secs(60);
    c.with_faults(random_plan(&mut rng, 60))
}

/// The invariants every scheduler must uphold under every fault plan.
/// The assertion messages carry `case_seed` so a failure replays
/// exactly.
pub fn check_case(kind: SchedulerKind, case_seed: u64) {
    let c = case_config(kind, case_seed);
    let mut sim = Engine::new(&c);
    sim.run_to_horizon();
    let r = sim.report();
    let ctx = format!("{kind} case_seed={case_seed:#x} plan={:?}", c.faults);
    // Conservation: arrivals = committed + permanently killed + tracked.
    assert_eq!(
        r.arrived,
        r.completed + r.killed + sim.in_flight(),
        "{ctx}: conservation violated"
    );
    // Cause counters partition the abort total.
    assert_eq!(
        r.restarts,
        r.aborts_validation + r.aborts_scheduler + r.aborts_fault,
        "{ctx}: abort-cause partition violated"
    );
    // Brook-2PL is deadlock-free by construction (every transaction
    // acquires in ascending FileId order), so it must never issue a
    // scheduler-induced restart — across the whole chaos corpus.
    if kind == SchedulerKind::Brook {
        assert_eq!(
            r.aborts_scheduler, 0,
            "{ctx}: Brook-2PL issued a scheduler abort — deadlock freedom broken"
        );
    }
    // No WTPG arena slot may leak when attempts die to crashes.
    let tel = sim.scheduler().telemetry();
    assert_eq!(
        tel.wtpg_slots - tel.wtpg_free,
        tel.wtpg_nodes,
        "{ctx}: WTPG arena slot leak"
    );
    // No locks held by dead transactions: all rows belong to tracked
    // transactions (≤ 3 locks per Pattern-1 batch).
    assert!(
        tel.locks_held as u64 <= 3 * sim.in_flight(),
        "{ctx}: {} lock rows exceed what {} tracked transactions can hold",
        tel.locks_held,
        sim.in_flight()
    );
    // Schedulers that expose a structural invariant must satisfy it in
    // the final state too.
    if let Some(audit) = sim.scheduler().audit_invariant() {
        audit.unwrap_or_else(|e| panic!("{ctx}: structural invariant broken: {e}"));
    }
    assert!(
        (0.0..=1.0).contains(&r.availability),
        "{ctx}: availability {} out of range",
        r.availability
    );
    // Serializability of the committed history under faults. NODC is
    // non-serializable by design (the paper's upper bound).
    if kind != SchedulerKind::Nodc {
        let constraints = sim.drain_constraints();
        assert!(
            is_serializable(&constraints),
            "{ctx}: cyclic precedence history ({} constraints)",
            constraints.len()
        );
    }
}

/// Draw a random Pattern-1-style batch: 1–3 steps over `num_files`
/// files, mixed read/write, unique files per batch (matching the
/// generator's no-repeat discipline that the schedulers assume).
pub fn random_spec(rng: &mut Xoshiro256, num_files: u32) -> BatchSpec {
    let n = rng.next_range(3) as usize + 1;
    let mut files: Vec<u32> = Vec::new();
    while files.len() < n {
        let f = rng.next_range(num_files as u64) as u32;
        if !files.contains(&f) {
            files.push(f);
        }
    }
    let steps = files
        .into_iter()
        .map(|f| {
            let cost = 0.5 + rng.next_range(20) as f64 * 0.1;
            if rng.next_range(2) == 0 {
                Step::write(FileId(f), cost)
            } else {
                Step::read(FileId(f), LockMode::Shared, cost)
            }
        })
        .collect();
    BatchSpec::new(steps)
}

/// A config whose Poisson arrival process is effectively disabled: the
/// first generated arrival lands ~1e9 s out, so only transactions fed
/// through [`Engine::submit`] exist. This is what makes a true
/// drain-to-empty test possible.
///
/// Multiprogramming is capped at 8: an uncapped closed burst puts
/// restart-based schedulers (WDL) into a periodic restart orbit —
/// with a constant restart delay and no arrival jitter, the same
/// transactions collide forever. The FIFO admission gate under an MPL
/// cap rotates restarted transactions past each other, which is what
/// any open arrival process does for free.
pub fn submit_only_config(kind: SchedulerKind, seed: u64) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.seed = seed;
    c.lambda_tps = 1e-9;
    c.horizon = Duration::from_secs(100_000);
    c.mpl = Some(8);
    c
}

/// Submit `n` random batches into an otherwise-idle engine, run until
/// everything drains, and return the engine for post-drain inspection.
/// Panics if the engine wedges (drain not reached by the cutoff).
///
/// Submissions are jittered in time rather than dumped at t=0: a
/// same-instant burst puts every restart delay in lockstep, which
/// livelocks restart-based schedulers (WDL) in a way no arrival
/// process ever would.
pub fn run_drain(kind: SchedulerKind, seed: u64, n: usize) -> Engine {
    let c = submit_only_config(kind, seed);
    let mut e = Engine::new(&c);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD5A1_70AD);
    let mut at = 0u64;
    for _ in 0..n {
        at += rng.next_range(1_500) + 1;
        e.run_until(SimTime::from_millis(at));
        e.submit(random_spec(&mut rng, 16));
    }
    // Far beyond any plausible completion time for n batches, far
    // before the ~1e9 s first Poisson arrival.
    e.run_until(SimTime::from_millis(50_000_000));
    assert_eq!(
        e.in_flight(),
        0,
        "{kind} seed={seed:#x}: {} of {n} submitted batches never drained \
         (now={:?} restarts={} completed={})",
        e.in_flight(),
        e.now(),
        e.report().restarts,
        e.report().completed,
    );
    e
}

/// Assert the scheduler retains no per-transaction state after a full
/// drain: no lock rows, no WTPG nodes, no leaked arena slots.
pub fn assert_no_retained_state(e: &Engine, ctx: &str) {
    let tel = e.scheduler().telemetry();
    assert_eq!(tel.locks_held, 0, "{ctx}: lock rows leaked after drain");
    assert_eq!(tel.wtpg_nodes, 0, "{ctx}: WTPG nodes leaked after drain");
    assert_eq!(
        tel.wtpg_slots - tel.wtpg_free,
        0,
        "{ctx}: WTPG arena slots leaked after drain"
    );
    if let Some(audit) = e.scheduler().audit_invariant() {
        audit.unwrap_or_else(|err| panic!("{ctx}: structural invariant broken: {err}"));
    }
}
