//! Scheduler-conformance suite: one parameterized set of contracts
//! that every `SchedulerKind` — paper six, WDL, and the batch/epoch
//! family (DGCC, BROOK) — must pass before it is allowed near the
//! repro tables. The workload, fault-plan, and invariant helpers are
//! shared with `chaos.rs` through `harness.rs`.
//!
//! Contracts:
//!   1. serializability under randomized workloads (NODC exempt by
//!      design — it is the paper's no-concurrency-control bound),
//!   2. conservation: arrivals = commits + in-flight + killed,
//!   3. no lock-table or WTPG-arena state retained after a full drain,
//!   4. survival of external aborts under randomized fault plans,
//!   5. checkpoint → restore → run byte-identity,
//!   6. Brook-2PL zero-deadlock, asserted structurally (ascending
//!      lock-order prefix audited mid-run) and observationally
//!      (`aborts_scheduler == 0`),
//!   7. a refusal the engine replays while it stands changes nothing:
//!      a run that asks the scheduler every time gives the same report
//!      and the same trace.

#[path = "harness.rs"]
mod harness;

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::{Duration, SimTime};
use batchsched::engine::{Engine, Snapshot};
use batchsched::sched::{
    Outcome, ReqDecision, SchedTelemetry, Scheduler, SchedulerKind, StartDecision,
};
use batchsched::trace::{TraceData, Tracer};
use batchsched::workload::{BatchSpec, FileId};
use batchsched::wtpg::oracle::is_serializable;
use batchsched::wtpg::TxnId;
use harness::{assert_no_retained_state, check_case, random_plan, run_drain};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn load_point(kind: SchedulerKind, lambda: f64, dd: u32, seed: u64) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.lambda_tps = lambda;
    c.dd = dd;
    c.seed = seed;
    c.horizon = Duration::from_secs(200);
    c
}

/// Contract 1: every committed history has a serial equivalent, at a
/// moderate and a saturating load point, across several seeds.
#[test]
fn conformance_serializability() {
    for kind in SchedulerKind::ALL {
        if kind == SchedulerKind::Nodc {
            continue;
        }
        for (lambda, dd, seed) in [(0.6, 1, 21u64), (1.2, 1, 22), (0.8, 4, 23)] {
            let c = load_point(kind, lambda, dd, seed);
            let mut sim = Engine::new(&c);
            sim.run_to_horizon();
            let r = sim.report();
            assert!(
                r.completed > 0,
                "{kind} λ={lambda} dd={dd} seed={seed}: no commits — audit vacuous"
            );
            let constraints = sim.drain_constraints();
            assert!(
                is_serializable(&constraints),
                "{kind} λ={lambda} dd={dd} seed={seed}: cyclic precedence history \
                 ({} constraints)",
                constraints.len()
            );
        }
    }
}

/// Contract 2: arrivals are conserved — every transaction the arrival
/// process produced is committed, permanently killed, or still tracked.
#[test]
fn conformance_conservation() {
    for kind in SchedulerKind::ALL {
        for seed in 31..34u64 {
            let c = load_point(kind, 1.0, 1, seed);
            let mut sim = Engine::new(&c);
            sim.run_to_horizon();
            let r = sim.report();
            assert_eq!(
                r.arrived,
                r.completed + r.killed + sim.in_flight(),
                "{kind} seed={seed}: conservation violated"
            );
            assert_eq!(
                r.restarts,
                r.aborts_validation + r.aborts_scheduler + r.aborts_fault,
                "{kind} seed={seed}: abort-cause partition violated"
            );
        }
    }
}

/// Contract 3: after a submit-only workload fully drains, the
/// scheduler holds zero lock rows and zero WTPG arena slots — nothing
/// keyed by a dead transaction survives.
#[test]
fn conformance_drain_leaves_no_state() {
    for kind in SchedulerKind::ALL {
        for seed in 41..44u64 {
            let e = run_drain(kind, seed, 120);
            assert_no_retained_state(&e, &format!("{kind} seed={seed:#x}"));
        }
    }
}

/// Contract 4: external aborts (crashes, link loss, retry exhaustion)
/// never corrupt scheduler state — the full chaos invariant set holds
/// for every kind, including WDL which the 200-case sweeps skip.
#[test]
fn conformance_fault_survival() {
    for kind in SchedulerKind::ALL {
        for case in 0..12u64 {
            check_case(
                kind,
                0xC0F0_0000u64
                    .wrapping_add(case)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
        }
    }
}

/// Contract 5: snapshot at a mid-run point, restore, run to horizon —
/// byte-identical report to the uninterrupted run, and the snapshot
/// JSON round-trips losslessly. This is what lets `bds-serve` migrate
/// a live run onto any scheduler kind.
#[test]
fn conformance_checkpoint_identity() {
    for (i, kind) in SchedulerKind::ALL.into_iter().enumerate() {
        let mut c = load_point(kind, 0.6, 1, 51);
        c.horizon = Duration::from_secs(300);
        let bulk = Engine::run(&c);

        let mut e = Engine::new(&c);
        e.enable_checkpointing();
        e.run_until(SimTime::from_millis(40_000 + 10_000 * i as u64));
        let snap = e.snapshot();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("snapshot JSON parses");
        assert_eq!(
            back.to_json(),
            text,
            "{kind}: snapshot re-encode not byte-identical"
        );

        let mut restored = Engine::restore(&c, &back);
        restored.run_to_horizon();
        assert_eq!(
            restored.report(),
            bulk,
            "{kind}: restored run diverged from uninterrupted run"
        );
    }
}

/// Contract 6a: Brook-2PL's structural deadlock-freedom invariant —
/// every live transaction's held locks are exactly an ascending-FileId
/// prefix of its declared order — audited *during* the run, every few
/// hundred engine events, under load heavy enough to keep many
/// waiters blocked. A waiter always waits on a file strictly greater
/// than everything it holds, so any wait cycle would be a strictly
/// increasing cycle in a total order: impossible. The audit proves the
/// precondition of that argument on the actual mid-run state.
#[test]
fn conformance_brook_structural_deadlock_freedom() {
    let c = load_point(SchedulerKind::Brook, 1.2, 1, 61);
    let mut e = Engine::new(&c);
    let mut audits = 0u32;
    let mut exhausted = false;
    while !exhausted {
        for _ in 0..64 {
            if e.step().is_none() {
                exhausted = true;
                break;
            }
        }
        let audit = e
            .scheduler()
            .audit_invariant()
            .expect("Brook exposes a structural audit");
        audit.unwrap_or_else(|err| {
            panic!("Brook prefix invariant broken at t={:?}: {err}", e.now())
        });
        audits += 1;
    }
    assert!(audits > 10, "audit loop exited early after {audits} checks");
    assert!(e.now() >= SimTime::from_millis(190_000));
    // 6b: observational corollary over the same run — a deadlock-free
    // scheduler never issues a restart of its own.
    assert_eq!(
        e.report().aborts_scheduler,
        0,
        "Brook-2PL issued a scheduler abort under saturation"
    );
}

/// DGCC's structural audit mid-run: every live transaction belongs to
/// the current epoch's batch and no two live transactions conflict —
/// the defining property of conflict-graph coloring.
#[test]
fn conformance_dgcc_batch_disjointness() {
    let c = load_point(SchedulerKind::Dgcc, 1.0, 1, 62);
    let mut e = Engine::new(&c);
    let mut audits = 0u32;
    let mut exhausted = false;
    while !exhausted {
        for _ in 0..64 {
            if e.step().is_none() {
                exhausted = true;
                break;
            }
        }
        let audit = e
            .scheduler()
            .audit_invariant()
            .expect("DGCC exposes a structural audit");
        audit.unwrap_or_else(|err| panic!("DGCC batch invariant broken at t={:?}: {err}", e.now()));
        audits += 1;
    }
    assert!(audits > 10, "audit loop exited early after {audits} checks");
}

/// Forwards every call to the wrapped scheduler and counts the
/// `try_start` and `request` calls. With `strip` set it also clears
/// `until_release` on every outcome, so the engine never replays a
/// refusal and asks the scheduler each time.
struct Forward {
    inner: Box<dyn Scheduler>,
    strip: bool,
    decisions: Arc<AtomicU64>,
}

impl Forward {
    fn pass<D>(&self, mut o: Outcome<D>) -> Outcome<D> {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if self.strip {
            o.until_release = None;
        }
        o
    }
}

impl Scheduler for Forward {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.inner.register(id, spec);
    }
    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        let o = self.inner.try_start(id);
        self.pass(o)
    }
    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let o = self.inner.request(id, step);
        self.pass(o)
    }
    fn step_complete(&mut self, id: TxnId, step: usize) {
        self.inner.step_complete(id, step);
    }
    fn validate(&mut self, id: TxnId) -> Outcome<bool> {
        self.inner.validate(id)
    }
    fn commit(&mut self, id: TxnId) -> Vec<FileId> {
        self.inner.commit(id)
    }
    fn abort(&mut self, id: TxnId) -> Vec<FileId> {
        self.inner.abort(id)
    }
    fn commit_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.inner.commit_into(id, released);
    }
    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.inner.abort_into(id, released);
    }
    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.inner.forget(id, released);
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

/// Run `c` behind [`Forward`] with a trace ring; return the report JSON,
/// the trace and the number of scheduler decisions asked for.
fn forwarded_run(c: &SimConfig, strip: bool) -> (String, TraceData, u64) {
    let decisions = Arc::new(AtomicU64::new(0));
    let mut e = Engine::new(c);
    e.replace_scheduler(Box::new(Forward {
        inner: c.scheduler.build(&c.costs),
        strip,
        decisions: Arc::clone(&decisions),
    }));
    e.set_tracer(Tracer::ring(1 << 18));
    e.run_to_horizon();
    let trace = e.take_trace().expect("ring installed");
    (
        e.report().to_json(),
        trace,
        decisions.load(Ordering::Relaxed),
    )
}

/// Contract 7: replaying standing refusals is invisible. For every kind,
/// at a saturating load point with faults off and under three fault
/// plans, a run that asks
/// the scheduler every time (every `until_release` stripped) gives the
/// same report and the same trace as the run that replays. The kinds
/// that mark refusals must actually have been spared calls, so the
/// comparison is not vacuous.
#[test]
fn conformance_standing_refusals_change_nothing() {
    let marks = [
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Brook,
    ];
    for kind in SchedulerKind::ALL {
        // No faults, then three random fault plans.
        for plan in [None, Some(0x57A7D), Some(0x57A7E), Some(0x57A7F)] {
            let mut c = load_point(kind, 1.1, 1, 61);
            if let Some(seed) = plan {
                let mut rng = Xoshiro256::seed_from_u64(seed);
                c = c.with_faults(random_plan(&mut rng, 200));
            }
            let ctx = format!("{kind} fault plan {plan:?}");
            let (report, trace, asked) = forwarded_run(&c, false);
            let (report_all, trace_all, asked_all) = forwarded_run(&c, true);
            assert_eq!(report, report_all, "{ctx}: report differs");
            assert_eq!(trace.counts, trace_all.counts, "{ctx}: trace counts differ");
            assert_eq!(trace.dropped, trace_all.dropped, "{ctx}");
            if let Some(i) = (0..trace.records.len().min(trace_all.records.len()))
                .find(|&i| trace.records[i] != trace_all.records[i])
            {
                panic!(
                    "{ctx}: trace record {i} differs: {:?} vs {:?}",
                    trace.records[i], trace_all.records[i]
                );
            }
            assert_eq!(trace.records.len(), trace_all.records.len(), "{ctx}");
            if marks.contains(&kind) {
                assert!(asked < asked_all, "{ctx}: no refusal was replayed");
            } else {
                assert_eq!(asked, asked_all, "{ctx}: an unmarked kind was spared calls");
            }
        }
    }
}

/// The conformance surface itself is conserved: the registry constants
/// agree, so a new kind cannot be wired into the simulator without
/// landing in this suite.
#[test]
fn conformance_covers_every_kind() {
    assert_eq!(SchedulerKind::ALL.len(), 9);
    assert_eq!(SchedulerKind::EXTENDED_SET.len(), 8);
    for kind in SchedulerKind::PAPER_SET {
        assert!(SchedulerKind::ALL.contains(&kind), "{kind} missing");
    }
    for kind in SchedulerKind::EXTENDED_SET {
        assert!(SchedulerKind::ALL.contains(&kind), "{kind} missing");
    }
    assert!(SchedulerKind::ALL.contains(&SchedulerKind::Dgcc));
    assert!(SchedulerKind::ALL.contains(&SchedulerKind::Brook));
    assert!(SchedulerKind::ALL.contains(&SchedulerKind::Wdl));
}
