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
//!      (`aborts_scheduler == 0`).

#[path = "harness.rs"]
mod harness;

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::{Duration, SimTime};
use batchsched::engine::{Engine, Snapshot};
use batchsched::sched::SchedulerKind;
use batchsched::wtpg::oracle::is_serializable;
use harness::{assert_no_retained_state, check_case, run_drain};

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
