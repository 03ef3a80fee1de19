//! End-to-end serializability audit: run each locking scheduler through
//! the full simulator and verify that the precedence constraints it
//! committed to form an acyclic graph (i.e. every produced schedule has
//! a serial equivalent).
//!
//! NODC is excluded (it is non-serializable by design — the paper's
//! upper bound). OPT is audited through the certify-time precedence
//! constraints it records at commit: validated commits order after the
//! committed writers they observed, so the same acyclicity oracle
//! applies.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;
use batchsched::wtpg::oracle::is_serializable;

fn audit(kind: SchedulerKind, workload: WorkloadKind, lambda: f64, dd: u32, seed: u64) {
    audit_with_faults(kind, workload, lambda, dd, seed, "");
}

fn audit_with_faults(
    kind: SchedulerKind,
    workload: WorkloadKind,
    lambda: f64,
    dd: u32,
    seed: u64,
    plan: &str,
) {
    let mut cfg = SimConfig::new(kind, workload);
    cfg.lambda_tps = lambda;
    cfg.dd = dd;
    cfg.seed = seed;
    cfg.horizon = Duration::from_secs(400);
    if !plan.is_empty() {
        cfg = cfg.with_faults(FaultPlan::parse(plan).expect("plan parses"));
    }
    let mut sim = Engine::new(&cfg);
    sim.run_to_horizon();
    let report = sim.report();
    assert!(
        report.completed > 0,
        "{kind} produced no commits — audit vacuous"
    );
    let constraints = sim.drain_constraints();
    assert!(
        is_serializable(&constraints),
        "{kind} emitted a cyclic precedence history ({} constraints)",
        constraints.len()
    );
}

const LOCKING: [SchedulerKind; 6] = [
    SchedulerKind::Asl,
    SchedulerKind::C2pl,
    SchedulerKind::Gow,
    SchedulerKind::Low(2),
    SchedulerKind::Dgcc,
    SchedulerKind::Brook,
];

/// Every scheduler with a meaningful constraint log: the locking
/// schedulers (including the batch/epoch family) plus OPT's
/// certify-time edges.
const AUDITED: [SchedulerKind; 7] = [
    SchedulerKind::Asl,
    SchedulerKind::C2pl,
    SchedulerKind::Gow,
    SchedulerKind::Low(2),
    SchedulerKind::Opt,
    SchedulerKind::Dgcc,
    SchedulerKind::Brook,
];

#[test]
fn exp1_moderate_load_is_serializable() {
    for kind in LOCKING {
        audit(kind, WorkloadKind::Exp1 { num_files: 16 }, 0.6, 1, 1);
    }
}

#[test]
fn exp1_heavy_load_is_serializable() {
    for kind in LOCKING {
        audit(kind, WorkloadKind::Exp1 { num_files: 16 }, 1.2, 1, 2);
    }
}

#[test]
fn exp1_small_database_is_serializable() {
    // 8 files: maximum contention in Table 2.
    for kind in LOCKING {
        audit(kind, WorkloadKind::Exp1 { num_files: 8 }, 0.8, 1, 3);
    }
}

#[test]
fn exp1_with_declustering_is_serializable() {
    for kind in LOCKING {
        for dd in [2, 8] {
            audit(kind, WorkloadKind::Exp1 { num_files: 16 }, 0.9, dd, 4);
        }
    }
}

#[test]
fn exp2_hot_set_is_serializable() {
    for kind in LOCKING {
        audit(kind, WorkloadKind::Exp2, 1.0, 1, 5);
    }
}

#[test]
fn exp3_wrong_declarations_stay_serializable() {
    // Estimation error changes *scheduling quality*, never correctness:
    // the WTPG schedulers must stay serializable with garbage weights.
    for kind in [SchedulerKind::Gow, SchedulerKind::Low(2)] {
        audit(
            kind,
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma: 10.0,
            },
            0.7,
            1,
            6,
        );
    }
}

#[test]
fn opt_certification_is_serializable() {
    // OPT records precedence edges at certification time: a validated
    // commit orders after every committed writer it read behind, and a
    // validation failure records the conflicting pair in both
    // directions so the oracle rejects any history that actually
    // committed such a pair.
    audit(
        SchedulerKind::Opt,
        WorkloadKind::Exp1 { num_files: 16 },
        0.8,
        1,
        7,
    );
    audit(
        SchedulerKind::Opt,
        WorkloadKind::Exp1 { num_files: 8 },
        1.2,
        1,
        8,
    );
    audit(SchedulerKind::Opt, WorkloadKind::Exp2, 1.0, 1, 9);
}

#[test]
fn faulted_histories_stay_serializable() {
    // Fault-induced aborts and restarts must never let a committed
    // history go cyclic: an aborted attempt's constraints are void, and
    // the restarted attempt re-records its ordering from scratch.
    let plan = "crash=1@50x20,crash=4@120x15,delay=3,loss=40,redeliver=300,retry=800:6400:3";
    for kind in AUDITED {
        audit_with_faults(kind, WorkloadKind::Exp1 { num_files: 16 }, 0.8, 1, 11, plan);
    }
}

#[test]
fn faulted_hot_set_stays_serializable() {
    let plan = "mtbf=90,mttr=12,stall=60x5,retry=500:4000:2,seed=5";
    for kind in AUDITED {
        audit_with_faults(kind, WorkloadKind::Exp2, 1.0, 1, 12, plan);
    }
}

#[test]
fn many_seeds_stay_serializable() {
    for seed in 10..20 {
        audit(
            SchedulerKind::Low(2),
            WorkloadKind::Exp1 { num_files: 16 },
            0.8,
            2,
            seed,
        );
        audit(SchedulerKind::Gow, WorkloadKind::Exp2, 0.8, 2, seed);
    }
}
