//! Chaos/differential harness: property tests sweeping random
//! seed + fault-plan combinations against scheduler-independent
//! invariants, plus a differential fuzzer running all eight schedulers
//! on the same seeded workload and fault plan and cross-checking the
//! NODC-bound and accounting relations.
//!
//! The workload/plan/invariant machinery lives in `harness.rs`, shared
//! with the scheduler-conformance suite. Every assertion message
//! carries the failing case seed so a failure can be replayed exactly:
//! `harness::random_plan` and the config derive all randomness from it.

#[path = "harness.rs"]
mod harness;

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;
use harness::{case_config, check_case, random_plan};

/// Cases per scheduler in the property sweep.
const CASES: u64 = 200;

fn sweep(kind: SchedulerKind, salt: u64) {
    for case in 0..CASES {
        check_case(
            kind,
            salt.wrapping_add(case).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
    }
}

#[test]
fn chaos_sweep_nodc() {
    sweep(SchedulerKind::Nodc, 0x01);
}

#[test]
fn chaos_sweep_asl() {
    sweep(SchedulerKind::Asl, 0x02);
}

#[test]
fn chaos_sweep_gow() {
    sweep(SchedulerKind::Gow, 0x03);
}

#[test]
fn chaos_sweep_low() {
    sweep(SchedulerKind::Low(2), 0x04);
}

#[test]
fn chaos_sweep_c2pl() {
    sweep(SchedulerKind::C2pl, 0x05);
}

#[test]
fn chaos_sweep_opt() {
    sweep(SchedulerKind::Opt, 0x06);
}

#[test]
fn chaos_sweep_dgcc() {
    sweep(SchedulerKind::Dgcc, 0x07);
}

/// Brook's sweep doubles as the corpus-wide zero-deadlock check:
/// `check_case` asserts `aborts_scheduler == 0` for Brook on every
/// case, so 200 random fault plans must finish without a single
/// scheduler-induced restart.
#[test]
fn chaos_sweep_brook() {
    sweep(SchedulerKind::Brook, 0x08);
}

/// Differential fuzzer: one workload + one fault plan, all eight
/// schedulers. Checks relations that must hold *across* schedulers.
#[test]
fn differential_same_plan_across_schedulers() {
    for case in 0..30u64 {
        let case_seed = 0xD1FF_0000u64 + case;
        let mut rng = Xoshiro256::seed_from_u64(case_seed);
        let seed = rng.next_u64();
        let plan = random_plan(&mut rng, 120);
        let mut reports = Vec::new();
        for kind in SchedulerKind::EXTENDED_SET {
            let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
            c.seed = seed;
            c.lambda_tps = 0.6;
            c.horizon = Duration::from_secs(120);
            let c = c.with_faults(plan.clone());
            let mut sim = Engine::new(&c);
            sim.run_to_horizon();
            let r = sim.report();
            assert_eq!(
                r.arrived,
                r.completed + r.killed + sim.in_flight(),
                "{kind} case_seed={case_seed:#x}: conservation violated"
            );
            reports.push((kind, r));
        }
        let (_, nodc) = &reports[0];
        for (kind, r) in &reports {
            // Identical seed ⇒ identical arrival stream, regardless of
            // scheduler.
            assert_eq!(
                r.arrived, nodc.arrived,
                "{kind} case_seed={case_seed:#x}: arrival stream diverged"
            );
            // The crash/recovery timeline is scheduler-independent, so
            // availability must match bit-for-bit.
            assert_eq!(
                r.availability, nodc.availability,
                "{kind} case_seed={case_seed:#x}: availability diverged"
            );
            // NODC runs with no concurrency control at all: no scheduler
            // may outrun it by more than boundary noise.
            let slack = 10 + nodc.completed / 5;
            assert!(
                r.completed <= nodc.completed + slack,
                "{kind} case_seed={case_seed:#x}: completed {} beats the NODC bound {}",
                r.completed,
                nodc.completed
            );
            // Brook never aborts of its own accord, on any shared plan.
            if *kind == SchedulerKind::Brook {
                assert_eq!(
                    r.aborts_scheduler, 0,
                    "case_seed={case_seed:#x}: Brook-2PL scheduler abort"
                );
            }
        }
    }
}

/// Same (seed, plan, scheduler) must reproduce the identical report —
/// fault injection is part of the determinism contract.
#[test]
fn chaos_runs_are_deterministic() {
    for case in 0..10u64 {
        let case_seed = 0xDE7E_0000u64 + case;
        for kind in [
            SchedulerKind::Nodc,
            SchedulerKind::Gow,
            SchedulerKind::Opt,
            SchedulerKind::Dgcc,
            SchedulerKind::Brook,
        ] {
            let c = case_config(kind, case_seed);
            let a = Engine::run(&c);
            let b = Engine::run(&c);
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{kind} case_seed={case_seed:#x}: nondeterministic under faults"
            );
        }
    }
}
