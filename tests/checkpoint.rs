//! Checkpoint/restore identity: a run that is snapshotted at an
//! arbitrary event index, serialized to JSON, deserialized, restored and
//! run to the horizon must produce a report byte-identical to the
//! uninterrupted run — for every scheduler of the paper, with and
//! without fault injection, and across two hops (a snapshot of a
//! restored run).

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::{Duration, SimTime};
use batchsched::engine::{Engine, Snapshot};
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;

const CRASHY: &str = "crash=1@40x20,crash=4@90x15,retry=1000:8000:4";

fn cfg(kind: SchedulerKind, faults: bool) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.lambda_tps = 0.6;
    c.horizon = Duration::from_secs(300);
    if faults {
        c = c.with_faults(FaultPlan::parse(CRASHY).expect("plan parses"));
    }
    c
}

/// Tiny deterministic generator for the snapshot event index — the test
/// must not depend on wall-clock entropy.
fn pick(seed: u64, bound: u64) -> u64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    1 + x % bound.max(1)
}

/// Snapshot at `split` events, round-trip through JSON, restore and run
/// to the horizon; the restored report must equal `bulk` exactly.
/// Returns the mid-run snapshot for further checks.
///
/// `split_seed` is the [`pick`] seed that produced `split`: every
/// assertion carries it so a failing randomized split point can be
/// replayed exactly instead of guessed at.
fn check_one_hop(c: &SimConfig, split_seed: u64, split: u64) -> Snapshot {
    let ctx = format!("{} split_seed={split_seed:#x} split={split}", c.scheduler);
    let bulk = Engine::run(c);
    let mut e = Engine::new(c);
    e.enable_checkpointing();
    for _ in 0..split {
        if e.step().is_none() {
            break;
        }
    }
    let snap = e.snapshot();

    // The wire format is lossless and deterministic.
    let text = snap.to_json();
    let back = Snapshot::from_json(&text)
        .unwrap_or_else(|err| panic!("{ctx}: snapshot JSON does not parse: {err}"));
    assert_eq!(
        back.to_json(),
        text,
        "{ctx}: re-encode must be byte-identical"
    );

    let mut restored = Engine::restore(c, &back);
    restored.run_to_horizon();
    assert_eq!(
        restored.report(),
        bulk,
        "{ctx}: restored run diverged from uninterrupted run"
    );

    // The engine that produced the snapshot also finishes identically.
    e.run_to_horizon();
    assert_eq!(e.report(), bulk, "{ctx}: snapshotting perturbed the run");
    snap
}

#[test]
fn snapshot_restore_identity_all_schedulers() {
    for (i, kind) in SchedulerKind::EXTENDED_SET.into_iter().enumerate() {
        let c = cfg(kind, false);
        let events = Engine::run(&c).events;
        let split_seed = i as u64 + 1;
        let split = pick(split_seed, events);
        check_one_hop(&c, split_seed, split);
    }
}

#[test]
fn snapshot_restore_identity_under_faults() {
    for (i, kind) in SchedulerKind::EXTENDED_SET.into_iter().enumerate() {
        let c = cfg(kind, true);
        let events = Engine::run(&c).events;
        let split_seed = 0x0fa1_7000 + i as u64;
        let split = pick(split_seed, events);
        check_one_hop(&c, split_seed, split);
    }
}

#[test]
fn restore_then_snapshot_is_byte_identical() {
    // A restored engine, snapshotted immediately, must reproduce the
    // original snapshot byte for byte (two-hop wire identity).
    let c = cfg(SchedulerKind::Gow, true);
    let mut e = Engine::new(&c);
    e.enable_checkpointing();
    e.run_until(SimTime::from_millis(90_000));
    let snap = e.snapshot();
    let mut hop = Engine::restore(&c, &snap);
    assert_eq!(hop.snapshot().to_json(), snap.to_json());
}

#[test]
fn two_hop_restore_matches_bulk() {
    // snapshot → restore → run a while → snapshot again → restore →
    // run to horizon: still identical to the uninterrupted run.
    let c = cfg(SchedulerKind::C2pl, true);
    let bulk = Engine::run(&c);

    let mut e = Engine::new(&c);
    e.enable_checkpointing();
    e.run_until(SimTime::from_millis(60_000));
    let first = e.snapshot();

    let mut mid = Engine::restore(&c, &first);
    mid.run_until(SimTime::from_millis(180_000));
    let second = mid.snapshot();
    let text = second.to_json();
    let back = Snapshot::from_json(&text).expect("second-hop JSON parses");

    let mut last = Engine::restore(&c, &back);
    last.run_to_horizon();
    assert_eq!(last.report(), bulk);
}

#[test]
fn restore_preserves_observables() {
    // Mid-run observables (clock, counts, in-flight) survive the trip.
    let c = cfg(SchedulerKind::Wdl, false);
    let mut e = Engine::new(&c);
    e.enable_checkpointing();
    e.run_until(SimTime::from_millis(120_000));
    let snap = e.snapshot();
    let restored = Engine::restore(&c, &snap);
    assert_eq!(restored.now(), e.now());
    assert_eq!(restored.events_processed(), e.events_processed());
    assert_eq!(restored.arrived(), e.arrived());
    assert_eq!(restored.completed(), e.completed());
    assert_eq!(restored.killed(), e.killed());
    assert_eq!(restored.in_flight(), e.in_flight());
    // Conservation holds on the restored side too.
    assert_eq!(
        restored.arrived(),
        restored.completed() + restored.killed() + restored.in_flight()
    );
}
