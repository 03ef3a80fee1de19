//! Checkpoint/restore identity: a run that is snapshotted at an
//! arbitrary event index, serialized to JSON, deserialized, restored and
//! run to the horizon must produce a report byte-identical to the
//! uninterrupted run — for every scheduler of the paper, with and
//! without fault injection, across two hops (a snapshot of a restored
//! run), and with every kind of logged input before the snapshot.
//! Mutated snapshots are refused or restored, never a panic.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::rng::Xoshiro256;
use batchsched::des::{Duration, SimTime};
use batchsched::engine::{Engine, Snapshot};
use batchsched::fault::FaultPlan;
use batchsched::obs::Profiler;
use batchsched::sched::SchedulerKind;
use batchsched::telemetry::jsonv::{parse, JsonValue};
use batchsched::trace::json::escape;
use batchsched::workload::{BatchSpec as Spec, FileId, LockMode, Step};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The external calls of [`inputs_replay_identically`]'s session, made
/// before its snapshot: a sampler switched on, an out-of-band
/// submission, and a scheduler swap issued after a `run_until` whose
/// limit lies between sampling grid points.
fn drive_with_inputs(e: &mut Engine) {
    e.set_metrics_interval(Duration::from_millis(5_000));
    e.run_until(SimTime::from_millis(20_000));
    e.submit(Spec::new(vec![
        Step::read(FileId(3), LockMode::Shared, 1.5),
        Step::write(FileId(9), 0.5).with_declared(0.8),
    ]));
    e.run_until(SimTime::from_millis(47_500));
    e.swap_scheduler(SchedulerKind::Asl);
    e.run_until(SimTime::from_millis(90_000));
}

/// The calls made after the snapshot, on either side of it.
fn drive_after(e: &mut Engine) {
    e.run_until(SimTime::from_millis(123_400));
    e.submit(Spec::new(vec![Step::write(FileId(1), 2.0)]));
    e.run_until(SimTime::from_millis(200_000));
}

#[test]
fn inputs_replay_identically() {
    // Every kind of logged input before the snapshot: the restored run's
    // report *and* sampled series equal the uninterrupted run's, the
    // restored engine re-snapshots byte-identically, and inputs issued
    // after a restore survive a second hop.
    for faults in [false, true] {
        let c = cfg(SchedulerKind::Low(2), faults);
        let ctx = format!("faults={faults}");
        let mut straight = Engine::new(&c);
        drive_with_inputs(&mut straight);
        drive_after(&mut straight);
        straight.run_to_horizon();
        let want_report = straight.report();
        let want_series = straight.take_metrics().expect("sampler installed");

        let mut e = Engine::new(&c);
        e.enable_checkpointing();
        drive_with_inputs(&mut e);
        let text = e.snapshot().to_json();
        let snap = Snapshot::from_json(&text).expect("snapshot JSON parses");

        let mut restored = Engine::restore(&c, &snap);
        assert_eq!(restored.snapshot().to_json(), text, "{ctx}: re-snapshot");
        drive_after(&mut restored);
        let second = Snapshot::from_json(&restored.snapshot().to_json()).expect("parses");
        restored.run_to_horizon();
        assert_eq!(restored.report(), want_report, "{ctx}: report");
        assert_eq!(
            restored.take_metrics(),
            Some(want_series.clone()),
            "{ctx}: series"
        );

        let mut last = Engine::restore(&c, &second);
        last.run_to_horizon();
        assert_eq!(last.report(), want_report, "{ctx}: two-hop report");
        assert_eq!(
            last.take_metrics(),
            Some(want_series),
            "{ctx}: two-hop series"
        );
    }
}

// ----- snapshot mutation fuzzing ------------------------------------

/// Render a parsed JSON value back to text (the layout `to_json` uses).
fn render(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => out.push_str(&n.to_string()),
        JsonValue::Str(s) => out.push_str(&format!("\"{}\"", escape(s))),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", escape(k)));
                render(item, out);
            }
            out.push('}');
        }
    }
}

/// Number of objects and arrays in the tree (the targets of a
/// structural mutation).
fn containers(v: &JsonValue) -> usize {
    match v {
        JsonValue::Arr(items) => 1 + items.iter().map(containers).sum::<usize>(),
        JsonValue::Obj(fields) => 1 + fields.iter().map(|(_, f)| containers(f)).sum::<usize>(),
        _ => 0,
    }
}

/// Delete (`dup == false`) or duplicate the entry at `pick` of the
/// `target`-th container in pre-order. Returns false when that container
/// is empty.
fn restructure(v: &mut JsonValue, target: &mut usize, pick: u64, dup: bool) -> bool {
    fn edit<T: Clone>(items: &mut Vec<T>, pick: u64, dup: bool) -> bool {
        if items.is_empty() {
            return false;
        }
        let i = (pick % items.len() as u64) as usize;
        if dup {
            let copy = items[i].clone();
            items.insert(i, copy);
        } else {
            items.remove(i);
        }
        true
    }
    if !matches!(v, JsonValue::Arr(_) | JsonValue::Obj(_)) {
        return false;
    }
    let here = *target == 0;
    *target = target.wrapping_sub(1);
    match v {
        JsonValue::Arr(items) if here => edit(items, pick, dup),
        JsonValue::Obj(fields) if here => edit(fields, pick, dup),
        JsonValue::Arr(items) => items
            .iter_mut()
            .any(|item| restructure(item, target, pick, dup)),
        JsonValue::Obj(fields) => fields
            .iter_mut()
            .any(|(_, item)| restructure(item, target, pick, dup)),
        _ => unreachable!("scalars returned above"),
    }
}

/// One seeded mutant of `text`: a bit flip in one byte, a changed
/// digit, or a deleted or duplicated object field or array element.
fn mutate(text: &str, tree: &JsonValue, rng: &mut Xoshiro256) -> String {
    let bytes = text.as_bytes();
    match rng.next_range(4) {
        0 => {
            let mut b = bytes.to_vec();
            let i = rng.next_range(b.len() as u64) as usize;
            // Low seven bits only: the text stays ASCII.
            b[i] ^= 1 << rng.next_range(7);
            String::from_utf8(b).expect("ASCII stays UTF-8")
        }
        1 => {
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            let mut b = bytes.to_vec();
            let i = digits[rng.next_range(digits.len() as u64) as usize];
            b[i] = b'0' + ((b[i] - b'0' + 1 + rng.next_range(9) as u8) % 10);
            String::from_utf8(b).expect("ASCII stays UTF-8")
        }
        op => {
            let mut v = tree.clone();
            let mut target = rng.next_range(containers(&v) as u64) as usize;
            restructure(&mut v, &mut target, rng.next_u64(), op == 3);
            let mut out = String::new();
            render(&v, &mut out);
            out
        }
    }
}

/// Snapshot mutants must come back as `Err` or as an engine that runs
/// on: never a panic. The snapshot holds one submit and one swap under
/// LOW with faults on.
#[test]
fn mutated_snapshots_never_panic() {
    const MUTANTS: u64 = 10_000;
    let mut c = SimConfig::new(SchedulerKind::Low(2), WorkloadKind::Exp1 { num_files: 16 });
    c.lambda_tps = 0.6;
    c.horizon = Duration::from_secs(40);
    let c = c.with_faults(FaultPlan::parse("crash=2@6x8,retry=500:2000:3").expect("plan parses"));
    let mut e = Engine::new(&c);
    e.enable_checkpointing();
    e.run_until(SimTime::from_millis(7_000));
    e.submit(Spec::new(vec![
        Step::read(FileId(2), LockMode::Exclusive, 1.2),
        Step::write(FileId(11), 0.4),
    ]));
    e.run_until(SimTime::from_millis(9_500));
    e.swap_scheduler(SchedulerKind::Asl);
    e.run_until(SimTime::from_millis(12_000));
    let text = e.snapshot().to_json();
    let tree = parse(&text).expect("snapshot is JSON");
    assert!(
        text.contains("\"submit\"") && text.contains("\"swap\""),
        "{text}"
    );

    let mut rng = Xoshiro256::seed_from_u64(0x5aa9_5e07);
    let (mut refused, mut restored) = (0u64, 0u64);
    let mut panics = Vec::new();
    for n in 0..MUTANTS {
        let mutant = mutate(&text, &tree, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(snap) = Snapshot::from_json(&mutant) else {
                return false;
            };
            match Engine::restore_with_profiler(&c, &snap, &mut Profiler::Off) {
                Ok(mut e) => {
                    e.run_until(SimTime::from_millis(16_000));
                    true
                }
                Err(_) => false,
            }
        }));
        match outcome {
            Ok(true) => restored += 1,
            Ok(false) => refused += 1,
            Err(_) => panics.push(format!("mutant {n}: {mutant}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {MUTANTS} mutants panicked; first: {}",
        panics.len(),
        panics[0]
    );
    assert_eq!(refused + restored, MUTANTS);
    assert!(refused > MUTANTS / 2, "only {refused} mutants were refused");
}
