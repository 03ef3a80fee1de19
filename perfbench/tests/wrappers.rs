//! The timing shims must not change what they time: engines built with
//! them produce byte-identical reports for every scheduler kind, with
//! faults off and on.

use std::sync::Arc;

use batchsched::des::time::{Duration, SimTime};
use batchsched::engine::Engine;
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;
use batchsched::workload::gen::WorkloadGen;
use batchsched::{SimConfig, WorkloadKind};
use bds_perfbench::timed::{engine_streams, timed_engine, OpStat, SchedStats, TimedGen};

fn config(kind: SchedulerKind, faults: bool) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 })
        .with_lambda(1.1)
        .with_seed(7);
    c.horizon = Duration::from_secs(300);
    if faults {
        // A tight retry cap so fault-killed transactions reach `forget`.
        let plan = FaultPlan::parse("crash=1@40x20,mtbf=60,mttr=15,retry=500:2000:1,seed=3")
            .expect("valid fault plan");
        c = c.with_faults(plan);
    }
    c
}

#[test]
fn wrapped_engines_match_plain_ones_for_every_kind() {
    let mut killed = 0;
    for kind in SchedulerKind::ALL {
        for faults in [false, true] {
            let cfg = config(kind, faults);
            let what = format!("{kind} faults={faults}");
            let sched = Arc::new(SchedStats::default());
            let gen = Arc::new(OpStat::default());
            let mut plain = Engine::new(&cfg);
            let mut wrapped = timed_engine(&cfg, Arc::clone(&sched), Arc::clone(&gen));
            for e in [&mut plain, &mut wrapped] {
                // The sampler reads `telemetry` at every grid point.
                e.set_metrics_interval(Duration::from_secs(10));
                e.run_to_horizon();
            }
            let report = plain.report();
            assert_eq!(report.to_json(), wrapped.report().to_json(), "{what}");
            assert_eq!(plain.take_metrics(), wrapped.take_metrics(), "{what}");
            assert_eq!(
                plain.scheduler().audit_invariant(),
                wrapped.scheduler().audit_invariant(),
                "{what}"
            );
            assert_eq!(
                plain.drain_constraints(),
                wrapped.drain_constraints(),
                "{what}"
            );
            assert!(
                sched.evals() > 0 && gen.calls() > 0,
                "{what}: nothing timed"
            );
            killed += report.killed;
        }
    }
    assert!(
        killed > 0,
        "no transaction was killed, so `forget` went untested"
    );
}

#[test]
fn timed_generator_forwards_cursors() {
    let cfg = config(SchedulerKind::Low(2), false);
    let (_, stream) = engine_streams(&cfg);
    let mut plain = cfg.workload.build(stream.clone());
    for _ in 0..5 {
        plain.next_batch();
    }
    let cursor = plain.save_cursor().expect("Exp. 1 supports cursors");
    let mut timed = TimedGen::new(cfg.workload.build(stream), Arc::new(OpStat::default()));
    assert!(timed.load_cursor(&cursor));
    assert_eq!(timed.save_cursor(), Some(cursor));
    assert_eq!(timed.next_batch(), plain.next_batch());
    assert_eq!(timed.num_files(), plain.num_files());
    assert_eq!(timed.mean_demand(), plain.mean_demand());
}

#[test]
fn timed_generator_engine_checkpoints_like_a_plain_one() {
    let cfg = config(SchedulerKind::Low(2), true);
    let mut plain = Engine::new(&cfg);
    plain.run_to_horizon();
    let (arrival, workload) = engine_streams(&cfg);
    let genr = TimedGen::new(cfg.workload.build(workload), Arc::new(OpStat::default()));
    let mut e = Engine::with_generator(&cfg, Box::new(genr), arrival);
    e.enable_checkpointing();
    e.run_until(SimTime::from_secs(150));
    let mut restored = Engine::restore(&cfg, &e.snapshot());
    restored.run_to_horizon();
    assert_eq!(restored.report().to_json(), plain.report().to_json());
}
