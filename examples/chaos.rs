//! Throughput under failure: how each paper scheduler degrades when
//! data-processing nodes crash and recover.
//!
//! Part 1 runs one fixed fault plan (two scripted crashes plus a
//! Poisson crash/recovery process) against every paper scheduler on the
//! Exp. 1 workload and prints the availability /
//! throughput-under-failure table — the same table `repro --faults`
//! produces.
//!
//! Part 2 sweeps the mean time between failures while holding the mean
//! time to repair fixed, showing how committed throughput and the kill
//! rate respond as outages become more frequent. Everything is
//! deterministic in (seed, plan): rerunning this example reproduces the
//! tables byte for byte.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;

const HORIZON_SECS: u64 = 400;

fn point(kind: SchedulerKind, plan: FaultPlan) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.lambda_tps = 0.9;
    c.horizon = Duration::from_secs(HORIZON_SECS);
    c.with_faults(plan)
}

fn main() {
    let spec = "crash=1@60x20,crash=5@150x25,mtbf=150,mttr=12,retry=1000:8000:4,seed=7";
    let plan = FaultPlan::parse(spec).expect("plan parses");
    println!("== Availability / throughput under failure ==");
    println!("plan: {spec}");
    println!(
        "{:<10} {:>9} {:>7} {:>12} {:>10} {:>12} {:>9}",
        "scheduler", "committed", "killed", "fault-aborts", "tput(tps)", "availability", "down(s)"
    );
    for kind in SchedulerKind::PAPER_SET {
        let r = Engine::run(&point(kind, plan.clone()));
        println!(
            "{:<10} {:>9} {:>7} {:>12} {:>10.3} {:>12.4} {:>9.1}",
            r.scheduler,
            r.completed,
            r.killed,
            r.aborts_fault,
            r.completed as f64 / r.horizon_secs,
            r.availability,
            r.downtime_secs
        );
    }

    println!();
    println!("== Availability vs MTBF (MTTR fixed at 12 s) ==");
    println!(
        "{:<10} {:>6} {:>12} {:>9} {:>7} {:>10}",
        "scheduler", "mtbf", "availability", "committed", "killed", "tput(tps)"
    );
    for kind in [SchedulerKind::Nodc, SchedulerKind::Gow, SchedulerKind::Opt] {
        for mtbf_secs in [60u64, 120, 240, 480] {
            let sweep_spec = format!("mtbf={mtbf_secs},mttr=12,retry=1000:8000:4,seed=7");
            let plan = FaultPlan::parse(&sweep_spec).expect("plan parses");
            let r = Engine::run(&point(kind, plan));
            println!(
                "{:<10} {:>6} {:>12.4} {:>9} {:>7} {:>10.3}",
                r.scheduler,
                mtbf_secs,
                r.availability,
                r.completed,
                r.killed,
                r.completed as f64 / r.horizon_secs
            );
        }
    }
    println!();
    println!(
        "Availability is a property of the crash timeline alone, so it is\n\
         identical across schedulers for the same plan; what differs is how\n\
         much committed work each scheduler salvages from the up-time."
    );
}
