//! Quickstart: simulate one batch workload under two schedulers and
//! compare their response times.
//!
//! Run with: `cargo run --release --example quickstart`

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;

fn main() {
    // Experiment 1 of the paper: batch transactions following
    // Pattern 1 (r(F1:1) → r(F2:5) → w(F1:0.2) → w(F2:1)) over 16 files
    // on an 8-node shared-nothing machine.
    let workload = WorkloadKind::Exp1 { num_files: 16 };

    println!("Batch scheduling quickstart — Pattern 1, λ = 0.8 TPS, DD = 2");
    println!();
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "sched", "completed", "meanRT(s)", "TPS", "CN util", "DPN util"
    );

    for kind in [
        SchedulerKind::Low(2),
        SchedulerKind::Gow,
        SchedulerKind::Asl,
        SchedulerKind::C2pl,
    ] {
        let mut cfg = SimConfig::new(kind, workload.clone());
        cfg.lambda_tps = 0.8;
        cfg.dd = 2;
        cfg.horizon = Duration::from_millis(2_000_000); // the paper's 2,000 s

        let report = Engine::run(&cfg);
        println!(
            "{:>6} {:>10} {:>10.1} {:>10.2} {:>8.0}% {:>8.0}%",
            report.scheduler,
            report.completed,
            report.mean_rt_secs(),
            report.throughput_tps(),
            report.cn_utilization * 100.0,
            report.dpn_utilization * 100.0,
        );
    }

    println!();
    println!("LOW and GOW avoid chains of blocking, so their response");
    println!("times stay close to ASL's while starting more transactions;");
    println!("C2PL blocks transaction after transaction and falls behind.");
}
