//! Experiment 1 in miniature: how schedulers behave when batch
//! transactions block each other frequently (§5.1 of the paper).
//!
//! Sweeps the arrival rate for all six schedulers at DD = 1 and prints
//! the response-time curves of Fig. 8, then shows the effect of
//! parallelism (DD = 1 → 8) at a heavy load as in Table 3.
//!
//! Run with: `cargo run --release --example batch_blocking`

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;

fn main() {
    let horizon = Duration::from_millis(1_000_000);
    let workload = WorkloadKind::Exp1 { num_files: 16 };

    // --- Fig. 8 shape: RT vs arrival rate at DD = 1 ------------------
    println!("Response time (s) vs arrival rate (Exp.1, DD=1, 16 files)");
    print!("{:>8}", "λ(TPS)");
    for kind in SchedulerKind::PAPER_SET {
        print!("{:>9}", kind.label());
    }
    println!();
    for lambda in [0.4, 0.6, 0.8, 1.0, 1.2] {
        print!("{lambda:>8.1}");
        for kind in SchedulerKind::PAPER_SET {
            let mut cfg = SimConfig::new(kind, workload.clone());
            cfg.lambda_tps = lambda;
            cfg.horizon = horizon;
            let r = Engine::run(&cfg);
            print!("{:>9.1}", r.mean_rt_secs());
        }
        println!();
    }

    // --- Table 3 shape: RT vs DD at λ = 1.2 --------------------------
    println!();
    println!("Response time (s) vs declustering at λ = 1.2 TPS (heavy load)");
    print!("{:>8}", "DD");
    for kind in SchedulerKind::PAPER_SET {
        print!("{:>9}", kind.label());
    }
    println!();
    for dd in [1u32, 2, 4, 8] {
        print!("{dd:>8}");
        for kind in SchedulerKind::PAPER_SET {
            let mut cfg = SimConfig::new(kind, workload.clone());
            cfg.lambda_tps = 1.2;
            cfg.dd = dd;
            cfg.horizon = horizon;
            let r = Engine::run(&cfg);
            print!("{:>9.1}", r.mean_rt_secs());
        }
        println!();
    }
    println!();
    println!("ASL/GOW/LOW gain nearly linear speedup from declustering even");
    println!("at heavy load; C2PL's chains of blocking and OPT's restarts");
    println!("waste the added parallelism (observations #3/#4, §5.1.3).");
}
