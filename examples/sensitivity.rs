//! Experiment 3 in miniature: how sensitive are GOW and LOW to wrong
//! I/O-demand declarations (§5.3 of the paper)?
//!
//! Each step's declared demand is perturbed to `C = C0 · (1 + x)` with
//! `x ~ N(0, σ²)`. The WTPG schedulers decide lock grants from these
//! (wrong) weights; the paper's Table 5 reports how little their
//! throughput degrades even at σ = 10.
//!
//! Run with: `cargo run --release --example sensitivity`

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;

fn main() {
    let horizon = Duration::from_millis(1_000_000);
    let lambda = 0.7; // near the RT=70s operating point at DD=1

    println!("Declaration-error sensitivity (Exp.3), λ = {lambda} TPS, DD = 1");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "σ", "GOW RT(s)", "LOW RT(s)", "C2PL RT(s)"
    );
    for sigma in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0] {
        let workload = if sigma == 0.0 {
            WorkloadKind::Exp1 { num_files: 16 }
        } else {
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma,
            }
        };
        let mut row = format!("{sigma:>8.1}");
        for kind in [
            SchedulerKind::Gow,
            SchedulerKind::Low(2),
            SchedulerKind::C2pl,
        ] {
            let mut cfg = SimConfig::new(kind, workload.clone());
            cfg.lambda_tps = lambda;
            cfg.horizon = horizon;
            let r = Engine::run(&cfg);
            row.push_str(&format!(" {:>12.1}", r.mean_rt_secs()));
        }
        println!("{row}");
    }
    println!();
    println!("C2PL ignores declarations, so its row is flat and defines the");
    println!("lower bound: GOW and LOW must stay better than C2PL even with");
    println!("σ = 10 declarations (the paper's observation #4, §5.3).");
}
