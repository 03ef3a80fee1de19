//! Experiment 2 in miniature: updating a *hot set* of master files
//! (§5.2 of the paper).
//!
//! Every transaction reads one of 8 read-only files then updates two of
//! 8 hot files (Pattern 2: r(B:5) → w(F1:1) → w(F2:1)). ASL must lock
//! both hot files before starting, so it starts few transactions; LOW
//! starts many while still avoiding chains of blocking — the paper's
//! Table 4 ranks LOW best, then C2PL, GOW, ASL.
//!
//! Run with: `cargo run --release --example hot_set`

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;

fn main() {
    let horizon = Duration::from_millis(2_000_000);

    println!("Hot-set update workload (Exp.2), λ = 1.2 TPS");
    println!();
    println!(
        "{:>6} {:>4} {:>10} {:>10} {:>9} {:>8}",
        "sched", "DD", "meanRT(s)", "TPS", "started", "live avg"
    );
    for dd in [1u32, 2, 4] {
        for kind in [
            SchedulerKind::Low(2),
            SchedulerKind::Gow,
            SchedulerKind::C2pl,
            SchedulerKind::Asl,
            SchedulerKind::Opt,
            SchedulerKind::Nodc,
        ] {
            let mut cfg = SimConfig::new(kind, WorkloadKind::Exp2);
            cfg.lambda_tps = 1.2;
            cfg.dd = dd;
            cfg.horizon = horizon;
            let r = Engine::run(&cfg);
            println!(
                "{:>6} {:>4} {:>10.1} {:>10.2} {:>9} {:>8.1}",
                r.scheduler,
                dd,
                r.mean_rt_secs(),
                r.throughput_tps(),
                r.started,
                r.mean_live,
            );
        }
        println!();
    }
    println!("LOW starts many transactions on the hot files without");
    println!("building blocking chains; ASL's atomic lock set on two hot");
    println!("files admits few transactions and performs worst (Table 4).");
}
