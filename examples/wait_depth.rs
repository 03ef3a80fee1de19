//! Extension study: wait-depth limited locking (WDL) against the
//! paper's schedulers.
//!
//! WDL shares ASL/GOW/LOW's freedom from blocking chains, but enforces
//! it with *rollbacks* — exactly the cost the paper's requirement (3)
//! ("making no rollback of transactions") warns about for batch
//! transactions, whose I/O is expensive to redo. This example shows
//! where WDL lands between the blocking-chain regime (C2PL) and the
//! no-rollback regime (LOW).
//!
//! Run with: `cargo run --release --example wait_depth`

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;

fn main() {
    let horizon = Duration::from_millis(1_000_000);

    println!("Wait-depth limited locking vs the paper's schedulers");
    println!("(Exp.1: 16 files, DD = 1)");
    println!();
    println!(
        "{:>6} {:>7} {:>10} {:>10} {:>9} {:>10}",
        "λ(TPS)", "sched", "meanRT(s)", "TPS", "restarts", "p90 RT(s)"
    );
    for lambda in [0.4, 0.6, 0.8] {
        for kind in [
            SchedulerKind::Wdl,
            SchedulerKind::Low(2),
            SchedulerKind::C2pl,
            SchedulerKind::Opt,
        ] {
            let mut cfg = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
            cfg.lambda_tps = lambda;
            cfg.horizon = horizon;
            let r = Engine::run(&cfg);
            println!(
                "{:>6.1} {:>7} {:>10.1} {:>10.2} {:>9} {:>10.1}",
                lambda,
                r.scheduler,
                r.mean_rt_secs(),
                r.throughput_tps(),
                r.restarts,
                r.rt_p90_secs.unwrap_or(f64::NAN),
            );
        }
        println!();
    }
    println!("WDL keeps chains short like LOW, but every restart redoes");
    println!("bulk I/O — with batch transactions that wasted work grows");
    println!("with contention, so the no-rollback WTPG schedulers win.");
}
