//! Where does the time go? One high-contention Exp-1 run per paper
//! scheduler, traced, with the response time decomposed into start-queue
//! wait, lock wait, step execution and time lost to aborted attempts —
//! the anatomy behind Fig. 8's response-time ordering.
//!
//! ```text
//! cargo run --release --example trace_anatomy
//! ```

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::trace::Analysis;
use bds_sched::SchedulerKind;

fn main() {
    let lambda = 1.1;
    println!("Trace anatomy: Exp-1 (16 files), DD = 1, lambda = {lambda} TPS, 400 s horizon");
    println!();
    let tail = "hottest file (wait)";
    println!(
        "{:<6} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}  {:<20} {tail}",
        "sched",
        "commit",
        "abort",
        "queue_s",
        "wait_s",
        "exec_s",
        "lost_s",
        "resp_s",
        "top denial reason",
    );
    for kind in SchedulerKind::PAPER_SET {
        let mut cfg = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        cfg.lambda_tps = lambda;
        cfg.horizon = Duration::from_secs(400);
        let (report, data) = Engine::run_traced(&cfg, 1 << 20);
        let a = Analysis::from_data(&data);
        let b = a.breakdown();
        let top_reason = a
            .deny_reasons
            .first()
            .map(|&(r, n)| format!("{r} ({n}x)"))
            .unwrap_or_else(|| "-".into());
        let hottest = a
            .files
            .iter()
            .max_by_key(|f| f.wait)
            .filter(|f| !f.wait.is_zero())
            .map(|f| format!("F{} ({:.1} s)", f.file.0, f.wait.as_secs_f64()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<6} {:>7} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}  {:<20} {}",
            report.scheduler,
            b.committed,
            b.aborted_attempts,
            b.mean_queue_secs,
            b.mean_wait_secs,
            b.mean_exec_secs,
            b.mean_lost_secs,
            b.mean_response_secs,
            top_reason,
            hottest
        );
        if kind == SchedulerKind::C2pl {
            let cp = a.wait_critical_path();
            let chain: Vec<String> = cp.path.iter().map(|t| format!("T{}", t.0)).collect();
            println!(
                "       C2PL wait-critical path ({:.1} s over {} txns): {}",
                cp.total_wait.as_secs_f64(),
                cp.path.len(),
                chain.join(" -> ")
            );
        }
    }
    println!();
    println!("Columns are means over committed transactions; queue = arrival to first");
    println!("admission, wait = lock request to grant, exec = cohort dispatch to step");
    println!("completion, lost = work thrown away by aborted attempts (OPT restarts).");
}
