//! A terminal dashboard for the metrics sampler: one high-contention
//! Exp-1 run per paper scheduler, with the sampled time series rendered
//! as ASCII sparklines — the simulated run's utilization, backlog and
//! commit-rate shapes at a glance (the same columns `repro --metrics`
//! writes as CSV).
//!
//! ```text
//! cargo run --release --example metrics_dashboard
//! ```

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::telemetry::sparkline;
use bds_sched::SchedulerKind;

/// Downsample a column to at most `width` points (mean per chunk) so the
/// sparkline fits one terminal line.
fn shrink(col: &[f64], width: usize) -> Vec<f64> {
    if col.len() <= width {
        return col.to_vec();
    }
    (0..width)
        .map(|i| {
            let lo = i * col.len() / width;
            let hi = ((i + 1) * col.len() / width).max(lo + 1);
            col[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

fn main() {
    let lambda = 1.1;
    let horizon_secs = 600;
    let dt = Duration::from_secs(5);
    println!(
        "Metrics dashboard: Exp-1 (16 files), DD = 1, lambda = {lambda} TPS, \
         {horizon_secs} s horizon, dt = 5 s"
    );
    for kind in SchedulerKind::PAPER_SET {
        let mut cfg = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        cfg.lambda_tps = lambda;
        cfg.horizon = Duration::from_secs(horizon_secs);
        let (report, series) = Engine::run_with_metrics(&cfg, dt);
        println!();
        println!(
            "== {:<5} committed {:>4}  mean RT {:>6.1} s  p99 {:>6.1} s",
            report.scheduler,
            report.completed,
            report.mean_rt_secs(),
            report.rt_p99_secs.unwrap_or(0.0),
        );
        for (name, label) in [
            ("dpn_util", "DPN util"),
            ("cn_util", "CN util"),
            ("mpl_live", "live txns"),
            ("start_queue", "start queue"),
            ("locks_held", "locks held"),
            ("commits_ps", "commits/s"),
        ] {
            let col = series.column(name).expect("known column");
            let max = col.iter().copied().fold(0.0_f64, f64::max);
            println!(
                "  {label:<12} {} max {max:.2}",
                sparkline(&shrink(&col, 72))
            );
        }
    }
}
