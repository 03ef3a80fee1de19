//! Ablation studies of the design choices DESIGN.md documents — beyond
//! the paper's own evaluation.
//!
//! * [`low_k_sweep`] — LOW's conflict bound `K` (the paper fixes K = 2;
//!   how sensitive is that choice?).
//! * [`retry_delay_sweep`] — our interpretation decision that delayed
//!   requests are re-submitted on state changes *and* after
//!   `retry_delay` ("submitted … after some delay"): what does the
//!   delay's magnitude cost?
//! * [`admission_scan_sweep`] — the cap on costed admission tests per
//!   sweep (bounds CN work scanning a long start queue under GOW).
//! * [`wdl_comparison`] — the wait-depth-limited extension scheduler
//!   against the paper's six, probing the paper's requirement analysis
//!   (WDL avoids blocking chains *via rollback* — which of requirements
//!   (1) and (3) dominates for batch transactions?).

use crate::config::{SimConfig, WorkloadKind};
use crate::driver;
use crate::experiments::ExpOptions;
use crate::parallel::ExecCtx;
use crate::report::{f1, f2, Table};
use bds_des::time::Duration;
use bds_sched::SchedulerKind;

fn base(opts: &ExpOptions, kind: SchedulerKind, workload: WorkloadKind) -> SimConfig {
    let mut c = SimConfig::new(kind, workload);
    c.horizon = opts.horizon;
    c.seed = opts.seed;
    c
}

/// LOW's K: throughput at RT = 70 s for K ∈ {1, 2, 3, 4} on the blocking
/// workload (Exp. 1) and the hot-set workload (Exp. 2), DD = 1.
pub fn low_k_sweep(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let mut t = Table::new(
        "Ablation: LOW's conflict bound K — TPS at RT=70s, DD=1",
        vec!["K", "Exp.1 (16 files)", "Exp.2 (hot set)"],
    );
    let ks = [1u32, 2, 3, 4];
    let cells: Vec<SimConfig> = ks
        .iter()
        .flat_map(|&k| {
            [
                base(
                    opts,
                    SchedulerKind::Low(k),
                    WorkloadKind::Exp1 { num_files: 16 },
                ),
                base(opts, SchedulerKind::Low(k), WorkloadKind::Exp2),
            ]
        })
        .collect();
    let tputs = ctx.map(&cells, |_, cfg| {
        driver::throughput_at_rt(ctx, cfg, 70.0, 0.05, 1.4, opts.bisect_iters).throughput_tps()
    });
    for (i, k) in ks.iter().enumerate() {
        t.push_row(vec![k.to_string(), f2(tputs[2 * i]), f2(tputs[2 * i + 1])]);
    }
    t
}

/// Retry delay: mean RT of GOW and LOW at λ = 0.9, DD = 1 with the
/// delayed-request re-submission timer at 250 / 1000 / 4000 ms.
pub fn retry_delay_sweep(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let mut t = Table::new(
        "Ablation: delayed-request retry timer — mean RT (s) at λ=0.9, DD=1",
        vec!["retry delay (ms)", "GOW", "LOW"],
    );
    let delays = [250u64, 1000, 4000];
    let cells: Vec<SimConfig> = delays
        .iter()
        .flat_map(|&ms| {
            [SchedulerKind::Gow, SchedulerKind::Low(2)].map(|kind| {
                let mut cfg = base(opts, kind, WorkloadKind::Exp1 { num_files: 16 });
                cfg.lambda_tps = 0.9;
                cfg.retry_delay = Duration::from_millis(ms);
                cfg
            })
        })
        .collect();
    let rts = ctx.map(&cells, |_, cfg| ctx.run_point(cfg).mean_rt_secs());
    for (i, ms) in delays.iter().enumerate() {
        t.push_row(vec![ms.to_string(), f1(rts[2 * i]), f1(rts[2 * i + 1])]);
    }
    t
}

/// Admission scan cap: GOW throughput and CN utilization at λ = 1.0,
/// DD = 1 with 2 / 16 / 64 costed admission tests per sweep.
pub fn admission_scan_sweep(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let mut t = Table::new(
        "Ablation: admission scan cap — GOW at λ=1.0, DD=1",
        vec!["scan cap", "completed", "mean RT (s)", "CN util"],
    );
    let caps = [2usize, 16, 64];
    let cells: Vec<SimConfig> = caps
        .iter()
        .map(|&cap| {
            let mut cfg = base(
                opts,
                SchedulerKind::Gow,
                WorkloadKind::Exp1 { num_files: 16 },
            );
            cfg.lambda_tps = 1.0;
            cfg.admission_scan_limit = cap;
            cfg
        })
        .collect();
    let reports = ctx.map(&cells, |_, cfg| ctx.run_point(cfg));
    for (cap, r) in caps.iter().zip(&reports) {
        t.push_row(vec![
            cap.to_string(),
            r.completed.to_string(),
            f1(r.mean_rt_secs()),
            format!("{:.0}%", r.cn_utilization * 100.0),
        ]);
    }
    t
}

/// WDL vs the paper's six: throughput at RT = 70 s (Exp. 1 and Exp. 2,
/// DD = 1) and restarts at λ = 0.8.
pub fn wdl_comparison(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let mut t = Table::new(
        "Extension: wait-depth limited locking vs the paper's schedulers (DD=1)",
        vec![
            "scheduler",
            "Exp.1 TPS@70s",
            "Exp.2 TPS@70s",
            "restarts (Exp.1, λ=0.8)",
        ],
    );
    let mut kinds = vec![SchedulerKind::Wdl];
    kinds.extend(SchedulerKind::PAPER_SET);
    let rows = ctx.map(&kinds, |_, &kind| {
        let exp1 = driver::throughput_at_rt(
            ctx,
            &base(opts, kind, WorkloadKind::Exp1 { num_files: 16 }),
            70.0,
            0.05,
            1.4,
            opts.bisect_iters,
        );
        let exp2 = driver::throughput_at_rt(
            ctx,
            &base(opts, kind, WorkloadKind::Exp2),
            70.0,
            0.05,
            1.4,
            opts.bisect_iters,
        );
        let mut heavy = base(opts, kind, WorkloadKind::Exp1 { num_files: 16 });
        heavy.lambda_tps = 0.8;
        let hr = ctx.run_point(&heavy);
        vec![
            kind.label(),
            f2(exp1.throughput_tps()),
            f2(exp2.throughput_tps()),
            hr.restarts.to_string(),
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

/// All ablations in order, sharing one point cache.
pub fn run_all(opts: &ExpOptions) -> Vec<Table> {
    let ctx = ExecCtx::new(opts.jobs);
    run_all_with(opts, &ctx)
}

/// All ablations in order on a caller-provided context.
pub fn run_all_with(opts: &ExpOptions, ctx: &ExecCtx) -> Vec<Table> {
    vec![
        low_k_sweep(opts, ctx),
        retry_delay_sweep(opts, ctx),
        admission_scan_sweep(opts, ctx),
        wdl_comparison(opts, ctx),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn quick() -> ExpOptions {
        let mut o = ExpOptions::quick();
        o.horizon = Duration::from_secs(150);
        o.bisect_iters = 2;
        o
    }

    #[test]
    fn low_k_sweep_shape() {
        let opts = quick();
        let t = low_k_sweep(&opts, &ExecCtx::new(opts.jobs));
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.header.len(), 3);
    }

    #[test]
    fn wdl_runs_end_to_end() {
        let mut cfg = SimConfig::new(SchedulerKind::Wdl, WorkloadKind::Exp1 { num_files: 16 });
        cfg.lambda_tps = 0.5;
        cfg.horizon = Duration::from_secs(400);
        let r = Engine::run(&cfg);
        assert!(r.completed > 100, "WDL completed only {}", r.completed);
        // Under contention WDL must actually restart sometimes.
        assert!(r.restarts > 0, "WDL never restarted at λ=0.5");
    }

    #[test]
    fn retry_delay_changes_results() {
        let opts = quick();
        let t = retry_delay_sweep(&opts, &ExecCtx::serial());
        assert_eq!(t.rows.len(), 3);
    }
}
