//! Experiment drivers: λ-sweeps, the "throughput at RT = 70 s" search,
//! and response-time speedup computations.
//!
//! The paper reports three metrics (§4.2): mean response time,
//! throughput, and response-time *speedup* at a fixed arrival rate
//! (`RT at DD = 1` / `RT at DD = k`). Tables 2 and 4 and Figs. 9/13
//! report "throughput where the scheduler has a response time of 70
//! seconds" — the arrival rate at which mean RT crosses 70 s, found here
//! by bisection over λ (RT is monotone in λ).
//!
//! Every driver takes an [`ExecCtx`]: points are memoized in its
//! [`PointCache`](crate::parallel::PointCache), so bisection endpoints,
//! the final report, and any point another artifact already simulated
//! cost one `Engine::run` per distinct config, total. λ-sweeps fan
//! out across the context's worker threads.

use std::sync::Arc;

use crate::config::SimConfig;
use crate::metrics::SimReport;
use crate::parallel::ExecCtx;

/// Run one point (memoized).
pub fn run_point(ctx: &ExecCtx, cfg: &SimConfig) -> Arc<SimReport> {
    ctx.run_point(cfg)
}

/// Sweep arrival rates in parallel and return one report per λ, in
/// input order.
pub fn sweep_lambda(ctx: &ExecCtx, base: &SimConfig, lambdas: &[f64]) -> Vec<Arc<SimReport>> {
    ctx.map(lambdas, |_, &l| ctx.run_point(&base.clone().with_lambda(l)))
}

/// Mean RT (seconds) at a given λ.
fn rt_at(ctx: &ExecCtx, base: &SimConfig, lambda: f64) -> f64 {
    let r = ctx.run_point(&base.clone().with_lambda(lambda));
    if r.completed == 0 {
        f64::INFINITY
    } else {
        r.mean_rt_secs()
    }
}

/// Find the arrival rate at which mean response time reaches
/// `target_rt_secs`, by bisection on `[lo, hi]`; returns the throughput
/// measured at that rate (the paper's "TPS at Resp.Time = 70 sec").
///
/// If RT never reaches the target even at `hi`, returns the throughput
/// at `hi` (the scheduler saturates above the probe range). If RT
/// exceeds the target already at `lo`, returns the throughput at `lo`.
///
/// All probes go through the context's point cache: the `lo`/`hi`
/// endpoint probes and the final report reuse the bisection's own
/// measurements, so a search of `n` iterations costs exactly `n + 2`
/// simulator invocations on a cold cache (and fewer when another
/// artifact already visited some of the λ grid).
pub fn throughput_at_rt(
    ctx: &ExecCtx,
    base: &SimConfig,
    target_rt_secs: f64,
    mut lo: f64,
    mut hi: f64,
    iterations: u32,
) -> Arc<SimReport> {
    assert!(lo > 0.0 && hi > lo, "invalid bisection range");
    let rt_hi = rt_at(ctx, base, hi);
    if rt_hi < target_rt_secs {
        return ctx.run_point(&base.clone().with_lambda(hi));
    }
    let rt_lo = rt_at(ctx, base, lo);
    if rt_lo > target_rt_secs {
        return ctx.run_point(&base.clone().with_lambda(lo));
    }
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if rt_at(ctx, base, mid) > target_rt_secs {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Report at the highest rate that stays within the target — already
    // simulated by the endpoint probe or the last accepted midpoint, so
    // this is a cache hit.
    ctx.run_point(&base.clone().with_lambda(lo))
}

/// Response-time speedup of a scheduler at a fixed arrival rate:
/// `RT(DD = 1) / RT(DD = dd)` (paper §4.2).
pub fn rt_speedup(ctx: &ExecCtx, base: &SimConfig, dd: u32) -> f64 {
    let rt1 = ctx.run_point(&base.clone().with_dd(1));
    let rtk = ctx.run_point(&base.clone().with_dd(dd));
    let (a, b) = (rt1.mean_rt_secs(), rtk.mean_rt_secs());
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Result of a [`best_mpl`] search.
#[derive(Debug, Clone)]
pub struct MplChoice {
    /// The chosen multiprogramming-level cap.
    pub mpl: u32,
    /// The report at that cap.
    pub report: Arc<SimReport>,
    /// True when *every* candidate completed zero transactions. The
    /// report is then the lowest candidate's (by convention), and its
    /// response-time statistics are meaningless — callers must not rank
    /// schedulers by them.
    pub all_saturated: bool,
}

/// Find the best multiprogramming level for C2PL+M: sweep the mpl grid
/// in parallel and keep the configuration with the lowest mean RT among
/// candidates that completed work.
///
/// When no candidate completes anything (all saturated within the
/// horizon), the search cannot rank response times: the result carries
/// the *lowest* candidate mpl explicitly and sets
/// [`MplChoice::all_saturated`] so callers don't treat the empty
/// report's RT of 0 as a best case.
pub fn best_mpl(ctx: &ExecCtx, base: &SimConfig, candidates: &[u32]) -> MplChoice {
    assert!(!candidates.is_empty());
    let reports = ctx.map(candidates, |_, &m| ctx.run_point(&base.clone().with_mpl(m)));
    let mut best: Option<(u32, Arc<SimReport>)> = None;
    for (&m, r) in candidates.iter().zip(&reports) {
        // Prefer a run that actually completes work; among those, the
        // lowest mean RT wins.
        let better = match &best {
            None => r.completed > 0,
            Some((_, cur)) => r.completed > 0 && r.mean_rt_secs() < cur.mean_rt_secs(),
        };
        if better {
            best = Some((m, Arc::clone(r)));
        }
    }
    match best {
        Some((mpl, report)) => MplChoice {
            mpl,
            report,
            all_saturated: false,
        },
        None => {
            // Every candidate saturated: return the lowest mpl (the
            // least-overloaded configuration) and flag the result.
            let idx = candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &m)| m)
                .map(|(i, _)| i)
                .expect("non-empty candidate list");
            MplChoice {
                mpl: candidates[idx],
                report: Arc::clone(&reports[idx]),
                all_saturated: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadKind;
    use bds_des::time::Duration;
    use bds_sched::SchedulerKind;

    fn base() -> SimConfig {
        let mut c = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
        c.horizon = Duration::from_secs(500);
        c
    }

    #[test]
    fn sweep_produces_monotone_rt() {
        let ctx = ExecCtx::new(2);
        let rs = sweep_lambda(&ctx, &base(), &[0.2, 0.9]);
        assert_eq!(rs.len(), 2);
        assert!(
            rs[1].mean_rt_secs() > rs[0].mean_rt_secs(),
            "RT must grow with load: {} vs {}",
            rs[0].mean_rt_secs(),
            rs[1].mean_rt_secs()
        );
    }

    #[test]
    fn throughput_at_rt_lands_below_target() {
        let ctx = ExecCtx::serial();
        let r = throughput_at_rt(&ctx, &base(), 70.0, 0.1, 1.4, 5);
        assert!(r.completed > 0);
        // NODC's RT at its measured λ must be at or below ~70s (allow
        // bisection slack).
        assert!(r.mean_rt_secs() <= 90.0, "rt {}", r.mean_rt_secs());
    }

    #[test]
    fn bisection_never_resimulates_a_point() {
        let ctx = ExecCtx::serial();
        let iters = 5;
        let r = throughput_at_rt(&ctx, &base(), 70.0, 0.1, 1.4, iters);
        assert!(r.completed > 0);
        // hi probe + lo probe + one point per iteration; the final
        // report must come from the cache, not a fresh simulation.
        assert_eq!(
            ctx.cache().sim_runs(),
            u64::from(iters) + 2,
            "endpoint probes or the final report re-simulated a cached point"
        );
        assert!(ctx.cache().hits() >= 1, "final report must be a cache hit");
    }

    #[test]
    fn speedup_exceeds_one_under_load() {
        let ctx = ExecCtx::serial();
        let mut c = base();
        c.lambda_tps = 0.5;
        let s = rt_speedup(&ctx, &c, 8);
        assert!(s > 1.5, "DD=8 speedup {s}");
    }

    #[test]
    fn best_mpl_picks_a_candidate() {
        let ctx = ExecCtx::new(2);
        let mut c = base();
        c.scheduler = SchedulerKind::C2pl;
        c.lambda_tps = 0.8;
        let choice = best_mpl(&ctx, &c, &[4, 64]);
        assert!(choice.mpl == 4 || choice.mpl == 64);
        assert!(choice.report.completed > 0);
        assert!(!choice.all_saturated);
    }

    #[test]
    fn best_mpl_flags_all_saturated() {
        let ctx = ExecCtx::serial();
        let mut c = base();
        c.scheduler = SchedulerKind::C2pl;
        c.lambda_tps = 1.2;
        // A horizon shorter than any transaction's service time: nothing
        // can complete at any mpl.
        c.horizon = Duration::from_millis(10);
        let choice = best_mpl(&ctx, &c, &[64, 4, 16]);
        assert!(choice.all_saturated, "zero completions must be flagged");
        assert_eq!(choice.mpl, 4, "lowest candidate mpl wins on saturation");
        assert_eq!(choice.report.completed, 0);
    }
}
