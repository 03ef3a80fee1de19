//! Qualitative reproduction tests: the paper's §5 observations must hold
//! on reduced-fidelity runs (shorter horizon, single seed). Absolute
//! numbers are checked and recorded in EXPERIMENTS.md by the `repro`
//! binary; these tests pin the *shape* so regressions are caught by
//! `cargo test`.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::metrics::SimReport;
use batchsched::sched::SchedulerKind;

fn run(kind: SchedulerKind, workload: WorkloadKind, lambda: f64, dd: u32) -> SimReport {
    let mut cfg = SimConfig::new(kind, workload);
    cfg.lambda_tps = lambda;
    cfg.dd = dd;
    cfg.horizon = Duration::from_secs(1200);
    Engine::run(&cfg)
}

fn exp1(kind: SchedulerKind, lambda: f64, dd: u32) -> SimReport {
    run(kind, WorkloadKind::Exp1 { num_files: 16 }, lambda, dd)
}

/// §5.1.1 characteristic #1: with bulk updates, data contention
/// saturates every real scheduler far below NODC's resource saturation.
#[test]
fn data_contention_saturates_before_resources() {
    let nodc = exp1(SchedulerKind::Nodc, 0.9, 1);
    for kind in [
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Opt,
    ] {
        let r = exp1(kind, 0.9, 1);
        assert!(
            r.mean_rt_secs() > nodc.mean_rt_secs(),
            "{kind}: RT {} should exceed NODC's {}",
            r.mean_rt_secs(),
            nodc.mean_rt_secs()
        );
    }
}

/// §5.1.2: ASL, GOW and LOW avoid chains of blocking — their throughput
/// under contention beats C2PL and OPT clearly (paper: 1.6–2.0 ×).
#[test]
fn wtpg_and_asl_beat_c2pl_and_opt() {
    let lambda = 0.65;
    let good: Vec<SimReport> = [
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
    ]
    .into_iter()
    .map(|k| exp1(k, lambda, 1))
    .collect();
    let c2pl = exp1(SchedulerKind::C2pl, lambda, 1);
    let opt = exp1(SchedulerKind::Opt, lambda, 1);
    for r in &good {
        assert!(
            r.throughput_tps() > 1.3 * c2pl.throughput_tps(),
            "{}: tput {:.2} not clearly above C2PL {:.2}",
            r.scheduler,
            r.throughput_tps(),
            c2pl.throughput_tps()
        );
        assert!(
            r.throughput_tps() > 1.3 * opt.throughput_tps(),
            "{}: tput {:.2} not clearly above OPT {:.2}",
            r.scheduler,
            r.throughput_tps(),
            opt.throughput_tps()
        );
    }
}

/// Table 2 trend: contention falls as NumFiles grows, so every locking
/// scheduler's throughput improves from 8 to 64 files.
#[test]
fn more_files_mean_less_contention() {
    for kind in [
        SchedulerKind::Asl,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
    ] {
        let tight = run(kind, WorkloadKind::Exp1 { num_files: 8 }, 0.6, 1);
        let loose = run(kind, WorkloadKind::Exp1 { num_files: 64 }, 0.6, 1);
        assert!(
            loose.mean_rt_secs() < tight.mean_rt_secs(),
            "{kind}: RT at 64 files ({:.1}) should beat 8 files ({:.1})",
            loose.mean_rt_secs(),
            tight.mean_rt_secs()
        );
    }
}

/// §5.1.3 observations #3/#4: declustering must shorten response times
/// for every scheduler, and ASL/GOW/LOW gain more than OPT does.
#[test]
fn declustering_speeds_up_response_time() {
    let lambda = 0.9;
    for kind in [
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Nodc,
    ] {
        let dd1 = exp1(kind, lambda, 1);
        let dd8 = exp1(kind, lambda, 8);
        let speedup = dd1.mean_rt_secs() / dd8.mean_rt_secs();
        assert!(
            speedup > 1.5,
            "{kind}: DD=8 speedup only {speedup:.2} (RT {} -> {})",
            dd1.mean_rt_secs(),
            dd8.mean_rt_secs()
        );
    }
    // OPT's speedup is the worst of the six (restarts saturate the
    // machine regardless of parallelism).
    let opt1 = exp1(SchedulerKind::Opt, lambda, 1);
    let opt8 = exp1(SchedulerKind::Opt, lambda, 8);
    let opt_speedup = opt1.mean_rt_secs() / opt8.mean_rt_secs();
    let asl1 = exp1(SchedulerKind::Asl, lambda, 1);
    let asl8 = exp1(SchedulerKind::Asl, lambda, 8);
    let asl_speedup = asl1.mean_rt_secs() / asl8.mean_rt_secs();
    assert!(
        asl_speedup > opt_speedup,
        "ASL speedup {asl_speedup:.2} must exceed OPT's {opt_speedup:.2}"
    );
}

/// §5.2 / Table 4: on the hot-set workload LOW starts more transactions
/// than ASL and ends up with clearly better response time; ASL is the
/// worst locking scheduler there.
#[test]
fn hot_set_ranks_low_over_asl() {
    let lambda = 1.0;
    let low = run(SchedulerKind::Low(2), WorkloadKind::Exp2, lambda, 1);
    let asl = run(SchedulerKind::Asl, WorkloadKind::Exp2, lambda, 1);
    let gow = run(SchedulerKind::Gow, WorkloadKind::Exp2, lambda, 1);
    assert!(
        low.mean_rt_secs() < asl.mean_rt_secs(),
        "LOW RT {:.1} must beat ASL RT {:.1} on the hot set",
        low.mean_rt_secs(),
        asl.mean_rt_secs()
    );
    assert!(
        low.mean_rt_secs() < gow.mean_rt_secs(),
        "LOW RT {:.1} must beat GOW RT {:.1} on the hot set",
        low.mean_rt_secs(),
        gow.mean_rt_secs()
    );
    assert!(
        low.throughput_tps() >= gow.throughput_tps(),
        "LOW tput must be at least GOW's on the hot set"
    );
}

/// §5.3 observation #1: GOW and LOW tolerate very wrong declarations —
/// at σ = 1 they still clearly beat C2PL.
#[test]
fn sensitivity_stays_above_c2pl() {
    let lambda = 0.55;
    let c2pl = exp1(SchedulerKind::C2pl, lambda, 1);
    for kind in [SchedulerKind::Gow, SchedulerKind::Low(2)] {
        let noisy = run(
            kind,
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma: 1.0,
            },
            lambda,
            1,
        );
        assert!(
            noisy.mean_rt_secs() < c2pl.mean_rt_secs(),
            "{kind} at σ=1: RT {:.1} must stay below C2PL's {:.1}",
            noisy.mean_rt_secs(),
            c2pl.mean_rt_secs()
        );
    }
}

/// §5.3 observation #2: GOW is less sensitive to estimation error than
/// LOW at DD = 1 (the chain-form constraint shields it).
#[test]
fn gow_less_sensitive_than_low() {
    let lambda = 0.6;
    let degradation = |kind: SchedulerKind| {
        let clean = exp1(kind, lambda, 1);
        let noisy = run(
            kind,
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma: 10.0,
            },
            lambda,
            1,
        );
        noisy.mean_rt_secs() / clean.mean_rt_secs()
    };
    let gow_ratio = degradation(SchedulerKind::Gow);
    let low_ratio = degradation(SchedulerKind::Low(2));
    assert!(
        gow_ratio < low_ratio * 1.25,
        "GOW degradation {gow_ratio:.2} should not exceed LOW's {low_ratio:.2}"
    );
}

/// Machine capacity: NODC saturates near 8 nodes / 7.2 objects ≈ 1.11
/// TPS (the paper's footnote 5 reports ~95 % utilization at 1.04 TPS).
#[test]
fn nodc_capacity_matches_model() {
    // Just below the 8/7.2 ≈ 1.11 TPS ceiling the machine keeps up…
    let near = exp1(SchedulerKind::Nodc, 1.05, 1);
    assert!(
        near.throughput_tps() > 0.90,
        "NODC at λ=1.05 completed only {:.3} TPS",
        near.throughput_tps()
    );
    // …and beyond it the DPNs saturate while committed throughput stays
    // at or under capacity (the shortfall is work parked in the growing
    // population of half-done transactions).
    let over = exp1(SchedulerKind::Nodc, 1.4, 1);
    assert!(
        over.dpn_utilization > 0.93,
        "DPNs must saturate, got {:.2}",
        over.dpn_utilization
    );
    assert!(
        over.throughput_tps() <= 1.16,
        "throughput {:.3} above the machine's capacity",
        over.throughput_tps()
    );
}

/// C2PL+M: an mpl throttle must not reduce C2PL's peak throughput
/// (paper: "C2PL+M has better response time than C2PL, but they have
/// the same peak-throughput") and improves completions under overload.
#[test]
fn mpl_throttle_helps_c2pl_under_overload() {
    let mut raw = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    raw.lambda_tps = 1.2;
    raw.horizon = Duration::from_secs(1200);
    let unlimited = Engine::run(&raw);
    let throttled = Engine::run(&raw.clone().with_mpl(8));
    assert!(
        throttled.completed > unlimited.completed,
        "mpl=8 completed {} must beat mpl=∞'s {}",
        throttled.completed,
        unlimited.completed
    );
}
