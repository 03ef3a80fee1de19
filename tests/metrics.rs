//! Integration tests for the metrics subsystem: sub-second percentile
//! resolution (the bug the log-bucketed histogram fixes), report purity
//! under sampling, and the shape/determinism of sampled time series.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use bds_sched::SchedulerKind;

fn light_load_cfg() -> SimConfig {
    let mut c = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
    // Light load: transactions barely queue, so every response time sits
    // near the 7.2 s total scan demand of Pattern 1 — squarely inside
    // one 1-second bucket.
    c.lambda_tps = 0.02;
    c.horizon = Duration::from_secs(2_000);
    c
}

/// Regression test for the percentile-resolution bug: a 1-second-bin
/// histogram snapped `rt_p50/p90/p99` to bucket midpoints (7.5 s for
/// anything in [7, 8)), erasing sub-second differences. The
/// log-bucketed histogram must resolve the actual ≈ 7.2 s value.
#[test]
fn percentiles_have_sub_second_resolution() {
    let r = Engine::run(&light_load_cfg());
    // p50 must agree with the exact mean to well under a 1-second
    // bucket — the response times cluster at ≈ 7.2 s.
    let p50 = r.rt_p50_secs.unwrap();
    let mean = r.mean_rt_secs();
    assert!(
        (p50 - mean).abs() < 0.1,
        "p50 {p50} should sit near the ≈ {mean} s cluster"
    );
    // p90 is off the half-second grid of bucket midpoints.
    let p90 = r.rt_p90_secs.unwrap();
    assert!(
        (p90 * 2.0 - (p90 * 2.0).round()).abs() > 1e-3,
        "p90 {p90} looks quantized to a half-second midpoint"
    );
}

/// Sampling must be a pure observer: the report of a metrics-on run is
/// byte-identical to the metrics-off run of the same config.
#[test]
fn sampling_does_not_perturb_the_report() {
    for kind in [SchedulerKind::C2pl, SchedulerKind::Gow] {
        let mut cfg = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        cfg.lambda_tps = 1.1;
        cfg.horizon = Duration::from_secs(300);
        let off = Engine::run(&cfg);
        let (on, series) = Engine::run_with_metrics(&cfg, Duration::from_secs(5));
        assert_eq!(
            off.to_json(),
            on.to_json(),
            "{kind}: sampling changed the report"
        );
        assert!(!series.is_empty(), "{kind}: no samples collected");
    }
}

/// The sampled series has the documented shape: a full Δt grid over the
/// horizon, utilizations within [0, 1], and occupancy gauges consistent
/// with the run.
#[test]
fn series_shape_and_ranges() {
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.1;
    cfg.horizon = Duration::from_secs(300);
    let (report, series) = Engine::run_with_metrics(&cfg, Duration::from_secs(5));

    // Grid: 5 s spacing from t = 5 s through the horizon.
    assert_eq!(series.dt_ms(), 5_000);
    assert_eq!(series.len(), 60);
    assert_eq!(series.times_ms().first(), Some(&5_000));
    assert_eq!(series.times_ms().last(), Some(&300_000));

    // Per-node columns exist for all 8 DPNs plus the mean.
    for name in ["dpn_util", "dpn0_util", "dpn7_util", "cn_util"] {
        let col = series.column(name).unwrap_or_else(|| panic!("{name}"));
        assert!(
            col.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)),
            "{name} out of [0,1]"
        );
    }

    // C2PL holds locks under this contention level; the WTPG is
    // populated while transactions are live.
    let locks = series.column("locks_held").unwrap();
    assert!(locks.iter().any(|&v| v > 0.0), "no locks ever sampled");
    let nodes = series.column("wtpg_nodes").unwrap();
    let mpl = series.column("mpl_live").unwrap();
    assert!(
        nodes.iter().zip(&mpl).all(|(&n, &m)| n == m),
        "C2PL's WTPG tracks exactly the live transactions"
    );

    // Windowed commit rates integrate back to the completion count.
    let commits_ps = series.column("commits_ps").unwrap();
    let integrated: f64 = commits_ps.iter().sum::<f64>() * 5.0;
    assert_eq!(integrated.round() as u64, report.completed);
}

/// Same seed, same series: sampling is as deterministic as the
/// simulation itself, including across CSV/JSON rendering.
#[test]
fn series_is_deterministic() {
    let mut cfg = SimConfig::new(SchedulerKind::Low(2), WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.0;
    cfg.horizon = Duration::from_secs(200);
    let (ra, sa) = Engine::run_with_metrics(&cfg, Duration::from_secs(2));
    let (rb, sb) = Engine::run_with_metrics(&cfg, Duration::from_secs(2));
    assert_eq!(ra, rb);
    assert_eq!(sa.to_csv(), sb.to_csv());
    assert_eq!(sa.to_json(), sb.to_json());
}

/// The simulator-side response-time histogram is exposed for exporters
/// and agrees with the report's percentile fields.
#[test]
fn rt_histogram_backs_the_report_percentiles() {
    let cfg = light_load_cfg();
    let mut sim = Engine::new(&cfg);
    sim.run_to_horizon();
    let report = sim.report();
    let h = sim.rt_histogram();
    assert_eq!(h.total(), report.completed);
    assert_eq!(h.quantile(0.5), report.rt_p50_secs);
    assert_eq!(h.quantile(0.99), report.rt_p99_secs);
}
