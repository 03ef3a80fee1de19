//! Smoke tests of the experiment harness itself: every artifact
//! regenerates at reduced fidelity with the right table shape, and the
//! drivers behave monotonically.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::driver;
use batchsched::experiments::{run_artifact, ExpOptions, ARTIFACT_IDS};
use batchsched::parallel::ExecCtx;
use batchsched::sched::SchedulerKind;

fn tiny() -> ExpOptions {
    let mut o = ExpOptions::quick();
    o.horizon = Duration::from_secs(100);
    o.bisect_iters = 2;
    o.mpl_grid = vec![8];
    o
}

#[test]
fn every_artifact_regenerates() {
    let opts = tiny();
    for id in ARTIFACT_IDS {
        let a = run_artifact(id, &opts);
        assert_eq!(a.id, id);
        assert!(!a.table.rows.is_empty(), "{id}: empty table");
        let width = a.table.header.len();
        assert!(a.table.rows.iter().all(|r| r.len() == width));
        // Render and CSV must not panic and must contain the title/header.
        let text = a.table.render();
        assert!(text.contains(&a.table.title));
        let csv = a.table.to_csv();
        assert_eq!(csv.lines().count(), a.table.rows.len() + 1);
    }
}

#[test]
fn bisection_is_bounded_by_probe_range() {
    let mut cfg = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
    cfg.horizon = Duration::from_secs(300);
    let r = driver::throughput_at_rt(&ExecCtx::serial(), &cfg, 70.0, 0.05, 1.4, 3);
    assert!(r.lambda_tps >= 0.05 && r.lambda_tps <= 1.4);
    assert!(r.throughput_tps() <= r.lambda_tps + 1e-9);
}

#[test]
fn rt_speedup_definition() {
    // Speedup compares DD=1 vs DD=k of the *same* configuration.
    let mut cfg = SimConfig::new(SchedulerKind::Nodc, WorkloadKind::Exp1 { num_files: 16 });
    cfg.horizon = Duration::from_secs(400);
    cfg.lambda_tps = 0.3;
    let ctx = ExecCtx::serial();
    let s1 = driver::rt_speedup(&ctx, &cfg, 1);
    assert!(
        (s1 - 1.0).abs() < 1e-9,
        "speedup at DD=1 must be 1, got {s1}"
    );
    let s8 = driver::rt_speedup(&ctx, &cfg, 8);
    assert!(s8 > 2.0, "light-load DD=8 speedup {s8}");
}

#[test]
fn best_mpl_never_picks_worse_than_grid() {
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.horizon = Duration::from_secs(400);
    cfg.lambda_tps = 1.0;
    let choice = driver::best_mpl(&ExecCtx::serial(), &cfg, &[2, 8, 32]);
    assert!(!choice.all_saturated);
    let (m, best) = (choice.mpl, choice.report);
    for probe in [2u32, 8, 32] {
        let r = batchsched::engine::Engine::run(&cfg.clone().with_mpl(probe));
        if r.completed > 0 && best.completed > 0 {
            assert!(
                best.mean_rt_secs() <= r.mean_rt_secs() + 1e-9,
                "best_mpl chose {m} (RT {:.1}) but mpl={probe} has RT {:.1}",
                best.mean_rt_secs(),
                r.mean_rt_secs()
            );
        }
    }
}

#[test]
fn sweep_lambda_returns_one_report_per_rate() {
    let mut cfg = SimConfig::new(SchedulerKind::Asl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.horizon = Duration::from_secs(200);
    let rs = driver::sweep_lambda(&ExecCtx::new(2), &cfg, &[0.2, 0.4, 0.6]);
    assert_eq!(rs.len(), 3);
    assert!((rs[0].lambda_tps - 0.2).abs() < 1e-12);
    assert!((rs[2].lambda_tps - 0.6).abs() < 1e-12);
}
