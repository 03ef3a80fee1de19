//! Conservation and accounting invariants of the simulator: no
//! transaction is lost, utilizations are consistent with completed work,
//! and the multiprogramming throttle is respected.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;

fn cfg(kind: SchedulerKind, lambda: f64) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.lambda_tps = lambda;
    c.horizon = Duration::from_secs(800);
    c
}

#[test]
fn no_transaction_is_lost() {
    for kind in SchedulerKind::PAPER_SET {
        for lambda in [0.3, 0.9, 1.3] {
            let r = Engine::run(&cfg(kind, lambda));
            // arrived = completed + queued (never started or restarting)
            //         + in flight (started, uncommitted at the horizon).
            assert!(
                r.completed + r.queued_at_end <= r.arrived,
                "{kind} λ={lambda}: more finished+queued than arrived"
            );
            let in_flight = r.arrived - r.completed - r.queued_at_end;
            // In-flight transactions are bounded by what ever started.
            assert!(
                in_flight <= r.started + 5,
                "{kind} λ={lambda}: impossible in-flight count {in_flight} (started {})",
                r.started
            );
        }
    }
}

#[test]
fn light_load_completes_everything() {
    for kind in SchedulerKind::PAPER_SET {
        let r = Engine::run(&cfg(kind, 0.05));
        // At 5 % of capacity every arrival completes except the handful
        // near the horizon.
        assert!(
            r.arrived - r.completed <= 3,
            "{kind}: {} of {} unfinished at light load",
            r.arrived - r.completed,
            r.arrived
        );
        assert_eq!(r.restarts, 0, "{kind}: restarts at light load");
    }
}

#[test]
fn utilization_bounds() {
    for kind in SchedulerKind::PAPER_SET {
        let r = Engine::run(&cfg(kind, 1.0));
        assert!((0.0..=1.0).contains(&r.cn_utilization), "{kind} CN util");
        assert!((0.0..=1.0).contains(&r.dpn_utilization), "{kind} DPN util");
        // Completed work alone gives a lower bound on DPN utilization:
        // each Pattern-1 commit consumed 7.2 node-seconds of scans.
        let lower = (r.completed as f64 * 7.2) / (8.0 * r.horizon_secs);
        assert!(
            r.dpn_utilization >= lower * 0.95,
            "{kind}: DPN util {:.3} below committed-work bound {:.3}",
            r.dpn_utilization,
            lower
        );
    }
}

#[test]
fn mpl_cap_is_respected() {
    for mpl in [1u32, 4, 16] {
        let r = Engine::run(&cfg(SchedulerKind::C2pl, 1.2).with_mpl(mpl));
        assert!(
            r.mean_live <= mpl as f64 + 1e-9,
            "mpl={mpl}: mean live {} exceeds the cap",
            r.mean_live
        );
    }
}

#[test]
fn restarts_only_under_opt() {
    for kind in SchedulerKind::PAPER_SET {
        let r = Engine::run(&cfg(kind, 1.0));
        if kind == SchedulerKind::Opt {
            assert!(r.restarts > 0, "OPT at λ=1.0 must abort sometimes");
        } else {
            assert_eq!(r.restarts, 0, "{kind} must never roll back");
        }
    }
}

#[test]
fn throughput_never_exceeds_capacity() {
    // 8 nodes / 7.2 objects per transaction ≈ 1.11 TPS hard ceiling.
    for kind in SchedulerKind::PAPER_SET {
        for dd in [1, 8] {
            let mut c = cfg(kind, 1.4);
            c.dd = dd;
            let r = Engine::run(&c);
            assert!(
                r.throughput_tps() <= 1.16,
                "{kind} DD={dd}: throughput {:.3} above machine capacity",
                r.throughput_tps()
            );
        }
    }
}

#[test]
fn cn_costs_show_up_in_utilization() {
    // GOW charges chaintime=30ms per contended request: its CN
    // utilization must clearly exceed NODC's at the same load.
    let gow = Engine::run(&cfg(SchedulerKind::Gow, 0.9));
    let nodc = Engine::run(&cfg(SchedulerKind::Nodc, 0.9));
    assert!(
        gow.cn_utilization > nodc.cn_utilization * 2.0,
        "GOW CN util {:.3} should dwarf NODC's {:.3}",
        gow.cn_utilization,
        nodc.cn_utilization
    );
}
