//! Trace/report cross-accounting: the tracer's exact event counters must
//! reconcile with the simulator's own `SimReport` statistics for every
//! scheduler, and turning tracing or the host profiler on must not
//! change the simulation at all (the report stays byte-identical).

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::obs::Profiler;
use batchsched::trace::{chrome_trace, Analysis};
use bds_sched::SchedulerKind;

/// A moderately contended Exp-1 point: enough blocking, delays and (for
/// OPT/WDL) restarts that every counter is exercised.
fn cfg(kind: SchedulerKind) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.horizon = Duration::from_secs(400);
    c.lambda_tps = 0.9;
    c
}

const CAPACITY: usize = 1 << 20;

#[test]
fn counters_reconcile_with_report_for_paper_set() {
    for kind in SchedulerKind::PAPER_SET {
        let c = cfg(kind);
        let (r, data) = Engine::run_traced(&c, CAPACITY);
        assert_eq!(data.dropped, 0, "{kind}: ring overflowed");
        let n = &data.counts;
        assert_eq!(n.arrivals, r.arrived, "{kind}: arrivals");
        assert_eq!(n.commits, r.completed, "{kind}: commits");
        assert_eq!(n.aborts, r.restarts, "{kind}: aborts");
        assert_eq!(n.lock_requests, r.lock_requests, "{kind}: lock requests");
        assert_eq!(
            n.lock_blocks + n.lock_denies,
            r.requests_denied,
            "{kind}: denials"
        );
        // No paper scheduler restarts at a lock request, so every
        // request is either granted or denied.
        assert_eq!(n.lock_restarts, 0, "{kind}: paper set never restarts");
        assert_eq!(
            n.lock_grants,
            r.lock_requests - r.requests_denied,
            "{kind}: grants"
        );
        assert_eq!(n.certify_ok, r.completed, "{kind}: certifications");
        assert_eq!(n.certify_fail, r.restarts, "{kind}: failed certifications");
        // A transaction is admitted at least once per commit or abort.
        assert!(n.admissions >= r.started, "{kind}: admissions");
        // Cohorts may still be running at the horizon.
        assert!(n.cohort_starts >= n.cohort_finishes, "{kind}: cohorts");
        assert!(n.quanta >= n.cohort_finishes, "{kind}: quanta");
    }
}

#[test]
fn wdl_restart_counters_balance() {
    let c = cfg(SchedulerKind::Wdl);
    let (r, data) = Engine::run_traced(&c, CAPACITY);
    let n = &data.counts;
    assert!(n.lock_restarts > 0, "contended WDL must restart someone");
    // Every lock request resolves exactly one way.
    assert_eq!(
        n.lock_grants + n.lock_blocks + n.lock_denies + n.lock_restarts,
        n.lock_requests
    );
    // WDL restarts come only from lock requests; OPT-style certification
    // failures never happen.
    assert_eq!(n.certify_fail, 0);
    assert_eq!(n.aborts, r.restarts);
}

#[test]
fn tracing_does_not_change_the_report() {
    for kind in SchedulerKind::ALL {
        let c = cfg(kind);
        let plain = Engine::run(&c).to_json();
        let (traced, _) = Engine::run_traced(&c, CAPACITY);
        assert_eq!(
            plain,
            traced.to_json(),
            "{kind}: tracing perturbed the simulation"
        );
        let mut profiled = Engine::new(&c);
        profiled.set_profiler(Profiler::on());
        profiled.run_to_horizon();
        assert_eq!(
            plain,
            profiled.report().to_json(),
            "{kind}: profiling perturbed the simulation"
        );
    }
}

#[test]
fn analysis_and_exports_agree_with_report() {
    let c = cfg(SchedulerKind::C2pl);
    let (r, data) = Engine::run_traced(&c, CAPACITY);
    let a = Analysis::from_data(&data);
    let b = a.breakdown();
    assert_eq!(b.committed, r.completed);
    assert_eq!(b.aborted_attempts, r.restarts);
    // Mean response over the trace matches the report's Welford mean.
    assert!(
        (b.mean_response_secs - r.mean_rt_secs()).abs() < 1e-6,
        "trace mean RT {} vs report {}",
        b.mean_response_secs,
        r.mean_rt_secs()
    );
    // Wait + exec never exceeds response for any committed transaction.
    for s in a.spans.iter().filter(|s| s.commit.is_some()) {
        let resp = s.response().unwrap();
        assert!(s.queue + s.wait + s.exec <= resp, "span overflow: {s:?}");
    }
    // The summary carries the reconciled totals.
    let summary = a.summary_json();
    assert!(summary.contains(&format!("\"commits\":{}", r.completed)));
    assert!(summary.contains(&format!("\"lock_requests\":{}", r.lock_requests)));
    // The Chrome export is well-formed enough to hand to Perfetto.
    let chrome = chrome_trace(&data);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("}"));
    assert!(chrome.contains("\"ph\":\"X\""), "no span events");
    assert!(chrome.contains("\"ph\":\"M\""), "no process metadata");
}
