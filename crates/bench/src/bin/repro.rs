//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--csv] [--jobs N] [--trace DIR]
//!       [--metrics DIR] [--profile DIR] [--faults PLAN] [--scale]
//!       [artifact...]
//! ```
//!
//! With no artifact arguments, every table and figure is regenerated in
//! paper order (fig8 table2 fig9 table3 fig10 fig11 table4 fig12 fig13
//! table5). The pseudo-artifact `ablations` runs the design-knob
//! ablation studies. `--quick` runs reduced-fidelity settings (shorter
//! horizon, fewer bisection iterations) for smoke testing; `--csv`
//! emits CSV instead of aligned text tables; `--jobs N` fans
//! independent simulation cells across `N` worker threads (default: all
//! cores; capped at the core count, with a notice when `N` exceeds it).
//! Each simulation runs on one serial event loop, and the tables are
//! byte-identical at any `N`.
//!
//! `--trace DIR` additionally re-runs one high-contention Fig. 8 point
//! (Exp. 1, 16 files, DD = 1, λ = 1.1) per paper scheduler with the
//! lifecycle tracer on and writes, per scheduler, a Chrome
//! `trace_event` JSON (`fig8_<sched>.chrome.json`, loadable in
//! Perfetto / `chrome://tracing`) and a span-summary JSON
//! (`fig8_<sched>.spans.json`) into DIR.
//!
//! `--metrics DIR` re-runs the same high-contention Fig. 8 point per
//! paper scheduler with the time-series sampler on (Δt = 5 s) and
//! writes, per scheduler, a Prometheus text exposition
//! (`fig8_<sched>.prom`), a column-oriented JSON document
//! (`fig8_<sched>.metrics.json`) and the sampled series as CSV
//! (`fig8_<sched>.timeseries.csv`), plus one cross-scheduler
//! `fig8_percentiles.csv` with the log-bucketed response-time
//! percentiles.
//!
//! `--profile DIR` re-runs the same high-contention Fig. 8 point per
//! paper scheduler with the host-side profiler (`batchsched::obs`) on
//! and writes, per scheduler, a phase-attribution profile JSON with a
//! build-info header (`fig8_<sched>.profile.json`), a wall-clock Chrome
//! trace of the cold phases (`fig8_<sched>.obs.chrome.json`) and a
//! Prometheus text exposition (`fig8_<sched>.obs.prom`) into DIR.
//! Independently of the flag, every
//! full repro run measures the profiled-path overhead (min-of-three
//! interleaved passes, reports byte-compared against the plain loop)
//! and records it as `obs_overhead_pct` in `BENCH_repro.json` — same
//! ≤ 2 % budget and `benchdiff` classification as step dispatch.
//!
//! `--scale` switches to the web-scale smoke target: instead of the
//! paper artifacts, one 100-DPN, million-transaction C2PL run (Exp. 1,
//! 2000 files, λ = 10 TPS, 10⁵ s horizon) is driven to the horizon and
//! held to a fixed wall-clock and peak-RSS budget (see EXPERIMENTS.md).
//! Peak RSS is `VmHWM`, reset before the run via `/proc/self/clear_refs`.
//! The process exits nonzero when any budget is exceeded, so CI can
//! gate on it directly. Memory stays
//! O(DPNs + live transactions) — the streaming statistics and arena'd
//! lifecycle state never hold per-transaction samples — which is what
//! the RSS budget pins.
//!
//! `--faults PLAN` switches to chaos mode: instead of the paper
//! artifacts, the high-contention Fig. 8 point is run per paper
//! scheduler under the given fault plan (the `FaultPlan::parse` DSL,
//! e.g. `crash=1@40x20,retry=1000:8000:4` or `mtbf=120,mttr=15`) and a
//! per-scheduler availability / throughput-under-failure table is
//! printed. Combined with `--metrics DIR`, each chaos cell's report +
//! sampled time series are written through the ordinary metrics
//! JSON/CSV path (`chaos_<sched>.metrics.json`,
//! `chaos_<sched>.timeseries.csv`, plus one `chaos_summary.csv`). The
//! whole table is deterministic in (seed, plan).
//!
//! Per-artifact wall-clock timings, simulator-invocation counts,
//! cache-hit counts, per-scheduler wall-clock timings of a fixed
//! high-contention point (the `"schedulers"` array), and the measured
//! tracing overhead (both with the ring recorder on and for the
//! disabled no-op path) are written as machine-readable JSON to
//! `BENCH_repro.json` in the working directory. When a committed
//! `BENCH_baseline.json` is present there, a one-line delta against it
//! is printed (the same comparison `benchdiff` gates CI with).

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::time::SimTime;
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::experiments::{default_jobs, run_artifact_with, ExpOptions, ARTIFACT_IDS};
use batchsched::fault::FaultPlan;
use batchsched::metrics::{JsonObj, SimReport};
use batchsched::parallel::{resolve_thread_budget, ExecCtx};
use batchsched::trace::{chrome_trace, Analysis, EventKind, Rec, Tracer};
use batchsched::wtpg::TxnId;
use bds_metrics::{jsonv, PromText, Tolerances};
use bds_sched::SchedulerKind;
use std::time::Instant;

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: repro [--quick] [--csv] [--jobs N] [--trace DIR] [--metrics DIR] \
         [--profile DIR] [--faults PLAN] [--scale] [artifact...]\n\
         \n\
         --jobs N  fan independent simulation cells across N worker threads\n\
         \n\
         N defaults to the machine's available parallelism and is capped\n\
         at it. Each simulation runs on one serial event loop; results are\n\
         byte-identical at any N."
    );
    std::process::exit(2);
}

/// Chaos mode: run the high-contention Fig. 8 point per paper scheduler
/// under `plan` and print the availability / throughput-under-failure
/// table. With a metrics dir, export each cell's report and sampled
/// series through the ordinary metrics JSON/CSV path.
fn run_chaos(plan: &FaultPlan, opts: &ExpOptions, csv: bool, metrics_dir: Option<&str>) {
    if let Some(dir) = metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create metrics dir '{dir}': {e}");
            std::process::exit(1);
        }
    }
    let header =
        "scheduler,completed,killed,fault_aborts,throughput_tps,availability,downtime_secs";
    let mut summary = format!("{header}\n");
    if csv {
        println!("{header}");
    } else {
        println!(
            "{:<10} {:>9} {:>7} {:>12} {:>10} {:>12} {:>9}",
            "scheduler",
            "committed",
            "killed",
            "fault-aborts",
            "tput(tps)",
            "availability",
            "down(s)"
        );
    }
    for kind in SchedulerKind::PAPER_SET {
        let cfg = traced_point(kind, opts).with_faults(plan.clone());
        let mut sim = Engine::new(&cfg);
        sim.set_metrics_interval(Duration::from_secs(5));
        sim.run_to_horizon();
        let report = sim.report();
        let series = sim.take_metrics().expect("sampler was installed");
        let tput = report.completed as f64 / report.horizon_secs;
        summary.push_str(&format!(
            "{},{},{},{},{:.4},{:.6},{:.1}\n",
            report.scheduler,
            report.completed,
            report.killed,
            report.aborts_fault,
            tput,
            report.availability,
            report.downtime_secs
        ));
        if csv {
            println!(
                "{},{},{},{},{:.4},{:.6},{:.1}",
                report.scheduler,
                report.completed,
                report.killed,
                report.aborts_fault,
                tput,
                report.availability,
                report.downtime_secs
            );
        } else {
            println!(
                "{:<10} {:>9} {:>7} {:>12} {:>10.3} {:>12.4} {:>9.1}",
                report.scheduler,
                report.completed,
                report.killed,
                report.aborts_fault,
                tput,
                report.availability,
                report.downtime_secs
            );
        }
        if let Some(dir) = metrics_dir {
            let label = file_stem(kind);
            let mut o = JsonObj::new();
            o.raw("report", &report.to_json());
            o.raw("series", &series.to_json());
            let json_path = format!("{dir}/chaos_{label}.metrics.json");
            if let Err(e) = std::fs::write(&json_path, format!("{}\n", o.finish())) {
                eprintln!("error: could not write {json_path}: {e}");
                std::process::exit(1);
            }
            let csv_path = format!("{dir}/chaos_{label}.timeseries.csv");
            if let Err(e) = std::fs::write(&csv_path, series.to_csv()) {
                eprintln!("error: could not write {csv_path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[chaos {label} -> {json_path}, {csv_path}]");
        }
    }
    if let Some(dir) = metrics_dir {
        let path = format!("{dir}/chaos_summary.csv");
        if let Err(e) = std::fs::write(&path, summary) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[chaos summary -> {path}]");
    }
}

/// Wall-clock budget for the `--scale` smoke run. The run takes ~25 s
/// on a current dev machine; the budget leaves 4–5× headroom for shared
/// CI runners while still catching a complexity regression (an
/// O(transactions) structure on the hot path blows straight through).
const SCALE_WALL_BUDGET_SECS: f64 = 120.0;

/// Peak-RSS budget for the `--scale` smoke run. Steady state is
/// ~50 MiB; O(transactions) memory (full response-time samples, leaked
/// arena slots, an unbounded event list) hits hundreds of MiB.
const SCALE_RSS_BUDGET_MIB: f64 = 256.0;

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`; `None` off Linux or when unreadable).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the `VmHWM` peak-RSS watermark to the current RSS (writing
/// "5" to `/proc/self/clear_refs`), so the `--scale` run reports its
/// own peak instead of inheriting start-up allocations. Returns
/// whether the reset took; off Linux (or in restricted sandboxes) the
/// watermark keeps accumulating and the peak reads high — noted on
/// stderr, never recorded in the JSON (a machine-dependent flag would
/// break the benchdiff gate).
fn reset_peak_rss() -> bool {
    let ok = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    if !ok {
        eprintln!("scale smoke: VmHWM reset unavailable; per-phase peak RSS is cumulative");
    }
    ok
}

/// `--scale` smoke: one 100-DPN, million-transaction run under C2PL,
/// gated on wall clock and peak RSS. Writes `BENCH_scale.json` and
/// exits nonzero over budget.
fn run_scale_smoke() -> ! {
    // 2000 files keep C2PL comfortably stable (per-file lock
    // utilization ≈ 2.5 %): the smoke pins engine cost at scale, not
    // lock-thrashing dynamics — the paper's figures cover those.
    let num_files = 2_000;
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files });
    cfg.costs.num_nodes = 100;
    cfg.lambda_tps = 10.0;
    cfg.horizon = Duration::from_secs(100_000);
    eprintln!(
        "scale smoke: {} DPNs, {num_files} files, λ = {} TPS, horizon {:.0}s (≈ 1e6 arrivals)",
        cfg.costs.num_nodes,
        cfg.lambda_tps,
        cfg.horizon.as_secs_f64()
    );
    reset_peak_rss();
    let t0 = Instant::now();
    let report = Engine::run(&cfg);
    let wall_secs = t0.elapsed().as_secs_f64();
    // Same run again, dispatched one event at a time through
    // `Engine::step` — the step-dispatch overhead budget is ≤ 2 %.
    let (step_wall_secs, step_overhead_pct) = {
        let measure = || {
            let tb = Instant::now();
            let bulk = Engine::run(&cfg);
            let bulk_secs = tb.elapsed().as_secs_f64();
            let mut engine = Engine::new(&cfg);
            let ts = Instant::now();
            while engine.step().is_some() {}
            let step_secs = ts.elapsed().as_secs_f64();
            assert_eq!(
                engine.report().to_json(),
                bulk.to_json(),
                "stepping perturbed the simulation"
            );
            (step_secs, (step_secs - bulk_secs) / bulk_secs * 100.0)
        };
        let (mut step_secs, mut overhead) = measure();
        if overhead > 2.0 {
            // One retry damps scheduler jitter before declaring failure.
            let (s2, o2) = measure();
            if o2 < overhead {
                (step_secs, overhead) = (s2, o2);
            }
        }
        (step_secs, overhead)
    };
    eprintln!("scale smoke: step-dispatch overhead {step_overhead_pct:+.2}% vs bulk loop");
    let rss_mib = peak_rss_mib();
    let events_per_sec = report.events as f64 / wall_secs;
    eprintln!(
        "scale smoke: {} arrived, {} committed, {} events in {wall_secs:.1}s \
         ({:.2}M events/s), peak RSS {}",
        report.arrived,
        report.completed,
        report.events,
        events_per_sec / 1e6,
        match rss_mib {
            Some(m) => format!("{m:.0} MiB"),
            None => "unavailable".into(),
        }
    );
    let mut o = JsonObj::new();
    o.str("bin", "repro --scale");
    o.num("wall_secs", wall_secs);
    o.num("events_per_sec_m", events_per_sec / 1e6);
    o.int("arrived", report.arrived);
    o.int("completed", report.completed);
    o.int("events", report.events);
    o.num("step_wall_secs", step_wall_secs);
    o.num("step_overhead_pct", step_overhead_pct);
    if let Some(m) = rss_mib {
        o.num("peak_rss_mib", m);
    }
    let json = o.finish();
    if let Err(e) = std::fs::write("BENCH_scale.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_scale.json: {e}");
    }
    // Sanity: the run must actually be web scale and make progress.
    let mut failed = false;
    if report.arrived < 900_000 {
        eprintln!(
            "scale smoke FAIL: only {} arrivals (expected ≈ 1e6)",
            report.arrived
        );
        failed = true;
    }
    if report.completed < report.arrived / 2 {
        eprintln!(
            "scale smoke FAIL: only {} of {} committed",
            report.completed, report.arrived
        );
        failed = true;
    }
    if wall_secs > SCALE_WALL_BUDGET_SECS {
        eprintln!("scale smoke FAIL: {wall_secs:.1}s wall > {SCALE_WALL_BUDGET_SECS:.0}s budget");
        failed = true;
    }
    if let Some(m) = rss_mib {
        if m > SCALE_RSS_BUDGET_MIB {
            eprintln!(
                "scale smoke FAIL: {m:.0} MiB peak RSS > {SCALE_RSS_BUDGET_MIB:.0} MiB budget"
            );
            failed = true;
        }
    }
    if step_overhead_pct > 2.0 {
        eprintln!("scale smoke FAIL: step-dispatch overhead {step_overhead_pct:+.2}% > +2% budget");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "scale smoke OK (≤ {SCALE_WALL_BUDGET_SECS:.0}s wall, ≤ {SCALE_RSS_BUDGET_MIB:.0} MiB RSS)"
    );
    std::process::exit(0);
}

/// File-name stem for a scheduler's exports: the lower-cased label,
/// with `LOW(k=2)` written as `low_k2`.
fn file_stem(kind: SchedulerKind) -> String {
    kind.label()
        .to_lowercase()
        .replace("(k=", "_k")
        .replace(')', "")
}

/// The traced Fig. 8 point: high contention, where the schedulers'
/// wait-time anatomies differ the most.
fn traced_point(kind: SchedulerKind, opts: &ExpOptions) -> SimConfig {
    let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
    c.horizon = opts.horizon;
    c.seed = opts.seed;
    c.lambda_tps = 1.1;
    c
}

/// Ring capacity for `--trace` exports: full-horizon Fig. 8 points emit
/// a few million events; keep them all so the span summaries are exact.
const TRACE_CAPACITY: usize = 1 << 23;

/// Run the traced Fig. 8 point for every paper scheduler and write the
/// Chrome trace + span summary per scheduler into `dir`.
fn write_trace_exports(dir: &str, opts: &ExpOptions) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: could not create trace dir '{dir}': {e}");
        std::process::exit(1);
    }
    for kind in SchedulerKind::PAPER_SET {
        let cfg = traced_point(kind, opts);
        let (report, data) = Engine::run_traced(&cfg, TRACE_CAPACITY);
        let analysis = Analysis::from_data(&data);
        let label = file_stem(kind);
        let chrome_path = format!("{dir}/fig8_{label}.chrome.json");
        let spans_path = format!("{dir}/fig8_{label}.spans.json");
        if let Err(e) = std::fs::write(&chrome_path, chrome_trace(&data)) {
            eprintln!("error: could not write {chrome_path}: {e}");
            std::process::exit(1);
        }
        let mut o = JsonObj::new();
        o.str("scheduler", &report.scheduler);
        o.num("lambda_tps", report.lambda_tps);
        o.num("horizon_secs", report.horizon_secs);
        o.int("report_completed", report.completed);
        o.int("report_restarts", report.restarts);
        analysis.write_summary(&mut o);
        if let Err(e) = std::fs::write(&spans_path, format!("{}\n", o.finish())) {
            eprintln!("error: could not write {spans_path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "[trace {label}: {} events, {} committed -> {chrome_path}, {spans_path}]",
            data.counts.total(),
            report.completed
        );
    }
}

/// Run the metrics-sampled Fig. 8 point for every paper scheduler and
/// write the Prometheus / JSON / CSV exports into `dir`.
fn write_metrics_exports(dir: &str, opts: &ExpOptions) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: could not create metrics dir '{dir}': {e}");
        std::process::exit(1);
    }
    let dt = Duration::from_secs(5);
    let mut pct_csv = String::from("scheduler,completed,mean_rt_secs,p50_secs,p90_secs,p99_secs\n");
    for kind in SchedulerKind::PAPER_SET {
        let cfg = traced_point(kind, opts);
        let mut sim = Engine::new(&cfg);
        sim.set_metrics_interval(dt);
        sim.run_to_horizon();
        let report = sim.report();
        let series = sim.take_metrics().expect("sampler was installed");
        let hist = sim.rt_histogram();
        let label = file_stem(kind);

        let mut prom = PromText::new();
        let labels: &[(&str, &str)] = &[("scheduler", &report.scheduler)];
        prom.counter(
            "bds_txns_arrived_total",
            "Transactions arrived.",
            labels,
            report.arrived,
        );
        prom.counter(
            "bds_txns_committed_total",
            "Transactions committed.",
            labels,
            report.completed,
        );
        prom.counter(
            "bds_txns_restarted_total",
            "Transaction restarts.",
            labels,
            report.restarts,
        );
        prom.counter(
            "bds_lock_requests_total",
            "Lock requests evaluated (including retries).",
            labels,
            report.lock_requests,
        );
        prom.counter(
            "bds_lock_requests_denied_total",
            "Lock requests blocked or delayed at least once.",
            labels,
            report.requests_denied,
        );
        prom.gauge(
            "bds_cn_utilization",
            "Control-node CPU utilization over the horizon.",
            labels,
            report.cn_utilization,
        );
        prom.gauge(
            "bds_dpn_utilization",
            "Mean data-processing-node utilization over the horizon.",
            labels,
            report.dpn_utilization,
        );
        prom.gauge(
            "bds_mean_live_txns",
            "Time-averaged number of live transactions.",
            labels,
            report.mean_live,
        );
        prom.histogram(
            "bds_rt_seconds",
            "Response time of committed transactions.",
            labels,
            hist,
        );
        let prom_path = format!("{dir}/fig8_{label}.prom");
        if let Err(e) = std::fs::write(&prom_path, prom.finish()) {
            eprintln!("error: could not write {prom_path}: {e}");
            std::process::exit(1);
        }

        let mut o = JsonObj::new();
        o.raw("report", &report.to_json());
        o.raw("series", &series.to_json());
        let json_path = format!("{dir}/fig8_{label}.metrics.json");
        if let Err(e) = std::fs::write(&json_path, format!("{}\n", o.finish())) {
            eprintln!("error: could not write {json_path}: {e}");
            std::process::exit(1);
        }

        let csv_path = format!("{dir}/fig8_{label}.timeseries.csv");
        if let Err(e) = std::fs::write(&csv_path, series.to_csv()) {
            eprintln!("error: could not write {csv_path}: {e}");
            std::process::exit(1);
        }

        pct_csv.push_str(&format!(
            "{},{},{:.4},{},{},{}\n",
            report.scheduler,
            report.completed,
            report.mean_rt_secs(),
            fmt_opt(report.rt_p50_secs),
            fmt_opt(report.rt_p90_secs),
            fmt_opt(report.rt_p99_secs),
        ));
        eprintln!(
            "[metrics {label}: {} samples x {} columns -> {prom_path}, {json_path}, {csv_path}]",
            series.len(),
            series.width()
        );
    }
    let pct_path = format!("{dir}/fig8_percentiles.csv");
    if let Err(e) = std::fs::write(&pct_path, pct_csv) {
        eprintln!("error: could not write {pct_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[metrics percentiles -> {pct_path}]");
}

/// Run the profiled Fig. 8 point for every paper scheduler and write
/// the phase-attribution profile JSON, the wall-clock Chrome trace, and
/// the Prometheus exposition into `dir`.
fn write_profile_exports(dir: &str, opts: &ExpOptions) {
    use batchsched::obs::Profiler;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: could not create profile dir '{dir}': {e}");
        std::process::exit(1);
    }
    let export = |stem: &str, scheduler: &str, prof: &batchsched::obs::ObsReport| {
        let mut o = JsonObj::new();
        o.str("scheduler", scheduler);
        o.raw("profile", &prof.to_json());
        let json_path = format!("{dir}/{stem}.profile.json");
        if let Err(e) = std::fs::write(&json_path, format!("{}\n", o.finish())) {
            eprintln!("error: could not write {json_path}: {e}");
            std::process::exit(1);
        }
        let chrome_path = format!("{dir}/{stem}.obs.chrome.json");
        if let Err(e) = std::fs::write(&chrome_path, prof.chrome_trace()) {
            eprintln!("error: could not write {chrome_path}: {e}");
            std::process::exit(1);
        }
        let mut p = PromText::new();
        prof.render_prom(&mut p, scheduler);
        let prom_path = format!("{dir}/{stem}.obs.prom");
        if let Err(e) = std::fs::write(&prom_path, p.finish()) {
            eprintln!("error: could not write {prom_path}: {e}");
            std::process::exit(1);
        }
        json_path
    };
    for kind in SchedulerKind::PAPER_SET {
        let cfg = traced_point(kind, opts);
        let mut engine = Engine::new(&cfg);
        engine.set_profiler(Profiler::on());
        engine.run_to_horizon();
        let report = engine.report();
        let prof = engine.take_profile().expect("profiler was installed");
        let label = file_stem(kind);
        let top = prof
            .phase_shares()
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let json_path = export(&format!("fig8_{label}"), &report.scheduler, &prof);
        match top {
            Some((phase, share)) => eprintln!(
                "[profile {label}: {} committed, top phase {phase} {:.0}% -> {json_path}, .obs.chrome.json, .obs.prom]",
                report.completed,
                share * 100.0
            ),
            None => eprintln!("[profile {label}: {} committed -> {json_path}]", report.completed),
        }
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "nan".into(),
    }
}

/// Print a one-line delta of this run's `BENCH_repro.json` against the
/// committed `BENCH_baseline.json`, when one exists. Informational only
/// — the hard gate is the `benchdiff` CLI in CI.
fn print_baseline_delta(current_json: &str) {
    let Ok(base_text) = std::fs::read_to_string("BENCH_baseline.json") else {
        eprintln!("[no BENCH_baseline.json here; skipping baseline delta]");
        return;
    };
    let (base, cur) = match (jsonv::parse(&base_text), jsonv::parse(current_json)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) => {
            eprintln!("[baseline delta skipped: BENCH_baseline.json unparsable: {e}]");
            return;
        }
        (_, Err(e)) => {
            eprintln!("[baseline delta skipped: current bench JSON unparsable: {e}]");
            return;
        }
    };
    // Generous time tolerance: this line is printed on arbitrary dev
    // machines; the CI gate picks its own threshold.
    let tol = Tolerances {
        time_rel: 3.0,
        ..Tolerances::default()
    };
    let diff = bds_metrics::compare(&base, &cur, &tol);
    eprintln!("[vs BENCH_baseline.json: {}]", diff.summary_line());
}

/// Measure tracing overhead on a short fixed C2PL point: wall time with
/// the ring recorder on vs off, plus the estimated cost of the disabled
/// (`Tracer::Off`) path — events that would have been emitted times the
/// measured per-call cost of a no-op `emit`.
fn measure_trace_overhead(bench: &mut JsonObj) {
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.1;
    cfg.horizon = Duration::from_secs(200);
    let t0 = Instant::now();
    let plain = Engine::run(&cfg);
    let off_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (traced, data) = Engine::run_traced(&cfg, 1 << 22);
    let on_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        plain.to_json(),
        traced.to_json(),
        "tracing perturbed the simulation"
    );
    // Per-call cost of emit on a disabled tracer (the closure is never
    // run; black_box keeps the loop from vanishing).
    let mut off = Tracer::Off;
    let iters: u64 = 20_000_000;
    let t2 = Instant::now();
    for i in 0..iters {
        std::hint::black_box(&mut off).emit(|| Rec {
            at: SimTime::from_millis(i),
            kind: EventKind::Commit { txn: TxnId(i) },
        });
    }
    let ns_per_emit = t2.elapsed().as_nanos() as f64 / iters as f64;
    let events = data.counts.total();
    let disabled_secs = events as f64 * ns_per_emit * 1e-9;
    let mut o = JsonObj::new();
    o.num("off_secs", off_secs);
    o.num("on_secs", on_secs);
    o.int("events", events);
    o.num("ring_overhead_pct", (on_secs - off_secs) / off_secs * 100.0);
    o.num("disabled_ns_per_event", ns_per_emit);
    o.num("disabled_overhead_pct", disabled_secs / off_secs * 100.0);
    bench.raw("trace", &o.finish());
    eprintln!(
        "[trace overhead: ring {:+.1}%, disabled path {:.3}% ({events} events, {ns_per_emit:.2} ns/emit)]",
        (on_secs - off_secs) / off_secs * 100.0,
        disabled_secs / off_secs * 100.0
    );
}

/// Measure the timing-wheel event queue under steady-state churn (the
/// access pattern of a long run): hold-N pending, each op pops the
/// earliest event and schedules a replacement a mixed delay ahead. The
/// `ns_per`-named fields are time-classified by `benchdiff`, so a
/// complexity regression in the wheel trips the CI gate.
fn measure_event_queue(bench: &mut JsonObj) {
    use batchsched::des::rng::Xoshiro256;
    use batchsched::des::EventQueue;
    fn delay(r: &mut Xoshiro256) -> u64 {
        match r.next_range(10) {
            0..=5 => r.next_range(1 << 8),
            6..=8 => r.next_range(1 << 16),
            _ => r.next_range(1 << 24),
        }
    }
    let mut o = JsonObj::new();
    for n in [1_000u64, 100_000] {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut r = Xoshiro256::seed_from_u64(7);
        for i in 0..n {
            q.schedule_at(SimTime::from_millis(delay(&mut r)), i);
        }
        let ops = 1_000_000u64;
        let t0 = Instant::now();
        let mut sum = 0u64;
        for _ in 0..ops {
            let s = q.pop().expect("queue never drains");
            sum = sum.wrapping_add(s.event);
            let at = q.now() + Duration::from_millis(delay(&mut r));
            q.schedule_at(at, s.event);
        }
        let ns_per_op = t0.elapsed().as_nanos() as f64 / ops as f64;
        std::hint::black_box(sum);
        o.num(&format!("churn_hold_{n}_ns_per_op"), ns_per_op);
        eprintln!("[event_queue churn hold-{n}: {ns_per_op:.1} ns/op]");
    }
    bench.raw("event_queue", &o.finish());
}

/// Time a variant way of driving the C2PL Fig. 8 point (Exp. 1, 16
/// files, λ = 1.1, 2000 s horizon) against the plain bulk run. After
/// one warm-up run, both paths are timed three times, interleaved, and
/// the minimum of each is kept: the quantity of interest is the
/// variant's extra host cost, and minima damp the scheduler jitter of a
/// shared machine far better than single runs (observed run-to-run
/// spread is ±5 %). `variant` drives a fresh engine to the horizon; its
/// report must be byte-identical to the plain one (`what` names the
/// variant if not). Returns the plain and variant minima, the plain
/// report and the last variant engine.
fn time_against_plain(
    what: &str,
    mut variant: impl FnMut(&mut Engine),
) -> (f64, f64, SimReport, Engine) {
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.1;
    // Long enough (~15k events) that dispatch cost dominates timer
    // granularity; still a few tens of milliseconds per pass.
    cfg.horizon = Duration::from_secs(2_000);
    let mut plain_secs = f64::INFINITY;
    let mut variant_secs = f64::INFINITY;
    let mut plain = Engine::run(&cfg);
    let mut engine = Engine::new(&cfg);
    for _ in 0..3 {
        let t0 = Instant::now();
        plain = Engine::run(&cfg);
        plain_secs = plain_secs.min(t0.elapsed().as_secs_f64());
        engine = Engine::new(&cfg);
        let t1 = Instant::now();
        variant(&mut engine);
        variant_secs = variant_secs.min(t1.elapsed().as_secs_f64());
        assert_eq!(
            engine.report().to_json(),
            plain.to_json(),
            "{what} perturbed the simulation"
        );
    }
    (plain_secs, variant_secs, plain, engine)
}

/// Measure step-dispatch overhead: drive the fixed point once through
/// the bulk `run_to_horizon` loop and once one event at a time through
/// `Engine::step`, and charge the difference per event. The reports
/// must be byte-identical (there is only one event loop); the budget
/// for the dispatch overhead is ≤ 2 % (gated via the `_pct`
/// classification in `benchdiff`).
fn measure_step_overhead(bench: &mut JsonObj) {
    let mut events = 0u64;
    let (bulk_secs, step_secs, bulk, _) = time_against_plain("stepping", |e| {
        events = 0;
        while e.step().is_some() {
            events += 1;
        }
    });
    assert_eq!(events, bulk.events);
    let overhead_pct = (step_secs - bulk_secs) / bulk_secs * 100.0;
    let ns_per_event = (step_secs - bulk_secs).max(0.0) * 1e9 / events as f64;
    let mut o = JsonObj::new();
    o.num("bulk_secs", bulk_secs);
    o.num("step_secs", step_secs);
    o.int("events", events);
    o.num("step_overhead_pct", overhead_pct);
    o.num("step_overhead_ns_per_event", ns_per_event);
    bench.raw("engine", &o.finish());
    eprintln!(
        "[engine step overhead: {overhead_pct:+.2}% ({ns_per_event:.2} ns/event over {events} events)]"
    );
}

/// Measure host-profiler overhead: the fixed point once plain and once
/// with the profiler installed. The reports must be byte-identical —
/// probes never touch simulation state — and the profiled-path budget
/// is ≤ 2 %, gated via the `_pct` classification in `benchdiff`
/// exactly like step dispatch.
fn measure_obs_overhead(bench: &mut JsonObj) {
    use batchsched::obs::Profiler;
    let (plain_secs, prof_secs, plain, mut engine) = time_against_plain("profiling", |e| {
        e.set_profiler(Profiler::on());
        e.run_to_horizon();
    });
    let prof = engine.take_profile().expect("profiler was installed");
    let probes: u64 = prof.phases.iter().map(|p| p.count).sum();
    let overhead_pct = (prof_secs - plain_secs) / plain_secs * 100.0;
    let mut o = JsonObj::new();
    o.num("plain_secs", plain_secs);
    o.num("profiled_secs", prof_secs);
    o.int("events", plain.events);
    o.int("phase_probes", probes);
    o.num("obs_overhead_pct", overhead_pct);
    bench.raw("obs", &o.finish());
    eprintln!(
        "[obs overhead: {overhead_pct:+.2}% ({probes} probes over {} events)]",
        plain.events
    );
}

/// Wall-clock one fixed high-contention Fig. 8 point (Exp. 1, 16 files,
/// λ = 1.1, 200 s horizon) per paper scheduler. The scheduler decision
/// hot path dominates this point, so these timings track the
/// arena/incremental-engine optimizations release over release; see
/// `benches/wtpg_hot_path.rs` for the isolated decision microbenchmark.
fn measure_scheduler_wallclock(bench: &mut JsonObj) {
    let mut rows: Vec<String> = Vec::new();
    for kind in SchedulerKind::PAPER_SET {
        let mut cfg = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        cfg.lambda_tps = 1.1;
        cfg.horizon = Duration::from_secs(200);
        let label = kind.label();
        let t0 = Instant::now();
        let report = Engine::run(&cfg);
        let secs = t0.elapsed().as_secs_f64();
        let mut o = JsonObj::new();
        o.str("scheduler", &label);
        o.num("secs", secs);
        o.int("completed", report.completed);
        rows.push(o.finish());
        eprintln!(
            "[sched {label}: {secs:.3}s wall, {} committed]",
            report.completed
        );
    }
    bench.raw("schedulers", &format!("[{}]", rows.join(",")));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let scale = args.iter().any(|a| a == "--scale");
    let mut jobs_req: Option<usize> = None;
    let mut trace_dir: Option<String> = None;
    let mut metrics_dir: Option<String> = None;
    let mut profile_dir: Option<String> = None;
    let mut faults: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "--csv" | "--scale" => {}
            "--trace" => {
                let Some(d) = it.next() else {
                    usage_exit("--trace requires a directory");
                };
                trace_dir = Some(d);
            }
            "--metrics" => {
                let Some(d) = it.next() else {
                    usage_exit("--metrics requires a directory");
                };
                metrics_dir = Some(d);
            }
            "--profile" => {
                let Some(d) = it.next() else {
                    usage_exit("--profile requires a directory");
                };
                profile_dir = Some(d);
            }
            "--faults" => {
                let Some(p) = it.next() else {
                    usage_exit("--faults requires a fault plan (see FaultPlan::parse)");
                };
                faults = Some(p);
            }
            "--jobs" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    usage_exit("--jobs requires a positive integer");
                };
                if n == 0 {
                    usage_exit("--jobs requires a positive integer");
                }
                jobs_req = Some(n);
            }
            other if other.starts_with("--") => {
                usage_exit(&format!("unknown flag '{other}'"));
            }
            other => ids.push(other.to_string()),
        }
    }
    let jobs = resolve_thread_budget(jobs_req, default_jobs());
    if let Some(req) = jobs_req.filter(|&n| n > jobs) {
        eprintln!(
            "repro: --jobs {req} exceeds the thread budget of {} core(s): running {jobs} job(s)",
            default_jobs()
        );
    }
    if scale {
        run_scale_smoke();
    }
    if ids.is_empty() {
        ids = ARTIFACT_IDS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !ARTIFACT_IDS.contains(&id.as_str()) && id != "ablations" {
            eprintln!("unknown artifact '{id}'. valid: {ARTIFACT_IDS:?} or 'ablations'");
            std::process::exit(2);
        }
    }
    let opts = if quick {
        let mut o = ExpOptions::quick();
        o.horizon = Duration::from_secs(300);
        o.jobs = jobs;
        o
    } else {
        ExpOptions::default().with_jobs(jobs)
    };
    if let Some(spec) = &faults {
        let plan = match FaultPlan::parse(spec) {
            Ok(p) => p,
            Err(e) => usage_exit(&format!("--faults: bad plan '{spec}': {e}")),
        };
        eprintln!(
            "repro: chaos mode, horizon {:.0}s, plan '{spec}'",
            opts.horizon.as_secs_f64()
        );
        run_chaos(&plan, &opts, csv, metrics_dir.as_deref());
        return;
    }
    eprintln!(
        "repro: {} artifact(s), horizon {:.0}s, {} bisection iterations, {} job(s)",
        ids.len(),
        opts.horizon.as_secs_f64(),
        opts.bisect_iters,
        opts.jobs
    );
    // One context for the whole run: artifacts share the point cache, so
    // e.g. fig10 assembles entirely from table3's grid.
    let ctx = ExecCtx::new(opts.jobs);
    let t_all = Instant::now();
    let mut timings: Vec<String> = Vec::new();
    for id in &ids {
        let t0 = Instant::now();
        let runs_before = ctx.cache().sim_runs();
        let hits_before = ctx.cache().hits();
        let tables = if id == "ablations" {
            batchsched::ablations::run_all_with(&opts, &ctx)
        } else {
            vec![run_artifact_with(id, &opts, &ctx).table]
        };
        for table in tables {
            if csv {
                println!("# {}", table.title);
                print!("{}", table.to_csv());
            } else {
                println!("{}", table.render());
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        let sim_runs = ctx.cache().sim_runs() - runs_before;
        let cache_hits = ctx.cache().hits() - hits_before;
        eprintln!("[{id} done in {secs:.1}s — {sim_runs} sim runs, {cache_hits} cache hits]");
        let mut o = JsonObj::new();
        o.str("id", id);
        o.num("secs", secs);
        o.int("sim_runs", sim_runs);
        o.int("cache_hits", cache_hits);
        timings.push(o.finish());
    }
    if let Some(dir) = &trace_dir {
        write_trace_exports(dir, &opts);
    }
    if let Some(dir) = &metrics_dir {
        write_metrics_exports(dir, &opts);
    }
    if let Some(dir) = &profile_dir {
        write_profile_exports(dir, &opts);
    }
    let mut bench = JsonObj::new();
    bench.str("bin", "repro");
    measure_trace_overhead(&mut bench);
    measure_step_overhead(&mut bench);
    measure_obs_overhead(&mut bench);
    measure_scheduler_wallclock(&mut bench);
    measure_event_queue(&mut bench);
    bench.int("jobs", opts.jobs as u64);
    bench.raw("quick", if quick { "true" } else { "false" });
    bench.num("horizon_secs", opts.horizon.as_secs_f64());
    bench.int("bisect_iters", u64::from(opts.bisect_iters));
    bench.num("total_secs", t_all.elapsed().as_secs_f64());
    bench.int("total_sim_runs", ctx.cache().sim_runs());
    bench.int("total_cache_hits", ctx.cache().hits());
    bench.int("distinct_points", ctx.cache().len() as u64);
    bench.raw("artifacts", &format!("[{}]", timings.join(",")));
    let json = bench.finish();
    if let Err(e) = std::fs::write("BENCH_repro.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_repro.json: {e}");
    } else {
        eprintln!("wrote BENCH_repro.json");
    }
    print_baseline_delta(&json);
}
