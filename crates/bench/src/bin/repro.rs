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
//! The run parameters and the per-artifact simulator-invocation and
//! cache-hit counts are written as machine-readable JSON to
//! `BENCH_repro.json` in the working directory. Every value in it is
//! deterministic, so `benchdiff` compares it exactly against the
//! committed `BENCH_baseline.json`. Wall-clock times go to stderr only;
//! host timing is measured by `perfbench/`.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::experiments::{default_jobs, run_artifact_with, ExpOptions, ARTIFACT_IDS};
use batchsched::fault::FaultPlan;
use batchsched::metrics::JsonObj;
use batchsched::parallel::{resolve_thread_budget, ExecCtx};
use batchsched::trace::{chrome_trace, Analysis};
use bds_metrics::PromText;
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

/// Wall-clock budget for the `--scale` smoke run. The run takes ~6 s
/// on a current dev machine; the budget leaves ~20× headroom for shared
/// CI runners while still catching a complexity regression (an
/// O(transactions) structure on the hot path blows straight through).
const SCALE_WALL_BUDGET_SECS: f64 = 120.0;

/// Peak-RSS budget for the `--scale` smoke run. Steady state is
/// ~13 MiB; O(transactions) memory (full response-time samples, leaked
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
/// gated on wall clock, peak RSS and step-dispatch overhead. Writes the
/// run's counts to `BENCH_scale.json` and exits nonzero over budget.
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
    let step_overhead_pct = {
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
            (step_secs - bulk_secs) / bulk_secs * 100.0
        };
        let overhead = measure();
        if overhead > 2.0 {
            // One retry damps scheduler jitter before declaring failure.
            overhead.min(measure())
        } else {
            overhead
        }
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
    o.int("arrived", report.arrived);
    o.int("completed", report.completed);
    o.int("events", report.events);
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
    let mut artifacts: Vec<String> = Vec::new();
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
        o.int("sim_runs", sim_runs);
        o.int("cache_hits", cache_hits);
        artifacts.push(o.finish());
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
    bench.int("jobs", opts.jobs as u64);
    bench.raw("quick", if quick { "true" } else { "false" });
    bench.num("horizon_secs", opts.horizon.as_secs_f64());
    bench.int("bisect_iters", u64::from(opts.bisect_iters));
    bench.int("total_sim_runs", ctx.cache().sim_runs());
    bench.int("total_cache_hits", ctx.cache().hits());
    bench.int("distinct_points", ctx.cache().len() as u64);
    bench.raw("artifacts", &format!("[{}]", artifacts.join(",")));
    let json = bench.finish();
    if let Err(e) = std::fs::write("BENCH_repro.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_repro.json: {e}");
    } else {
        eprintln!(
            "wrote BENCH_repro.json ({:.1}s total)",
            t_all.elapsed().as_secs_f64()
        );
    }
}
