//! `contention` and `scan`: whole engine runs driven to the horizon.
//!
//! Untraced passes drive each engine in `run_until` chunks, each followed
//! by a report read (what a `bds-serve` client does). Traced passes build
//! the same engine with timing shims around the workload generator and
//! the scheduler, switch the engine profiler on, and drive the run in
//! quarters of the horizon.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use batchsched::des::time::{Duration, SimTime};
use batchsched::engine::Engine;
use batchsched::experiments::scan_heavy_point;
use batchsched::obs::Profiler;
use batchsched::sched::SchedulerKind;
use batchsched::{SimConfig, WorkloadKind};

use crate::measure::{self, percentile, ratio, SetupTimes, Span};
use crate::timed::{timed_engine, Op, OpStat, SchedStats};
use crate::{repeat, Ctx, Series};

/// One engine-runs workload: its configurations and how it is driven.
pub struct Spec {
    /// The configurations run back to back in one pass.
    pub configs: fn(u64) -> Vec<SimConfig>,
    /// `run_until` chunks per engine run in untraced passes.
    pub chunks: u64,
}

/// The Fig. 8 hot point at the paper's horizon, once per scheduler kind.
pub const CONTENTION: Spec = Spec {
    configs: contention_configs,
    chunks: 100,
};

/// The scan-heavy 100-DPN point.
pub const SCAN: Spec = Spec {
    configs: scan_configs,
    chunks: 200,
};

/// Simulated seconds of the `scan` workload.
pub const SCAN_HORIZON_S: u64 = 100_000;

/// Exp. 1, 16 files, DD = 1, λ = 1.1 TPS, 2 000 s, every kind.
pub fn contention_configs(seed: u64) -> Vec<SimConfig> {
    SchedulerKind::ALL
        .iter()
        .map(|&kind| {
            let mut c = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 })
                .with_lambda(1.1)
                .with_dd(1)
                .with_seed(seed);
            c.horizon = Duration::from_secs(2_000);
            c
        })
        .collect()
}

/// `scan_heavy_point` over [`SCAN_HORIZON_S`].
pub fn scan_configs(seed: u64) -> Vec<SimConfig> {
    vec![scan_heavy_point(Duration::from_secs(SCAN_HORIZON_S)).with_seed(seed)]
}

/// Transaction conservation: `arrived == completed + killed + in_flight`.
pub fn conservation(e: &Engine) -> Option<String> {
    let (a, c, k, f) = (e.arrived(), e.completed(), e.killed(), e.in_flight());
    (a != c + k + f).then(|| {
        format!(
            "{} at {} ms: arrived {a} != completed {c} + killed {k} + in_flight {f}",
            e.label(),
            e.now().as_millis()
        )
    })
}

/// Drive `e` to its horizon in `chunks` equal `run_until` steps, each
/// followed by a report read; appends each chunk's milliseconds to
/// `chunk_ms` and any conservation failure to `failures`.
fn drive_chunked(e: &mut Engine, chunks: u64, chunk_ms: &mut Vec<f64>, failures: &mut Vec<String>) {
    let h = e.config().horizon.as_millis();
    for i in 1..=chunks {
        let t = Instant::now();
        e.run_until(SimTime::from_millis(h * i / chunks));
        black_box(e.report());
        chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
        failures.extend(conservation(e));
    }
}

/// Per engine run: its report JSON and its check failures.
type Runs = Vec<(String, Vec<String>)>;

/// One untraced pass.
struct Plain {
    wall: f64,
    cpu: f64,
    events: u64,
    /// Mean over engine runs of each run's peak RSS, MiB.
    rss_mib: f64,
    chunk_ms: Vec<f64>,
    runs: Runs,
}

fn plain_pass(configs: &[SimConfig], chunks: u64) -> Plain {
    let mut p = Plain {
        wall: 0.0,
        cpu: 0.0,
        events: 0,
        rss_mib: 0.0,
        chunk_ms: Vec::new(),
        runs: Vec::new(),
    };
    for cfg in configs {
        let mut e = Engine::new(cfg);
        let mut failures = Vec::new();
        measure::reset_peak_rss();
        let span = Span::start();
        drive_chunked(&mut e, chunks, &mut p.chunk_ms, &mut failures);
        let (wall, cpu) = span.stop();
        p.wall += wall;
        p.cpu += cpu;
        p.events += e.events_processed();
        p.rss_mib += measure::peak_rss_mib() / configs.len() as f64;
        p.runs.push((e.report().to_json(), failures));
    }
    p
}

/// One traced pass: per-layer metrics, wall seconds inside the engine,
/// and per engine run its report JSON and check failures.
fn traced_pass(configs: &[SimConfig]) -> (BTreeMap<String, f64>, f64, Runs) {
    let total = SchedStats::default();
    let mut m = BTreeMap::new();
    let mut runs = Vec::new();
    let (mut wall, mut events, mut eq_ns, mut cn_ns) = (0.0, 0u64, 0.0, 0.0);
    let (mut q1, mut q4) = ((0.0, 0u64), (0.0, 0u64));
    let (mut gen_calls, mut gen_ns) = (0u64, 0u64);
    let (mut cn_util, mut dpn_util, mut avail) = (0.0, 0.0, 0.0);
    let (mut commits, mut restarts, mut rt_sum, mut aborts, mut killed) =
        (0u64, 0u64, 0.0, 0u64, 0u64);
    for cfg in configs {
        let stats = Arc::new(SchedStats::default());
        let gen = Arc::new(OpStat::default());
        let mut e = timed_engine(cfg, Arc::clone(&stats), Arc::clone(&gen));
        e.set_profiler(Profiler::on());
        let h = cfg.horizon.as_millis();
        let mut quarters = [(0.0, 0u64); 4];
        for (q, slot) in quarters.iter_mut().enumerate() {
            let t = Instant::now();
            let n = e.run_until(SimTime::from_millis(h * (q as u64 + 1) / 4));
            *slot = (t.elapsed().as_secs_f64(), n);
        }
        let prof = e.take_profile().expect("profiler was switched on");
        let phase_ns = |label: &str| {
            prof.phases
                .iter()
                .find(|p| p.label == label)
                .map_or(0.0, |p| p.est_total_ns)
        };
        let r = e.report();
        let run_wall: f64 = quarters.iter().map(|q| q.0).sum();
        let run_events = e.events_processed();
        let per_event = |(w, n): (f64, u64)| ratio(w * 1e6, n as f64);
        let kind = cfg.scheduler.label();
        m.insert(format!("sched.{kind}.host_s"), stats.host_s());
        m.insert(
            format!("sched.{kind}.evals_per_event"),
            ratio(stats.evals() as f64, run_events as f64),
        );
        m.insert(
            format!("engine.{kind}.us_per_event"),
            ratio(run_wall * 1e6, run_events as f64),
        );
        m.insert(
            format!("engine.{kind}.cost_growth"),
            ratio(per_event(quarters[3]), per_event(quarters[0])),
        );
        total.absorb(&stats);
        wall += run_wall;
        events += run_events;
        eq_ns += phase_ns("event_queue");
        cn_ns += phase_ns("cn_work");
        q1 = (q1.0 + quarters[0].0, q1.1 + quarters[0].1);
        q4 = (q4.0 + quarters[3].0, q4.1 + quarters[3].1);
        gen_calls += gen.calls();
        gen_ns += gen.ns();
        cn_util += r.cn_utilization;
        dpn_util += r.dpn_utilization;
        avail += r.availability;
        commits += r.completed;
        restarts += r.restarts;
        rt_sum += r.mean_rt_secs() * r.completed as f64;
        aborts += r.aborts_fault;
        killed += r.killed;
        runs.push((r.to_json(), conservation(&e).into_iter().collect()));
    }
    let n = configs.len() as f64;
    for op in Op::ALL {
        m.insert(
            format!("sched.{}.calls", op.name()),
            total.op(op).calls() as f64,
        );
    }
    for op in [Op::TryStart, Op::Request, Op::StepComplete, Op::Commit] {
        m.insert(format!("sched.{}.ns", op.name()), total.op(op).mean_ns());
    }
    let calls = |op| total.op(op).calls() as f64;
    m.insert(
        "sched.request.grant_ratio".into(),
        ratio(total.granted() as f64, calls(Op::Request)),
    );
    m.insert(
        "sched.try_start.admit_ratio".into(),
        ratio(total.admitted() as f64, calls(Op::TryStart)),
    );
    m.insert(
        "sched.validate.pass_ratio".into(),
        ratio(total.passed() as f64, calls(Op::Validate)),
    );
    m.insert(
        "sched.evals_per_event".into(),
        ratio(total.evals() as f64, events as f64),
    );
    m.insert("sched.host_share".into(), ratio(total.host_s(), wall));
    let q1_us = ratio(q1.0 * 1e6, q1.1 as f64);
    let q4_us = ratio(q4.0 * 1e6, q4.1 as f64);
    m.insert("engine.us_per_event.q1".into(), q1_us);
    m.insert("engine.us_per_event.q4".into(), q4_us);
    m.insert("engine.cost_growth".into(), ratio(q4_us, q1_us));
    m.insert("des.event_queue.share".into(), ratio(eq_ns * 1e-9, wall));
    m.insert("des.events".into(), events as f64);
    m.insert("machine.cn_work.share".into(), ratio(cn_ns * 1e-9, wall));
    m.insert("machine.cn_util".into(), cn_util / n);
    m.insert("machine.dpn_util".into(), dpn_util / n);
    m.insert("workload.next_batch.calls".into(), gen_calls as f64);
    m.insert(
        "workload.next_batch.ns".into(),
        ratio(gen_ns as f64, gen_calls as f64),
    );
    m.insert("fault.aborts".into(), aborts as f64);
    m.insert("fault.killed".into(), killed as f64);
    m.insert("fault.availability".into(), avail / n);
    m.insert("sim.commits".into(), commits as f64);
    m.insert(
        "sim.restarts_per_commit".into(),
        ratio(restarts as f64, commits as f64),
    );
    m.insert("sim.mean_rt_s".into(), ratio(rt_sum, commits as f64));
    (m, wall, runs)
}

/// Record one operation per engine run: its own failures, plus a
/// mismatch against `reference` (the first pass's reports).
fn check_runs(ctx: &mut Ctx, runs: Runs, reference: &mut Option<Vec<String>>, what: &str) {
    let reference = reference.get_or_insert_with(|| runs.iter().map(|r| r.0.clone()).collect());
    for (i, (report, mut failures)) in runs.into_iter().enumerate() {
        if report != reference[i] {
            failures.push(format!(
                "{what} report of run {i} differs from the reference:\n  got  {report}\n  want {}",
                reference[i]
            ));
        }
        ctx.op(&failures);
    }
}

/// Measure one engine-runs workload into `ctx`.
pub fn run(ctx: &mut Ctx, spec: &Spec) {
    let seed = ctx.seed;
    let configs = (spec.configs)(seed);
    let seconds = ctx.seconds;
    let trace = ctx.trace;
    let mut reference: Option<Vec<String>> = None;
    let mut series = Series::default();
    let mut setup = SetupTimes::default();
    repeat(seconds, 1, |i| {
        if !trace {
            setup.sample(20, || {
                (spec.configs)(seed)
                    .iter()
                    .map(Engine::new)
                    .collect::<Vec<_>>()
            });
        }
        let p = plain_pass(&configs, spec.chunks);
        check_runs(ctx, p.runs, &mut reference, "untraced");
        if i == 0 {
            return;
        }
        if !trace {
            series.push("wall_s", p.wall);
            series.push("cpu_s", p.cpu);
            series.push("events_per_s", p.events as f64 / p.wall);
            series.push("peak_rss_mib", p.rss_mib);
            return;
        }
        series.push("plain_wall", p.wall);
        series.push("engine.chunk.ms_p50", percentile(&p.chunk_ms, 50.0));
        series.push("engine.chunk.ms_p90", percentile(&p.chunk_ms, 90.0));
        let (m, wall, runs) = traced_pass(&configs);
        check_runs(ctx, runs, &mut reference, "traced");
        series.push("traced_wall", wall);
        series.push_all(m);
    });
    if !trace {
        ctx.set("setup_s", setup.median());
    }
    ctx.set_all(series.medians());
}
