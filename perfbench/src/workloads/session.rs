//! `session`: a `bds-serve`-style closed loop with one client.
//!
//! LOW on Exp. 1 (16 files, λ = 0.8) under a crash/MTBF fault plan with
//! checkpointing on, driven over 500 s in 100 chunks of 5 s. Every 10th
//! chunk is followed by a fork — `snapshot` → `to_json` →
//! `Snapshot::from_json` → `Engine::restore` — and the restored engine
//! carries on. The final report must equal an uninterrupted run's. A
//! pass runs one session for each of [`REPLICAS`] input seeds.

use std::hint::black_box;
use std::time::Instant;

use batchsched::des::time::{Duration, SimTime};
use batchsched::engine::{Engine, Snapshot};
use batchsched::fault::FaultPlan;
use batchsched::sched::SchedulerKind;
use batchsched::{SimConfig, WorkloadKind};

use crate::measure::{self, mean, median, percentile, ratio, SetupTimes, Span};
use crate::workloads::engine_runs::conservation;
use crate::{repeat, sub_seeds, Ctx, Series};

/// Fault plan of the session (the fault-side seed is appended per run).
pub const FAULTS: &str = "crash=1@40x20,mtbf=120,mttr=15,retry=1000:8000:4";
/// Client commands per session.
pub const CHUNKS: u64 = 100;
/// A fork follows every `FORK_EVERY`-th chunk.
pub const FORK_EVERY: u64 = 10;
/// Simulated seconds of the session. Fork cost grows with history, so
/// many short sessions sample the seed-to-seed spread (snapshot size
/// varies by ±20 %) far more cheaply than a few long ones.
pub const HORIZON_S: u64 = 500;
/// Sessions (input seeds) per pass.
pub const REPLICAS: u64 = 40;

/// The session's configuration for `seed`.
pub fn config(seed: u64) -> SimConfig {
    let plan = FaultPlan::parse(&format!("{FAULTS},seed={seed}")).expect("valid fault plan");
    let mut c = SimConfig::new(SchedulerKind::Low(2), WorkloadKind::Exp1 { num_files: 16 })
        .with_lambda(0.8)
        .with_seed(seed)
        .with_faults(plan);
    c.horizon = Duration::from_secs(HORIZON_S);
    c
}

fn new_session(seed: u64) -> (SimConfig, Engine) {
    let cfg = config(seed);
    let mut e = Engine::new(&cfg);
    e.enable_checkpointing();
    (cfg, e)
}

/// One session, with the time of each public call.
struct Session {
    wall: f64,
    cpu: f64,
    rss_mib: f64,
    chunk_ms: Vec<f64>,
    fork_ms: Vec<f64>,
    run_until_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    to_json_ms: Vec<f64>,
    from_json_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    snapshot_bytes: usize,
    /// Per chunk or fork: its check failures.
    ops: Vec<Vec<String>>,
    final_report: batchsched::SimReport,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-call stopwatch of a traced pass; a no-op when off.
struct Laps {
    on: bool,
    last: Instant,
}

impl Laps {
    fn start(&mut self) {
        if self.on {
            self.last = Instant::now();
        }
    }

    /// Record the milliseconds since the last lap into `into`.
    fn lap(&mut self, into: &mut Vec<f64>) {
        if self.on {
            into.push(ms_since(self.last));
            self.last = Instant::now();
        }
    }
}

fn session(seed: u64, reference: &str, traced: bool) -> Session {
    let (cfg, mut e) = new_session(seed);
    let h = cfg.horizon.as_millis();
    let mut p = Session {
        wall: 0.0,
        cpu: 0.0,
        rss_mib: 0.0,
        chunk_ms: Vec::new(),
        fork_ms: Vec::new(),
        run_until_ms: Vec::new(),
        snapshot_ms: Vec::new(),
        to_json_ms: Vec::new(),
        from_json_ms: Vec::new(),
        restore_ms: Vec::new(),
        snapshot_bytes: 0,
        ops: Vec::new(),
        final_report: e.report(),
    };
    let mut laps = Laps {
        on: traced,
        last: Instant::now(),
    };
    measure::reset_peak_rss();
    let span = Span::start();
    for i in 1..=CHUNKS {
        let t = Instant::now();
        laps.start();
        e.run_until(SimTime::from_millis(h * i / CHUNKS));
        laps.lap(&mut p.run_until_ms);
        black_box(e.report());
        p.chunk_ms.push(ms_since(t));
        p.ops.push(conservation(&e).into_iter().collect());
        if i % FORK_EVERY == 0 {
            let t = Instant::now();
            laps.start();
            let snap = e.snapshot();
            laps.lap(&mut p.snapshot_ms);
            let json = snap.to_json();
            laps.lap(&mut p.to_json_ms);
            let parsed = Snapshot::from_json(&json);
            laps.lap(&mut p.from_json_ms);
            p.snapshot_bytes = json.len();
            let mut failures = Vec::new();
            match parsed {
                Ok(back) => {
                    laps.start();
                    e = Engine::restore(&cfg, &back);
                    laps.lap(&mut p.restore_ms);
                }
                Err(err) => failures.push(format!("fork after chunk {i}: from_json: {err}")),
            }
            p.fork_ms.push(ms_since(t));
            p.ops.push(failures);
        }
    }
    (p.wall, p.cpu) = span.stop();
    p.rss_mib = measure::peak_rss_mib();
    p.final_report = e.report();
    let got = p.final_report.to_json();
    if got != reference {
        p.ops
            .last_mut()
            .expect("a session has operations")
            .push(format!(
            "forked session differs from the uninterrupted run:\n  got  {got}\n  want {reference}"
        ));
    }
    p
}

/// Measure the `session` workload into `ctx`.
pub fn run(ctx: &mut Ctx) {
    let seeds = sub_seeds(ctx.seed, REPLICAS);
    let seconds = ctx.seconds;
    let trace = ctx.trace;
    let references: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            let mut e = Engine::new(&config(seed));
            e.run_to_horizon();
            e.report().to_json()
        })
        .collect();
    // The warm-up runs one session. A traced run alternates untraced and
    // traced measured passes; the traced ones also time each call inside
    // a chunk and a fork.
    let mut series = Series::default();
    let mut setup = SetupTimes::default();
    repeat(seconds, if trace { 2 } else { 1 }, |i| {
        let timed_calls = trace && i > 0 && i % 2 == 0;
        let n = if i == 0 { 1 } else { seeds.len() };
        let mut sessions = Vec::with_capacity(n);
        for (&seed, reference) in seeds[..n].iter().zip(&references) {
            setup.sample(5, || new_session(seed));
            sessions.push(session(seed, reference, timed_calls));
        }
        for failures in sessions.iter().flat_map(|s| &s.ops) {
            ctx.op(failures);
        }
        if i == 0 {
            return;
        }
        let sum = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).sum::<f64>();
        let pooled = |f: &dyn Fn(&Session) -> &Vec<f64>| -> Vec<f64> {
            sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
        };
        let wall = sum(&|s| s.wall);
        if !trace {
            series.push("wall_s", wall);
            series.push("cpu_s", sum(&|s| s.cpu));
            series.push(
                "events_per_s",
                sum(&|s| s.final_report.events as f64) / wall,
            );
            series.push("peak_rss_mib", sum(&|s| s.rss_mib) / n as f64);
            return;
        }
        if !timed_calls {
            let chunk_ms = pooled(&|s| &s.chunk_ms);
            series.push("plain_wall", wall);
            series.push("engine.chunk.ms_p50", percentile(&chunk_ms, 50.0));
            series.push("engine.chunk.ms_p90", percentile(&chunk_ms, 90.0));
            return;
        }
        series.push("traced_wall", wall);
        series.push("engine.run_until.ms", mean(&pooled(&|s| &s.run_until_ms)));
        series.push("engine.snapshot.ms", mean(&pooled(&|s| &s.snapshot_ms)));
        series.push("engine.snapshot_json.ms", mean(&pooled(&|s| &s.to_json_ms)));
        series.push("engine.from_json.ms", mean(&pooled(&|s| &s.from_json_ms)));
        series.push("engine.restore.ms", mean(&pooled(&|s| &s.restore_ms)));
        series.push("engine.fork.ms_p50", median(&pooled(&|s| &s.fork_ms)));
        series.push(
            "engine.snapshot.bytes",
            sum(&|s| s.snapshot_bytes as f64) / n as f64,
        );
        let r = |f: &dyn Fn(&batchsched::SimReport) -> f64| sum(&|s| f(&s.final_report));
        let commits = r(&|r| r.completed as f64);
        series.push("des.events", r(&|r| r.events as f64));
        series.push("machine.cn_util", r(&|r| r.cn_utilization) / n as f64);
        series.push("machine.dpn_util", r(&|r| r.dpn_utilization) / n as f64);
        series.push("fault.aborts", r(&|r| r.aborts_fault as f64));
        series.push("fault.killed", r(&|r| r.killed as f64));
        series.push("fault.availability", r(&|r| r.availability) / n as f64);
        series.push("sim.commits", commits);
        series.push(
            "sim.restarts_per_commit",
            ratio(r(&|r| r.restarts as f64), commits),
        );
        series.push(
            "sim.mean_rt_s",
            ratio(r(&|r| r.mean_rt_secs() * r.completed as f64), commits),
        );
    });
    if !trace {
        ctx.set("setup_s", setup.median());
    }
    ctx.set_all(series.medians());
}
