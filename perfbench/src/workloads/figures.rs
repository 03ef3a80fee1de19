//! `figures`: every repro artifact through one `ExecCtx`.
//!
//! The only workload that goes through `core`: the parallel executor,
//! `PointCache` coalescing and the RT = 70 s bisection. A pass regenerates
//! all 12 artifacts for each of [`REPLICAS`] input seeds, each on a fresh
//! context. `ExecCtx` exposes no simulated-event count, so on this
//! workload `events_per_s` counts simulation points (`PointCache` runs)
//! per host second.

use std::time::Instant;

use batchsched::experiments::{run_artifact_with, ExpOptions, ARTIFACT_IDS};
use batchsched::report::Table;
use batchsched::ExecCtx;

use crate::measure::{self, ratio, SetupTimes, Span};
use crate::{repeat, sub_seeds, Ctx, Series};

/// Worker threads of the measured leg.
pub const JOBS: usize = 2;

/// Input seeds per pass: which points the bisection visits depends on
/// the seed, so one seed alone makes the pass cost seed-dependent.
pub const REPLICAS: u64 = 4;

/// `ExpOptions::quick()` at `jobs` workers and input seed `seed`.
pub fn options(seed: u64, jobs: usize) -> ExpOptions {
    let mut o = ExpOptions::quick().with_jobs(jobs);
    o.seed = seed;
    o
}

/// One pass: all artifacts for every seed, each seed on a fresh context.
struct Pass {
    wall: f64,
    cpu: f64,
    /// Mean over seeds of each seed's peak RSS, MiB.
    rss_mib: f64,
    /// Per artifact, summed over seeds.
    artifact_s: Vec<f64>,
    /// Per seed, per artifact.
    tables: Vec<Table>,
    sim_runs: u64,
    cache_hits: u64,
}

/// One pass; `setup` gets 20 timed builds of each seed's inputs.
fn pass(seeds: &[u64], jobs: usize, setup: &mut SetupTimes) -> Pass {
    let mut p = Pass {
        wall: 0.0,
        cpu: 0.0,
        rss_mib: 0.0,
        artifact_s: vec![0.0; ARTIFACT_IDS.len()],
        tables: Vec::new(),
        sim_runs: 0,
        cache_hits: 0,
    };
    for &seed in seeds {
        setup.sample(20, || {
            let opts = options(seed, jobs);
            let ectx = ExecCtx::new(opts.jobs);
            (opts, ectx)
        });
        let opts = options(seed, jobs);
        let ectx = ExecCtx::new(opts.jobs);
        measure::reset_peak_rss();
        let span = Span::start();
        for (i, id) in ARTIFACT_IDS.iter().enumerate() {
            let t = Instant::now();
            let a = run_artifact_with(id, &opts, &ectx);
            p.artifact_s[i] += t.elapsed().as_secs_f64();
            p.tables.push(a.table);
        }
        let (wall, cpu) = span.stop();
        p.wall += wall;
        p.cpu += cpu;
        p.rss_mib += measure::peak_rss_mib() / seeds.len() as f64;
        p.sim_runs += ectx.cache().sim_runs();
        p.cache_hits += ectx.cache().hits();
    }
    p
}

/// Record one operation per artifact table: it fails if it differs from
/// the table at the same position in `reference`, which the first pass
/// to reach that position fills. Every pass starts with the same seed.
fn check_tables(ctx: &mut Ctx, tables: Vec<Table>, reference: &mut Vec<Table>, what: &str) {
    for (i, t) in tables.into_iter().enumerate() {
        let mut failures = Vec::new();
        match reference.get(i) {
            None => reference.push(t),
            Some(want) if *want != t => failures.push(format!(
                "{what} table {} differs from the reference:\n{}\nwant\n{}",
                ARTIFACT_IDS[i % ARTIFACT_IDS.len()],
                t.render(),
                want.render()
            )),
            Some(_) => {}
        }
        ctx.op(&failures);
    }
}

/// Measure the `figures` workload into `ctx`.
pub fn run(ctx: &mut Ctx) {
    let seeds = sub_seeds(ctx.seed, REPLICAS);
    let seconds = ctx.seconds;
    let trace = ctx.trace;
    let mut reference = Vec::new();
    let mut series = Series::default();
    let mut setup = SetupTimes::default();
    // The warm-up runs one seed. Traced rounds run an untraced leg, a
    // traced leg (per-artifact times and cache counters) and a 1-job leg
    // whose tables must equal the JOBS-worker ones.
    repeat(seconds, 1, |i| {
        let n = if i == 0 { 1 } else { seeds.len() };
        let p = pass(&seeds[..n], JOBS, &mut setup);
        check_tables(ctx, p.tables, &mut reference, "2-job");
        if i == 0 {
            return;
        }
        if !trace {
            series.push("wall_s", p.wall);
            series.push("cpu_s", p.cpu);
            series.push("events_per_s", p.sim_runs as f64 / p.wall);
            series.push("peak_rss_mib", p.rss_mib);
            return;
        }
        series.push("plain_wall", p.wall);
        let t = pass(&seeds, JOBS, &mut setup);
        series.push("traced_wall", t.wall);
        for (id, secs) in ARTIFACT_IDS.iter().zip(&t.artifact_s) {
            series.push(format!("core.{id}.s"), *secs);
        }
        series.push("core.sim_runs", t.sim_runs as f64);
        series.push("core.cache_hits", t.cache_hits as f64);
        series.push(
            "core.cache_hit_ratio",
            ratio(t.cache_hits as f64, (t.sim_runs + t.cache_hits) as f64),
        );
        check_tables(ctx, t.tables, &mut reference, "2-job");
        let s = pass(&seeds, 1, &mut setup);
        series.push("core.jobs_speedup", s.wall / p.wall);
        check_tables(ctx, s.tables, &mut reference, "1-job");
    });
    if !trace {
        ctx.set("setup_s", setup.median());
    }
    ctx.set_all(series.medians());
}
