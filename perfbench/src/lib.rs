//! # bds-perfbench — the batchsched benchmark
//!
//! Four workloads, each measured from outside the program by timing
//! calls into the crates' public APIs:
//!
//! | Workload | What runs | Layers it exercises |
//! |---|---|---|
//! | `contention` | Fig. 8 hot point (Exp. 1, 16 files, DD = 1, λ = 1.1) at 2 000 s, once per scheduler kind | `sched`, `wtpg`, `engine` |
//! | `scan` | `scan_heavy_point`: one 400-object exclusive scan per transaction on 100 DPNs | `des`, `machine`, `workload` |
//! | `figures` | all 12 artifacts through one `ExecCtx` per seed at 2 jobs, `ExpOptions::quick()` | `core` |
//! | `session` | one-client `bds-serve`-style loops: 100 chunks each, a fork every 10th | `engine` snapshot/restore, `fault` |
//!
//! A run with `--trace 0` prints the end-to-end metrics
//! ([`END_TO_END`]); a run with `--trace 1` repeats the same inputs with
//! timing shims and the engine profiler installed and prints the
//! per-layer metrics ([`per_layer`]).

pub mod measure;
pub mod timed;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use batchsched::experiments::ARTIFACT_IDS;
use batchsched::sched::SchedulerKind;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, named by crate. A workload that
/// does not reach a layer reports 0 for its metrics.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for op in timed::Op::ALL {
        add(format!("sched.{}.calls", op.name()), "count");
    }
    for op in ["try_start", "request", "step_complete", "commit"] {
        add(format!("sched.{op}.ns"), "ns");
    }
    add("sched.request.grant_ratio".into(), "ratio");
    add("sched.try_start.admit_ratio".into(), "ratio");
    add("sched.validate.pass_ratio".into(), "ratio");
    add("sched.evals_per_event".into(), "count/event");
    add("sched.host_share".into(), "ratio");
    for k in SchedulerKind::ALL {
        add(format!("sched.{}.host_s", k.label()), "s");
        add(
            format!("sched.{}.evals_per_event", k.label()),
            "count/event",
        );
    }
    add("engine.us_per_event.q1".into(), "us");
    add("engine.us_per_event.q4".into(), "us");
    add("engine.cost_growth".into(), "ratio");
    for k in SchedulerKind::ALL {
        add(format!("engine.{}.us_per_event", k.label()), "us");
        add(format!("engine.{}.cost_growth", k.label()), "ratio");
    }
    for name in [
        "engine.chunk.ms_p50",
        "engine.chunk.ms_p90",
        "engine.run_until.ms",
        "engine.snapshot.ms",
        "engine.snapshot_json.ms",
        "engine.from_json.ms",
        "engine.restore.ms",
        "engine.fork.ms_p50",
    ] {
        add(name.into(), "ms");
    }
    add("engine.snapshot.bytes".into(), "bytes");
    add("des.event_queue.share".into(), "ratio");
    add("des.events".into(), "count");
    add("machine.cn_work.share".into(), "ratio");
    add("machine.cn_util".into(), "ratio");
    add("machine.dpn_util".into(), "ratio");
    add("workload.next_batch.calls".into(), "count");
    add("workload.next_batch.ns".into(), "ns");
    add("fault.aborts".into(), "count");
    add("fault.killed".into(), "count");
    add("fault.availability".into(), "ratio");
    add("core.sim_runs".into(), "count");
    add("core.cache_hits".into(), "count");
    add("core.cache_hit_ratio".into(), "ratio");
    add("core.jobs_speedup".into(), "ratio");
    for id in ARTIFACT_IDS {
        add(format!("core.{id}.s"), "s");
    }
    add("sim.commits".into(), "count");
    add("sim.restarts_per_commit".into(), "ratio");
    add("sim.mean_rt_s".into(), "s");
    add("bench.trace_overhead_pct".into(), "%");
    add("bench.error_rate".into(), "ratio");
    m
}

/// One benchmark run: its arguments, the operations it checked and the
/// metrics it measured.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than end-to-end.
    pub trace: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Ctx {
    /// A fresh run context.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Ctx {
        Ctx {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Record one operation; it failed if any check in `failures` did.
    /// Each failure is printed to stderr with the workload and seed.
    pub fn op(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures {
            eprintln!("FAIL workload={} seed={}: {f}", self.workload, self.seed);
        }
    }

    /// Operations that failed a correctness check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Set every metric of `m`.
    pub fn set_all(&mut self, m: BTreeMap<String, f64>) {
        self.metrics.extend(m);
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    ///
    /// # Panics
    /// Panics if an end-to-end metric is missing or any metric was set
    /// that the active catalog does not name.
    pub fn result_json(&mut self) -> String {
        let attempted = self.attempted.max(1);
        let catalog: Vec<(String, &str)> = if self.trace {
            self.set("bench.error_rate", self.failed as f64 / attempted as f64);
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for name in self.metrics.keys() {
            assert!(
                catalog.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut out = String::new();
        for (name, unit) in &catalog {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if self.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
            self.failed == 0,
            attempted,
            self.failed
        )
    }
}

/// Call `pass(i)` for i = 0, 1, …: pass 0 warms caches and the
/// allocator and is not measured. Measured passes i ≥ 1 follow: at least
/// `min` of them, then more while one more is expected to end within
/// `seconds` of the first one's start.
pub fn repeat(seconds: f64, min: usize, mut pass: impl FnMut(usize)) {
    pass(0);
    let start = Instant::now();
    let mut done = 0;
    while done < min.max(1)
        || start.elapsed().as_secs_f64() * (done + 1) as f64 / done as f64 <= seconds
    {
        done += 1;
        pass(done);
    }
}

/// `n` input seeds for one run, derived from the run's seed; distinct
/// run seeds give disjoint sets.
pub fn sub_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| seed.wrapping_mul(n).wrapping_add(i))
        .collect()
}

/// Per-pass samples of named metrics; each metric reports the median.
#[derive(Debug, Default)]
pub struct Series(BTreeMap<String, Vec<f64>>);

impl Series {
    /// Add one pass's value of `name`.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    /// Add one pass's value of every metric in `m`.
    pub fn push_all(&mut self, m: BTreeMap<String, f64>) {
        for (k, v) in m {
            self.push(k, v);
        }
    }

    /// Every metric's median. In a traced run, the `plain_wall` and
    /// `traced_wall` samples become `bench.trace_overhead_pct`.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        let mut m: BTreeMap<String, f64> = self
            .0
            .iter()
            .map(|(k, v)| (k.clone(), measure::median(v)))
            .collect();
        if let (Some(plain), Some(traced)) = (m.remove("plain_wall"), m.remove("traced_wall")) {
            m.insert(
                "bench.trace_overhead_pct".into(),
                (traced / plain - 1.0) * 100.0,
            );
        }
        m
    }
}
