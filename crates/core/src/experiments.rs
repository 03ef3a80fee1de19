//! One entry point per table/figure of the paper's evaluation (§5).
//!
//! Every function regenerates the corresponding artifact as a
//! [`Table`]; the `repro` binary in `bds-bench` prints them. Paper
//! reference values are recorded in `EXPERIMENTS.md` at the repo root.
//!
//! | Function | Paper artifact | What it reports |
//! |----------|----------------|-----------------|
//! | [`fig8`] | Fig. 8 | RT vs λ (Exp. 1, DD=1, 16 files) |
//! | [`table2`] | Table 2 | TPS at RT=70 s vs NumFiles (DD=1) |
//! | [`fig9`] | Fig. 9 | TPS at RT=70 s vs DD (16 files) |
//! | [`table3`] | Table 3 | RT(s) at λ=1.2 vs DD (incl. C2PL+M) |
//! | [`fig10`] | Fig. 10 | RT speedup at λ=1.2 vs DD |
//! | [`fig11`] | Fig. 11 | RT speedup vs λ (DD=4) |
//! | [`table4`] | Table 4 | Exp. 2: TPS at RT=70 s and RT at λ=1.2 |
//! | [`fig12`] | Fig. 12 | Exp. 2: RT speedup at λ=1.2 vs DD |
//! | [`fig13`] | Fig. 13 | Exp. 3: TPS at RT=70 s vs error σ |
//! | [`table5`] | Table 5 | Exp. 3: degradation TPS(σ=10)/TPS(σ=0) |
//!
//! Each artifact is a grid of *independent* simulation cells, so every
//! function fans its cells across the [`ExecCtx`]'s worker threads and
//! assembles rows from the order-preserved results. Determinism: each
//! cell's RNG streams derive solely from `SimConfig::seed`, so the
//! rendered tables are byte-identical at any job count.

use crate::config::{SimConfig, WorkloadKind};
use crate::driver;
use crate::parallel::ExecCtx;
use crate::report::{f1, f2, Table};
use bds_des::time::Duration;
use bds_sched::SchedulerKind;

/// Knobs controlling experiment fidelity (full paper runs vs quick CI
/// runs).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpOptions {
    /// Horizon per simulation point (paper: 2,000,000 ms).
    pub horizon: Duration,
    /// Bisection iterations for the RT = 70 s search.
    pub bisect_iters: u32,
    /// Master seed.
    pub seed: u64,
    /// mpl grid swept for C2PL+M.
    pub mpl_grid: Vec<u32>,
    /// Worker threads used to fan out independent simulation cells
    /// (results are byte-identical at any value; 1 = serial).
    pub jobs: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            horizon: Duration::from_millis(2_000_000),
            bisect_iters: 6,
            seed: 0x5EED_BA7C,
            mpl_grid: vec![4, 8, 16, 32],
            jobs: default_jobs(),
        }
    }
}

/// Number of worker threads to use when the caller doesn't specify:
/// the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

impl ExpOptions {
    /// Reduced-fidelity options for tests and smoke runs.
    pub fn quick() -> Self {
        ExpOptions {
            horizon: Duration::from_secs(400),
            bisect_iters: 3,
            seed: 0x5EED_BA7C,
            mpl_grid: vec![8, 32],
            jobs: default_jobs(),
        }
    }

    /// Builder-style worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    fn base(&self, kind: SchedulerKind, workload: WorkloadKind) -> SimConfig {
        let mut c = SimConfig::new(kind, workload);
        c.horizon = self.horizon;
        c.seed = self.seed;
        c
    }
}

/// The scan-heavy 100-DPN point behind perfbench's `scan` workload:
/// one long exclusive scan of 400 objects declustered over two nodes,
/// λ at ≈ 72 % of the machine's capacity (0.25 TPS). Long scans make DPN
/// slice rotations dominate the event mix (≈ 800 rotations per
/// transaction against a handful of CN events), so the run stresses the
/// event queue and the DPN model rather than the scheduler. `horizon`
/// sets the run length: ~0.18 transactions arrive per second of
/// simulated time.
pub fn scan_heavy_point(horizon: Duration) -> SimConfig {
    use bds_workload::pattern::{Pattern, StepTemplate};
    use bds_workload::spec::{Access, LockMode};
    let pattern = Pattern::new(
        1,
        vec![StepTemplate {
            slot: 0,
            mode: LockMode::Exclusive,
            access: Access::Read,
            cost: 400.0,
        }],
    );
    let mut c = SimConfig::new(
        SchedulerKind::C2pl,
        WorkloadKind::Custom {
            pattern,
            num_files: 2_000,
        },
    );
    c.costs.num_nodes = 100;
    c.dd = 2;
    c.lambda_tps = 0.18;
    c.horizon = horizon;
    c
}

/// The λ range probed by the RT-target bisection (the machine saturates
/// near 1.11 TPS for Pattern 1).
const BISECT_LO: f64 = 0.05;
const BISECT_HI: f64 = 1.4;

/// Target mean response time for the throughput tables (seconds).
const RT_TARGET: f64 = 70.0;

/// Throughput at the RT target for one cell (shared bisection wrapper).
fn tput_cell(ctx: &ExecCtx, opts: &ExpOptions, cfg: &SimConfig) -> f64 {
    driver::throughput_at_rt(ctx, cfg, RT_TARGET, BISECT_LO, BISECT_HI, opts.bisect_iters)
        .throughput_tps()
}

/// Fig. 8 — Exp. 1: mean response time (s) as a function of arrival
/// rate; DD = 1, NumFiles = 16, all six schedulers.
pub fn fig8(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let lambdas = [0.2, 0.4, 0.6, 0.8, 1.0, 1.1, 1.2, 1.4];
    let mut header = vec!["lambda(TPS)".to_string()];
    header.extend(SchedulerKind::PAPER_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Fig.8: Exp.1 Arrival Rate vs Response Time (s), DD=1, NumFiles=16".into(),
        header,
        rows: Vec::new(),
    };
    let cells: Vec<SimConfig> = lambdas
        .iter()
        .flat_map(|&l| {
            SchedulerKind::PAPER_SET.iter().map(move |&kind| {
                opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
                    .with_lambda(l)
            })
        })
        .collect();
    let reports = ctx.map(&cells, |_, cfg| ctx.run_point(cfg));
    for (i, &l) in lambdas.iter().enumerate() {
        let mut row = vec![f2(l)];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            row.push(f1(
                reports[i * SchedulerKind::PAPER_SET.len() + j].mean_rt_secs()
            ));
        }
        t.rows.push(row);
    }
    t
}

/// Table 2 — Exp. 1: throughput (TPS) at RT = 70 s, DD = 1,
/// NumFiles ∈ {8, 16, 32, 64}.
pub fn table2(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let files = [8u32, 16, 32, 64];
    let mut header = vec!["#files".to_string()];
    header.extend(SchedulerKind::PAPER_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Table 2: Exp.1 NumFiles vs Throughput (TPS) at RT=70s, DD=1".into(),
        header,
        rows: Vec::new(),
    };
    let cells: Vec<SimConfig> = files
        .iter()
        .flat_map(|&nf| {
            SchedulerKind::PAPER_SET
                .iter()
                .map(move |&kind| opts.base(kind, WorkloadKind::Exp1 { num_files: nf }))
        })
        .collect();
    let tputs = ctx.map(&cells, |_, cfg| tput_cell(ctx, opts, cfg));
    for (i, nf) in files.iter().enumerate() {
        let mut row = vec![nf.to_string()];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            row.push(f2(tputs[i * SchedulerKind::PAPER_SET.len() + j]));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 9 — Exp. 1: throughput (TPS) at RT = 70 s as DD grows,
/// NumFiles = 16.
pub fn fig9(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let dds = [1u32, 2, 4, 8];
    let mut header = vec!["DD".to_string()];
    header.extend(SchedulerKind::PAPER_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Fig.9: Exp.1 Declustering vs Throughput (TPS) at RT=70s, NumFiles=16".into(),
        header,
        rows: Vec::new(),
    };
    let cells: Vec<SimConfig> = dds
        .iter()
        .flat_map(|&dd| {
            SchedulerKind::PAPER_SET.iter().map(move |&kind| {
                opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
                    .with_dd(dd)
            })
        })
        .collect();
    let tputs = ctx.map(&cells, |_, cfg| tput_cell(ctx, opts, cfg));
    for (i, dd) in dds.iter().enumerate() {
        let mut row = vec![dd.to_string()];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            row.push(f2(tputs[i * SchedulerKind::PAPER_SET.len() + j]));
        }
        t.rows.push(row);
    }
    t
}

/// Shared computation for Table 3 / Fig. 10: mean RT at λ = 1.2 TPS for
/// DD ∈ {1, 2, 4, 8}, including C2PL+M (best mpl). Returns
/// `(labels, rt[dd_index][scheduler_index])`.
///
/// The whole point grid — six schedulers plus every C2PL+M mpl
/// candidate, at each DD — is prewarmed in one parallel fan-out; the
/// `best_mpl` searches then assemble from cache hits.
fn exp1_rt_at_heavy_load(opts: &ExpOptions, ctx: &ExecCtx) -> (Vec<String>, Vec<Vec<f64>>) {
    let schedulers = [
        SchedulerKind::Nodc,
        SchedulerKind::Asl,
        SchedulerKind::Gow,
        SchedulerKind::Low(2),
        SchedulerKind::C2pl,
        SchedulerKind::Opt,
    ];
    let dds = [1u32, 2, 4, 8];
    let mut labels: Vec<String> = schedulers.iter().map(|k| k.label()).collect();
    labels.push("C2PL+M".into());
    let heavy = |kind: SchedulerKind, dd: u32| {
        opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
            .with_lambda(1.2)
            .with_dd(dd)
    };
    let mut cells: Vec<SimConfig> = Vec::new();
    for &dd in &dds {
        for &kind in &schedulers {
            cells.push(heavy(kind, dd));
        }
        for &m in &opts.mpl_grid {
            cells.push(heavy(SchedulerKind::C2pl, dd).with_mpl(m));
        }
    }
    ctx.map(&cells, |_, cfg| ctx.run_point(cfg));
    let mut grid = Vec::new();
    for &dd in &dds {
        let mut row: Vec<f64> = schedulers
            .iter()
            .map(|&kind| ctx.run_point(&heavy(kind, dd)).mean_rt_secs())
            .collect();
        // C2PL+M: best mpl at this DD (cache hits). A fully saturated
        // grid has no meaningful RT — report ∞, not the empty report's 0.
        let choice = driver::best_mpl(ctx, &heavy(SchedulerKind::C2pl, dd), &opts.mpl_grid);
        row.push(if choice.all_saturated {
            f64::INFINITY
        } else {
            choice.report.mean_rt_secs()
        });
        grid.push(row);
    }
    (labels, grid)
}

/// Table 3 — Exp. 1: response time (s) at λ = 1.2 TPS vs DD,
/// NumFiles = 16 (C2PL reported through its best-mpl variant C2PL+M,
/// as in the paper).
pub fn table3(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let (labels, grid) = exp1_rt_at_heavy_load(opts, ctx);
    let mut header = vec!["DD".to_string()];
    header.extend(labels);
    let mut t = Table {
        title: "Table 3: Exp.1 Declustering vs Resp.Time (s), NumFiles=16, λ=1.2 TPS".into(),
        header,
        rows: Vec::new(),
    };
    for (i, dd) in [1u32, 2, 4, 8].iter().enumerate() {
        let mut row = vec![dd.to_string()];
        row.extend(grid[i].iter().map(|&rt| f1(rt)));
        t.rows.push(row);
    }
    t
}

/// Fig. 10 — Exp. 1: response-time speedup at λ = 1.2 TPS,
/// `RT(DD=1)/RT(DD=k)`, NumFiles = 16.
pub fn fig10(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let (labels, grid) = exp1_rt_at_heavy_load(opts, ctx);
    let mut header = vec!["DD".to_string()];
    header.extend(labels);
    let mut t = Table {
        title: "Fig.10: Exp.1 Declustering vs Resp.Time Speedup, NumFiles=16, λ=1.2 TPS".into(),
        header,
        rows: Vec::new(),
    };
    for (i, dd) in [1u32, 2, 4, 8].iter().enumerate() {
        let mut row = vec![dd.to_string()];
        for (j, &rt) in grid[i].iter().enumerate() {
            let speedup = if rt > 0.0 { grid[0][j] / rt } else { f64::NAN };
            row.push(f2(speedup));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 11 — Exp. 1: response-time speedup (`RT at DD=1 / RT at DD=4`)
/// as a function of arrival rate; NumFiles = 16.
pub fn fig11(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let lambdas = [0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
    let mut header = vec!["lambda(TPS)".to_string()];
    header.extend(SchedulerKind::PAPER_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Fig.11: Exp.1 Arrival Rate vs Resp.Time Speedup (DD=4), NumFiles=16".into(),
        header,
        rows: Vec::new(),
    };
    let cells: Vec<SimConfig> = lambdas
        .iter()
        .flat_map(|&l| {
            SchedulerKind::PAPER_SET.iter().map(move |&kind| {
                opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
                    .with_lambda(l)
            })
        })
        .collect();
    let speedups = ctx.map(&cells, |_, cfg| driver::rt_speedup(ctx, cfg, 4));
    for (i, &l) in lambdas.iter().enumerate() {
        let mut row = vec![f2(l)];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            row.push(f2(speedups[i * SchedulerKind::PAPER_SET.len() + j]));
        }
        t.rows.push(row);
    }
    t
}

/// Table 4 — Exp. 2 (hot-set update): throughput (TPS) at RT = 70 s and
/// response time (s) at λ = 1.2 TPS, for DD ∈ {1, 2, 4}.
pub fn table4(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let dds = [1u32, 2, 4];
    let mut header = vec!["metric".to_string(), "DD".to_string()];
    header.extend(SchedulerKind::PAPER_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Table 4: Exp.2 Throughput (TPS at RT=70s) and Resp.Time (s at λ=1.2)".into(),
        header,
        rows: Vec::new(),
    };
    let tput_cells: Vec<SimConfig> = dds
        .iter()
        .flat_map(|&dd| {
            SchedulerKind::PAPER_SET
                .iter()
                .map(move |&kind| opts.base(kind, WorkloadKind::Exp2).with_dd(dd))
        })
        .collect();
    let rt_cells: Vec<SimConfig> = tput_cells
        .iter()
        .map(|cfg| cfg.clone().with_lambda(1.2))
        .collect();
    let tputs = ctx.map(&tput_cells, |_, cfg| tput_cell(ctx, opts, cfg));
    let rts = ctx.map(&rt_cells, |_, cfg| ctx.run_point(cfg).mean_rt_secs());
    for (i, dd) in dds.iter().enumerate() {
        let mut row = vec!["Thruput".to_string(), dd.to_string()];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            row.push(f2(tputs[i * SchedulerKind::PAPER_SET.len() + j]));
        }
        t.rows.push(row);
    }
    for (i, dd) in dds.iter().enumerate() {
        let mut row = vec!["RespTime".to_string(), dd.to_string()];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            row.push(f1(rts[i * SchedulerKind::PAPER_SET.len() + j]));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 12 — Exp. 2: response-time speedup at λ = 1.2 TPS vs DD.
pub fn fig12(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let dds = [1u32, 2, 4, 8];
    let mut header = vec!["DD".to_string()];
    header.extend(SchedulerKind::PAPER_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Fig.12: Exp.2 Declustering vs Resp.Time Speedup, λ=1.2 TPS".into(),
        header,
        rows: Vec::new(),
    };
    let cells: Vec<SimConfig> = dds
        .iter()
        .flat_map(|&dd| {
            SchedulerKind::PAPER_SET.iter().map(move |&kind| {
                opts.base(kind, WorkloadKind::Exp2)
                    .with_lambda(1.2)
                    .with_dd(dd)
            })
        })
        .collect();
    let rts = ctx.map(&cells, |_, cfg| ctx.run_point(cfg).mean_rt_secs());
    // RT at DD=1 per scheduler (speedup baseline) is the first row of
    // the same grid.
    for (i, dd) in dds.iter().enumerate() {
        let mut row = vec![dd.to_string()];
        for j in 0..SchedulerKind::PAPER_SET.len() {
            let rt = rts[i * SchedulerKind::PAPER_SET.len() + j];
            let base = rts[j];
            row.push(f2(if rt > 0.0 { base / rt } else { f64::NAN }));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 13 — Exp. 3 (declaration-error sensitivity): throughput (TPS)
/// at RT = 70 s as a function of the error σ, for GOW and LOW at
/// DD ∈ {1, 2, 4} (C2PL shown as the lower-bound reference).
pub fn fig13(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let sigmas = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0];
    let dds = [1u32, 2, 4];
    let mut t = Table {
        title: "Fig.13: Exp.3 Error Ratio σ vs Throughput (TPS at RT=70s), NumFiles=16".into(),
        header: vec![
            "sigma".into(),
            "GOW DD=1".into(),
            "GOW DD=2".into(),
            "GOW DD=4".into(),
            "LOW DD=1".into(),
            "LOW DD=2".into(),
            "LOW DD=4".into(),
            "C2PL DD=1".into(),
            "C2PL DD=4".into(),
        ],
        rows: Vec::new(),
    };
    let noisy = |kind: SchedulerKind, dd: u32, sigma: f64| -> SimConfig {
        let workload = if sigma == 0.0 {
            WorkloadKind::Exp1 { num_files: 16 }
        } else {
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma,
            }
        };
        opts.base(kind, workload).with_dd(dd)
    };
    // One bisection cell per table cell; the σ-independent C2PL
    // references appear once per row but collapse in the point cache.
    let mut cells: Vec<SimConfig> = Vec::new();
    for &sigma in &sigmas {
        for &dd in &dds {
            cells.push(noisy(SchedulerKind::Gow, dd, sigma));
        }
        for &dd in &dds {
            cells.push(noisy(SchedulerKind::Low(2), dd, sigma));
        }
        cells.push(noisy(SchedulerKind::C2pl, 1, 0.0));
        cells.push(noisy(SchedulerKind::C2pl, 4, 0.0));
    }
    let tputs = ctx.map(&cells, |_, cfg| tput_cell(ctx, opts, cfg));
    let per_row = 2 * dds.len() + 2;
    for (i, &sigma) in sigmas.iter().enumerate() {
        let mut row = vec![f2(sigma)];
        row.extend(tputs[i * per_row..(i + 1) * per_row].iter().map(|&x| f2(x)));
        t.rows.push(row);
    }
    t
}

/// Table 5 — Exp. 3: degradation ratio `TPS(σ=10) / TPS(σ=0)` for GOW
/// and LOW at DD ∈ {1, 2, 4}.
pub fn table5(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let kinds = [SchedulerKind::Gow, SchedulerKind::Low(2)];
    let dds = [1u32, 2, 4];
    let mut t = Table {
        title: "Table 5: Exp.3 Sensitivity — Degradation Ratio TPS(σ=10)/TPS(σ=0)".into(),
        header: vec![
            "scheduler".into(),
            "DD=1".into(),
            "DD=2".into(),
            "DD=4".into(),
        ],
        rows: Vec::new(),
    };
    // Cells: (kind × dd) × {clean σ=0, noisy σ=10}, flattened.
    let mut cells: Vec<SimConfig> = Vec::new();
    for &kind in &kinds {
        for &dd in &dds {
            cells.push(
                opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
                    .with_dd(dd),
            );
            cells.push(
                opts.base(
                    kind,
                    WorkloadKind::Exp3 {
                        num_files: 16,
                        sigma: 10.0,
                    },
                )
                .with_dd(dd),
            );
        }
    }
    let tputs = ctx.map(&cells, |_, cfg| tput_cell(ctx, opts, cfg));
    for (ki, kind) in kinds.iter().enumerate() {
        let mut row = vec![kind.label()];
        for di in 0..dds.len() {
            let base = (ki * dds.len() + di) * 2;
            let (clean, noisy) = (tputs[base], tputs[base + 1]);
            let ratio = if clean > 0.0 { noisy / clean } else { f64::NAN };
            row.push(format!("{:.0}%", ratio * 100.0));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 8 extended — the Fig. 8 arrival-rate sweep rerun over
/// [`SchedulerKind::EXTENDED_SET`], adding the batch/epoch family
/// (DGCC, BROOK) next to the paper's six. Legacy columns reuse the
/// same point cache as `fig8`, so running both costs only the two
/// new schedulers' cells.
pub fn fig8x(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let lambdas = [0.2, 0.4, 0.6, 0.8, 1.0, 1.1, 1.2, 1.4];
    let mut header = vec!["lambda(TPS)".to_string()];
    header.extend(SchedulerKind::EXTENDED_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Fig.8x: Exp.1 Arrival Rate vs Response Time (s), DD=1, NumFiles=16, +DGCC/BROOK"
            .into(),
        header,
        rows: Vec::new(),
    };
    let cells: Vec<SimConfig> = lambdas
        .iter()
        .flat_map(|&l| {
            SchedulerKind::EXTENDED_SET.iter().map(move |&kind| {
                opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
                    .with_lambda(l)
            })
        })
        .collect();
    let reports = ctx.map(&cells, |_, cfg| ctx.run_point(cfg));
    for (i, &l) in lambdas.iter().enumerate() {
        let mut row = vec![f2(l)];
        for j in 0..SchedulerKind::EXTENDED_SET.len() {
            row.push(f1(
                reports[i * SchedulerKind::EXTENDED_SET.len() + j].mean_rt_secs()
            ));
        }
        t.rows.push(row);
    }
    t
}

/// Fig. 10 extended — declustering speedup `RT(DD=1)/RT(DD=k)` at
/// λ = 1.2 TPS over [`SchedulerKind::EXTENDED_SET`]. Unlike `fig10`
/// this skips the C2PL+M best-mpl column: the point is the
/// batch/epoch family's parallelism response, not mpl tuning.
pub fn fig10x(opts: &ExpOptions, ctx: &ExecCtx) -> Table {
    let dds = [1u32, 2, 4, 8];
    let mut header = vec!["DD".to_string()];
    header.extend(SchedulerKind::EXTENDED_SET.iter().map(|k| k.label()));
    let mut t = Table {
        title: "Fig.10x: Exp.1 Declustering vs Resp.Time Speedup, λ=1.2 TPS, +DGCC/BROOK".into(),
        header,
        rows: Vec::new(),
    };
    let heavy = |kind: SchedulerKind, dd: u32| {
        opts.base(kind, WorkloadKind::Exp1 { num_files: 16 })
            .with_lambda(1.2)
            .with_dd(dd)
    };
    let mut cells: Vec<SimConfig> = Vec::new();
    for &dd in &dds {
        for &kind in &SchedulerKind::EXTENDED_SET {
            cells.push(heavy(kind, dd));
        }
    }
    let rts = ctx.map(&cells, |_, cfg| ctx.run_point(cfg).mean_rt_secs());
    let w = SchedulerKind::EXTENDED_SET.len();
    for (i, dd) in dds.iter().enumerate() {
        let mut row = vec![dd.to_string()];
        for j in 0..w {
            let rt = rts[i * w + j];
            let speedup = if rt > 0.0 { rts[j] / rt } else { f64::NAN };
            row.push(f2(speedup));
        }
        t.rows.push(row);
    }
    t
}

/// A rendered artifact with its identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Paper artifact id ("fig8", "table2", …).
    pub id: &'static str,
    /// The regenerated table.
    pub table: Table,
}

/// All artifact ids: the paper's ten in paper order, then the
/// extended-set companions (`fig8x`, `fig10x`) that add the
/// batch/epoch schedulers. The first ten stay index-stable so the
/// golden-hash tables keyed by position keep working unchanged.
pub const ARTIFACT_IDS: [&str; 12] = [
    "fig8", "table2", "fig9", "table3", "fig10", "fig11", "table4", "fig12", "fig13", "table5",
    "fig8x", "fig10x",
];

/// Regenerate one artifact by id with a caller-provided execution
/// context. Passing the same context across artifacts lets later ones
/// reuse every simulation point earlier ones already ran (Table 3 and
/// Fig. 10 share their entire grid, for example).
///
/// # Panics
/// Panics on an unknown id.
pub fn run_artifact_with(id: &str, opts: &ExpOptions, ctx: &ExecCtx) -> Artifact {
    let table = match id {
        "fig8" => fig8(opts, ctx),
        "table2" => table2(opts, ctx),
        "fig9" => fig9(opts, ctx),
        "table3" => table3(opts, ctx),
        "fig10" => fig10(opts, ctx),
        "fig11" => fig11(opts, ctx),
        "table4" => table4(opts, ctx),
        "fig12" => fig12(opts, ctx),
        "fig13" => fig13(opts, ctx),
        "table5" => table5(opts, ctx),
        "fig8x" => fig8x(opts, ctx),
        "fig10x" => fig10x(opts, ctx),
        other => panic!("unknown artifact id '{other}' (valid: {ARTIFACT_IDS:?})"),
    };
    Artifact {
        id: ARTIFACT_IDS
            .iter()
            .find(|&&a| a == id)
            .expect("validated above"),
        table,
    }
}

/// Regenerate one artifact by id on a fresh context with `opts.jobs`
/// workers.
///
/// # Panics
/// Panics on an unknown id.
pub fn run_artifact(id: &str, opts: &ExpOptions) -> Artifact {
    run_artifact_with(id, opts, &ExecCtx::new(opts.jobs))
}

/// Regenerate every artifact, sharing one point cache across all of
/// them.
pub fn run_all(opts: &ExpOptions) -> Vec<Artifact> {
    let ctx = ExecCtx::new(opts.jobs);
    ARTIFACT_IDS
        .iter()
        .map(|id| run_artifact_with(id, opts, &ctx))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-horizon smoke test of one artifact end to end.
    #[test]
    fn fig8_smoke() {
        let mut opts = ExpOptions::quick();
        opts.horizon = Duration::from_secs(120);
        let t = fig8(&opts, &ExecCtx::new(opts.jobs));
        assert_eq!(t.rows.len(), 8);
        assert_eq!(t.header.len(), 7);
    }

    /// The extended artifacts carry all eight schedulers and share
    /// lambda/DD structure with their paper counterparts.
    #[test]
    fn extended_artifacts_smoke() {
        let mut opts = ExpOptions::quick();
        opts.horizon = Duration::from_secs(120);
        let ctx = ExecCtx::new(opts.jobs);
        let t8 = fig8x(&opts, &ctx);
        assert_eq!(t8.rows.len(), 8);
        assert_eq!(t8.header.len(), 1 + SchedulerKind::EXTENDED_SET.len());
        assert!(t8.header.iter().any(|h| h == "DGCC"));
        assert!(t8.header.iter().any(|h| h == "BROOK"));
        let t10 = fig10x(&opts, &ctx);
        assert_eq!(t10.rows.len(), 4);
        assert_eq!(t10.header.len(), 1 + SchedulerKind::EXTENDED_SET.len());
        // DD=1 row is the speedup baseline: every column is exactly 1.
        for cell in &t10.rows[0][1..] {
            assert_eq!(cell, "1.00");
        }
    }

    #[test]
    #[should_panic(expected = "unknown artifact")]
    fn unknown_artifact_panics() {
        run_artifact("fig99", &ExpOptions::quick());
    }
}
