//! End-to-end simulation benchmarks: one per paper artifact family, at
//! reduced horizons so `cargo bench` completes in minutes. The full
//! regeneration (paper horizons) is the `repro` binary.
//!
//! * `fig8_point/...` — one RT-vs-λ point per scheduler (Fig. 8 family:
//!   also feeds Tables 2/3 and Figs. 9/10/11).
//! * `table4_point/...` — one hot-set point per scheduler (Exp. 2:
//!   Table 4 / Fig. 12).
//! * `fig13_point/...` — one estimation-error point (Exp. 3: Fig. 13 /
//!   Table 5).
//!
//! Plain `Instant`-based harness (no external benchmark framework);
//! whole-simulation cases run a small fixed iteration count and report
//! ms/iter.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::Duration;
use batchsched::engine::Engine;
use batchsched::sched::SchedulerKind;
use std::hint::black_box;
use std::time::Instant;

const BENCH_HORIZON_SECS: u64 = 200;
const ITERS: u32 = 3;

fn bench_sim(name: &str, cfg: &SimConfig) {
    black_box(Engine::run(cfg));
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(Engine::run(cfg));
    }
    let per = start.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    println!("{name:<44} {per:>12.2} ms/iter  ({ITERS} iters)");
}

fn bench_fig8_points() {
    for kind in SchedulerKind::PAPER_SET {
        let mut cfg = SimConfig::new(kind, WorkloadKind::Exp1 { num_files: 16 });
        cfg.lambda_tps = 0.8;
        cfg.horizon = Duration::from_secs(BENCH_HORIZON_SECS);
        bench_sim(&format!("fig8_point/{}", kind.label()), &cfg);
    }
}

fn bench_table4_points() {
    for kind in SchedulerKind::PAPER_SET {
        let mut cfg = SimConfig::new(kind, WorkloadKind::Exp2);
        cfg.lambda_tps = 0.8;
        cfg.dd = 2;
        cfg.horizon = Duration::from_secs(BENCH_HORIZON_SECS);
        bench_sim(&format!("table4_point/{}", kind.label()), &cfg);
    }
}

fn bench_fig13_points() {
    for kind in [SchedulerKind::Gow, SchedulerKind::Low(2)] {
        let mut cfg = SimConfig::new(
            kind,
            WorkloadKind::Exp3 {
                num_files: 16,
                sigma: 1.0,
            },
        );
        cfg.lambda_tps = 0.6;
        cfg.horizon = Duration::from_secs(BENCH_HORIZON_SECS);
        bench_sim(&format!("fig13_point/{}", kind.label()), &cfg);
    }
}

fn bench_overloaded_c2pl() {
    // The stress case: C2PL at mpl = ∞ beyond saturation grows hundreds
    // of live transactions (the paper's chains of blocking).
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.2;
    cfg.horizon = Duration::from_secs(BENCH_HORIZON_SECS);
    bench_sim("overload/c2pl_lambda1.2", &cfg);
}

fn main() {
    bench_fig8_points();
    bench_table4_points();
    bench_fig13_points();
    bench_overloaded_c2pl();
}
