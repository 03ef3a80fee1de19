//! Tracing-path microbenchmarks: what one lifecycle event costs on the
//! disabled path (`Tracer::Off` / `NullSink`) versus the ring recorder,
//! and the end-to-end wall-clock delta of a fully traced simulation.
//!
//! Plain `Instant`-based harness (no external benchmark framework): each
//! case warms up, then runs for a fixed wall-clock budget and reports
//! ns/iter.

use batchsched::config::{SimConfig, WorkloadKind};
use batchsched::des::time::{Duration, SimTime};
use batchsched::engine::Engine;
use batchsched::trace::{EventKind, NullSink, Rec, RingRecorder, TraceSink, Tracer};
use batchsched::wtpg::TxnId;
use bds_sched::SchedulerKind;
use bds_workload::FileId;
use std::hint::black_box;
use std::time::Instant;

fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    for _ in 0..2 {
        black_box(f());
    }
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        black_box(f());
        iters += 1;
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<44} {per:>14.1} ns/iter  ({iters} iters)");
}

fn sample_rec(i: u64) -> Rec {
    Rec {
        at: SimTime::from_millis(i),
        kind: EventKind::LockRequest {
            txn: TxnId(i),
            step: (i % 4) as u32,
            file: FileId((i % 16) as u32),
        },
    }
}

fn bench_emit_paths() {
    bench("tracer_off_emit_1k", || {
        let mut t = Tracer::Off;
        for i in 0..1000u64 {
            black_box(&mut t).emit(|| sample_rec(i));
        }
        t.enabled()
    });
    bench("tracer_ring_emit_1k", || {
        let mut t = Tracer::ring(2048);
        for i in 0..1000u64 {
            t.emit(|| sample_rec(i));
        }
        t.counts().map(|c| c.total()).unwrap_or(0)
    });
    bench("tracer_ring_emit_wrapping_1k", || {
        // Capacity smaller than the event count: every record past the
        // first 256 overwrites the head.
        let mut t = Tracer::ring(256);
        for i in 0..1000u64 {
            t.emit(|| sample_rec(i));
        }
        t.counts().map(|c| c.total()).unwrap_or(0)
    });
    bench("null_sink_record_1k", || {
        let mut s = NullSink;
        for i in 0..1000u64 {
            s.record(black_box(sample_rec(i)));
        }
    });
    bench("ring_recorder_record_1k", || {
        let mut s = RingRecorder::new(2048);
        for i in 0..1000u64 {
            s.record(sample_rec(i));
        }
        s.len()
    });
}

/// End-to-end check: the same short C2PL point untraced vs ring-traced,
/// in events-per-second of recorder throughput.
fn bench_traced_sim() {
    let mut cfg = SimConfig::new(SchedulerKind::C2pl, WorkloadKind::Exp1 { num_files: 16 });
    cfg.lambda_tps = 1.1;
    cfg.horizon = Duration::from_secs(100);
    let t0 = Instant::now();
    let plain = Engine::run(&cfg);
    let off = t0.elapsed();
    let t1 = Instant::now();
    let (traced, data) = Engine::run_traced(&cfg, 1 << 22);
    let on = t1.elapsed();
    assert_eq!(plain, traced, "tracing perturbed the simulation");
    let events = data.counts.total();
    let rate = events as f64 / on.as_secs_f64();
    println!(
        "sim_c2pl_100s_untraced                       {:>14.1} ms",
        off.as_secs_f64() * 1e3
    );
    println!(
        "sim_c2pl_100s_ring_traced                    {:>14.1} ms  ({events} events, {:.1} Mevents/s)",
        on.as_secs_f64() * 1e3,
        rate / 1e6
    );
}

fn main() {
    bench_emit_paths();
    bench_traced_sim();
}
