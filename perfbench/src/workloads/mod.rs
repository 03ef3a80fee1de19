//! The benchmark's workloads.

pub mod engine_runs;
pub mod figures;
pub mod session;

use crate::Ctx;

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 4] = ["contention", "scan", "figures", "session"];

/// Run the workload named in `ctx`, recording its checks and metrics.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    match ctx.workload.as_str() {
        "contention" => engine_runs::run(ctx, &engine_runs::CONTENTION),
        "scan" => engine_runs::run(ctx, &engine_runs::SCAN),
        "figures" => figures::run(ctx),
        "session" => session::run(ctx),
        other => return Err(format!("unknown workload '{other}' (valid: {NAMES:?})")),
    }
    Ok(())
}
