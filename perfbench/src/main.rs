//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <contention|scan|figures|session> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one JSON object as the last line of standard output and exits
//! 0 when every correctness check passed, 1 when one failed (each failure
//! is printed to standard error), and 2 on a usage error.

use std::process::ExitCode;

use bds_perfbench::{workloads, Ctx};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(&args.workload, args.seed, args.seconds, args.trace);
    if let Err(e) = workloads::run(&mut ctx) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    println!("{}", ctx.result_json());
    if ctx.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
