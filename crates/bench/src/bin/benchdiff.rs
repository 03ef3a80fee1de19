//! `benchdiff` — the bench regression gate.
//!
//! ```text
//! benchdiff BASELINE.json CURRENT.json
//! ```
//!
//! Compares a bench document (a `BENCH_*.json` written by `repro`, or
//! the result line of `perfbench`) against a committed baseline and exits
//! non-zero unless every baseline value is reproduced exactly: numbers,
//! strings and bools must match, and no baseline metric may be missing.
//! The simulator is deterministic, so any drift is a behavioral change,
//! not noise. Metrics only in the current document are listed and
//! ignored, which lets a baseline pin the deterministic counts of a
//! document that also carries host timings.
//!
//! Exit codes: `0` no regression · `1` regression · `2` usage or I/O
//! error.

use bds_metrics::compare;
use bds_metrics::jsonv::{self, JsonValue};

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: benchdiff BASELINE.json CURRENT.json");
    std::process::exit(2);
}

fn load(path: &str) -> JsonValue {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read '{path}': {e}");
            std::process::exit(2);
        }
    };
    match jsonv::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: '{path}' is not valid JSON: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        usage_exit(&format!("unknown flag '{flag}'"));
    }
    let [base_path, cur_path] = args.as_slice() else {
        usage_exit("expected exactly two files: BASELINE.json CURRENT.json");
    };
    let base = load(base_path);
    let cur = load(cur_path);
    let report = compare(&base, &cur);
    print!("{}", report.render());
    if report.regressed() {
        eprintln!("benchdiff: '{cur_path}' regresses against '{base_path}'");
        std::process::exit(1);
    }
}
