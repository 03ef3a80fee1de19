//! Chrome `trace_event` JSON exporter.
//!
//! Renders a recorded trace in the Trace Event Format understood by
//! `chrome://tracing` and Perfetto (<https://ui.perfetto.dev>): one
//! process (`pid`) per machine node — the control node plus one per DPN —
//! and one thread (`tid`) per transaction. CPU bursts, DPN quanta and
//! step executions become complete (`"X"`) events; lifecycle moments
//! (arrival, grants, denials, commit, abort) become instant (`"i"`)
//! events. Timestamps are microseconds, as the format requires.

use crate::event::EventKind;
use crate::json::{JsonArr, JsonObj};
use crate::sink::TraceData;
use bds_des::time::SimTime;
use bds_wtpg::TxnId;
use std::collections::{BTreeMap, BTreeSet};

/// The control node's pid in the exported trace.
pub const CN_PID: u64 = 1;

/// The pid of DPN `node` in the exported trace.
pub fn dpn_pid(node: u32) -> u64 {
    2 + u64::from(node)
}

fn tid_of(txn: Option<TxnId>) -> u64 {
    // tid 0 is reserved for work not attributable to one transaction.
    txn.map(|t| t.0 + 1).unwrap_or(0)
}

fn us(t: SimTime) -> u64 {
    t.as_millis() * 1000
}

fn complete(name: &str, pid: u64, tid: u64, start: SimTime, end: SimTime, args: &str) -> String {
    let mut o = JsonObj::new();
    o.str("name", name);
    o.str("ph", "X");
    o.int("pid", pid);
    o.int("tid", tid);
    o.int("ts", us(start));
    o.int("dur", us(end) - us(start));
    if !args.is_empty() {
        o.raw("args", args);
    }
    o.finish()
}

fn instant(name: &str, pid: u64, tid: u64, at: SimTime, args: &str) -> String {
    let mut o = JsonObj::new();
    o.str("name", name);
    o.str("ph", "i");
    o.str("s", "t");
    o.int("pid", pid);
    o.int("tid", tid);
    o.int("ts", us(at));
    if !args.is_empty() {
        o.raw("args", args);
    }
    o.finish()
}

fn process_name(pid: u64, name: &str) -> String {
    let mut args = JsonObj::new();
    args.str("name", name);
    let mut o = JsonObj::new();
    o.str("name", "process_name");
    o.str("ph", "M");
    o.int("pid", pid);
    o.int("tid", 0);
    o.raw("args", &args.finish());
    o.finish()
}

fn file_args(file: u32, reason: Option<&str>) -> String {
    let mut a = JsonObj::new();
    a.int("file", u64::from(file));
    if let Some(r) = reason {
        a.str("reason", r);
    }
    a.finish()
}

/// Render the trace as a Chrome `trace_event` JSON document.
pub fn chrome_trace(data: &TraceData) -> String {
    let mut events = JsonArr::new();
    let mut dpn_pids: BTreeSet<u32> = BTreeSet::new();
    // Open step spans: txn → (step, dispatch time).
    let mut open_steps: BTreeMap<TxnId, (u32, SimTime)> = BTreeMap::new();

    for rec in &data.records {
        let at = rec.at;
        match rec.kind {
            EventKind::Arrival { txn } => {
                events.raw(&instant("arrival", CN_PID, tid_of(Some(txn)), at, ""));
            }
            EventKind::Admit { txn } => {
                events.raw(&instant("admit", CN_PID, tid_of(Some(txn)), at, ""));
            }
            EventKind::AdmitRefuse { txn, reason } => {
                let mut a = JsonObj::new();
                a.str("reason", reason);
                events.raw(&instant(
                    "admit_refuse",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &a.finish(),
                ));
            }
            EventKind::LockRequest { txn, file, .. } => {
                events.raw(&instant(
                    "lock_request",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &file_args(file.0, None),
                ));
            }
            EventKind::LockGrant { txn, file, .. } => {
                events.raw(&instant(
                    "lock_grant",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &file_args(file.0, None),
                ));
            }
            EventKind::LockBlock {
                txn, file, reason, ..
            } => {
                events.raw(&instant(
                    "lock_block",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &file_args(file.0, Some(reason)),
                ));
            }
            EventKind::LockDeny {
                txn, file, reason, ..
            } => {
                events.raw(&instant(
                    "lock_deny",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &file_args(file.0, Some(reason)),
                ));
            }
            EventKind::LockRestart {
                txn, file, reason, ..
            } => {
                events.raw(&instant(
                    "lock_restart",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &file_args(file.0, Some(reason)),
                ));
            }
            EventKind::WtpgEdge { from, to } => {
                let mut a = JsonObj::new();
                a.int("from", from.0);
                a.int("to", to.0);
                events.raw(&instant(
                    "wtpg_edge",
                    CN_PID,
                    tid_of(Some(to)),
                    at,
                    &a.finish(),
                ));
            }
            EventKind::StepDispatch { txn, step } => {
                open_steps.insert(txn, (step, at));
            }
            EventKind::StepDone { txn, step } => {
                if let Some((s0, t0)) = open_steps.remove(&txn) {
                    if s0 == step {
                        let mut a = JsonObj::new();
                        a.int("step", u64::from(step));
                        events.raw(&complete(
                            "step",
                            CN_PID,
                            tid_of(Some(txn)),
                            t0,
                            at,
                            &a.finish(),
                        ));
                    }
                }
            }
            EventKind::CohortStart { .. } | EventKind::CohortFinish { .. } => {
                // Covered by the quantum spans on the DPN tracks.
            }
            EventKind::Quantum { txn, node, start } => {
                dpn_pids.insert(node);
                events.raw(&complete(
                    "quantum",
                    dpn_pid(node),
                    tid_of(Some(txn)),
                    start,
                    at,
                    "",
                ));
            }
            EventKind::CnCpu { txn, what, start } => {
                events.raw(&complete(what, CN_PID, tid_of(txn), start, at, ""));
            }
            EventKind::Certify { txn, ok } => {
                let mut a = JsonObj::new();
                a.bool("ok", ok);
                events.raw(&instant(
                    "certify",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &a.finish(),
                ));
            }
            EventKind::Commit { txn } => {
                events.raw(&instant("commit", CN_PID, tid_of(Some(txn)), at, ""));
            }
            EventKind::Abort { txn, .. } => {
                events.raw(&instant("abort", CN_PID, tid_of(Some(txn)), at, ""));
            }
            EventKind::Restart { txn } => {
                events.raw(&instant("restart", CN_PID, tid_of(Some(txn)), at, ""));
            }
            EventKind::FaultInjected { node, what, .. } => {
                let mut a = JsonObj::new();
                a.str("what", what);
                let pid = match node {
                    Some(n) => {
                        dpn_pids.insert(n);
                        dpn_pid(n)
                    }
                    None => CN_PID,
                };
                events.raw(&instant("fault_injected", pid, 0, at, &a.finish()));
            }
            EventKind::TxnKilled { txn, attempts } => {
                let mut a = JsonObj::new();
                a.int("attempts", u64::from(attempts));
                events.raw(&instant(
                    "txn_killed",
                    CN_PID,
                    tid_of(Some(txn)),
                    at,
                    &a.finish(),
                ));
            }
            EventKind::NodeRecovered { node } => {
                dpn_pids.insert(node);
                events.raw(&instant("node_recovered", dpn_pid(node), 0, at, ""));
            }
        }
    }

    events.raw(&process_name(CN_PID, "CN (control node)"));
    for node in dpn_pids {
        events.raw(&process_name(dpn_pid(node), &format!("DPN {node}")));
    }

    let mut doc = JsonObj::new();
    doc.raw("traceEvents", &events.finish());
    doc.str("displayTimeUnit", "ms");
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Rec;
    use crate::sink::RingRecorder;
    use bds_workload::FileId;

    fn rec(ms: u64, kind: EventKind) -> Rec {
        Rec {
            at: SimTime::from_millis(ms),
            kind,
        }
    }

    #[test]
    fn exports_spans_instants_and_metadata() {
        let mut r = RingRecorder::new(16);
        r.record(rec(0, EventKind::Arrival { txn: TxnId(1) }));
        r.record(rec(
            2,
            EventKind::LockGrant {
                txn: TxnId(1),
                step: 0,
                file: FileId(3),
            },
        ));
        r.record(rec(
            2,
            EventKind::StepDispatch {
                txn: TxnId(1),
                step: 0,
            },
        ));
        r.record(rec(
            10,
            EventKind::Quantum {
                txn: TxnId(1),
                node: 4,
                start: SimTime::from_millis(5),
            },
        ));
        r.record(rec(
            12,
            EventKind::StepDone {
                txn: TxnId(1),
                step: 0,
            },
        ));
        r.record(rec(
            14,
            EventKind::CnCpu {
                txn: None,
                what: "cot",
                start: SimTime::from_millis(12),
            },
        ));
        r.record(rec(14, EventKind::Commit { txn: TxnId(1) }));
        let json = chrome_trace(&r.into_data());
        assert!(json.starts_with("{\"traceEvents\":["));
        // Step span: dispatched at 2ms, done at 12ms → ts 2000µs dur 10000µs.
        assert!(json.contains(r#""name":"step","ph":"X","pid":1,"tid":2,"ts":2000,"dur":10000"#));
        // Quantum on DPN 4 → pid 6.
        assert!(json.contains(r#""name":"quantum","ph":"X","pid":6,"tid":2,"ts":5000,"dur":5000"#));
        // Unattributed CN burst lands on tid 0.
        assert!(json.contains(r#""name":"cot","ph":"X","pid":1,"tid":0"#));
        assert!(json.contains(r#""name":"commit","ph":"i""#));
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""name":"DPN 4""#));
        assert!(json.contains(r#""displayTimeUnit":"ms""#));
    }
}
