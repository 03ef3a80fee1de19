//! Derived trace analyzers.
//!
//! Folds a recorded trace into (1) per-transaction span summaries with a
//! queue/wait/exec/lost breakdown, (2) per-file lock-contention tallies,
//! and (3) a wait-for critical-path report over the observed precedence
//! edges — the quantities the paper uses to *explain* its results
//! (e.g. Fig. 11's lock-wait argument) rather than just report them.

use crate::event::EventKind;
use crate::json::{JsonArr, JsonObj};
use crate::sink::{Counts, TraceData};
use bds_des::time::{Duration, SimTime};
use bds_workload::FileId;
use bds_wtpg::TxnId;
use std::collections::BTreeMap;

/// Lifecycle breakdown for one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSpan {
    /// The transaction.
    pub txn: TxnId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// First admission instant, if it ever started.
    pub first_admit: Option<SimTime>,
    /// Commit instant, if it committed within the trace.
    pub commit: Option<SimTime>,
    /// Aborted attempts observed.
    pub aborts: u32,
    /// Start-queue time: arrival → first admission.
    pub queue: Duration,
    /// Lock-wait time in the committing attempt (first request → grant).
    pub wait: Duration,
    /// Step-execution time in the committing attempt (dispatch → done).
    pub exec: Duration,
    /// Wait + exec time thrown away by aborted attempts.
    pub lost: Duration,
}

impl TxnSpan {
    /// Response time (arrival → commit), when the transaction committed.
    pub fn response(&self) -> Option<Duration> {
        self.commit.map(|c| c.since(self.arrival))
    }
}

/// Lock-contention tally for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileStats {
    /// The file.
    pub file: FileId,
    /// Lock requests naming this file (including retries).
    pub requests: u64,
    /// Grants.
    pub grants: u64,
    /// Requests blocked on a held lock.
    pub blocks: u64,
    /// Requests delayed by scheduler policy.
    pub denies: u64,
    /// Total time transactions waited between first request and grant of
    /// this file's lock.
    pub wait: Duration,
}

/// The heaviest chain through the observed precedence edges, weighted by
/// each transaction's lock-wait time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Transactions along the chain, in precedence order.
    pub path: Vec<TxnId>,
    /// Summed lock-wait time along the chain.
    pub total_wait: Duration,
}

/// Run-wide averages over committed transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Committed transactions in the trace.
    pub committed: u64,
    /// Aborted attempts in the trace.
    pub aborted_attempts: u64,
    /// Mean start-queue time (seconds, per committed transaction).
    pub mean_queue_secs: f64,
    /// Mean lock-wait time (seconds).
    pub mean_wait_secs: f64,
    /// Mean step-execution time (seconds).
    pub mean_exec_secs: f64,
    /// Mean time lost to aborted attempts (seconds).
    pub mean_lost_secs: f64,
    /// Mean response time (seconds).
    pub mean_response_secs: f64,
}

/// Per-transaction accumulator used while folding the trace.
#[derive(Debug, Clone, Copy)]
struct Acc {
    arrival: SimTime,
    first_admit: Option<SimTime>,
    commit: Option<SimTime>,
    aborts: u32,
    wait: Duration,
    exec: Duration,
    lost: Duration,
    att_wait: Duration,
    att_exec: Duration,
    wait_since: Option<(SimTime, FileId)>,
    exec_since: Option<SimTime>,
}

impl Acc {
    fn new(arrival: SimTime) -> Self {
        Acc {
            arrival,
            first_admit: None,
            commit: None,
            aborts: 0,
            wait: Duration::ZERO,
            exec: Duration::ZERO,
            lost: Duration::ZERO,
            att_wait: Duration::ZERO,
            att_exec: Duration::ZERO,
            wait_since: None,
            exec_since: None,
        }
    }
}

/// The folded analysis of one trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-transaction spans, in transaction-id order.
    pub spans: Vec<TxnSpan>,
    /// Per-file contention tallies, in file-id order.
    pub files: Vec<FileStats>,
    /// Denial/refusal reasons with occurrence counts, most frequent first.
    pub deny_reasons: Vec<(&'static str, u64)>,
    /// Distinct precedence edges observed, in insertion order.
    pub edges: Vec<(TxnId, TxnId)>,
    /// Exact event counters copied from the trace.
    pub counts: Counts,
    /// Records lost to ring overwrites (analysis is partial when > 0).
    pub dropped: u64,
}

impl Analysis {
    /// Fold a recorded trace.
    pub fn from_data(data: &TraceData) -> Self {
        let mut accs: BTreeMap<TxnId, Acc> = BTreeMap::new();
        let mut files: BTreeMap<FileId, FileStats> = BTreeMap::new();
        let mut reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut edges: Vec<(TxnId, TxnId)> = Vec::new();
        let mut edge_seen: BTreeMap<(TxnId, TxnId), ()> = BTreeMap::new();

        // A record for a transaction whose arrival was overwritten by ring
        // wraparound starts an accumulator at first sighting.
        fn acc_of(accs: &mut BTreeMap<TxnId, Acc>, txn: TxnId, at: SimTime) -> &mut Acc {
            accs.entry(txn).or_insert_with(|| Acc::new(at))
        }
        fn file_of(files: &mut BTreeMap<FileId, FileStats>, file: FileId) -> &mut FileStats {
            files.entry(file).or_insert_with(|| FileStats {
                file,
                ..FileStats::default()
            })
        }

        for rec in &data.records {
            let at = rec.at;
            match rec.kind {
                EventKind::Arrival { txn } => {
                    accs.entry(txn).or_insert_with(|| Acc::new(at));
                }
                EventKind::Admit { txn } => {
                    let a = acc_of(&mut accs, txn, at);
                    if a.first_admit.is_none() {
                        a.first_admit = Some(at);
                    }
                }
                EventKind::AdmitRefuse { reason, .. } => {
                    *reasons.entry(reason).or_insert(0) += 1;
                }
                EventKind::LockRequest { txn, file, .. } => {
                    file_of(&mut files, file).requests += 1;
                    let a = acc_of(&mut accs, txn, at);
                    if a.wait_since.is_none() {
                        a.wait_since = Some((at, file));
                    }
                }
                EventKind::LockGrant { txn, file, .. } => {
                    file_of(&mut files, file).grants += 1;
                    let a = acc_of(&mut accs, txn, at);
                    if let Some((t0, wfile)) = a.wait_since.take() {
                        let w = at.since(t0);
                        a.att_wait += w;
                        file_of(&mut files, wfile).wait += w;
                    }
                }
                EventKind::LockBlock { file, reason, .. } => {
                    file_of(&mut files, file).blocks += 1;
                    *reasons.entry(reason).or_insert(0) += 1;
                }
                EventKind::LockDeny { file, reason, .. }
                | EventKind::LockRestart { file, reason, .. } => {
                    file_of(&mut files, file).denies += 1;
                    *reasons.entry(reason).or_insert(0) += 1;
                }
                EventKind::WtpgEdge { from, to } => {
                    if edge_seen.insert((from, to), ()).is_none() {
                        edges.push((from, to));
                    }
                }
                EventKind::StepDispatch { txn, .. } => {
                    acc_of(&mut accs, txn, at).exec_since = Some(at);
                }
                EventKind::StepDone { txn, .. } => {
                    let a = acc_of(&mut accs, txn, at);
                    if let Some(t0) = a.exec_since.take() {
                        a.att_exec += at.since(t0);
                    }
                }
                EventKind::Commit { txn } => {
                    let a = acc_of(&mut accs, txn, at);
                    a.commit = Some(at);
                    a.wait = a.att_wait;
                    a.exec = a.att_exec;
                    a.att_wait = Duration::ZERO;
                    a.att_exec = Duration::ZERO;
                }
                EventKind::Abort { txn, .. } => {
                    let a = acc_of(&mut accs, txn, at);
                    // Close any open intervals into the discarded attempt.
                    if let Some((t0, _)) = a.wait_since.take() {
                        a.att_wait += at.since(t0);
                    }
                    if let Some(t0) = a.exec_since.take() {
                        a.att_exec += at.since(t0);
                    }
                    a.lost += a.att_wait + a.att_exec;
                    a.att_wait = Duration::ZERO;
                    a.att_exec = Duration::ZERO;
                    a.aborts += 1;
                }
                // Cohort/quantum/CN-CPU/certify/restart/fault events
                // carry no span-accounting state (a fault kill is always
                // preceded by an `Abort`, which closes the attempt).
                EventKind::CohortStart { .. }
                | EventKind::CohortFinish { .. }
                | EventKind::Quantum { .. }
                | EventKind::CnCpu { .. }
                | EventKind::Certify { .. }
                | EventKind::Restart { .. }
                | EventKind::FaultInjected { .. }
                | EventKind::TxnKilled { .. }
                | EventKind::NodeRecovered { .. } => {}
            }
        }

        let spans = accs
            .into_iter()
            .map(|(txn, a)| TxnSpan {
                txn,
                arrival: a.arrival,
                first_admit: a.first_admit,
                commit: a.commit,
                aborts: a.aborts,
                queue: a
                    .first_admit
                    .map(|t| t.since(a.arrival))
                    .unwrap_or(Duration::ZERO),
                wait: a.wait,
                exec: a.exec,
                lost: a.lost,
            })
            .collect();
        let mut deny_reasons: Vec<(&'static str, u64)> = reasons.into_iter().collect();
        deny_reasons.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        Analysis {
            spans,
            files: files.into_values().collect(),
            deny_reasons,
            edges,
            counts: data.counts,
            dropped: data.dropped,
        }
    }

    /// Run-wide averages over committed transactions.
    pub fn breakdown(&self) -> Breakdown {
        let committed: Vec<&TxnSpan> = self.spans.iter().filter(|s| s.commit.is_some()).collect();
        let n = committed.len() as f64;
        let mean = |f: &dyn Fn(&TxnSpan) -> Duration| -> f64 {
            if committed.is_empty() {
                0.0
            } else {
                committed.iter().map(|s| f(s).as_secs_f64()).sum::<f64>() / n
            }
        };
        Breakdown {
            committed: committed.len() as u64,
            aborted_attempts: self.spans.iter().map(|s| u64::from(s.aborts)).sum(),
            mean_queue_secs: mean(&|s| s.queue),
            mean_wait_secs: mean(&|s| s.wait),
            mean_exec_secs: mean(&|s| s.exec),
            mean_lost_secs: mean(&|s| s.lost),
            mean_response_secs: mean(&|s| s.response().unwrap_or(Duration::ZERO)),
        }
    }

    /// The heaviest chain through the observed precedence edges, weighted
    /// by each transaction's lock-wait time (committing attempt). Cycles
    /// cannot arise from the schedulers' serializable orders; any edge
    /// that would close one is ignored defensively.
    pub fn wait_critical_path(&self) -> CriticalPath {
        let wait_of: BTreeMap<TxnId, Duration> =
            self.spans.iter().map(|s| (s.txn, s.wait)).collect();
        let weight = |t: TxnId| wait_of.get(&t).copied().unwrap_or(Duration::ZERO);

        // Kahn topological sweep with longest-path relaxation. Distances
        // are (wait, hops) so zero-wait chains still prefer more hops.
        let mut succs: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
        let mut indeg: BTreeMap<TxnId, usize> = BTreeMap::new();
        for &(from, to) in &self.edges {
            succs.entry(from).or_default().push(to);
            indeg.entry(from).or_default();
            *indeg.entry(to).or_default() += 1;
        }
        let mut ready: Vec<TxnId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&t, _)| t)
            .collect();
        let mut dist: BTreeMap<TxnId, (Duration, usize)> = BTreeMap::new();
        let mut pred: BTreeMap<TxnId, TxnId> = BTreeMap::new();
        for &t in &ready {
            dist.insert(t, (weight(t), 1));
        }
        let mut order = 0usize;
        while order < ready.len() {
            let u = ready[order];
            order += 1;
            let (du, hu) = dist[&u];
            for &v in succs.get(&u).into_iter().flatten() {
                let cand = (du + weight(v), hu + 1);
                if dist.get(&v).is_none_or(|&d| cand > d) {
                    dist.insert(v, cand);
                    pred.insert(v, u);
                }
                let d = indeg.get_mut(&v).expect("edge endpoint has indegree");
                *d -= 1;
                if *d == 0 {
                    ready.push(v);
                }
            }
        }
        // Reconstruct from the heaviest endpoint (ties: lowest txn id).
        let end = dist
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&t, _)| t);
        let mut path = Vec::new();
        let total_wait = end.map(|t| dist[&t].0).unwrap_or(Duration::ZERO);
        let mut cur = end;
        while let Some(t) = cur {
            path.push(t);
            cur = pred.get(&t).copied();
        }
        path.reverse();
        CriticalPath { path, total_wait }
    }

    /// Append the span-summary fields to a caller-provided [`JsonObj`]
    /// (so callers can prefix run metadata of their own).
    pub fn write_summary(&self, o: &mut JsonObj) {
        let b = self.breakdown();
        o.int("commits", self.counts.commits);
        o.int("aborts", self.counts.aborts);
        o.int("restarts", self.counts.restarts);
        o.int("lock_requests", self.counts.lock_requests);
        o.int("lock_grants", self.counts.lock_grants);
        o.int("lock_blocks", self.counts.lock_blocks);
        o.int("lock_denies", self.counts.lock_denies);
        o.int("wtpg_edges", self.counts.wtpg_edges);
        o.int("events_total", self.counts.total());
        o.int("records_dropped", self.dropped);
        o.num("mean_queue_secs", b.mean_queue_secs);
        o.num("mean_wait_secs", b.mean_wait_secs);
        o.num("mean_exec_secs", b.mean_exec_secs);
        o.num("mean_lost_secs", b.mean_lost_secs);
        o.num("mean_response_secs", b.mean_response_secs);
        let mut reasons = JsonArr::new();
        for &(reason, count) in &self.deny_reasons {
            let mut r = JsonObj::new();
            r.str("reason", reason);
            r.int("count", count);
            reasons.raw(&r.finish());
        }
        o.raw("deny_reasons", &reasons.finish());
        // Top contended files by accumulated lock-wait time.
        let mut by_wait: Vec<&FileStats> = self.files.iter().collect();
        by_wait.sort_by(|a, b| b.wait.cmp(&a.wait).then(a.file.cmp(&b.file)));
        let mut top = JsonArr::new();
        for fs in by_wait.iter().take(8) {
            let mut f = JsonObj::new();
            f.int("file", u64::from(fs.file.0));
            f.int("requests", fs.requests);
            f.int("grants", fs.grants);
            f.int("blocks", fs.blocks);
            f.int("denies", fs.denies);
            f.num("wait_secs", fs.wait.as_secs_f64());
            top.raw(&f.finish());
        }
        o.raw("top_files", &top.finish());
        let cp = self.wait_critical_path();
        let mut cpo = JsonObj::new();
        cpo.num("total_wait_secs", cp.total_wait.as_secs_f64());
        let mut ids = JsonArr::new();
        for t in &cp.path {
            ids.int(t.0);
        }
        cpo.raw("txns", &ids.finish());
        o.raw("wait_critical_path", &cpo.finish());
    }

    /// The span summary as a standalone JSON object.
    pub fn summary_json(&self) -> String {
        let mut o = JsonObj::new();
        self.write_summary(&mut o);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AbortCause, Rec};
    use crate::sink::RingRecorder;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }
    fn f(i: u32) -> FileId {
        FileId(i)
    }
    fn rec(ms: u64, kind: EventKind) -> Rec {
        Rec {
            at: SimTime::from_millis(ms),
            kind,
        }
    }

    /// T1: arrives at 0, admitted at 10, requests F0 at 10, blocked,
    /// granted at 50, executes 10..(dispatch 50, done 150), commits 160.
    /// T2: arrives at 5, aborted attempt (wait 20..40 lost), restarts,
    /// never commits.
    fn sample() -> TraceData {
        let mut r = RingRecorder::new(64);
        for e in [
            rec(0, EventKind::Arrival { txn: t(1) }),
            rec(5, EventKind::Arrival { txn: t(2) }),
            rec(10, EventKind::Admit { txn: t(1) }),
            rec(
                10,
                EventKind::LockRequest {
                    txn: t(1),
                    step: 0,
                    file: f(0),
                },
            ),
            rec(
                10,
                EventKind::LockBlock {
                    txn: t(1),
                    step: 0,
                    file: f(0),
                    reason: "lock-held",
                },
            ),
            rec(20, EventKind::Admit { txn: t(2) }),
            rec(
                20,
                EventKind::LockRequest {
                    txn: t(2),
                    step: 0,
                    file: f(1),
                },
            ),
            rec(
                20,
                EventKind::LockDeny {
                    txn: t(2),
                    step: 0,
                    file: f(1),
                    reason: "predicted-deadlock",
                },
            ),
            rec(
                40,
                EventKind::WtpgEdge {
                    from: t(1),
                    to: t(2),
                },
            ),
            rec(
                40,
                EventKind::Abort {
                    txn: t(2),
                    cause: AbortCause::Validation,
                },
            ),
            rec(
                50,
                EventKind::LockGrant {
                    txn: t(1),
                    step: 0,
                    file: f(0),
                },
            ),
            rec(50, EventKind::StepDispatch { txn: t(1), step: 0 }),
            rec(150, EventKind::StepDone { txn: t(1), step: 0 }),
            rec(
                160,
                EventKind::Certify {
                    txn: t(1),
                    ok: true,
                },
            ),
            rec(160, EventKind::Commit { txn: t(1) }),
        ] {
            r.record(e);
        }
        r.into_data()
    }

    #[test]
    fn spans_fold_wait_exec_and_lost() {
        let a = Analysis::from_data(&sample());
        assert_eq!(a.spans.len(), 2);
        let s1 = a.spans[0];
        assert_eq!(s1.txn, t(1));
        assert_eq!(s1.queue, Duration::from_millis(10));
        assert_eq!(s1.wait, Duration::from_millis(40));
        assert_eq!(s1.exec, Duration::from_millis(100));
        assert_eq!(s1.lost, Duration::ZERO);
        assert_eq!(s1.response(), Some(Duration::from_millis(160)));
        let s2 = a.spans[1];
        assert_eq!(s2.aborts, 1);
        assert_eq!(s2.lost, Duration::from_millis(20), "open wait closed");
        assert_eq!(s2.commit, None);
    }

    #[test]
    fn file_tallies_attribute_wait_to_granted_file() {
        let a = Analysis::from_data(&sample());
        let f0 = a.files.iter().find(|s| s.file == f(0)).unwrap();
        assert_eq!(f0.requests, 1);
        assert_eq!(f0.grants, 1);
        assert_eq!(f0.blocks, 1);
        assert_eq!(f0.wait, Duration::from_millis(40));
        let f1 = a.files.iter().find(|s| s.file == f(1)).unwrap();
        assert_eq!(f1.denies, 1);
        assert_eq!(f1.wait, Duration::ZERO, "aborted wait is lost, not filed");
    }

    #[test]
    fn reasons_and_breakdown() {
        let a = Analysis::from_data(&sample());
        assert!(a
            .deny_reasons
            .iter()
            .any(|&(r, c)| r == "predicted-deadlock" && c == 1));
        let b = a.breakdown();
        assert_eq!(b.committed, 1);
        assert_eq!(b.aborted_attempts, 1);
        assert!((b.mean_wait_secs - 0.04).abs() < 1e-12);
        assert!((b.mean_response_secs - 0.16).abs() < 1e-12);
    }

    #[test]
    fn critical_path_follows_edges() {
        let a = Analysis::from_data(&sample());
        let cp = a.wait_critical_path();
        assert_eq!(cp.path, vec![t(1), t(2)]);
        // T1 waited 40ms; T2's committing-attempt wait is zero.
        assert_eq!(cp.total_wait, Duration::from_millis(40));
    }

    #[test]
    fn summary_json_is_wellformed() {
        let a = Analysis::from_data(&sample());
        let json = a.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "commits",
            "mean_wait_secs",
            "deny_reasons",
            "top_files",
            "wait_critical_path",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains("\"commits\":1"));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let data = RingRecorder::new(4).into_data();
        let a = Analysis::from_data(&data);
        assert!(a.spans.is_empty());
        let b = a.breakdown();
        assert_eq!(b.committed, 0);
        assert_eq!(b.mean_wait_secs, 0.0);
        assert!(a.wait_critical_path().path.is_empty());
    }
}
