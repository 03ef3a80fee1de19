//! Trace sinks: where events go.
//!
//! The simulator emits events through a [`Tracer`], an enum over "off"
//! and "recording" so the disabled path is a single branch — the event
//! is never even constructed (emission takes a closure) and there is no
//! `dyn` call per event. The recording arm is a bounded in-memory ring
//! ([`RingRecorder`]): when full, the oldest records are overwritten but
//! the monotone [`Counts`] stay exact, so accounting cross-checks remain
//! valid even for runs longer than the ring. A short-lived tap
//! ([`Tracer::tap`] … [`Tracer::untap`]) additionally copies records into
//! a caller's buffer, e.g. the records of one engine step.

use crate::event::{EventKind, Rec};

/// A destination for trace records.
pub trait TraceSink {
    /// Record one event.
    fn record(&mut self, rec: Rec);
}

/// A sink that discards everything; `record` compiles to a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _rec: Rec) {}
}

/// Monotone event counters, exact even when the ring wraps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Transaction arrivals.
    pub arrivals: u64,
    /// Admissions granted.
    pub admissions: u64,
    /// Admissions refused.
    pub admit_refusals: u64,
    /// Lock requests evaluated (including retries).
    pub lock_requests: u64,
    /// Lock requests granted.
    pub lock_grants: u64,
    /// Lock requests blocked on a held lock.
    pub lock_blocks: u64,
    /// Lock requests delayed by scheduler policy.
    pub lock_denies: u64,
    /// Lock requests answered with a restart order.
    pub lock_restarts: u64,
    /// WTPG precedence edges inserted.
    pub wtpg_edges: u64,
    /// Steps dispatched.
    pub step_dispatches: u64,
    /// Steps completed.
    pub steps_done: u64,
    /// Cohorts enqueued on DPNs.
    pub cohort_starts: u64,
    /// Cohorts that finished their scans.
    pub cohort_finishes: u64,
    /// Round-robin CPU slices served by DPNs.
    pub quanta: u64,
    /// CPU bursts served by the control node.
    pub cn_bursts: u64,
    /// Certifications that passed.
    pub certify_ok: u64,
    /// Certifications that failed.
    pub certify_fail: u64,
    /// Commits.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Restart re-entries into the start queue.
    pub restarts: u64,
    /// Fault-plan actions injected (crashes, stalls, link losses).
    pub faults_injected: u64,
    /// Transactions dropped permanently by fault retry exhaustion.
    pub txns_killed: u64,
    /// DPN recoveries.
    pub node_recoveries: u64,
}

impl Counts {
    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.arrivals
            + self.admissions
            + self.admit_refusals
            + self.lock_requests
            + self.lock_grants
            + self.lock_blocks
            + self.lock_denies
            + self.lock_restarts
            + self.wtpg_edges
            + self.step_dispatches
            + self.steps_done
            + self.cohort_starts
            + self.cohort_finishes
            + self.quanta
            + self.cn_bursts
            + self.certify_ok
            + self.certify_fail
            + self.commits
            + self.aborts
            + self.restarts
            + self.faults_injected
            + self.txns_killed
            + self.node_recoveries
    }

    fn bump(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Arrival { .. } => self.arrivals += 1,
            EventKind::Admit { .. } => self.admissions += 1,
            EventKind::AdmitRefuse { .. } => self.admit_refusals += 1,
            EventKind::LockRequest { .. } => self.lock_requests += 1,
            EventKind::LockGrant { .. } => self.lock_grants += 1,
            EventKind::LockBlock { .. } => self.lock_blocks += 1,
            EventKind::LockDeny { .. } => self.lock_denies += 1,
            EventKind::LockRestart { .. } => self.lock_restarts += 1,
            EventKind::WtpgEdge { .. } => self.wtpg_edges += 1,
            EventKind::StepDispatch { .. } => self.step_dispatches += 1,
            EventKind::StepDone { .. } => self.steps_done += 1,
            EventKind::CohortStart { .. } => self.cohort_starts += 1,
            EventKind::CohortFinish { .. } => self.cohort_finishes += 1,
            EventKind::Quantum { .. } => self.quanta += 1,
            EventKind::CnCpu { .. } => self.cn_bursts += 1,
            EventKind::Certify { ok: true, .. } => self.certify_ok += 1,
            EventKind::Certify { ok: false, .. } => self.certify_fail += 1,
            EventKind::Commit { .. } => self.commits += 1,
            EventKind::Abort { .. } => self.aborts += 1,
            EventKind::Restart { .. } => self.restarts += 1,
            EventKind::FaultInjected { .. } => self.faults_injected += 1,
            EventKind::TxnKilled { .. } => self.txns_killed += 1,
            EventKind::NodeRecovered { .. } => self.node_recoveries += 1,
        }
    }
}

/// A bounded in-memory recorder: keeps the most recent `capacity`
/// records (overwriting the oldest when full) plus exact [`Counts`].
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<Rec>,
    cap: usize,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
    counts: Counts,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingRecorder capacity must be positive");
        RingRecorder {
            buf: Vec::new(),
            cap: capacity,
            head: 0,
            dropped: 0,
            counts: Counts::default(),
        }
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact monotone counters over *all* events seen (including
    /// overwritten ones).
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Consume the recorder, yielding the retained records in
    /// chronological order plus the exact counters.
    pub fn into_data(mut self) -> TraceData {
        if self.dropped > 0 {
            // Unwrap the ring: oldest retained record sits at `head`.
            self.buf.rotate_left(self.head);
        }
        TraceData {
            records: self.buf,
            counts: self.counts,
            dropped: self.dropped,
        }
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, rec: Rec) {
        self.counts.bump(&rec.kind);
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// A completed trace: retained records (chronological) and exact counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Retained records in chronological order.
    pub records: Vec<Rec>,
    /// Exact counters over all events, including any overwritten ones.
    pub counts: Counts,
    /// Number of records lost to ring overwrites.
    pub dropped: u64,
}

/// The simulator-facing tracing handle: enum dispatch over "off" and
/// "recording", so the disabled hot path is one branch and zero
/// construction work.
#[derive(Debug, Default)]
pub enum Tracer {
    /// Tracing disabled; [`Tracer::emit`] never builds the event.
    #[default]
    Off,
    /// Record into a bounded in-memory ring.
    Ring(Box<RingRecorder>),
    /// Copy every record into a caller's buffer, and into the ring the
    /// tap was laid over, if any (see [`Tracer::tap`]).
    Tap(Box<Tap>),
}

/// An open tap: the caller's buffer plus the ring underneath, if any.
/// Boxed so that [`Tracer`] stays two words and `Off` one compare.
#[derive(Debug)]
pub struct Tap {
    out: Vec<Rec>,
    ring: Option<Box<RingRecorder>>,
}

impl Tracer {
    /// Default ring capacity (records), ample for a multi-thousand-second
    /// run of the paper's machine model.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A tracer recording into a fresh ring of `capacity` records.
    pub fn ring(capacity: usize) -> Self {
        Tracer::Ring(Box::new(RingRecorder::new(capacity)))
    }

    /// Is tracing enabled (a ring, a tap, or both)?
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, Tracer::Off)
    }

    /// Is a ring recording, with or without a tap over it?
    pub fn has_ring(&self) -> bool {
        self.recorder().is_some()
    }

    fn recorder(&self) -> Option<&RingRecorder> {
        match self {
            Tracer::Off => None,
            Tracer::Ring(r) => Some(r),
            Tracer::Tap(t) => t.ring.as_deref(),
        }
    }

    /// Emit an event. The closure runs only when tracing is enabled, so
    /// callers pay a single predictable branch when it is off.
    #[inline(always)]
    pub fn emit(&mut self, make: impl FnOnce() -> Rec) {
        match self {
            Tracer::Off => {}
            Tracer::Ring(r) => r.record(make()),
            Tracer::Tap(t) => {
                let rec = make();
                if let Some(r) = &mut t.ring {
                    r.record(rec);
                }
                t.out.push(rec);
            }
        }
    }

    /// Open a tap: from now on every record is also appended to `out`
    /// until [`Tracer::untap`] hands the buffer back. A ring already
    /// installed keeps recording underneath.
    ///
    /// # Panics
    /// Panics if a tap is already open.
    pub fn tap(&mut self, out: Vec<Rec>) {
        let ring = match std::mem::take(self) {
            Tracer::Off => None,
            Tracer::Ring(r) => Some(r),
            Tracer::Tap(_) => panic!("tracer tap already open"),
        };
        *self = Tracer::Tap(Box::new(Tap { out, ring }));
    }

    /// Close the tap opened by [`Tracer::tap`], restoring the tracer it
    /// was laid over and returning the buffer (empty when no tap was
    /// open).
    pub fn untap(&mut self) -> Vec<Rec> {
        match std::mem::take(self) {
            Tracer::Tap(t) => {
                *self = t.ring.map_or(Tracer::Off, Tracer::Ring);
                t.out
            }
            other => {
                *self = other;
                Vec::new()
            }
        }
    }

    /// Current exact counters, if a ring is recording.
    pub fn counts(&self) -> Option<Counts> {
        self.recorder().map(RingRecorder::counts)
    }

    /// Consume the tracer, yielding the ring's trace (if one is
    /// recording).
    pub fn finish(self) -> Option<TraceData> {
        match self {
            Tracer::Off => None,
            Tracer::Ring(r) => Some(r.into_data()),
            Tracer::Tap(t) => t.ring.map(|r| r.into_data()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_des::time::SimTime;
    use bds_wtpg::TxnId;

    fn rec(ms: u64, kind: EventKind) -> Rec {
        Rec {
            at: SimTime::from_millis(ms),
            kind,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_exact_counts() {
        let mut r = RingRecorder::new(3);
        for i in 0..5u64 {
            r.record(rec(i, EventKind::Commit { txn: TxnId(i) }));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.counts().commits, 5);
        let data = r.into_data();
        let kept: Vec<u64> = data.records.iter().map(|r| r.at.as_millis()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest dropped, order preserved");
        assert_eq!(data.counts.total(), 5);
    }

    #[test]
    fn tracer_off_never_runs_closure() {
        let mut t = Tracer::Off;
        assert!(!t.enabled());
        t.emit(|| unreachable!("closure must not run when tracing is off"));
        assert!(t.finish().is_none());
    }

    #[test]
    fn tracer_ring_records() {
        let mut t = Tracer::ring(8);
        assert!(t.enabled());
        t.emit(|| rec(1, EventKind::Arrival { txn: TxnId(1) }));
        t.emit(|| {
            rec(
                2,
                EventKind::Certify {
                    txn: TxnId(1),
                    ok: false,
                },
            )
        });
        assert_eq!(t.counts().unwrap().arrivals, 1);
        let data = t.finish().unwrap();
        assert_eq!(data.records.len(), 2);
        assert_eq!(data.counts.certify_fail, 1);
        assert_eq!(data.dropped, 0);
    }

    #[test]
    fn tap_copies_records_and_keeps_the_ring() {
        let mut t = Tracer::Off;
        t.tap(Vec::new());
        assert!(t.enabled() && !t.has_ring());
        t.emit(|| rec(1, EventKind::Arrival { txn: TxnId(1) }));
        assert_eq!(t.untap().len(), 1);
        assert!(!t.enabled(), "untap restores Off");

        let mut t = Tracer::ring(8);
        t.emit(|| rec(1, EventKind::Arrival { txn: TxnId(1) }));
        t.tap(Vec::new());
        assert!(t.has_ring());
        t.emit(|| rec(2, EventKind::Commit { txn: TxnId(1) }));
        let tapped = t.untap();
        assert_eq!(tapped, vec![rec(2, EventKind::Commit { txn: TxnId(1) })]);
        assert!(t.untap().is_empty(), "no tap open");
        let data = t.finish().unwrap();
        assert_eq!(data.records.len(), 2, "the ring saw both records");
    }

    #[test]
    fn null_sink_discards() {
        let mut s = NullSink;
        s.record(rec(1, EventKind::Commit { txn: TxnId(1) }));
    }
}
