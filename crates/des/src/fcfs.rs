//! Analytic single-server FCFS queue.
//!
//! The control node (CN) of the machine model is a single CPU that serves
//! concurrency-control work, message handling, transaction startup and
//! commit coordination in first-come-first-served order. Because service
//! demands are known when work arrives, the queue can be simulated
//! analytically: `enqueue(now, demand)` returns the completion instant, and
//! the caller schedules its follow-up event at that time. This avoids
//! per-quantum events for the CN entirely.

use crate::stats::TimeWeighted;
use crate::time::{Duration, SimTime};

/// An analytic single-server FCFS queue with utilization tracking.
#[derive(Debug, Clone)]
pub struct FcfsServer {
    /// Time at which the server next becomes idle.
    free_at: SimTime,
    busy: TimeWeighted,
    total_demand: Duration,
    jobs: u64,
}

impl FcfsServer {
    /// A server idle from `start`.
    pub fn new(start: SimTime) -> Self {
        FcfsServer {
            free_at: start,
            busy: TimeWeighted::new(start, 0.0),
            total_demand: Duration::ZERO,
            jobs: 0,
        }
    }

    /// Enqueue `demand` units of work at time `now`; returns the instant
    /// the work completes. Zero-demand work completes at
    /// `max(now, free_at)` without consuming time.
    ///
    /// # Panics
    /// Panics if `now` runs backwards relative to an earlier enqueue whose
    /// completion is still in the future **and** earlier than `now` — i.e.
    /// callers must enqueue in non-decreasing event order, which the event
    /// queue guarantees.
    pub fn enqueue(&mut self, now: SimTime, demand: Duration) -> SimTime {
        self.enqueue_span(now, demand).1
    }

    /// Like [`FcfsServer::enqueue`], but also returns the instant service
    /// *begins* — the `(begin, end)` span the work occupies the server,
    /// which tracers record as a CPU burst.
    pub fn enqueue_span(&mut self, now: SimTime, demand: Duration) -> (SimTime, SimTime) {
        let begin = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        // Track busy/idle transitions for utilization: the server is busy
        // on [begin, begin+demand]. We only track aggregate busy time.
        let end = begin + demand;
        self.total_demand += demand;
        self.jobs += 1;
        // Update the busy signal: if the server was idle at `now`
        // (free_at <= now), it becomes busy at `now` (equivalently
        // `begin`); it stays busy until `end`.
        if self.free_at <= now {
            self.busy.set(now, 1.0);
        }
        self.free_at = end;
        (begin, end)
    }

    /// Record the passage of idle time: callers may invoke this at the end
    /// of the run so that utilization reflects trailing idleness.
    pub fn settle(&mut self, now: SimTime) {
        if self.free_at <= now && self.busy.current() != 0.0 {
            // The busy period ended at free_at; approximate by marking the
            // transition now (the discrepancy is bounded by one service
            // time and irrelevant for the long runs used here).
            self.busy.set(self.free_at.max(SimTime::ZERO), 0.0);
        }
    }

    /// Stall the server until `until`: no work is served before then,
    /// so queued and newly arriving jobs begin no earlier than `until`.
    /// Models a control-node freeze (fault injection); the stall window
    /// counts as idle time in [`FcfsServer::utilization`] because no
    /// demand is served during it.
    pub fn stall_until(&mut self, until: SimTime) {
        if until > self.free_at {
            self.free_at = until;
        }
    }

    /// The instant the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Whether the server would be idle at `now`.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// Total service demand accepted so far.
    pub fn total_demand(&self) -> Duration {
        self.total_demand
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over `[start, now]`: busy time divided by elapsed time.
    ///
    /// Computed from total accepted demand (exact for a work-conserving
    /// FCFS server that never idles with queued work).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.since(SimTime::ZERO).as_millis() as f64;
        if elapsed == 0.0 {
            return 0.0;
        }
        // Demand scheduled beyond `now` hasn't been served yet.
        let unserved = self.free_at.saturating_since(now).as_millis() as f64;
        let served = self.total_demand.as_millis() as f64 - unserved;
        (served / elapsed).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        let done = s.enqueue(SimTime::from_millis(100), Duration::from_millis(50));
        assert_eq!(done, SimTime::from_millis(150));
        assert!(s.is_idle_at(SimTime::from_millis(150)));
        assert!(!s.is_idle_at(SimTime::from_millis(149)));
    }

    #[test]
    fn busy_server_queues_fcfs() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        let d1 = s.enqueue(SimTime::from_millis(0), Duration::from_millis(100));
        let d2 = s.enqueue(SimTime::from_millis(10), Duration::from_millis(100));
        let d3 = s.enqueue(SimTime::from_millis(20), Duration::from_millis(100));
        assert_eq!(d1, SimTime::from_millis(100));
        assert_eq!(d2, SimTime::from_millis(200));
        assert_eq!(d3, SimTime::from_millis(300));
        assert_eq!(s.jobs(), 3);
    }

    #[test]
    fn zero_demand_is_free() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, Duration::from_millis(100));
        let done = s.enqueue(SimTime::from_millis(5), Duration::ZERO);
        assert_eq!(done, SimTime::from_millis(100));
    }

    #[test]
    fn utilization_tracks_demand() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, Duration::from_millis(500));
        // At t=1000 the server worked 500ms of the elapsed 1000ms.
        assert!((s.utilization(SimTime::from_millis(1000)) - 0.5).abs() < 1e-9);
        // At t=250 only 250ms of demand has been served.
        assert!((s.utilization(SimTime::from_millis(250)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_excludes_future_backlog() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, Duration::from_millis(10_000));
        let u = s.utilization(SimTime::from_millis(1000));
        assert!((u - 1.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn enqueue_span_reports_begin_and_end() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        let (b1, e1) = s.enqueue_span(SimTime::from_millis(10), Duration::from_millis(20));
        assert_eq!(
            (b1, e1),
            (SimTime::from_millis(10), SimTime::from_millis(30))
        );
        // Queued work begins when the server frees up, not at `now`.
        let (b2, e2) = s.enqueue_span(SimTime::from_millis(15), Duration::from_millis(5));
        assert_eq!(
            (b2, e2),
            (SimTime::from_millis(30), SimTime::from_millis(35))
        );
    }

    #[test]
    fn stall_defers_service() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        s.stall_until(SimTime::from_millis(100));
        let (b, e) = s.enqueue_span(SimTime::from_millis(10), Duration::from_millis(20));
        assert_eq!(
            (b, e),
            (SimTime::from_millis(100), SimTime::from_millis(120))
        );
        // A stall that ends before the current backlog is a no-op.
        s.stall_until(SimTime::from_millis(50));
        assert_eq!(s.free_at(), SimTime::from_millis(120));
    }

    #[test]
    fn total_demand_accumulates() {
        let mut s = FcfsServer::new(SimTime::ZERO);
        s.enqueue(SimTime::ZERO, Duration::from_millis(7));
        s.enqueue(SimTime::ZERO, Duration::from_millis(2));
        assert_eq!(s.total_demand(), Duration::from_millis(9));
    }
}
