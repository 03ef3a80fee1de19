//! Data-processing node: round-robin cohort service.
//!
//! Per §4.1 of the paper, a DPN executes the cohorts assigned to it "in a
//! round-robin manner"; when a step runs at declustering degree `k`, the
//! unit of round-robin service is a scan of `1/k` object. We simulate
//! this literally: the DPN serves the cohort at the head of its ready
//! queue for `min(quantum, remaining)` time, then rotates it to the tail
//! (or retires it when its scan is complete).
//!
//! The DPN is a passive state machine: the simulator calls
//! [`Dpn::add_cohort`] / [`Dpn::on_slice_end`] and schedules the returned
//! slice-end times itself, so this module stays event-loop agnostic.

use bds_des::stats::TimeWeighted;
use bds_des::time::{Duration, SimTime};
use std::collections::VecDeque;

/// Identifier of a cohort (assigned by the simulator; unique per step
/// execution per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CohortId(pub u64);

/// A cohort: one node's share of a step's file scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cohort {
    /// Cohort identity (used by the simulator to map back to its step).
    pub id: CohortId,
    /// Remaining scan time on this node.
    pub remaining: Duration,
    /// Round-robin quantum for this cohort (`ObjTime / DD` of its step).
    pub quantum: Duration,
}

/// The currently running slice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Running {
    cohort: Cohort,
    slice_end: SimTime,
    slice_len: Duration,
}

/// Outcome of a slice ending.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceOutcome {
    /// Cohort that completed its whole scan during this slice, if any.
    pub finished: Option<CohortId>,
    /// End time of the next slice to schedule, if the node stays busy.
    pub next_slice_end: Option<SimTime>,
    /// Cohort that ran during the slice that just ended.
    pub ran: CohortId,
    /// Length of the slice that just ended (tracers reconstruct the
    /// slice's span as `[now - slice, now]`).
    pub slice: Duration,
}

/// A data-processing node.
#[derive(Debug, Clone)]
pub struct Dpn {
    ready: VecDeque<Cohort>,
    running: Option<Running>,
    busy: TimeWeighted,
    busy_time: Duration,
    completed: u64,
}

impl Dpn {
    /// An idle node at time zero.
    pub fn new() -> Self {
        Dpn {
            ready: VecDeque::new(),
            running: None,
            busy: TimeWeighted::new(SimTime::ZERO, 0.0),
            busy_time: Duration::ZERO,
            completed: 0,
        }
    }

    /// Number of cohorts present (running + ready).
    pub fn load(&self) -> usize {
        self.ready.len() + usize::from(self.running.is_some())
    }

    /// Is the node idle?
    pub fn is_idle(&self) -> bool {
        self.running.is_none() && self.ready.is_empty()
    }

    /// Total cohorts completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.average(now)
    }

    /// Time-averaged number of resident cohorts is not tracked here; use
    /// `load()` sampling from the simulator if needed.
    ///
    /// Add a cohort at `now`. If the node was idle the cohort starts
    /// immediately and the returned time is the end of its first slice,
    /// which the simulator must schedule. If the node is busy the cohort
    /// just joins the ready queue (`None`).
    pub fn add_cohort(&mut self, now: SimTime, cohort: Cohort) -> Option<SimTime> {
        assert!(
            !cohort.remaining.is_zero(),
            "zero-work cohorts must complete immediately at the caller"
        );
        assert!(!cohort.quantum.is_zero(), "quantum must be positive");
        if self.running.is_some() {
            self.ready.push_back(cohort);
            return None;
        }
        self.busy.set(now, 1.0);
        let slice = cohort.remaining.min(cohort.quantum);
        let end = now + slice;
        self.running = Some(Running {
            cohort,
            slice_end: end,
            slice_len: slice,
        });
        Some(end)
    }

    /// Handle the end of the current slice at `now` (must equal the time
    /// returned when the slice was started).
    pub fn on_slice_end(&mut self, now: SimTime) -> SliceOutcome {
        let run = self
            .running
            .take()
            .expect("slice end with no running cohort");
        assert_eq!(run.slice_end, now, "slice end fired at the wrong time");
        self.busy_time += run.slice_len;
        let mut cohort = run.cohort;
        cohort.remaining = cohort.remaining.saturating_sub(run.slice_len);
        let finished = if cohort.remaining.is_zero() {
            self.completed += 1;
            Some(cohort.id)
        } else {
            self.ready.push_back(cohort);
            None
        };
        // Start the next slice, if any cohort is ready.
        let next_slice_end = match self.ready.pop_front() {
            Some(next) => {
                let slice = next.remaining.min(next.quantum);
                let end = now + slice;
                self.running = Some(Running {
                    cohort: next,
                    slice_end: end,
                    slice_len: slice,
                });
                Some(end)
            }
            None => {
                self.busy.set(now, 0.0);
                None
            }
        };
        SliceOutcome {
            finished,
            next_slice_end,
            ran: cohort.id,
            slice: run.slice_len,
        }
    }

    /// Crash the node at `now`: every resident cohort (running and
    /// ready) is lost and its id returned so the caller can abort the
    /// owning transactions. The running slice's elapsed portion is
    /// credited to busy time (the CPU really spent it) and the node goes
    /// idle; any slice-end event already scheduled for it is stale and
    /// must be tombstoned by the caller.
    pub fn crash(&mut self, now: SimTime) -> Vec<CohortId> {
        let mut lost: Vec<CohortId> = Vec::with_capacity(self.load());
        if let Some(run) = self.running.take() {
            let elapsed = run
                .slice_len
                .saturating_sub(run.slice_end.saturating_since(now));
            self.busy_time += elapsed;
            lost.push(run.cohort.id);
        }
        lost.extend(self.ready.drain(..).map(|c| c.id));
        self.busy.set(now, 0.0);
        lost
    }
}

impl Default for Dpn {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(id: u64, remaining_ms: u64, quantum_ms: u64) -> Cohort {
        Cohort {
            id: CohortId(id),
            remaining: Duration::from_millis(remaining_ms),
            quantum: Duration::from_millis(quantum_ms),
        }
    }

    /// Drive a DPN until idle, returning (cohort, finish_time) pairs.
    fn drain(dpn: &mut Dpn, mut next: Option<SimTime>) -> Vec<(CohortId, SimTime)> {
        let mut finished = Vec::new();
        while let Some(t) = next {
            let out = dpn.on_slice_end(t);
            if let Some(id) = out.finished {
                finished.push((id, t));
            }
            next = out.next_slice_end;
        }
        finished
    }

    #[test]
    fn single_cohort_runs_to_completion() {
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 5000, 1000)).unwrap();
        assert_eq!(first, SimTime::from_millis(1000));
        let fin = drain(&mut d, Some(first));
        assert_eq!(fin, vec![(CohortId(1), SimTime::from_millis(5000))]);
        assert!(d.is_idle());
        assert_eq!(d.completed(), 1);
        assert_eq!(d.busy_time(), Duration::from_millis(5000));
    }

    #[test]
    fn two_cohorts_share_round_robin() {
        // Two cohorts of 2000ms each, quantum 1000: slices alternate
        // A(0-1000) B(1000-2000) A(2000-3000 fin) B(3000-4000 fin).
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 2000, 1000)).unwrap();
        assert!(d.add_cohort(SimTime::ZERO, cohort(2, 2000, 1000)).is_none());
        let fin = drain(&mut d, Some(first));
        assert_eq!(
            fin,
            vec![
                (CohortId(1), SimTime::from_millis(3000)),
                (CohortId(2), SimTime::from_millis(4000)),
            ]
        );
    }

    #[test]
    fn short_cohort_finishes_within_quantum() {
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 200, 1000)).unwrap();
        assert_eq!(first, SimTime::from_millis(200));
        let fin = drain(&mut d, Some(first));
        assert_eq!(fin[0].1, SimTime::from_millis(200));
    }

    #[test]
    fn mixed_quanta_respected() {
        // Cohort A: quantum 125 (DD=8 step), cohort B: quantum 1000.
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 250, 125)).unwrap();
        assert!(d.add_cohort(SimTime::ZERO, cohort(2, 1000, 1000)).is_none());
        // A(0-125) B(125-1125 fin) A(1125-1250 fin)
        let fin = drain(&mut d, Some(first));
        assert_eq!(
            fin,
            vec![
                (CohortId(2), SimTime::from_millis(1125)),
                (CohortId(1), SimTime::from_millis(1250)),
            ]
        );
    }

    #[test]
    fn round_robin_is_fair_in_completion_order() {
        // Equal cohorts complete in arrival order.
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 3000, 1000)).unwrap();
        for i in 2..=4 {
            d.add_cohort(SimTime::ZERO, cohort(i, 3000, 1000));
        }
        let fin = drain(&mut d, Some(first));
        let order: Vec<u64> = fin.iter().map(|(c, _)| c.0).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        // All work serialized: last completion = 4 * 3000.
        assert_eq!(fin.last().unwrap().1, SimTime::from_millis(12_000));
    }

    #[test]
    fn late_arrival_joins_queue() {
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 2000, 1000)).unwrap();
        // Advance one slice.
        let out = d.on_slice_end(first);
        assert!(out.finished.is_none());
        let next = out.next_slice_end.unwrap();
        // New cohort arrives while busy.
        assert!(d
            .add_cohort(SimTime::from_millis(1500), cohort(2, 1000, 1000))
            .is_none());
        let fin = drain(&mut d, Some(next));
        assert_eq!(
            fin,
            vec![
                (CohortId(1), SimTime::from_millis(2000)),
                (CohortId(2), SimTime::from_millis(3000)),
            ]
        );
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 1000, 1000)).unwrap();
        drain(&mut d, Some(first));
        // Busy 1000ms of the first 2000ms.
        let u = d.utilization(SimTime::from_millis(2000));
        assert!((u - 0.5).abs() < 1e-9, "u = {u}");
    }

    #[test]
    #[should_panic(expected = "zero-work")]
    fn zero_work_cohort_rejected() {
        let mut d = Dpn::new();
        d.add_cohort(SimTime::ZERO, cohort(1, 0, 1000));
    }

    #[test]
    fn slice_outcome_reports_ran_cohort_and_length() {
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 2000, 1000)).unwrap();
        let out = d.on_slice_end(first);
        assert_eq!(out.ran, CohortId(1));
        assert_eq!(out.slice, Duration::from_millis(1000));
        assert!(out.finished.is_none());
        let out2 = d.on_slice_end(out.next_slice_end.unwrap());
        assert_eq!(out2.ran, CohortId(1));
        assert_eq!(out2.finished, Some(CohortId(1)));
    }

    #[test]
    fn crash_loses_all_cohorts_and_credits_partial_slice() {
        let mut d = Dpn::new();
        let first = d.add_cohort(SimTime::ZERO, cohort(1, 2000, 1000)).unwrap();
        d.add_cohort(SimTime::ZERO, cohort(2, 2000, 1000));
        assert_eq!(first, SimTime::from_millis(1000));
        // Crash mid-slice at t=400: cohort 1 ran 400ms of its slice.
        let lost = d.crash(SimTime::from_millis(400));
        assert_eq!(lost, vec![CohortId(1), CohortId(2)]);
        assert!(d.is_idle());
        assert_eq!(d.busy_time(), Duration::from_millis(400));
        assert_eq!(d.completed(), 0);
        // The node accepts work again after recovery.
        let next = d
            .add_cohort(SimTime::from_millis(5000), cohort(3, 500, 1000))
            .unwrap();
        assert_eq!(next, SimTime::from_millis(5500));
    }

    #[test]
    fn crash_on_idle_node_is_empty() {
        let mut d = Dpn::new();
        assert!(d.crash(SimTime::from_millis(10)).is_empty());
        assert!(d.is_idle());
    }

    #[test]
    fn load_counts_running_and_ready() {
        let mut d = Dpn::new();
        assert_eq!(d.load(), 0);
        d.add_cohort(SimTime::ZERO, cohort(1, 1000, 1000));
        d.add_cohort(SimTime::ZERO, cohort(2, 1000, 1000));
        assert_eq!(d.load(), 2);
    }
}
