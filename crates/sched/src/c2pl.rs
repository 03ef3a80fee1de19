//! C2PL — Cautious Two-Phase Locking (Nishio et al. \[12\]).
//!
//! Strict 2PL over declared accesses with **deadlock prediction**: the
//! scheduler keeps an (unweighted) transaction-precedence graph over the
//! live transactions; a lock grant orients `Ti → Tj` toward every live
//! conflicting declarer `Tj` of the file. A request is granted iff it is
//! compatible with the held locks **and** its orientations cannot close
//! a precedence cycle (which would inevitably lead to a deadlock among
//! blocked transactions). A request that would close a cycle is
//! *delayed*; one that merely conflicts with a held lock is *blocked*.
//! C2PL never deadlocks and never aborts, but it does build chains of
//! blocking — the paper's §5 shows exactly that weakness.

use crate::lock_table::LockTable;
use crate::wtpg_core::WtpgCore;
use crate::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use bds_des::time::Duration;
use bds_workload::{BatchSpec, FileId};
use bds_wtpg::{paths, TxnId};

/// The C2PL scheduler. (C2PL+M is this scheduler under a finite
/// multiprogramming level imposed by the simulator.)
#[derive(Debug, Default)]
pub struct C2pl {
    core: WtpgCore,
    table: LockTable,
    dd_time: Duration,
    /// Topological order of the precedence graph, which is a DAG by
    /// construction: deadlock prediction searches only the window below
    /// the requester.
    order: paths::TopoOrder,
    /// Scratch: implied orientations of the current request.
    orient_buf: Vec<(TxnId, TxnId)>,
}

impl C2pl {
    /// Create with the deadlock-detection CPU cost (`ddtime`, 1 ms).
    pub fn new(dd_time: Duration) -> Self {
        C2pl {
            dd_time,
            ..C2pl::default()
        }
    }

    /// Would applying these orientations close a precedence cycle?
    fn creates_cycle(
        order: &mut paths::TopoOrder,
        core: &WtpgCore,
        orientations: &[(TxnId, TxnId)],
    ) -> bool {
        if core.any_inconsistent(orientations) {
            return true;
        }
        // A cycle appears iff `to ⇝ from` already holds for some new
        // edge `from → to`. All added edges leave the same `from`, so
        // they cannot chain with each other: one multi-source search
        // from the `to` set looking for `from` suffices.
        let from = match orientations.first() {
            Some(&(f, _)) => f,
            None => return false,
        };
        debug_assert!(orientations.iter().all(|&(f, _)| f == from));
        order.reachable_from_any(&core.graph, orientations.iter().map(|&(_, to)| to), from)
    }
}

impl Scheduler for C2pl {
    fn name(&self) -> &'static str {
        "C2PL"
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.core.register(id, spec);
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        self.core.add_live(id, &self.table);
        // Its only decided edges are holder → `id`: they point forward.
        self.order.admit(&self.core.graph, id);
        Outcome::free(StartDecision::Admit)
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let s = self.core.spec(id).steps[step];
        // Phase 1: conflicts with a held lock → blocked.
        if !self.table.can_grant(id, s.file, s.mode) {
            return Outcome::costed(ReqDecision::Blocked, self.dd_time)
                .because("lock-held")
                .until_released(s.file);
        }
        // Phase 2: deadlock prediction over declared accesses.
        self.core
            .implied_orientations_into(id, s.file, s.mode, &mut self.orient_buf);
        if Self::creates_cycle(&mut self.order, &self.core, &self.orient_buf) {
            return Outcome::costed(ReqDecision::Delayed, self.dd_time)
                .because("predicted-deadlock");
        }
        // Grant.
        self.table.grant(id, s.file, s.mode);
        self.core.apply_orientations(&self.orient_buf);
        for &(from, to) in &self.orient_buf {
            self.order.edge_decided(&self.core.graph, from, to);
        }
        Outcome::costed(ReqDecision::Granted, self.dd_time)
    }

    fn step_complete(&mut self, id: TxnId, step: usize) {
        // C2PL's graph is unweighted, but keeping remaining demand
        // up to date costs nothing and aids debugging.
        self.core.step_complete(id, step);
    }

    fn validate(&mut self, _id: TxnId) -> Outcome<bool> {
        Outcome::free(true)
    }

    fn commit(&mut self, id: TxnId) -> Vec<FileId> {
        let mut out = Vec::new();
        self.commit_into(id, &mut out);
        out
    }

    fn abort(&mut self, id: TxnId) -> Vec<FileId> {
        let mut out = Vec::new();
        self.abort_into(id, &mut out);
        out
    }

    fn commit_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.core.remove(id);
        self.table.release_all_into(id, released);
    }

    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.core.remove_live_only(id);
        self.core.purge_constraints(id);
        self.table.release_all_into(id, released);
    }

    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        // Permanent kill: drop the WTPG slot, spec and every lock row.
        self.core.remove(id);
        self.core.purge_constraints(id);
        self.table.release_all_into(id, released);
    }

    fn live_count(&self) -> usize {
        self.core.live_count()
    }

    fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        self.core.drain_constraints()
    }

    fn telemetry(&self) -> SchedTelemetry {
        let (wtpg_slots, wtpg_free) = self.core.graph.arena_stats();
        SchedTelemetry {
            locks_held: self.table.total_locks(),
            wtpg_nodes: self.core.graph.len(),
            wtpg_edges: self.core.graph.edges().count(),
            wtpg_slots,
            wtpg_free,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_workload::spec::Step;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }
    fn f(i: u32) -> FileId {
        FileId(i)
    }
    fn c2pl() -> C2pl {
        C2pl::new(Duration::from_millis(1))
    }
    fn w(file: FileId, cost: f64) -> Step {
        Step::write(file, cost)
    }

    #[test]
    fn grants_are_charged_ddtime() {
        let mut s = c2pl();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        let o = s.request(t(1), 0);
        assert_eq!(o.decision, ReqDecision::Granted);
        assert_eq!(o.cpu, Duration::from_millis(1));
    }

    #[test]
    fn conflicting_request_blocks() {
        let mut s = c2pl();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Blocked);
        // After t1 commits the lock is free again.
        let released = s.commit(t(1));
        assert_eq!(released, vec![f(0)]);
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
    }

    /// The textbook deadlock: T1 takes A then wants B; T2 takes B then
    /// wants A. C2PL must delay the *second* acquisition that would
    /// close the cycle, not block into a deadlock.
    #[test]
    fn predicted_deadlock_is_delayed() {
        let mut s = c2pl();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        // T1 gets A; orientation T1 → T2 (T2 declared A).
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        // T2 requests B: would orient T2 → T1, closing the cycle.
        let o = s.request(t(2), 0);
        assert_eq!(o.decision, ReqDecision::Delayed);
        assert_eq!(o.reason, Some("predicted-deadlock"));
        // T1 can proceed to B (consistent direction), then commit.
        assert_eq!(s.request(t(1), 1).decision, ReqDecision::Granted);
        s.commit(t(1));
        // Now T2 is alone and gets both locks.
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Granted);
    }

    #[test]
    fn chains_of_blocking_are_allowed() {
        // T1 holds F0; T2 waits on F0 while holding F1; T3 waits on F1.
        // No cycle: all fine for C2PL (this is exactly its weakness).
        let mut s = c2pl();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(0), 1.0)]));
        s.register(t(3), BatchSpec::new(vec![w(f(1), 1.0)]));
        for i in 1..=3 {
            s.try_start(t(i));
        }
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Blocked);
        assert_eq!(s.request(t(3), 0).decision, ReqDecision::Blocked);
    }

    #[test]
    fn constraints_are_serializable() {
        let mut s = c2pl();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        let _ = s.request(t(1), 0);
        let _ = s.request(t(2), 0);
        let _ = s.request(t(1), 1);
        s.commit(t(1));
        let _ = s.request(t(2), 0);
        let _ = s.request(t(2), 1);
        s.commit(t(2));
        let cs = s.drain_constraints();
        assert!(bds_wtpg::oracle::is_serializable(&cs), "{cs:?}");
    }

    #[test]
    fn late_starter_is_ordered_after_holder() {
        let mut s = c2pl();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        let _ = s.request(t(1), 0);
        // T2 starts while T1 holds the conflicting lock.
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(2));
        let cs = s.drain_constraints();
        assert!(cs.contains(&(t(1), t(2))));
    }
}
