//! ASL — Atomic Static Locking (conservative two-phase locking).
//!
//! A transaction must obtain **all** the locks it declared, atomically,
//! at its start; otherwise it does not start at all. Running
//! transactions therefore never block and never deadlock — the paper's
//! requirement (1) "avoiding chains of blocking" and (3) "no rollback"
//! are satisfied by construction, at the price of starting fewer
//! transactions when the lock set touches a hot file (requirement (2)
//! fails — Table 4 shows ASL worst on the hot-set workload).

use crate::lock_table::LockTable;
use crate::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use bds_workload::{BatchSpec, FileId};
use bds_wtpg::TxnId;
use std::collections::BTreeMap;

/// The ASL scheduler.
#[derive(Debug, Default)]
pub struct Asl {
    table: LockTable,
    specs: BTreeMap<TxnId, BatchSpec>,
    live: std::collections::BTreeSet<TxnId>,
    constraints: Vec<(TxnId, TxnId)>,
    /// Pending declarers per file, used to record precedence constraints
    /// for the serializability audit (grant order = serialization order).
    grant_log: BTreeMap<FileId, Vec<TxnId>>,
}

impl Asl {
    /// Create the scheduler.
    pub fn new() -> Self {
        Asl::default()
    }
}

impl Scheduler for Asl {
    fn name(&self) -> &'static str {
        "ASL"
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        let prev = self.specs.insert(id, spec);
        assert!(prev.is_none(), "duplicate registration of {id:?}");
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        let spec = &self.specs[&id];
        let lock_set = spec.lock_set();
        // The refusal stands until a holder of the first unavailable
        // file leaves: held locks only grow until then.
        if let Some(&(file, _)) = lock_set
            .iter()
            .find(|&&(file, mode)| !self.table.can_grant(id, file, mode))
        {
            return Outcome::free(StartDecision::Refuse)
                .because("lock-set-unavailable")
                .until_released(file);
        }
        for (file, mode) in lock_set {
            self.table.grant(id, file, mode);
            // Serialization audit: this txn follows every earlier grantee
            // of the same file that is still live and conflicting.
            if let Some(log) = self.grant_log.get(&file) {
                for &earlier in log {
                    if self.live.contains(&earlier) {
                        self.constraints.push((earlier, id));
                    }
                }
            }
            self.grant_log.entry(file).or_default().push(id);
        }
        self.live.insert(id);
        Outcome::free(StartDecision::Admit)
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let spec = &self.specs[&id];
        let s = &spec.steps[step];
        assert!(
            self.table.holds_sufficient(id, s.file, s.mode),
            "ASL transaction {id:?} executed without its pre-acquired lock"
        );
        Outcome::free(ReqDecision::Granted)
    }

    fn step_complete(&mut self, _id: TxnId, _step: usize) {}

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
        self.live.remove(&id);
        self.specs.remove(&id);
        for log in self.grant_log.values_mut() {
            log.retain(|&t| t != id);
        }
        self.table.release_all_into(id, released);
    }

    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.live.remove(&id);
        // Void the aborted attempt's undrained audit constraints: a
        // restarted attempt may be ordered the other way.
        self.constraints.retain(|&(a, b)| a != id && b != id);
        self.table.release_all_into(id, released);
    }

    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        // Same cleanup as commit: drop the registration and every
        // grant-log row so nothing dangles for a transaction that will
        // never restart.
        self.live.remove(&id);
        self.specs.remove(&id);
        for log in self.grant_log.values_mut() {
            log.retain(|&t| t != id);
        }
        self.constraints.retain(|&(a, b)| a != id && b != id);
        self.table.release_all_into(id, released);
    }

    fn live_count(&self) -> usize {
        self.live.len()
    }

    fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        std::mem::take(&mut self.constraints)
    }

    fn telemetry(&self) -> SchedTelemetry {
        SchedTelemetry {
            locks_held: self.table.total_locks(),
            ..SchedTelemetry::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_workload::spec::Step;
    use bds_workload::LockMode;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }
    fn f(i: u32) -> FileId {
        FileId(i)
    }

    fn w(file: FileId, cost: f64) -> Step {
        Step::write(file, cost)
    }

    #[test]
    fn admits_only_with_full_lock_set() {
        let mut s = Asl::new();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(2), 1.0)]));
        s.register(t(3), BatchSpec::new(vec![w(f(3), 1.0)]));
        assert_eq!(s.try_start(t(1)).decision, StartDecision::Admit);
        // t2 shares f1 with t1: refused.
        assert_eq!(s.try_start(t(2)).decision, StartDecision::Refuse);
        // t3 is disjoint: admitted.
        assert_eq!(s.try_start(t(3)).decision, StartDecision::Admit);
        assert_eq!(s.live_count(), 2);
        // After t1 commits, t2 can start.
        let released = s.commit(t(1));
        assert_eq!(released, vec![f(0), f(1)]);
        assert_eq!(s.try_start(t(2)).decision, StartDecision::Admit);
    }

    #[test]
    fn running_transactions_never_block() {
        let mut s = Asl::new();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.try_start(t(1));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(1), 1).decision, ReqDecision::Granted);
    }

    #[test]
    fn shared_lock_sets_coexist() {
        let mut s = Asl::new();
        let read = |file| BatchSpec::new(vec![Step::read(file, LockMode::Shared, 2.0)]);
        s.register(t(1), read(f(0)));
        s.register(t(2), read(f(0)));
        assert_eq!(s.try_start(t(1)).decision, StartDecision::Admit);
        assert_eq!(s.try_start(t(2)).decision, StartDecision::Admit);
    }

    #[test]
    fn constraints_follow_grant_order() {
        let mut s = Asl::new();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        s.commit(t(1));
        s.try_start(t(2));
        // t1 was no longer live when t2 started: no constraint needed.
        assert!(s.drain_constraints().is_empty());
    }
}
