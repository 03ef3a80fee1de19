//! Brook-2PL — deadlock-free two-phase locking via total lock ordering
//! (arXiv 2508.18576, adapted to the paper's declared-lock-set model).
//!
//! Brook-2PL eliminates deadlocks *structurally*: all lock acquisition
//! follows one global total order over the lock space (the SLW-graph's
//! topological order — here, ascending [`FileId`], the canonical order
//! for an unstructured file universe). A transaction acquires its
//! declared locks as an ascending **prefix**: before executing a step on
//! file `f` it first acquires every declared lock on files `≤ f` it does
//! not yet hold, in order, each at its strongest declared mode (so S→X
//! upgrades — the classic hidden deadlock — never happen). If some lock
//! in the prefix is unavailable the request blocks *without holding
//! anything beyond the prefix below it*.
//!
//! Deadlock-freedom argument: every blocked transaction waits on a file
//! strictly greater (in the total order) than every lock it holds, so a
//! wait-for cycle would have to be strictly increasing in file order all
//! the way around — impossible. Consequently Brook never issues
//! [`ReqDecision::Restart`]: `aborts_scheduler` is exactly 0 in every
//! run, which the chaos corpus asserts.
//!
//! The same property makes the grant-time precedence orientations
//! (shared [`WtpgCore`] machinery, as in C2PL) provably consistent:
//! `apply_orientations`'s inconsistency panic doubles as a structural
//! assertion, and [`Scheduler::audit_invariant`] re-checks the prefix
//! discipline on demand.

use crate::lock_table::LockTable;
use crate::wtpg_core::WtpgCore;
use crate::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use bds_des::time::Duration;
use bds_workload::{BatchSpec, FileId, LockMode};
use bds_wtpg::TxnId;
use std::collections::BTreeMap;

/// The Brook-2PL scheduler.
#[derive(Debug, Default)]
pub struct Brook {
    core: WtpgCore,
    table: LockTable,
    dd_time: Duration,
    /// Declared lock set per registered transaction, sorted ascending by
    /// file (the global acquisition order), each at its strongest mode.
    order: BTreeMap<TxnId, Vec<(FileId, LockMode)>>,
    /// Length of the acquired prefix of `order`, per live transaction.
    acquired: BTreeMap<TxnId, usize>,
    /// Scratch: implied orientations of the current grant.
    orient_buf: Vec<(TxnId, TxnId)>,
}

impl Brook {
    /// Create with the per-request CPU cost (`ddtime`).
    pub fn new(dd_time: Duration) -> Self {
        Brook {
            dd_time,
            ..Brook::default()
        }
    }
}

impl Scheduler for Brook {
    fn name(&self) -> &'static str {
        "BROOK"
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        let mut sorted = spec.lock_set();
        sorted.sort_unstable_by_key(|&(file, _)| file);
        self.order.insert(id, sorted);
        self.core.register(id, spec);
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        self.core.add_live(id, &self.table);
        self.acquired.insert(id, 0);
        Outcome::free(StartDecision::Admit)
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let s = self.core.spec(id).steps[step];
        // Extend the acquired prefix up through the step's file, in the
        // global order. Blocking mid-prefix leaves the invariant intact:
        // the held set is still an exact prefix.
        loop {
            let k = self.acquired[&id];
            let (file, mode) = match self.order[&id].get(k) {
                Some(&(file, mode)) if file <= s.file => (file, mode),
                _ => break,
            };
            if !self.table.can_grant(id, file, mode) {
                return Outcome::costed(ReqDecision::Blocked, self.dd_time)
                    .because("slw-order")
                    .until_released(file);
            }
            self.table.grant(id, file, mode);
            // Grant-time precedence: `id` now precedes every live
            // conflicting declarer of `file`. Ascending acquisition makes
            // a reverse orientation impossible (see the module docs);
            // `apply_orientations` panics if that ever breaks.
            self.core
                .implied_orientations_into(id, file, mode, &mut self.orient_buf);
            self.core.apply_orientations(&self.orient_buf);
            self.acquired.insert(id, k + 1);
        }
        debug_assert!(
            self.table.holds_sufficient(id, s.file, s.mode),
            "Brook prefix through {:?} does not cover step file {:?}",
            self.order[&id].get(self.acquired[&id].wrapping_sub(1)),
            s.file
        );
        Outcome::costed(ReqDecision::Granted, self.dd_time)
    }

    fn step_complete(&mut self, id: TxnId, step: usize) {
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
        self.order.remove(&id);
        self.acquired.remove(&id);
        self.table.release_all_into(id, released);
    }

    fn abort_into(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        // Keep the registration (and its sorted order) for the restart.
        self.core.remove_live_only(id);
        self.core.purge_constraints(id);
        self.acquired.remove(&id);
        self.table.release_all_into(id, released);
    }

    fn forget(&mut self, id: TxnId, released: &mut Vec<FileId>) {
        self.core.remove(id);
        self.core.purge_constraints(id);
        self.order.remove(&id);
        self.acquired.remove(&id);
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

    fn audit_invariant(&self) -> Option<Result<(), String>> {
        // Structural zero-deadlock invariant: every live transaction's
        // held locks are exactly the ascending prefix of its sorted
        // declared set, at the declared modes. A waiter therefore waits
        // on a file strictly above everything it holds, and no wait-for
        // cycle can close.
        for (&id, &k) in &self.acquired {
            let order = &self.order[&id];
            let held = self.table.files_of(id);
            if held.len() != k {
                return Some(Err(format!(
                    "{id:?} holds {} locks but its acquired prefix is {k}",
                    held.len()
                )));
            }
            for (i, &(file, mode)) in order[..k].iter().enumerate() {
                if held[i] != file {
                    return Some(Err(format!(
                        "{id:?} holdings diverge from the SLW prefix at {i}: \
                         held {:?}, declared {file:?}",
                        held[i]
                    )));
                }
                if !self.table.holds_sufficient(id, file, mode) {
                    return Some(Err(format!(
                        "{id:?} holds {file:?} below its declared mode {mode:?}"
                    )));
                }
            }
        }
        Some(Ok(()))
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
    fn w(file: FileId, cost: f64) -> Step {
        Step::write(file, cost)
    }
    fn brook() -> Brook {
        Brook::new(Duration::from_millis(1))
    }

    /// The textbook deadlock: T1 takes A then B, T2 takes B then A. The
    /// total order forces both to acquire A first, so the second txn
    /// blocks up front instead of deadlocking halfway.
    #[test]
    fn opposite_acquisition_orders_cannot_deadlock() {
        let mut s = brook();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        // T2's first step is on F1, but the order makes it acquire F0
        // first — held by T1, so it blocks holding nothing.
        let o = s.request(t(2), 0);
        assert_eq!(o.decision, ReqDecision::Blocked);
        assert_eq!(o.reason, Some("slw-order"));
        assert!(s.table.files_of(t(2)).is_empty());
        assert_eq!(s.audit_invariant(), Some(Ok(())));
        assert_eq!(s.request(t(1), 1).decision, ReqDecision::Granted);
        s.commit(t(1));
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Granted);
        s.commit(t(2));
    }

    #[test]
    fn locks_are_acquired_at_strongest_declared_mode() {
        // S then X on the same file: Brook takes X up front, so the
        // upgrade deadlock (two sharers both upgrading) cannot occur.
        let mut s = brook();
        let spec = BatchSpec::new(vec![
            Step::read(f(0), LockMode::Shared, 1.0),
            Step::write(f(0), 1.0),
        ]);
        s.register(t(1), spec.clone());
        s.register(t(2), spec);
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.table.mode_held(t(1), f(0)), Some(LockMode::Exclusive));
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Blocked);
        s.commit(t(1));
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Granted);
    }

    #[test]
    fn prefix_covers_later_out_of_order_steps() {
        // Steps visit F2 then F0; the prefix through F2 includes F0, so
        // the later step on F0 is already covered.
        let mut s = brook();
        s.register(t(1), BatchSpec::new(vec![w(f(2), 1.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.table.files_of(t(1)), &[f(0), f(2)]);
        assert_eq!(s.audit_invariant(), Some(Ok(())));
        assert_eq!(s.request(t(1), 1).decision, ReqDecision::Granted);
    }

    #[test]
    fn blocked_waiter_resumes_after_release() {
        let mut s = brook();
        s.register(t(1), BatchSpec::new(vec![w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        // T2 acquires F0 fine, then blocks on F1 holding its prefix.
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Blocked);
        assert_eq!(s.table.files_of(t(2)), &[f(0)]);
        assert_eq!(s.audit_invariant(), Some(Ok(())));
        let released = s.commit(t(1));
        assert_eq!(released, vec![f(1)]);
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Granted);
    }

    #[test]
    fn constraints_follow_the_lock_order() {
        let mut s = brook();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Blocked);
        s.commit(t(1));
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
        s.commit(t(2));
        let cs = s.drain_constraints();
        assert!(bds_wtpg::oracle::is_serializable(&cs), "{cs:?}");
        assert!(cs.contains(&(t(1), t(2))));
    }

    #[test]
    fn abort_resets_the_prefix_for_the_restart() {
        let mut s = brook();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.try_start(t(1));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        let released = s.abort(t(1));
        assert_eq!(released, vec![f(0)]);
        assert_eq!(s.live_count(), 0);
        // Restart: the registration survived, the prefix starts over.
        s.try_start(t(1));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        s.commit(t(1));
        assert_eq!(s.telemetry().locks_held, 0);
    }

    #[test]
    fn forget_leaves_no_state_behind() {
        let mut s = brook();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        let _ = s.request(t(1), 0);
        let mut rel = Vec::new();
        s.forget(t(1), &mut rel);
        assert_eq!(rel, vec![f(0)]);
        let tel = s.telemetry();
        assert_eq!(tel.locks_held, 0);
        assert_eq!(tel.wtpg_nodes, 0);
        assert_eq!(tel.wtpg_slots - tel.wtpg_free, 0);
        assert!(s.order.is_empty());
        assert!(s.acquired.is_empty());
    }

    /// Randomized structural fuzz: drive many conflicting transactions
    /// through admission/request/commit in a random interleaving and
    /// re-check the prefix invariant after every single call.
    #[test]
    fn prefix_invariant_holds_under_random_interleavings() {
        use bds_des::rng::Xoshiro256;
        for case in 0..50u64 {
            let mut rng = Xoshiro256::seed_from_u64(0xB200C ^ case.wrapping_mul(0x9E37_79B9));
            let mut s = brook();
            let n = 8u64;
            let mut next_step: Vec<usize> = vec![0; n as usize + 1];
            for i in 1..=n {
                let mut steps = Vec::new();
                for _ in 0..(rng.next_range(3) + 1) {
                    let file = f(rng.next_range(4) as u32);
                    if rng.next_range(2) == 0 {
                        steps.push(Step::read(file, LockMode::Shared, 1.0));
                    } else {
                        steps.push(w(file, 1.0));
                    }
                }
                s.register(t(i), BatchSpec::new(steps));
                s.try_start(t(i));
            }
            let mut done = 0;
            let mut spins = 0;
            while done < n && spins < 10_000 {
                spins += 1;
                let i = rng.next_range(n) + 1;
                if !s.core.is_live(t(i)) {
                    continue;
                }
                let len = s.core.spec(t(i)).len();
                let step = next_step[i as usize];
                if step >= len {
                    s.commit(t(i));
                    done += 1;
                } else if s.request(t(i), step).decision == ReqDecision::Granted {
                    s.step_complete(t(i), step);
                    next_step[i as usize] += 1;
                }
                if let Some(Err(e)) = s.audit_invariant() {
                    panic!("case {case}: {e}");
                }
            }
            // Deadlock-freedom in action: random scheduling always
            // drains the whole set (no livelock, no stuck cycle).
            assert_eq!(done, n, "case {case}: transactions wedged");
            let cs = s.drain_constraints();
            assert!(bds_wtpg::oracle::is_serializable(&cs), "case {case}");
        }
    }
}
