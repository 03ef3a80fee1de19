//! GOW — Globally-Optimized WTPG scheduler (the paper's Fig. 4; called
//! the Chain-WTPG scheduler in \[13\]).
//!
//! * **Phase 0** (admission): a new transaction may start only if the
//!   WTPG stays *chain-form* — the conflict graph remains a disjoint
//!   union of simple paths. Its conflict set is read from the declarer
//!   rows of its lock set. Costs `toptime` per test.
//! * **Phase 1**: a request conflicting with a held lock is blocked.
//! * **Phase 2**: compute the full serializable order `W` minimizing the
//!   WTPG critical path ([`chain::min_critical`], run from scratch on
//!   each call: chain form keeps the graph small). Costs `chaintime`.
//! * **Phase 3**: granting the request implies orientations `Ti → Tj`
//!   toward every live conflicting declarer of the file; the request is
//!   granted only if those orientations are consistent with an optimal
//!   `W` — i.e. forcing them still achieves the optimal critical path.
//!   Otherwise the request is delayed.
//! * **Phase 4**: apply the newly determined precedence edges.

use crate::lock_table::LockTable;
use crate::wtpg_core::WtpgCore;
use crate::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use bds_des::time::Duration;
use bds_workload::{BatchSpec, FileId};
use bds_wtpg::chain;
use bds_wtpg::TxnId;

/// The GOW scheduler.
#[derive(Debug, Default)]
pub struct Gow {
    core: WtpgCore,
    table: LockTable,
    chain_time: Duration,
    top_time: Duration,
    /// Admission refusals due to the chain-form constraint (statistic).
    chain_refusals: u64,
    /// Scratch: conflict set collected during the chain-form test.
    conflicts_buf: Vec<TxnId>,
    /// Scratch: implied orientations of the current request.
    orient_buf: Vec<(TxnId, TxnId)>,
}

impl Gow {
    /// Create with Table 1 costs: `chaintime` (30 ms) for the order
    /// optimization and `toptime` (5 ms) for the chain-form test.
    pub fn new(chain_time: Duration, top_time: Duration) -> Self {
        Gow {
            chain_time,
            top_time,
            ..Gow::default()
        }
    }

    /// Number of chain-form admission refusals so far.
    pub fn chain_refusals(&self) -> u64 {
        self.chain_refusals
    }
}

/// The live transactions whose declarations conflict with `id`'s, read
/// from the declarer rows of `id`'s lock set (the rule
/// [`WtpgCore::add_live`] uses). `out` is cleared first and may hold
/// duplicates; [`chain::accepts_new_txn`] deduplicates.
fn admission_conflicts_into(core: &WtpgCore, id: TxnId, out: &mut Vec<TxnId>) {
    out.clear();
    for (file, mode) in core.spec(id).lock_set() {
        out.extend(core.conflicting_declarers_iter(id, file, mode));
    }
}

impl Scheduler for Gow {
    fn name(&self) -> &'static str {
        "GOW"
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.core.register(id, spec);
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        // Phase 0: chain-form test against the would-be conflict set.
        admission_conflicts_into(&self.core, id, &mut self.conflicts_buf);
        if !chain::accepts_new_txn(&self.core.graph, &self.conflicts_buf) {
            self.chain_refusals += 1;
            return Outcome::costed(StartDecision::Refuse, self.top_time).because("chain-form");
        }
        self.core.add_live(id, &self.table);
        debug_assert!(chain::is_chain_form(&self.core.graph));
        Outcome::costed(StartDecision::Admit, self.top_time)
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let s = self.core.spec(id).steps[step];
        // Phase 1: conflicts with the current lock held on the file.
        if !self.table.can_grant(id, s.file, s.mode) {
            return Outcome::free(ReqDecision::Blocked).because("lock-held");
        }
        self.core
            .implied_orientations_into(id, s.file, s.mode, &mut self.orient_buf);
        // Decided-adverse pairs make the grant non-serializable outright.
        let adverse = self.core.has_adverse_declarer(id, s.file, s.mode);
        if self.orient_buf.is_empty() && !adverse {
            // Nothing to decide: grant without running the optimizer.
            self.table.grant(id, s.file, s.mode);
            return Outcome::free(ReqDecision::Granted);
        }
        // Phase 2: the globally optimal order's critical path…
        let optimal = chain::min_critical(&self.core.graph, &[]);
        // Phase 3: …must still be achievable with the grant's
        // orientations forced.
        let forced = if adverse {
            f64::INFINITY
        } else {
            chain::min_critical(&self.core.graph, &self.orient_buf)
        };
        if forced > optimal + 1e-9 {
            let reason = if adverse {
                "decided-adverse"
            } else {
                "critical-path"
            };
            return Outcome::costed(ReqDecision::Delayed, self.chain_time).because(reason);
        }
        // Phase 4: grant and enforce the decided edges.
        self.table.grant(id, s.file, s.mode);
        self.core.apply_orientations(&self.orient_buf);
        Outcome::costed(ReqDecision::Granted, self.chain_time)
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
    fn gow() -> Gow {
        Gow::new(Duration::from_millis(30), Duration::from_millis(5))
    }
    fn w(file: FileId, cost: f64) -> Step {
        Step::write(file, cost)
    }

    #[test]
    fn admission_enforces_chain_form() {
        let mut s = gow();
        // Three transactions all updating F0: a triangle of conflicts.
        for i in 1..=3 {
            s.register(t(i), BatchSpec::new(vec![w(f(0), 1.0)]));
        }
        assert_eq!(s.try_start(t(1)).decision, StartDecision::Admit);
        assert_eq!(s.try_start(t(2)).decision, StartDecision::Admit);
        // T3 would conflict with both T1 and T2 which are already
        // adjacent — the conflict graph would become a triangle.
        assert_eq!(s.try_start(t(3)).decision, StartDecision::Refuse);
        assert_eq!(s.chain_refusals(), 1);
        // Admission costs toptime.
        assert_eq!(s.try_start(t(3)).cpu, Duration::from_millis(5));
    }

    #[test]
    fn grant_consistent_with_optimum() {
        // Two transactions conflicting on F0. T1 cheap-first: the
        // optimal order is T1 → T2 when T2's remaining-after-block cost
        // is smaller than T1's.
        let mut s = gow();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 5.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(2), 5.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        // Weights: w(T1→T2) = T2 declared from its step 1 = 1.
        //          w(T2→T1) = T1 declared from its step 0 = 6.
        // Optimal: critical(T1→T2) = max(6, 6+1) = 7;
        //          critical(T2→T1) = max(6, 6+6) = 12 → W = {T1→T2}.
        let o = s.request(t(1), 0);
        assert_eq!(o.decision, ReqDecision::Granted);
        assert_eq!(o.cpu, Duration::from_millis(30));
        // T2's later request for F0 conflicts with the held lock: blocked.
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Blocked);
    }

    #[test]
    fn inconsistent_grant_is_delayed() {
        let mut s = gow();
        // Mirror of the above: now T2 requests first, but granting T2
        // the lock on F0 would force T2 → T1 whose critical path is
        // worse than the optimum → delayed.
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 5.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(2), 5.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        let o = s.request(t(2), 1);
        assert_eq!(o.decision, ReqDecision::Delayed);
        assert_eq!(o.reason, Some("critical-path"));
        // After T1 takes and finishes with F0 the order is decided
        // T1 → T2; once T1 commits, T2's request succeeds.
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        s.commit(t(1));
        assert_eq!(s.request(t(2), 1).decision, ReqDecision::Granted);
    }

    #[test]
    fn non_conflicting_requests_grant_without_optimizer() {
        let mut s = gow();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        let o = s.request(t(1), 0);
        assert_eq!(o.decision, ReqDecision::Granted);
        assert!(o.cpu.is_zero(), "no conflicts → no chaintime");
    }

    #[test]
    fn serializable_constraints() {
        let mut s = gow();
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 2.0), w(f(2), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        let _ = s.request(t(1), 0);
        let _ = s.request(t(2), 0);
        let _ = s.request(t(1), 1);
        s.commit(t(1));
        s.commit(t(2));
        let cs = s.drain_constraints();
        assert!(bds_wtpg::oracle::is_serializable(&cs), "{cs:?}");
    }

    /// The declarer-row conflict set equals a scan of every live
    /// transaction with `conflict::conflicts`, on random shared/exclusive
    /// declarations through admissions, refusals and commits.
    #[test]
    fn admission_conflicts_match_all_live_scan() {
        use bds_workload::spec::LockMode;
        let (mut admissions, mut refusals, mut nonempty) = (0, 0, 0);
        for case in 0..96u64 {
            let mut r = bds_des::rng::Xoshiro256::seed_from_u64(0x60E ^ case);
            let mut s = gow();
            let n = 16u64;
            for i in 0..n {
                let steps = (0..1 + r.next_index(3))
                    .map(|_| {
                        let file = f(r.next_range(8) as u32);
                        if r.next_range(2) == 0 {
                            Step::read(file, LockMode::Shared, 1.0)
                        } else {
                            w(file, 1.0)
                        }
                    })
                    .collect();
                s.register(t(i), BatchSpec::new(steps));
            }
            let mut committed = vec![false; n as usize];
            let mut rows = Vec::new();
            for _ in 0..80 {
                let i = r.next_range(n);
                let id = t(i);
                if committed[i as usize] {
                    continue;
                }
                if s.core.is_live(id) {
                    s.commit(id);
                    committed[i as usize] = true;
                    continue;
                }
                let spec = s.core.spec(id);
                let scan: Vec<TxnId> = s
                    .core
                    .graph
                    .txns()
                    .filter(|&o| bds_workload::conflict::conflicts(spec, s.core.spec(o)))
                    .collect();
                admission_conflicts_into(&s.core, id, &mut rows);
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(rows, scan, "case {case} {id:?}");
                nonempty += usize::from(!scan.is_empty());
                let expect = chain::accepts_new_txn(&s.core.graph, &scan);
                match s.try_start(id).decision {
                    StartDecision::Admit => admissions += 1,
                    StartDecision::Refuse => refusals += 1,
                }
                assert_eq!(s.core.is_live(id), expect, "case {case} {id:?}");
            }
        }
        assert!(
            admissions > 100 && refusals > 100 && nonempty > 100,
            "{admissions} / {refusals} / {nonempty}"
        );
    }

    #[test]
    fn chain_extension_at_endpoints_is_accepted() {
        let mut s = gow();
        // T1-T2 conflict on F0; T3 conflicts with T2 on F1 (an endpoint).
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(3), BatchSpec::new(vec![w(f(1), 1.0)]));
        assert_eq!(s.try_start(t(1)).decision, StartDecision::Admit);
        assert_eq!(s.try_start(t(2)).decision, StartDecision::Admit);
        assert_eq!(s.try_start(t(3)).decision, StartDecision::Admit);
        assert_eq!(s.live_count(), 3);
    }
}
