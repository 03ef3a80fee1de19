//! LOW — Locally-Optimized WTPG scheduler (the paper's Fig. 7; called
//! the K-conflict WTPG scheduler in \[13\]).
//!
//! LOW relaxes GOW's chain-form constraint: any conflict graph is
//! allowed as long as no access-declaration conflicts with more than
//! `K` other declarations on the same file (the paper evaluates K = 2).
//! On a lock request `q` it computes the *local* contention estimate
//! `E(q)` — the WTPG critical path after tentatively granting `q`
//! (deadlock ⇒ ∞) — and grants `q` only if `E(q) ≤ E(p)` for every
//! conflicting declaration `p` on the same file; otherwise the lock
//! should rather go to the transaction declaring the cheaper `p`, and
//! `q` is delayed. Each `E(·)` evaluation costs `kwtpgtime`.

use crate::lock_table::LockTable;
use crate::wtpg_core::WtpgCore;
use crate::{Outcome, ReqDecision, SchedTelemetry, Scheduler, StartDecision};
use bds_des::time::Duration;
use bds_workload::{BatchSpec, FileId, LockMode};
use bds_wtpg::{eq, paths, TxnId};

/// The LOW scheduler.
#[derive(Debug, Default)]
pub struct Low {
    core: WtpgCore,
    table: LockTable,
    k: u32,
    kwtpg_time: Duration,
    k_refusals: u64,
    /// Reused trial graph + traversal marks for `E(·)` evaluations.
    scratch: eq::EqScratch,
    /// Reused traversal state for post-grant propagation.
    ps: paths::Scratch,
    /// Scratch: orientations implied by granting the request `q`.
    orient_q: Vec<(TxnId, TxnId)>,
    /// Scratch: orientations implied by granting a competitor `p`.
    orient_p: Vec<(TxnId, TxnId)>,
}

impl Low {
    /// Create with the conflict bound `K` (paper: 2) and `kwtpgtime`
    /// (10 ms) per `E(·)` evaluation.
    pub fn new(k: u32, kwtpg_time: Duration) -> Self {
        Low {
            k,
            kwtpg_time,
            ..Low::default()
        }
    }

    /// Number of K-conflict admission refusals so far.
    pub fn k_refusals(&self) -> u64 {
        self.k_refusals
    }

    /// Would admitting `id` violate the K-conflict bound for any
    /// declaration (the candidate's or a live transaction's)? Reads only
    /// the live declarers of `id`'s files.
    fn violates_k(&self, id: TxnId) -> bool {
        self.core
            .spec(id)
            .lock_set()
            .into_iter()
            .any(|(file, mode)| {
                let mut count = 0u32;
                for &(other, m) in self.core.declarers(file) {
                    if other == id || m.compatible(mode) {
                        continue;
                    }
                    count += 1;
                    // The other side's declaration also gains a
                    // conflicting partner; its own count must stay
                    // within K too.
                    let other_count =
                        self.core.conflicting_declarer_count(other, file, m) as u32 + 1;
                    if other_count > self.k {
                        return true;
                    }
                }
                count > self.k
            })
    }

    /// Fill `out` with the orientations implied by granting a lock of
    /// `mode` on `file` to `who` (toward every conflicting declarer,
    /// decided or not — `eval_grant` maps decided-adverse pairs to ∞).
    fn fill_grant_orientations(
        core: &WtpgCore,
        who: TxnId,
        file: FileId,
        mode: LockMode,
        out: &mut Vec<(TxnId, TxnId)>,
    ) {
        out.clear();
        out.extend(
            core.conflicting_declarers_iter(who, file, mode)
                .map(|other| (who, other)),
        );
    }
}

impl Scheduler for Low {
    fn name(&self) -> &'static str {
        "LOW"
    }

    fn register(&mut self, id: TxnId, spec: BatchSpec) {
        self.core.register(id, spec);
    }

    fn try_start(&mut self, id: TxnId) -> Outcome<StartDecision> {
        if self.violates_k(id) {
            self.k_refusals += 1;
            return Outcome::free(StartDecision::Refuse).because("k-conflict");
        }
        self.core.add_live(id, &self.table);
        Outcome::free(StartDecision::Admit)
    }

    fn request(&mut self, id: TxnId, step: usize) -> Outcome<ReqDecision> {
        let s = self.core.spec(id).steps[step];
        // Phase 1: conflicts with the current lock held on the file.
        if !self.table.can_grant(id, s.file, s.mode) {
            return Outcome::free(ReqDecision::Blocked).because("lock-held");
        }
        if self.core.conflicting_declarer_count(id, s.file, s.mode) == 0 {
            // No contention on this file at all: grant for free.
            self.table.grant(id, s.file, s.mode);
            return Outcome::free(ReqDecision::Granted);
        }
        // Phase 2: E(q).
        let mut cpu = self.kwtpg_time;
        Self::fill_grant_orientations(&self.core, id, s.file, s.mode, &mut self.orient_q);
        let e_q = eq::eval_grant_with(&mut self.scratch, &self.core.graph, &self.orient_q);
        if e_q.is_infinite() {
            // Granting q would deadlock (or contradict a decided order).
            return Outcome::costed(ReqDecision::Delayed, cpu).because("deadlock-risk");
        }
        // Phase 3: E(p) for each conflicting declaration p on the file,
        // capped at K competitors (deterministically: the first K in
        // declaration order — they are the requester's own orientation
        // targets, `(id, other)` pairs of `orient_q`).
        for i in 0..self.orient_q.len().min(self.k as usize) {
            let (_, other) = self.orient_q[i];
            // Skip declarations whose order against `id` is already
            // decided `id → other` — they can no longer win the lock
            // first.
            if self.core.graph.is_decided(id, other) {
                continue;
            }
            let other_mode = self
                .core
                .spec(other)
                .mode_on(s.file)
                .expect("declarer must declare the file");
            Self::fill_grant_orientations(
                &self.core,
                other,
                s.file,
                other_mode,
                &mut self.orient_p,
            );
            let e_p = eq::eval_grant_with(&mut self.scratch, &self.core.graph, &self.orient_p);
            cpu += self.kwtpg_time;
            if e_q > e_p + 1e-9 {
                return Outcome::costed(ReqDecision::Delayed, cpu).because("E(q)>E(p)");
            }
        }
        // Phase 4: grant, orient, propagate forced pairs (Fig. 6).
        self.table.grant(id, s.file, s.mode);
        {
            // Keep only the still-undecided orientations, in order.
            let graph = &self.core.graph;
            self.orient_q
                .retain(|&(from, to)| !graph.is_decided(from, to));
        }
        self.core.apply_orientations(&self.orient_q);
        self.ps
            .propagate(&mut self.core.graph)
            .expect("E(q) was finite, propagation cannot contradict");
        Outcome::costed(ReqDecision::Granted, cpu)
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
    fn low(k: u32) -> Low {
        Low::new(k, Duration::from_millis(10))
    }
    fn w(file: FileId, cost: f64) -> Step {
        Step::write(file, cost)
    }

    #[test]
    fn k_limit_bounds_admission() {
        let mut s = low(2);
        for i in 1..=4 {
            s.register(t(i), BatchSpec::new(vec![w(f(0), 1.0)]));
        }
        assert_eq!(s.try_start(t(1)).decision, StartDecision::Admit);
        assert_eq!(s.try_start(t(2)).decision, StartDecision::Admit);
        assert_eq!(s.try_start(t(3)).decision, StartDecision::Admit);
        // A fourth X-declarer would give everyone 3 conflicting
        // declarations (> K = 2).
        assert_eq!(s.try_start(t(4)).decision, StartDecision::Refuse);
        assert_eq!(s.k_refusals(), 1);
    }

    #[test]
    fn k1_still_allows_non_chain_graphs() {
        // The paper: "Even at K=1, LOW allows a non chain-form WTPG."
        // A star: center conflicts once per file with three leaves, each
        // on a different file, so every declaration has exactly 1
        // conflict.
        let mut s = low(1);
        s.register(
            t(1),
            BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0), w(f(2), 1.0)]),
        );
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(3), BatchSpec::new(vec![w(f(1), 1.0)]));
        s.register(t(4), BatchSpec::new(vec![w(f(2), 1.0)]));
        for i in 1..=4 {
            assert_eq!(
                s.try_start(t(i)).decision,
                StartDecision::Admit,
                "txn {i} refused"
            );
        }
        // Degree of T1 in the conflict graph is 3 — not chain-form.
        assert_eq!(s.core.graph.degree(t(1)), 3);
    }

    #[test]
    fn cheaper_competitor_wins_the_lock() {
        let mut s = low(2);
        // T1: expensive remaining work after taking F0; T2 cheap.
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 9.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        // E(T1 grant): orient T1→T2: critical ≈ t0(T1) + w(T1→T2)
        //   = 10 + 1 = 11.
        // E(T2 grant): orient T2→T1: critical ≈ t0(T2) + w(T2→T1)
        //   = 1 + 10 = 11.
        // Tie → both may be granted; make T1 strictly worse by raising
        // its remaining demand.
        // (With these numbers E(q)=E(p): LOW grants q on ≤.)
        let o = s.request(t(1), 0);
        assert_eq!(o.decision, ReqDecision::Granted);
        // Each evaluation costed kwtpgtime: E(q) + one E(p).
        assert_eq!(o.cpu, Duration::from_millis(20));
    }

    #[test]
    fn expensive_requester_is_delayed() {
        let mut s = low(2);
        // T1's grant leads to a longer critical path than granting T2.
        s.register(t(1), BatchSpec::new(vec![w(f(2), 9.0), w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        // Weights: w(T1→T2) = 1 (T2 from step 0), w(T2→T1) = 1 (T1 from
        // its conflicting step 1). t0: T1 = 10, T2 = 1.
        // E(T1 grant): T1→T2 path = 10 + 1 = 11.
        // E(T2 grant): T2→T1 path = 1 + 1 = 2.
        // E(q) = 11 > E(p) = 2 → delay T1's request.
        let o = s.request(t(1), 1);
        assert_eq!(o.decision, ReqDecision::Delayed);
        // T2's own request is granted (E roles swap).
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
    }

    #[test]
    fn blocked_when_lock_held() {
        let mut s = low(2);
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Blocked);
        s.commit(t(1));
        assert_eq!(s.request(t(2), 0).decision, ReqDecision::Granted);
    }

    #[test]
    fn deadlock_risk_is_delayed() {
        let mut s = low(2);
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(0), 1.0)]));
        s.try_start(t(1));
        s.try_start(t(2));
        assert_eq!(s.request(t(1), 0).decision, ReqDecision::Granted);
        // T2 requesting F1 would orient T2→T1 against decided T1→T2.
        let o = s.request(t(2), 0);
        assert_eq!(o.decision, ReqDecision::Delayed);
        // Only E(q) was computed before the ∞ bail-out.
        assert_eq!(o.cpu, Duration::from_millis(10));
    }

    #[test]
    fn serializable_constraints() {
        let mut s = low(2);
        s.register(t(1), BatchSpec::new(vec![w(f(0), 1.0), w(f(1), 1.0)]));
        s.register(t(2), BatchSpec::new(vec![w(f(1), 1.0), w(f(2), 1.0)]));
        s.register(t(3), BatchSpec::new(vec![w(f(2), 1.0)]));
        for i in 1..=3 {
            s.try_start(t(i));
        }
        let _ = s.request(t(1), 0);
        let _ = s.request(t(2), 0);
        let _ = s.request(t(1), 1);
        let _ = s.request(t(3), 0);
        s.commit(t(1));
        s.commit(t(2));
        s.commit(t(3));
        let cs = s.drain_constraints();
        assert!(bds_wtpg::oracle::is_serializable(&cs), "{cs:?}");
    }

    /// The K-check as it was first written: every live transaction is
    /// scanned for each declared file and its mode read from its spec.
    fn violates_k_all_live_scan(s: &Low, id: TxnId) -> bool {
        for (file, mode) in s.core.spec(id).lock_set() {
            let mut count = 0u32;
            for other in s.core.graph.txns() {
                if other == id {
                    continue;
                }
                if let Some(m) = s.core.spec(other).mode_on(file) {
                    if !m.compatible(mode) {
                        count += 1;
                        let other_count =
                            s.core.conflicting_declarer_count(other, file, m) as u32 + 1;
                        if other_count > s.k {
                            return true;
                        }
                    }
                }
            }
            if count > s.k {
                return true;
            }
        }
        false
    }

    /// The row-based K-check agrees with the all-live scan on random
    /// shared/exclusive declarations over a few files, for K = 1…3,
    /// through admissions, refusals and commits.
    #[test]
    fn row_k_check_matches_all_live_scan() {
        let mut refusals = 0;
        let mut admissions = 0;
        for case in 0..96u64 {
            let mut r = bds_des::rng::Xoshiro256::seed_from_u64(0x10E ^ case);
            let mut s = low(1 + (case % 3) as u32);
            let n = 16u64;
            for i in 0..n {
                let steps = (0..1 + r.next_index(3))
                    .map(|_| {
                        let file = f(r.next_range(4) as u32);
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
                let expect = violates_k_all_live_scan(&s, id);
                assert_eq!(s.violates_k(id), expect, "case {case} {id:?}");
                let d = s.try_start(id).decision;
                assert_eq!(d == StartDecision::Refuse, expect);
                if expect {
                    refusals += 1;
                } else {
                    admissions += 1;
                }
            }
        }
        assert!(
            refusals > 100 && admissions > 100,
            "{refusals} / {admissions}"
        );
    }
}
