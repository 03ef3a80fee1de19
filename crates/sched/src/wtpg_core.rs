//! Shared bookkeeping for the WTPG-based schedulers (C2PL, GOW, LOW):
//! registered declarations, the live set, WTPG node/edge maintenance and
//! the grant-time orientation rule.

use crate::lock_table::LockTable;
use bds_workload::{conflict, BatchSpec, FileId, LockMode};
use bds_wtpg::{TxnId, Wtpg};
use std::collections::BTreeMap;

/// Registered declarations plus the WTPG over the live transactions.
#[derive(Debug, Clone, Default)]
pub struct WtpgCore {
    /// The weighted graph over live transactions.
    pub graph: Wtpg,
    specs: BTreeMap<TxnId, BatchSpec>,
    /// Per-file index of *live* transactions declaring the file, with
    /// their strongest declared mode (hot path for conflict lookups).
    /// Dense — row `f` lists the declarers of `FileId(f)` in admission
    /// (push) order, which downstream decisions observe; rows persist
    /// empty so steady-state admission/removal does not allocate.
    by_file: Vec<Vec<(TxnId, LockMode)>>,
    /// Precedence constraints recorded for serializability auditing.
    constraints: Vec<(TxnId, TxnId)>,
}

impl WtpgCore {
    /// Empty state.
    pub fn new() -> Self {
        WtpgCore::default()
    }

    /// Register a declaration (before admission).
    pub fn register(&mut self, id: TxnId, spec: BatchSpec) {
        let prev = self.specs.insert(id, spec);
        assert!(prev.is_none(), "duplicate registration of {id:?}");
    }

    /// The declaration of a registered transaction.
    pub fn spec(&self, id: TxnId) -> &BatchSpec {
        &self.specs[&id]
    }

    /// Is the transaction live (admitted, uncommitted)?
    pub fn is_live(&self, id: TxnId) -> bool {
        self.graph.contains(id)
    }

    /// Live transaction count.
    pub fn live_count(&self) -> usize {
        self.graph.len()
    }

    /// The live declarers of `file` with their strongest declared modes,
    /// in admission order.
    pub fn declarers(&self, file: FileId) -> &[(TxnId, LockMode)] {
        self.by_file.get(file.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// The live transactions that declared an access to `file`
    /// conflicting with `mode`, other than `id`, in admission order —
    /// borrowed iterator, no allocation.
    pub fn conflicting_declarers_iter(
        &self,
        id: TxnId,
        file: FileId,
        mode: LockMode,
    ) -> impl Iterator<Item = TxnId> + '_ {
        self.declarers(file)
            .iter()
            .filter(move |&&(other, m)| other != id && !m.compatible(mode))
            .map(|&(other, _)| other)
    }

    /// The live transactions that declared an access to `file`
    /// conflicting with `mode`, other than `id`, in admission order.
    /// Allocating convenience over
    /// [`WtpgCore::conflicting_declarers_iter`].
    pub fn conflicting_declarers(&self, id: TxnId, file: FileId, mode: LockMode) -> Vec<TxnId> {
        self.conflicting_declarers_iter(id, file, mode).collect()
    }

    /// How many live declarations on `file` conflict with `mode`
    /// (excluding `id`'s own) — counting variant, no allocation.
    pub fn conflicting_declarer_count(&self, id: TxnId, file: FileId, mode: LockMode) -> usize {
        self.conflicting_declarers_iter(id, file, mode).count()
    }

    /// Does any conflicting declarer of `file` already precede `id` in
    /// the decided order (which makes granting `id` the lock
    /// non-serializable outright)?
    pub fn has_adverse_declarer(&self, id: TxnId, file: FileId, mode: LockMode) -> bool {
        self.conflicting_declarers_iter(id, file, mode)
            .any(|other| self.graph.is_decided(other, id))
    }

    /// Admit `id` into the WTPG: add its node (T0 weight = total declared
    /// demand), declare conflict edges against every conflicting live
    /// transaction, and orient edges toward transactions that already
    /// hold a conflicting lock on a shared-conflict file (they accessed
    /// it first, so they precede `id`).
    ///
    /// The conflicting transactions are read from `id`'s own `by_file`
    /// rows and handled in ascending id order.
    pub fn add_live(&mut self, id: TxnId, table: &LockTable) {
        let WtpgCore {
            graph,
            specs,
            by_file,
            constraints,
        } = self;
        let spec = &specs[&id];
        graph.add_txn(id, spec.total_declared());
        let lock_set = spec.lock_set();
        let mut others = Vec::new();
        for &(file, mode) in &lock_set {
            let idx = file.0 as usize;
            if idx >= by_file.len() {
                by_file.resize_with(idx + 1, Vec::new);
            }
            let row = &mut by_file[idx];
            others.extend(
                row.iter()
                    .filter(|&&(_, m)| !m.compatible(mode))
                    .map(|&(other, _)| other),
            );
            row.push((id, mode));
        }
        others.sort_unstable();
        others.dedup();
        for other in others {
            let ospec = &specs[&other];
            if let Some((w_new_other, w_other_new)) = conflict::edge_weights(spec, ospec) {
                graph.declare_conflict(id, other, w_new_other, w_other_new);
                // If `other` already holds a lock conflicting with `id`'s
                // declaration on some file, its access came first. (A
                // held lock is never stronger than its holder's
                // declaration, so that file is one the pair conflicts
                // on.)
                let holds_first = lock_set.iter().any(|&(file, want)| {
                    table
                        .mode_held(other, file)
                        .is_some_and(|held| !held.compatible(want))
                });
                if holds_first && graph.set_precedence(other, id) {
                    constraints.push((other, id));
                }
            }
        }
    }

    /// Remove a committed/aborted transaction from the graph (its spec
    /// registration is dropped too).
    pub fn remove(&mut self, id: TxnId) {
        self.remove_live_only(id);
        self.specs.remove(&id);
    }

    /// Drop only the live state (OPT-style restart would not use this —
    /// it is for schedulers that keep the registration on refusal).
    pub fn remove_live_only(&mut self, id: TxnId) {
        if self.graph.contains(id) {
            self.graph.remove_txn(id);
            let spec = &self.specs[&id];
            for s in &spec.steps {
                if let Some(v) = self.by_file.get_mut(s.file.0 as usize) {
                    v.retain(|&(t, _)| t != id);
                }
            }
        }
    }

    /// Update the `T0` weight after `step` finished: remaining declared
    /// demand from the next step on.
    pub fn step_complete(&mut self, id: TxnId, step: usize) {
        if !self.graph.contains(id) {
            return;
        }
        let remaining = if step + 1 >= self.specs[&id].len() {
            0.0
        } else {
            self.specs[&id].declared_from(step + 1)
        };
        self.graph.set_t0_weight(id, remaining);
    }

    /// The precedence orientations implied by granting `id` a lock of
    /// `mode` on `file`: `id → other` for every conflicting declarer.
    /// Pairs already decided in this direction are omitted; pairs decided
    /// in the *opposite* direction are still returned so callers can
    /// detect the inconsistency (granting would be non-serializable).
    pub fn implied_orientations(
        &self,
        id: TxnId,
        file: FileId,
        mode: LockMode,
    ) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        self.implied_orientations_into(id, file, mode, &mut out);
        out
    }

    /// Scratch-buffer variant of [`WtpgCore::implied_orientations`]:
    /// clears `out` and fills it with the implied orientations.
    pub fn implied_orientations_into(
        &self,
        id: TxnId,
        file: FileId,
        mode: LockMode,
        out: &mut Vec<(TxnId, TxnId)>,
    ) {
        out.clear();
        out.extend(
            self.conflicting_declarers_iter(id, file, mode)
                .filter(|&other| !self.graph.is_decided(id, other))
                .map(|other| (id, other)),
        );
    }

    /// Record and apply a decided precedence, skipping already-decided
    /// pairs.
    ///
    /// # Panics
    /// Panics if the pair is decided in the opposite direction — callers
    /// must never apply inconsistent orientations.
    pub fn set_precedence(&mut self, from: TxnId, to: TxnId) {
        if self.graph.set_precedence(from, to) {
            self.constraints.push((from, to));
        }
    }

    /// Apply all orientations (grant committed); panics on inconsistency.
    pub fn apply_orientations(&mut self, orientations: &[(TxnId, TxnId)]) {
        for &(from, to) in orientations {
            if self.graph.contains(from) && self.graph.contains(to) {
                self.set_precedence(from, to);
            }
        }
    }

    /// Would any of these orientations contradict an already-decided
    /// edge?
    pub fn any_inconsistent(&self, orientations: &[(TxnId, TxnId)]) -> bool {
        orientations
            .iter()
            .any(|&(from, to)| self.graph.is_decided(to, from))
    }

    /// Drain recorded precedence constraints.
    pub fn drain_constraints(&mut self) -> Vec<(TxnId, TxnId)> {
        std::mem::take(&mut self.constraints)
    }

    /// Void the undrained constraints of an aborted attempt: edges
    /// decided for or against `id` belong to work that never committed,
    /// and a restarted attempt may legitimately be ordered the other
    /// way. Leaving them in the log would make the serializability
    /// audit reject correct histories under fault-induced aborts.
    pub fn purge_constraints(&mut self, id: TxnId) {
        self.constraints.retain(|&(a, b)| a != id && b != id);
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

    fn xw(file: FileId, cost: f64) -> Step {
        Step::write(file, cost)
    }

    #[test]
    fn add_live_builds_conflict_edges() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        core.register(t(1), BatchSpec::new(vec![xw(f(0), 1.0), xw(f(1), 2.0)]));
        core.register(t(2), BatchSpec::new(vec![xw(f(1), 3.0), xw(f(2), 1.0)]));
        core.add_live(t(1), &table);
        core.add_live(t(2), &table);
        assert!(core.graph.is_conflict(t(1), t(2)));
        assert_eq!(core.graph.t0_weight(t(1)), 3.0);
        assert_eq!(core.graph.t0_weight(t(2)), 4.0);
        // w(T1→T2): T2's first conflicting step is step 0 (f1): 3+1 = 4.
        let key = bds_wtpg::graph::PairKey::new(t(1), t(2));
        assert_eq!(
            core.graph.edge(t(1), t(2)).unwrap().weight_from(key, t(1)),
            4.0
        );
        // w(T2→T1): T1's first conflicting step is step 1 (f1): 2.
        assert_eq!(
            core.graph.edge(t(1), t(2)).unwrap().weight_from(key, t(2)),
            2.0
        );
    }

    #[test]
    fn add_live_orients_toward_holders() {
        let mut core = WtpgCore::new();
        let mut table = LockTable::new();
        core.register(t(1), BatchSpec::new(vec![xw(f(0), 1.0)]));
        core.add_live(t(1), &table);
        table.grant(t(1), f(0), LockMode::Exclusive);
        core.register(t(2), BatchSpec::new(vec![xw(f(0), 5.0)]));
        core.add_live(t(2), &table);
        assert!(core.graph.is_decided(t(1), t(2)));
        let cs = core.drain_constraints();
        assert_eq!(cs, vec![(t(1), t(2))]);
    }

    #[test]
    fn step_complete_updates_t0() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        core.register(t(1), BatchSpec::new(vec![xw(f(0), 1.0), xw(f(1), 2.0)]));
        core.add_live(t(1), &table);
        core.step_complete(t(1), 0);
        assert_eq!(core.graph.t0_weight(t(1)), 2.0);
        core.step_complete(t(1), 1);
        assert_eq!(core.graph.t0_weight(t(1)), 0.0);
    }

    #[test]
    fn implied_orientations_skip_decided() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        core.register(t(1), BatchSpec::new(vec![xw(f(0), 1.0)]));
        core.register(t(2), BatchSpec::new(vec![xw(f(0), 1.0)]));
        core.register(t(3), BatchSpec::new(vec![xw(f(0), 1.0)]));
        for i in 1..=3 {
            core.add_live(t(i), &table);
        }
        let o = core.implied_orientations(t(1), f(0), LockMode::Exclusive);
        assert_eq!(o, vec![(t(1), t(2)), (t(1), t(3))]);
        core.set_precedence(t(1), t(2));
        let o = core.implied_orientations(t(1), f(0), LockMode::Exclusive);
        assert_eq!(o, vec![(t(1), t(3))]);
        // Adverse decided pair is detected as inconsistent.
        core.set_precedence(t(3), t(1));
        assert!(core.any_inconsistent(&[(t(1), t(3))]));
    }

    #[test]
    fn remove_cleans_up() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        core.register(t(1), BatchSpec::new(vec![xw(f(0), 1.0)]));
        core.add_live(t(1), &table);
        assert_eq!(core.live_count(), 1);
        core.remove(t(1));
        assert_eq!(core.live_count(), 0);
        assert!(!core.is_live(t(1)));
    }

    #[test]
    fn conflicting_declarers_respects_modes() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        core.register(
            t(1),
            BatchSpec::new(vec![Step::read(f(0), LockMode::Shared, 1.0)]),
        );
        core.register(
            t(2),
            BatchSpec::new(vec![Step::read(f(0), LockMode::Shared, 1.0)]),
        );
        core.register(t(3), BatchSpec::new(vec![xw(f(0), 1.0)]));
        for i in 1..=3 {
            core.add_live(t(i), &table);
        }
        // S vs S: no conflict; X conflicts with both.
        assert!(core
            .conflicting_declarers(t(1), f(0), LockMode::Shared)
            .contains(&t(3)));
        assert_eq!(
            core.conflicting_declarers(t(3), f(0), LockMode::Exclusive),
            vec![t(1), t(2)]
        );
    }

    #[test]
    fn purge_drops_only_the_aborted_attempts_edges() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        for i in 1..=3 {
            core.register(t(i), BatchSpec::new(vec![xw(f(0), 1.0)]));
            core.add_live(t(i), &table);
        }
        core.set_precedence(t(1), t(2));
        core.set_precedence(t(2), t(3));
        core.set_precedence(t(1), t(3));
        core.purge_constraints(t(2));
        // Every edge mentioning t2 — on either side — is void; the
        // unrelated t1→t3 edge survives.
        assert_eq!(core.drain_constraints(), vec![(t(1), t(3))]);
    }

    #[test]
    fn scratch_variants_match_allocating_api() {
        let mut core = WtpgCore::new();
        let table = LockTable::new();
        for i in 1..=3 {
            core.register(t(i), BatchSpec::new(vec![xw(f(0), 1.0)]));
            core.add_live(t(i), &table);
        }
        core.set_precedence(t(1), t(2));
        assert_eq!(
            core.conflicting_declarer_count(t(1), f(0), LockMode::Exclusive),
            2
        );
        let mut buf = vec![(t(9), t(9))]; // stale content must be cleared
        core.implied_orientations_into(t(1), f(0), LockMode::Exclusive, &mut buf);
        assert_eq!(
            buf,
            core.implied_orientations(t(1), f(0), LockMode::Exclusive)
        );
        assert_eq!(buf, vec![(t(1), t(3))]);
        assert!(!core.has_adverse_declarer(t(1), f(0), LockMode::Exclusive));
        assert!(core.has_adverse_declarer(t(2), f(0), LockMode::Exclusive));
    }

    /// A random declaration of 1–4 steps over 6 files, shared or
    /// exclusive.
    fn random_spec(r: &mut bds_des::rng::Xoshiro256) -> BatchSpec {
        let n = 1 + r.next_index(4);
        BatchSpec::new(
            (0..n)
                .map(|_| {
                    let file = f(r.next_range(6) as u32);
                    let cost = 1.0 + r.next_range(5) as f64;
                    if r.next_range(2) == 0 {
                        Step::read(file, LockMode::Shared, cost)
                    } else {
                        xw(file, cost)
                    }
                })
                .collect(),
        )
    }

    /// `add_live` must build the graph (and precedence log) that
    /// declaring every conflicting pair one at a time builds: for each
    /// live `other` in id order, `declare_conflict` with the pair's
    /// weights, then `other → id` if `other` holds a lock that conflicts
    /// with `id`'s declaration on a file both declare. Removals and
    /// re-admissions of the same ids (restarts, which are not the
    /// largest id) take the ordered-insert path.
    #[test]
    fn add_live_matches_per_pair_declarations() {
        for case in 0..64u64 {
            let mut r = bds_des::rng::Xoshiro256::seed_from_u64(0xADD1 ^ case);
            let mut core = WtpgCore::new();
            let mut reference = Wtpg::new();
            let mut ref_constraints = Vec::new();
            let mut table = LockTable::new();
            let n = 12u64;
            for i in 0..n {
                core.register(t(i), random_spec(&mut r));
            }
            let mut admit =
                |core: &mut WtpgCore, reference: &mut Wtpg, table: &LockTable, id: TxnId| {
                    let spec = core.spec(id).clone();
                    let live: Vec<TxnId> = reference.txns().collect();
                    reference.add_txn(id, spec.total_declared());
                    for other in live {
                        let ospec = core.spec(other);
                        let Some((w_new, w_old)) = conflict::edge_weights(&spec, ospec) else {
                            continue;
                        };
                        reference.declare_conflict(id, other, w_new, w_old);
                        let holds_first = spec.lock_set().into_iter().any(|(file, want)| {
                            let theirs = ospec.mode_on(file);
                            let held = table.mode_held(other, file);
                            matches!((theirs, held), (Some(m), Some(h))
                            if !m.compatible(want) && !h.compatible(want))
                        });
                        if holds_first && reference.set_precedence(other, id) {
                            ref_constraints.push((other, id));
                        }
                    }
                    core.add_live(id, table);
                };
            let mut restarted = 0;
            for _ in 0..60 {
                let id = t(r.next_range(n));
                if core.is_live(id) {
                    if r.next_range(3) == 0 {
                        // Abort: drop the node and its locks.
                        core.remove_live_only(id);
                        reference.remove_txn(id);
                        table.release_all(id);
                        continue;
                    }
                    // Take one of its declared locks if it can.
                    let steps = core.spec(id).steps.clone();
                    let st = steps[r.next_index(steps.len())];
                    if table.can_grant(id, st.file, st.mode) {
                        table.grant(id, st.file, st.mode);
                    }
                } else {
                    if reference.txns().any(|o| o > id) {
                        restarted += 1;
                    }
                    admit(&mut core, &mut reference, &table, id);
                }
                assert_eq!(core.graph, reference, "case {case}");
            }
            assert_eq!(core.drain_constraints(), ref_constraints, "case {case}");
            assert!(restarted > 0, "case {case} admitted no non-largest id");
        }
    }
}
