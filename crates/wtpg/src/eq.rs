//! The LOW contention estimate `E(q)` (the paper's Fig. 5).
//!
//! `E(q)` answers: *if the lock request `q` were granted right now, how
//! much contention would the current scheduling state contain?* It is
//! computed in two phases:
//!
//! * **Phase 1** — copy the current WTPG, apply the precedence
//!   orientations implied by granting `q`, and propagate forced
//!   orientations (any conflict pair connected by a directed path takes
//!   that direction — Fig. 6). If a cycle arises, `q` would cause a
//!   deadlock: `E(q) = ∞`.
//! * **Phase 2** — ignore all remaining conflict edges and return the
//!   length of the critical path from `T0` to `Tf`.
//!
//! [`eval_grant`] does exactly that on a copy of the graph and is the
//! reference. LOW asks for `E(q)` and up to K values `E(p)` on the same
//! graph per request, so it uses [`GrantEval`] instead: one
//! [`GrantEval::prepare`] of the base graph, then each `E` as a delta
//! over it, with no copy and no propagation (see its docs for why the
//! delta is exact).

use crate::graph::{EdgeState, TxnId, Wtpg};
use crate::paths;

/// Compute `E(q)` where granting `q` implies the precedence orientations
/// in `orientations` (each `(from, to)` pair: `from` precedes `to`).
///
/// For a lock request by `Ti` on file `d`, the implied orientations are
/// `Ti → Tj` for every live `Tj` with an undecided conflicting declared
/// access to `d`. Orientations with a missing node or no pair edge are
/// skipped, and those whose pair is already decided in the same
/// direction are no-ops; an orientation against an already-decided edge
/// means granting is impossible — `E(q) = ∞`.
///
/// Each new orientation `from → to` first probes `to ⇝ from` over the
/// decided edges applied so far: a hit means this very edge would close
/// the first cycle, so `E(q) = ∞` at once. Propagation only adds `a → b`
/// when `b ⇝ a` is absent, and the linear check inside
/// [`paths::Scratch::critical_path`] remains as the safety net.
pub fn eval_grant(g: &Wtpg, orientations: &[(TxnId, TxnId)]) -> f64 {
    let mut trial = g.clone();
    let mut ps = paths::Scratch::new();
    for &(from, to) in orientations {
        if !trial.contains(from) || !trial.contains(to) {
            continue;
        }
        if trial.is_decided(to, from) {
            return f64::INFINITY; // against an already-decided edge
        }
        if trial.edge(from, to).is_none() {
            // No declared conflict recorded between the pair — nothing to
            // orient (can happen transiently when a transaction restarts).
            continue;
        }
        if !trial.is_decided(from, to) {
            if ps.reachable(&trial, to, from) {
                // `from → to` would close the first directed cycle.
                return f64::INFINITY;
            }
            trial.set_precedence(from, to);
        }
    }
    if ps.propagate(&mut trial).is_err() {
        return f64::INFINITY;
    }
    ps.critical_path(&trial)
}

/// [`eval_grant`] as deltas over one prepared base graph.
///
/// [`GrantEval::prepare`] reads the base once: the forced pairs `F0`
/// (undecided pairs that already have a decided path, which
/// `WtpgCore::add_live`'s edges toward lock holders can leave behind),
/// the distances `D0` over the decided edges plus `F0`, and the base
/// critical path `C0`. [`GrantEval::eval`] then answers `E` for a set of
/// orientations `s → t` that all leave one node `s`, and
/// [`GrantEval::forced_into`] lists what a grant must decide. Both must
/// be asked of the graph as it was prepared.
///
/// Why the delta is exact, given that the base's decided subgraph is
/// acyclic (a cyclic base gives `∞`, as in [`eval_grant`]):
///
/// * Let `T` be the targets the orientations newly decide, `Anc(s)` be
///   `s` and its decided ancestors, and `Desc(T)` the targets and their
///   decided descendants. A path can use at most one new edge (a second
///   would have to pass `s` again), so the grant adds exactly the
///   reachability `Anc(s) × Desc(T)`, and closes a cycle iff a target
///   lies in `Anc(s)` (then `E = ∞`).
/// * Propagation orients only pairs that are already reachable and adds
///   no reachability itself. The trial's decided edges are therefore
///   the base's, the orientations, `F0`, and every undecided pair from
///   `Anc(s)` into `Desc(T)`.
/// * Every new edge points into `Desc(T)`, and `Desc(T)` is closed under
///   the trial's successors, so only its distances change. They are
///   recomputed in topological order from `D0` with the same max-plus
///   recurrence, the same operands and the same fold order as
///   [`paths::Scratch::critical_path`], so every `E` is bit-identical.
///   A distance can only grow, so `E` is `C0` folded with the new
///   distances.
#[derive(Debug, Default)]
pub struct GrantEval {
    /// Traversal state for finding `F0`.
    ps: paths::Scratch,
    /// `F0` as `(from, to)` ids, ascending by pair.
    f0: Vec<(TxnId, TxnId)>,
    /// `F0` as `(from, to)` slots, sorted for lookup.
    f0_slots: Vec<(u32, u32)>,
    /// The base's decided subgraph has a cycle: every `E` is `∞`.
    cyclic: bool,
    /// `D0` per slot.
    d0: Vec<f64>,
    /// `C0`: the base critical path.
    c0: f64,
    /// Trial distance per slot (valid where `desc` is marked).
    dist: Vec<f64>,
    /// Mark epoch; a slot is marked iff its cell equals it.
    epoch: u64,
    /// Slot in `Anc(s)` of the current trial.
    anc: Vec<u64>,
    /// Slot in `Desc(T)` of the current trial (all slots in `prepare`).
    desc: Vec<u64>,
    /// Slot's descendants all listed in `order`.
    done: Vec<u64>,
    /// The marked `desc` slots in DFS post-order (reverse topological).
    order: Vec<u32>,
    /// DFS frames: `(slot, next adjacency cursor)`.
    frames: Vec<(u32, u32)>,
    /// The trial's newly oriented target slots.
    targets: Vec<u32>,
}

impl GrantEval {
    /// Fresh evaluator (allocates nothing until first use).
    pub fn new() -> Self {
        GrantEval::default()
    }

    /// Read the base graph `g`: `F0`, `D0` and `C0`.
    pub fn prepare(&mut self, g: &Wtpg) {
        let n = g.slot_bound();
        if self.d0.len() < n {
            for marks in [&mut self.anc, &mut self.desc, &mut self.done] {
                marks.resize(n, 0);
            }
            self.d0.resize(n, 0.0);
            self.dist.resize(n, 0.0);
        }
        self.cyclic = self.ps.forced_pairs(g, &mut self.f0).is_err();
        self.f0_slots.clear();
        let slot = |t| g.lookup(t).expect("pair endpoint is live");
        self.f0_slots
            .extend(self.f0.iter().map(|&(from, to)| (slot(from), slot(to))));
        self.f0_slots.sort_unstable();
        // Every slot is in `Desc` and none in `Anc`: `settle` computes
        // the base's distances into `dist`, which become `D0`.
        self.epoch += 1;
        self.order.clear();
        self.c0 = 0.0;
        for root in g.live_slots() {
            self.cyclic = self.cyclic || !self.descend(g, root);
        }
        if !self.cyclic {
            self.c0 = self.settle(g);
            std::mem::swap(&mut self.d0, &mut self.dist);
        }
    }

    /// `E` after granting the orientations: the critical path once they
    /// and every pair they force are decided, or `∞` if they close a
    /// cycle or contradict a decided pair.
    ///
    /// # Panics
    /// Panics if the orientations leave more than one node.
    pub fn eval(&mut self, g: &Wtpg, orientations: &[(TxnId, TxnId)]) -> f64 {
        if self.cyclic || !self.trial(g, orientations) {
            return f64::INFINITY;
        }
        self.settle(g)
    }

    /// Fill `out` (cleared first) with the pairs that granting the
    /// orientations forces, as `(from, to)`: `F0`, then every undecided
    /// pair from `Anc(s)` into `Desc(T)`. The latter include the
    /// orientations themselves, so applying `out` after them repeats
    /// those as no-ops. Afterwards the graph equals the one
    /// [`paths::Scratch::propagate`] makes of the oriented graph.
    ///
    /// # Panics
    /// Panics if [`GrantEval::eval`] is `∞` for these orientations, or
    /// if they leave more than one node.
    pub fn forced_into(
        &mut self,
        g: &Wtpg,
        orientations: &[(TxnId, TxnId)],
        out: &mut Vec<(TxnId, TxnId)>,
    ) {
        assert!(
            !self.cyclic && self.trial(g, orientations),
            "forced set of a grant that closes a cycle"
        );
        out.clear();
        out.extend_from_slice(&self.f0);
        let e = self.epoch;
        for &v in &self.order {
            let owner = g.slot_id(v);
            out.extend(
                g.slot_adj(v)
                    .iter()
                    .filter(|a| {
                        a.edge.state == EdgeState::Conflict && self.anc[a.slot as usize] == e
                    })
                    .map(|a| (a.id, owner)),
            );
        }
    }

    /// Mark `Anc(s)` and `Desc(T)` for the orientations and list
    /// `Desc(T)` in `order`. Returns `false` when they contradict a
    /// decided pair or close a cycle. With no target newly oriented,
    /// `order` is empty.
    fn trial(&mut self, g: &Wtpg, orientations: &[(TxnId, TxnId)]) -> bool {
        self.epoch += 1;
        self.order.clear();
        self.targets.clear();
        let Some(&(src, _)) = orientations.first() else {
            return true;
        };
        assert!(
            orientations.iter().all(|&(from, _)| from == src),
            "orientations must leave one node: {orientations:?}"
        );
        let Some(s) = g.lookup(src) else {
            return true;
        };
        let adj = g.slot_adj(s);
        for &(_, to) in orientations {
            // A missing node or a pair without an edge has no entry.
            let Ok(i) = adj.binary_search_by_key(&to, |a| a.id) else {
                continue;
            };
            if adj[i].neighbor_precedes(src) {
                return false; // against an already-decided edge
            }
            if !adj[i].owner_precedes(src) {
                self.targets.push(adj[i].slot);
            }
        }
        if self.targets.is_empty() {
            return true;
        }
        // `Anc(s)`, on the order vector as a DFS stack.
        let e = self.epoch;
        self.anc[s as usize] = e;
        self.order.push(s);
        while let Some(x) = self.order.pop() {
            let owner = g.slot_id(x);
            for a in g.slot_adj(x) {
                if a.neighbor_precedes(owner) && self.anc[a.slot as usize] != e {
                    self.anc[a.slot as usize] = e;
                    self.order.push(a.slot);
                }
            }
        }
        if self.targets.iter().any(|&t| self.anc[t as usize] == e) {
            return false; // `s → t` would close a cycle
        }
        for i in 0..self.targets.len() {
            self.descend(g, self.targets[i]);
        }
        true
    }

    /// Mark `root` and its decided descendants in `desc`, appending the
    /// newly marked ones to `order` in DFS post-order. Returns `false`
    /// if the decided edges close a cycle (a successor still on the DFS
    /// path).
    fn descend(&mut self, g: &Wtpg, root: u32) -> bool {
        let e = self.epoch;
        if self.desc[root as usize] == e {
            return true;
        }
        self.desc[root as usize] = e;
        self.frames.push((root, 0));
        while let Some(&(x, cur)) = self.frames.last() {
            let owner = g.slot_id(x);
            let Some(a) = g.slot_adj(x).get(cur as usize) else {
                self.done[x as usize] = e;
                self.order.push(x);
                self.frames.pop();
                continue;
            };
            self.frames.last_mut().expect("non-empty").1 = cur + 1;
            if !a.owner_precedes(owner) {
                continue;
            }
            let n = a.slot as usize;
            if self.desc[n] != e {
                self.desc[n] = e;
                self.frames.push((a.slot, 0));
            } else if self.done[n] != e {
                self.frames.clear();
                return false;
            }
        }
        true
    }

    /// Recompute the distance of every `order` slot in topological
    /// order into `dist`, and return `C0` folded with them by `max`.
    ///
    /// A slot's distance is its `T0` weight folded with `max` over its
    /// predecessors `u` in adjacency (ascending id) order, each as
    /// `dist(u) + w(u → v)`, exactly as in
    /// [`paths::Scratch::critical_path`]. A predecessor is a decided
    /// one, an `F0` one, or an undecided one in `Anc(s)`; `dist(u)` is
    /// the new distance for a `Desc(T)` slot and `D0` otherwise.
    fn settle(&mut self, g: &Wtpg) -> f64 {
        let e = self.epoch;
        let mut critical = self.c0;
        for &v in self.order.iter().rev() {
            let owner = g.slot_id(v);
            let mut best = g.slot_t0(v);
            for a in g.slot_adj(v) {
                let u = a.slot as usize;
                let pred = a.neighbor_precedes(owner)
                    || (a.edge.state == EdgeState::Conflict
                        && (self.anc[u] == e || self.f0_slots.binary_search(&(a.slot, v)).is_ok()));
                if !pred {
                    continue;
                }
                let du = if self.desc[u] == e {
                    self.dist[u]
                } else {
                    self.d0[u]
                };
                let d = du + a.weight_from_neighbor(owner);
                if d > best {
                    best = d;
                }
            }
            self.dist[v as usize] = best;
            critical = critical.max(best);
        }
        critical
    }
}

/// Convenience: the current contention level with no new grant (critical
/// path of the graph as-is, conflict edges ignored).
pub fn current_level(g: &Wtpg) -> f64 {
    paths::critical_path(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    /// The paper's Fig. 6 worked example. T0 weights are 0 ("for
    /// simplicity"). The graph: decided T4→T5 and T6→T7; conflicts
    /// (T5,T6) and (T4,T7) with weight 10 on T4→T7.
    ///
    /// * `q` = T5's request conflicting with T6: granting sets T5→T6,
    ///   propagation forces T4→T7, and the critical path is 10 → E(q)=10.
    /// * `p` = T6's request conflicting with T5: granting sets T6→T5, no
    ///   propagation is forced ((T4,T7) stays a conflict edge and is
    ///   ignored), short paths only → E(p) = 1.
    #[test]
    fn fig6_example() {
        let mut g = Wtpg::new();
        for i in 4..=7 {
            g.add_txn(t(i), 0.0);
        }
        // Weights chosen to reproduce the figure's totals: small unit
        // weights along the chain, 10 on the long-range pair.
        g.declare_conflict(t(4), t(5), 0.3, 0.3);
        g.declare_conflict(t(5), t(6), 0.3, 1.0);
        g.declare_conflict(t(6), t(7), 0.3, 0.3);
        g.declare_conflict(t(4), t(7), 10.0, 10.0);
        g.set_precedence(t(4), t(5));
        g.set_precedence(t(6), t(7));

        let eq = eval_grant(&g, &[(t(5), t(6))]);
        assert_eq!(eq, 10.0, "E(q) must follow the forced T4→T7 edge");

        let ep = eval_grant(&g, &[(t(6), t(5))]);
        assert_eq!(ep, 1.0, "E(p) ignores the undecided (T4,T7) edge");

        assert!(eq > ep, "LOW must prefer granting p (the paper delays q)");
    }

    #[test]
    fn deadlock_returns_infinity() {
        let mut g = Wtpg::new();
        for i in 1..=2 {
            g.add_txn(t(i), 0.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        // Granting something that requires T2 → T1 is impossible.
        assert_eq!(eval_grant(&g, &[(t(2), t(1))]), f64::INFINITY);
    }

    #[test]
    fn indirect_deadlock_detected() {
        // T1→T2 decided, T2→T3 decided, and granting implies T3→T1:
        // the cycle is indirect (via propagation/cycle check).
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 0.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(1), t(3), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(2), t(3));
        assert_eq!(eval_grant(&g, &[(t(3), t(1))]), f64::INFINITY);
    }

    #[test]
    fn grant_with_no_conflicts_returns_current_level() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 5.0);
        g.add_txn(t(2), 3.0);
        assert_eq!(eval_grant(&g, &[]), 5.0);
        assert_eq!(current_level(&g), 5.0);
    }

    #[test]
    fn t0_weights_participate() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 5.0);
        g.add_txn(t(2), 3.0);
        g.declare_conflict(t(1), t(2), 2.0, 6.0);
        // Granting T1's conflicting request: T1→T2, critical =
        // max(5, 3, 5 + 2) = 7.
        assert_eq!(eval_grant(&g, &[(t(1), t(2))]), 7.0);
        // Granting T2's: T2→T1, critical = max(5, 3, 3 + 6) = 9.
        assert_eq!(eval_grant(&g, &[(t(2), t(1))]), 9.0);
    }

    #[test]
    fn missing_nodes_are_skipped() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 2.0);
        assert_eq!(eval_grant(&g, &[(t(1), t(99))]), 2.0);
    }

    #[test]
    fn orientations_compose() {
        // Granting a request that conflicts with two declarations at once
        // orients both pairs.
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(1), t(2), 4.0, 4.0);
        g.declare_conflict(t(1), t(3), 6.0, 6.0);
        let e = eval_grant(&g, &[(t(1), t(2)), (t(1), t(3))]);
        // Paths: T0→T1→T2 = 1+4, T0→T1→T3 = 1+6 → 7.
        assert_eq!(e, 7.0);
    }
}
