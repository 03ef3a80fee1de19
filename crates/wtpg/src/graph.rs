//! WTPG storage: nodes, conflict edges, precedence edges, weights.
//!
//! Its size depends on the scheduler. The admission-gated kinds (GOW,
//! LOW) keep a few dozen live transactions at most, but C2PL and BROOK
//! admit every arrival: at the Fig. 8 hot point (Exp. 1, 16 files,
//! λ = 1.1, 2 000 s) C2PL's graph holds ~2 000 live transactions and
//! ~495 000 pair edges, so a node has ~490 neighbours. The graph sits
//! on the scheduler hot path: every lock decision in GOW/LOW/C2PL walks
//! it, and the parallel sweep executor multiplies that across thousands
//! of simulation points.
//! Storage is therefore a dense slot arena rather than the original
//! `BTreeMap` design: a sorted `TxnId → u32` slot map with free-list
//! reuse, and per-slot id-sorted adjacency `Vec`s that carry the pair
//! edge on *both* endpoints so directed traversal never does a map
//! lookup. The dense slot numbers also index the traversal scratch of
//! [`crate::paths`] (marks, distances, closure rows) and the positions
//! of [`crate::paths::TopoOrder`].
//!
//! Determinism contract: every iterator this module exposes yields
//! exactly the order the `BTreeMap`-backed implementation did — `txns()`
//! ascending by id, `neighbors()` ascending by id, `edges()` and
//! `conflict_pairs()` ascending by `(lo, hi)` pair key — so the
//! simulator stays bit-for-bit reproducible (pinned by the golden-hash
//! test in `tests/parallel_determinism.rs`).

use std::fmt;

/// Identifier of a (general) transaction node in the WTPG.
///
/// `T0` and `Tf` are implicit: `T0`'s outgoing weights live on the nodes
/// (remaining I/O demand) and every `Ti → Tf` weight is zero under the
/// paper's cost model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Direction of a decided (precedence) edge within a normalized pair
/// `(lo, hi)` where `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `lo → hi` (the smaller id precedes the larger).
    LoToHi,
    /// `hi → lo`.
    HiToLo,
}

impl Direction {
    /// Flip the direction.
    pub fn reversed(self) -> Direction {
        match self {
            Direction::LoToHi => Direction::HiToLo,
            Direction::HiToLo => Direction::LoToHi,
        }
    }
}

/// State of the edge between a conflicting transaction pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeState {
    /// Undecided: both serialization orders are still possible.
    #[default]
    Conflict,
    /// Decided: a precedence edge in the given direction.
    Precedence(Direction),
}

/// Normalized unordered pair key: `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairKey {
    /// Smaller transaction id.
    pub lo: TxnId,
    /// Larger transaction id.
    pub hi: TxnId,
}

impl PairKey {
    /// Normalize an unordered pair.
    ///
    /// # Panics
    /// Panics if `a == b` (a transaction cannot conflict with itself).
    pub fn new(a: TxnId, b: TxnId) -> Self {
        assert!(a != b, "self-conflict on {a:?}");
        if a < b {
            PairKey { lo: a, hi: b }
        } else {
            PairKey { lo: b, hi: a }
        }
    }

    /// The other member of the pair.
    pub fn other(&self, t: TxnId) -> TxnId {
        if t == self.lo {
            self.hi
        } else {
            debug_assert_eq!(t, self.hi);
            self.lo
        }
    }
}

/// Weighted edge between a conflicting pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PairEdge {
    /// Weight of the `lo → hi` candidate direction (cost `hi` still pays
    /// from the first step at which `lo` can block it, through commit).
    pub w_lo_hi: f64,
    /// Weight of the `hi → lo` candidate direction.
    pub w_hi_lo: f64,
    /// Conflict (undecided) or precedence (decided).
    pub state: EdgeState,
}

impl PairEdge {
    /// Weight of the directed edge `from → to` within this pair.
    pub fn weight_from(&self, key: PairKey, from: TxnId) -> f64 {
        if from == key.lo {
            self.w_lo_hi
        } else {
            debug_assert_eq!(from, key.hi);
            self.w_hi_lo
        }
    }

    /// The decided direction, if any, as a `(from, to)` pair.
    pub fn decided(&self, key: PairKey) -> Option<(TxnId, TxnId)> {
        match self.state {
            EdgeState::Conflict => None,
            EdgeState::Precedence(Direction::LoToHi) => Some((key.lo, key.hi)),
            EdgeState::Precedence(Direction::HiToLo) => Some((key.hi, key.lo)),
        }
    }
}

/// Per-transaction node data.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Node {
    /// Weight of `T0 → Ti`: the transaction's *remaining* I/O demand
    /// before its commitment, in objects. This is the only weight that is
    /// adjusted as the schedule proceeds.
    pub t0_weight: f64,
}

/// One adjacency record: the neighbor plus a copy of the pair edge.
///
/// The edge is duplicated on both endpoints (and kept in sync by
/// `declare_conflict`/`set_precedence`) so that directed traversal reads
/// the state and weight inline without any pair lookup.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Adj {
    /// Neighbor transaction id.
    pub(crate) id: TxnId,
    /// Neighbor's arena slot (valid while the neighbor is live).
    pub(crate) slot: u32,
    /// This pair's edge data.
    pub(crate) edge: PairEdge,
}

impl Adj {
    /// True if the pair is decided with `owner` preceding the neighbor.
    pub(crate) fn owner_precedes(&self, owner: TxnId) -> bool {
        match self.edge.state {
            EdgeState::Conflict => false,
            EdgeState::Precedence(Direction::LoToHi) => owner < self.id,
            EdgeState::Precedence(Direction::HiToLo) => owner > self.id,
        }
    }

    /// True if the pair is decided with the neighbor preceding `owner`.
    pub(crate) fn neighbor_precedes(&self, owner: TxnId) -> bool {
        match self.edge.state {
            EdgeState::Conflict => false,
            EdgeState::Precedence(Direction::LoToHi) => self.id < owner,
            EdgeState::Precedence(Direction::HiToLo) => self.id > owner,
        }
    }

    /// Weight of the directed edge `owner → neighbor`.
    pub(crate) fn weight_from_owner(&self, owner: TxnId) -> f64 {
        if owner < self.id {
            self.edge.w_lo_hi
        } else {
            self.edge.w_hi_lo
        }
    }

    /// Weight of the directed edge `neighbor → owner`.
    pub(crate) fn weight_from_neighbor(&self, owner: TxnId) -> f64 {
        if self.id < owner {
            self.edge.w_lo_hi
        } else {
            self.edge.w_hi_lo
        }
    }
}

/// Arena slot: node data plus id-sorted adjacency.
#[derive(Debug, Clone, Default)]
struct Slot {
    id: TxnId,
    node: Node,
    adj: Vec<Adj>,
}

/// The weighted transaction-precedence graph.
#[derive(Debug, Clone, Default)]
pub struct Wtpg {
    /// Sorted `(id, slot)` map of live transactions.
    index: Vec<(TxnId, u32)>,
    /// Slot arena; dead slots keep their adjacency capacity for reuse.
    slots: Vec<Slot>,
    /// Free (dead) slot numbers.
    free: Vec<u32>,
}

/// Semantic equality: same transactions, weights, and pair edges.
/// Arena slot numbers and free lists are ignored.
impl PartialEq for Wtpg {
    fn eq(&self, other: &Self) -> bool {
        if self.index.len() != other.index.len() {
            return false;
        }
        self.index
            .iter()
            .zip(&other.index)
            .all(|(&(t, s), &(u, o))| {
                let (a, b) = (&self.slots[s as usize], &other.slots[o as usize]);
                t == u
                    && a.node == b.node
                    && a.adj.len() == b.adj.len()
                    && a.adj
                        .iter()
                        .zip(b.adj.iter())
                        .all(|(x, y)| x.id == y.id && x.edge == y.edge)
            })
    }
}

/// Position of `id` in an id-sorted adjacency list, as
/// `binary_search` reports it, with the append case (`id` above every
/// entry) answered from the last entry alone.
fn adj_search(adj: &[Adj], id: TxnId) -> Result<usize, usize> {
    match adj.last() {
        Some(last) if last.id < id => Err(adj.len()),
        _ => adj.binary_search_by_key(&id, |x| x.id),
    }
}

impl Wtpg {
    /// An empty graph.
    pub fn new() -> Self {
        Wtpg::default()
    }

    /// Number of live transaction nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the graph has no transactions.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Arena occupancy as `(allocated_slots, free_listed_slots)`. Leak
    /// invariant (checked by the fault-injection tests): every slot is
    /// either live or on the free list, so `allocated - free == len()`
    /// at every quiescent point.
    pub fn arena_stats(&self) -> (usize, usize) {
        (self.slots.len(), self.free.len())
    }

    /// Whether `t` is a live node.
    pub fn contains(&self, t: TxnId) -> bool {
        self.lookup(t).is_some()
    }

    /// Iterate over live transaction ids in ascending order.
    pub fn txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.index.iter().map(|&(t, _)| t)
    }

    /// Iterate over all pair edges in ascending `(lo, hi)` order.
    pub fn edges(&self) -> impl Iterator<Item = (PairKey, &PairEdge)> + '_ {
        self.index.iter().flat_map(move |&(t, s)| {
            self.slots[s as usize]
                .adj
                .iter()
                .filter(move |a| t < a.id)
                .map(move |a| (PairKey { lo: t, hi: a.id }, &a.edge))
        })
    }

    // ---- internal arena plumbing ------------------------------------

    fn index_pos(&self, t: TxnId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&t, |&(id, _)| id)
    }

    pub(crate) fn lookup(&self, t: TxnId) -> Option<u32> {
        self.index_pos(t).ok().map(|i| self.index[i].1)
    }

    /// Upper bound on slot numbers (for sizing scratch buffers).
    pub(crate) fn slot_bound(&self) -> usize {
        self.slots.len()
    }

    /// Live slots in ascending transaction-id order.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.iter().map(|&(_, s)| s)
    }

    pub(crate) fn slot_id(&self, s: u32) -> TxnId {
        self.slots[s as usize].id
    }

    pub(crate) fn slot_t0(&self, s: u32) -> f64 {
        self.slots[s as usize].node.t0_weight
    }

    pub(crate) fn slot_adj(&self, s: u32) -> &[Adj] {
        &self.slots[s as usize].adj
    }

    fn adj_of(&self, t: TxnId) -> &[Adj] {
        match self.lookup(t) {
            Some(s) => &self.slots[s as usize].adj,
            None => &[],
        }
    }

    /// Locate the adjacency entry for `b` on `a`'s side.
    fn adj_pos(&self, a: TxnId, b: TxnId) -> Option<(u32, usize)> {
        let sa = self.lookup(a)?;
        let adj = &self.slots[sa as usize].adj;
        let i = adj.binary_search_by_key(&b, |x| x.id).ok()?;
        Some((sa, i))
    }

    // ---- public mutation API ----------------------------------------

    /// Add a transaction with its initial `T0` weight (total declared I/O
    /// demand).
    ///
    /// # Panics
    /// Panics if the transaction is already present or the weight is
    /// negative/non-finite.
    pub fn add_txn(&mut self, t: TxnId, t0_weight: f64) {
        assert!(
            t0_weight.is_finite() && t0_weight >= 0.0,
            "invalid T0 weight {t0_weight} for {t:?}"
        );
        let pos = match self.index_pos(t) {
            Ok(_) => panic!("duplicate transaction {t:?}"),
            Err(pos) => pos,
        };
        let s = match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                debug_assert!(slot.adj.is_empty(), "freed slot kept adjacency");
                slot.id = t;
                slot.node = Node { t0_weight };
                s
            }
            None => {
                self.slots.push(Slot {
                    id: t,
                    node: Node { t0_weight },
                    adj: Vec::new(),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(pos, (t, s));
    }

    /// Remove a transaction (on commit or abort) together with all its
    /// edges.
    ///
    /// # Panics
    /// Panics if the transaction is not present.
    pub fn remove_txn(&mut self, t: TxnId) {
        let pos = self
            .index_pos(t)
            .unwrap_or_else(|_| panic!("remove of unknown transaction"));
        let s = self.index[pos].1;
        for i in 0..self.slots[s as usize].adj.len() {
            let a = self.slots[s as usize].adj[i];
            let nadj = &mut self.slots[a.slot as usize].adj;
            let j = nadj
                .binary_search_by_key(&t, |x| x.id)
                .expect("reciprocal adjacency missing");
            nadj.remove(j);
        }
        self.slots[s as usize].adj.clear();
        self.index.remove(pos);
        self.free.push(s);
    }

    /// Current `T0 → t` weight (remaining I/O demand).
    pub fn t0_weight(&self, t: TxnId) -> f64 {
        let s = self
            .lookup(t)
            .unwrap_or_else(|| panic!("unknown transaction {t:?}"));
        self.slots[s as usize].node.t0_weight
    }

    /// Update the `T0 → t` weight as the schedule proceeds.
    ///
    /// # Panics
    /// Panics on unknown transaction or invalid weight.
    pub fn set_t0_weight(&mut self, t: TxnId, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "invalid T0 weight {w}");
        let s = self
            .lookup(t)
            .unwrap_or_else(|| panic!("unknown transaction {t:?}"));
        self.slots[s as usize].node.t0_weight = w;
    }

    /// Declare a conflict between `a` and `b` with directed weights
    /// `w_ab` (for `a → b`) and `w_ba` (for `b → a`). If the pair already
    /// has an edge the weights are overwritten but a decided direction is
    /// kept (weights of pair edges are fixed at declaration time in the
    /// paper; re-declaration only happens when a transaction restarts).
    ///
    /// Each endpoint's slot is resolved once. A newly admitted
    /// transaction usually has the largest live id, so both adjacency
    /// lists are checked for an append before the ordered insert (a
    /// restarted id is not the largest and takes the insert).
    pub fn declare_conflict(&mut self, a: TxnId, b: TxnId, w_ab: f64, w_ba: f64) {
        assert!(
            w_ab.is_finite() && w_ab >= 0.0 && w_ba.is_finite() && w_ba >= 0.0,
            "invalid conflict weights"
        );
        let key = PairKey::new(a, b);
        let (w_lo_hi, w_hi_lo) = if a == key.lo {
            (w_ab, w_ba)
        } else {
            (w_ba, w_ab)
        };
        let (Some(sa), Some(sb)) = (self.lookup(a), self.lookup(b)) else {
            panic!("unknown endpoint");
        };
        match adj_search(&self.slots[sa as usize].adj, b) {
            Ok(i) => {
                let state = self.slots[sa as usize].adj[i].edge.state;
                let edge = PairEdge {
                    w_lo_hi,
                    w_hi_lo,
                    state,
                };
                self.slots[sa as usize].adj[i].edge = edge;
                let j = adj_search(&self.slots[sb as usize].adj, a)
                    .expect("reciprocal adjacency missing");
                self.slots[sb as usize].adj[j].edge = edge;
            }
            Err(i) => {
                let edge = PairEdge {
                    w_lo_hi,
                    w_hi_lo,
                    state: EdgeState::Conflict,
                };
                self.slots[sa as usize].adj.insert(
                    i,
                    Adj {
                        id: b,
                        slot: sb,
                        edge,
                    },
                );
                let j =
                    adj_search(&self.slots[sb as usize].adj, a).expect_err("one-sided adjacency");
                self.slots[sb as usize].adj.insert(
                    j,
                    Adj {
                        id: a,
                        slot: sa,
                        edge,
                    },
                );
            }
        }
    }

    /// The edge between `a` and `b`, if any.
    pub fn edge(&self, a: TxnId, b: TxnId) -> Option<&PairEdge> {
        assert!(a != b, "self-conflict on {a:?}");
        let (s, i) = self.adj_pos(a, b)?;
        Some(&self.slots[s as usize].adj[i].edge)
    }

    /// Pair-neighbors of `t` (conflict or precedence), ascending by id.
    pub fn neighbors(&self, t: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.adj_of(t).iter().map(|a| a.id)
    }

    /// Degree of `t` in the (undirected) conflict graph.
    pub fn degree(&self, t: TxnId) -> usize {
        self.adj_of(t).len()
    }

    /// Decide the order of the pair: `from` precedes `to`, replacing the
    /// conflict edge by a precedence edge.
    ///
    /// Returns `true` if the edge was newly decided, `false` if it already
    /// had this direction.
    ///
    /// # Panics
    /// Panics if no edge exists between the pair, or if the pair was
    /// already decided in the *opposite* direction (the caller must check
    /// consistency — a reversal would mean a non-serializable schedule).
    pub fn set_precedence(&mut self, from: TxnId, to: TxnId) -> bool {
        let key = PairKey::new(from, to);
        let dir = if from == key.lo {
            Direction::LoToHi
        } else {
            Direction::HiToLo
        };
        let (sf, i) = self
            .adj_pos(from, to)
            .unwrap_or_else(|| panic!("no edge between {from:?} and {to:?}"));
        let entry = self.slots[sf as usize].adj[i];
        match entry.edge.state {
            EdgeState::Conflict => {
                self.slots[sf as usize].adj[i].edge.state = EdgeState::Precedence(dir);
                let (_, j) = self
                    .adj_pos(to, from)
                    .expect("reciprocal adjacency missing");
                self.slots[entry.slot as usize].adj[j].edge.state = EdgeState::Precedence(dir);
                true
            }
            EdgeState::Precedence(d) if d == dir => false,
            EdgeState::Precedence(_) => {
                panic!("attempt to reverse decided edge {from:?} -> {to:?}")
            }
        }
    }

    /// Whether the pair is decided as `from → to`.
    pub fn is_decided(&self, from: TxnId, to: TxnId) -> bool {
        assert!(from != to, "self-conflict on {from:?}");
        match self.adj_pos(from, to) {
            Some((s, i)) => self.slots[s as usize].adj[i].owner_precedes(from),
            None => false,
        }
    }

    /// Whether the pair still has an undecided conflict edge.
    pub fn is_conflict(&self, a: TxnId, b: TxnId) -> bool {
        self.edge(a, b)
            .is_some_and(|e| e.state == EdgeState::Conflict)
    }

    /// Directed precedence successors of `t` with edge weights.
    pub fn successors(&self, t: TxnId) -> Vec<(TxnId, f64)> {
        self.adj_of(t)
            .iter()
            .filter(|a| a.owner_precedes(t))
            .map(|a| (a.id, a.weight_from_owner(t)))
            .collect()
    }

    /// Directed precedence successor ids of `t` (no weight lookups —
    /// the hot path for reachability and cycle checks).
    pub fn succ_ids(&self, t: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.adj_of(t)
            .iter()
            .filter(move |a| a.owner_precedes(t))
            .map(|a| a.id)
    }

    /// Directed precedence predecessor ids of `t`.
    pub fn pred_ids(&self, t: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.adj_of(t)
            .iter()
            .filter(move |a| a.neighbor_precedes(t))
            .map(|a| a.id)
    }

    /// Directed precedence predecessors of `t`.
    pub fn predecessors(&self, t: TxnId) -> Vec<TxnId> {
        self.pred_ids(t).collect()
    }

    /// All undecided conflict pairs, in deterministic order.
    pub fn conflict_pairs(&self) -> Vec<PairKey> {
        let mut out = Vec::new();
        self.conflict_pairs_into(&mut out);
        out
    }

    /// Collect all undecided conflict pairs into `out` (cleared first),
    /// ascending by `(lo, hi)` — the scratch-buffer variant used by
    /// [`crate::paths::Scratch::forced_pairs`].
    pub fn conflict_pairs_into(&self, out: &mut Vec<PairKey>) {
        out.clear();
        for &(t, s) in &self.index {
            for a in self.slots[s as usize].adj.iter() {
                if t < a.id && a.edge.state == EdgeState::Conflict {
                    out.push(PairKey { lo: t, hi: a.id });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    /// Build the WTPG of Fig. 2-(b): T1: r(A:1)->r(B:3)->w(A:1),
    /// T2: r(C:1)->w(A:2 steps of cost 1 each). Weights from the paper:
    /// {T1->T2} = 2 (T2 blocked at its 2nd step, remaining 1+1),
    /// {T2->T1} = 5 (T1 blocked at its 1st step, remaining 1+3+1),
    /// T0 weights 5 and 3 (both just started).
    fn fig2() -> Wtpg {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 5.0);
        g.add_txn(t(2), 3.0);
        g.declare_conflict(t(1), t(2), 2.0, 5.0);
        g
    }

    #[test]
    fn fig2_weights() {
        let g = fig2();
        assert_eq!(g.t0_weight(t(1)), 5.0);
        assert_eq!(g.t0_weight(t(2)), 3.0);
        let key = PairKey::new(t(1), t(2));
        let e = g.edge(t(1), t(2)).unwrap();
        assert_eq!(e.weight_from(key, t(1)), 2.0);
        assert_eq!(e.weight_from(key, t(2)), 5.0);
        assert!(g.is_conflict(t(1), t(2)));
    }

    #[test]
    fn decide_and_query_precedence() {
        let mut g = fig2();
        assert!(g.set_precedence(t(1), t(2)));
        assert!(!g.set_precedence(t(1), t(2)), "idempotent");
        assert!(g.is_decided(t(1), t(2)));
        assert!(!g.is_decided(t(2), t(1)));
        assert!(!g.is_conflict(t(1), t(2)));
        assert_eq!(g.successors(t(1)), vec![(t(2), 2.0)]);
        assert_eq!(g.predecessors(t(2)), vec![t(1)]);
        assert!(g.successors(t(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "reverse decided edge")]
    fn reversing_decided_edge_panics() {
        let mut g = fig2();
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(2), t(1));
    }

    #[test]
    fn remove_txn_drops_edges() {
        let mut g = fig2();
        g.remove_txn(t(1));
        assert!(!g.contains(t(1)));
        assert!(g.contains(t(2)));
        assert!(g.edge(t(1), t(2)).is_none());
        assert_eq!(g.degree(t(2)), 0);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn t0_weight_updates() {
        let mut g = fig2();
        g.set_t0_weight(t(1), 4.0);
        assert_eq!(g.t0_weight(t(1)), 4.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_txn_panics() {
        let mut g = fig2();
        g.add_txn(t(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "self-conflict")]
    fn self_conflict_panics() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 1.0);
        g.declare_conflict(t(1), t(1), 0.0, 0.0);
    }

    #[test]
    fn redeclare_keeps_decided_direction() {
        let mut g = fig2();
        g.set_precedence(t(1), t(2));
        g.declare_conflict(t(1), t(2), 9.0, 9.0);
        assert!(g.is_decided(t(1), t(2)));
        let key = PairKey::new(t(1), t(2));
        assert_eq!(g.edge(t(1), t(2)).unwrap().weight_from(key, t(1)), 9.0);
    }

    #[test]
    fn degree_and_neighbors() {
        let mut g = Wtpg::new();
        for i in 1..=4 {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(2), t(1), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(2), t(4), 1.0, 1.0);
        assert_eq!(g.degree(t(2)), 3);
        assert_eq!(g.degree(t(1)), 1);
        let n: Vec<_> = g.neighbors(t(2)).collect();
        assert_eq!(n, vec![t(1), t(3), t(4)]); // deterministic order
    }

    #[test]
    fn conflict_pairs_lists_only_undecided() {
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        let pairs = g.conflict_pairs();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0], PairKey::new(t(2), t(3)));
    }

    #[test]
    fn pairkey_other() {
        let k = PairKey::new(t(5), t(2));
        assert_eq!(k.lo, t(2));
        assert_eq!(k.other(t(2)), t(5));
        assert_eq!(k.other(t(5)), t(2));
    }

    #[test]
    fn edges_iterate_in_pair_key_order() {
        let mut g = Wtpg::new();
        for i in [5u64, 1, 3, 2] {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(5), t(1), 1.0, 1.0);
        g.declare_conflict(t(3), t(2), 1.0, 1.0);
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(5), t(3), 1.0, 1.0);
        let keys: Vec<PairKey> = g.edges().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                PairKey::new(t(1), t(2)),
                PairKey::new(t(1), t(5)),
                PairKey::new(t(2), t(3)),
                PairKey::new(t(3), t(5)),
            ]
        );
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut g = Wtpg::new();
        for i in 0..8 {
            g.add_txn(t(i), 1.0);
        }
        let cap = g.slots.len();
        for i in 0..4 {
            g.remove_txn(t(i));
        }
        for i in 10..14 {
            g.add_txn(t(i), 1.0);
        }
        assert_eq!(g.slots.len(), cap, "freed slots must be reused");
        assert_eq!(g.len(), 8);
    }

    #[test]
    fn semantic_eq_ignores_slot_layout() {
        let mut a = Wtpg::new();
        a.add_txn(t(1), 1.0);
        a.add_txn(t(2), 2.0);
        a.add_txn(t(3), 3.0);
        a.declare_conflict(t(2), t(3), 1.0, 2.0);
        a.remove_txn(t(1));
        let mut b = Wtpg::new();
        b.add_txn(t(2), 2.0);
        b.add_txn(t(3), 3.0);
        b.declare_conflict(t(2), t(3), 1.0, 2.0);
        assert_eq!(a, b);
        b.set_precedence(t(2), t(3));
        assert_ne!(a, b);
    }
}
