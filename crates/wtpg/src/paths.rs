//! Path algorithms over the WTPG: reachability, cycle detection, critical
//! path, precedence propagation, and a topological order kept up to
//! date for incremental cycle checks ([`TopoOrder`]).
//!
//! All algorithms operate on the *decided* (precedence) edges only;
//! undecided conflict edges are ignored, exactly as Phase 2 of the paper's
//! `E(q)` function prescribes ("Ignore all the remaining conflict-edges").
//!
//! Every algorithm is **iterative** (explicit stacks, no recursion — long
//! blocking chains at high MPL must not overflow the call stack) and runs
//! against the graph's slot arena through a reusable [`Scratch`]: visited
//! marks are epoch-stamped (`O(1)` reset), DFS frames and worklists live
//! in buffers the caller keeps across decisions. The original free
//! functions remain as thin wrappers that allocate a fresh `Scratch`.
//!
//! Bit-for-bit determinism: distances fold `max` over predecessors in
//! ascending-id order and the critical path folds `max` over nodes in
//! ascending-id order, exactly like the original recursive version, so
//! every `f64` this module returns is identical to the seed engine's.

use crate::graph::{PairKey, TxnId, Wtpg};
use std::collections::BTreeMap;

/// Propagation found a conflict pair whose order is forced in *both*
/// directions: the decided edges already close a cycle through it, so
/// no serializable completion of the schedule exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contradiction {
    /// The contradictory pair.
    pub pair: PairKey,
}

impl std::fmt::Display for Contradiction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "both orders of ({}, {}) are forced by decided edges",
            self.pair.lo, self.pair.hi
        )
    }
}

impl std::error::Error for Contradiction {}

/// Reusable traversal state for the path algorithms.
///
/// `mark`/`done` are epoch-stamped per arena slot: bumping `epoch` resets
/// every mark in `O(1)`, so a scheduler can run thousands of reachability
/// and critical-path queries without touching the allocator (buffers only
/// grow when the arena does).
#[derive(Debug, Default)]
pub struct Scratch {
    /// Slot visited in the current query (grey, or "pushed").
    mark: Vec<u64>,
    /// Slot fully processed in the current query (black, or "finalized").
    done: Vec<u64>,
    /// Current query epoch; a mark is set iff its cell equals `epoch`.
    epoch: u64,
    /// DFS frames: `(slot, next adjacency cursor)`.
    frames: Vec<(u32, u32)>,
    /// Longest-path distance per slot (valid where `mark == epoch`).
    dist: Vec<f64>,
    /// Undecided pairs for [`Scratch::forced_pairs`].
    pairs: Vec<PairKey>,
    /// Transitive-closure bitset rows for [`Scratch::forced_pairs`]
    /// (`slot → descendant slots`), `closure_words` words per row.
    closure: Vec<u64>,
    /// Words per closure row.
    closure_words: usize,
}

/// Above this arena size `propagate` falls back to per-pair DFS probes:
/// the closure matrix costs `slot_bound² / 8` bytes — a few KB at
/// realistic multiprogramming levels, but unreasonable for degenerate
/// deep-chain stress graphs.
const CLOSURE_SLOT_LIMIT: usize = 4096;

impl Scratch {
    /// Fresh scratch state (allocates nothing until first use).
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Start a new query: size the mark buffers to the arena and bump the
    /// epoch so all previous marks become stale.
    fn begin(&mut self, g: &Wtpg) {
        let n = g.slot_bound();
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.done.resize(n, 0);
            self.dist.resize(n, 0.0);
        }
        self.epoch += 1;
        self.frames.clear();
    }

    /// Is there a directed precedence path `from ⇝ to`?
    ///
    /// `from == to` counts as reachable (empty path).
    pub fn reachable(&mut self, g: &Wtpg, from: TxnId, to: TxnId) -> bool {
        if from == to {
            return true;
        }
        let Some(start) = g.lookup(from) else {
            return false;
        };
        self.begin(g);
        let e = self.epoch;
        self.mark[start as usize] = e;
        self.frames.push((start, 0));
        while let Some((s, _)) = self.frames.pop() {
            let owner = g.slot_id(s);
            for a in g.slot_adj(s) {
                if !a.owner_precedes(owner) {
                    continue;
                }
                if a.id == to {
                    self.frames.clear();
                    return true;
                }
                if self.mark[a.slot as usize] != e {
                    self.mark[a.slot as usize] = e;
                    self.frames.push((a.slot, 0));
                }
            }
        }
        false
    }

    /// Does the precedence subgraph contain a directed cycle?
    pub fn has_cycle(&mut self, g: &Wtpg) -> bool {
        self.begin(g);
        let e = self.epoch;
        // `mark` = grey (on the DFS stack), `done` = black (finished).
        for root in g.live_slots() {
            if self.done[root as usize] == e || self.mark[root as usize] == e {
                continue;
            }
            self.mark[root as usize] = e;
            self.frames.push((root, 0));
            while !self.frames.is_empty() {
                let top = self.frames.len() - 1;
                let (s, cur) = self.frames[top];
                let adj = g.slot_adj(s);
                if cur as usize >= adj.len() {
                    self.done[s as usize] = e;
                    self.frames.pop();
                    continue;
                }
                self.frames[top].1 = cur + 1;
                let a = adj[cur as usize];
                if !a.owner_precedes(g.slot_id(s)) {
                    continue;
                }
                let n = a.slot as usize;
                if self.done[n] == e {
                    continue;
                }
                if self.mark[n] == e {
                    self.frames.clear();
                    return true; // grey → back edge → cycle
                }
                self.mark[n] = e;
                self.frames.push((a.slot, 0));
            }
        }
        false
    }

    /// Fill `dist` for every live slot (assumes acyclic; caller checks).
    /// Distances are finalized in DFS post-order over predecessors, with
    /// each node's fold over its predecessors in ascending-id order —
    /// bit-identical to the recursive formulation.
    fn fill_distances(&mut self, g: &Wtpg) {
        self.begin(g);
        let e = self.epoch;
        // `mark` = pushed, `done` = dist finalized.
        for root in g.live_slots() {
            if self.mark[root as usize] == e {
                continue;
            }
            self.mark[root as usize] = e;
            self.frames.push((root, 0));
            while !self.frames.is_empty() {
                let top = self.frames.len() - 1;
                let (s, cur) = self.frames[top];
                let owner = g.slot_id(s);
                let adj = g.slot_adj(s);
                if cur as usize >= adj.len() {
                    // All predecessors finalized: compute dist(s).
                    let mut best = g.slot_t0(s);
                    for a in adj {
                        if a.neighbor_precedes(owner) {
                            debug_assert_eq!(self.done[a.slot as usize], e);
                            let d = self.dist[a.slot as usize] + a.weight_from_neighbor(owner);
                            if d > best {
                                best = d;
                            }
                        }
                    }
                    self.dist[s as usize] = best;
                    self.done[s as usize] = e;
                    self.frames.pop();
                    continue;
                }
                self.frames[top].1 = cur + 1;
                let a = adj[cur as usize];
                if a.neighbor_precedes(owner) && self.mark[a.slot as usize] != e {
                    self.mark[a.slot as usize] = e;
                    self.frames.push((a.slot, 0));
                }
            }
        }
    }

    /// Critical path length from `T0` to `Tf` over precedence edges only.
    ///
    /// `dist(v) = max(t0_weight(v), max over decided u→v of dist(u) + w)`
    /// and the critical path is `max_v dist(v)` (every `v → Tf` edge has
    /// weight zero under the paper's cost model).
    ///
    /// Returns `f64::INFINITY` if the precedence subgraph is cyclic (a
    /// cyclic "schedule" can never complete — callers treat this as
    /// deadlock).
    pub fn critical_path(&mut self, g: &Wtpg) -> f64 {
        if self.has_cycle(g) {
            return f64::INFINITY;
        }
        self.fill_distances(g);
        let mut critical: f64 = 0.0;
        for s in g.live_slots() {
            critical = critical.max(self.dist[s as usize]);
        }
        critical
    }

    /// Build the transitive closure of the decided subgraph as bitset
    /// rows: one DFS post-order pass (exact on acyclic graphs) plus
    /// OR-sweeps to a fixpoint (a no-op confirmation pass on acyclic
    /// graphs, only iterating when the decided edges already cycle).
    fn build_closure(&mut self, g: &Wtpg) {
        let n = g.slot_bound();
        let words = n.div_ceil(64);
        self.closure_words = words;
        self.closure.clear();
        self.closure.resize(n * words, 0);
        self.begin(g);
        let e = self.epoch;
        for root in g.live_slots() {
            if self.mark[root as usize] == e {
                continue;
            }
            self.mark[root as usize] = e;
            self.frames.push((root, 0));
            while !self.frames.is_empty() {
                let top = self.frames.len() - 1;
                let (s, cur) = self.frames[top];
                let owner = g.slot_id(s);
                let adj = g.slot_adj(s);
                if cur as usize >= adj.len() {
                    // Successors finalized (on a DAG): fold their rows.
                    for a in adj {
                        if a.owner_precedes(owner) {
                            self.closure_set(s as usize, a.slot as usize);
                            self.closure_or(s as usize, a.slot as usize);
                        }
                    }
                    self.frames.pop();
                    continue;
                }
                self.frames[top].1 = cur + 1;
                let a = adj[cur as usize];
                if a.owner_precedes(owner) && self.mark[a.slot as usize] != e {
                    self.mark[a.slot as usize] = e;
                    self.frames.push((a.slot, 0));
                }
            }
        }
        loop {
            let mut grew = false;
            for s in g.live_slots() {
                let owner = g.slot_id(s);
                for a in g.slot_adj(s) {
                    if a.owner_precedes(owner) {
                        grew |= self.closure_or(s as usize, a.slot as usize);
                    }
                }
            }
            if !grew {
                break;
            }
        }
    }

    fn closure_set(&mut self, s: usize, t: usize) {
        self.closure[s * self.closure_words + t / 64] |= 1u64 << (t % 64);
    }

    /// OR row `t` into row `s`; reports whether row `s` grew.
    fn closure_or(&mut self, s: usize, t: usize) -> bool {
        let w = self.closure_words;
        let mut changed = false;
        for k in 0..w {
            let v = self.closure[t * w + k];
            let cell = &mut self.closure[s * w + k];
            if *cell | v != *cell {
                *cell |= v;
                changed = true;
            }
        }
        changed
    }

    fn closure_has(&self, s: usize, t: usize) -> bool {
        self.closure[s * self.closure_words + t / 64] >> (t % 64) & 1 == 1
    }

    /// The forced orientations of `g`'s undecided pairs (the paper's
    /// Fig. 6 rule): every undecided pair `(a, b)` with a decided path
    /// `a ⇝ b` yields `(a, b)`, in ascending pair order, into `out`
    /// (cleared first).
    ///
    /// Applying a forced orientation never adds reachability (`a ⇝ b`
    /// already held), so this one pass is the whole fixpoint and the
    /// transitive closure is constant: it is built once (bitset rows)
    /// and every pair probe is an `O(1)` lookup. Arenas past
    /// `CLOSURE_SLOT_LIMIT` slots probe each pair with a DFS instead.
    ///
    /// Returns [`Contradiction`] if some pair is reachable in *both*
    /// directions (the decided edges close a cycle through it).
    pub fn forced_pairs(
        &mut self,
        g: &Wtpg,
        out: &mut Vec<(TxnId, TxnId)>,
    ) -> Result<(), Contradiction> {
        out.clear();
        let mut pairs = std::mem::take(&mut self.pairs);
        g.conflict_pairs_into(&mut pairs);
        let use_closure = !pairs.is_empty() && g.slot_bound() <= CLOSURE_SLOT_LIMIT;
        if use_closure {
            self.build_closure(g);
        }
        let mut result = Ok(());
        for &key in &pairs {
            let (ab, ba) = if use_closure {
                let lo = g.lookup(key.lo).expect("pair endpoint is live") as usize;
                let hi = g.lookup(key.hi).expect("pair endpoint is live") as usize;
                (self.closure_has(lo, hi), self.closure_has(hi, lo))
            } else {
                (
                    self.reachable(g, key.lo, key.hi),
                    self.reachable(g, key.hi, key.lo),
                )
            };
            match (ab, ba) {
                (true, true) => {
                    result = Err(Contradiction { pair: key });
                    break;
                }
                (true, false) => out.push((key.lo, key.hi)),
                (false, true) => out.push((key.hi, key.lo)),
                (false, false) => {}
            }
        }
        self.pairs = pairs;
        result
    }

    /// Propagate forced orientations (the paper's Fig. 6 rule) to a
    /// fixpoint: decide every pair [`Scratch::forced_pairs`] reports.
    ///
    /// Returns [`Contradiction`], leaving `g` unchanged, if some pair is
    /// reachable in *both* directions.
    pub fn propagate(&mut self, g: &mut Wtpg) -> Result<(), Contradiction> {
        let mut forced = Vec::new();
        self.forced_pairs(g, &mut forced)?;
        for (from, to) in forced {
            g.set_precedence(from, to);
        }
        Ok(())
    }
}

/// A topological order of the decided (precedence) subgraph, kept up to
/// date as edges are decided (Pearce & Kelly, "A dynamic topological
/// sort algorithm for directed acyclic graphs", JEA 2006).
///
/// Invariant: every decided edge `u → v` between live nodes has
/// `position(u) < position(v)`. Positions are indexed by arena slot, so
/// a lookup is one array read.
///
/// - [`TopoOrder::admit`] gives a new node the next position, past every
///   other. Its decided edges at that point must all point into it.
/// - [`TopoOrder::edge_decided`] restores the invariant after one edge
///   is decided. It reorders only the window between the edge's two
///   positions; an edge that already points forward costs one compare.
/// - Removing a node leaves the order valid, so there is no removal
///   hook.
///
/// The order exists to answer [`TopoOrder::reachable_from_any`] with a
/// search that skips every node ordered after the target. Only a
/// scheduler that asks such questions (C2PL) keeps one.
///
/// Searches follow a per-slot list of decided successors instead of
/// scanning each node's whole adjacency. Each entry names the head's
/// slot and the admission it belongs to; an entry whose head was
/// removed (and its slot perhaps reused) since is skipped.
#[derive(Debug, Default)]
pub struct TopoOrder {
    /// Position per arena slot (meaningful for live slots only).
    ord: Vec<u64>,
    /// Per slot: how many nodes it has been admitted for, which tells
    /// its current node's entries from stale ones. (A stale entry would
    /// need its slot re-admitted 2³² times while it waits.)
    born: Vec<u32>,
    /// Per slot: the decided successors of its node, recorded when the
    /// edge was decided or the successor admitted. Reset on admission.
    succ: SuccLists,
    /// The position the next admitted node takes.
    next: u64,
    /// Epoch-stamped visit marks per slot.
    mark: Vec<u64>,
    /// Current search epoch; a slot is marked iff its cell equals it.
    epoch: u64,
    /// DFS stack of slots.
    stack: Vec<u32>,
    /// Slots found by a reorder's forward search (from the edge's head).
    fwd: Vec<u32>,
    /// Slots found by a reorder's backward search (from the edge's tail).
    back: Vec<u32>,
    /// The positions a reorder hands out again.
    pool: Vec<u64>,
}

/// A decided successor: the head's slot and its admission count.
#[derive(Debug, Clone, Copy)]
struct Succ {
    slot: u32,
    born: u32,
}

/// End of a [`SuccLists`] chain.
const NIL: u32 = u32::MAX;

/// Per-slot lists of [`Succ`] entries, linked newest first through one
/// arena with a free chain. A `Vec` per slot would grow by many small
/// reallocations; on the `repro --scale` run their holes raised peak RSS
/// from 13 to 21 MiB.
#[derive(Debug)]
struct SuccLists {
    /// Per slot: its newest entry, or `NIL`.
    head: Vec<u32>,
    /// Entries, each with the index of the next older one in its list.
    links: Vec<(Succ, u32)>,
    /// First entry of the chain of recycled entries, or `NIL`.
    free: u32,
}

impl Default for SuccLists {
    fn default() -> Self {
        SuccLists {
            head: Vec::new(),
            links: Vec::new(),
            free: NIL,
        }
    }
}

impl SuccLists {
    fn push(&mut self, slot: u32, e: Succ) {
        let link = (e, self.head[slot as usize]);
        let i = if self.free == NIL {
            self.links.push(link);
            (self.links.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.links[i as usize].1;
            self.links[i as usize] = link;
            i
        };
        self.head[slot as usize] = i;
    }

    /// Empty `slot`'s list, recycling its entries.
    fn clear(&mut self, slot: u32) {
        let first = std::mem::replace(&mut self.head[slot as usize], NIL);
        if first == NIL {
            return;
        }
        let mut last = first;
        while self.links[last as usize].1 != NIL {
            last = self.links[last as usize].1;
        }
        self.links[last as usize].1 = self.free;
        self.free = first;
    }
}

impl TopoOrder {
    /// An empty order.
    pub fn new() -> Self {
        TopoOrder::default()
    }

    /// Size the per-slot buffers to the arena and start a new search.
    fn begin(&mut self, g: &Wtpg) {
        let n = g.slot_bound();
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.ord.resize(n, 0);
            self.born.resize(n, 0);
            self.succ.head.resize(n, NIL);
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Does `e` still name the node admitted into its slot, and is that
    /// node live? A removed node's slot keeps its old id until reused.
    fn current(&self, g: &Wtpg, e: Succ) -> bool {
        self.born[e.slot as usize] == e.born && g.lookup(g.slot_id(e.slot)) == Some(e.slot)
    }

    fn slot(g: &Wtpg, t: TxnId) -> u32 {
        g.lookup(t)
            .unwrap_or_else(|| panic!("unknown transaction {t:?}"))
    }

    /// Place the newly added node `t` after every other node.
    ///
    /// # Panics
    /// Panics if `t` is not live.
    pub fn admit(&mut self, g: &Wtpg, t: TxnId) {
        let s = Self::slot(g, t);
        self.begin(g);
        debug_assert!(
            g.slot_adj(s).iter().all(|a| !a.owner_precedes(t)),
            "{t:?} admitted with a decided outgoing edge"
        );
        let born = self.born[s as usize].wrapping_add(1);
        self.born[s as usize] = born;
        self.ord[s as usize] = self.next;
        self.next += 1;
        let me = Succ { slot: s, born };
        self.succ.clear(s);
        for a in g.slot_adj(s) {
            if a.neighbor_precedes(t) {
                self.succ.push(a.slot, me);
            }
        }
    }

    /// The position of node `t`, if it is live. (Meaningful only for
    /// nodes placed by [`TopoOrder::admit`].)
    pub fn position(&self, g: &Wtpg, t: TxnId) -> Option<u64> {
        g.lookup(t).map(|s| self.ord[s as usize])
    }

    /// Restore the invariant after the edge `from → to` was decided.
    ///
    /// Every other decided edge must already respect the order, except
    /// further edges that leave `from`: a grant decides several of those
    /// at once, and fixing them one after another is sound because
    /// neither search can reach `from` again without a cycle.
    ///
    /// If `to` is ordered before `from`, a forward search from `to`
    /// collects the nodes ordered before `from`, a backward search from
    /// `from` collects the nodes ordered after `to`, and the positions
    /// of both sets are handed out again: the backward set first, then
    /// the forward set, each in its old relative order.
    ///
    /// # Panics
    /// Panics if either node is not live. Debug builds also panic if the
    /// edge closes a cycle.
    pub fn edge_decided(&mut self, g: &Wtpg, from: TxnId, to: TxnId) {
        let (sf, st) = (Self::slot(g, from), Self::slot(g, to));
        let entry = Succ {
            slot: st,
            born: self.born[st as usize],
        };
        self.succ.push(sf, entry);
        let (lb, ub) = (self.ord[st as usize], self.ord[sf as usize]);
        if lb > ub {
            return;
        }
        self.begin(g);
        let e = self.epoch;
        // Forward: successors of `to` ordered before `from`.
        self.fwd.clear();
        self.mark[st as usize] = e;
        self.stack.push(st);
        while let Some(s) = self.stack.pop() {
            self.fwd.push(s);
            let mut at = self.succ.head[s as usize];
            while at != NIL {
                let (x, next) = self.succ.links[at as usize];
                at = next;
                let n = x.slot as usize;
                if self.ord[n] < ub && self.mark[n] != e && self.current(g, x) {
                    debug_assert!(n != sf as usize, "{from:?} -> {to:?} closes a cycle");
                    self.mark[n] = e;
                    self.stack.push(x.slot);
                }
            }
        }
        // Backward: predecessors of `from` ordered after `to`.
        self.back.clear();
        self.mark[sf as usize] = e;
        self.stack.push(sf);
        while let Some(s) = self.stack.pop() {
            self.back.push(s);
            let owner = g.slot_id(s);
            for a in g.slot_adj(s) {
                let n = a.slot as usize;
                if a.neighbor_precedes(owner) && self.ord[n] > lb && self.mark[n] != e {
                    self.mark[n] = e;
                    self.stack.push(a.slot);
                }
            }
        }
        let ord = &mut self.ord;
        self.back.sort_unstable_by_key(|&s| ord[s as usize]);
        self.fwd.sort_unstable_by_key(|&s| ord[s as usize]);
        self.pool.clear();
        self.pool
            .extend(self.back.iter().chain(&self.fwd).map(|&s| ord[s as usize]));
        self.pool.sort_unstable();
        for (&s, &p) in self.back.iter().chain(&self.fwd).zip(&self.pool) {
            ord[s as usize] = p;
        }
    }

    /// Is `target` reachable over decided edges from *any* of `sources`
    /// (each counting itself as reachable)? Asked with `target = from`
    /// and the heads of new edges `from → to` as sources, it says
    /// whether deciding those edges would close a cycle.
    ///
    /// Every path climbs the order, so the search starts only from
    /// sources ordered before `target` and visits only nodes ordered
    /// before it. Sources that are not live are skipped.
    ///
    /// # Panics
    /// Panics if `target` is not live.
    pub fn reachable_from_any<I>(&mut self, g: &Wtpg, sources: I, target: TxnId) -> bool
    where
        I: IntoIterator<Item = TxnId>,
    {
        self.begin(g);
        let st = Self::slot(g, target);
        let ub = self.ord[st as usize];
        let born = self.born[st as usize];
        let e = self.epoch;
        for src in sources {
            if src == target {
                return true;
            }
            if let Some(s) = g.lookup(src) {
                if self.ord[s as usize] < ub && self.mark[s as usize] != e {
                    self.mark[s as usize] = e;
                    self.stack.push(s);
                }
            }
        }
        while let Some(s) = self.stack.pop() {
            let mut at = self.succ.head[s as usize];
            while at != NIL {
                let (x, next) = self.succ.links[at as usize];
                at = next;
                if x.slot == st && x.born == born {
                    self.stack.clear();
                    return true;
                }
                let n = x.slot as usize;
                if self.ord[n] < ub && self.mark[n] != e && self.current(g, x) {
                    self.mark[n] = e;
                    self.stack.push(x.slot);
                }
            }
        }
        false
    }
}

/// Is there a directed precedence path `from ⇝ to`?
///
/// `from == to` counts as reachable (empty path). One-shot wrapper over
/// [`Scratch::reachable`].
pub fn reachable(g: &Wtpg, from: TxnId, to: TxnId) -> bool {
    Scratch::new().reachable(g, from, to)
}

/// Does the precedence subgraph contain a directed cycle?
/// One-shot wrapper over [`Scratch::has_cycle`].
pub fn has_cycle(g: &Wtpg) -> bool {
    Scratch::new().has_cycle(g)
}

/// Critical path length from `T0` to `Tf` over precedence edges only.
/// One-shot wrapper over [`Scratch::critical_path`].
pub fn critical_path(g: &Wtpg) -> f64 {
    Scratch::new().critical_path(g)
}

/// Per-node longest-path distances from `T0` (same recurrence as
/// [`critical_path`]); useful for diagnostics and tests.
///
/// # Panics
/// Panics if the precedence subgraph is cyclic.
pub fn distances(g: &Wtpg) -> BTreeMap<TxnId, f64> {
    let mut scratch = Scratch::new();
    assert!(
        !scratch.has_cycle(g),
        "distances on cyclic precedence graph"
    );
    scratch.fill_distances(g);
    g.live_slots()
        .map(|s| (g.slot_id(s), scratch.dist[s as usize]))
        .collect()
}

/// Propagate forced orientations (the paper's Fig. 6 rule): whenever an
/// *undecided* conflict pair `(a, b)` is connected by a directed
/// precedence path `a ⇝ b`, the pair's order is determined and the
/// conflict edge is replaced by the precedence edge `a → b`. A forced
/// edge adds no reachability, so one pass reaches the fixpoint.
///
/// Returns [`Contradiction`] if propagation discovers a pair reachable
/// in *both* directions — i.e. the decided edges already form a cycle
/// through the pair, so no serializable completion exists.
/// One-shot wrapper over [`Scratch::propagate`].
pub fn propagate(g: &mut Wtpg) -> Result<(), Contradiction> {
    Scratch::new().propagate(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    /// T1 -> T2 (w 2), T0 weights 5, 3. Critical = max(5, 3, 5+2) = 7.
    #[test]
    fn critical_path_simple_chain() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 5.0);
        g.add_txn(t(2), 3.0);
        g.declare_conflict(t(1), t(2), 2.0, 5.0);
        g.set_precedence(t(1), t(2));
        assert_eq!(critical_path(&g), 7.0);
    }

    #[test]
    fn critical_path_ignores_conflict_edges() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 5.0);
        g.add_txn(t(2), 3.0);
        g.declare_conflict(t(1), t(2), 100.0, 100.0);
        // Undecided: only T0 weights matter.
        assert_eq!(critical_path(&g), 5.0);
    }

    #[test]
    fn critical_path_empty_graph_is_zero() {
        assert_eq!(critical_path(&Wtpg::new()), 0.0);
    }

    #[test]
    fn critical_path_takes_longest_branch() {
        // T1 -> T3 (w 1), T2 -> T3 (w 10); t0: 1, 2, 3.
        let mut g = Wtpg::new();
        g.add_txn(t(1), 1.0);
        g.add_txn(t(2), 2.0);
        g.add_txn(t(3), 3.0);
        g.declare_conflict(t(1), t(3), 1.0, 0.0);
        g.declare_conflict(t(2), t(3), 10.0, 0.0);
        g.set_precedence(t(1), t(3));
        g.set_precedence(t(2), t(3));
        // dist(3) = max(3, 1+1, 2+10) = 12
        assert_eq!(critical_path(&g), 12.0);
        let d = distances(&g);
        assert_eq!(d[&t(3)], 12.0);
        assert_eq!(d[&t(1)], 1.0);
    }

    #[test]
    fn chain_of_blocking_makes_long_path() {
        // The motivation example: chain T1 -> T2 -> T3 with weights 4, 4
        // and T0 weights 5,5,5 gives critical 13; independent txns give 5.
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 5.0);
        }
        g.declare_conflict(t(1), t(2), 4.0, 4.0);
        g.declare_conflict(t(2), t(3), 4.0, 4.0);
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(2), t(3));
        assert_eq!(critical_path(&g), 13.0);
    }

    #[test]
    fn reachable_transitive() {
        let mut g = Wtpg::new();
        for i in 1..=4 {
            g.add_txn(t(i), 0.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(2), t(3));
        assert!(reachable(&g, t(1), t(3)));
        assert!(!reachable(&g, t(3), t(1)));
        assert!(!reachable(&g, t(1), t(4)));
        assert!(reachable(&g, t(4), t(4)));
    }

    #[test]
    fn cycle_detection() {
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(1), t(3), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(2), t(3));
        assert!(!has_cycle(&g));
        g.set_precedence(t(3), t(1));
        assert!(has_cycle(&g));
        assert_eq!(critical_path(&g), f64::INFINITY);
    }

    /// Fig. 6 of the paper: granting T5's request (conflicting with T6)
    /// sets T5 -> T6, which creates the path T4 -> T5 -> T6 -> T7 and
    /// forces the conflict pair (T4, T7) to become T4 -> T7.
    #[test]
    fn fig6_propagation() {
        let mut g = Wtpg::new();
        for i in 4..=7 {
            g.add_txn(t(i), 0.0);
        }
        g.declare_conflict(t(4), t(5), 1.0, 1.0);
        g.declare_conflict(t(5), t(6), 1.0, 1.0);
        g.declare_conflict(t(6), t(7), 1.0, 1.0);
        g.declare_conflict(t(4), t(7), 10.0, 10.0);
        g.set_precedence(t(4), t(5));
        g.set_precedence(t(6), t(7));
        // Grant q: T5 -> T6.
        g.set_precedence(t(5), t(6));
        propagate(&mut g).unwrap();
        assert!(g.is_decided(t(4), t(7)), "conflict (T4,T7) must be forced");
        // Critical path (T0 weights 0): the paper reports E(q) = 10 via
        // the edge {T4 -> T7} of weight 10.
        assert_eq!(critical_path(&g), 10.0);
    }

    #[test]
    fn propagate_detects_contradiction() {
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 0.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(1), t(3), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(2), t(3));
        g.set_precedence(t(3), t(1)); // cycle among decided edges
        assert!(propagate(&mut g).is_err() || has_cycle(&g));
    }

    #[test]
    fn propagate_chains_to_fixpoint() {
        // 1->2, pairs (1,3) and (2,3): orienting 2->3 by path forces
        // nothing extra; but a longer chain exercises repeated passes:
        // decided: 1->2, 3->4; conflicts: (2,3) decided by nothing; then
        // decide 2->3 manually and (1,4) must be forced via 1->2->3->4.
        let mut g = Wtpg::new();
        for i in 1..=4 {
            g.add_txn(t(i), 0.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(3), t(4), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(1), t(4), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        g.set_precedence(t(3), t(4));
        g.set_precedence(t(2), t(3));
        propagate(&mut g).unwrap();
        assert!(g.is_decided(t(1), t(4)));
    }

    #[test]
    fn distances_on_dag() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 2.0);
        g.add_txn(t(2), 1.0);
        g.declare_conflict(t(1), t(2), 3.0, 0.0);
        g.set_precedence(t(1), t(2));
        let d = distances(&g);
        assert_eq!(d[&t(1)], 2.0);
        assert_eq!(d[&t(2)], 5.0);
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let mut g = Wtpg::new();
        for i in 1..=5 {
            g.add_txn(t(i), 1.0);
        }
        for i in 1..5 {
            g.declare_conflict(t(i), t(i + 1), 1.0, 1.0);
            g.set_precedence(t(i), t(i + 1));
        }
        let mut s = Scratch::new();
        for _ in 0..3 {
            assert!(s.reachable(&g, t(1), t(5)));
            assert!(!s.reachable(&g, t(5), t(1)));
            assert!(!s.has_cycle(&g));
            assert_eq!(s.critical_path(&g), 5.0);
        }
        // mutate and re-query with the same scratch
        g.remove_txn(t(3));
        assert!(!s.reachable(&g, t(1), t(5)));
        assert_eq!(s.critical_path(&g), 2.0);
    }

    #[test]
    fn reachable_from_any_multi_source() {
        let mut g = Wtpg::new();
        let mut order = TopoOrder::new();
        for i in 1..=4 {
            g.add_txn(t(i), 0.0);
            order.admit(&g, t(i));
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.set_precedence(t(1), t(2));
        order.edge_decided(&g, t(1), t(2));
        assert!(order.reachable_from_any(&g, [t(3), t(1)], t(2)));
        assert!(!order.reachable_from_any(&g, [t(3), t(4)], t(2)));
        assert!(order.reachable_from_any(&g, [t(2)], t(2)), "self counts");
        assert!(!order.reachable_from_any(&g, std::iter::empty(), t(2)));
    }

    /// A backward edge moves only the window between its endpoints:
    /// deciding 4 → 2 over the chain 2 → 3 puts 4 before 2 and leaves
    /// 1 and 3 where they were.
    #[test]
    fn backward_edge_reorders_only_its_window() {
        let mut g = Wtpg::new();
        let mut order = TopoOrder::new();
        for i in 1..=4 {
            g.add_txn(t(i), 0.0);
            order.admit(&g, t(i));
        }
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(4), t(2), 1.0, 1.0);
        g.set_precedence(t(2), t(3));
        order.edge_decided(&g, t(2), t(3));
        g.set_precedence(t(4), t(2));
        order.edge_decided(&g, t(4), t(2));
        let pos: Vec<u64> = (1..=4).map(|i| order.position(&g, t(i)).unwrap()).collect();
        assert_eq!(pos, vec![0, 2, 3, 1]);
        // The search from 3 back to 4 is cut at once: 3 is ordered
        // after 4, so no path can lead from it to 4.
        assert!(!order.reachable_from_any(&g, [t(3)], t(4)));
        assert!(order.reachable_from_any(&g, [t(4)], t(3)));
    }

    /// Deep chain: the recursive version of these algorithms overflowed
    /// the stack here; the iterative version must not.
    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let n = 50_000u64;
        let mut g = Wtpg::new();
        for i in 0..n {
            g.add_txn(t(i), 1.0);
        }
        for i in 0..n - 1 {
            g.declare_conflict(t(i), t(i + 1), 1.0, 1.0);
            g.set_precedence(t(i), t(i + 1));
        }
        let mut s = Scratch::new();
        assert!(!s.has_cycle(&g));
        assert_eq!(s.critical_path(&g), n as f64);
        assert!(s.reachable(&g, t(0), t(n - 1)));
    }
}
