//! Randomized property test of the maintained topological order
//! ([`TopoOrder`]): random admissions (fresh and restarted ids), decided
//! edges (single, and several from one node as a C2PL grant decides
//! them) and node removals keep the positions a valid topological order
//! of the precedence subgraph, and the windowed
//! [`TopoOrder::reachable_from_any`] answers exactly what a plain
//! reachability search answers. Inputs come from a fixed-seed SplitMix64
//! stream, so the test is deterministic.

use bds_wtpg::paths::{reachable, TopoOrder};
use bds_wtpg::{TxnId, Wtpg};

const CASES: u64 = 64;
const OPS: usize = 400;

/// Minimal deterministic RNG (SplitMix64) for test-input generation.
struct Rng(u64);

impl Rng {
    fn new(case: u64) -> Self {
        Rng(0x70B0_0D3E ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Every decided edge points forward and no two live nodes share a
/// position.
fn assert_valid(g: &Wtpg, order: &TopoOrder, context: &str) {
    let mut seen: Vec<u64> = g
        .txns()
        .map(|t| order.position(g, t).expect("live node has a position"))
        .collect();
    seen.sort_unstable();
    let n = seen.len();
    seen.dedup();
    assert_eq!(seen.len(), n, "{context}: duplicate positions");
    for u in g.txns() {
        for v in g.succ_ids(u) {
            assert!(
                order.position(g, u) < order.position(g, v),
                "{context}: decided {u:?} -> {v:?} points backward"
            );
        }
    }
}

/// Undecided neighbors `v` of `from` such that deciding `from → v` closes
/// no cycle.
fn safe_targets(g: &Wtpg, from: TxnId) -> Vec<TxnId> {
    g.neighbors(from)
        .filter(|&v| g.is_conflict(from, v) && !reachable(g, v, from))
        .collect()
}

fn pick(r: &mut Rng, v: &[TxnId]) -> Option<TxnId> {
    (!v.is_empty()).then(|| v[r.below(v.len())])
}

#[test]
fn order_stays_topological_and_windowed_search_matches_plain_search() {
    let mut queries = 0u64;
    let mut reordering_edges = 0u64;
    for case in 0..CASES {
        let mut r = Rng::new(case);
        let mut g = Wtpg::new();
        let mut order = TopoOrder::new();
        let mut next_id = 0u64;
        let mut removed: Vec<TxnId> = Vec::new();
        for op in 0..OPS {
            let live: Vec<TxnId> = g.txns().collect();
            let context = format!("case {case} op {op}");
            match r.below(10) {
                // Admission: a fresh id, or a restarted (non-largest) one.
                0..=2 => {
                    let id = if !removed.is_empty() && r.chance(30) {
                        removed.swap_remove(r.below(removed.len()))
                    } else {
                        next_id += 1;
                        TxnId(next_id)
                    };
                    g.add_txn(id, 1.0);
                    for &other in &live {
                        if r.chance(40) {
                            g.declare_conflict(id, other, 1.0, 1.0);
                            // A holder precedes the newcomer.
                            if r.chance(30) {
                                g.set_precedence(other, id);
                            }
                        }
                    }
                    order.admit(&g, id);
                }
                // One decided edge.
                3..=4 => {
                    let Some(from) = pick(&mut r, &live) else {
                        continue;
                    };
                    let Some(to) = pick(&mut r, &safe_targets(&g, from)) else {
                        continue;
                    };
                    if order.position(&g, to) < order.position(&g, from) {
                        reordering_edges += 1;
                    }
                    g.set_precedence(from, to);
                    order.edge_decided(&g, from, to);
                }
                // A grant: several edges from one node, decided together
                // and then fixed one after another.
                5..=6 => {
                    let Some(from) = pick(&mut r, &live) else {
                        continue;
                    };
                    let tos: Vec<TxnId> = safe_targets(&g, from)
                        .into_iter()
                        .filter(|_| r.chance(60))
                        .collect();
                    for &to in &tos {
                        g.set_precedence(from, to);
                    }
                    for &to in &tos {
                        order.edge_decided(&g, from, to);
                    }
                }
                7 => {
                    if let Some(t) = pick(&mut r, &live) {
                        g.remove_txn(t);
                        removed.push(t);
                    }
                }
                // Query: would `from → targets` close a cycle?
                _ => {
                    let Some(from) = pick(&mut r, &live) else {
                        continue;
                    };
                    let mut targets: Vec<TxnId> =
                        live.iter().copied().filter(|_| r.chance(20)).collect();
                    if let Some(&gone) = removed.first() {
                        targets.push(gone);
                    }
                    let plain = targets.iter().any(|&t| reachable(&g, t, from));
                    let windowed = order.reachable_from_any(&g, targets.iter().copied(), from);
                    assert_eq!(
                        windowed, plain,
                        "{context}: from {from:?} targets {targets:?}"
                    );
                    queries += 1;
                }
            }
            assert_valid(&g, &order, &context);
        }
    }
    // The generator must exercise both the queries and the reorder path.
    assert!(queries > 1_000, "only {queries} queries");
    assert!(reordering_edges > 100, "only {reordering_edges} reorders");
}
