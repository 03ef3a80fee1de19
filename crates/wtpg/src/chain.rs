//! Chain-form WTPGs and the GOW optimization.
//!
//! Finding the full serializable order with the shortest critical path is
//! NP-hard on general WTPGs, so GOW (Phase 0) restricts the graph to
//! **chain form**: the undirected conflict graph over general transactions
//! must be a disjoint union of simple paths ("each general transaction
//! conflicts only with its adjacent nodes"). On a chain the optimum is
//! computed in polynomial time (the paper cites `O(n²)`); we use a Pareto
//! dynamic program over the chain (validated against exhaustive
//! enumeration in [`crate::oracle`]).
//!
//! [`min_critical`] re-derives the chains and re-runs the program on
//! every call. Chain form keeps GOW's graph small (at the Fig. 8 hot
//! point it holds at most 13 live transactions), so a from-scratch
//! answer costs far less than the `chaintime` the model charges for it.

use crate::graph::{Direction, EdgeState, PairKey, TxnId, Wtpg};

/// Is the conflict graph a disjoint union of simple paths?
///
/// Equivalent test: every node has degree ≤ 2 and every connected
/// component is acyclic (which for degree ≤ 2 means `edges = nodes − 1`).
pub fn is_chain_form(g: &Wtpg) -> bool {
    for v in g.txns() {
        if g.degree(v) > 2 {
            return false;
        }
    }
    // Acyclicity of the undirected pair graph via union-find over the
    // (small) node set.
    let nodes: Vec<TxnId> = g.txns().collect();
    let index = |t: TxnId| nodes.binary_search(&t).unwrap();
    let mut parent: Vec<usize> = (0..nodes.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (key, _) in g.edges() {
        let a = find(&mut parent, index(key.lo));
        let b = find(&mut parent, index(key.hi));
        if a == b {
            return false; // cycle
        }
        parent[a] = b;
    }
    true
}

/// Would the graph stay chain-form after adding a new transaction that
/// conflicts with exactly the nodes in `new_conflicts`?
///
/// This is GOW's Phase 0 admission test. The candidate set is deduplicated
/// internally.
pub fn accepts_new_txn(g: &Wtpg, new_conflicts: &[TxnId]) -> bool {
    let mut set: Vec<TxnId> = new_conflicts.to_vec();
    set.sort_unstable();
    set.dedup();
    if set.len() > 2 {
        return false;
    }
    // Each touched node must currently be a path endpoint.
    for &n in &set {
        if g.degree(n) >= 2 {
            return false;
        }
    }
    if set.len() == 2 {
        // The two endpoints must belong to different components, else the
        // new node closes a cycle.
        if same_component(g, set[0], set[1]) {
            return false;
        }
    }
    true
}

fn same_component(g: &Wtpg, a: TxnId, b: TxnId) -> bool {
    if a == b {
        return true;
    }
    let mut stack = vec![a];
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(a);
    while let Some(v) = stack.pop() {
        for n in g.neighbors(v) {
            if n == b {
                return true;
            }
            if seen.insert(n) {
                stack.push(n);
            }
        }
    }
    false
}

/// Decompose a chain-form WTPG into its path components, each listed from
/// one endpoint to the other (isolated nodes give singleton chains).
///
/// # Panics
/// Panics if the graph is not chain-form.
pub fn chains(g: &Wtpg) -> Vec<Vec<TxnId>> {
    assert!(is_chain_form(g), "chains() on non-chain-form WTPG");
    let mut visited = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    // Walk from endpoints (degree <= 1) for deterministic orientation.
    for v in g.txns() {
        if visited.contains(&v) || g.degree(v) > 1 {
            continue;
        }
        let mut chain = vec![v];
        visited.insert(v);
        let mut cur = v;
        loop {
            let next = g.neighbors(cur).find(|n| !visited.contains(n));
            match next {
                Some(n) => {
                    visited.insert(n);
                    chain.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        out.push(chain);
    }
    debug_assert!(
        g.txns().all(|v| visited.contains(&v)),
        "chain decomposition missed nodes"
    );
    out
}

/// Orientation constraint for the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeChoice {
    /// Both directions possible (undecided conflict edge).
    Free,
    /// Only `lo → hi`.
    OnlyLoHi,
    /// Only `hi → lo`.
    OnlyHiLo,
    /// No direction possible (forced against decided): infeasible.
    Infeasible,
}

/// Minimum critical path over all full serializable orders of a
/// chain-form WTPG.
///
/// `forced` pins the orientations of zero or more pairs `(from, to)` —
/// GOW Phase 3 uses this to test whether granting a lock request (which
/// may orient up to two pairs in chain form) is consistent with *some*
/// optimal order: the grant is consistent iff
/// `min_critical(g, &[(i, j), …]) == min_critical(g, &[])`.
///
/// # Panics
/// Panics if the graph is not chain-form, or a forced pair has no edge.
pub fn min_critical(g: &Wtpg, forced: &[(TxnId, TxnId)]) -> f64 {
    for &(a, b) in forced {
        assert!(
            g.edge(a, b).is_some(),
            "forced pair ({a:?},{b:?}) has no edge"
        );
    }
    let mut worst: f64 = 0.0;
    for chain in chains(g) {
        let v = chain_min(g, &chain, forced);
        worst = worst.max(v);
        if worst.is_infinite() {
            return f64::INFINITY;
        }
    }
    worst
}

/// Directed-run DP state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Run {
    /// Forward run (left-to-right): `l` = longest directed path ending at
    /// the current boundary node.
    Fwd { l: f64 },
    /// Backward run (right-to-left): `m` = longest path ending at the
    /// run's sink so far; `s` = sum of edge weights from the current
    /// boundary node down to the sink.
    Bwd { m: f64, s: f64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct State {
    /// Maximum critical-path candidate among already-closed runs.
    a: f64,
    run: Run,
}

impl State {
    fn close(&self) -> f64 {
        match self.run {
            Run::Fwd { l } => self.a.max(l),
            Run::Bwd { m, .. } => self.a.max(m),
        }
    }
}

fn edge_choice(g: &Wtpg, a: TxnId, b: TxnId, forced: &[(TxnId, TxnId)]) -> EdgeChoice {
    let key = PairKey::new(a, b);
    let e = g.edge(a, b).expect("chain edge missing");
    let mut choice = match e.state {
        EdgeState::Conflict => EdgeChoice::Free,
        EdgeState::Precedence(Direction::LoToHi) => EdgeChoice::OnlyLoHi,
        EdgeState::Precedence(Direction::HiToLo) => EdgeChoice::OnlyHiLo,
    };
    for &(from, to) in forced {
        if PairKey::new(from, to) == key {
            let want = if from == key.lo {
                EdgeChoice::OnlyLoHi
            } else {
                EdgeChoice::OnlyHiLo
            };
            choice = match (choice, want) {
                (EdgeChoice::Free, w) => w,
                (c, w) if c == w => c,
                _ => EdgeChoice::Infeasible,
            };
        }
    }
    choice
}

/// Minimum critical value of one chain. `chain` lists consecutive nodes;
/// each consecutive pair must have an edge.
fn chain_min(g: &Wtpg, chain: &[TxnId], forced: &[(TxnId, TxnId)]) -> f64 {
    assert!(!chain.is_empty());
    if chain.len() == 1 {
        return g.t0_weight(chain[0]);
    }
    let mut states = vec![State {
        a: 0.0,
        run: Run::Fwd {
            l: g.t0_weight(chain[0]),
        },
    }];
    for w in chain.windows(2) {
        let (u, v) = (w[0], w[1]);
        let key = PairKey::new(u, v);
        let e = g.edge(u, v).expect("chain edge missing");
        let w_f = e.weight_from(key, u); // u -> v
        let w_b = e.weight_from(key, v); // v -> u
        let choice = edge_choice(g, u, v, forced);
        if choice == EdgeChoice::Infeasible {
            return f64::INFINITY;
        }
        let forward_allowed = matches!(choice, EdgeChoice::Free)
            || (choice == EdgeChoice::OnlyLoHi && u == key.lo)
            || (choice == EdgeChoice::OnlyHiLo && u == key.hi);
        let backward_allowed = matches!(choice, EdgeChoice::Free)
            || (choice == EdgeChoice::OnlyLoHi && v == key.lo)
            || (choice == EdgeChoice::OnlyHiLo && v == key.hi);
        let t0_u = g.t0_weight(u);
        let t0_v = g.t0_weight(v);
        let mut next: Vec<State> = Vec::with_capacity(states.len() * 2);
        for st in &states {
            if forward_allowed {
                let run = match st.run {
                    Run::Fwd { l } => Run::Fwd {
                        l: t0_v.max(l + w_f),
                    },
                    Run::Bwd { .. } => Run::Fwd {
                        l: t0_v.max(t0_u + w_f),
                    },
                };
                let a = match st.run {
                    Run::Fwd { .. } => st.a,
                    Run::Bwd { m, .. } => st.a.max(m),
                };
                next.push(State { a, run });
            }
            if backward_allowed {
                let (a, run) = match st.run {
                    Run::Fwd { l } => (
                        st.a.max(l),
                        Run::Bwd {
                            m: t0_v + w_b,
                            s: w_b,
                        },
                    ),
                    Run::Bwd { m, s } => {
                        let s2 = s + w_b;
                        (
                            st.a,
                            Run::Bwd {
                                m: m.max(t0_v + s2),
                                s: s2,
                            },
                        )
                    }
                };
                next.push(State { a, run });
            }
        }
        if next.is_empty() {
            return f64::INFINITY;
        }
        states = pareto_prune(next);
    }
    states
        .iter()
        .map(|s| s.close())
        .fold(f64::INFINITY, f64::min)
}

/// Remove dominated states. A state dominates another (of the same run
/// variant) when every component is ≤ the other's: smaller closed-max,
/// smaller ongoing run values can only help later.
fn pareto_prune(mut states: Vec<State>) -> Vec<State> {
    // Split by variant, sort, keep the frontier.
    let mut fwd: Vec<(f64, f64)> = Vec::new(); // (a, l)
    let mut bwd: Vec<(f64, f64, f64)> = Vec::new(); // (a, m, s)
    for st in states.drain(..) {
        match st.run {
            Run::Fwd { l } => fwd.push((st.a, l)),
            Run::Bwd { m, s } => bwd.push((st.a, m, s)),
        }
    }
    let mut out = Vec::new();
    // 2-D frontier: sort by a then l; sweep keeping strictly decreasing l.
    fwd.sort_by(|x, y| x.partial_cmp(y).unwrap());
    let mut best_l = f64::INFINITY;
    for (a, l) in fwd {
        if l < best_l {
            best_l = l;
            out.push(State {
                a,
                run: Run::Fwd { l },
            });
        }
    }
    // 3-D frontier: quadratic filter (state counts stay small in
    // practice; the paper's own bound is O(n²)).
    let mut kept: Vec<(f64, f64, f64)> = Vec::new();
    bwd.sort_by(|x, y| x.partial_cmp(y).unwrap());
    'outer: for c in bwd {
        for k in &kept {
            if k.0 <= c.0 && k.1 <= c.1 && k.2 <= c.2 {
                continue 'outer;
            }
        }
        kept.retain(|k| !(c.0 <= k.0 && c.1 <= k.1 && c.2 <= k.2));
        kept.push(c);
    }
    for (a, m, s) in kept {
        out.push(State {
            a,
            run: Run::Bwd { m, s },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    fn path_graph(t0: &[f64], w: &[(f64, f64)]) -> Wtpg {
        let mut g = Wtpg::new();
        for (i, &w0) in t0.iter().enumerate() {
            g.add_txn(t(i as u64 + 1), w0);
        }
        for (i, &(wf, wb)) in w.iter().enumerate() {
            let a = t(i as u64 + 1);
            let b = t(i as u64 + 2);
            g.declare_conflict(a, b, wf, wb);
        }
        g
    }

    #[test]
    fn chain_form_accepts_paths() {
        let g = path_graph(&[1.0, 1.0, 1.0], &[(1.0, 1.0), (1.0, 1.0)]);
        assert!(is_chain_form(&g));
        assert_eq!(chains(&g), vec![vec![t(1), t(2), t(3)]]);
    }

    #[test]
    fn chain_form_rejects_star() {
        let mut g = Wtpg::new();
        for i in 1..=4 {
            g.add_txn(t(i), 1.0);
        }
        for i in 2..=4 {
            g.declare_conflict(t(1), t(i), 1.0, 1.0);
        }
        assert!(!is_chain_form(&g));
    }

    #[test]
    fn chain_form_rejects_cycle() {
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(2), t(3), 1.0, 1.0);
        g.declare_conflict(t(3), t(1), 1.0, 1.0);
        assert!(!is_chain_form(&g));
    }

    #[test]
    fn isolated_nodes_are_chains() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 3.0);
        g.add_txn(t(2), 7.0);
        assert!(is_chain_form(&g));
        assert_eq!(chains(&g).len(), 2);
        assert_eq!(min_critical(&g, &[]), 7.0);
    }

    #[test]
    fn accepts_endpoint_extension() {
        let g = path_graph(&[1.0, 1.0, 1.0], &[(1.0, 1.0), (1.0, 1.0)]);
        // T2 is interior (degree 2): conflicting with it is refused.
        assert!(!accepts_new_txn(&g, &[t(2)]));
        // Endpoints are fine.
        assert!(accepts_new_txn(&g, &[t(1)]));
        assert!(accepts_new_txn(&g, &[t(3)]));
        // Joining both endpoints of the same chain closes a cycle.
        assert!(!accepts_new_txn(&g, &[t(1), t(3)]));
        // No conflicts at all: always accepted.
        assert!(accepts_new_txn(&g, &[]));
        // Three conflicts: degree 3, refused.
        let mut g2 = Wtpg::new();
        for i in 1..=3 {
            g2.add_txn(t(i), 1.0);
        }
        assert!(!accepts_new_txn(&g2, &[t(1), t(2), t(3)]));
    }

    #[test]
    fn accepts_bridging_two_chains() {
        let mut g = Wtpg::new();
        for i in 1..=4 {
            g.add_txn(t(i), 1.0);
        }
        g.declare_conflict(t(1), t(2), 1.0, 1.0);
        g.declare_conflict(t(3), t(4), 1.0, 1.0);
        assert!(accepts_new_txn(&g, &[t(2), t(3)]));
        assert!(!accepts_new_txn(&g, &[t(1), t(2)])); // same component
    }

    /// Fig. 3 of the paper: chain T1 - T2 - T3 where
    /// W = {T1→T2, T3→T2} yields critical path {T0→T1→T2}.
    /// We reconstruct compatible weights: the figure's optimum orients
    /// both edges *into* T2.
    #[test]
    fn fig3_optimal_order() {
        let mut g = Wtpg::new();
        g.add_txn(t(1), 2.0);
        g.add_txn(t(2), 4.0);
        g.add_txn(t(3), 1.0);
        // (T1,T2): T1->T2 cheap for T2 (w 3), T2->T1 expensive for T1 (w 6).
        g.declare_conflict(t(1), t(2), 3.0, 6.0);
        // (T2,T3): T2->T3 expensive (w 7), T3->T2 cheap (w 3).
        g.declare_conflict(t(2), t(3), 7.0, 3.0);
        let best = min_critical(&g, &[]);
        // Optimal W = {T1->T2, T3->T2}: paths T0->T1->T2 (2+3=5),
        // T0->T3->T2 (1+3=4), singles 2,4,1 -> critical 5.
        assert_eq!(best, 5.0);
        // Granting a request that sets T1->T2 is consistent with W:
        assert_eq!(min_critical(&g, &[(t(1), t(2))]), 5.0);
        // Forcing T2->T1 is worse (inconsistent with the optimum):
        assert!(min_critical(&g, &[(t(2), t(1))]) > 5.0);
    }

    #[test]
    fn decided_edges_are_respected() {
        let mut g = path_graph(&[0.0, 0.0], &[(10.0, 1.0)]);
        // Undecided: best orients 2->1 with critical max(0+1, ...) = 1.
        assert_eq!(min_critical(&g, &[]), 1.0);
        g.set_precedence(t(1), t(2));
        assert_eq!(min_critical(&g, &[]), 10.0);
        // Forcing against a decided edge is infeasible.
        assert_eq!(min_critical(&g, &[(t(2), t(1))]), f64::INFINITY);
        // Forcing along the decided edge is free.
        assert_eq!(min_critical(&g, &[(t(1), t(2))]), 10.0);
    }

    #[test]
    fn single_txn_min_is_t0() {
        let mut g = Wtpg::new();
        g.add_txn(t(9), 42.0);
        assert_eq!(min_critical(&g, &[]), 42.0);
    }

    #[test]
    fn long_chain_prefers_alternation() {
        // 5 nodes, t0 = 1 each, every direction weight 10: orienting all
        // the same way gives 1 + 40; alternating gives 1 + 10 = 11.
        let g = path_graph(
            &[1.0; 5],
            &[(10.0, 10.0), (10.0, 10.0), (10.0, 10.0), (10.0, 10.0)],
        );
        assert_eq!(min_critical(&g, &[]), 11.0);
    }

    #[test]
    fn forced_in_long_chain() {
        let g = path_graph(&[1.0; 4], &[(5.0, 2.0), (5.0, 2.0), (5.0, 2.0)]);
        let free = min_critical(&g, &[]);
        for w in [(t(1), t(2)), (t(2), t(1)), (t(2), t(3)), (t(3), t(4))] {
            let forced = min_critical(&g, &[w]);
            assert!(forced >= free);
        }
    }

    #[test]
    fn matches_bruteforce_on_examples() {
        use crate::oracle::min_critical_bruteforce;
        let cases = vec![
            path_graph(&[2.0, 4.0, 1.0], &[(3.0, 6.0), (7.0, 3.0)]),
            path_graph(&[1.0; 5], &[(10.0, 10.0); 4]),
            path_graph(&[5.0, 0.0, 5.0, 0.0], &[(1.0, 9.0), (9.0, 1.0), (4.0, 4.0)]),
            path_graph(&[0.2, 6.0], &[(1.2, 0.2)]),
        ];
        for g in cases {
            assert_eq!(min_critical(&g, &[]), min_critical_bruteforce(&g, &[]));
        }
    }
}
