//! Randomized property tests: the GOW chain dynamic program must agree
//! with exhaustive enumeration of full serializable orders, the path
//! algorithms must satisfy their structural invariants, and the
//! scratch-buffer variants of the path/E(q) routines must agree with
//! their allocating counterparts. Inputs come from a fixed-seed
//! SplitMix64 stream (the crate is dependency-free), so the suite is
//! deterministic.

use bds_wtpg::chain::{chains, is_chain_form, min_critical};
use bds_wtpg::eq::{eval_grant, eval_grant_with, EqScratch};
use bds_wtpg::graph::PairKey;
use bds_wtpg::oracle::min_critical_bruteforce;
use bds_wtpg::paths::{self, critical_path, distances, has_cycle, propagate, reachable};
use bds_wtpg::{TxnId, Wtpg};

const CASES: u64 = 256;

/// Case count of the scratch-reuse tests.
const SCRATCH_CASES: u64 = 128;

/// Minimal deterministic RNG (SplitMix64) for test-input generation.
struct Rng(u64);

impl Rng {
    fn new(case: u64, salt: u64) -> Self {
        Rng(0x57F6_C4A1 ^ salt ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn t(i: u64) -> TxnId {
    TxnId(i)
}

/// A random chain-form WTPG: one path of `n` nodes with random weights,
/// and each edge possibly pre-decided.
fn gen_chain(r: &mut Rng) -> Wtpg {
    let n = 2 + r.next_index(7);
    let mut g = Wtpg::new();
    for i in 0..n {
        g.add_txn(t(i as u64), r.next_f64() * 10.0);
    }
    for i in 0..n - 1 {
        let a = t(i as u64);
        let b = t(i as u64 + 1);
        g.declare_conflict(a, b, r.next_f64() * 10.0, r.next_f64() * 10.0);
        match r.next_index(3) {
            1 => {
                g.set_precedence(a, b);
            }
            2 => {
                g.set_precedence(b, a);
            }
            _ => {}
        }
    }
    g
}

/// A random *forest* of chains (multiple components).
fn gen_chain_forest(r: &mut Rng) -> Wtpg {
    let parts = 1 + r.next_index(2);
    let mut g = Wtpg::new();
    let mut offset = 0u64;
    for _ in 0..parts {
        let part = gen_chain(r);
        let ids: Vec<TxnId> = part.txns().collect();
        for id in &ids {
            g.add_txn(t(id.0 + offset), part.t0_weight(*id));
        }
        for (key, edge) in part.edges() {
            let a = t(key.lo.0 + offset);
            let b = t(key.hi.0 + offset);
            g.declare_conflict(a, b, edge.w_lo_hi, edge.w_hi_lo);
            if let Some((from, to)) = edge.decided(key) {
                g.set_precedence(t(from.0 + offset), t(to.0 + offset));
            }
        }
        offset += ids.len() as u64;
    }
    g
}

#[test]
fn chain_dp_matches_bruteforce() {
    for case in 0..CASES {
        let g = gen_chain(&mut Rng::new(case, 1));
        assert!(is_chain_form(&g));
        let fast = min_critical(&g, &[]);
        let slow = min_critical_bruteforce(&g, &[]);
        assert!((fast - slow).abs() < 1e-9, "dp={fast} bruteforce={slow}");
    }
}

#[test]
fn chain_dp_matches_bruteforce_on_forests() {
    for case in 0..CASES {
        let g = gen_chain_forest(&mut Rng::new(case, 2));
        assert!(is_chain_form(&g));
        let fast = min_critical(&g, &[]);
        let slow = min_critical_bruteforce(&g, &[]);
        assert!(
            (fast.is_infinite() && slow.is_infinite()) || (fast - slow).abs() < 1e-9,
            "dp={fast} bruteforce={slow}"
        );
    }
}

#[test]
fn forced_orientation_never_beats_free() {
    for case in 0..CASES {
        let g = gen_chain(&mut Rng::new(case, 3));
        let free = min_critical(&g, &[]);
        let pairs: Vec<_> = g.edges().map(|(k, _)| k).collect();
        for key in pairs {
            for (a, b) in [(key.lo, key.hi), (key.hi, key.lo)] {
                let forced = min_critical(&g, &[(a, b)]);
                assert!(
                    forced + 1e-9 >= free,
                    "forcing {a:?}->{b:?} gave {forced} < free {free}"
                );
            }
        }
    }
}

#[test]
fn some_forced_orientation_achieves_optimum() {
    for case in 0..CASES {
        let g = gen_chain(&mut Rng::new(case, 4));
        let free = min_critical(&g, &[]);
        if !free.is_finite() {
            continue;
        }
        for (key, _) in g.edges() {
            let lo_hi = min_critical(&g, &[(key.lo, key.hi)]);
            let hi_lo = min_critical(&g, &[(key.hi, key.lo)]);
            assert!(
                (lo_hi - free).abs() < 1e-9 || (hi_lo - free).abs() < 1e-9,
                "neither direction of {key:?} achieves the optimum"
            );
        }
    }
}

#[test]
fn critical_path_at_least_max_t0() {
    for case in 0..CASES {
        let g = gen_chain_forest(&mut Rng::new(case, 5));
        if has_cycle(&g) {
            continue;
        }
        let cp = critical_path(&g);
        for v in g.txns() {
            assert!(cp + 1e-9 >= g.t0_weight(v));
        }
    }
}

#[test]
fn critical_path_monotone_in_t0() {
    for case in 0..CASES {
        let mut r = Rng::new(case, 6);
        let g = gen_chain(&mut r);
        let bump = 0.1 + r.next_f64() * 4.9;
        if has_cycle(&g) {
            continue;
        }
        let before = critical_path(&g);
        let mut g2 = g.clone();
        let first = g2.txns().next().unwrap();
        g2.set_t0_weight(first, g2.t0_weight(first) + bump);
        assert!(critical_path(&g2) + 1e-9 >= before);
    }
}

#[test]
fn distances_bound_critical_path() {
    for case in 0..CASES {
        let g = gen_chain(&mut Rng::new(case, 7));
        if has_cycle(&g) {
            continue;
        }
        let cp = critical_path(&g);
        let d = distances(&g);
        let max_d = d.values().cloned().fold(0.0, f64::max);
        assert!((cp - max_d).abs() < 1e-9);
    }
}

#[test]
fn propagation_preserves_acyclicity_or_errors() {
    for case in 0..CASES {
        let g = gen_chain_forest(&mut Rng::new(case, 8));
        let mut g2 = g.clone();
        match propagate(&mut g2) {
            Ok(()) => {
                // Propagation only orients pairs forced by existing paths,
                // so if the input precedence graph was acyclic the output
                // must be too.
                if !has_cycle(&g) {
                    assert!(!has_cycle(&g2));
                }
                // Every newly decided pair must be justified by
                // reachability in the *output* graph.
                for (key, edge) in g2.edges() {
                    if let Some((from, to)) = edge.decided(key) {
                        assert!(reachable(&g2, from, to));
                    }
                }
            }
            Err(_) => {
                // Contradiction implies the decided subgraph already had a
                // cycle through some conflict pair; nothing more to check.
            }
        }
    }
}

#[test]
fn chains_partition_nodes() {
    for case in 0..CASES {
        let g = gen_chain_forest(&mut Rng::new(case, 9));
        let cs = chains(&g);
        let mut all: Vec<TxnId> = cs.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut expect: Vec<TxnId> = g.txns().collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
        // consecutive chain nodes must share an edge
        for c in &cs {
            for w in c.windows(2) {
                assert!(g.edge(w[0], w[1]).is_some());
            }
        }
    }
}

fn undecided_pairs(g: &Wtpg) -> Vec<PairKey> {
    g.edges()
        .filter(|(k, e)| e.decided(*k).is_none())
        .map(|(k, _)| k)
        .collect()
}

/// A random general (not chain-form) graph whose decided subgraph is
/// acyclic: edges appear with probability ~1/3 and are oriented — when
/// decided — along ascending id, i.e. along a topological order.
fn gen_general(r: &mut Rng, decide_prob_in_4: usize) -> (Wtpg, usize) {
    let n = 3 + r.next_index(8);
    let mut g = Wtpg::new();
    for i in 0..n {
        g.add_txn(t(i as u64), r.next_f64() * 10.0);
    }
    for i in 0..n {
        for j in i + 1..n {
            if r.next_index(3) == 0 {
                let (a, b) = (t(i as u64), t(j as u64));
                g.declare_conflict(a, b, r.next_f64() * 10.0, r.next_f64() * 10.0);
                if r.next_index(4) < decide_prob_in_4 {
                    g.set_precedence(a, b);
                }
            }
        }
    }
    (g, n)
}

/// `eval_grant_with` (reused trial graph + reachability probes) must
/// return the exact same E-value as the allocating `eval_grant` on
/// LOW-shaped inputs: a grantee's undecided conflicts oriented away
/// from it, on top of an acyclic decided subgraph.
#[test]
fn eval_grant_with_matches_allocating_eval() {
    let mut scratch = EqScratch::new();
    for case in 0..SCRATCH_CASES {
        let mut r = Rng::new(case, 13);
        let (g, n) = gen_general(&mut r, 2);
        let who = t(r.next_index(n) as u64);
        let mut orientations: Vec<(TxnId, TxnId)> = undecided_pairs(&g)
            .into_iter()
            .filter(|k| k.lo == who || k.hi == who)
            .map(|k| (who, k.other(who)))
            .collect();
        orientations.truncate(1 + r.next_index(3));
        let alloc = eval_grant(&g, &orientations);
        let reused = eval_grant_with(&mut scratch, &g, &orientations);
        assert_eq!(
            alloc.to_bits(),
            reused.to_bits(),
            "case {case}: eval_grant={alloc} eval_grant_with={reused}"
        );
    }
}

/// The reusable `paths::Scratch` traversals must agree with the free
/// functions on arbitrary (possibly cyclic) precedence graphs, with one
/// scratch instance reused across every case to surface stale state.
#[test]
fn scratch_traversals_match_free_functions() {
    let mut ps = paths::Scratch::new();
    for case in 0..SCRATCH_CASES {
        let mut r = Rng::new(case, 14);
        let n = 3 + r.next_index(8);
        let mut g = Wtpg::new();
        for i in 0..n {
            g.add_txn(t(i as u64), r.next_f64() * 10.0);
        }
        for i in 0..n {
            for j in i + 1..n {
                if r.next_index(3) == 0 {
                    let (a, b) = (t(i as u64), t(j as u64));
                    g.declare_conflict(a, b, r.next_f64() * 10.0, r.next_f64() * 10.0);
                    // Random direction: cycles are possible and wanted.
                    match r.next_index(3) {
                        0 => {
                            g.set_precedence(a, b);
                        }
                        1 => {
                            g.set_precedence(b, a);
                        }
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(ps.has_cycle(&g), has_cycle(&g), "case {case}");
        for _ in 0..10 {
            let a = t(r.next_index(n) as u64);
            let b = t(r.next_index(n) as u64);
            if a == b {
                continue;
            }
            assert_eq!(
                ps.reachable(&g, a, b),
                reachable(&g, a, b),
                "case {case}: {a:?} ⇝ {b:?}"
            );
        }
        let mut g_free = g.clone();
        let mut g_scratch = g.clone();
        let res_free = propagate(&mut g_free);
        let res_scratch = ps.propagate(&mut g_scratch);
        match (res_free, res_scratch) {
            (Ok(()), Ok(())) => assert!(g_free == g_scratch, "case {case}: graphs diverge"),
            (Err(a), Err(b)) => assert_eq!(a.pair, b.pair, "case {case}"),
            (a, b) => panic!("case {case}: propagate outcomes diverge: {a:?} vs {b:?}"),
        }
    }
}
