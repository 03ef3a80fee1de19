//! Microbenchmarks of the WTPG algorithms: critical path, E(q) (LOW's
//! delta evaluator beside the reference), the GOW chain optimizer and
//! the chain-form admission test.
//!
//! These are the operations whose CPU cost the paper models with
//! `kwtpgtime`/`chaintime`/`toptime`; the benchmarks show the real cost
//! of our implementations at representative graph sizes.
//!
//! Plain `Instant`-based harness (no external benchmark framework).

use bds_wtpg::chain::{accepts_new_txn, is_chain_form, min_critical};
use bds_wtpg::eq::{eval_grant, GrantEval};
use bds_wtpg::paths::{critical_path, has_cycle, propagate, reachable};
use bds_wtpg::{TxnId, Wtpg};
use std::hint::black_box;
use std::time::Instant;

fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    for _ in 0..2 {
        black_box(f());
    }
    let budget = std::time::Duration::from_millis(200);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        black_box(f());
        iters += 1;
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<44} {per:>14.1} ns/iter  ({iters} iters)");
}

fn t(i: u64) -> TxnId {
    TxnId(i)
}

/// A chain of `n` transactions with deterministic pseudo-random weights.
fn chain_graph(n: u64) -> Wtpg {
    let mut g = Wtpg::new();
    let mut x = 0x9E37u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % 100) as f64 / 10.0
    };
    for i in 0..n {
        g.add_txn(t(i), next());
    }
    for i in 0..n - 1 {
        g.declare_conflict(t(i), t(i + 1), next(), next());
    }
    g
}

/// A denser non-chain graph (every node conflicts with up to 4 others).
fn dense_graph(n: u64) -> Wtpg {
    let mut g = Wtpg::new();
    for i in 0..n {
        g.add_txn(t(i), (i % 7) as f64);
    }
    for i in 0..n {
        for d in 1..=4u64 {
            if i + d < n {
                g.declare_conflict(t(i), t(i + d), 1.0 + d as f64, 2.0);
            }
        }
    }
    // Orient a spine so there are real precedence paths.
    for i in 0..n - 1 {
        g.set_precedence(t(i), t(i + 1));
    }
    g
}

/// A LOW-shaped graph: the conflicts of [`dense_graph`], with only the
/// pairs `(i, i + 1)` of even `i` decided, so most pairs are open.
fn low_graph(n: u64) -> Wtpg {
    let mut g = Wtpg::new();
    for i in 0..n {
        g.add_txn(t(i), (i % 7) as f64);
    }
    for i in 0..n {
        for d in 1..=4u64 {
            if i + d < n {
                g.declare_conflict(t(i), t(i + d), 1.0 + d as f64, 2.0);
            }
        }
    }
    for i in (0..n - 1).step_by(2) {
        g.set_precedence(t(i), t(i + 1));
    }
    g
}

fn main() {
    for n in [8u64, 32, 128] {
        let g = dense_graph(n);
        bench(&format!("critical_path/{n}"), || {
            black_box(critical_path(&g))
        });
    }
    for n in [32u64, 128, 512] {
        let g = dense_graph(n);
        bench(&format!("reachable/{n}"), || {
            black_box(reachable(&g, t(0), t(n - 1)))
        });
    }
    for n in [32u64, 256] {
        let g = dense_graph(n);
        bench(&format!("has_cycle/{n}"), || black_box(has_cycle(&g)));
    }
    // The paper charges `chaintime = 30 ms` (4 MIPS CPU) for the chain
    // optimizer; measure our implementation on growing chains.
    for n in [4u64, 8, 16, 32] {
        let g = chain_graph(n);
        bench(&format!("gow_min_critical/{n}"), || {
            black_box(min_critical(&g, &[]))
        });
    }
    // `toptime = 5 ms` in the paper.
    for n in [8u64, 64] {
        let g = chain_graph(n);
        bench(&format!("gow_admission/{n}"), || {
            black_box(is_chain_form(&g));
            black_box(accepts_new_txn(&g, &[t(0)]))
        });
    }
    // `kwtpgtime = 10 ms` in the paper (E(q) evaluation). One LOW
    // request: E(q) for `s` and E(p) for its competitor `s + 1`, as
    // deltas over one prepared base and with the reference `eval_grant`.
    for n in [8u64, 32, 128] {
        let g = low_graph(n);
        let s = n / 2 + 1;
        let q = [(t(s), t(s + 1)), (t(s), t(s + 2))];
        let p = [(t(s + 1), t(s)), (t(s + 1), t(s + 3))];
        let mut eval = GrantEval::new();
        bench(&format!("low_eval_grant/{n}"), || {
            eval.prepare(&g);
            black_box(eval.eval(&g, &q));
            black_box(eval.eval(&g, &p))
        });
        bench(&format!("eval_grant/{n}"), || {
            black_box(eval_grant(&g, &q));
            black_box(eval_grant(&g, &p))
        });
    }
    for n in [32u64, 128] {
        let g = dense_graph(n);
        bench(&format!("propagate/{n}"), || {
            let mut g2 = g.clone();
            black_box(propagate(&mut g2).is_ok())
        });
    }
}
