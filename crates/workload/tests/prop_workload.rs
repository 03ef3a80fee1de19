//! Randomized tests for the workload model: conflict symmetry, weight
//! consistency, and generator invariants. Inputs come from a fixed-seed
//! [`Xoshiro256`] stream, so the suite is deterministic.

use bds_des::rng::Xoshiro256;
use bds_workload::conflict::{conflicts, edge_weight, edge_weights, first_conflicting_step};
use bds_workload::gen::{Experiment1, Experiment2, WithEstimationError, WorkloadGen};
use bds_workload::spec::{Access, Step};
use bds_workload::{BatchSpec, FileId, LockMode};

const CASES: u64 = 256;

fn rng(case: u64, salt: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(0x3041 ^ salt ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn gen_spec(r: &mut Xoshiro256) -> BatchSpec {
    let n = 1 + r.next_index(5);
    BatchSpec::new(
        (0..n)
            .map(|_| {
                let f = r.next_range(8) as u32;
                let write = r.next_range(2) == 1;
                let cost = r.next_range(10);
                Step {
                    file: FileId(f),
                    mode: if write {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    },
                    access: if write { Access::Write } else { Access::Read },
                    cost: cost as f64,
                    declared: cost as f64,
                }
            })
            .collect(),
    )
}

#[test]
fn conflict_is_symmetric() {
    for case in 0..CASES {
        let mut r = rng(case, 1);
        let a = gen_spec(&mut r);
        let b = gen_spec(&mut r);
        assert_eq!(conflicts(&a, &b), conflicts(&b, &a));
    }
}

#[test]
fn edge_weights_consistent_with_first_step() {
    for case in 0..CASES {
        let mut r = rng(case, 2);
        let a = gen_spec(&mut r);
        let b = gen_spec(&mut r);
        match edge_weights(&a, &b) {
            Some((w_ab, w_ba)) => {
                let sb = first_conflicting_step(&a, &b).unwrap();
                let sa = first_conflicting_step(&b, &a).unwrap();
                assert!((w_ab - b.declared_from(sb)).abs() < 1e-12);
                assert!((w_ba - a.declared_from(sa)).abs() < 1e-12);
                // Weight never exceeds the whole declared demand.
                assert!(w_ab <= b.total_declared() + 1e-12);
                assert!(w_ba <= a.total_declared() + 1e-12);
            }
            None => {
                assert!(!conflicts(&a, &b));
                assert!(edge_weight(&a, &b).is_none());
            }
        }
    }
}

#[test]
fn lock_set_covers_every_step() {
    for case in 0..CASES {
        let spec = gen_spec(&mut rng(case, 3));
        let ls = spec.lock_set();
        for s in &spec.steps {
            let (_, mode) = ls
                .iter()
                .find(|(f, _)| *f == s.file)
                .expect("file in lock set");
            assert!(mode.covers(s.mode));
        }
        // No duplicates.
        let mut files: Vec<FileId> = ls.iter().map(|(f, _)| *f).collect();
        files.dedup();
        assert_eq!(files.len(), ls.len());
    }
}

#[test]
fn needs_lock_request_is_prefix_consistent() {
    for case in 0..CASES {
        let spec = gen_spec(&mut rng(case, 4));
        // A step needs a request iff no earlier step already covers it.
        for i in 0..spec.len() {
            let covered = spec.steps[..i]
                .iter()
                .any(|p| p.file == spec.steps[i].file && p.mode.covers(spec.steps[i].mode));
            assert_eq!(spec.needs_lock_request(i), !covered);
        }
        // The first step always needs one.
        assert!(spec.needs_lock_request(0));
    }
}

#[test]
fn declared_from_is_monotone() {
    for case in 0..CASES {
        let spec = gen_spec(&mut rng(case, 5));
        for i in 1..spec.len() {
            assert!(spec.declared_from(i) <= spec.declared_from(i - 1) + 1e-12);
        }
        assert!((spec.declared_from(0) - spec.total_declared()).abs() < 1e-12);
    }
}

#[test]
fn exp1_generator_invariants() {
    for case in 0..CASES {
        let mut r = rng(case, 6);
        let nf = 2 + r.next_range(62) as u32;
        let seed = r.next_u64();
        let mut g = Experiment1::new(nf, Xoshiro256::seed_from_u64(seed));
        for _ in 0..20 {
            let b = g.next_batch();
            assert_eq!(b.len(), 4);
            assert!((b.total_cost() - 7.2).abs() < 1e-12);
            let ls = b.lock_set();
            assert_eq!(ls.len(), 2);
            assert!(ls
                .iter()
                .all(|(f, m)| f.0 < nf && *m == LockMode::Exclusive));
        }
    }
}

#[test]
fn exp2_generator_invariants() {
    for case in 0..CASES {
        let seed = rng(case, 7).next_u64();
        let mut g = Experiment2::new(Xoshiro256::seed_from_u64(seed));
        for _ in 0..20 {
            let b = g.next_batch();
            assert!(b.steps[0].file.0 < 8);
            assert!(b.steps[0].mode == LockMode::Shared);
            assert!((8..16).contains(&b.steps[1].file.0));
            assert!((8..16).contains(&b.steps[2].file.0));
            assert!(b.steps[1].file != b.steps[2].file);
        }
    }
}

#[test]
fn estimation_error_never_negative() {
    for case in 0..CASES {
        let mut r = rng(case, 8);
        let sigma = r.next_f64() * 12.0;
        let seed = r.next_u64();
        let inner = Experiment1::new(16, Xoshiro256::seed_from_u64(seed));
        let mut g = WithEstimationError::new(inner, sigma, Xoshiro256::seed_from_u64(seed ^ 1));
        for _ in 0..20 {
            let b = g.next_batch();
            for s in &b.steps {
                assert!(s.declared >= 0.0);
                assert!(s.declared.is_finite());
            }
            // True costs untouched.
            assert!((b.total_cost() - 7.2).abs() < 1e-12);
        }
    }
}
