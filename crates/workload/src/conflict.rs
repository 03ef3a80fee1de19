//! Declaration-conflict helpers shared by the WTPG-based schedulers.
//!
//! Two batches conflict when they declare accesses to the same file with
//! incompatible lock modes. The WTPG edge weight for `Ti → Tj` is the
//! I/O demand `Tj` still must pay from its **first step that conflicts
//! with `Ti`** through its commitment (the paper's Fig. 2: with
//! `T1: r(A:1)→r(B:3)→w(A:1)` and `T2: r(C:1)→w(A:1)→w(C:1)`, the weight
//! of `{T1→T2}` is 2 — T2 is blocked at its second step and still needs
//! 2 objects — and `{T2→T1}` is 5).

use crate::spec::BatchSpec;

/// Do the two declarations conflict on at least one file?
pub fn conflicts(a: &BatchSpec, b: &BatchSpec) -> bool {
    first_conflicting_step(a, b).is_some()
}

/// Index of `b`'s first step whose access conflicts with `a`'s declared
/// lock set — i.e. the step at which `a` can first block `b`.
pub fn first_conflicting_step(a: &BatchSpec, b: &BatchSpec) -> Option<usize> {
    b.steps
        .iter()
        .position(|sb| a.mode_on(sb.file).is_some_and(|ma| !ma.compatible(sb.mode)))
}

/// Directed WTPG edge weight `a → b`: `b`'s declared demand from its
/// first step conflicting with `a` through commit. `None` if they do not
/// conflict.
pub fn edge_weight(a: &BatchSpec, b: &BatchSpec) -> Option<f64> {
    first_conflicting_step(a, b).map(|s| b.declared_from(s))
}

/// Both directed weights for a conflicting pair: `(w_ab, w_ba)`.
pub fn edge_weights(a: &BatchSpec, b: &BatchSpec) -> Option<(f64, f64)> {
    match (edge_weight(a, b), edge_weight(b, a)) {
        (Some(ab), Some(ba)) => Some((ab, ba)),
        (None, None) => None,
        // Conflict is symmetric by construction: if any step of `b`
        // conflicts with `a`'s lock set then some step of `a` conflicts
        // with `b`'s lock set (the same file, incompatible modes).
        _ => unreachable!("declaration conflict must be symmetric"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FileId, LockMode, Step};

    fn f(i: u32) -> FileId {
        FileId(i)
    }

    /// The paper's Fig. 2 example.
    fn t1() -> BatchSpec {
        BatchSpec::new(vec![
            Step::read(f(0), LockMode::Exclusive, 1.0), // r1(A:1) — X: T1 later writes A
            Step::read(f(1), LockMode::Shared, 3.0),    // r1(B:3)
            Step::write(f(0), 1.0),                     // w1(A:1)
        ])
    }

    fn t2() -> BatchSpec {
        BatchSpec::new(vec![
            Step::read(f(2), LockMode::Exclusive, 1.0), // r2(C:1) — X: T2 later writes C
            Step::write(f(0), 1.0),                     // w2(A:1)
            Step::write(f(2), 1.0),                     // w2(C:1)
        ])
    }

    #[test]
    fn fig2_edge_weights() {
        let (a, b) = (t1(), t2());
        assert!(conflicts(&a, &b));
        // T2 is blocked by T1 at its 2nd step w2(A:1): remaining 1+1 = 2.
        assert_eq!(edge_weight(&a, &b), Some(2.0));
        // T1 is blocked by T2 at its 1st step r1(A:1): remaining 5.
        assert_eq!(edge_weight(&b, &a), Some(5.0));
        assert_eq!(edge_weights(&a, &b), Some((2.0, 5.0)));
    }

    #[test]
    fn no_conflict_on_disjoint_files() {
        let a = BatchSpec::new(vec![Step::write(f(0), 1.0)]);
        let b = BatchSpec::new(vec![Step::write(f(1), 1.0)]);
        assert!(!conflicts(&a, &b));
        assert_eq!(edge_weights(&a, &b), None);
    }

    #[test]
    fn shared_shared_is_compatible() {
        let a = BatchSpec::new(vec![Step::read(f(0), LockMode::Shared, 2.0)]);
        let b = BatchSpec::new(vec![Step::read(f(0), LockMode::Shared, 3.0)]);
        assert!(!conflicts(&a, &b));
    }

    #[test]
    fn shared_exclusive_conflicts() {
        let a = BatchSpec::new(vec![Step::read(f(0), LockMode::Shared, 2.0)]);
        let b = BatchSpec::new(vec![Step::write(f(0), 3.0)]);
        assert!(conflicts(&a, &b));
        assert_eq!(edge_weight(&a, &b), Some(3.0));
        assert_eq!(edge_weight(&b, &a), Some(2.0));
    }

    #[test]
    fn weight_uses_declared_not_true_cost() {
        let a = BatchSpec::new(vec![Step::write(f(0), 1.0)]);
        let b = BatchSpec::new(vec![
            Step::write(f(1), 4.0).with_declared(8.0),
            Step::write(f(0), 1.0).with_declared(2.0),
        ]);
        // b's first conflicting step is its 2nd step; declared from there
        // is 2.0 (not the true 1.0).
        assert_eq!(edge_weight(&a, &b), Some(2.0));
    }

    #[test]
    fn conflict_symmetry_over_many_patterns() {
        // Symmetry sanity over a small grid of mode combinations.
        use LockMode::*;
        for (ma, mb) in [
            (Shared, Shared),
            (Shared, Exclusive),
            (Exclusive, Shared),
            (Exclusive, Exclusive),
        ] {
            let a = BatchSpec::new(vec![Step::read(f(0), ma, 1.0)]);
            let b = BatchSpec::new(vec![Step::read(f(0), mb, 1.0)]);
            assert_eq!(conflicts(&a, &b), conflicts(&b, &a));
            assert_eq!(conflicts(&a, &b), !ma.compatible(mb));
        }
    }
}
