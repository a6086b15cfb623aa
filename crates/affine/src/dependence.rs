//! Array dependence analysis.
//!
//! The paper's §1 motivates data-layout transformation over loop
//! restructuring: "loop transformations are constrained by data and
//! control dependences. In contrast, data transformations are essentially
//! a kind of renaming and not affected by dependences." This module makes
//! that contrast checkable: it computes dependence distance vectors
//! between reference pairs — which `hoploc-check`'s race detector judges
//! against each nest's parallel loop — and (trivially, by construction)
//! shows that any bijective data-layout transformation preserves every
//! dependence.
//!
//! The analysis handles the common *uniform* case exactly — two references
//! with the same access matrix and constant offset difference — and falls
//! back to a conservative GCD-based independence test otherwise.

use crate::access::AffineAccess;
use crate::matrix::{gcd, IVec};
use crate::nest::{ArrayId, LoopNest, RefKind};

/// The result of testing a pair of references for dependence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Dependence {
    /// No iteration pair can touch the same element.
    Independent,
    /// Same element touched at a constant iteration distance: a *uniform*
    /// dependence with the given distance vector (source to sink).
    Uniform(IVec),
    /// A dependence may exist but has no constant distance (coupled
    /// subscripts, parameterized offsets, …).
    Unknown,
}

/// Tests two references (to the same array) for dependence.
///
/// Exact for the uniform case (`A₁ == A₂`); otherwise applies the GCD
/// test row-wise and returns [`Dependence::Unknown`] when it cannot prove
/// independence.
pub fn test_dependence(a: &AffineAccess, b: &AffineAccess) -> Dependence {
    if a.rank() != b.rank() || a.depth() != b.depth() {
        return Dependence::Unknown;
    }
    if a.matrix() == b.matrix() {
        // Uniform: A·i₁ + o₁ = A·i₂ + o₂ ⇔ A·(i₁ − i₂) = o₂ − o₁.
        let diff = b.offset() - a.offset();
        // Solve A·d = diff for a constant d when A has full column rank on
        // its non-zero columns; handle the ubiquitous case where each
        // iterator appears in at most one subscript with coefficient ±1…
        if let Some(d) = solve_uniform(a, &diff) {
            return if d.is_zero() && diff.is_zero() {
                // Same element in the same iteration: output/flow within
                // one statement instance — distance zero.
                Dependence::Uniform(IVec::zeros(a.depth()))
            } else {
                Dependence::Uniform(d)
            };
        }
        // No integer solution means no iteration pair collides.
        if !has_integer_solution(a, &diff) {
            return Dependence::Independent;
        }
        return Dependence::Unknown;
    }
    // Different access matrices: row-wise GCD test for a quick
    // independence proof.
    for r in 0..a.rank() {
        let mut g = 0i64;
        for c in 0..a.depth() {
            g = gcd(g, a.matrix()[(r, c)]);
            g = gcd(g, b.matrix()[(r, c)]);
        }
        let rhs = b.offset()[r] - a.offset()[r];
        if g != 0 && rhs % g != 0 {
            return Dependence::Independent;
        }
        if g == 0 && rhs != 0 {
            return Dependence::Independent;
        }
    }
    Dependence::Unknown
}

/// Attempts to solve `A·d = diff` for a unique constant `d`, exploiting
/// the single-iterator-per-subscript structure of typical stencil
/// accesses.
fn solve_uniform(a: &AffineAccess, diff: &IVec) -> Option<IVec> {
    let mut d = vec![0i64; a.depth()];
    let mut solved = vec![false; a.depth()];
    for r in 0..a.rank() {
        // Find the single non-zero coefficient in this row.
        let nz: Vec<usize> = (0..a.depth())
            .filter(|&c| a.matrix()[(r, c)] != 0)
            .collect();
        match nz.len() {
            0 => {
                if diff[r] != 0 {
                    return None; // constant subscript can never differ
                }
            }
            1 => {
                let c = nz[0];
                let k = a.matrix()[(r, c)];
                if diff[r] % k != 0 {
                    return None;
                }
                let v = diff[r] / k;
                if solved[c] && d[c] != v {
                    return None;
                }
                d[c] = v;
                solved[c] = true;
            }
            _ => return None, // coupled subscripts: give up (Unknown upstream)
        }
    }
    Some(IVec::new(d))
}

/// Whether `A·d = diff` admits *any* integer solution (GCD feasibility
/// row by row).
fn has_integer_solution(a: &AffineAccess, diff: &IVec) -> bool {
    for r in 0..a.rank() {
        let mut g = 0i64;
        for c in 0..a.depth() {
            g = gcd(g, a.matrix()[(r, c)]);
        }
        if g == 0 {
            if diff[r] != 0 {
                return false;
            }
        } else if diff[r] % g != 0 {
            return false;
        }
    }
    true
}

/// A dependence-tested reference pair within one nest, with enough
/// location information to diagnose it: `(statement index, reference
/// index)` coordinates of both references into the nest body.
///
/// `a == b` marks the self-pair of a write reference (its instances in
/// different iterations may conflict with each other).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DependencePair {
    /// `(statement, reference)` coordinates of the first reference.
    pub a: (usize, usize),
    /// `(statement, reference)` coordinates of the second reference.
    pub b: (usize, usize),
    /// The array both references touch.
    pub array: ArrayId,
    /// The dependence-test verdict for the pair.
    pub dep: Dependence,
}

/// Tests every write-involving reference pair of a nest (flow, anti, and
/// output dependences — direction is not distinguished; distances are
/// reported as computed), keeping pair locations for diagnosis.
///
/// Pairs with an indexed reference on either side are reported as
/// [`Dependence::Unknown`]: the subscript comes from a runtime table, so
/// the affine test does not apply.
pub fn nest_dependence_pairs(nest: &LoopNest) -> Vec<DependencePair> {
    let mut out = Vec::new();
    let refs: Vec<_> = nest
        .body()
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.refs.iter().enumerate().map(move |(ri, r)| ((si, ri), r)))
        .collect();
    for (i, (loc_a, a)) in refs.iter().enumerate() {
        for (loc_b, b) in refs.iter().skip(i) {
            if a.array != b.array {
                continue;
            }
            if a.kind == RefKind::Read && b.kind == RefKind::Read {
                continue;
            }
            let dep = match (a.access.as_affine(), b.access.as_affine()) {
                (Some(aa), Some(bb)) => test_dependence(aa, bb),
                _ => Dependence::Unknown,
            };
            out.push(DependencePair {
                a: *loc_a,
                b: *loc_b,
                array: a.array,
                dep,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::IMat;
    use crate::nest::{ArrayId, ArrayRef, Loop, Statement};

    fn acc(m: &IMat, o: Vec<i64>) -> AffineAccess {
        AffineAccess::new(m.clone(), IVec::new(o))
    }

    #[test]
    fn identical_references_depend_at_zero() {
        let m = IMat::identity(2);
        let d = test_dependence(&acc(&m, vec![0, 0]), &acc(&m, vec![0, 0]));
        assert_eq!(d, Dependence::Uniform(IVec::zeros(2)));
    }

    #[test]
    fn stencil_offsets_have_unit_distance() {
        // X[i][j] vs X[i][j+1]: carried by loop 1, not by loop 0.
        let m = IMat::identity(2);
        let d = test_dependence(&acc(&m, vec![0, 0]), &acc(&m, vec![0, 1]));
        assert_eq!(d, Dependence::Uniform(IVec::new(vec![0, 1])));
    }

    #[test]
    fn strided_accesses_can_be_independent() {
        // X[2i] vs X[2i+1]: even vs odd elements never collide.
        let m = IMat::from_rows(&[&[2]]);
        let d = test_dependence(&acc(&m, vec![0]), &acc(&m, vec![1]));
        assert_eq!(d, Dependence::Independent);
    }

    #[test]
    fn transposed_pair_is_unknown_not_unsound() {
        // X[i][j] vs X[j][i]: coupled; must not claim independence.
        let a = acc(&IMat::identity(2), vec![0, 0]);
        let b = acc(&IMat::from_rows(&[&[0, 1], &[1, 0]]), vec![0, 0]);
        assert_eq!(test_dependence(&a, &b), Dependence::Unknown);
    }

    #[test]
    fn pairs_carry_statement_and_ref_coordinates() {
        let m = IMat::identity(1);
        let x = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::constant(0, 16)],
            0,
            vec![
                Statement::new(vec![ArrayRef::write(x, acc(&m, vec![0]))], 1),
                Statement::new(vec![ArrayRef::read(x, acc(&m, vec![-1]))], 1),
            ],
            1,
        );
        let pairs = nest_dependence_pairs(&nest);
        // Write self-pair + write-read pair.
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].a, pairs[0].b), ((0, 0), (0, 0)));
        assert_eq!((pairs[1].a, pairs[1].b), ((0, 0), (1, 0)));
        assert_eq!(pairs[1].dep, Dependence::Uniform(IVec::new(vec![-1])));
    }

    #[test]
    fn reads_alone_never_constrain() {
        let m = IMat::identity(1);
        let x = ArrayId(0);
        let nest = LoopNest::new(
            vec![Loop::constant(0, 16)],
            0,
            vec![Statement::new(
                vec![
                    ArrayRef::read(x, acc(&m, vec![0])),
                    ArrayRef::read(x, acc(&m, vec![-1])),
                ],
                1,
            )],
            1,
        );
        assert!(nest_dependence_pairs(&nest).is_empty());
    }

    #[test]
    fn data_transformation_preserves_dependences() {
        // The §1 claim, checked concretely: distances are defined on the
        // iteration space, so any layout transformation U (a renaming of
        // the data space) leaves them unchanged.
        let m = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let u = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let a = acc(&m, vec![-1, 0]);
        let b = acc(&m, vec![0, 0]);
        let before = test_dependence(&a, &b);
        let after = test_dependence(&a.transformed(&u), &b.transformed(&u));
        assert_eq!(before, after);
    }
}
