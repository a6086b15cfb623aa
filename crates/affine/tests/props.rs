//! Property-based tests of the integer linear algebra invariants that the
//! layout pass's correctness rests on. Deterministic randomized cases via
//! `hoploc-ptest` (the workspace's offline stand-in for proptest).

use hoploc_affine::{
    complete_unimodular, gcd, hermite_normal_form, nullspace, test_dependence, AffineAccess,
    Dependence, IMat, IVec,
};
use hoploc_ptest::{run_cases, SmallRng};

/// A small non-zero integer vector of length `len`.
fn small_vec(rng: &mut SmallRng, len: usize) -> IVec {
    loop {
        let v: Vec<i64> = (0..len).map(|_| rng.i64_in(-9..10)).collect();
        if v.iter().any(|&x| x != 0) {
            return IVec::new(v);
        }
    }
}

/// A small matrix of the given shape.
fn small_mat(rng: &mut SmallRng, rows: usize, cols: usize) -> IMat {
    let mut m = IMat::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            m[(r, c)] = rng.i64_in(-6..7);
        }
    }
    m
}

/// The rank of `m`: the number of non-zero rows of its Hermite normal
/// form (row echelon form under unimodular row operations).
fn rank(m: &IMat) -> usize {
    let (h, _) = hermite_normal_form(m);
    (0..h.rows())
        .filter(|&r| (0..h.cols()).any(|c| h[(r, c)] != 0))
        .count()
}

#[test]
fn completion_is_always_unimodular() {
    run_cases("completion_is_always_unimodular", 256, |rng| {
        let v = small_vec(rng, 4);
        let row = rng.usize_in(0..4);
        let u = complete_unimodular(&v, row).expect("non-zero vector completes");
        assert!(u.is_unimodular());
        assert_eq!(u.row(row), v.to_primitive());
    });
}

#[test]
fn completion_inverse_roundtrips() {
    run_cases("completion_inverse_roundtrips", 256, |rng| {
        let v = small_vec(rng, 3);
        let row = rng.usize_in(0..3);
        let u = complete_unimodular(&v, row).expect("non-zero vector completes");
        let inv = u.inverse_unimodular();
        assert_eq!(&u * &inv, IMat::identity(3));
        assert_eq!(&inv * &u, IMat::identity(3));
    });
}

#[test]
fn completion_roundtrips_for_random_primitive_vectors() {
    // For primitive v the completion embeds v exactly (no gcd division),
    // and conjugating the identity through U is lossless.
    run_cases(
        "completion_roundtrips_for_random_primitive_vectors",
        256,
        |rng| {
            let n = rng.usize_in(2..5);
            let v = small_vec(rng, n).to_primitive();
            let row = rng.usize_in(0..n);
            let u = complete_unimodular(&v, row).expect("non-zero vector completes");
            assert_eq!(u.row(row), v, "primitive vector must embed verbatim");
            let inv = u.inverse_unimodular();
            assert_eq!(&(&u * &inv) * &u, u, "U·U⁻¹·U must round-trip to U");
            // Recovering v through the inverse: (0,…,1,…,0)·U = row(U).
            let e = IVec::unit(n, row);
            assert_eq!(u.transpose().mul_vec(&e), v);
        },
    );
}

#[test]
fn nullspace_vectors_annihilate() {
    run_cases("nullspace_vectors_annihilate", 256, |rng| {
        let m = small_mat(rng, 2, 4);
        for b in nullspace(&m) {
            assert!(m.mul_vec(&b).is_zero(), "basis vector not in kernel");
            assert_eq!(b.gcd(), 1, "basis vectors are primitive");
        }
    });
}

#[test]
fn nullspace_dimension_equals_cols_minus_rank() {
    run_cases("nullspace_dimension_equals_cols_minus_rank", 256, |rng| {
        let rows = rng.usize_in(1..4);
        let cols = rng.usize_in(1..5);
        let m = small_mat(rng, rows, cols);
        let basis = nullspace(&m);
        assert_eq!(
            basis.len(),
            cols - rank(&m),
            "rank-nullity violated for {m:?}"
        );
        for b in &basis {
            assert!(m.mul_vec(b).is_zero());
        }
    });
}

#[test]
fn nullspace_dimension_bound() {
    run_cases("nullspace_dimension_bound", 256, |rng| {
        // rank + nullity = 3; nullity is 0 iff the matrix is nonsingular.
        let m = small_mat(rng, 3, 3);
        let basis = nullspace(&m);
        assert!(basis.len() <= 3);
        if m.det() != 0 {
            assert!(basis.is_empty(), "nonsingular matrix has trivial kernel");
        } else {
            assert!(!basis.is_empty(), "singular matrix has non-trivial kernel");
        }
    });
}

#[test]
fn hnf_is_a_unimodular_row_transform() {
    run_cases("hnf_is_a_unimodular_row_transform", 256, |rng| {
        let m = small_mat(rng, 3, 4);
        let (h, t) = hermite_normal_form(&m);
        assert!(t.is_unimodular());
        assert_eq!(&t * &m, h);
    });
}

#[test]
fn hnf_is_idempotent() {
    run_cases("hnf_is_idempotent", 256, |rng| {
        let rows = rng.usize_in(1..4);
        let cols = rng.usize_in(1..5);
        let m = small_mat(rng, rows, cols);
        let (h, _) = hermite_normal_form(&m);
        let (h2, t2) = hermite_normal_form(&h);
        assert_eq!(h2, h, "HNF must be a fixed point of itself for {m:?}");
        assert!(t2.is_unimodular());
    });
}

#[test]
fn det_is_multiplicative() {
    run_cases("det_is_multiplicative", 256, |rng| {
        let a = small_mat(rng, 3, 3);
        let b = small_mat(rng, 3, 3);
        assert_eq!((&a * &b).det(), a.det() * b.det());
    });
}

#[test]
fn transpose_preserves_det() {
    run_cases("transpose_preserves_det", 256, |rng| {
        let m = small_mat(rng, 3, 3);
        assert_eq!(m.det(), m.transpose().det());
    });
}

#[test]
fn gcd_divides_both() {
    run_cases("gcd_divides_both", 512, |rng| {
        let a = rng.i64_in(-1000..1000);
        let b = rng.i64_in(-1000..1000);
        let g = gcd(a, b);
        if g != 0 {
            assert_eq!(a % g, 0);
            assert_eq!(b % g, 0);
        } else {
            assert_eq!((a, b), (0, 0));
        }
    });
}

/// A random access of the given shape with small coefficients and offsets.
fn rand_access(rng: &mut SmallRng, rank: usize, depth: usize) -> AffineAccess {
    let rows: Vec<Vec<i64>> = (0..rank)
        .map(|_| (0..depth).map(|_| rng.i64_in(-3..4)).collect())
        .collect();
    let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
    let off: Vec<i64> = (0..rank).map(|_| rng.i64_in(-4..5)).collect();
    AffineAccess::new(IMat::from_rows(&refs), IVec::new(off))
}

/// All iteration points of the cube `[0, n)^depth`.
fn domain(depth: usize, n: i64) -> Vec<Vec<i64>> {
    let mut pts = vec![vec![]];
    for _ in 0..depth {
        pts = pts
            .into_iter()
            .flat_map(|p| {
                (0..n).map(move |v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect();
    }
    pts
}

/// Whether any two iterations map the two accesses onto the same element.
fn collides_somewhere(a: &AffineAccess, b: &AffineAccess, iters: &[Vec<i64>]) -> bool {
    iters
        .iter()
        .any(|i1| iters.iter().any(|i2| a.eval_slice(i1) == b.eval_slice(i2)))
}

#[test]
fn independence_is_sound_against_exhaustive_enumeration() {
    // If the test says Independent, no pair of iterations in a small cube
    // may touch the same element: independence must never be overclaimed.
    run_cases("dependence-soundness", 400, |rng| {
        let depth = rng.usize_in(1..3);
        let rank = rng.usize_in(1..3);
        let a = rand_access(rng, rank, depth);
        let b = rand_access(rng, rank, depth);
        if test_dependence(&a, &b) == Dependence::Independent {
            let iters = domain(depth, 4);
            assert!(
                !collides_somewhere(&a, &b, &iters),
                "claimed Independent but {a:?} and {b:?} collide"
            );
        }
    });
}

#[test]
fn independence_is_symmetric() {
    // Whether two references are independent cannot depend on which one is
    // named first, and a uniform distance reverses sign under swapping.
    run_cases("dependence-symmetry", 400, |rng| {
        let depth = rng.usize_in(1..4);
        let rank = rng.usize_in(1..3);
        let a = rand_access(rng, rank, depth);
        let b = if rng.flip() {
            // Share a's matrix half the time to exercise the uniform path.
            AffineAccess::new(
                a.matrix().clone(),
                IVec::new((0..rank).map(|_| rng.i64_in(-4..5)).collect()),
            )
        } else {
            rand_access(rng, rank, depth)
        };
        let ab = test_dependence(&a, &b);
        let ba = test_dependence(&b, &a);
        assert_eq!(
            ab == Dependence::Independent,
            ba == Dependence::Independent,
            "asymmetric verdicts {ab:?} / {ba:?} for {a:?} and {b:?}"
        );
        if let (Dependence::Uniform(d), Dependence::Uniform(e)) = (&ab, &ba) {
            let neg: Vec<i64> = d.as_slice().iter().map(|x| -x).collect();
            assert_eq!(neg, e.as_slice(), "distances must be negations");
        }
    });
}

#[test]
fn uniform_distance_maps_sink_onto_source() {
    // Uniform(d) promises a(i + d) == b(i) for every iteration i.
    run_cases("uniform-distance", 400, |rng| {
        let depth = rng.usize_in(1..4);
        let rank = rng.usize_in(1..3);
        let a = rand_access(rng, rank, depth);
        let b = AffineAccess::new(
            a.matrix().clone(),
            IVec::new((0..rank).map(|_| rng.i64_in(-4..5)).collect()),
        );
        if let Dependence::Uniform(d) = test_dependence(&a, &b) {
            for i in domain(depth, 3) {
                let shifted: Vec<i64> = i.iter().zip(d.as_slice()).map(|(x, y)| x + y).collect();
                assert_eq!(
                    a.eval_slice(&shifted),
                    b.eval_slice(&i),
                    "distance {d:?} does not map {a:?} onto {b:?} at {i:?}"
                );
            }
        }
    });
}

#[test]
fn access_transform_commutes_with_eval() {
    run_cases("access_transform_commutes_with_eval", 256, |rng| {
        // (U·r)(i) == U·(r(i)) for any transformation matrix U.
        let m = small_mat(rng, 2, 2);
        let off: Vec<i64> = (0..2).map(|_| rng.i64_in(-4..5)).collect();
        let iv = IVec::new(vec![rng.i64_in(0..16), rng.i64_in(0..16)]);
        let access = AffineAccess::new(m, IVec::new(off));
        let u = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let direct = access.transformed(&u).eval(&iv);
        let indirect = u.mul_vec(&access.eval(&iv));
        assert_eq!(direct, indirect);
    });
}
