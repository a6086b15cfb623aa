//! Determining the Data-to-Core mapping (§5.2).
//!
//! For each array, find a unimodular transformation `U` such that, in the
//! transformed data space, the elements accessed by one thread lie between
//! parallel hyperplanes orthogonal to the data partitioning dimension `v`.
//! The defining condition is `Bᵀ gᵥᵀ = 0` (Eq. 3), where `B` is the access
//! matrix with the iteration-partition column removed and `gᵥ` is the
//! `v`-th row of `U`.
//!
//! With multiple references, each distinct submatrix is weighted by the
//! dynamic iteration counts of the nests containing its references, and the
//! heaviest satisfiable submatrix wins; the chosen `U` then *satisfies*
//! every reference whose own system it solves.

use crate::error::LayoutError;
use hoploc_affine::{
    complete_unimodular, solve_homogeneous, AffineAccess, ArrayId, IMat, IVec, Program,
};

/// The data partitioning dimension `v`. The paper always chooses the
/// slowest-varying dimension (first in row-major) to minimize padding
/// overhead (§5.2, footnote 3).
pub const DATA_PARTITION_DIM: usize = 0;

/// Outcome of the Data-to-Core analysis for one array.
#[derive(Clone, PartialEq, Debug)]
pub struct DataToCore {
    /// The array analyzed.
    pub array: ArrayId,
    /// The unimodular layout transformation (identity when the dominant
    /// system is unconstrained).
    pub u: IMat,
    /// The partitioning row `gᵥ` of `U`.
    pub g_v: IVec,
    /// Affine references whose systems the chosen `gᵥ` satisfies.
    pub satisfied_refs: usize,
    /// All affine references to the array.
    pub total_refs: usize,
    /// Dynamic weight (estimated access count) satisfied.
    pub satisfied_weight: u64,
    /// Total dynamic weight of affine references.
    pub total_weight: u64,
}

impl DataToCore {
    /// Fraction of affine references satisfied (1.0 when there are none).
    pub fn satisfaction(&self) -> f64 {
        if self.total_refs == 0 {
            1.0
        } else {
            self.satisfied_refs as f64 / self.total_refs as f64
        }
    }
}

/// The thread count assumed when deciding whether a reference's residual
/// within-hyperplane variation still fits inside one thread's data block.
const BLOCK_THREADS: i64 = 64;

/// One reference's constraint system together with its dynamic weight.
#[derive(Clone, Debug)]
struct WeightedSystem {
    /// `Bᵀ` of the reference, or `None` when the nest has no sequential
    /// dimension (depth-1 fully parallel nest: every layout satisfies it).
    bt: Option<IMat>,
    weight: u64,
    /// A *broadcast* reference: the access matrix's parallel-iterator
    /// column is zero, so every thread touches the same elements. No
    /// layout can partition such a reference across threads — it must not
    /// vote for a transformation and can never be satisfied.
    broadcast: bool,
    /// The full access (for block-level satisfaction checks).
    access: AffineAccess,
    /// Estimated trip counts of the enclosing nest.
    trips: Vec<i64>,
    /// The nest's parallel dimension.
    u: usize,
}

/// Collects the constraint systems of all affine references to `array`.
fn systems(program: &Program, array: ArrayId) -> Vec<WeightedSystem> {
    let mut out = Vec::new();
    for nest in program.nests() {
        let weight = nest.iteration_estimate().max(1);
        let u = nest.parallel_dim();
        for stmt in nest.body() {
            for r in &stmt.refs {
                if r.array != array {
                    continue;
                }
                if let Some(acc) = r.access.as_affine() {
                    let broadcast = acc.matrix().col(u).is_zero();
                    let bt = if acc.depth() >= 2 {
                        Some(acc.submatrix(u).transpose())
                    } else {
                        None
                    };
                    out.push(WeightedSystem {
                        bt,
                        weight,
                        broadcast,
                        access: acc.clone(),
                        trips: nest.trip_count_estimates(),
                        u,
                    });
                }
            }
        }
    }
    out
}

/// Whether `g` solves a reference's system (`Bᵀ·g = 0`); unconstrained
/// references are always satisfied.
fn satisfies(g: &IVec, sys: &WeightedSystem, extent_v: i64) -> bool {
    if sys.broadcast {
        return false;
    }
    let strict = match &sys.bt {
        None => true,
        Some(bt) => bt.cols() == g.len() && bt.mul_vec(g).is_zero(),
    };
    strict || block_satisfies(g, sys, extent_v)
}

/// Block-level satisfaction: even when Eq. (3) has no exact solution, a
/// partitioning works if the residual variation of `g·r⃗` over the
/// non-parallel iterators stays within one thread's data block — the case
/// for linearized accesses such as `val[8·i + j]`, whose per-hyperplane
/// spread (`j < 8`) is far below the block size. This realizes the paper's
/// block (rather than single-hyperplane) partitioning of §5.2 for `w = 1`.
fn block_satisfies(g: &IVec, sys: &WeightedSystem, extent_v: i64) -> bool {
    if g.len() != sys.access.rank() || extent_v <= 0 {
        return false;
    }
    // The parallel iterator must actually move g·r⃗ (otherwise this is a
    // broadcast in disguise).
    let ga: Vec<i64> = (0..sys.access.depth())
        .map(|c| {
            (0..g.len())
                .map(|r| g[r] * sys.access.matrix()[(r, c)])
                .sum::<i64>()
        })
        .collect();
    if ga[sys.u] == 0 {
        return false;
    }
    let variation: i64 = (0..ga.len())
        .filter(|&c| c != sys.u)
        .map(|c| ga[c].abs() * (sys.trips.get(c).copied().unwrap_or(1) - 1).max(0))
        .sum();
    variation <= extent_v / BLOCK_THREADS
}

/// Determines the Data-to-Core mapping for one array (§5.2; lines 1–15 and
/// 16–31 of Algorithm 1).
///
/// # Errors
///
/// Returns [`LayoutError::NoReferences`] when the array is never referenced
/// affinely, and [`LayoutError::NoPartitioningHyperplane`] when no weighted
/// system admits a non-trivial solution whose completion is unimodular.
pub fn determine_data_to_core(
    program: &Program,
    array: ArrayId,
) -> Result<DataToCore, LayoutError> {
    let rank = program.array(array).rank();
    let systems = systems(program, array);
    let dims = program.array(array).dims().to_vec();
    if systems.is_empty() {
        return Err(LayoutError::NoReferences(array));
    }
    let total_refs = systems.len();
    let total_weight: u64 = systems.iter().map(|s| s.weight).sum();

    // Group identical submatrices, accumulating weights (W(Bᵢ) = Σ nⱼ).
    // Broadcast references cannot be partitioned by any layout and do not
    // vote.
    let mut groups: Vec<(Option<IMat>, u64)> = Vec::new();
    for s in systems.iter().filter(|s| !s.broadcast) {
        if let Some(g) = groups.iter_mut().find(|(bt, _)| *bt == s.bt) {
            g.1 += s.weight;
        } else {
            groups.push((s.bt.clone(), s.weight));
        }
    }
    // Heaviest group first; deterministic tie-break by insertion order.
    groups.sort_by_key(|g| std::cmp::Reverse(g.1));

    // The heaviest affine access drives the locality-preserving row order
    // of the completed transformation.
    let dominant_access = dominant_access(&systems_access(program, array));

    // Try groups in weight order until one yields a valid transformation.
    for (bt, _) in &groups {
        let g_v = match bt {
            // Unconstrained: prefer partitioning the slowest dimension as-is.
            None => Some(IVec::unit(rank, DATA_PARTITION_DIM)),
            Some(bt) => solve_homogeneous(bt, DATA_PARTITION_DIM),
        };
        let Some(g_v) = g_v else { continue };
        let Some(mut u) = complete_unimodular(&g_v, DATA_PARTITION_DIM) else {
            continue;
        };
        if let Some(a) = &dominant_access {
            reorder_for_locality(&mut u, a);
        }
        let g_v = u.row(DATA_PARTITION_DIM);
        let (_, extents) = transformed_bounds(&u, &dims);
        let satisfied: Vec<&WeightedSystem> = systems
            .iter()
            .filter(|s| satisfies(&g_v, s, extents[0]))
            .collect();
        return Ok(DataToCore {
            array,
            satisfied_refs: satisfied.len(),
            satisfied_weight: satisfied.iter().map(|s| s.weight).sum(),
            total_refs,
            total_weight,
            u,
            g_v,
        });
    }
    // No exact hyperplane family exists for any group; fall back to the
    // untransformed partitioning if block-level satisfaction holds for at
    // least one reference (linearized accesses).
    let g_v = IVec::unit(rank, DATA_PARTITION_DIM);
    let u = IMat::identity(rank);
    let extent0 = dims[DATA_PARTITION_DIM];
    let satisfied: Vec<&WeightedSystem> = systems
        .iter()
        .filter(|s| satisfies(&g_v, s, extent0))
        .collect();
    if !satisfied.is_empty() {
        return Ok(DataToCore {
            array,
            satisfied_refs: satisfied.len(),
            satisfied_weight: satisfied.iter().map(|s| s.weight).sum(),
            total_refs,
            total_weight,
            u,
            g_v,
        });
    }
    Err(LayoutError::NoPartitioningHyperplane(array))
}

/// Collects `(access, weight)` for all non-broadcast affine references.
fn systems_access(program: &Program, array: ArrayId) -> Vec<(AffineAccess, u64)> {
    let mut out = Vec::new();
    for nest in program.nests() {
        let weight = nest.iteration_estimate().max(1);
        let u = nest.parallel_dim();
        for stmt in nest.body() {
            for r in &stmt.refs {
                if r.array != array {
                    continue;
                }
                if let Some(acc) = r.access.as_affine() {
                    if !acc.matrix().col(u).is_zero() {
                        out.push((acc.clone(), weight));
                    }
                }
            }
        }
    }
    out
}

/// The heaviest-weighted access (the one whose walk order should stay
/// contiguous after transformation).
fn dominant_access(accesses: &[(AffineAccess, u64)]) -> Option<AffineAccess> {
    accesses
        .iter()
        .max_by_key(|(_, w)| *w)
        .map(|(a, _)| a.clone())
}

/// Permutes the non-partition rows of `U` so that spatial locality of the
/// dominant access survives the transformation: row `r` of `U·A` depends
/// on some deepest loop iterator; ordering rows by that depth puts the
/// fastest-varying iterator in the fastest-varying (innermost) data
/// dimension. Row permutations preserve `|det U| = 1`.
fn reorder_for_locality(u: &mut IMat, access: &AffineAccess) {
    let n = u.rows();
    if n <= 2 || access.matrix().rows() != n {
        return;
    }
    let t = &*u * access.matrix();
    // Deepest loop each non-partition row depends on (rows with no
    // dependence sort first).
    let mut keyed: Vec<(usize, i64)> = (0..n)
        .filter(|&r| r != DATA_PARTITION_DIM)
        .map(|r| {
            let depth = (0..t.cols()).rev().find(|&c| t[(r, c)] != 0);
            (r, depth.map(|d| d as i64).unwrap_or(-1))
        })
        .collect();
    keyed.sort_by_key(|&(_, d)| d);
    // Rebuild U with the sorted rows occupying the non-partition slots.
    let orig = u.clone();
    let mut slot = 0;
    for d in 0..n {
        if d == DATA_PARTITION_DIM {
            continue;
        }
        let (src, _) = keyed[slot];
        for c in 0..n {
            u[(d, c)] = orig[(src, c)];
        }
        slot += 1;
    }
    debug_assert!(u.is_unimodular());
}

/// Computes the transformed bounding box of an array under `U`.
///
/// Returns `(mins, extents)` per transformed dimension: interval arithmetic
/// over the original index ranges `[0, dims[k])` row by row. The layout
/// customization shifts by `-mins` so transformed coordinates are
/// non-negative.
pub fn transformed_bounds(u: &IMat, dims: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let (mut mins, mut extents) = (Vec::new(), Vec::new());
    transformed_bounds_into(u, dims, &mut mins, &mut extents);
    (mins, extents)
}

/// [`transformed_bounds`] written into the caller's vectors.
pub(crate) fn transformed_bounds_into(
    u: &IMat,
    dims: &[i64],
    mins: &mut Vec<i64>,
    extents: &mut Vec<i64>,
) {
    assert_eq!(u.cols(), dims.len(), "U must match the array rank");
    mins.clear();
    extents.clear();
    for r in 0..u.rows() {
        let mut lo = 0i64;
        let mut hi = 0i64;
        for (k, &d) in dims.iter().enumerate() {
            let c = u[(r, k)];
            if c > 0 {
                hi += c * (d - 1);
            } else {
                lo += c * (d - 1);
            }
        }
        mins.push(lo);
        extents.push(hi - lo + 1);
    }
}

/// Evaluates the transformed, shifted data vector `U·a⃗ − mins` for an
/// original data vector.
pub fn transform_dvec(u: &IMat, mins: &[i64], dvec: &[i64]) -> Vec<i64> {
    let v = u.mul_vec(&IVec::from(dvec));
    v.iter().zip(mins).map(|(x, m)| x - m).collect()
}

/// Convenience: checks that a chosen `gᵥ` satisfies one access (used in
/// tests and reports).
pub fn g_satisfies_access(g_v: &IVec, access: &AffineAccess, parallel_dim: usize) -> bool {
    if access.depth() < 2 {
        return true;
    }
    access
        .submatrix(parallel_dim)
        .transpose()
        .mul_vec(g_v)
        .is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_affine::{ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement};

    /// Builds the paper's Figure 9(a): Z[j][i], Z[j-1][i], Z[j+1][i] in an
    /// (i, j) nest with i parallel.
    fn figure9_program() -> (Program, ArrayId) {
        let mut p = Program::new("fig9");
        let z = p.add_array(ArrayDecl::new("Z", vec![64, 64], 8));
        let a = IMat::from_rows(&[&[0, 1], &[1, 0]]); // Z[j][i]
        let refs = vec![
            ArrayRef::read(z, AffineAccess::new(a.clone(), IVec::new(vec![-1, 0]))),
            ArrayRef::read(z, AffineAccess::new(a.clone(), IVec::zeros(2))),
            ArrayRef::read(z, AffineAccess::new(a.clone(), IVec::new(vec![1, 0]))),
            ArrayRef::write(z, AffineAccess::new(a, IVec::zeros(2))),
        ];
        p.add_nest(LoopNest::new(
            vec![Loop::constant(2, 63), Loop::constant(2, 63)],
            0,
            vec![Statement::new(refs, 2)],
            1,
        ));
        (p, z)
    }

    #[test]
    fn figure9_yields_dimension_swap() {
        let (p, z) = figure9_program();
        let d2c = determine_data_to_core(&p, z).unwrap();
        assert!(d2c.u.is_unimodular());
        // All four references share the same submatrix, so all satisfied.
        assert_eq!(d2c.satisfied_refs, 4);
        assert_eq!(d2c.total_refs, 4);
        // Transformed reference must track the parallel iterator i in the
        // partition dimension: row v of U·A = λ·e_u.
        let a = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let ua = &d2c.u * &a;
        assert_ne!(ua[(DATA_PARTITION_DIM, 0)], 0, "partition dim must track i");
        assert_eq!(
            ua[(DATA_PARTITION_DIM, 1)],
            0,
            "partition dim must ignore j"
        );
    }

    #[test]
    fn identity_access_needs_no_transform() {
        let mut p = Program::new("id");
        let x = p.add_array(ArrayDecl::new("X", vec![32, 32], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 32), Loop::constant(0, 32)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(x, AffineAccess::identity(2))],
                1,
            )],
            1,
        ));
        let d2c = determine_data_to_core(&p, x).unwrap();
        let a = IMat::identity(2);
        let ua = &d2c.u * &a;
        assert_ne!(ua[(0, 0)], 0);
        assert_eq!(ua[(0, 1)], 0);
    }

    #[test]
    fn weights_pick_the_hot_reference() {
        // Two nests disagree: the hot one accesses X[i][j] (i parallel),
        // the cold one X[j][i]. The layout should satisfy the hot one.
        let mut p = Program::new("w");
        let x = p.add_array(ArrayDecl::new("X", vec![32, 32], 8));
        let ident = AffineAccess::identity(2);
        let swap = AffineAccess::new(IMat::from_rows(&[&[0, 1], &[1, 0]]), IVec::zeros(2));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 32), Loop::constant(0, 32)],
            0,
            vec![Statement::new(vec![ArrayRef::read(x, ident)], 1)],
            100, // hot
        ));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 32), Loop::constant(0, 32)],
            0,
            vec![Statement::new(vec![ArrayRef::read(x, swap)], 1)],
            1, // cold
        ));
        let d2c = determine_data_to_core(&p, x).unwrap();
        assert_eq!(d2c.satisfied_refs, 1);
        assert_eq!(d2c.total_refs, 2);
        assert!(d2c.satisfied_weight > d2c.total_weight / 2);
        // Hot reference is identity: partition dim tracks i directly.
        let ua = &d2c.u * &IMat::identity(2);
        assert_ne!(ua[(0, 0)], 0);
        assert_eq!(ua[(0, 1)], 0);
    }

    #[test]
    fn no_references_is_an_error() {
        let mut p = Program::new("none");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        assert_eq!(
            determine_data_to_core(&p, x).unwrap_err(),
            LayoutError::NoReferences(x)
        );
    }

    #[test]
    fn one_dimensional_arrays_take_identity() {
        let mut p = Program::new("vec");
        let x = p.add_array(ArrayDecl::new("X", vec![128], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 128)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(x, AffineAccess::identity(1))],
                1,
            )],
            1,
        ));
        let d2c = determine_data_to_core(&p, x).unwrap();
        assert_eq!(d2c.u, IMat::identity(1));
        assert_eq!(d2c.satisfaction(), 1.0);
    }

    #[test]
    fn transformed_bounds_swap() {
        let u = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let (mins, extents) = transformed_bounds(&u, &[4, 9]);
        assert_eq!(mins, vec![0, 0]);
        assert_eq!(extents, vec![9, 4]);
    }

    #[test]
    fn transformed_bounds_negative_row() {
        // U row (1, -1) over dims (4, 4): range [-(3), 3] → min -3, extent 7.
        let u = IMat::from_rows(&[&[1, -1], &[0, 1]]);
        let (mins, extents) = transformed_bounds(&u, &[4, 4]);
        assert_eq!(mins[0], -3);
        assert_eq!(extents[0], 7);
        // Shifted transform stays within [0, extent).
        for a0 in 0..4 {
            for a1 in 0..4 {
                let t = transform_dvec(&u, &mins, &[a0, a1]);
                assert!((0..7).contains(&t[0]));
                assert!((0..4).contains(&t[1]));
            }
        }
    }

    #[test]
    fn transform_is_injective_on_box() {
        let u = IMat::from_rows(&[&[1, 2], &[0, 1]]);
        assert!(u.is_unimodular());
        let (mins, extents) = transformed_bounds(&u, &[5, 5]);
        let mut seen = std::collections::HashSet::new();
        for a0 in 0..5 {
            for a1 in 0..5 {
                let t = transform_dvec(&u, &mins, &[a0, a1]);
                assert!(t.iter().zip(&extents).all(|(x, e)| *x >= 0 && x < e));
                assert!(seen.insert(t), "collision at ({a0},{a1})");
            }
        }
    }
}
