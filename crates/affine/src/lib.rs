//! # hoploc-affine
//!
//! Exact integer linear algebra and an affine loop-nest intermediate
//! representation, forming the compiler substrate for the *off-chip access
//! localization* pass of Ding et al., *Optimizing Off-Chip Accesses in
//! Multicores* (PLDI 2015).
//!
//! The crate provides, bottom-up:
//!
//! * [`IMat`] / [`IVec`] — dense matrices/vectors over `i64` with exact
//!   determinants, unimodularity checks, and unimodular inverses;
//! * [`nullspace`], [`hermite_normal_form`], [`complete_unimodular`] — the
//!   integer Gaussian elimination toolkit used to solve `Bᵀ gᵥᵀ = 0` and
//!   complete `gᵥ` into a unimodular layout transformation `U` (§5.2);
//! * [`AffineExpr`], [`AffineAccess`] — affine bounds and array subscript
//!   functions `A·i⃗ + o⃗`;
//! * [`Loop`], [`LoopNest`], [`Statement`], [`ArrayRef`] — parallelized
//!   affine loop nests with block-distributed parallel dimensions;
//! * [`Program`], [`ArrayDecl`] — whole data-parallel programs, including
//!   index tables for the indexed references of §5.4, given as values or
//!   declared by a [`TableGen`] and built on their first read;
//! * [`BlockPartition`] — the block structure the partitioning hyperplanes
//!   of §5.2 induce on a data dimension;
//! * [`test_dependence`], [`nest_dependence_pairs`] — the array
//!   dependence analysis backing §1's contrast between loop restructuring
//!   (dependence-constrained) and data-layout transformation (a renaming,
//!   dependence-free). `hoploc-check`'s race detector reads it to judge
//!   each parallel loop. The dependence-guided loop pre-pass
//!   the paper runs before its layout pass (§6.1) is not built: the
//!   modelled applications are written as that pre-pass would leave them.
//!
//! # Example: the paper's running transformation
//!
//! The parallel code of Figure 9(a) accesses `Z[j][i]` in an `(i, j)` nest
//! with the `i` loop parallel. Solving `Bᵀ gᵥᵀ = 0` for the submatrix `B`
//! (drop the parallel column of the access matrix) yields the row that
//! determines the dimension-swapping transformation `U`:
//!
//! ```
//! use hoploc_affine::{complete_unimodular, solve_homogeneous, AffineAccess, IMat, IVec};
//!
//! // Z[j][i] with iterators (i, j): A = [[0, 1], [1, 0]], parallel dim u = 0.
//! let access = AffineAccess::new(IMat::from_rows(&[&[0, 1], &[1, 0]]), IVec::zeros(2));
//! let b = access.submatrix(0);
//! let g = solve_homogeneous(&b.transpose(), 0).expect("solvable");
//! let u = complete_unimodular(&g, 0).expect("non-trivial row");
//! assert!(u.is_unimodular());
//! // The transformed reference is Z'[i][j]: data dim 0 now tracks i.
//! let t = access.transformed(&u);
//! assert_eq!(t.eval(&IVec::new(vec![3, 7]))[0], 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod access;
mod dependence;
mod expr;
mod matrix;
mod nest;
mod program;
mod solve;
mod space;

pub use access::AffineAccess;
pub use dependence::{nest_dependence_pairs, test_dependence, Dependence, DependencePair};
pub use expr::AffineExpr;
pub use matrix::{extended_gcd, gcd, IMat, IVec};
pub use nest::{
    AccessFn, ArrayId, ArrayRef, CoreRuns, Loop, LoopNest, RefKind, Statement, TableId,
};
pub use program::{ArrayDecl, Program, TableGen};
pub use solve::{complete_unimodular, hermite_normal_form, nullspace, solve_homogeneous};
pub use space::BlockPartition;
