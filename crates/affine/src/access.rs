//! Affine array access functions `r⃗ = A·i⃗ + o⃗`.

use crate::matrix::{IMat, IVec};
use std::fmt;

/// An affine array reference: the data vector touched by iteration `i⃗` is
/// `A·i⃗ + o⃗`, where `A` is the *access matrix* (§5.1 of the paper).
///
/// # Examples
///
/// ```
/// use hoploc_affine::{AffineAccess, IMat, IVec};
///
/// // Reference A[i1][2*i2 + 1] from the paper, §5.1.
/// let acc = AffineAccess::new(
///     IMat::from_rows(&[&[1, 0], &[0, 2]]),
///     IVec::new(vec![0, 1]),
/// );
/// assert_eq!(acc.eval(&IVec::new(vec![1, 2])), IVec::new(vec![1, 5]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineAccess {
    matrix: IMat,
    offset: IVec,
}

impl AffineAccess {
    /// Creates an access function from its matrix and offset.
    ///
    /// # Panics
    ///
    /// Panics if `offset.len() != matrix.rows()`.
    pub fn new(matrix: IMat, offset: IVec) -> Self {
        assert_eq!(
            offset.len(),
            matrix.rows(),
            "offset length must equal the number of array dimensions"
        );
        Self { matrix, offset }
    }

    /// The identity access `X[i1][i2]…` for an `n`-deep nest over an
    /// `n`-dimensional array.
    pub fn identity(n: usize) -> Self {
        Self::new(IMat::identity(n), IVec::zeros(n))
    }

    /// The access matrix `A`.
    pub fn matrix(&self) -> &IMat {
        &self.matrix
    }

    /// The constant offset `o⃗`.
    pub fn offset(&self) -> &IVec {
        &self.offset
    }

    /// Array rank (number of subscripts).
    pub fn rank(&self) -> usize {
        self.matrix.rows()
    }

    /// Loop depth this access expects.
    pub fn depth(&self) -> usize {
        self.matrix.cols()
    }

    /// Evaluates the data vector for an iteration vector.
    ///
    /// # Panics
    ///
    /// Panics if `i.len() != self.depth()`.
    pub fn eval(&self, i: &IVec) -> IVec {
        self.eval_slice(i.as_slice())
    }

    /// Evaluates from a plain slice iteration vector.
    pub fn eval_slice(&self, i: &[i64]) -> IVec {
        let mut out = vec![0; self.rank()];
        self.eval_into(i, &mut out);
        IVec::new(out)
    }

    /// [`eval_slice`](Self::eval_slice) into a caller-provided buffer of
    /// length [`rank`](Self::rank): no allocation per evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `i.len() != self.depth()` or `out.len() != self.rank()`.
    pub fn eval_into(&self, i: &[i64], out: &mut [i64]) {
        self.matrix.mul_vec_into(i, out);
        for (o, &off) in out.iter_mut().zip(self.offset.as_slice()) {
            *o += off;
        }
    }

    /// Applies a layout transformation `U`: the transformed reference is
    /// `r⃗' = U·r⃗ = (U·A)·i⃗ + U·o⃗` (§5.2).
    pub fn transformed(&self, u: &IMat) -> AffineAccess {
        AffineAccess::new(u * &self.matrix, u.mul_vec(&self.offset))
    }

    /// The submatrix `B`: the access matrix with the `u`-th column (the
    /// iteration partition dimension) removed (§5.2, Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or the nest has depth 1 (a 1-deep
    /// parallel nest has no sequential dimensions; its `B` is empty and
    /// every layout satisfies it).
    pub fn submatrix(&self, u: usize) -> IMat {
        self.matrix.drop_col(u)
    }

    /// The inclusive per-subscript value range (image box) of this access
    /// over an iteration box: subscript `d` ranges over
    /// `[Σ min(a_dk·lo_k, a_dk·hi_k) + o_d, Σ max(a_dk·lo_k, a_dk·hi_k) + o_d]`.
    ///
    /// The box is exact for accesses whose subscripts each depend on a
    /// single iterator (every access in the bundled suite) and an
    /// over-approximation otherwise — interval arithmetic cannot see
    /// correlations between iterators. This is the footprint query the
    /// static locality estimator (`hoploc-est`) and the bounds lints build
    /// on.
    ///
    /// # Panics
    ///
    /// Panics if `ranges.len() != self.depth()`.
    pub fn subscript_bounds(&self, ranges: &[(i64, i64)]) -> Vec<(i64, i64)> {
        assert_eq!(ranges.len(), self.depth(), "one range per iterator");
        (0..self.rank())
            .map(|d| {
                let (mut lo, mut hi) = (self.offset[d], self.offset[d]);
                for (k, &(rlo, rhi)) in ranges.iter().enumerate() {
                    let a = self.matrix[(d, k)];
                    let (t0, t1) = (a.saturating_mul(rlo), a.saturating_mul(rhi));
                    lo = lo.saturating_add(t0.min(t1));
                    hi = hi.saturating_add(t0.max(t1));
                }
                (lo, hi)
            })
            .collect()
    }

    /// Whether any subscript of this access depends on iterator `k` —
    /// i.e. column `k` of the access matrix is non-zero. References that do
    /// *not* depend on the parallel iterator are broadcast: every core
    /// touches the same elements.
    pub fn depends_on(&self, k: usize) -> bool {
        (0..self.rank()).any(|d| self.matrix[(d, k)] != 0)
    }
}

impl fmt::Debug for AffineAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AffineAccess(A={:?}, o={:?})", self.matrix, self.offset)
    }
}

impl fmt::Display for AffineAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rank() {
            write!(f, "[")?;
            let mut wrote = false;
            for c in 0..self.depth() {
                let k = self.matrix[(r, c)];
                if k == 0 {
                    continue;
                }
                if wrote {
                    write!(f, "{}", if k < 0 { " - " } else { " + " })?;
                    if k.abs() != 1 {
                        write!(f, "{}*", k.abs())?;
                    }
                } else {
                    if k == -1 {
                        write!(f, "-")?;
                    } else if k != 1 {
                        write!(f, "{k}*")?;
                    }
                    wrote = true;
                }
                write!(f, "i{c}")?;
            }
            let o = self.offset[r];
            if !wrote {
                write!(f, "{o}")?;
            } else if o != 0 {
                write!(f, " {} {}", if o < 0 { "-" } else { "+" }, o.abs())?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_evaluates() {
        let acc = AffineAccess::new(IMat::from_rows(&[&[1, 0], &[0, 2]]), IVec::new(vec![0, 1]));
        assert_eq!(acc.eval(&IVec::new(vec![1, 2])), IVec::new(vec![1, 5]));
    }

    #[test]
    fn transform_composes_linearly() {
        let acc = AffineAccess::identity(2);
        let u = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let t = acc.transformed(&u);
        // Swapped subscripts: X'[i2][i1].
        assert_eq!(t.eval(&IVec::new(vec![3, 9])), IVec::new(vec![9, 3]));
    }

    #[test]
    fn transform_applies_to_offset() {
        let acc = AffineAccess::new(IMat::identity(2), IVec::new(vec![1, -1]));
        let u = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let t = acc.transformed(&u);
        assert_eq!(t.offset(), &IVec::new(vec![-1, 1]));
    }

    #[test]
    fn subscript_bounds_are_the_image_box() {
        // X[i0 - i1][2*i1 + 1] over i0 ∈ [0,9], i1 ∈ [−2,3].
        let acc = AffineAccess::new(IMat::from_rows(&[&[1, -1], &[0, 2]]), IVec::new(vec![0, 1]));
        let b = acc.subscript_bounds(&[(0, 9), (-2, 3)]);
        assert_eq!(b, vec![(-3, 11), (-3, 7)]);
    }

    #[test]
    fn depends_on_reads_matrix_columns() {
        let acc = AffineAccess::new(IMat::from_rows(&[&[0, 1], &[0, 2]]), IVec::zeros(2));
        assert!(!acc.depends_on(0), "column 0 is zero: broadcast over i0");
        assert!(acc.depends_on(1));
    }

    #[test]
    fn display_shows_subscripts() {
        let acc = AffineAccess::new(IMat::from_rows(&[&[1, 0], &[0, 2]]), IVec::new(vec![0, 1]));
        assert_eq!(acc.to_string(), "[i0][2*i1 + 1]");
    }
}
