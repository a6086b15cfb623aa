//! Dense integer matrices and vectors over `i64`.
//!
//! The layout pass only ever manipulates small matrices (array ranks and
//! loop depths are in single digits), so a simple row-major `Vec<i64>`
//! representation is both adequate and easy to audit. All operations are
//! exact integer arithmetic. Products and accumulations are carried out in
//! `i128` so intermediates cannot wrap even for adversarial inputs; results
//! are narrowed back to `i64` with an explicit overflow panic, and the
//! workspace additionally enables `overflow-checks` in release builds for
//! the remaining plain arithmetic.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense integer matrix in row-major order.
///
/// # Examples
///
/// ```
/// use hoploc_affine::IMat;
///
/// let a = IMat::from_rows(&[&[1, 0], &[0, 2]]);
/// let b = IMat::identity(2);
/// assert_eq!(&a * &b, a);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct IMat {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl Clone for IMat {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this matrix's own buffer.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl IMat {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[i64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the `r`-th row as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> IVec {
        assert!(r < self.rows, "row index out of bounds");
        IVec::from(&self.data[r * self.cols..(r + 1) * self.cols])
    }

    /// Returns the `c`-th column as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> IVec {
        assert!(c < self.cols, "column index out of bounds");
        IVec::new((0..self.rows).map(|r| self[(r, c)]).collect())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Returns a copy with the `c`-th column removed.
    ///
    /// This is the "submatrix `B`" operation from §5.2 of the paper: drop the
    /// iteration-partition-dimension column of an access matrix.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds or the matrix has a single column.
    pub fn drop_col(&self, c: usize) -> IMat {
        assert!(c < self.cols, "column index out of bounds");
        assert!(self.cols > 1, "cannot drop the only column");
        let mut m = IMat::zeros(self.rows, self.cols - 1);
        for r in 0..self.rows {
            let mut k = 0;
            for j in 0..self.cols {
                if j != c {
                    m[(r, k)] = self[(r, j)];
                    k += 1;
                }
            }
        }
        m
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    /// Multiplies the matrix by a vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &IVec) -> IVec {
        let mut out = vec![0; self.rows];
        self.mul_vec_into(v.as_slice(), &mut out);
        IVec::new(out)
    }

    /// [`mul_vec`](Self::mul_vec) into a caller-provided buffer: the
    /// allocation-free form the per-access paths (trace generation, layout
    /// placement) use. Same exact `i128` accumulation and overflow panic.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, v: &[i64], out: &mut [i64]) {
        assert_eq!(
            v.len(),
            self.cols,
            "dimension mismatch in matrix-vector product"
        );
        assert_eq!(out.len(), self.rows, "output length must equal row count");
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            *o = narrow(
                row.iter()
                    .zip(v)
                    .map(|(&a, &x)| a as i128 * x as i128)
                    .sum(),
            );
        }
    }

    /// Computes the determinant by fraction-free (Bareiss) elimination.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn det(&self) -> i64 {
        assert_eq!(self.rows, self.cols, "determinant requires a square matrix");
        let n = self.rows;
        let mut m = self.clone();
        let mut sign = 1i64;
        let mut prev = 1i128;
        for k in 0..n {
            if m[(k, k)] == 0 {
                // Find a pivot below.
                let Some(p) = (k + 1..n).find(|&r| m[(r, k)] != 0) else {
                    return 0;
                };
                m.swap_rows(k, p);
                sign = -sign;
            }
            for i in k + 1..n {
                for j in k + 1..n {
                    let num = m[(k, k)] as i128 * m[(i, j)] as i128
                        - m[(i, k)] as i128 * m[(k, j)] as i128;
                    debug_assert_eq!(num % prev, 0, "Bareiss division must be exact");
                    m[(i, j)] = narrow(num / prev);
                }
                m[(i, k)] = 0;
            }
            prev = m[(k, k)] as i128;
        }
        sign * m[(n - 1, n - 1)]
    }

    /// Returns `true` if the matrix is square with determinant `±1`.
    pub fn is_unimodular(&self) -> bool {
        self.rows == self.cols && self.det().abs() == 1
    }

    /// Computes the exact inverse of a unimodular matrix.
    ///
    /// Because `det = ±1`, the adjugate divided by the determinant stays
    /// integral, so the inverse is again an integer matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not unimodular.
    pub fn inverse_unimodular(&self) -> IMat {
        let d = self.det();
        assert!(d.abs() == 1, "inverse_unimodular requires det = ±1");
        let n = self.rows;
        if n == 1 {
            return IMat::from_rows(&[&[d]]);
        }
        let mut inv = IMat::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let minor = self.minor(r, c).det();
                let sign = if (r + c) % 2 == 0 { 1 } else { -1 };
                // Adjugate is the transpose of the cofactor matrix.
                inv[(c, r)] = sign * minor * d; // dividing by d == multiplying by d when d = ±1
            }
        }
        inv
    }

    /// Returns the matrix with row `r` and column `c` removed.
    fn minor(&self, r: usize, c: usize) -> IMat {
        let n = self.rows;
        assert!(n > 1, "minor of a 1x1 matrix is undefined");
        let mut m = IMat::zeros(n - 1, n - 1);
        let mut mi = 0;
        for i in 0..n {
            if i == r {
                continue;
            }
            let mut mj = 0;
            for j in 0..n {
                if j == c {
                    continue;
                }
                m[(mi, mj)] = self[(i, j)];
                mj += 1;
            }
            mi += 1;
        }
        m
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks_exact(self.cols)
    }
}

impl Index<(usize, usize)> for IMat {
    type Output = i64;

    fn index(&self, (r, c): (usize, usize)) -> &i64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for IMat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut i64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &IMat {
    type Output = IMat;

    fn mul(self, rhs: &IMat) -> IMat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = IMat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for c in 0..rhs.cols {
                out[(r, c)] = narrow(
                    (0..self.cols)
                        .map(|k| self[(r, k)] as i128 * rhs[(k, c)] as i128)
                        .sum(),
                );
            }
        }
        out
    }
}

impl fmt::Debug for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMat {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            writeln!(f, "  {row:?}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for IMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, row) in self.iter_rows().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "[")?;
            for (j, x) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// A dense integer (column) vector.
///
/// Used for iteration vectors, data vectors, hyperplane normals, and affine
/// offsets throughout the crate.
///
/// # Examples
///
/// ```
/// use hoploc_affine::{IMat, IVec};
///
/// let a = IMat::from_rows(&[&[1, 0], &[0, 2]]);
/// let i = IVec::new(vec![1, 2]);
/// assert_eq!(a.mul_vec(&i), IVec::new(vec![1, 4]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct IVec(Vec<i64>);

impl IVec {
    /// Wraps a `Vec<i64>` as a vector.
    pub fn new(v: Vec<i64>) -> Self {
        Self(v)
    }

    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Self(vec![0; n])
    }

    /// Creates the unit vector of length `n` with a `1` at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= n`.
    pub fn unit(n: usize, pos: usize) -> Self {
        assert!(pos < n, "unit position out of bounds");
        let mut v = vec![0; n];
        v[pos] = 1;
        Self(v)
    }

    /// Vector length (number of components).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&x| x == 0)
    }

    /// Dot product.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &IVec) -> i64 {
        assert_eq!(self.len(), other.len(), "dimension mismatch in dot product");
        narrow(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(&a, &b)| a as i128 * b as i128)
                .sum(),
        )
    }

    /// The greatest common divisor of all components (0 for the zero vector).
    pub fn gcd(&self) -> i64 {
        self.0.iter().fold(0, |g, &x| gcd(g, x.abs()))
    }

    /// Divides every component by the gcd, making the vector *primitive*.
    ///
    /// A primitive vector is required before unimodular completion: a row of
    /// a unimodular matrix always has co-prime entries. The zero vector is
    /// returned unchanged.
    pub fn to_primitive(&self) -> IVec {
        let g = self.gcd();
        if g <= 1 {
            return self.clone();
        }
        IVec::new(self.0.iter().map(|&x| x / g).collect())
    }

    /// Borrows the components as a slice.
    pub fn as_slice(&self) -> &[i64] {
        &self.0
    }

    /// Consumes the vector and returns the underlying buffer.
    pub fn into_inner(self) -> Vec<i64> {
        self.0
    }

    /// Iterates over components.
    pub fn iter(&self) -> std::slice::Iter<'_, i64> {
        self.0.iter()
    }
}

impl From<&[i64]> for IVec {
    fn from(v: &[i64]) -> Self {
        Self(v.to_vec())
    }
}

impl From<Vec<i64>> for IVec {
    fn from(v: Vec<i64>) -> Self {
        Self(v)
    }
}

impl FromIterator<i64> for IVec {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

impl Index<usize> for IVec {
    type Output = i64;

    fn index(&self, i: usize) -> &i64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for IVec {
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        &mut self.0[i]
    }
}

impl Add for &IVec {
    type Output = IVec;

    fn add(self, rhs: &IVec) -> IVec {
        assert_eq!(
            self.len(),
            rhs.len(),
            "dimension mismatch in vector addition"
        );
        IVec::new(self.0.iter().zip(&rhs.0).map(|(a, b)| a + b).collect())
    }
}

impl Sub for &IVec {
    type Output = IVec;

    fn sub(self, rhs: &IVec) -> IVec {
        assert_eq!(
            self.len(),
            rhs.len(),
            "dimension mismatch in vector subtraction"
        );
        IVec::new(self.0.iter().zip(&rhs.0).map(|(a, b)| a - b).collect())
    }
}

impl Neg for &IVec {
    type Output = IVec;

    fn neg(self) -> IVec {
        IVec::new(self.0.iter().map(|&x| -x).collect())
    }
}

impl Mul<i64> for &IVec {
    type Output = IVec;

    fn mul(self, k: i64) -> IVec {
        IVec::new(self.0.iter().map(|&x| x * k).collect())
    }
}

impl fmt::Debug for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IVec({:?})", self.0)
    }
}

impl fmt::Display for IVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

/// Narrows an exact `i128` intermediate back to `i64`, panicking if the
/// mathematically correct result does not fit.
pub(crate) fn narrow(x: i128) -> i64 {
    i64::try_from(x).expect(
        "invariant: exact integer-linear-algebra intermediates fit i64 for all program \
         shapes the IR admits; an overflow here means the input matrix entries were \
         already astronomically large (the hoploc-check HL0309 lint flags such programs)",
    )
}

/// Greatest common divisor of two non-negative integers.
///
/// `gcd(0, 0) == 0` by convention.
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with `a*x + b*y = g`.
pub fn extended_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        let s = if a < 0 { -1 } else { 1 };
        return (a.abs(), s, 0);
    }
    let (g, x1, y1) = extended_gcd(b, a % b);
    (g, y1, x1 - (a / b) * y1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = IMat::from_rows(&[&[1, 2], &[3, 4]]);
        let i = IMat::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn det_of_permutation_is_minus_one() {
        let p = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(p.det(), -1);
        assert!(p.is_unimodular());
    }

    #[test]
    fn det_of_singular_is_zero() {
        let m = IMat::from_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(m.det(), 0);
        assert!(!m.is_unimodular());
    }

    #[test]
    fn det_3x3_bareiss() {
        let m = IMat::from_rows(&[&[2, 0, 1], &[1, 1, 0], &[0, 3, 1]]);
        // Expansion: 2*(1*1-0*3) - 0 + 1*(1*3-1*0) = 2 + 3 = 5.
        assert_eq!(m.det(), 5);
    }

    #[test]
    fn inverse_of_unimodular_roundtrips() {
        let u = IMat::from_rows(&[&[1, 2, 0], &[0, 1, 0], &[1, 1, 1]]);
        assert_eq!(u.det(), 1);
        let inv = u.inverse_unimodular();
        assert_eq!(&u * &inv, IMat::identity(3));
        assert_eq!(&inv * &u, IMat::identity(3));
    }

    #[test]
    fn inverse_of_negative_det_unimodular() {
        let u = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let inv = u.inverse_unimodular();
        assert_eq!(&u * &inv, IMat::identity(2));
    }

    #[test]
    fn drop_col_removes_partition_column() {
        // Access matrix of Z[j][i] with iteration (i, j): rows are (0 1),(1 0).
        let a = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let b = a.drop_col(0); // drop u = 0 (the i column)
        assert_eq!(b, IMat::from_rows(&[&[1], &[0]]));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = IMat::from_rows(&[&[1, 0], &[0, 2]]);
        let v = IVec::new(vec![1, 2]);
        assert_eq!(a.mul_vec(&v), IVec::new(vec![1, 4]));
    }

    #[test]
    fn primitive_vector_divides_by_gcd() {
        let v = IVec::new(vec![2, 4, -6]);
        assert_eq!(v.gcd(), 2);
        assert_eq!(v.to_primitive(), IVec::new(vec![1, 2, -3]));
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        for (a, b) in [(12, 8), (7, 3), (-5, 10), (0, 4), (4, 0), (1, 1)] {
            let (g, x, y) = extended_gcd(a, b);
            assert_eq!(a * x + b * y, g, "bezout failed for ({a},{b})");
            assert_eq!(g, gcd(a, b));
        }
    }

    #[test]
    fn transpose_involution() {
        let a = IMat::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = IMat::identity(2);
        let b = IMat::zeros(3, 3);
        let _ = &a * &b;
    }
}
