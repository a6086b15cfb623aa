//! Affine expressions over loop iterators.
//!
//! Loop bounds in the paper's target programs are affine functions of the
//! *enclosing* loop iterators and loop-independent constants. An
//! [`AffineExpr`] captures `c₀ + Σ cᵢ·iᵢ` and can be evaluated against a
//! (partial) iteration vector.

use std::fmt;

/// An affine expression `constant + Σ coeffs[k] · iter[k]`.
///
/// # Examples
///
/// ```
/// use hoploc_affine::AffineExpr;
///
/// // 2*i0 + 3, independent of i1.
/// let e = AffineExpr::new(vec![2, 0], 3);
/// assert_eq!(e.eval(&[4, 7]), 11);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    coeffs: Vec<i64>,
    constant: i64,
}

impl AffineExpr {
    /// Creates an expression from iterator coefficients and a constant term.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        Self { coeffs, constant }
    }

    /// A constant expression (no iterator dependence).
    pub fn constant(c: i64) -> Self {
        Self {
            coeffs: Vec::new(),
            constant: c,
        }
    }

    /// The expression `iter[k]` with unit coefficient.
    pub fn var(depth: usize, k: usize) -> Self {
        assert!(k < depth, "iterator index out of range");
        let mut coeffs = vec![0; depth];
        coeffs[k] = 1;
        Self {
            coeffs,
            constant: 0,
        }
    }

    /// Iterator coefficients (may be shorter than the iteration vector;
    /// missing trailing coefficients are zero).
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Returns `true` if the expression does not depend on any iterator.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Evaluates against an iteration prefix.
    ///
    /// Coefficients beyond `iters.len()` must be zero; this is checked in
    /// debug builds.
    pub fn eval(&self, iters: &[i64]) -> i64 {
        debug_assert!(
            self.coeffs.iter().skip(iters.len()).all(|&c| c == 0),
            "expression depends on an iterator deeper than the given prefix"
        );
        self.constant
            + self
                .coeffs
                .iter()
                .zip(iters)
                .map(|(c, i)| c * i)
                .sum::<i64>()
    }

    /// Interval evaluation: the inclusive `(min, max)` the expression can
    /// take when each iterator `k` ranges over the inclusive interval
    /// `ranges[k]`.
    ///
    /// Arithmetic runs in `i128` and the result saturates to `i64`, so the
    /// *analysis* of an overflow-prone program never panics itself —
    /// saturation at `i64::MIN`/`i64::MAX` is the checker's overflow
    /// signal. Coefficients beyond `ranges.len()` contribute as if the
    /// iterator were pinned at 0 (bounds only reference *enclosing*
    /// iterators; a deeper reference is a malformed program the bounds
    /// lints report separately).
    pub fn range(&self, ranges: &[(i64, i64)]) -> (i64, i64) {
        let mut lo = self.constant as i128;
        let mut hi = lo;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (rl, rh) = ranges.get(k).copied().unwrap_or((0, 0));
            let a = c as i128 * rl as i128;
            let b = c as i128 * rh as i128;
            lo += a.min(b);
            hi += a.max(b);
        }
        (saturate_i64(lo), saturate_i64(hi))
    }
}

/// Saturating `i128 → i64` narrowing for interval arithmetic.
fn saturate_i64(x: i128) -> i64 {
    x.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        Self::constant(c)
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AffineExpr({self})")
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if wrote {
                write!(f, " {} ", if c < 0 { "-" } else { "+" })?;
                if c.abs() != 1 {
                    write!(f, "{}*", c.abs())?;
                }
            } else {
                if c == -1 {
                    write!(f, "-")?;
                } else if c != 1 {
                    write!(f, "{c}*")?;
                }
                wrote = true;
            }
            write!(f, "i{k}")?;
        }
        if !wrote {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            write!(
                f,
                " {} {}",
                if self.constant < 0 { "-" } else { "+" },
                self.constant.abs()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_definition() {
        let e = AffineExpr::new(vec![1, -2, 0], 5);
        assert_eq!(e.eval(&[10, 3, 99]), 10 - 6 + 5);
    }

    #[test]
    fn constant_ignores_iterators() {
        let e = AffineExpr::constant(7);
        assert_eq!(e.eval(&[]), 7);
        assert_eq!(e.eval(&[1, 2, 3]), 7);
        assert!(e.is_constant());
    }

    #[test]
    fn var_selects_iterator() {
        let e = AffineExpr::var(3, 1);
        assert_eq!(e.eval(&[9, 4, 2]), 4);
    }

    #[test]
    fn range_brackets_all_evaluations() {
        // 2*i0 - i1 + 3 over i0 ∈ [0, 4], i1 ∈ [-1, 2].
        let e = AffineExpr::new(vec![2, -1], 3);
        let (lo, hi) = e.range(&[(0, 4), (-1, 2)]);
        assert_eq!((lo, hi), (1, 12));
        for i0 in 0..=4 {
            for i1 in -1..=2 {
                let v = e.eval(&[i0, i1]);
                assert!(lo <= v && v <= hi);
            }
        }
    }

    #[test]
    fn range_saturates_instead_of_panicking() {
        let e = AffineExpr::new(vec![i64::MAX, i64::MAX], 0);
        let (lo, hi) = e.range(&[(0, i64::MAX), (0, i64::MAX)]);
        assert_eq!(lo, 0);
        assert_eq!(hi, i64::MAX);
    }

    #[test]
    fn display_formats_readably() {
        let e = AffineExpr::new(vec![2, -1], 3);
        assert_eq!(e.to_string(), "2*i0 - i1 + 3");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
    }
}
