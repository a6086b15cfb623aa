//! Profile-guided affine approximation of indexed references (§5.4).
//!
//! Indexed accesses such as the CRS SpMV of *hpccg* (`x[col_idx[k]]`) are
//! not affine, but their *dense access pattern* often is: the index table,
//! viewed as a function of lookup position, may track an affine ramp
//! closely. The pass fits `table[pos] ≈ slope · pos + intercept` by least
//! squares over the profiled table and measures the fraction of entries
//! whose prediction is badly off. Arrays whose references approximate worse
//! than the configured threshold (30% in the paper) are left unoptimized —
//! an over- or under-approximation "does not create a correctness issue but
//! can only lead to a performance issue".

/// An affine fit of an index table.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct IndexedApproximation {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Fraction of table entries whose prediction misses by more than 5%
    /// of the value range.
    pub inaccuracy: f64,
}

/// Relative-error tolerance defining a "bad" prediction (5% of the value
/// range).
const TOLERANCE: f64 = 0.05;

/// Fits an affine function to an index table and scores its accuracy.
///
/// `extent` is the size of the indexed array (prediction errors are
/// measured relative to it). Returns a fit with `inaccuracy = 1.0` for an
/// empty table (nothing to profile — never optimize).
///
/// # Examples
///
/// ```
/// use hoploc_layout::approximate_table;
///
/// // A perfectly affine table approximates exactly.
/// let ramp: Vec<i64> = (0..100).map(|k| 2 * k + 5).collect();
/// let fit = approximate_table(&ramp, 256);
/// assert!(fit.inaccuracy < 0.01);
/// assert!((fit.slope - 2.0).abs() < 1e-9 && (fit.intercept - 5.0).abs() < 1e-9);
/// ```
pub fn approximate_table(table: &[i64], extent: i64) -> IndexedApproximation {
    if table.is_empty() || extent <= 0 {
        return IndexedApproximation {
            slope: 0.0,
            intercept: 0.0,
            inaccuracy: 1.0,
        };
    }
    let n = table.len() as f64;
    let mean_x = (table.len() as f64 - 1.0) / 2.0;
    let mean_y = table.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (i, &v) in table.iter().enumerate() {
        let dx = i as f64 - mean_x;
        cov += dx * (v as f64 - mean_y);
        var += dx * dx;
    }
    let slope = if var == 0.0 { 0.0 } else { cov / var };
    let intercept = mean_y - slope * mean_x;
    let tol = TOLERANCE * extent as f64;
    let bad = table
        .iter()
        .enumerate()
        .filter(|(i, &v)| {
            let pred = slope * *i as f64 + intercept;
            (pred - v as f64).abs() > tol
        })
        .count();
    IndexedApproximation {
        slope,
        intercept,
        inaccuracy: bad as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_table_is_exact() {
        let t: Vec<i64> = (0..1000).map(|k| 3 * k - 7).collect();
        let fit = approximate_table(&t, 3000);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!(fit.inaccuracy < 1e-9);
    }

    #[test]
    fn noisy_ramp_stays_accurate() {
        // Small bounded noise (±2% of extent) stays within tolerance.
        let extent = 1000;
        let t: Vec<i64> = (0..500).map(|k| 2 * k + ((k * 37) % 20) - 10).collect();
        let fit = approximate_table(&t, extent);
        assert!(
            fit.inaccuracy < 0.3,
            "inaccuracy {} too high",
            fit.inaccuracy
        );
    }

    #[test]
    fn shuffled_table_is_inaccurate() {
        // A pseudo-random permutation has no affine structure.
        let n = 1024i64;
        let t: Vec<i64> = (0..n).map(|k| (k * 389) % n).collect();
        let fit = approximate_table(&t, n);
        assert!(
            fit.inaccuracy > 0.5,
            "inaccuracy {} too low",
            fit.inaccuracy
        );
    }

    #[test]
    fn empty_table_never_optimizes() {
        let fit = approximate_table(&[], 100);
        assert_eq!(fit.inaccuracy, 1.0);
    }

    #[test]
    fn constant_table_is_affine() {
        let t = vec![42i64; 64];
        let fit = approximate_table(&t, 100);
        assert!(fit.inaccuracy < 1e-9);
        assert_eq!((fit.slope, fit.intercept), (0.0, 42.0));
    }
}
