//! Parallelized affine loop nests and their statements.
//!
//! A [`LoopNest`] is an `m`-deep rectangular-ish nest (bounds are affine in
//! enclosing iterators) with one *parallel* dimension `u` — the iteration
//! partition dimension of §5.1 — distributed block-wise across cores, as in
//! OpenMP static scheduling.

use crate::access::AffineAccess;
use crate::expr::AffineExpr;
use std::fmt;

/// Identifies an array within a [`crate::Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ArrayId(pub usize);

/// Identifies an index table (for indexed references) within a
/// [`crate::Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TableId(pub usize);

/// Whether a reference reads or writes its array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RefKind {
    /// The reference loads from the array.
    Read,
    /// The reference stores to the array.
    Write,
}

/// How a reference computes its subscripts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AccessFn {
    /// A fully affine reference `A·i⃗ + o⃗`.
    Affine(AffineAccess),
    /// An indexed reference `X[T[f(i⃗)]]` into a one-dimensional array:
    /// the subscript is fetched from index table `table` at the affine
    /// position `pos` (§5.4 — handled by profile-guided affine
    /// approximation in the layout pass).
    Indexed {
        /// The index table supplying subscript values.
        table: TableId,
        /// Affine position of the lookup within the table.
        pos: AffineExpr,
    },
}

impl AccessFn {
    /// Returns the affine access if this reference is affine.
    pub fn as_affine(&self) -> Option<&AffineAccess> {
        match self {
            AccessFn::Affine(a) => Some(a),
            AccessFn::Indexed { .. } => None,
        }
    }

    /// Returns `true` for indexed (non-affine) references.
    pub fn is_indexed(&self) -> bool {
        matches!(self, AccessFn::Indexed { .. })
    }
}

/// A single array reference inside a statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// Subscript computation.
    pub access: AccessFn,
    /// Read or write.
    pub kind: RefKind,
}

impl ArrayRef {
    /// Convenience constructor for an affine read.
    pub fn read(array: ArrayId, access: AffineAccess) -> Self {
        Self {
            array,
            access: AccessFn::Affine(access),
            kind: RefKind::Read,
        }
    }

    /// Convenience constructor for an affine write.
    pub fn write(array: ArrayId, access: AffineAccess) -> Self {
        Self {
            array,
            access: AccessFn::Affine(access),
            kind: RefKind::Write,
        }
    }

    /// Convenience constructor for an indexed read `X[T[pos]]`.
    pub fn indexed_read(array: ArrayId, table: TableId, pos: AffineExpr) -> Self {
        Self {
            array,
            access: AccessFn::Indexed { table, pos },
            kind: RefKind::Read,
        }
    }
}

/// A statement: the references it makes per iteration plus the amount of
/// pure compute between them (used by the simulator to space out memory
/// operations).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Statement {
    /// References executed each iteration, in order.
    pub refs: Vec<ArrayRef>,
    /// Compute cycles consumed per iteration after issuing the references.
    pub compute_cycles: u32,
}

impl Statement {
    /// Creates a statement with the given references and compute cost.
    pub fn new(refs: Vec<ArrayRef>, compute_cycles: u32) -> Self {
        Self {
            refs,
            compute_cycles,
        }
    }
}

/// One loop of a nest with half-open affine bounds `[lower, upper)` and
/// unit step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Loop {
    /// Inclusive lower bound.
    pub lower: AffineExpr,
    /// Exclusive upper bound.
    pub upper: AffineExpr,
}

impl Loop {
    /// A loop with constant bounds `[lo, hi)`.
    pub fn constant(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "loop bounds must be ordered");
        Self {
            lower: AffineExpr::constant(lo),
            upper: AffineExpr::constant(hi),
        }
    }

    /// A loop with affine bounds.
    pub fn new(lower: AffineExpr, upper: AffineExpr) -> Self {
        Self { lower, upper }
    }
}

/// A parallelized affine loop nest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopNest {
    loops: Vec<Loop>,
    parallel_dim: usize,
    body: Vec<Statement>,
    weight: u64,
}

impl LoopNest {
    /// Creates a nest.
    ///
    /// `parallel_dim` is the iteration partition dimension `u` (§5.1): that
    /// loop is divided into contiguous chunks across cores. Its bounds must
    /// be constant (independent of enclosing iterators), matching the
    /// paper's block-cyclic distribution with `w = 1`.
    ///
    /// `weight` counts how many times the whole nest executes (e.g. an
    /// enclosing sequential time-step loop); it scales trip-count-based
    /// reference weights (§5.2, *Multiple Array References*).
    ///
    /// # Panics
    ///
    /// Panics if `loops` is empty, `parallel_dim` is out of range, or the
    /// parallel loop's bounds are not constant.
    pub fn new(loops: Vec<Loop>, parallel_dim: usize, body: Vec<Statement>, weight: u64) -> Self {
        assert!(!loops.is_empty(), "loop nest must have at least one loop");
        assert!(
            parallel_dim < loops.len(),
            "parallel dimension out of range"
        );
        assert!(
            loops[parallel_dim].lower.is_constant() && loops[parallel_dim].upper.is_constant(),
            "parallel loop bounds must be constant for block distribution"
        );
        Self {
            loops,
            parallel_dim,
            body,
            weight,
        }
    }

    /// Nest depth `m`.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The iteration partition dimension `u`.
    pub fn parallel_dim(&self) -> usize {
        self.parallel_dim
    }

    /// The loops, outermost first.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The statements in the body.
    pub fn body(&self) -> &[Statement] {
        &self.body
    }

    /// The nest's execution weight (outer sequential repetitions).
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The constant bounds `[lo, hi)` of the parallel loop.
    pub fn parallel_bounds(&self) -> (i64, i64) {
        let l = &self.loops[self.parallel_dim];
        (l.lower.eval(&[]), l.upper.eval(&[]))
    }

    /// Conservative inclusive value range of every iterator, outermost
    /// first, by interval-evaluating each loop's affine bounds over the
    /// ranges of its enclosing iterators.
    ///
    /// A returned range with `lo > hi` means that loop's body can never
    /// execute (an empty iteration domain). Ranges are an over-
    /// approximation for triangular nests: every executed iteration lies
    /// within them, but not every point within them is executed.
    pub fn iteration_ranges(&self) -> Vec<(i64, i64)> {
        let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(self.depth());
        for l in &self.loops {
            let (lo_min, _) = l.lower.range(&ranges);
            let (_, hi_max) = l.upper.range(&ranges);
            // Half-open [lower, upper) bounds: largest reachable value is
            // upper − 1.
            ranges.push((lo_min, hi_max.saturating_sub(1)));
        }
        ranges
    }

    /// Estimated trip count of each loop, evaluating affine bounds with
    /// enclosing iterators at their midpoints.
    pub fn trip_count_estimates(&self) -> Vec<i64> {
        let mut mids: Vec<i64> = Vec::with_capacity(self.depth());
        let mut trips = Vec::with_capacity(self.depth());
        for l in &self.loops {
            let lo = l.lower.eval(&mids);
            let hi = l.upper.eval(&mids);
            trips.push((hi - lo).max(0));
            mids.push(lo + (hi - lo) / 2);
        }
        trips
    }

    /// Estimated total number of iterations of the nest, including its
    /// weight. This is the `n_j` of §5.2 used for reference weighting.
    pub fn iteration_estimate(&self) -> u64 {
        let per_pass: i64 = self.trip_count_estimates().iter().product();
        per_pass.max(0) as u64 * self.weight
    }

    /// The contiguous chunk `[lo, hi)` of the parallel loop assigned to
    /// `core` out of `n_cores` under block distribution. The last chunk may
    /// be smaller (§5.1).
    pub fn chunk_for_core(&self, core: usize, n_cores: usize) -> (i64, i64) {
        assert!(n_cores > 0 && core < n_cores, "core index out of range");
        let (lo, hi) = self.parallel_bounds();
        let total = (hi - lo).max(0);
        let chunk = (total + n_cores as i64 - 1) / n_cores.max(1) as i64;
        let c_lo = lo + chunk * core as i64;
        let c_hi = (c_lo + chunk).min(hi);
        (c_lo.min(hi), c_hi)
    }

    /// Walks the iterations assigned to one core in lexicographic order,
    /// optionally subsampled.
    ///
    /// `strides[k]` advances loop `k` by that step (use `1` everywhere for
    /// the exact iteration set; larger strides produce a uniform sample used
    /// to keep simulation traces tractable). The parallel dimension is
    /// restricted to the core's block chunk.
    ///
    /// The callback receives the current iteration vector.
    pub fn walk_core_iterations<F>(&self, core: usize, n_cores: usize, strides: &[i64], mut f: F)
    where
        F: FnMut(&[i64]),
    {
        let last = self.depth() - 1;
        self.walk_core_runs(core, n_cores, strides, |iter, n| {
            for _ in 0..n {
                f(iter);
                iter[last] += strides[last];
            }
        });
    }

    /// [`walk_core_iterations`](Self::walk_core_iterations) one innermost-
    /// loop *run* at a time: the callback receives the run's first
    /// iteration vector and its length `n >= 1`; the run's points are that
    /// vector with the last coordinate advanced by `strides[last]`, `n`
    /// times. Runs arrive in lexicographic order and empty ones are
    /// skipped, so expanding each run point by point is exactly the visit
    /// order of `walk_core_iterations`.
    ///
    /// Along a run every affine subscript moves by a constant, which is
    /// what lets trace generation evaluate a reference once per run. The
    /// vector is handed out mutably so the callback may step it along the
    /// run in place; whatever it leaves in the last coordinate is
    /// overwritten before the next run.
    pub fn walk_core_runs<F>(&self, core: usize, n_cores: usize, strides: &[i64], mut f: F)
    where
        F: FnMut(&mut [i64], i64),
    {
        assert_eq!(strides.len(), self.depth(), "one stride per loop required");
        assert!(strides.iter().all(|&s| s >= 1), "strides must be >= 1");
        let chunk = self.chunk_for_core(core, n_cores);
        let mut iter = vec![0i64; self.depth()];
        self.walk_runs_from(0, chunk, strides, &mut iter, &mut f);
    }

    fn walk_runs_from<F>(
        &self,
        depth: usize,
        chunk: (i64, i64),
        strides: &[i64],
        iter: &mut [i64],
        f: &mut F,
    ) where
        F: FnMut(&mut [i64], i64),
    {
        let (lo, hi) = if depth == self.parallel_dim {
            chunk
        } else {
            let prefix = &iter[..depth];
            (
                self.loops[depth].lower.eval(prefix),
                self.loops[depth].upper.eval(prefix),
            )
        };
        let stride = strides[depth];
        if depth + 1 == self.depth() {
            if lo < hi {
                iter[depth] = lo;
                f(iter, (hi - lo + stride - 1) / stride);
            }
            return;
        }
        let mut v = lo;
        while v < hi {
            iter[depth] = v;
            self.walk_runs_from(depth + 1, chunk, strides, iter, f);
            v += stride;
        }
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, l) in self.loops.iter().enumerate() {
            for _ in 0..k {
                write!(f, "  ")?;
            }
            writeln!(
                f,
                "for i{k} in {}..{}{}",
                l.lower,
                l.upper,
                if k == self.parallel_dim {
                    "  // parallel"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_nest(n: i64) -> LoopNest {
        LoopNest::new(
            vec![Loop::constant(0, n), Loop::constant(0, n)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(ArrayId(0), AffineAccess::identity(2))],
                1,
            )],
            1,
        )
    }

    #[test]
    fn chunking_is_block_contiguous() {
        let nest = square_nest(100);
        let mut covered = Vec::new();
        for core in 0..4 {
            let (lo, hi) = nest.chunk_for_core(core, 4);
            covered.push((lo, hi));
        }
        assert_eq!(covered, vec![(0, 25), (25, 50), (50, 75), (75, 100)]);
    }

    #[test]
    fn chunking_last_chunk_smaller() {
        let nest = square_nest(10);
        // 10 iterations over 4 cores: chunk = 3 → 3,3,3,1.
        let sizes: Vec<i64> = (0..4)
            .map(|c| {
                let (lo, hi) = nest.chunk_for_core(c, 4);
                hi - lo
            })
            .collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn walk_visits_all_core_iterations() {
        let nest = square_nest(8);
        let mut count = 0;
        nest.walk_core_iterations(1, 4, &[1, 1], |it| {
            assert!((2..4).contains(&it[0]));
            assert!((0..8).contains(&it[1]));
            count += 1;
        });
        assert_eq!(count, 2 * 8);
    }

    #[test]
    fn walk_respects_strides() {
        let nest = square_nest(8);
        let mut count = 0;
        nest.walk_core_iterations(0, 1, &[2, 4], |_| count += 1);
        assert_eq!(count, 4 * 2);
    }

    #[test]
    fn triangular_bounds_evaluate_per_prefix() {
        // for i0 in 0..4 (parallel), for i1 in 0..i0
        let nest = LoopNest::new(
            vec![
                Loop::constant(0, 4),
                Loop::new(AffineExpr::constant(0), AffineExpr::var(1, 0)),
            ],
            0,
            vec![],
            1,
        );
        let mut visits = Vec::new();
        nest.walk_core_iterations(0, 1, &[1, 1], |it| visits.push((it[0], it[1])));
        assert_eq!(visits, vec![(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]);
    }

    /// The visit order `walk_core_iterations` had when it was its own
    /// point-by-point recursion: the reference `walk_core_runs` is held to.
    fn pointwise_visits(
        nest: &LoopNest,
        core: usize,
        n_cores: usize,
        strides: &[i64],
    ) -> Vec<Vec<i64>> {
        fn rec(
            nest: &LoopNest,
            chunk: (i64, i64),
            strides: &[i64],
            iter: &mut Vec<i64>,
            out: &mut Vec<Vec<i64>>,
        ) {
            let depth = iter.len();
            if depth == nest.depth() {
                out.push(iter.clone());
                return;
            }
            let (lo, hi) = if depth == nest.parallel_dim() {
                chunk
            } else {
                let l = &nest.loops()[depth];
                (l.lower.eval(iter), l.upper.eval(iter))
            };
            let mut v = lo;
            while v < hi {
                iter.push(v);
                rec(nest, chunk, strides, iter, out);
                iter.pop();
                v += strides[depth];
            }
        }
        let mut out = Vec::new();
        let chunk = nest.chunk_for_core(core, n_cores);
        rec(nest, chunk, strides, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn runs_expand_to_the_pointwise_visit_order() {
        use hoploc_ptest::run_cases;
        run_cases("runs_expand_to_the_pointwise_visit_order", 200, |rng| {
            // 1- to 3-deep nests; non-parallel loops get bounds affine in
            // the enclosing iterators (triangular, possibly empty), any
            // loop may be the parallel one, and a parallel loop shorter
            // than the core count leaves some chunks empty.
            let depth = rng.usize_in(1..4);
            let parallel_dim = rng.usize_in(0..depth);
            let loops: Vec<Loop> = (0..depth)
                .map(|k| {
                    if k == parallel_dim || rng.flip() {
                        let lo = rng.i64_in(-3..4);
                        Loop::constant(lo, lo + rng.i64_in(0..12))
                    } else {
                        let mut bound = |constant: std::ops::Range<i64>| {
                            let coeffs = (0..k).map(|_| rng.i64_in(-1..2)).collect();
                            AffineExpr::new(coeffs, rng.i64_in(constant))
                        };
                        Loop::new(bound(-3..3), bound(2..12))
                    }
                })
                .collect();
            let nest = LoopNest::new(loops, parallel_dim, vec![], 1);
            let strides: Vec<i64> = (0..depth)
                .map(|k| {
                    if k == parallel_dim {
                        1
                    } else {
                        rng.i64_in(1..5)
                    }
                })
                .collect();
            let n_cores = rng.usize_in(1..7);
            for core in 0..n_cores {
                let want = pointwise_visits(&nest, core, n_cores, &strides);

                let mut expanded = Vec::new();
                nest.walk_core_runs(core, n_cores, &strides, |first, n| {
                    assert!(n >= 1, "empty runs are skipped");
                    for k in 0..n {
                        let mut point = first.to_vec();
                        point[depth - 1] += k * strides[depth - 1];
                        expanded.push(point);
                    }
                });
                assert_eq!(expanded, want, "runs of core {core}/{n_cores}");

                let mut visited = Vec::new();
                nest.walk_core_iterations(core, n_cores, &strides, |it| visited.push(it.to_vec()));
                assert_eq!(visited, want, "iterations of core {core}/{n_cores}");
            }
        });
    }

    #[test]
    fn iteration_ranges_cover_triangular_nests() {
        // for i0 in 0..4, for i1 in 0..i0: i1 reaches at most 2.
        let nest = LoopNest::new(
            vec![
                Loop::constant(0, 4),
                Loop::new(AffineExpr::constant(0), AffineExpr::var(1, 0)),
            ],
            0,
            vec![],
            1,
        );
        assert_eq!(nest.iteration_ranges(), vec![(0, 3), (0, 2)]);
    }

    #[test]
    fn iteration_ranges_flag_empty_domains() {
        let nest = LoopNest::new(vec![Loop::constant(5, 5)], 0, vec![], 1);
        let r = nest.iteration_ranges();
        assert!(r[0].0 > r[0].1, "empty loop must yield an empty range");
    }

    #[test]
    fn iteration_estimate_scales_with_weight() {
        let nest = LoopNest::new(
            vec![Loop::constant(0, 10), Loop::constant(0, 10)],
            0,
            vec![],
            5,
        );
        assert_eq!(nest.iteration_estimate(), 500);
    }
}
