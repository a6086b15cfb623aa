//! The layout-transformation driver — Algorithm 1 of the paper.
//!
//! For every array of a program: determine the Data-to-Core mapping
//! (weighted over all references, §5.2), then customize the layout for the
//! configured cache organization and interleaving granularity (§5.3),
//! approximating indexed references from their profiled tables (§5.4) and
//! declining to optimize arrays that approximate too poorly.

use crate::approx::approximate_table;
use crate::binding::ThreadBinding;
use crate::customize::{ArrayLayout, Granularity, L2Mode, Owners, SharedPolicy};
use crate::data_to_core::{determine_data_to_core, DataToCore, DATA_PARTITION_DIM};
use crate::error::LayoutError;
use hoploc_affine::{AccessFn, ArrayId, IMat, IVec, Program};
use hoploc_noc::L2ToMcMapping;
use std::fmt;
use std::mem::take;

/// Configuration of one pass invocation (the INPUT line of Algorithm 1).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PassConfig {
    /// Interleaving granularity of physical addresses across MCs.
    pub granularity: Granularity,
    /// Last-level cache organization.
    pub l2_mode: L2Mode,
    /// Shared-L2 localization priority (ignored for private L2s).
    pub shared_policy: SharedPolicy,
    /// L2 cache line size in bytes (Table 1: 256).
    pub line_bytes: u32,
    /// OS page size in bytes (Table 1: 4096).
    pub page_bytes: u32,
    /// Maximum tolerated indexed-approximation inaccuracy (§5.4: 30%).
    pub approx_threshold: f64,
}

impl Default for PassConfig {
    fn default() -> Self {
        Self {
            granularity: Granularity::CacheLine,
            l2_mode: L2Mode::Private,
            shared_policy: SharedPolicy::OnChipFirst,
            line_bytes: 256,
            page_bytes: 4096,
            approx_threshold: 0.30,
        }
    }
}

impl PassConfig {
    /// The interleave unit implied by the granularity.
    pub fn unit_bytes(&self) -> u32 {
        match self.granularity {
            Granularity::CacheLine => self.line_bytes,
            Granularity::Page => self.page_bytes,
        }
    }
}

/// Per-array outcome, feeding Table 2 of the paper.
#[derive(Clone, Debug)]
pub struct ArrayReport {
    /// The array.
    pub array: ArrayId,
    /// Its declared name.
    pub name: String,
    /// Whether a customized layout was produced.
    pub optimized: bool,
    /// Why not, when `optimized` is false.
    pub reason: Option<LayoutError>,
    /// References (affine satisfied + well-approximated indexed) the chosen
    /// layout serves.
    pub satisfied_refs: usize,
    /// All references to the array.
    pub total_refs: usize,
}

/// The result of optimizing a whole program.
///
/// The default value lays out no array; it is what
/// [`ProgramAnalysis::customize_into`] first fills.
#[derive(Clone, Default)]
pub struct ProgramLayout {
    layouts: Vec<ArrayLayout>,
    reports: Vec<ArrayReport>,
    binding: ThreadBinding,
    config: PassConfig,
    /// The arrangement the localized layouts were copied from, kept so the
    /// next fill reuses its buffers; everything it says is in `layouts`.
    owners: Owners,
}

impl fmt::Debug for ProgramLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramLayout")
            .field("layouts", &self.layouts)
            .field("reports", &self.reports)
            .field("binding", &self.binding)
            .field("config", &self.config)
            .finish()
    }
}

impl ProgramLayout {
    /// The layout chosen for an array (customized or original).
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn layout(&self, array: ArrayId) -> &ArrayLayout {
        &self.layouts[array.0]
    }

    /// All layouts, indexed by [`ArrayId`].
    pub fn layouts(&self) -> &[ArrayLayout] {
        &self.layouts
    }

    /// Per-array reports (Table 2 feed).
    pub fn reports(&self) -> &[ArrayReport] {
        &self.reports
    }

    /// The thread binding the layouts assume (trace generation must use the
    /// same one).
    pub fn binding(&self) -> &ThreadBinding {
        &self.binding
    }

    /// The configuration used.
    pub fn config(&self) -> &PassConfig {
        &self.config
    }

    /// Whether `other` is the same input to everything downstream of the
    /// pass — address-space construction, the desired-page map, trace
    /// generation: equal array layouts, equal thread binding, and an equal
    /// configuration but for the approximation threshold. The threshold
    /// only steers which arrays the pass localizes, and the reports only
    /// say why; two thresholds with no array's inaccuracy between them
    /// compile to plans that are equal in this sense.
    pub fn places_like(&self, other: &Self) -> bool {
        let unsteered = |c: &PassConfig| PassConfig {
            approx_threshold: 0.0,
            ..*c
        };
        self.layouts == other.layouts
            && self.binding == other.binding
            && unsteered(&self.config) == unsteered(&other.config)
    }

    /// Fraction of arrays optimized (Table 2, second column).
    pub fn arrays_optimized(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().filter(|r| r.optimized).count() as f64 / self.reports.len() as f64
    }

    /// Fraction of references satisfied (Table 2, third column).
    pub fn refs_satisfied(&self) -> f64 {
        let total: usize = self.reports.iter().map(|r| r.total_refs).sum();
        if total == 0 {
            return 0.0;
        }
        let sat: usize = self.reports.iter().map(|r| r.satisfied_refs).sum();
        sat as f64 / total as f64
    }
}

/// The baseline "layout": every array keeps its original row-major
/// placement, threads bound identically. Used for the unoptimized runs.
pub fn baseline_layout(program: &Program, num_threads: usize) -> ProgramLayout {
    ProgramLayout {
        layouts: program.arrays().iter().map(ArrayLayout::original).collect(),
        reports: program
            .arrays()
            .iter()
            .enumerate()
            .map(|(i, a)| ArrayReport {
                array: ArrayId(i),
                name: a.name().to_string(),
                optimized: false,
                reason: None,
                satisfied_refs: 0,
                total_refs: program.refs_to(ArrayId(i)).count(),
            })
            .collect(),
        binding: ThreadBinding::identity(num_threads),
        config: PassConfig::default(),
        owners: Owners::default(),
    }
}

/// What Algorithm 1 learns from the program alone: the Data-to-Core step
/// (§5.2) and the index-table fits (§5.4). Neither reads the machine, so
/// one analysis serves every mapping and [`PassConfig`] the program is
/// customized for — a design-space search pays for it once.
#[derive(Debug)]
pub struct ProgramAnalysis {
    arrays: Vec<ArrayAnalysis>,
}

#[derive(Debug)]
struct ArrayAnalysis {
    total_refs: usize,
    /// The mapping the affine references determine; `None` without one.
    affine_d2c: Option<Result<DataToCore, LayoutError>>,
    /// For an array referenced through index tables alone, the trivial
    /// mapping it is partitioned by when a reference approximates well.
    indexed_d2c: Option<DataToCore>,
    /// Table-fit inaccuracy of each indexed reference. Which of them count
    /// as well approximated depends on [`PassConfig::approx_threshold`].
    inaccuracies: Vec<f64>,
}

impl ProgramAnalysis {
    /// Analyzes every array of `program`.
    pub fn of(program: &Program) -> Self {
        let arrays = (0..program.arrays().len())
            .map(|i| {
                let array = ArrayId(i);
                let extent = program.array(array).num_elements();
                let mut affine_refs = 0;
                let mut inaccuracies = Vec::new();
                for (_, r) in program.refs_to(array) {
                    match &r.access {
                        AccessFn::Affine(_) => affine_refs += 1,
                        AccessFn::Indexed { table, .. } => inaccuracies
                            .push(approximate_table(program.table(*table), extent).inaccuracy),
                    }
                }
                let rank = program.array(array).rank();
                ArrayAnalysis {
                    total_refs: affine_refs + inaccuracies.len(),
                    affine_d2c: (affine_refs > 0).then(|| determine_data_to_core(program, array)),
                    indexed_d2c: (affine_refs == 0 && !inaccuracies.is_empty())
                        .then(|| identity_d2c(array, rank, inaccuracies.len())),
                    inaccuracies,
                }
            })
            .collect();
        Self { arrays }
    }

    /// Layout customization (§5.3) of the analyzed `program` for one
    /// mapping and configuration.
    ///
    /// Returns a customized layout per array where possible and the
    /// original layout (with the reason) otherwise. The pass itself never
    /// fails: an unoptimizable array is a missed optimization, not an error.
    ///
    /// # Panics
    ///
    /// Panics if `program` is not the program this analysis was made of.
    pub fn customize(
        &self,
        program: &Program,
        mapping: &L2ToMcMapping,
        config: PassConfig,
    ) -> ProgramLayout {
        let mut out = ProgramLayout::default();
        self.customize_into(program, mapping, config, &mut out);
        out
    }

    /// [`customize`](Self::customize) written into `out` — a layout of
    /// this program or the default one — reusing its buffers, so that a
    /// caller customizing for many mappings allocates next to nothing per
    /// mapping. The binding and the slot arrangement are built once and
    /// every localized array copies them.
    ///
    /// # Panics
    ///
    /// As [`customize`](Self::customize).
    pub fn customize_into(
        &self,
        program: &Program,
        mapping: &L2ToMcMapping,
        config: PassConfig,
        out: &mut ProgramLayout,
    ) {
        assert_eq!(
            self.arrays.len(),
            program.arrays().len(),
            "analysis belongs to another program"
        );
        let n_arrays = self.arrays.len();
        out.binding.set_cluster_major(mapping);
        out.config = config;
        match config.l2_mode {
            L2Mode::Private => out.owners.fill_private(mapping, &out.binding),
            L2Mode::Shared => (out.owners).fill_shared(mapping, &out.binding, config.shared_policy),
        }
        out.layouts.truncate(n_arrays);
        out.reports.truncate(n_arrays);
        let unit = config.unit_bytes();

        for (i, (decl, analysis)) in program.arrays().iter().zip(&self.arrays).enumerate() {
            let array = ArrayId(i);
            let indexed_ok = analysis
                .inaccuracies
                .iter()
                .filter(|&&x| x <= config.approx_threshold)
                .count();

            // A purely indexed (necessarily 1-D in our IR) array partitions
            // its only dimension directly when it approximates well.
            let d2c: Result<&DataToCore, LayoutError> =
                if unit == 0 || !unit.is_multiple_of(decl.elem_size()) {
                    // A unit that holds no whole number of elements cannot be
                    // laid out (customization would panic); report it instead.
                    // Reachable from user-supplied `line_bytes`/`page_bytes`.
                    Err(LayoutError::BadInterleaveUnit {
                        array,
                        unit_bytes: unit,
                        elem_size: decl.elem_size(),
                    })
                } else {
                    match (&analysis.affine_d2c, &analysis.indexed_d2c) {
                        (Some(d2c), _) => d2c.as_ref().map_err(Clone::clone),
                        (None, Some(identity)) if indexed_ok > 0 => Ok(identity),
                        (None, _) => Err(LayoutError::ApproximationTooInaccurate {
                            array,
                            inaccuracy: analysis.inaccuracies.iter().fold(0.0, |w, &x| w.max(x)),
                        }),
                    }
                };

            if i == out.layouts.len() {
                out.layouts.push(ArrayLayout::original(decl));
            }
            let layout = &mut out.layouts[i];
            let (satisfied_refs, reason) = match d2c {
                Ok(d2c) => {
                    layout.localize(decl, &d2c.u, &out.owners, unit);
                    (d2c.satisfied_refs + indexed_ok, None)
                }
                Err(e) => {
                    layout.set_original(decl);
                    (0, Some(e))
                }
            };
            // The name's buffer is the one this array's report had.
            let mut name = (out.reports.get_mut(i)).map_or_else(String::new, |r| take(&mut r.name));
            name.clear();
            name.push_str(decl.name());
            let report = ArrayReport {
                array,
                name,
                optimized: reason.is_none(),
                reason,
                satisfied_refs,
                total_refs: analysis.total_refs,
            };
            match out.reports.get_mut(i) {
                Some(r) => *r = report,
                None => out.reports.push(report),
            }
        }
    }
}

/// Runs Algorithm 1 over a program: [`ProgramAnalysis::of`], then
/// [`ProgramAnalysis::customize`].
pub fn optimize_program(
    program: &Program,
    mapping: &L2ToMcMapping,
    config: PassConfig,
) -> ProgramLayout {
    ProgramAnalysis::of(program).customize(program, mapping, config)
}

/// A trivial Data-to-Core mapping (identity `U`) used for well-approximated
/// purely indexed arrays.
fn identity_d2c(array: ArrayId, rank: usize, refs: usize) -> DataToCore {
    DataToCore {
        array,
        u: IMat::identity(rank),
        g_v: IVec::unit(rank, DATA_PARTITION_DIM),
        satisfied_refs: 0,
        total_refs: refs,
        satisfied_weight: 0,
        total_weight: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_affine::{AffineAccess, AffineExpr, ArrayDecl, ArrayRef, Loop, LoopNest, Statement};
    use hoploc_noc::{McPlacement, Mesh};

    fn mapping() -> L2ToMcMapping {
        L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners)
    }

    fn stencil_program() -> Program {
        let mut p = Program::new("stencil");
        let z = p.add_array(ArrayDecl::new("Z", vec![512, 512], 8));
        let a = hoploc_affine::IMat::from_rows(&[&[0, 1], &[1, 0]]);
        p.add_nest(LoopNest::new(
            vec![Loop::constant(1, 511), Loop::constant(1, 511)],
            0,
            vec![Statement::new(
                vec![
                    ArrayRef::read(z, AffineAccess::new(a.clone(), IVec::new(vec![-1, 0]))),
                    ArrayRef::read(z, AffineAccess::new(a.clone(), IVec::zeros(2))),
                    ArrayRef::write(z, AffineAccess::new(a, IVec::zeros(2))),
                ],
                4,
            )],
            10,
        ));
        p
    }

    #[test]
    fn stencil_is_fully_optimized() {
        let p = stencil_program();
        let out = optimize_program(&p, &mapping(), PassConfig::default());
        assert_eq!(out.arrays_optimized(), 1.0);
        assert_eq!(out.refs_satisfied(), 1.0);
        assert!(!out.layout(ArrayId(0)).is_original());
    }

    #[test]
    fn unreferenced_array_stays_original() {
        let mut p = stencil_program();
        let dead = p.add_array(ArrayDecl::new("dead", vec![64], 8));
        let out = optimize_program(&p, &mapping(), PassConfig::default());
        assert!(out.layout(dead).is_original());
        assert!((out.arrays_optimized() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shuffled_indexed_array_not_optimized() {
        let mut p = Program::new("shuffle");
        let x = p.add_array(ArrayDecl::new("X", vec![1024], 8));
        let n = 1024i64;
        let shuffled: Vec<i64> = (0..n).map(|k| (k * 389) % n).collect();
        let t = p.add_table(shuffled);
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 1024)],
            0,
            vec![Statement::new(
                vec![ArrayRef::indexed_read(x, t, AffineExpr::var(1, 0))],
                1,
            )],
            1,
        ));
        let out = optimize_program(&p, &mapping(), PassConfig::default());
        assert!(out.layout(x).is_original());
        assert!(matches!(
            out.reports()[0].reason,
            Some(LayoutError::ApproximationTooInaccurate { .. })
        ));
    }

    #[test]
    fn near_affine_indexed_array_is_optimized() {
        let mut p = Program::new("crs");
        let x = p.add_array(ArrayDecl::new("X", vec![4096], 8));
        // A banded-matrix column-index pattern: close to the diagonal.
        let tab: Vec<i64> = (0..4096i64)
            .map(|k| (k + (k % 5) - 2).clamp(0, 4095))
            .collect();
        let t = p.add_table(tab);
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 4096)],
            0,
            vec![Statement::new(
                vec![ArrayRef::indexed_read(x, t, AffineExpr::var(1, 0))],
                1,
            )],
            1,
        ));
        let out = optimize_program(&p, &mapping(), PassConfig::default());
        assert!(!out.layout(x).is_original());
        assert_eq!(out.refs_satisfied(), 1.0);
    }

    #[test]
    fn shared_mode_produces_shared_layouts() {
        let p = stencil_program();
        let cfg = PassConfig {
            l2_mode: L2Mode::Shared,
            ..PassConfig::default()
        };
        let out = optimize_program(&p, &mapping(), cfg);
        assert!(!out.layout(ArrayId(0)).is_original());
    }

    #[test]
    fn page_granularity_uses_page_units() {
        let p = stencil_program();
        let cfg = PassConfig {
            granularity: Granularity::Page,
            ..PassConfig::default()
        };
        let out = optimize_program(&p, &mapping(), cfg);
        assert_eq!(out.layout(ArrayId(0)).unit_elems(), 4096 / 8);
    }

    #[test]
    fn bad_interleave_unit_reported_not_panicked() {
        let p = stencil_program();
        let cfg = PassConfig {
            line_bytes: 100, // not a multiple of the 8 B element size
            ..PassConfig::default()
        };
        let out = optimize_program(&p, &mapping(), cfg);
        assert!(out.layout(ArrayId(0)).is_original());
        assert!(matches!(
            out.reports()[0].reason,
            Some(LayoutError::BadInterleaveUnit {
                unit_bytes: 100,
                elem_size: 8,
                ..
            })
        ));
    }

    #[test]
    fn baseline_keeps_everything_original() {
        let p = stencil_program();
        let base = baseline_layout(&p, 64);
        assert!(base.layout(ArrayId(0)).is_original());
        assert_eq!(base.arrays_optimized(), 0.0);
    }
}
