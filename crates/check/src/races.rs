//! The HL02xx static race detector.
//!
//! Per nest, every write-involving reference pair is dependence-tested
//! (`nest_dependence_pairs`) and the verdicts are turned into diagnostics
//! against the nest's declared `parallel_dim` under the block (chunked)
//! iteration distribution the trace generator uses:
//!
//! * **Uniform** dependences with a carried distance at the parallel
//!   dimension are classified by distance: within the halo limit they are
//!   the chunk-boundary stencil pattern the modelled applications
//!   synchronize outside the model ([`Code::HaloCarriedDependence`], a
//!   note); beyond it, conflicts span whole core chunks
//!   ([`Code::CarriedDependenceSpansChunks`], an error).
//! * **Kernel overlap**: a write whose access matrix has a kernel
//!   direction along the parallel dimension (broadcast writes are the
//!   simplest case) is written identically by distinct parallel
//!   iterations ([`Code::ParallelWriteOverlap`]).
//! * **Unknown** verdicts (indexed references, coupled subscripts) fall
//!   back to a decision procedure: enumerate the iteration domain, map
//!   every touched element to the cores touching it, and classify the
//!   observed cross-core conflicts. An exhaustive enumeration that finds
//!   none is a proof of independence; domains beyond the enumeration cap
//!   are subsampled on sequential dimensions (a spot check), and domains
//!   whose parallel extent alone exceeds the cap are reported as unproven
//!   ([`Code::UnprovenIndependence`]).
//!
//! This is the workspace's one parallel-safety verdict: `hoploc check`
//! reports its findings and `hoploc compile` counts the nests without one.
//! A finding names the offending pair, its array, and the distance — and
//! distinguishes benign halo sharing from chunk-spanning races.

use crate::diag::{Code, Diagnostic};
use crate::CheckConfig;
use hoploc_affine::{
    nest_dependence_pairs, nullspace, AccessFn, ArrayRef, Dependence, DependencePair, LoopNest,
    Program, RefKind,
};
use std::collections::HashMap;

/// Largest carried distance treated as chunk-boundary (halo) sharing
/// rather than a race; stencils in the suite reach at most ±2.
const HALO_LIMIT: i64 = 2;

/// Runs the race detector over every nest of a program.
pub fn check_races(program: &Program, cfg: &CheckConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cfg.cores < 2 {
        return out;
    }
    for (ni, nest) in program.nests().iter().enumerate() {
        check_nest(program, ni, nest, cfg, &mut out);
    }
    out
}

fn check_nest(
    program: &Program,
    ni: usize,
    nest: &LoopNest,
    cfg: &CheckConfig,
    out: &mut Vec<Diagnostic>,
) {
    let ranges = nest.iteration_ranges();
    if ranges.iter().any(|&(lo, hi)| lo > hi) {
        return; // Empty domain: nothing executes (HL0310 from the lints).
    }
    let u = nest.parallel_dim();
    // Maximum iteration-vector delta representable inside the domain box.
    let deltas: Vec<i64> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
    if deltas[u] < 1 {
        return; // A single parallel iteration cannot race with itself.
    }
    let app = program.name();

    // Kernel overlap: distinct parallel iterations writing one element.
    for (si, stmt) in nest.body().iter().enumerate() {
        for (ri, r) in stmt.refs.iter().enumerate() {
            if r.kind != RefKind::Write || !ref_ok(program, nest, r) {
                continue;
            }
            let Some(a) = r.access.as_affine() else {
                continue;
            };
            let overlap = nullspace(a.matrix())
                .into_iter()
                .find(|n| n[u] != 0 && (0..nest.depth()).all(|k| n[k].abs() <= deltas[k]));
            if let Some(n) = overlap {
                let name = program.array(r.array).name();
                out.push(
                    Diagnostic::new(
                        Code::ParallelWriteOverlap,
                        app,
                        format!(
                            "distinct iterations of parallel loop i{u} write the \
                             same elements of `{name}` (iteration direction \
                             {:?} maps to one element)",
                            n.as_slice()
                        ),
                    )
                    .at(ni, si, ri)
                    .on_array(name)
                    .with_help(
                        "parallelize a loop the write's subscripts depend on, \
                         or privatize the array",
                    ),
                );
            }
        }
    }

    let pairs = nest_dependence_pairs(nest);
    let mut unknown: Vec<DependencePair> = Vec::new();
    for p in pairs {
        match &p.dep {
            Dependence::Independent => {}
            Dependence::Uniform(d) => {
                if u >= d.len() || d[u] == 0 {
                    continue; // Loop-independent at the parallel dimension.
                }
                if !(0..d.len()).all(|k| d[k].abs() <= deltas[k]) {
                    continue; // The distance does not fit the domain: no pair exists.
                }
                let dist = d[u].abs();
                let name = program.array(p.array).name().to_string();
                let loc = format!(
                    "stmt {} ref {} and stmt {} ref {}",
                    p.a.0, p.a.1, p.b.0, p.b.1
                );
                if dist <= HALO_LIMIT {
                    out.push(
                        Diagnostic::new(
                            Code::HaloCarriedDependence,
                            app,
                            format!(
                                "dependence between {loc} on `{name}` is carried \
                                 by parallel loop i{u} at distance {dist}: only \
                                 chunk-boundary (halo) elements conflict, which \
                                 the modelled application synchronizes outside \
                                 the model"
                            ),
                        )
                        .at(ni, p.a.0, p.a.1)
                        .on_array(&name),
                    );
                } else {
                    out.push(
                        Diagnostic::new(
                            Code::CarriedDependenceSpansChunks,
                            app,
                            format!(
                                "dependence between {loc} on `{name}` is carried \
                                 by parallel loop i{u} at distance {dist}, beyond \
                                 the halo limit {HALO_LIMIT}: conflicts span \
                                 whole core chunks"
                            ),
                        )
                        .at(ni, p.a.0, p.a.1)
                        .on_array(&name)
                        .with_help("parallelize a loop with zero carried distance"),
                    );
                }
            }
            Dependence::Unknown => unknown.push(p),
        }
    }

    if !unknown.is_empty() {
        enumerate_unknown(program, ni, nest, &ranges, &unknown, cfg, out);
    }
}

/// Whether a reference is well-formed enough to analyze (the lints report
/// the malformed ones).
fn ref_ok(program: &Program, nest: &LoopNest, r: &ArrayRef) -> bool {
    let Some(decl) = program.try_array(r.array) else {
        return false;
    };
    match &r.access {
        AccessFn::Affine(a) => a.depth() == nest.depth() && a.rank() == decl.rank(),
        AccessFn::Indexed { table, .. } => {
            decl.rank() == 1 && program.try_table(*table).is_some_and(|t| !t.is_empty())
        }
    }
}

/// The element a reference touches at one iteration, mirroring the trace
/// generator: affine subscripts clamp into the array, indexed positions
/// wrap modulo the table length, and the fetched entry clamps as well.
fn elem_of(program: &Program, r: &ArrayRef, iter: &[i64]) -> i64 {
    let decl = program.array(r.array);
    match &r.access {
        AccessFn::Affine(a) => {
            let mut off: i128 = 0;
            for rk in 0..a.rank() {
                let mut v = a.offset()[rk] as i128;
                for (c, &i) in iter.iter().enumerate() {
                    v += a.matrix()[(rk, c)] as i128 * i as i128;
                }
                let d = decl.dims()[rk] as i128;
                off = off * d + v.clamp(0, d - 1);
            }
            off as i64
        }
        AccessFn::Indexed { table, pos } => {
            let tab = program.table(*table);
            let p = pos.eval(iter).rem_euclid(tab.len() as i64);
            tab[p as usize].clamp(0, decl.dims()[0] - 1)
        }
    }
}

/// Per-element core footprint of one reference: element → (min, max) core
/// index that touches it.
type CoreMap = HashMap<i64, (u32, u32)>;

#[allow(clippy::too_many_arguments)]
fn enumerate_unknown(
    program: &Program,
    ni: usize,
    nest: &LoopNest,
    ranges: &[(i64, i64)],
    unknown: &[DependencePair],
    cfg: &CheckConfig,
    out: &mut Vec<Diagnostic>,
) {
    let app = program.name();
    let u = nest.parallel_dim();
    let usable: Vec<&DependencePair> = unknown
        .iter()
        .filter(|p| {
            ref_ok(program, nest, &nest.body()[p.a.0].refs[p.a.1])
                && ref_ok(program, nest, &nest.body()[p.b.0].refs[p.b.1])
        })
        .collect();
    if usable.is_empty() {
        return;
    }

    // Fit the walk under the enumeration cap by subsampling sequential
    // dimensions (innermost first). The parallel dimension is never
    // subsampled: core attribution must be exact.
    let counts: Vec<u128> = ranges
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1) as u128)
        .collect();
    let mut strides = vec![1i64; nest.depth()];
    let total: u128 = counts.iter().product();
    let cap = cfg.enum_cap as u128;
    let mut exhaustive = true;
    if total > cap {
        exhaustive = false;
        let mut factor = total.div_ceil(cap);
        for k in (0..nest.depth()).rev() {
            if k == u || factor <= 1 {
                continue;
            }
            let take = counts[k].min(factor).max(1);
            strides[k] = take as i64;
            factor = factor.div_ceil(take);
        }
        if factor > 1 {
            // Even sequential subsampling cannot fit the walk: the parallel
            // extent alone exceeds the cap. Independence stays unproven.
            for p in &usable {
                let name = program.array(p.array).name();
                out.push(
                    Diagnostic::new(
                        Code::UnprovenIndependence,
                        app,
                        format!(
                            "dependence between stmt {} ref {} and stmt {} ref {} \
                             on `{name}` is inconclusive and the parallel extent \
                             exceeds the {} -iteration enumeration cap",
                            p.a.0, p.a.1, p.b.0, p.b.1, cfg.enum_cap
                        ),
                    )
                    .at(ni, p.a.0, p.a.1)
                    .on_array(name),
                );
            }
            return;
        }
    }

    // One walk of the (possibly subsampled) domain fills the core map of
    // every participating reference.
    let mut participants: Vec<(usize, usize)> = usable.iter().flat_map(|p| [p.a, p.b]).collect();
    participants.sort_unstable();
    participants.dedup();
    let mut maps: HashMap<(usize, usize), CoreMap> = participants
        .iter()
        .map(|&loc| (loc, CoreMap::new()))
        .collect();
    for core in 0..cfg.cores as usize {
        nest.walk_core_iterations(core, cfg.cores as usize, &strides, |iter| {
            for &(si, ri) in &participants {
                let elem = elem_of(program, &nest.body()[si].refs[ri], iter);
                let e = maps
                    .get_mut(&(si, ri))
                    .expect("participant map inserted above")
                    .entry(elem)
                    .or_insert((core as u32, core as u32));
                e.0 = e.0.min(core as u32);
                e.1 = e.1.max(core as u32);
            }
        });
    }

    for p in &usable {
        let (conflicts, max_sep) = cross_core_conflicts(&maps[&p.a], &maps[&p.b], p.a == p.b);
        if conflicts == 0 {
            continue; // Exhaustive: proven independent. Sampled: spot-check clean.
        }
        let ra = &nest.body()[p.a.0].refs[p.a.1];
        let rb = &nest.body()[p.b.0].refs[p.b.1];
        let name = program.array(p.array).name().to_string();
        let indexed = ra.access.is_indexed() || rb.access.is_indexed();
        let both_write = ra.kind == RefKind::Write && rb.kind == RefKind::Write;
        let loc = format!(
            "stmt {} ref {} and stmt {} ref {}",
            p.a.0, p.a.1, p.b.0, p.b.1
        );
        let evidence = format!(
            "{} of `{name}` {} touched from different cores (max core \
             distance {max_sep}{})",
            plural(conflicts, "element"),
            if conflicts == 1 { "is" } else { "are" },
            if exhaustive { "" } else { ", subsampled walk" },
        );
        let d = if both_write {
            let code = if indexed {
                Code::IndexedWriteRace
            } else {
                Code::CrossCoreCollision
            };
            Diagnostic::new(
                code,
                app,
                format!("{loc} both write `{name}` across cores: {evidence}"),
            )
            .with_help("distinct cores write the same element with no ordering")
        } else if indexed {
            Diagnostic::new(
                Code::IndexedSharing,
                app,
                format!(
                    "indexed sharing between {loc}: {evidence}; the model \
                     assumes the application synchronizes these"
                ),
            )
        } else if max_sep <= 1 {
            Diagnostic::new(
                Code::HaloCarriedDependence,
                app,
                format!(
                    "sharing between {loc} stays on adjacent cores (halo): \
                     {evidence}; the modelled application synchronizes \
                     chunk boundaries outside the model"
                ),
            )
        } else {
            Diagnostic::new(
                Code::CrossCoreCollision,
                app,
                format!("cross-core collision between {loc}: {evidence}"),
            )
            .with_help("the nest is not parallel-safe at its declared parallel_dim")
        };
        out.push(d.at(ni, p.a.0, p.a.1).on_array(&name));
    }
}

/// Counts elements touched from more than one core across the pair, and
/// the largest core separation observed.
fn cross_core_conflicts(a: &CoreMap, b: &CoreMap, self_pair: bool) -> (usize, i64) {
    let mut conflicts = 0usize;
    let mut max_sep = 0i64;
    if self_pair {
        for &(mn, mx) in a.values() {
            if mn != mx {
                conflicts += 1;
                max_sep = max_sep.max(mx as i64 - mn as i64);
            }
        }
        return (conflicts, max_sep);
    }
    for (elem, &(mna, mxa)) in a {
        let Some(&(mnb, mxb)) = b.get(elem) else {
            continue;
        };
        let sep = (mxa as i64 - mnb as i64).max(mxb as i64 - mna as i64);
        if sep > 0 || mna != mnb {
            conflicts += 1;
            max_sep = max_sep.max(sep.abs());
        }
    }
    (conflicts, max_sep)
}

fn plural(n: usize, what: &str) -> String {
    if n == 1 {
        format!("1 {what}")
    } else {
        format!("{n} {what}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use hoploc_affine::{
        AffineAccess, AffineExpr, ArrayDecl, ArrayRef, IMat, IVec, Loop, LoopNest, Statement,
    };

    fn cfg4() -> CheckConfig {
        CheckConfig {
            cores: 4,
            ..CheckConfig::default()
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    fn one_nest(arrays: Vec<ArrayDecl>, tables: Vec<Vec<i64>>, nest: LoopNest) -> Program {
        let mut p = Program::new("fixture");
        for a in arrays {
            p.add_array(a);
        }
        for t in tables {
            p.add_table(t);
        }
        p.add_nest(nest);
        p
    }

    #[test]
    fn broadcast_write_is_a_parallel_overlap() {
        // W[i1] written in an (i0 parallel, i1) nest: every i0 writes the
        // same row — the kernel of [[0, 1]] contains e0.
        let p = one_nest(
            vec![ArrayDecl::new("W", vec![32], 8)],
            vec![],
            LoopNest::new(
                vec![Loop::constant(0, 16), Loop::constant(0, 32)],
                0,
                vec![Statement::new(
                    vec![ArrayRef::write(
                        hoploc_affine::ArrayId(0),
                        AffineAccess::new(IMat::from_rows(&[&[0, 1]]), IVec::zeros(1)),
                    )],
                    1,
                )],
                1,
            ),
        );
        let d = check_races(&p, &cfg4());
        assert!(codes(&d).contains(&"HL0201"), "{d:?}");
        assert_eq!(d[0].severity(), Severity::Error);
    }

    #[test]
    fn halo_distance_is_a_note_and_far_distance_an_error() {
        let mk = |off: i64| {
            one_nest(
                vec![ArrayDecl::new("X", vec![64], 8)],
                vec![],
                LoopNest::new(
                    vec![Loop::constant(0, 64)],
                    0,
                    vec![Statement::new(
                        vec![
                            ArrayRef::write(hoploc_affine::ArrayId(0), AffineAccess::identity(1)),
                            ArrayRef::read(
                                hoploc_affine::ArrayId(0),
                                AffineAccess::new(IMat::identity(1), IVec::new(vec![off])),
                            ),
                        ],
                        1,
                    )],
                    1,
                ),
            )
        };
        let halo = check_races(&mk(-1), &cfg4());
        assert_eq!(codes(&halo), vec!["HL0202"], "{halo:?}");
        assert_eq!(halo[0].severity(), Severity::Note);
        let far = check_races(&mk(-17), &cfg4());
        assert_eq!(codes(&far), vec!["HL0203"], "{far:?}");
        assert_eq!(far[0].severity(), Severity::Error);
    }

    #[test]
    fn distance_beyond_the_domain_is_no_dependence() {
        // X[i0] vs X[i0 - 100] over 0..64: the distance cannot fit.
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![200], 8)],
            vec![],
            LoopNest::new(
                vec![Loop::constant(0, 64)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(hoploc_affine::ArrayId(0), AffineAccess::identity(1)),
                        ArrayRef::read(
                            hoploc_affine::ArrayId(0),
                            AffineAccess::new(IMat::identity(1), IVec::new(vec![-100])),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        assert!(check_races(&p, &cfg4()).is_empty());
    }

    #[test]
    fn transposed_pair_is_enumerated_to_a_cross_core_collision() {
        // X[i0][i1] written, X[i1][i0] read: coupled subscripts the affine
        // test cannot classify; enumeration finds far cross-core conflicts.
        let m = IMat::identity(2);
        let t = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![32, 32], 8)],
            vec![],
            LoopNest::new(
                vec![Loop::constant(0, 32), Loop::constant(0, 32)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(
                            hoploc_affine::ArrayId(0),
                            AffineAccess::new(m, IVec::zeros(2)),
                        ),
                        ArrayRef::read(
                            hoploc_affine::ArrayId(0),
                            AffineAccess::new(t, IVec::zeros(2)),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        let d = check_races(&p, &cfg4());
        assert_eq!(codes(&d), vec!["HL0204"], "{d:?}");
    }

    #[test]
    fn identity_table_sharing_stays_on_core_and_is_quiet() {
        // X[T[i0]] with T = identity: the indexed read touches exactly the
        // elements its own core writes — enumeration proves independence.
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![64], 8)],
            vec![(0..64).collect()],
            LoopNest::new(
                vec![Loop::constant(0, 64)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(hoploc_affine::ArrayId(0), AffineAccess::identity(1)),
                        ArrayRef::indexed_read(
                            hoploc_affine::ArrayId(0),
                            hoploc_affine::TableId(0),
                            AffineExpr::var(1, 0),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        assert!(check_races(&p, &cfg4()).is_empty());
    }

    #[test]
    fn scattered_table_sharing_is_an_indexed_note() {
        // T reverses the array: reads gather from the opposite core.
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![64], 8)],
            vec![(0..64).rev().collect()],
            LoopNest::new(
                vec![Loop::constant(0, 64)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(hoploc_affine::ArrayId(0), AffineAccess::identity(1)),
                        ArrayRef::indexed_read(
                            hoploc_affine::ArrayId(0),
                            hoploc_affine::TableId(0),
                            AffineExpr::var(1, 0),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        let d = check_races(&p, &cfg4());
        assert_eq!(codes(&d), vec!["HL0206"], "{d:?}");
        assert_eq!(d[0].severity(), Severity::Note);
    }

    #[test]
    fn indexed_write_write_race_is_an_error() {
        use hoploc_affine::AccessFn;
        let indexed_write = ArrayRef {
            array: hoploc_affine::ArrayId(0),
            access: AccessFn::Indexed {
                table: hoploc_affine::TableId(0),
                pos: AffineExpr::var(1, 0),
            },
            kind: RefKind::Write,
        };
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![64], 8)],
            vec![vec![0; 64]], // every iteration writes element 0
            LoopNest::new(
                vec![Loop::constant(0, 64)],
                0,
                vec![Statement::new(vec![indexed_write], 1)],
                1,
            ),
        );
        let d = check_races(&p, &cfg4());
        assert_eq!(codes(&d), vec!["HL0207"], "{d:?}");
        assert_eq!(d[0].severity(), Severity::Error);
    }

    #[test]
    fn oversized_parallel_extent_reports_unproven() {
        let small = CheckConfig {
            cores: 4,
            enum_cap: 1 << 8,
            ..CheckConfig::default()
        };
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![1024], 8)],
            vec![(0..1024).rev().collect()],
            LoopNest::new(
                vec![Loop::constant(0, 1024)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(hoploc_affine::ArrayId(0), AffineAccess::identity(1)),
                        ArrayRef::indexed_read(
                            hoploc_affine::ArrayId(0),
                            hoploc_affine::TableId(0),
                            AffineExpr::var(1, 0),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        let d = check_races(&p, &small);
        assert_eq!(codes(&d), vec!["HL0205"], "{d:?}");
        assert_eq!(d[0].severity(), Severity::Warning);
    }

    #[test]
    fn subsampled_walk_still_finds_scattered_sharing() {
        // Domain 1024 × 1024 exceeds a 2^16 cap; the parallel dim (1024)
        // fits, so sequential subsampling kicks in and the reversed table
        // is still caught.
        let small = CheckConfig {
            cores: 4,
            enum_cap: 1 << 16,
            ..CheckConfig::default()
        };
        let p = one_nest(
            vec![ArrayDecl::new("X", vec![1024], 8)],
            vec![(0..1024).rev().collect()],
            LoopNest::new(
                vec![Loop::constant(0, 1024), Loop::constant(0, 1024)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(
                            hoploc_affine::ArrayId(0),
                            AffineAccess::new(IMat::from_rows(&[&[1, 0]]), IVec::zeros(1)),
                        ),
                        ArrayRef::indexed_read(
                            hoploc_affine::ArrayId(0),
                            hoploc_affine::TableId(0),
                            AffineExpr::var(2, 0),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        let d = check_races(&p, &small);
        assert_eq!(codes(&d), vec!["HL0206"], "{d:?}");
        assert!(d[0].message.contains("subsampled"), "{}", d[0].message);
    }

    #[test]
    fn sequential_nests_are_quiet() {
        // Carried dependence on the *sequential* loop, parallel loop clean:
        // the Figure 9 pattern.
        let m = IMat::from_rows(&[&[0, 1], &[1, 0]]);
        let p = one_nest(
            vec![ArrayDecl::new("Z", vec![64, 64], 8)],
            vec![],
            LoopNest::new(
                vec![Loop::constant(1, 63), Loop::constant(1, 63)],
                0,
                vec![Statement::new(
                    vec![
                        ArrayRef::write(
                            hoploc_affine::ArrayId(0),
                            AffineAccess::new(m.clone(), IVec::zeros(2)),
                        ),
                        ArrayRef::read(
                            hoploc_affine::ArrayId(0),
                            AffineAccess::new(m, IVec::new(vec![-1, 0])),
                        ),
                    ],
                    1,
                )],
                1,
            ),
        );
        assert!(check_races(&p, &cfg4()).is_empty());
    }
}
