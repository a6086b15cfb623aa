//! The HL03xx bounds and overflow lints: per-reference range analysis of
//! affine subscripts against declared array extents, index-table sanity,
//! and structural checks (rank/depth mismatches, dead declarations).
//!
//! The lints mirror the runtime semantics of the trace generator: affine
//! subscripts are clamped into the array by `ArrayDecl::linearize` /
//! `ArrayLayout::place`, and indexed table positions wrap via
//! `rem_euclid`. A program that trips a lint still *runs*, but its access
//! geometry silently differs from what the source expresses — exactly the
//! class of modelling bug the checker exists to surface.

use crate::diag::{Code, Diagnostic};
use crate::CheckConfig;
use hoploc_affine::{AccessFn, AffineAccess, ArrayDecl, LoopNest, Program};

/// Runs every bounds/overflow lint over a program.
pub fn lint_program(program: &Program, _cfg: &CheckConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let app = program.name();
    let mut array_used = vec![false; program.arrays().len()];
    let mut table_used = vec![false; program.table_count()];

    // Declared footprints that cannot be linearized in i64 poison every
    // offset computed through them; flag the declaration once.
    for decl in program.arrays() {
        let total: i128 = decl.dims().iter().map(|&d| d as i128).product();
        if total.saturating_mul(decl.elem_size() as i128) > i64::MAX as i128 {
            out.push(
                Diagnostic::new(
                    Code::StrideOverflowRisk,
                    app,
                    format!(
                        "array `{}` spans {total} bytes: row-major linearization \
                         overflows i64",
                        decl.name()
                    ),
                )
                .on_array(decl.name()),
            );
        }
    }

    for (ni, nest) in program.nests().iter().enumerate() {
        lint_nest(
            program,
            ni,
            nest,
            &mut array_used,
            &mut table_used,
            &mut out,
        );
    }

    for (i, used) in array_used.iter().enumerate() {
        if !used {
            let name = program.arrays()[i].name();
            out.push(
                Diagnostic::new(
                    Code::DeadArray,
                    app,
                    format!("array `{name}` is declared but never referenced"),
                )
                .on_array(name)
                .with_help("remove the declaration or add the missing references"),
            );
        }
    }
    for (i, used) in table_used.iter().enumerate() {
        if !used {
            out.push(Diagnostic::new(
                Code::UnusedTable,
                app,
                format!("index table #{i} is declared but never referenced"),
            ));
        }
    }
    out
}

fn lint_nest(
    program: &Program,
    ni: usize,
    nest: &LoopNest,
    array_used: &mut [bool],
    table_used: &mut [bool],
    out: &mut Vec<Diagnostic>,
) {
    let app = program.name();

    // A bound referencing its own or a deeper iterator cannot be evaluated
    // at loop entry; flag it and lint the rest with the (garbage-free)
    // enclosing prefix treated as authoritative.
    for (k, l) in nest.loops().iter().enumerate() {
        for (which, expr) in [("lower", &l.lower), ("upper", &l.upper)] {
            if let Some(j) = (k..expr.coeffs().len()).find(|&j| expr.coeffs()[j] != 0) {
                out.push(
                    Diagnostic::new(
                        Code::DepthMismatch,
                        app,
                        format!(
                            "{which} bound of loop i{k} references iterator i{j}, \
                             which is not an enclosing loop"
                        ),
                    )
                    .in_nest(ni),
                );
            }
        }
    }

    let ranges = nest.iteration_ranges();
    let empty = ranges.iter().any(|&(lo, hi)| lo > hi);
    if empty {
        out.push(
            Diagnostic::new(
                Code::EmptyIterationDomain,
                app,
                "the nest's iteration domain is provably empty: its body never runs",
            )
            .in_nest(ni),
        );
    }

    for (si, stmt) in nest.body().iter().enumerate() {
        for (ri, r) in stmt.refs.iter().enumerate() {
            let Some(decl) = program.try_array(r.array) else {
                out.push(
                    Diagnostic::new(
                        Code::RankMismatch,
                        app,
                        format!(
                            "reference names array #{} but the program declares \
                             only {} arrays",
                            r.array.0,
                            program.arrays().len()
                        ),
                    )
                    .at(ni, si, ri),
                );
                continue;
            };
            array_used[r.array.0] = true;
            match &r.access {
                AccessFn::Affine(a) => {
                    lint_affine_ref(app, ni, si, ri, nest, decl, a, &ranges, empty, out)
                }
                AccessFn::Indexed { table, pos } => {
                    if let Some(t) = program.try_table(*table) {
                        if !t.is_empty() {
                            table_used[table.0] = true;
                        }
                    }
                    lint_indexed_ref(
                        program, ni, si, ri, nest, decl, *table, pos, &ranges, empty, out,
                    )
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lint_affine_ref(
    app: &str,
    ni: usize,
    si: usize,
    ri: usize,
    nest: &LoopNest,
    decl: &ArrayDecl,
    a: &AffineAccess,
    ranges: &[(i64, i64)],
    empty_domain: bool,
    out: &mut Vec<Diagnostic>,
) {
    let at = |d: Diagnostic| d.at(ni, si, ri).on_array(decl.name());
    if a.rank() != decl.rank() {
        out.push(at(Diagnostic::new(
            Code::RankMismatch,
            app,
            format!(
                "{} subscripts given for rank-{} array `{}`",
                a.rank(),
                decl.rank(),
                decl.name()
            ),
        )));
        return;
    }
    if a.depth() != nest.depth() {
        out.push(at(Diagnostic::new(
            Code::DepthMismatch,
            app,
            format!(
                "access function expects a {}-deep nest but the nest is {}-deep",
                a.depth(),
                nest.depth()
            ),
        )));
        return;
    }
    if empty_domain {
        return; // No iteration evaluates the subscripts.
    }
    for rk in 0..a.rank() {
        // Interval of subscript rk over the iteration box, exactly in i128.
        let mut lo = a.offset()[rk] as i128;
        let mut hi = lo;
        for (c, &(rl, rh)) in ranges.iter().enumerate().take(a.depth()) {
            let k = a.matrix()[(rk, c)] as i128;
            if k == 0 {
                continue;
            }
            let x = k * rl as i128;
            let y = k * rh as i128;
            lo += x.min(y);
            hi += x.max(y);
        }
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            out.push(at(Diagnostic::new(
                Code::StrideOverflowRisk,
                app,
                format!(
                    "subscript {rk} reaches magnitude {} and overflows i64 \
                     when evaluated at runtime",
                    lo.abs().max(hi.abs())
                ),
            )));
            continue;
        }
        let dim = decl.dims()[rk] as i128;
        if hi < 0 || lo >= dim {
            out.push(
                at(Diagnostic::new(
                    Code::DefiniteOutOfBounds,
                    app,
                    format!(
                        "subscript {rk} ranges over [{lo}, {hi}], entirely outside \
                         the declared extent {dim}"
                    ),
                ))
                .with_help("the reference never touches the array it names"),
            );
        } else if lo < 0 || hi >= dim {
            out.push(
                at(Diagnostic::new(
                    Code::PossibleOutOfBounds,
                    app,
                    format!(
                        "subscript {rk} ranges over [{lo}, {hi}] but the declared \
                         extent is {dim}; the runtime clamps, distorting the \
                         access geometry"
                    ),
                ))
                .with_help("widen the array or tighten the loop bounds / offset"),
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lint_indexed_ref(
    program: &Program,
    ni: usize,
    si: usize,
    ri: usize,
    nest: &LoopNest,
    decl: &ArrayDecl,
    table: hoploc_affine::TableId,
    pos: &hoploc_affine::AffineExpr,
    ranges: &[(i64, i64)],
    empty_domain: bool,
    out: &mut Vec<Diagnostic>,
) {
    let app = program.name();
    let at = |d: Diagnostic| d.at(ni, si, ri).on_array(decl.name());
    if decl.rank() != 1 {
        out.push(at(Diagnostic::new(
            Code::RankMismatch,
            app,
            format!(
                "indexed reference targets rank-{} array `{}`; indexed \
                 references are one-dimensional in this IR",
                decl.rank(),
                decl.name()
            ),
        )));
        return;
    }
    if pos.coeffs().len() > nest.depth() && pos.coeffs()[nest.depth()..].iter().any(|&c| c != 0) {
        out.push(at(Diagnostic::new(
            Code::DepthMismatch,
            app,
            format!(
                "table position references an iterator deeper than the \
                 {}-deep nest",
                nest.depth()
            ),
        )));
        return;
    }
    let Some(tab) = program.try_table(table) else {
        out.push(at(Diagnostic::new(
            Code::NoProfiledTable,
            app,
            format!(
                "reference names table #{} but the program declares only {} tables",
                table.0,
                program.table_count()
            ),
        )));
        return;
    };
    if tab.is_empty() {
        out.push(
            at(Diagnostic::new(
                Code::NoProfiledTable,
                app,
                format!(
                    "profile table #{} is empty: the reference generates no \
                     accesses and the layout pass cannot approximate it",
                    table.0
                ),
            ))
            .with_help("profile the table or drop the reference"),
        );
        return;
    }
    let extent = decl.dims()[0];
    let oob = tab.iter().filter(|&&e| e < 0 || e >= extent).count();
    if oob > 0 {
        let first = tab.iter().find(|&&e| e < 0 || e >= extent).copied();
        out.push(at(Diagnostic::new(
            Code::TableEntryOutOfBounds,
            app,
            format!(
                "{oob} of {} table entries fall outside `{}`'s extent {extent} \
                 (first: {})",
                tab.len(),
                decl.name(),
                first.unwrap_or(0)
            ),
        )));
    }
    if !empty_domain {
        let (pmin, pmax) = pos.range(ranges);
        let len = tab.len() as i64;
        if pmin < 0 || pmax >= len {
            out.push(
                at(Diagnostic::new(
                    Code::TablePositionWraps,
                    app,
                    format!(
                        "table position ranges over [{pmin}, {pmax}] but the \
                         table has {len} entries; positions wrap modulo the \
                         table length at runtime"
                    ),
                ))
                .with_help("size the profile table to the position range"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use hoploc_affine::{
        AffineAccess, AffineExpr, ArrayDecl, ArrayRef, IMat, IVec, Loop, LoopNest, Statement,
    };

    fn cfg() -> CheckConfig {
        CheckConfig::default()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_program_produces_nothing() {
        let mut p = Program::new("clean");
        let x = p.add_array(ArrayDecl::new("X", vec![32, 32], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 32), Loop::constant(0, 32)],
            0,
            vec![Statement::new(
                vec![ArrayRef::write(x, AffineAccess::identity(2))],
                1,
            )],
            1,
        ));
        assert!(lint_program(&p, &cfg()).is_empty());
    }

    #[test]
    fn stencil_offset_past_extent_warns() {
        let mut p = Program::new("oob");
        let x = p.add_array(ArrayDecl::new("X", vec![32], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 32)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(
                    x,
                    AffineAccess::new(IMat::identity(1), IVec::new(vec![1])),
                )],
                1,
            )],
            1,
        ));
        let d = lint_program(&p, &cfg());
        assert_eq!(codes(&d), vec!["HL0301"]);
        assert_eq!(d[0].severity(), Severity::Warning);
        assert_eq!(
            (d[0].nest, d[0].statement, d[0].reference),
            (Some(0), Some(0), Some(0))
        );
    }

    #[test]
    fn fully_oob_subscript_errors() {
        let mut p = Program::new("oob2");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 4)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(
                    x,
                    AffineAccess::new(IMat::identity(1), IVec::new(vec![100])),
                )],
                1,
            )],
            1,
        ));
        assert_eq!(codes(&lint_program(&p, &cfg())), vec!["HL0302"]);
    }

    #[test]
    fn rank_and_depth_mismatches_error() {
        let mut p = Program::new("shape");
        let x = p.add_array(ArrayDecl::new("X", vec![8, 8], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 8)],
            0,
            vec![Statement::new(
                vec![
                    // One subscript for a rank-2 array.
                    ArrayRef::read(x, AffineAccess::identity(1)),
                    // Right rank, but built for a 2-deep nest.
                    ArrayRef::read(x, AffineAccess::identity(2)),
                ],
                1,
            )],
            1,
        ));
        let c = codes(&lint_program(&p, &cfg()));
        assert!(c.contains(&"HL0307"), "{c:?}");
        assert!(c.contains(&"HL0308"), "{c:?}");
    }

    #[test]
    fn dead_array_and_unused_table_flagged() {
        let mut p = Program::new("dead");
        let x = p.add_array(ArrayDecl::new("X", vec![8], 8));
        p.add_array(ArrayDecl::new("unused", vec![8], 8));
        p.add_table(vec![1, 2, 3]);
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 8)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(x, AffineAccess::identity(1))],
                1,
            )],
            1,
        ));
        let c = codes(&lint_program(&p, &cfg()));
        assert!(c.contains(&"HL0306"), "{c:?}");
        assert!(c.contains(&"HL0311"), "{c:?}");
    }

    #[test]
    fn table_lints_fire() {
        let mut p = Program::new("tables");
        let x = p.add_array(ArrayDecl::new("X", vec![16], 8));
        let short = p.add_table(vec![0, 5, 99]); // 99 out of extent 16
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 32)], // position range [0,31] > 3 entries
            0,
            vec![Statement::new(
                vec![ArrayRef::indexed_read(x, short, AffineExpr::var(1, 0))],
                1,
            )],
            1,
        ));
        let c = codes(&lint_program(&p, &cfg()));
        assert!(c.contains(&"HL0304"), "{c:?}");
        assert!(c.contains(&"HL0305"), "{c:?}");
    }

    #[test]
    fn empty_domain_noted_and_bounds_not_linted() {
        let mut p = Program::new("empty");
        let x = p.add_array(ArrayDecl::new("X", vec![4], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(7, 7)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(
                    x,
                    AffineAccess::new(IMat::identity(1), IVec::new(vec![100])),
                )],
                1,
            )],
            1,
        ));
        // The (dead) out-of-bounds subscript must not drown the real finding.
        assert_eq!(codes(&lint_program(&p, &cfg())), vec!["HL0310"]);
    }

    #[test]
    fn huge_footprint_flags_overflow_risk() {
        let mut p = Program::new("huge");
        let x = p.add_array(ArrayDecl::new("X", vec![1 << 31, 1 << 31, 4], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 4)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(
                    x,
                    AffineAccess::new(IMat::from_rows(&[&[0], &[0], &[1]]), IVec::zeros(3)),
                )],
                1,
            )],
            1,
        ));
        let c = codes(&lint_program(&p, &cfg()));
        assert!(c.contains(&"HL0309"), "{c:?}");
    }
}
