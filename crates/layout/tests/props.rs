//! Property-based tests of the layout pass's core guarantees: placement
//! bijectivity, controller correctness, and bounds.

use hoploc_affine::{
    AffineAccess, ArrayDecl, ArrayRef, IMat, IVec, Loop, LoopNest, Program, Statement,
};
use hoploc_layout::{
    optimize_program, transform_dvec, Granularity, L2Mode, PassConfig, SharedPolicy,
};
use hoploc_noc::{L2ToMcMapping, McId, McPlacement, Mesh};
use hoploc_ptest::run_cases;
use std::collections::HashSet;

fn build_program(d0: i64, d1: i64) -> Program {
    let mut p = Program::new("prop");
    let x = p.add_array(ArrayDecl::new("X", vec![d0, d1], 8));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, d0), Loop::constant(0, d1)],
        0,
        vec![Statement::new(
            vec![ArrayRef::read(x, AffineAccess::identity(2))],
            1,
        )],
        1,
    ));
    p
}

fn mappings() -> Vec<L2ToMcMapping> {
    let mesh = Mesh::new(8, 8);
    vec![
        L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners),
        L2ToMcMapping::halves(mesh, &McPlacement::Corners),
        L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Eight),
    ]
}

#[test]
fn private_placement_is_a_bounded_bijection() {
    run_cases("private_placement_is_a_bounded_bijection", 24, |rng| {
        let d0 = rng.i64_in(64..320);
        let d1 = rng.i64_in(8..64);
        let p = build_program(d0, d1);
        let mapping = &mappings()[rng.usize_in(0..3)];
        let out = optimize_program(&p, mapping, PassConfig::default());
        let l = out.layout(hoploc_affine::ArrayId(0));
        let mut seen = HashSet::new();
        for a0 in 0..d0 {
            for a1 in 0..d1 {
                let off = l.place(&[a0, a1]);
                assert!(
                    off >= 0 && off < l.span_elements(),
                    "offset {off} outside span {}",
                    l.span_elements()
                );
                assert!(seen.insert(off), "collision at ({a0},{a1})");
            }
        }
    });
}

#[test]
fn private_units_go_to_owner_cluster() {
    run_cases("private_units_go_to_owner_cluster", 24, |rng| {
        let d0 = rng.i64_in(64..256);
        let d1 = rng.i64_in(8..48);
        let p = build_program(d0, d1);
        let mapping = &mappings()[rng.usize_in(0..3)];
        let out = optimize_program(&p, mapping, PassConfig::default());
        let l = out.layout(hoploc_affine::ArrayId(0));
        let pe = l.unit_elems();
        assert!(pe > 0);
        for a0 in (0..d0).step_by(11) {
            for a1 in (0..d1).step_by(5) {
                let owner = l.owner_thread(&[a0, a1]).expect("localized");
                let node = out.binding().node_of(owner);
                let unit = l.place(&[a0, a1]) / pe;
                let mc = McId((unit % mapping.num_mcs() as i64) as u16);
                assert!(mapping.mcs_of_node(node).contains(&mc));
            }
        }
    });
}

#[test]
fn shared_placement_is_a_bounded_bijection() {
    run_cases("shared_placement_is_a_bounded_bijection", 24, |rng| {
        let d0 = rng.i64_in(64..256);
        let d1 = rng.i64_in(8..48);
        let p = build_program(d0, d1);
        let mapping = &mappings()[0];
        let cfg = PassConfig {
            l2_mode: L2Mode::Shared,
            shared_policy: if rng.flip() {
                SharedPolicy::OffChipFirst
            } else {
                SharedPolicy::OnChipFirst
            },
            ..PassConfig::default()
        };
        let out = optimize_program(&p, mapping, cfg);
        let l = out.layout(hoploc_affine::ArrayId(0));
        let mut seen = HashSet::new();
        for a0 in 0..d0 {
            for a1 in 0..d1 {
                let off = l.place(&[a0, a1]);
                assert!(off >= 0 && off < l.span_elements());
                assert!(seen.insert(off));
            }
        }
    });
}

#[test]
fn page_units_have_valid_desired_mcs() {
    run_cases("page_units_have_valid_desired_mcs", 24, |rng| {
        let d0 = rng.i64_in(64..256);
        let d1 = rng.i64_in(8..48);
        let p = build_program(d0, d1);
        let mapping = &mappings()[0];
        let cfg = PassConfig {
            granularity: Granularity::Page,
            ..PassConfig::default()
        };
        let out = optimize_program(&p, mapping, cfg);
        let l = out.layout(hoploc_affine::ArrayId(0));
        let units = l.span_elements() / l.unit_elems();
        for u in 0..units {
            let mc = l
                .desired_unit_mc(u)
                .expect("localized layout has preferences");
            assert!((mc.0 as usize) < mapping.num_mcs());
        }
    });
}

#[test]
fn padding_overhead_is_bounded() {
    run_cases("padding_overhead_is_bounded", 24, |rng| {
        let d0 = rng.i64_in(64..512);
        let d1 = rng.i64_in(8..64);
        let p = build_program(d0, d1);
        let mapping = &mappings()[0];
        let out = optimize_program(&p, mapping, PassConfig::default());
        let l = out.layout(hoploc_affine::ArrayId(0));
        let raw = d0 * d1;
        assert!(l.span_elements() >= raw);
        // Padding should never triple the array.
        assert!(
            l.span_elements() <= raw * 3,
            "span {} too large for raw {raw}",
            l.span_elements()
        );
    });
}

/// A one-array program whose reference makes the pass pick a non-trivial
/// `U`: identity, transposed or skewed subscripts over a 2-D array, a
/// 3-D array with rotated subscripts, or a rank-1 array under a 1-deep
/// nest (where every run moves the partition coordinate).
fn run_program(rng: &mut hoploc_ptest::SmallRng) -> Program {
    let mut p = Program::new("run-prop");
    let (n0, n1, n2) = (rng.i64_in(64..200), rng.i64_in(8..48), rng.i64_in(2..9));
    let (dims, loops, access) = match rng.usize_in(0..5) {
        0 => (vec![n0, n1], vec![n0, n1], AffineAccess::identity(2)),
        1 => (
            vec![n1, n0],
            vec![n0, n1],
            AffineAccess::new(IMat::from_rows(&[&[0, 1], &[1, 0]]), IVec::zeros(2)),
        ),
        2 => (
            vec![n0 + n1, n1],
            vec![n0, n1],
            AffineAccess::new(IMat::from_rows(&[&[1, 1], &[0, 1]]), IVec::zeros(2)),
        ),
        3 => (
            vec![n2, n0, n1],
            vec![n0, n1, n2],
            AffineAccess::new(
                IMat::from_rows(&[&[0, 0, 1], &[1, 0, 0], &[0, 1, 0]]),
                IVec::zeros(3),
            ),
        ),
        _ => (vec![n0 * n1], vec![n0 * n1], AffineAccess::identity(1)),
    };
    let x = p.add_array(ArrayDecl::new("X", dims, 8));
    p.add_nest(LoopNest::new(
        loops.iter().map(|&n| Loop::constant(0, n)).collect(),
        0,
        vec![Statement::new(vec![ArrayRef::read(x, access)], 1)],
        1,
    ));
    p
}

#[test]
fn runs_step_exactly_where_place_points() {
    let mut some = 0u32;
    let mut none = 0u32;
    let mut moved_partition = 0u32;
    run_cases("runs_step_exactly_where_place_points", 96, |rng| {
        let p = run_program(rng);
        let mapping = &mappings()[rng.usize_in(0..3)];
        let cfg = PassConfig {
            granularity: if rng.flip() {
                Granularity::CacheLine
            } else {
                Granularity::Page
            },
            l2_mode: if rng.flip() {
                L2Mode::Private
            } else {
                L2Mode::Shared
            },
            ..PassConfig::default()
        };
        let out = optimize_program(&p, mapping, cfg);
        let localized = out.layout(hoploc_affine::ArrayId(0));
        assert!(!localized.is_original(), "the pass must localize X");
        let original = hoploc_layout::ArrayLayout::original(p.array(hoploc_affine::ArrayId(0)));

        for l in [localized, &original] {
            let rank = l.dims().len();
            for _ in 0..64 {
                // Start anywhere in the array or just outside it; step by
                // nothing, by a neighbour, or by more than an interleave
                // unit, in either direction, along any mix of dimensions.
                let d0: Vec<i64> = l.dims().iter().map(|&d| rng.i64_in(-2..d + 2)).collect();
                let delta: Vec<i64> = (0..rank)
                    .map(|_| match rng.usize_in(0..4) {
                        0 | 1 => 0,
                        2 => rng.i64_in(-2..3),
                        _ => rng.i64_in(-40..41),
                    })
                    .collect();
                let n = rng.i64_in(-1..80);

                let point = |k: i64| -> Vec<i64> {
                    d0.iter().zip(&delta).map(|(&s, &ds)| s + k * ds).collect()
                };
                let inside = |d: &[i64]| {
                    let in_array = d.iter().zip(l.dims()).all(|(&s, &e)| (0..e).contains(&s));
                    let in_box = transform_dvec(l.u(), l.mins(), d)
                        .iter()
                        .zip(l.extents())
                        .all(|(t, &e)| (0..e).contains(t));
                    in_array && in_box
                };
                let provable = n >= 1 && (0..n).all(|k| inside(&point(k)));

                match l.run(&d0, &delta, n) {
                    None => {
                        assert!(
                            !provable,
                            "run({d0:?}, {delta:?}, {n}) gave up on an in-bounds run"
                        );
                        none += 1;
                    }
                    Some(mut run) => {
                        assert!(
                            provable,
                            "run({d0:?}, {delta:?}, {n}) accepted a run that leaves the array"
                        );
                        for k in 0..n {
                            assert_eq!(
                                run.next_offset(),
                                l.place(&point(k)),
                                "run({d0:?}, {delta:?}, {n}) at k = {k}"
                            );
                        }
                        some += 1;
                        let dt0 = l.u().mul_vec(&IVec::from(&delta[..]))[0];
                        moved_partition += (!l.is_original() && dt0 != 0 && n > 1) as u32;
                    }
                }
            }
        }
    });
    // The generator must exercise both answers and the moving partition
    // coordinate, or the property above is vacuous.
    assert!(some > 1000, "only {some} runs were accepted");
    assert!(none > 1000, "only {none} runs were refused");
    assert!(
        moved_partition > 200,
        "only {moved_partition} runs moved the partition coordinate"
    );
}

#[test]
fn runs_refuse_what_i64_cannot_hold() {
    let p = build_program(128, 32);
    let out = optimize_program(&p, &mappings()[0], PassConfig::default());
    let l = out.layout(hoploc_affine::ArrayId(0));
    assert!(l.run(&[0, 0], &[i64::MAX, 0], 2).is_none());
    assert!(l.run(&[0, 0], &[0, 1], i64::MAX).is_none());
    assert!(l.run(&[i64::MIN, 0], &[0, 0], 1).is_none());
    // A one-point run never applies its step, however wild.
    let mut one = l.run(&[5, 7], &[0, 0], 1).expect("in bounds");
    assert_eq!(one.next_offset(), l.place(&[5, 7]));
}
