//! The trace oracle: `generate_traces` against the per-access generator it
//! replaced.
//!
//! [`reference_traces`] is that generator, moved here before the run-based
//! one was written: every access evaluates its reference's subscripts
//! from the iteration vector and goes through `AddressSpace::addr_of`,
//! i.e. `ArrayLayout::place` — the definition of the layout — and is
//! appended one `Access` at a time to its thread's whole trace. It
//! restates the whole rule, sampling strides included; the one edit since
//! is which reference carries a statement's compute gap (its first that
//! emits, not its first). Every thread `generate_traces` streams must be
//! the same trace, access for access, whatever shortcuts it takes along
//! an innermost-loop run and wherever its stream stops between chunks.
//! Any change under `crates/workloads/src/gen.rs`,
//! `crates/layout/src/customize.rs` or `crates/affine/src/nest.rs` is
//! checked here first; CI runs the bench-scale matrix in release on every
//! push.

use hoploc_affine::{
    AccessFn, AffineAccess, AffineExpr, ArrayDecl, ArrayId, ArrayRef, IMat, IVec, Loop, LoopNest,
    Program, RefKind, Statement,
};
use hoploc_layout::{
    baseline_layout, optimize_program, Granularity, L2Mode, PassConfig, ProgramLayout,
};
use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh};
use hoploc_sim::{Access, AddressSpace, SimConfig, ThreadTrace};
use hoploc_workloads::{all_apps, generate_traces, layout_for, RunKind, Scale, TraceGen};

/// One static reference of a nest body, as the per-iteration replay
/// needs it.
struct RefPlan<'a> {
    access: &'a AccessFn,
    array: ArrayId,
    write: bool,
    /// Issue gap before the statement's first reference (compute cycles
    /// plus addressing overhead, before jitter); `None` for the
    /// statement's later references, which issue back to back.
    lead_gap: Option<u32>,
    ref_id: u32,
}

/// The reference generator: one `place` per access.
fn reference_traces(
    program: &Program,
    layout: &ProgramLayout,
    space: &AddressSpace,
    gen: &TraceGen,
) -> Vec<ThreadTrace> {
    assert!(gen.fastest_stride >= 1, "stride must be at least 1");
    assert!(
        gen.threads_per_core >= 1,
        "need at least one thread per core"
    );
    let n_cores = layout.binding().len();
    let n_threads = n_cores * gen.threads_per_core;

    let mut traces: Vec<ThreadTrace> = (0..n_threads)
        .map(|t| {
            ThreadTrace::new(
                layout.binding().node_of(t / gen.threads_per_core),
                Vec::new(),
            )
        })
        .collect();

    // One subscript buffer for every reference of every nest.
    let max_rank = program.arrays().iter().map(|a| a.rank()).max();
    let mut dvec = vec![0i64; max_rank.unwrap_or(0)];

    let max_weight = program
        .nests()
        .iter()
        .map(|n| n.weight())
        .max()
        .unwrap_or(1);
    for (nest_idx, nest) in program.nests().iter().enumerate() {
        let light = nest.weight().saturating_mul(8) < max_weight;
        let mut strides = vec![1i64; nest.depth()];
        if let Some(last) = strides.last_mut() {
            *last = gen.fastest_stride;
        }
        // Never subsample the parallel loop: chunk ownership must be exact.
        strides[nest.parallel_dim()] = 1;
        if light {
            // Distribute the light-nest subsampling across the sequential
            // loops, innermost first, so shallow inner loops cannot absorb
            // (and thereby cancel) the factor.
            let trips = nest.trip_count_estimates();
            let mut remaining = gen.light_stride_factor.max(1);
            for k in (0..nest.depth()).rev() {
                if k == nest.parallel_dim() || remaining <= 1 {
                    continue;
                }
                let room = (trips[k] / strides[k]).max(1);
                let take = remaining.min(room);
                strides[k] *= take;
                remaining = (remaining + take - 1) / take;
            }
        }
        let reps = if light { 1 } else { gen.hot_reps.max(1) };
        // Light (setup) nests also run at low issue intensity: on real
        // inputs they are a vanishing fraction of execution, so they must
        // not contribute burst congestion.
        let gap_mult = gen.gap_scale
            * if light {
                gen.light_stride_factor.max(1) as u32
            } else {
                1
            };

        // Everything about a reference that does not depend on the
        // iteration, resolved once per nest instead of once per access.
        let refs: Vec<RefPlan<'_>> = nest
            .body()
            .iter()
            .enumerate()
            .flat_map(|(stmt_idx, stmt)| {
                // An indexed reference over an empty table emits nothing;
                // the statement's gap goes before its first reference
                // that does emit.
                let lead = stmt.refs.iter().position(|r| match &r.access {
                    AccessFn::Affine(_) => true,
                    AccessFn::Indexed { table, .. } => !program.table(*table).is_empty(),
                });
                stmt.refs.iter().enumerate().map(move |(ri, r)| {
                    // The (strength-reduced) division/modulo addressing
                    // overhead is charged once per iteration, not per
                    // reference — matching the paper's ≈4% aggregate.
                    let transformed = !layout.layout(r.array).is_original();
                    RefPlan {
                        access: &r.access,
                        array: r.array,
                        write: r.kind == RefKind::Write,
                        lead_gap: (lead == Some(ri)).then(|| {
                            stmt.compute_cycles * gap_mult
                                + if transformed { gen.overhead_cycles } else { 0 }
                        }),
                        // A stable per-static-reference id: the
                        // stride-prefetcher's training key (its "PC").
                        ref_id: ((nest_idx as u32) << 16)
                            | ((stmt_idx as u32) << 8)
                            | (ri as u32 & 0xff),
                    }
                })
            })
            .collect();

        for (t, trace) in traces.iter_mut().enumerate() {
            let mut jit_state: u64 = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _rep in 0..reps {
                nest.walk_core_iterations(t, n_threads, &strides, |iter| {
                    for r in &refs {
                        let vaddr = match r.access {
                            AccessFn::Affine(a) => {
                                let dvec = &mut dvec[..a.rank()];
                                a.eval_into(iter, dvec);
                                space.addr_of(layout, r.array, dvec)
                            }
                            AccessFn::Indexed { table, pos } => {
                                let tab = program.table(*table);
                                if tab.is_empty() {
                                    continue;
                                }
                                let p = pos.eval(iter).rem_euclid(tab.len() as i64);
                                space.addr_of(layout, r.array, &[tab[p as usize]])
                            }
                        };
                        let gap = match r.lead_gap {
                            Some(lead) => {
                                // xorshift-based deterministic jitter.
                                jit_state ^= jit_state << 13;
                                jit_state ^= jit_state >> 7;
                                jit_state ^= jit_state << 17;
                                let jitter = if gen.desync_jitter == 0 {
                                    0
                                } else {
                                    (jit_state % gen.desync_jitter as u64) as u32
                                };
                                lead + jitter
                            }
                            None => 1,
                        };
                        trace.accesses.push(Access {
                            vaddr,
                            write: r.write,
                            gap,
                            ref_id: r.ref_id,
                        });
                    }
                });
            }
        }
    }

    traces
}

/// Asserts `generate_traces == reference_traces` for one cell, naming the
/// first access that differs rather than dumping both workloads. Returns
/// the number of accesses compared.
fn assert_matches_reference(
    cell: &str,
    program: &Program,
    layout: &ProgramLayout,
    gen: &TraceGen,
) -> u64 {
    let space = AddressSpace::build(program, layout, 0);
    let workload = generate_traces(program, layout, &space, gen);
    assert_eq!(workload.name, program.name(), "{cell}: workload name");
    assert_eq!(workload.num_apps(), 1, "{cell}: one application");
    let got = workload.gather();
    let want = reference_traces(program, layout, &space, gen);
    if got != want {
        assert_eq!(got.len(), want.len(), "{cell}: threads");
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.node, w.node, "{cell}: node of thread {t}");
            if let Some((i, (g, w))) = (g.accesses.iter().zip(&w.accesses))
                .enumerate()
                .find(|(_, (g, w))| g != w)
            {
                panic!("{cell}: thread {t} access {i}: generated {g:?}, reference {w:?}");
            }
            assert_eq!(
                g.accesses.len(),
                w.accesses.len(),
                "{cell}: length of thread {t}"
            );
        }
        unreachable!("{cell}: workloads differ but no field does");
    }
    want.iter().map(|t| t.accesses.len() as u64).sum()
}

/// All 13 apps × {baseline, optimized} × {cache line, page} × {private,
/// shared} × {corners, edge midpoints, diagonal} × 1 / 2 threads per core.
/// The baseline layout reads nothing of the machine but its node count, so
/// its cells collapse to one per thread count.
fn check_matrix(scale: Scale) {
    let mut cells = 0u32;
    let mut accesses = 0u64;
    for app in all_apps(scale) {
        for threads_per_core in [1, 2] {
            let gen = TraceGen {
                threads_per_core,
                ..app.gen
            };
            let sim = SimConfig::scaled();
            let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
            let layout = layout_for(&app, &mapping, &sim, RunKind::Baseline);
            let cell = format!("{} baseline x{threads_per_core}", app.name());
            accesses += assert_matches_reference(&cell, &app.program, &layout, &gen);
            cells += 1;
            for granularity in [Granularity::CacheLine, Granularity::Page] {
                for l2_mode in [L2Mode::Private, L2Mode::Shared] {
                    for placement in [
                        McPlacement::Corners,
                        McPlacement::EdgeMidpoints,
                        McPlacement::Diagonal,
                    ] {
                        let cell = format!(
                            "{} optimized {granularity:?} {l2_mode:?} {placement:?} \
                             x{threads_per_core}",
                            app.name()
                        );
                        let sim = SimConfig {
                            granularity,
                            l2_mode,
                            placement,
                            ..SimConfig::scaled()
                        };
                        let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
                        let layout = layout_for(&app, &mapping, &sim, RunKind::Optimized);
                        accesses += assert_matches_reference(&cell, &app.program, &layout, &gen);
                        cells += 1;
                    }
                }
            }
        }
    }
    println!("{scale:?}: {cells} cells, {accesses} accesses equal to the reference");
}

#[test]
fn generator_matches_the_per_access_reference_at_test_scale() {
    check_matrix(Scale::Test);
}

#[test]
#[ignore = "bench scale: ~10 s in release, minutes in the dev profile; CI runs it in release"]
fn generator_matches_the_per_access_reference_at_bench_scale() {
    check_matrix(Scale::Bench);
}

/// A stencil whose halo reads run off every edge of its arrays, so the
/// subscript clamp of `ArrayLayout::place` engages at the start of a run,
/// at its end, in the middle of a chunk and for whole runs; plus a 1-deep
/// nest over a rank-1 array (the partition coordinate moves along the
/// run) reading past its end, and a transposed reference whose rows leave
/// the array entirely, and a statement led by an indexed reference over an
/// empty table. Whether any of the 13 apps engages a clamp mid-run
/// is not known, so this is the standing guard for the per-access
/// fallback inside `generate_traces`.
fn halo_program() -> Program {
    let mut p = Program::new("halo");
    let x = p.add_array(ArrayDecl::new("X", vec![96, 40], 8));
    let y = p.add_array(ArrayDecl::new("Y", vec![96, 40], 8));
    let v = p.add_array(ArrayDecl::new("V", vec![4096], 8));
    let shifted = |d0: i64, d1: i64| AffineAccess::new(IMat::identity(2), IVec::new(vec![d0, d1]));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, 96), Loop::constant(0, 40)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(x, shifted(0, -3)),
                ArrayRef::read(x, shifted(0, 3)),
                ArrayRef::read(x, shifted(-1, 0)),
                ArrayRef::read(x, shifted(1, 0)),
                // X[j][i]: in range only while i < 40.
                ArrayRef::read(
                    x,
                    AffineAccess::new(IMat::from_rows(&[&[0, 1], &[1, 0]]), IVec::zeros(2)),
                ),
                // Y[i][2j - 5]: a step of two that leaves on both sides.
                ArrayRef::read(
                    y,
                    AffineAccess::new(IMat::from_rows(&[&[1, 0], &[0, 2]]), IVec::new(vec![0, -5])),
                ),
                ArrayRef::write(y, AffineAccess::identity(2)),
            ],
            2,
        )],
        4,
    ));
    let empty = p.add_table(Vec::new());
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, 4096)],
        0,
        vec![
            Statement::new(
                vec![
                    ArrayRef::read(v, AffineAccess::new(IMat::identity(1), IVec::new(vec![70]))),
                    ArrayRef::read(
                        v,
                        AffineAccess::new(IMat::from_rows(&[&[-1]]), IVec::new(vec![4000])),
                    ),
                    ArrayRef::write(v, AffineAccess::identity(1)),
                ],
                1,
            ),
            // A leading reference that emits nothing: the statement's gap
            // moves to the read behind it.
            Statement::new(
                vec![
                    ArrayRef::indexed_read(v, empty, AffineExpr::var(1, 0)),
                    ArrayRef::read(v, AffineAccess::identity(1)),
                ],
                3,
            ),
        ],
        4,
    ));
    p
}

#[test]
fn clamped_halo_references_match_the_reference() {
    let p = halo_program();
    let mesh = Mesh::new(8, 8);
    let mut layouts = vec![("baseline".to_string(), baseline_layout(&p, 64))];
    for granularity in [Granularity::CacheLine, Granularity::Page] {
        for l2_mode in [L2Mode::Private, L2Mode::Shared] {
            for placement in [McPlacement::Corners, McPlacement::Eight] {
                let mapping = L2ToMcMapping::nearest_cluster(mesh, &placement);
                let cfg = PassConfig {
                    granularity,
                    l2_mode,
                    ..PassConfig::default()
                };
                let layout = optimize_program(&p, &mapping, cfg);
                assert!(
                    (0..3).all(|a| !layout.layout(ArrayId(a)).is_original()),
                    "the pass must localize every halo array"
                );
                layouts.push((format!("{granularity:?} {l2_mode:?} {placement:?}"), layout));
            }
        }
    }
    for (name, layout) in &layouts {
        for gen in [
            TraceGen::default(),
            TraceGen {
                threads_per_core: 2,
                ..TraceGen::tuned(3)
            },
        ] {
            let cell = format!("halo {name} {gen:?}");
            assert_matches_reference(&cell, &p, layout, &gen);
        }
    }
}
