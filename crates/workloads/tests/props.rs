//! Property-based tests of trace generation: coverage, determinism, and
//! layout independence of the dynamic work.

use hoploc_affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement};
use hoploc_layout::{baseline_layout, optimize_program, PassConfig};
use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh};
use hoploc_ptest::run_cases;
use hoploc_sim::{AddressSpace, TraceWorkload};
use hoploc_workloads::{all_apps, generate_traces, Scale, TraceGen};

fn program(d0: i64, d1: i64) -> Program {
    let mut p = Program::new("prop");
    let x = p.add_array(ArrayDecl::new("X", vec![d0, d1], 8));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, d0), Loop::constant(0, d1)],
        0,
        vec![Statement::new(
            vec![ArrayRef::write(x, AffineAccess::identity(2))],
            2,
        )],
        1,
    ));
    p
}

/// Accesses across every thread of `w`.
fn total(w: &TraceWorkload) -> u64 {
    w.gather().iter().map(|t| t.accesses.len() as u64).sum()
}

#[test]
fn work_is_layout_independent() {
    run_cases("work_is_layout_independent", 16, |rng| {
        // The same program generates the same number of accesses whether
        // layouts are original or transformed — data transformations are
        // renamings (§1).
        let d0 = rng.i64_in(64..256);
        let d1 = rng.i64_in(8..48);
        let p = program(d0, d1);
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
        let gen = TraceGen::default();

        let base = baseline_layout(&p, 64);
        let bspace = AddressSpace::build(&p, &base, 0);
        let bw = generate_traces(&p, &base, &bspace, &gen);

        let opt = optimize_program(&p, &mapping, PassConfig::default());
        let ospace = AddressSpace::build(&p, &opt, 0);
        let ow = generate_traces(&p, &opt, &ospace, &gen);

        assert_eq!(total(&bw), total(&ow));
        assert_eq!(total(&bw), (d0 * d1) as u64);
    });
}

#[test]
fn traces_are_deterministic() {
    run_cases("traces_are_deterministic", 16, |rng| {
        let d0 = rng.i64_in(64..128);
        let d1 = rng.i64_in(8..32);
        let p = program(d0, d1);
        let layout = baseline_layout(&p, 64);
        let space = AddressSpace::build(&p, &layout, 0);
        let a = generate_traces(&p, &layout, &space, &TraceGen::tuned(2));
        let b = generate_traces(&p, &layout, &space, &TraceGen::tuned(2));
        // Every opening of a stream replays the thread from its first access.
        assert_eq!(a.gather(), b.gather());
        assert_eq!(a.gather(), a.gather());
    });
}

#[test]
fn addresses_stay_inside_the_address_space() {
    run_cases("addresses_stay_inside_the_address_space", 16, |rng| {
        let d0 = rng.i64_in(64..192);
        let d1 = rng.i64_in(8..32);
        let p = program(d0, d1);
        let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
        let layout = optimize_program(&p, &mapping, PassConfig::default());
        let space = AddressSpace::build(&p, &layout, 4096);
        let w = generate_traces(&p, &layout, &space, &TraceGen::default());
        for t in w.gather() {
            for a in t.accesses {
                assert!(a.vaddr >= 4096);
                assert!(a.vaddr < 4096 + space.total_bytes());
            }
        }
    });
}

#[test]
fn every_app_generates_consistent_traces_under_both_layouts() {
    let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
    for app in all_apps(Scale::Test) {
        let base = baseline_layout(&app.program, 64);
        let bspace = AddressSpace::build(&app.program, &base, 0);
        let bw = generate_traces(&app.program, &base, &bspace, &app.gen);

        let opt = optimize_program(&app.program, &mapping, PassConfig::default());
        let ospace = AddressSpace::build(&app.program, &opt, 0);
        let ow = generate_traces(&app.program, &opt, &ospace, &app.gen);

        assert_eq!(
            total(&bw),
            total(&ow),
            "{}: optimized layout changed the dynamic work",
            app.name()
        );
        assert!(total(&bw) > 0, "{}: empty trace", app.name());
    }
}
