//! The per-access paths of the cycle tier do not allocate: heap
//! allocations during `Simulator::run` and `generate_traces` are set by
//! the machine and the footprint (pages, threads, requests in flight),
//! not by how many accesses are replayed — and a trace costs 8 bytes per
//! access in one buffer per thread.
//!
//! Counted with a global allocator (`counting_alloc`), so this binary
//! holds exactly one test.

use hoploc::affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement};
use hoploc::layout::{optimize_program, Granularity, PassConfig};
use hoploc::noc::L2ToMcMapping;
use hoploc::sim::{AddressSpace, PagePolicy, SimConfig, Simulator, ThreadTrace, TraceWorkload};
use hoploc::workloads::{
    applu, generate_traces, layout_for, swim, wupwise, RunKind, Scale, TraceGen,
};

mod counting_alloc;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocated, r) = counting_alloc::allocated_during(f);
    (allocated.calls, r)
}

/// `X[outer][inner]` read and written once per iteration of an
/// `(outer, inner)` nest parallel in `outer`.
fn sweep_program(outer: i64, inner: i64) -> Program {
    let mut p = Program::new("sweep");
    let x = p.add_array(ArrayDecl::new("X", vec![outer, inner], 8));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, outer), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(x, AffineAccess::identity(2)),
                ArrayRef::write(x, AffineAccess::identity(2)),
            ],
            1,
        )],
        1,
    ));
    p
}

#[test]
fn allocations_do_not_grow_with_trace_length() {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);

    for app in [swim(Scale::Test), applu(Scale::Test)] {
        let name = app.name().to_string();
        let layout = layout_for(&app, &mapping, &sim, RunKind::Optimized);
        let space = AddressSpace::build(&app.program, &layout, 0);

        // Trace generation: a four times finer sampling stride replays
        // four times the accesses through the same nests, threads and
        // repetitions. Only the trace buffers may grow for it — a couple
        // of doublings per thread.
        let gen = |stride| TraceGen {
            fastest_stride: stride,
            ..app.gen
        };
        let (coarse_allocs, coarse) =
            allocations_during(|| generate_traces(&app.program, &layout, &space, &gen(4)));
        let (fine_allocs, fine) =
            allocations_during(|| generate_traces(&app.program, &layout, &space, &gen(1)));
        let threads = fine.threads.len() as u64;
        assert!(
            fine.total_accesses() > 3 * coarse.total_accesses(),
            "{name}: the finer stride must replay far more accesses"
        );
        assert!(
            fine_allocs <= coarse_allocs + 4 * threads,
            "{name}: generate_traces allocated {fine_allocs} times for {} accesses but \
             {coarse_allocs} for {}",
            fine.total_accesses(),
            coarse.total_accesses()
        );
        assert!(
            fine_allocs < fine.total_accesses() / 50,
            "{name}: {fine_allocs} allocations for {} accesses",
            fine.total_accesses()
        );

        // Simulation: the same trace replayed four times over touches the
        // same pages and lines from the same threads. The run's books
        // (page table, directory, in-flight requests, event nodes) are
        // sized by those, so four times the accesses may not cost more
        // than a few extra table growths.
        let once = fine;
        let repeated = TraceWorkload::single(
            name.clone(),
            once.threads
                .iter()
                .map(|t| ThreadTrace::new(t.node, t.iter().collect::<Vec<_>>().repeat(4)))
                .collect(),
        );
        let run = |w: &TraceWorkload| {
            let machine = Simulator::new(sim.clone(), mapping.clone(), PagePolicy::Interleaved);
            allocations_during(|| machine.run(w))
        };
        let (once_allocs, once_stats) = run(&once);
        let (repeated_allocs, repeated_stats) = run(&repeated);
        assert_eq!(repeated_stats.total_accesses, 4 * once_stats.total_accesses);
        assert!(
            repeated_allocs <= once_allocs + once_allocs / 4 + 64,
            "{name}: Simulator::run allocated {repeated_allocs} times for {} accesses but \
             {once_allocs} for {}",
            repeated_stats.total_accesses,
            once_stats.total_accesses
        );
        assert!(
            repeated_allocs < repeated_stats.total_accesses / 50,
            "{name}: {repeated_allocs} allocations for {} accesses",
            repeated_stats.total_accesses
        );
    }

    // A trace is one 8-byte word per access in a buffer reserved once per
    // thread, at its final length: at bench scale, where most threads'
    // buffers are far above `LARGE_BYTES`, generation makes exactly one
    // large call for each of those and asks for no more than the words
    // plus a fixed
    // allowance for everything else it holds (per-thread kind tables and
    // their index, per-nest reference plans, cursors and strides).
    const ALLOWANCE_BYTES: u64 = 256 << 10;
    for app in [swim(Scale::Bench), wupwise(Scale::Bench)] {
        let layout = layout_for(&app, &mapping, &sim, RunKind::Optimized);
        let space = AddressSpace::build(&app.program, &layout, 0);
        let (allocated, w) = counting_alloc::allocated_during(|| {
            generate_traces(&app.program, &layout, &space, &app.gen)
        });
        let name = app.name();
        let large_threads = w
            .threads
            .iter()
            .filter(|t| 8 * t.len() >= counting_alloc::LARGE_BYTES)
            .count();
        assert!(
            2 * large_threads >= w.threads.len(),
            "{name}: only {large_threads} threads have a buffer that counts as large"
        );
        assert_eq!(
            allocated.large_calls, large_threads as u64,
            "{name}: one buffer reservation per thread"
        );
        assert!(
            allocated.bytes <= 8 * w.total_accesses() + ALLOWANCE_BYTES,
            "{name}: generate_traces asked for {} bytes for {} accesses",
            allocated.bytes,
            w.total_accesses()
        );
    }

    // Trace generation works one innermost-loop run at a time, its per-run
    // state in buffers sized once per nest: the same accesses per thread
    // cut into runs of 8 (the shape of hpccg's SpMV) cost no more
    // allocations than in runs of 512.
    let generate = |outer, inner| {
        let p = sweep_program(outer, inner);
        let layout = optimize_program(&p, &mapping, PassConfig::default());
        assert!(
            !layout.layout(hoploc::affine::ArrayId(0)).is_original(),
            "the run cursors under test are the localized layout's"
        );
        let space = AddressSpace::build(&p, &layout, 0);
        allocations_during(|| generate_traces(&p, &layout, &space, &TraceGen::default()))
    };
    let (short_allocs, short) = generate(64 * 64, 8);
    let (long_allocs, long) = generate(64, 64 * 8);
    assert_eq!(short.total_accesses(), long.total_accesses());
    assert!(
        short_allocs <= long_allocs,
        "generate_traces allocated {short_allocs} times over runs of 8 but {long_allocs} times \
         over runs of 512"
    );
}
