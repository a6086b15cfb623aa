//! The per-access paths of the cycle tier do not allocate: heap
//! allocations during `Simulator::run` and the trace streams it pulls are
//! set by the machine and the footprint (pages, threads, requests in
//! flight), not by how many accesses are replayed — and a streamed trace
//! costs one chunk per thread, never the whole trace.
//!
//! Counted with a global allocator (`counting_alloc`), so this binary
//! holds exactly one test.

use hoploc::affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement};
use hoploc::layout::{optimize_program, Granularity, PassConfig};
use hoploc::noc::L2ToMcMapping;
use hoploc::sim::{
    Access, AddressSpace, PagePolicy, SimConfig, Simulator, ThreadTrace, TraceWorkload, CHUNK,
};
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

/// Pulls every thread's stream of `w` dry the way the simulator does — one
/// chunk buffer per thread, refilled in turn — and returns the accesses.
fn drain(w: &TraceWorkload) -> u64 {
    let mut streams = w.streams();
    let mut chunks: Vec<Vec<Access>> = streams.iter().map(|_| Vec::with_capacity(CHUNK)).collect();
    let (mut accesses, mut live) = (0, streams.len());
    while live > 0 {
        live = 0;
        for (stream, chunk) in streams.iter_mut().zip(&mut chunks) {
            chunk.clear();
            stream(chunk);
            accesses += chunk.len() as u64;
            live += usize::from(!chunk.is_empty());
        }
    }
    accesses
}

#[test]
fn allocations_do_not_grow_with_trace_length() {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let machine = || Simulator::new(sim.clone(), mapping.clone(), PagePolicy::Interleaved);

    for app in [swim(Scale::Test), applu(Scale::Test)] {
        let name = app.name().to_string();
        let layout = layout_for(&app, &mapping, &sim, RunKind::Optimized);
        let space = AddressSpace::build(&app.program, &layout, 0);

        // A generated run: a four times finer sampling stride replays
        // four times the accesses through the same nests, threads and
        // repetitions, streamed into the simulator a chunk at a time. Its
        // calls and bytes are set by the threads, pages and lines, not by
        // the accesses (swim and applu read within 2 calls and 1 KiB).
        let generated_run = |stride| {
            let gen = TraceGen {
                fastest_stride: stride,
                ..app.gen
            };
            let machine = machine();
            counting_alloc::allocated_during(|| {
                machine.run(&generate_traces(&app.program, &layout, &space, &gen))
            })
        };
        let (coarse, coarse_stats) = generated_run(4);
        let (fine, fine_stats) = generated_run(1);
        assert!(
            fine_stats.total_accesses > 3 * coarse_stats.total_accesses,
            "{name}: the finer stride must replay far more accesses"
        );
        assert!(
            fine.calls <= coarse.calls + 16,
            "{name}: a generated run allocated {} times for {} accesses but {} for {}",
            fine.calls,
            fine_stats.total_accesses,
            coarse.calls,
            coarse_stats.total_accesses
        );
        assert!(
            fine.bytes <= coarse.bytes + coarse.bytes / 16,
            "{name}: a generated run asked for {} bytes for {} accesses but {} for {}",
            fine.bytes,
            fine_stats.total_accesses,
            coarse.bytes,
            coarse_stats.total_accesses
        );

        // Simulation alone: the same trace replayed four times over
        // touches the same pages and lines from the same threads. The
        // run's books (page table, directory, in-flight requests, event
        // nodes) are sized by those, so four times the accesses may not
        // cost more than a few extra table growths.
        let gen = TraceGen {
            fastest_stride: 1,
            ..app.gen
        };
        let once = generate_traces(&app.program, &layout, &space, &gen).gather();
        let repeated: Vec<ThreadTrace> = (once.iter())
            .map(|t| ThreadTrace::new(t.node, t.accesses.repeat(4)))
            .collect();
        let run = |threads: Vec<ThreadTrace>| {
            let w = TraceWorkload::single(name.clone(), threads);
            let machine = machine();
            allocations_during(|| machine.run(&w))
        };
        let (once_allocs, once_stats) = run(once);
        let (repeated_allocs, repeated_stats) = run(repeated);
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

    // No whole trace exists: at bench scale, generating and streaming every
    // thread dry asks for one chunk per thread plus a fixed allowance for
    // everything else the generator holds (per-nest reference plans and
    // strides, per-thread walks, run cursors and subscript buffers) —
    // far less than the trace itself would take at 8 bytes per access.
    const ALLOWANCE_BYTES: u64 = 256 << 10;
    for app in [swim(Scale::Bench), wupwise(Scale::Bench)] {
        let layout = layout_for(&app, &mapping, &sim, RunKind::Optimized);
        let space = AddressSpace::build(&app.program, &layout, 0);
        let (allocated, (threads, accesses)) = counting_alloc::allocated_during(|| {
            let w = generate_traces(&app.program, &layout, &space, &app.gen);
            (w.nodes().len() as u64, drain(&w))
        });
        let name = app.name();
        let bound = threads * (CHUNK * size_of::<Access>()) as u64 + ALLOWANCE_BYTES;
        assert!(
            allocated.bytes <= bound,
            "{name}: streaming {accesses} accesses over {threads} threads asked for {} bytes",
            allocated.bytes
        );
        assert!(
            8 * accesses > 4 * bound,
            "{name}: {accesses} accesses are too few to tell a stream from a whole trace"
        );
    }

    // Trace generation works one innermost-loop run at a time, its per-run
    // state in buffers sized once per thread: the same accesses per thread
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
        allocations_during(|| drain(&generate_traces(&p, &layout, &space, &TraceGen::default())))
    };
    let (short_allocs, short) = generate(64 * 64, 8);
    let (long_allocs, long) = generate(64, 64 * 8);
    assert_eq!(short, long);
    assert!(
        short_allocs <= long_allocs,
        "generate_traces allocated {short_allocs} times over runs of 8 but {long_allocs} times \
         over runs of 512"
    );
}
