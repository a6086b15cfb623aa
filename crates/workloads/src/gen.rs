//! Trace generation: replaying an affine program's iterations into
//! per-thread memory-access streams under a chosen layout.
//!
//! Each nest's parallel dimension is block-distributed over the threads
//! (OpenMP static scheduling, §3); each thread walks its chunk in
//! lexicographic order, evaluating every reference through the program
//! layout's address function. Sampling strides keep the streams tractable
//! while preserving the access-pattern geometry the optimization targets.
//!
//! The unit of work is the innermost-loop *run*: along one, every affine
//! subscript moves by a constant, so a reference evaluates its subscripts
//! and its layout once ([`ArrayLayout::run`]) and then takes an add per
//! access — the strength reduction §5.3 applies to the division/modulo
//! subscripts the pass emits. `ArrayLayout::place` remains the definition:
//! references whose run cannot be proven clamp-free, and indexed
//! references, go through it access by access inside the same loop, and
//! `tests/trace_oracle.rs` holds the whole function to a generator that
//! does nothing else.
//!
//! Nothing is generated ahead of the run. Each thread is a stream the
//! simulator pulls a chunk at a time; between two chunks the thread's
//! replay stops between two points of a run, keeping its place in the
//! walk ([`CoreRuns`]), its references' run cursors and its jitter state.

use hoploc_affine::{AccessFn, ArrayId, CoreRuns, LoopNest, Program, RefKind};
use hoploc_layout::{ArrayLayout, ProgramLayout, Run};
use hoploc_noc::NodeId;
use hoploc_sim::{Access, AddressSpace, Stream, TraceSource, TraceWorkload, CHUNK};

/// The most threads per core a request from outside the program (a CLI
/// flag, a served job) may ask for: comfortably above Figure 24's 1, 2 and
/// 4. A run holds one chunk of accesses and one replay state per thread,
/// whatever the trace's length, so the cap bounds what `64 × threads`
/// threads of those can take.
pub const MAX_THREADS_PER_CORE: usize = 16;

/// Trace-generation parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceGen {
    /// Sampling stride applied to the fastest-varying loop of each nest
    /// (1 = exact replay).
    pub fastest_stride: i64,
    /// Extra compute cycles charged per access when the array's layout was
    /// transformed — the division/modulo addressing overhead of §5.3 (the
    /// paper measured ≈4% of execution time).
    pub overhead_cycles: u32,
    /// Threads per core (Figure 24 uses 1, 2, 4).
    pub threads_per_core: usize,
    /// How many times heavy nests are replayed. Real applications iterate
    /// their hot nests over many timesteps; replaying captures the warm
    /// reuse that makes initialization cost negligible.
    pub hot_reps: usize,
    /// Multiplier on statement compute cycles: calibrates overall memory
    /// intensity (real cores retire many instructions between misses).
    pub gap_scale: u32,
    /// Span of deterministic per-thread timing jitter added to iteration
    /// gaps. Without it every thread misses in lockstep — synchronized
    /// response bursts that no real multithreaded execution produces.
    pub desync_jitter: u32,
    /// Additional fastest-dimension subsampling applied to *light* nests
    /// (weight below 1/8 of the heaviest), so one-shot initialization does
    /// not dominate the trace the way it never dominates real executions.
    /// Strides up to half a page still touch every page, preserving
    /// first-touch allocation semantics.
    pub light_stride_factor: i64,
}

impl Default for TraceGen {
    fn default() -> Self {
        Self {
            fastest_stride: 1,
            overhead_cycles: 1,
            threads_per_core: 1,
            hot_reps: 1,
            gap_scale: 1,
            desync_jitter: 8,
            light_stride_factor: 1,
        }
    }
}

impl TraceGen {
    /// The tuning the 13 applications use: weight-aware replay (hot nests
    /// twice for warm reuse; light nests — below 1/8 of the heaviest's
    /// weight — subsampled 32×) at the given fastest-dimension stride.
    pub fn tuned(fastest_stride: i64) -> Self {
        Self {
            fastest_stride,
            hot_reps: 2,
            gap_scale: 8,
            light_stride_factor: 32,
            ..Self::default()
        }
    }

    /// Like [`TraceGen::tuned`] but without compute-gap scaling: the
    /// memory-bound applications (fma3d, minighost) whose bank pressure
    /// Figure 18 highlights.
    pub fn tuned_intense(fastest_stride: i64) -> Self {
        // Little gap scaling and no desynchronization: these applications
        // keep many correlated misses in flight (the paper's "much higher
        // memory parallelism demand").
        Self {
            gap_scale: 2,
            desync_jitter: 0,
            ..Self::tuned(fastest_stride)
        }
    }

    /// How each nest of `program` is sampled, in nest order: the one
    /// statement of the rule the generator and the estimator's footprint
    /// model both replay.
    pub fn sampling(&self, program: &Program) -> Vec<NestSampling> {
        let nests = program.nests();
        let max_weight = nests.iter().map(|n| n.weight()).max().unwrap_or(1);
        nests
            .iter()
            .map(|nest| {
                let light = nest.weight().saturating_mul(8) < max_weight;
                NestSampling {
                    light,
                    strides: self.strides(nest, light),
                    reps: if light { 1 } else { self.hot_reps.max(1) },
                }
            })
            .collect()
    }

    fn strides(&self, nest: &LoopNest, light: bool) -> Vec<i64> {
        let mut strides = vec![1i64; nest.depth()];
        if let Some(last) = strides.last_mut() {
            *last = self.fastest_stride;
        }
        // Never subsample the parallel loop: chunk ownership must be exact.
        strides[nest.parallel_dim()] = 1;
        if light {
            // Distribute the light-nest subsampling across the sequential
            // loops, innermost first, so shallow inner loops cannot absorb
            // (and thereby cancel) the factor.
            let trips = nest.trip_count_estimates();
            let mut remaining = self.light_stride_factor.max(1);
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
        strides
    }
}

/// How trace generation samples one nest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NestSampling {
    /// Whether the nest's weight is below 1/8 of the program's heaviest:
    /// one-shot set-up, subsampled by [`TraceGen::light_stride_factor`] and
    /// issued at low intensity.
    pub light: bool,
    /// The stride each loop of the nest is walked with.
    pub strides: Vec<i64>,
    /// How many times the nest is replayed.
    pub reps: usize,
}

/// One static reference of a nest body that emits accesses, as the replay
/// needs it.
struct RefPlan<'a> {
    access: &'a AccessFn,
    array: ArrayId,
    layout: &'a ArrayLayout,
    /// How far an affine reference's subscripts move per point of an
    /// innermost-loop run: the access matrix's last column times the
    /// loop's stride. Empty for indexed references.
    delta: Vec<i64>,
    write: bool,
    /// Issue gap before the statement's first emitting reference (compute
    /// cycles plus addressing overhead, before jitter); `None` for the
    /// statement's later references, which issue back to back.
    lead_gap: Option<u32>,
    ref_id: u32,
}

/// The references of `nest` that emit, in body order, with everything about
/// each that does not depend on the iteration resolved once per nest
/// instead of once per access.
fn ref_plans<'a>(
    program: &'a Program,
    layout: &'a ProgramLayout,
    gen: &TraceGen,
    nest_idx: usize,
    nest: &'a LoopNest,
    sampling: &NestSampling,
) -> Vec<RefPlan<'a>> {
    // A reference id packs (nest, statement, reference) into 16 + 8 + 8
    // bits; what does not fit would alias another reference's id.
    assert!(
        nest_idx < 1 << 16
            && nest.body().len() <= 1 << 8
            && nest.body().iter().all(|stmt| stmt.refs.len() <= 1 << 8),
        "{}: nest {nest_idx} is beyond what a reference id encodes \
         (65536 nests, 256 statements per nest, 256 references per statement)",
        program.name()
    );
    // Light (setup) nests also run at low issue intensity: on real
    // inputs they are a vanishing fraction of execution, so they must
    // not contribute burst congestion.
    let gap_mult = gen.gap_scale
        * if sampling.light {
            gen.light_stride_factor.max(1) as u32
        } else {
            1
        };
    let last = nest.depth() - 1;
    let step = sampling.strides[last];
    let overhead = gen.overhead_cycles;

    let plans = nest.body().iter().enumerate().flat_map(|(stmt_idx, stmt)| {
        // An indexed reference over an empty table reads nothing. The
        // statement's compute gap goes before the first reference left.
        let emitting = stmt
            .refs
            .iter()
            .enumerate()
            .filter(|(_, r)| match &r.access {
                AccessFn::Affine(_) => true,
                AccessFn::Indexed { table, .. } => !program.table(*table).is_empty(),
            });
        emitting.enumerate().map(move |(k, (ri, r))| {
            // The (strength-reduced) division/modulo addressing
            // overhead is charged once per iteration, not per
            // reference — matching the paper's ≈4% aggregate.
            let transformed = !layout.layout(r.array).is_original();
            RefPlan {
                access: &r.access,
                array: r.array,
                layout: layout.layout(r.array),
                delta: match &r.access {
                    AccessFn::Affine(a) => (0..a.rank())
                        .map(|row| a.matrix()[(row, last)] * step)
                        .collect(),
                    AccessFn::Indexed { .. } => Vec::new(),
                },
                write: r.kind == RefKind::Write,
                lead_gap: (k == 0).then(|| {
                    stmt.compute_cycles * gap_mult + if transformed { overhead } else { 0 }
                }),
                // A stable per-static-reference id: the
                // stride-prefetcher's training key (its "PC").
                ref_id: ((nest_idx as u32) << 16) | ((stmt_idx as u32) << 8) | ri as u32,
            }
        })
    });
    plans.collect()
}

/// Generates the workload traces for `program` under `layout`: one stream
/// per thread, replayed as the simulator pulls it. Nothing is generated
/// here; the reference plans and the sampling rule are resolved once, and
/// each run of the workload replays every thread from its first access.
///
/// The thread count is `layout.binding().len() × gen.threads_per_core`;
/// thread `t` runs on `binding.node_of(t / threads_per_core)`, so the
/// iteration chunks owned by one core stay contiguous and consistent with
/// the layout's ownership model.
pub fn generate_traces<'a>(
    program: &'a Program,
    layout: &'a ProgramLayout,
    space: &'a AddressSpace,
    gen: &TraceGen,
) -> TraceWorkload<'a> {
    assert!(gen.fastest_stride >= 1, "stride must be at least 1");
    assert!(
        gen.threads_per_core >= 1,
        "need at least one thread per core"
    );
    let sampling = gen.sampling(program);
    let plans = (program.nests().iter().zip(&sampling))
        .enumerate()
        .map(|(nest_idx, (nest, sampling))| {
            ref_plans(program, layout, gen, nest_idx, nest, sampling)
        })
        .collect();
    let n_threads = layout.binding().len() * gen.threads_per_core;
    let generator = Generator {
        program,
        layout,
        space,
        gen: *gen,
        n_threads,
        sampling,
        plans,
    };
    TraceWorkload::single(program.name().to_string(), generator)
}

/// The source behind [`generate_traces`]: what every thread's replay reads.
struct Generator<'a> {
    program: &'a Program,
    layout: &'a ProgramLayout,
    space: &'a AddressSpace,
    gen: TraceGen,
    n_threads: usize,
    /// Each nest's sampling and emitting references, in nest order.
    sampling: Vec<NestSampling>,
    plans: Vec<Vec<RefPlan<'a>>>,
}

/// Where one thread's replay stands between two points of a run.
#[derive(Default)]
struct ThreadGen<'s> {
    thread: usize,
    /// The nest being replayed (`plans.len()` once all are done), and which
    /// of its replays.
    nest: usize,
    rep: usize,
    /// The thread's walk of the nest's runs; `None` before the first.
    runs: Option<CoreRuns<'s>>,
    /// Points left in the current run.
    left: i64,
    /// Each reference's cursor along the current run; `None` sends the
    /// reference through `place` access by access.
    cursors: Vec<Option<Run<'s>>>,
    /// The subscript buffer every reference evaluates into.
    dvec: Vec<i64>,
    /// The gap jitter's xorshift state, seeded per thread and nest.
    jitter: u64,
}

impl TraceSource for Generator<'_> {
    fn nodes(&self) -> Vec<NodeId> {
        let binding = self.layout.binding();
        (0..self.n_threads)
            .map(|t| binding.node_of(t / self.gen.threads_per_core))
            .collect()
    }

    fn stream(&self, thread: usize) -> Stream<'_> {
        let max_rank = self.program.arrays().iter().map(|a| a.rank()).max();
        let mut th = ThreadGen {
            thread,
            dvec: vec![0; max_rank.unwrap_or(0)],
            ..ThreadGen::default()
        };
        Box::new(move |chunk| self.fill(&mut th, chunk))
    }
}

impl Generator<'_> {
    /// Appends the thread's next points to `chunk`: whole points, as many
    /// as fit in [`CHUNK`], and at least one while any is left.
    fn fill<'s>(&'s self, th: &mut ThreadGen<'s>, chunk: &mut Vec<Access>) {
        while th.left > 0 || self.next_run(th) {
            let refs = &self.plans[th.nest];
            if !chunk.is_empty() && chunk.len() + refs.len() > CHUNK {
                return;
            }
            let runs = th.runs.as_mut().expect("points are emitted inside a run");
            let iter = runs.point();
            for (r, cursor) in refs.iter().zip(&mut th.cursors) {
                let vaddr = match (cursor, r.access) {
                    (Some(run), _) => self.space.addr_at(r.array, run.next_offset()),
                    (None, AccessFn::Affine(a)) => {
                        let dvec = &mut th.dvec[..a.rank()];
                        a.eval_into(iter, dvec);
                        self.space.addr_of(self.layout, r.array, dvec)
                    }
                    (None, AccessFn::Indexed { table, pos }) => {
                        let tab = self.program.table(*table);
                        let p = pos.eval(iter).rem_euclid(tab.len() as i64);
                        self.space.addr_of(self.layout, r.array, &[tab[p as usize]])
                    }
                };
                let gap = match r.lead_gap {
                    Some(lead) => {
                        // xorshift-based deterministic jitter; a span of 0
                        // adds none.
                        th.jitter ^= th.jitter << 13;
                        th.jitter ^= th.jitter >> 7;
                        th.jitter ^= th.jitter << 17;
                        lead + (th.jitter % self.gen.desync_jitter.max(1) as u64) as u32
                    }
                    None => 1,
                };
                chunk.push(Access {
                    vaddr,
                    write: r.write,
                    gap,
                    ref_id: r.ref_id,
                });
            }
            runs.step();
            th.left -= 1;
        }
    }

    /// Moves the thread to its next run — on through the nest's replays
    /// and the program's nests — and sets every reference's cursor along
    /// it. Returns `false` once the thread's trace is done.
    fn next_run<'s>(&'s self, th: &mut ThreadGen<'s>) -> bool {
        loop {
            if let Some(runs) = &mut th.runs {
                if let Some(n) = runs.next_run() {
                    let iter = runs.point();
                    for (r, cursor) in self.plans[th.nest].iter().zip(&mut th.cursors) {
                        *cursor = match r.access {
                            AccessFn::Affine(a) => {
                                let first = &mut th.dvec[..a.rank()];
                                a.eval_into(iter, first);
                                r.layout.run(first, &r.delta, n)
                            }
                            AccessFn::Indexed { .. } => None,
                        };
                    }
                    th.left = n;
                    return true;
                }
                th.runs = None;
                th.rep += 1;
                if th.rep == self.sampling[th.nest].reps {
                    (th.nest, th.rep) = (th.nest + 1, 0);
                }
            }
            if th.rep == 0 {
                // A nest none of whose references emits is skipped whole.
                while self.plans.get(th.nest).is_some_and(Vec::is_empty) {
                    th.nest += 1;
                }
                let Some(refs) = self.plans.get(th.nest) else {
                    return false;
                };
                th.cursors = vec![None; refs.len()];
                th.jitter = (th.thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            }
            let nest = &self.program.nests()[th.nest];
            let strides = &self.sampling[th.nest].strides;
            th.runs = Some(nest.core_runs(th.thread, self.n_threads, strides));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_affine::{
        AffineAccess, AffineExpr, ArrayDecl, ArrayRef, Loop, LoopNest, Program, Statement,
    };
    use hoploc_layout::{baseline_layout, optimize_program, PassConfig};
    use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh};
    use hoploc_sim::ThreadTrace;

    fn program() -> Program {
        let mut p = Program::new("gen-test");
        let x = p.add_array(ArrayDecl::new("X", vec![128, 64], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 128), Loop::constant(0, 64)],
            0,
            vec![Statement::new(
                vec![
                    ArrayRef::read(x, AffineAccess::identity(2)),
                    ArrayRef::write(x, AffineAccess::identity(2)),
                ],
                3,
            )],
            1,
        ));
        p
    }

    /// Every thread's trace of `program` under `layout`, gathered.
    fn traces(program: &Program, layout: &ProgramLayout, gen: &TraceGen) -> Vec<ThreadTrace> {
        let space = AddressSpace::build(program, layout, 0);
        let traces = generate_traces(program, layout, &space, gen).gather();
        traces
    }

    fn total(traces: &[ThreadTrace]) -> usize {
        traces.iter().map(|t| t.accesses.len()).sum()
    }

    fn mapping() -> L2ToMcMapping {
        L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners)
    }

    #[test]
    fn exact_replay_covers_all_iterations() {
        let p = program();
        let w = traces(&p, &baseline_layout(&p, 64), &TraceGen::default());
        assert_eq!(w.len(), 64);
        // 128 × 64 iterations × 2 refs total across all threads.
        assert_eq!(total(&w), 128 * 64 * 2);
    }

    #[test]
    fn strided_sampling_reduces_volume() {
        let p = program();
        let gen = TraceGen {
            fastest_stride: 4,
            ..TraceGen::default()
        };
        let w = traces(&p, &baseline_layout(&p, 64), &gen);
        assert_eq!(total(&w), 128 * 16 * 2);
    }

    #[test]
    fn writes_flagged() {
        let p = program();
        let w = traces(&p, &baseline_layout(&p, 64), &TraceGen::default());
        let (reads, writes): (Vec<Access>, Vec<Access>) =
            w[0].accesses.iter().partition(|a| !a.write);
        assert_eq!(reads.len(), writes.len());
    }

    #[test]
    fn optimized_layout_adds_overhead_gap() {
        let p = program();
        let base = traces(&p, &baseline_layout(&p, 64), &TraceGen::default());
        let opt_layout = optimize_program(&p, &mapping(), PassConfig::default());
        let opt = traces(&p, &opt_layout, &TraceGen::default());
        let g = |w: &[ThreadTrace]| w[0].accesses[0].gap;
        assert_eq!(
            g(&opt),
            g(&base) + 1,
            "transformed arrays pay addressing overhead"
        );
    }

    #[test]
    #[should_panic(expected = "gen-test: nest 1 is beyond what a reference id encodes")]
    fn a_statement_too_wide_for_reference_ids_is_refused() {
        // Reference 256 of a statement would read as reference 0: two
        // prefetcher training keys aliased.
        let mut p = program();
        let x = ArrayId(0);
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 128), Loop::constant(0, 64)],
            0,
            vec![Statement::new(
                vec![ArrayRef::read(x, AffineAccess::identity(2)); 257],
                1,
            )],
            1,
        ));
        traces(&p, &baseline_layout(&p, 64), &TraceGen::default());
    }

    #[test]
    fn a_skipped_first_reference_leaves_the_compute_gap_to_the_next() {
        // An indexed reference over an empty table emits nothing; the
        // statement's gap then belongs to the affine read after it.
        let mut p = Program::new("empty-table");
        let x = p.add_array(ArrayDecl::new("X", vec![128, 64], 8));
        let v = p.add_array(ArrayDecl::new("V", vec![64], 8));
        let table = p.add_table(Vec::new());
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 128), Loop::constant(0, 64)],
            0,
            vec![Statement::new(
                vec![
                    ArrayRef::indexed_read(v, table, AffineExpr::var(2, 1)),
                    ArrayRef::read(x, AffineAccess::identity(2)),
                ],
                5,
            )],
            1,
        ));
        let gen = TraceGen {
            gap_scale: 3,
            desync_jitter: 0,
            ..TraceGen::default()
        };
        let w = traces(&p, &baseline_layout(&p, 64), &gen);
        assert_eq!(total(&w), 128 * 64);
        let first = w[0].accesses[0];
        assert_eq!(first.gap, 5 * 3, "the statement's compute gap, scaled");
        assert_eq!(
            first.ref_id, 1,
            "the id of the reference's place in the statement"
        );
    }

    #[test]
    fn threads_per_core_multiplies_threads() {
        let p = program();
        let gen = TraceGen {
            threads_per_core: 2,
            ..TraceGen::default()
        };
        let w = traces(&p, &baseline_layout(&p, 64), &gen);
        assert_eq!(w.len(), 128);
        // Threads 0 and 1 share node 0.
        assert_eq!(w[0].node, w[1].node);
        // Total work unchanged.
        assert_eq!(total(&w), 128 * 64 * 2);
    }

    #[test]
    fn thread_chunks_partition_the_parallel_dim() {
        // Each element of X is written exactly once across all threads.
        let p = program();
        let w = traces(&p, &baseline_layout(&p, 64), &TraceGen::default());
        let mut seen = std::collections::HashSet::new();
        for t in &w {
            for a in t.accesses.iter().filter(|a| a.write) {
                assert!(seen.insert(a.vaddr), "duplicate write to {:#x}", a.vaddr);
            }
        }
        assert_eq!(seen.len(), 128 * 64);
    }
}
