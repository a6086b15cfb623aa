//! The paper's 13 applications (SPEC OMP2001 minus *equake*, plus the
//! Mantevo mini-apps), modelled as parameterized affine programs.
//!
//! Each model reproduces the published *computational structure* of its
//! application — the array shapes, access matrices, parallelization,
//! inter-thread sharing, and memory intensity that the layout pass and the
//! simulator actually react to — at a scale that simulates in seconds.
//! §2 of DESIGN.md documents this substitution.
//!
//! Structural levers used:
//!
//! * **Transposed accesses** (`X[j][i]` under an `i`-parallel nest) force a
//!   non-trivial `U` (swim, apsi, galgel).
//! * **Mismatched initialization** (init parallelized along a different
//!   dimension than the hot compute) breaks the first-touch policy's
//!   assumption for most applications (§6.3) — except wupwise, gafort, and
//!   minimd, whose first touch matches the compute pattern.
//! * **Indexed references** through profiled tables model the CRS /
//!   neighbor-list accesses of hpccg, minimd, ammp, gafort, and fma3d
//!   (§5.4); table noise controls approximability. Each table is
//!   declared by its generator and built on its first read, so building
//!   the catalogue costs no table.
//! * **Reader nests whose subscripts ignore the parallel iterator** create
//!   the all-threads-read-everything sharing that gives fma3d and
//!   minighost their high bank-queue pressure and M2 preference (§6.2).

use hoploc_affine::{
    AffineAccess, AffineExpr, ArrayDecl, ArrayId, ArrayRef, IMat, IVec, Loop, LoopNest, Program,
    Statement, TableGen,
};
use hoploc_layout::{AppProfile, ProgramAnalysis};
use std::sync::{Arc, OnceLock};

use crate::gen::TraceGen;

/// Problem-size scaling.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scale {
    /// Tiny inputs for unit tests (sub-second full-suite runs).
    Test,
    /// The figure-reproduction inputs.
    Bench,
}

impl Scale {
    /// Canonical lowercase name (CLI value, wire value, report field).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Bench => "bench",
        }
    }

    /// Parses a [`name`](Self::name) back to a scale.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "test" => Ok(Scale::Test),
            "bench" => Ok(Scale::Bench),
            other => Err(format!("unknown scale {other:?} (use test or bench)")),
        }
    }

    fn d2(self) -> (i64, i64) {
        match self {
            Scale::Test => (96, 64),
            Scale::Bench => (512, 256),
        }
    }

    fn d3(self) -> (i64, i64, i64) {
        match self {
            Scale::Test => (24, 16, 16),
            Scale::Bench => (128, 64, 40),
        }
    }

    fn d1(self) -> i64 {
        match self {
            Scale::Test => 8 * 1024,
            Scale::Bench => 96 * 1024,
        }
    }
}

/// One modelled application.
#[derive(Clone, Debug)]
pub struct App {
    /// The affine program (arrays, tables, nests). Not to be replaced once
    /// [`analysis`](Self::analysis) has been read: the analysis is of the
    /// program it was first read for.
    pub program: Program,
    /// Compile-time profile for the mapping-selection analysis (§4).
    pub profile: AppProfile,
    /// Trace-generation parameters tuned to the app's memory intensity.
    pub gen: TraceGen,
    /// Whether the application's first touch matches its hot access
    /// pattern (§6.3: true only for wupwise, gafort, minimd).
    pub first_touch_friendly: bool,
    /// Outstanding misses each core sustains (memory-level parallelism
    /// demand; highest for fma3d and minighost, §6.2).
    pub mlp: u32,
    /// The layout pass's analysis of `program`, made on its first read.
    analysis: OnceLock<Arc<ProgramAnalysis>>,
}

impl App {
    /// An application over `program`, its analysis not yet made.
    pub fn new(
        program: Program,
        profile: AppProfile,
        gen: TraceGen,
        first_touch_friendly: bool,
        mlp: u32,
    ) -> Self {
        App {
            program,
            profile,
            gen,
            first_touch_friendly,
            mlp,
            analysis: OnceLock::new(),
        }
    }

    /// The application's name.
    pub fn name(&self) -> &str {
        self.program.name()
    }

    /// What the layout pass learns from the program alone (§5.2, §5.4),
    /// made on the first read and kept, as an index table is: every plan of
    /// the optimized side, for any machine, is customized from it. A clone
    /// made after the first read shares it.
    pub fn analysis(&self) -> &ProgramAnalysis {
        self.analysis
            .get_or_init(|| Arc::new(ProgramAnalysis::of(&self.program)))
    }

    /// Whether [`analysis`](Self::analysis) has been read.
    pub fn analysis_is_built(&self) -> bool {
        self.analysis.get().is_some()
    }
}

/// Element size used throughout (double precision).
const F64: u32 = 8;

/// Identity access with per-dimension offsets.
fn ident_off(offsets: Vec<i64>) -> AffineAccess {
    let n = offsets.len();
    AffineAccess::new(IMat::identity(n), IVec::new(offsets))
}

/// A nest over `[0, n0) × [0, n1)` with the first loop parallel.
fn nest2(n0: i64, n1: i64, body: Vec<Statement>, weight: u64) -> LoopNest {
    LoopNest::new(
        vec![Loop::constant(0, n0), Loop::constant(0, n1)],
        0,
        body,
        weight,
    )
}

/// A 3-D nest `[h, d−h)³`, first loop parallel.
fn nest3_halo(d: (i64, i64, i64), h: i64, body: Vec<Statement>, weight: u64) -> LoopNest {
    LoopNest::new(
        vec![
            Loop::constant(h, d.0 - h),
            Loop::constant(h, d.1 - h),
            Loop::constant(h, d.2 - h),
        ],
        0,
        body,
        weight,
    )
}

/// A 1-D parallel sweep nest.
fn nest1(n: i64, body: Vec<Statement>, weight: u64) -> LoopNest {
    LoopNest::new(vec![Loop::constant(0, n)], 0, body, weight)
}

/// An initialization nest writing `arrays` identically (`X[i][j] = …`),
/// parallel along dimension 0 — this matches a row-partitioned layout, so
/// whether it *helps* first-touch depends on whether the compute nests
/// also partition along rows.
fn init2(n0: i64, n1: i64, arrays: &[ArrayId]) -> LoopNest {
    nest2(
        n0,
        n1,
        vec![Statement::new(
            arrays
                .iter()
                .map(|&a| ArrayRef::write(a, ident_off(vec![0, 0])))
                .collect(),
            1,
        )],
        1,
    )
}

/// A near-affine index table (§5.4): see [`TableGen::Banded`].
fn banded(len: i64, extent: i64, jitter: i64, seed: i64) -> TableGen {
    TableGen::Banded {
        len,
        extent,
        jitter,
        seed,
    }
}

/// **wupwise** — lattice-QCD BiCGStab: regular 3-D mat-vec sweeps whose
/// initialization matches the compute partitioning (first-touch friendly).
pub fn wupwise(scale: Scale) -> App {
    let d = scale.d3();
    let mut p = Program::new("wupwise");
    let psi = p.add_array(ArrayDecl::new("psi", vec![d.0, d.1, d.2], F64));
    let gauge = p.add_array(ArrayDecl::new("gauge", vec![d.0, d.1, d.2], F64));
    let res = p.add_array(ArrayDecl::new("res", vec![d.0, d.1, d.2], F64));
    // Init matches compute: both partition dimension 0.
    p.add_nest(nest3_halo(
        d,
        0,
        vec![Statement::new(
            vec![
                ArrayRef::write(psi, ident_off(vec![0, 0, 0])),
                ArrayRef::write(gauge, ident_off(vec![0, 0, 0])),
            ],
            1,
        )],
        1,
    ));
    // Hot mat-vec: res = gauge ⊗ psi with nearest-neighbour coupling.
    p.add_nest(nest3_halo(
        d,
        1,
        vec![Statement::new(
            vec![
                ArrayRef::read(psi, ident_off(vec![0, 0, 0])),
                ArrayRef::read(psi, ident_off(vec![1, 0, 0])),
                ArrayRef::read(gauge, ident_off(vec![0, 0, 0])),
                ArrayRef::write(res, ident_off(vec![0, 0, 0])),
            ],
            6,
        )],
        40,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 3.0,
            sharing_fraction: 0.08,
        },
        TraceGen::tuned(2),
        true,
        2,
    )
}

/// **swim** — shallow-water stencils over multi-field grids whose hot
/// loops are parallelized along the grid's *second*-fastest dimension
/// (`U[j][i][k]` under an `i`-parallel `(i, j, k)` nest): spatial locality
/// is identical to the baseline, but partitioning needs the dimension swap
/// `U ≠ I`, and the row-parallel initialization leaves first-touch pages
/// on the wrong controllers.
pub fn swim(scale: Scale) -> App {
    let d = scale.d3();
    // Arrays are declared [d.1][d.0][d.2]: subscript 0 is indexed by the
    // middle loop, subscript 1 by the parallel loop.
    let dims = vec![d.1, d.0, d.2];
    let mid = IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]);
    let mut p = Program::new("swim");
    let u = p.add_array(ArrayDecl::new("U", dims.clone(), F64));
    let v = p.add_array(ArrayDecl::new("V", dims.clone(), F64));
    let pa = p.add_array(ArrayDecl::new("P", dims, F64));
    // Row-major init, parallel along the slowest array dimension: first
    // touch lands on j-slab owners, not the compute owners.
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.1),
            Loop::constant(0, d.0),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::write(u, ident_off(vec![0, 0, 0])),
                ArrayRef::write(v, ident_off(vec![0, 0, 0])),
                ArrayRef::write(pa, ident_off(vec![0, 0, 0])),
            ],
            1,
        )],
        1,
    ));
    // Hot stencils: X[j][i][k] under i-parallel (i, j, k) loops; the
    // innermost k still walks the fastest dimension (locality-neutral).
    let hot = |a: ArrayId| {
        vec![
            ArrayRef::read(a, AffineAccess::new(mid.clone(), IVec::zeros(3))),
            ArrayRef::read(a, AffineAccess::new(mid.clone(), IVec::new(vec![-1, 0, 0]))),
            ArrayRef::read(a, AffineAccess::new(mid.clone(), IVec::new(vec![1, 0, 0]))),
            ArrayRef::write(a, AffineAccess::new(mid.clone(), IVec::zeros(3))),
        ]
    };
    let nest = |body| {
        LoopNest::new(
            vec![
                Loop::constant(0, d.0),
                Loop::constant(1, d.1 - 1),
                Loop::constant(0, d.2),
            ],
            0,
            body,
            30,
        )
    };
    p.add_nest(nest(vec![Statement::new(hot(u), 4)]));
    p.add_nest(nest(vec![Statement::new(hot(v), 4)]));
    p.add_nest(nest(vec![Statement::new(hot(pa), 4)]));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 5.0,
            sharing_fraction: 0.10,
        },
        TraceGen::tuned(8),
        false,
        2,
    )
}

/// **mgrid** — multigrid V-cycle: a 7-point relaxation plus a coarsening
/// nest with a strided (`2i`) access matrix.
pub fn mgrid(scale: Scale) -> App {
    let d = scale.d3();
    let mut p = Program::new("mgrid");
    let a = p.add_array(ArrayDecl::new("A", vec![d.0, d.1, d.2], F64));
    let c = p.add_array(ArrayDecl::new("C", vec![d.0 / 2, d.1 / 2, d.2 / 2], F64));
    // Init along dim 1 (mismatched with the dim-0-parallel compute).
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.1),
            Loop::constant(0, d.0),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![ArrayRef::write(
                a,
                AffineAccess::new(
                    IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
                    IVec::zeros(3),
                ),
            )],
            1,
        )],
        1,
    ));
    // Relaxation: 7-point stencil.
    p.add_nest(nest3_halo(
        d,
        1,
        vec![Statement::new(
            vec![
                ArrayRef::read(a, ident_off(vec![0, 0, 0])),
                ArrayRef::read(a, ident_off(vec![-1, 0, 0])),
                ArrayRef::read(a, ident_off(vec![1, 0, 0])),
                ArrayRef::read(a, ident_off(vec![0, -1, 0])),
                ArrayRef::write(a, ident_off(vec![0, 0, 0])),
            ],
            5,
        )],
        20,
    ));
    // Restriction: C[i][j][k] = A[2i][2j][2k].
    let twos = IMat::from_rows(&[&[2, 0, 0], &[0, 2, 0], &[0, 0, 2]]);
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.0 / 2),
            Loop::constant(0, d.1 / 2),
            Loop::constant(0, d.2 / 2),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(a, AffineAccess::new(twos, IVec::zeros(3))),
                ArrayRef::write(c, ident_off(vec![0, 0, 0])),
            ],
            3,
        )],
        5,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 4.0,
            sharing_fraction: 0.12,
        },
        TraceGen::tuned(8),
        false,
        2,
    )
}

/// **applu** — SSOR sweeps whose two hot nests parallelize *different*
/// dimensions, so no single layout satisfies every reference (the
/// weighted choice keeps the heavier sweep).
pub fn applu(scale: Scale) -> App {
    let d = scale.d3();
    let mut p = Program::new("applu");
    let rsd = p.add_array(ArrayDecl::new("rsd", vec![d.0, d.1, d.2], F64));
    let u = p.add_array(ArrayDecl::new("u", vec![d.0, d.1, d.2], F64));
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.1),
            Loop::constant(0, d.0),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![ArrayRef::write(
                rsd,
                AffineAccess::new(
                    IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
                    IVec::zeros(3),
                ),
            )],
            1,
        )],
        1,
    ));
    // Heavy lower-triangular sweep, dim-0 parallel.
    p.add_nest(nest3_halo(
        d,
        1,
        vec![Statement::new(
            vec![
                ArrayRef::read(rsd, ident_off(vec![0, 0, 0])),
                ArrayRef::read(rsd, ident_off(vec![-1, 0, 0])),
                ArrayRef::read(u, ident_off(vec![0, 0, 0])),
                ArrayRef::write(rsd, ident_off(vec![0, 0, 0])),
            ],
            5,
        )],
        25,
    ));
    // Lighter upper sweep parallelized along dim 1: its references prefer
    // partitioning data dimension 1 — unsatisfiable together with the
    // dim-0 sweep.
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(1, d.1 - 1),
            Loop::constant(1, d.0 - 1),
            Loop::constant(1, d.2 - 1),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(
                    rsd,
                    AffineAccess::new(
                        IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
                        IVec::zeros(3),
                    ),
                ),
                ArrayRef::write(
                    u,
                    AffineAccess::new(
                        IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
                        IVec::zeros(3),
                    ),
                ),
            ],
            5,
        )],
        3,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 4.0,
            sharing_fraction: 0.15,
        },
        TraceGen::tuned(8),
        false,
        2,
    )
}

/// **galgel** — Galerkin FEM linear algebra: a matmul-shaped kernel where
/// the `B` operand is read by every thread (its references cannot be
/// partitioned) while `A` and `C` localize cleanly.
pub fn galgel(scale: Scale) -> App {
    let (n0, n1) = scale.d2();
    let n0 = n0 / 2;
    let k_dim = n1 / 4;
    let mut p = Program::new("galgel");
    let a = p.add_array(ArrayDecl::new("A", vec![n0, k_dim], F64));
    let b = p.add_array(ArrayDecl::new("B", vec![k_dim, n1], F64));
    let c = p.add_array(ArrayDecl::new("C", vec![n0, n1], F64));
    p.add_nest(init2(n0, k_dim, &[a]));
    p.add_nest(init2(k_dim, n1, &[b]));
    // C[i][j] += A[i][k] * B[k][j], loops (i, k, j), i parallel.
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, n0),
            Loop::constant(0, k_dim),
            Loop::constant(0, n1),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(
                    a,
                    AffineAccess::new(IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0]]), IVec::zeros(2)),
                ),
                ArrayRef::read(
                    b,
                    AffineAccess::new(IMat::from_rows(&[&[0, 1, 0], &[0, 0, 1]]), IVec::zeros(2)),
                ),
                ArrayRef::write(
                    c,
                    AffineAccess::new(IMat::from_rows(&[&[1, 0, 0], &[0, 0, 1]]), IVec::zeros(2)),
                ),
            ],
            4,
        )],
        3,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 3.0,
            sharing_fraction: 0.25,
        },
        TraceGen::tuned(16),
        false,
        2,
    )
}

/// **apsi** — mesoscale meteorology: the dominant vertical-diffusion
/// sweep is parallelized along the grid's middle dimension (`T[j][i][k]`)
/// while a lighter horizontal sweep prefers the untransformed partitioning
/// — a weighted conflict the pass resolves toward the heavy sweep.
pub fn apsi(scale: Scale) -> App {
    let d = scale.d3();
    let dims = vec![d.1, d.0, d.2];
    let mid = IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]);
    let mut p = Program::new("apsi");
    let t = p.add_array(ArrayDecl::new("T", dims.clone(), F64));
    let q = p.add_array(ArrayDecl::new("Q", dims, F64));
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.1),
            Loop::constant(0, d.0),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::write(t, ident_off(vec![0, 0, 0])),
                ArrayRef::write(q, ident_off(vec![0, 0, 0])),
            ],
            1,
        )],
        1,
    ));
    // Heavy vertical diffusion: mid-dimension parallel.
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.0),
            Loop::constant(1, d.1 - 1),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(t, AffineAccess::new(mid.clone(), IVec::zeros(3))),
                ArrayRef::read(t, AffineAccess::new(mid.clone(), IVec::new(vec![-1, 0, 0]))),
                ArrayRef::read(q, AffineAccess::new(mid.clone(), IVec::zeros(3))),
                ArrayRef::write(t, AffineAccess::new(mid.clone(), IVec::zeros(3))),
            ],
            4,
        )],
        24,
    ));
    // Lighter horizontal sweep: identity access, prefers the original
    // partitioning (loses the weighted vote).
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.1),
            Loop::constant(0, d.0),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(t, ident_off(vec![0, 0, 0])),
                ArrayRef::write(q, ident_off(vec![0, 0, 0])),
            ],
            3,
        )],
        2,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 5.0,
            sharing_fraction: 0.10,
        },
        TraceGen::tuned(8),
        false,
        2,
    )
}

/// **gafort** — genetic algorithm: population arrays accessed through a
/// *sorted* (near-affine) selection table; first touch matches the compute
/// pattern.
pub fn gafort(scale: Scale) -> App {
    // Population arrays sized past per-thread L2 so selection sweeps
    // stream off-chip, as with the paper's large input sets.
    let n = scale.d1() * 2;
    let inner = 64i64;
    let blk = |off: i64| AffineAccess::new(IMat::from_rows(&[&[inner, 1]]), IVec::new(vec![off]));
    let mut p = Program::new("gafort");
    let pop = p.add_array(ArrayDecl::new("pop", vec![n], F64));
    let fit = p.add_array(ArrayDecl::new("fit", vec![n], F64));
    let sel = p.declare_table(banded(n, n, 16, 7));
    // Init = compute partitioning (first-touch friendly).
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n / inner), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![ArrayRef::write(pop, blk(0)), ArrayRef::write(fit, blk(0))],
            1,
        )],
        1,
    ));
    // Selection + crossover sweep: indexed but nearly sorted.
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n / inner), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::indexed_read(pop, sel, AffineExpr::new(vec![inner, 1], 0)),
                ArrayRef::read(fit, blk(0)),
                ArrayRef::write(pop, blk(0)),
            ],
            6,
        )],
        20,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 2.0,
            sharing_fraction: 0.05,
        },
        TraceGen {
            gap_scale: 4,
            ..TraceGen::tuned(4)
        },
        true,
        2,
    )
}

/// **fma3d** — FEM crash simulation: element-to-node gather/scatter over
/// a cache-exceeding mesh plus a shared *contact region* (the first eighth
/// of the nodes) that every element consults — the data-popularity
/// imbalance and memory-parallelism demand behind fma3d's standout bank
/// pressure (Figure 18) and M2 affinity (§6.2).
pub fn fma3d(scale: Scale) -> App {
    let n = scale.d1() * 8;
    let inner = 64i64;
    let mut p = Program::new("fma3d");
    let nodes = p.add_array(ArrayDecl::new("nodes", vec![n], F64));
    let accel = p.add_array(ArrayDecl::new("accel", vec![n], F64));
    let conn = p.declare_table(banded(n, n, 4096, 3));
    // The contact region: the first eighth of the nodes, shared by every
    // element — the data-popularity imbalance that concentrates load on
    // one controller under M1 and makes fma3d prefer M2 (§6.2).
    let hub = p.declare_table(banded(n, n / 8, 2048, 17));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n / inner), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::write(
                    nodes,
                    AffineAccess::new(IMat::from_rows(&[&[inner, 1]]), IVec::zeros(1)),
                ),
                ArrayRef::write(
                    accel,
                    AffineAccess::new(IMat::from_rows(&[&[inner, 1]]), IVec::zeros(1)),
                ),
            ],
            1,
        )],
        1,
    ));
    // Element-to-node gather/scatter over the whole mesh plus the contact
    // lookup into the hub region, streaming the cache-exceeding node set
    // every timestep at minimal compute.
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n / inner), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::indexed_read(nodes, conn, AffineExpr::new(vec![inner, 1], 0)),
                ArrayRef::indexed_read(nodes, hub, AffineExpr::new(vec![inner, 1], 0)),
                ArrayRef::write(
                    nodes,
                    AffineAccess::new(IMat::from_rows(&[&[inner, 1]]), IVec::zeros(1)),
                ),
                ArrayRef::read(
                    accel,
                    AffineAccess::new(IMat::from_rows(&[&[inner, 1]]), IVec::zeros(1)),
                ),
            ],
            1,
        )],
        15,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 14.0,
            sharing_fraction: 0.50,
        },
        TraceGen::tuned_intense(8),
        false,
        6,
    )
}

/// **art** — adaptive-resonance neural net: small weight matrices with
/// high reuse (lowest off-chip fraction in the suite).
pub fn art(scale: Scale) -> App {
    let (n0, n1) = scale.d2();
    let (m0, m1) = (n0 / 4, n1 / 4);
    let mut p = Program::new("art");
    let w = p.add_array(ArrayDecl::new("W", vec![m0, m1], F64));
    let f1 = p.add_array(ArrayDecl::new("F1", vec![m0, m1], F64));
    p.add_nest(init2(m0, m1, &[w, f1]));
    // Repeated passes over a small working set.
    p.add_nest(nest2(
        m0,
        m1,
        vec![Statement::new(
            vec![
                ArrayRef::read(w, ident_off(vec![0, 0])),
                ArrayRef::read(f1, ident_off(vec![0, 0])),
                ArrayRef::write(f1, ident_off(vec![0, 0])),
            ],
            10,
        )],
        2,
    ));
    p.add_nest(nest2(
        m0,
        m1,
        vec![Statement::new(
            vec![
                ArrayRef::read(w, ident_off(vec![0, 0])),
                ArrayRef::write(w, ident_off(vec![0, 0])),
            ],
            10,
        )],
        2,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 1.0,
            sharing_fraction: 0.05,
        },
        TraceGen::tuned(1),
        false,
        2,
    )
}

/// **ammp** — molecular dynamics with two neighbour tables: a cell-sorted
/// one that approximates well and a scrambled long-range one that does not
/// (its array stays unoptimized, lowering Table 2 coverage).
pub fn ammp(scale: Scale) -> App {
    // Working set sized to stay L2-resident per thread: ammp's force
    // arrays are small relative to its (table-driven) access irregularity.
    let n = scale.d1() / 2;
    let mut p = Program::new("ammp");
    let atoms = p.add_array(ArrayDecl::new("atoms", vec![n], F64));
    let forces = p.add_array(ArrayDecl::new("forces", vec![n], F64));
    let far = p.add_array(ArrayDecl::new("far", vec![n], F64));
    let near_t = p.declare_table(banded(n, n, 32, 11));
    let far_t = p.declare_table(TableGen::Scrambled {
        len: n,
        extent: n,
        seed: 5,
    });
    p.add_nest(nest1(
        n,
        vec![Statement::new(
            vec![
                ArrayRef::write(atoms, ident_off(vec![0])),
                ArrayRef::write(far, ident_off(vec![0])),
            ],
            1,
        )],
        1,
    ));
    // Short-range forces: cell-sorted neighbours, localizable.
    p.add_nest(nest1(
        n,
        vec![Statement::new(
            vec![
                ArrayRef::indexed_read(atoms, near_t, AffineExpr::var(1, 0)),
                ArrayRef::write(forces, ident_off(vec![0])),
            ],
            5,
        )],
        16,
    ));
    // Long-range correction: scattered lookups, refreshed rarely — the
    // §5.4 "inaccuracy can be very bad" case the pass declines to touch.
    p.add_nest(nest1(
        n,
        vec![Statement::new(
            vec![ArrayRef::indexed_read(far, far_t, AffineExpr::var(1, 0))],
            5,
        )],
        1,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 3.0,
            sharing_fraction: 0.20,
        },
        TraceGen::tuned(1),
        false,
        2,
    )
}

/// **hpccg** — conjugate gradient with a CRS SpMV: the matrix values
/// stream affinely, the `x` gather goes through a banded column-index
/// table (the paper's own §5.4 example), plus affine vector updates.
pub fn hpccg(scale: Scale) -> App {
    let rows = scale.d1() / 2;
    let nnz_per_row = 8i64;
    let nnz = rows * nnz_per_row;
    let mut p = Program::new("hpccg");
    let val = p.add_array(ArrayDecl::new("val", vec![nnz], F64));
    let x = p.add_array(ArrayDecl::new("x", vec![rows], F64));
    let y = p.add_array(ArrayDecl::new("y", vec![rows], F64));
    // 27-point-style band: col ≈ row + jitter.
    let col_idx = p.declare_table(banded(nnz, rows, 24, 13));
    p.add_nest(nest1(
        rows,
        vec![Statement::new(
            vec![
                ArrayRef::write(x, ident_off(vec![0])),
                ArrayRef::write(y, ident_off(vec![0])),
            ],
            1,
        )],
        1,
    ));
    // SpMV: for each row i, for each nonzero j: y[i] += val[i*nnz+j] * x[col[i*nnz+j]].
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, rows), Loop::constant(0, nnz_per_row)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(
                    val,
                    AffineAccess::new(IMat::from_rows(&[&[nnz_per_row, 1]]), IVec::zeros(1)),
                ),
                ArrayRef::indexed_read(x, col_idx, AffineExpr::new(vec![nnz_per_row, 1], 0)),
                ArrayRef::write(
                    y,
                    AffineAccess::new(IMat::from_rows(&[&[1, 0]]), IVec::zeros(1)),
                ),
            ],
            3,
        )],
        15,
    ));
    // Vector updates (axpy / dot shapes).
    p.add_nest(nest1(
        rows,
        vec![Statement::new(
            vec![
                ArrayRef::read(y, ident_off(vec![0])),
                ArrayRef::write(x, ident_off(vec![0])),
            ],
            2,
        )],
        15,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 6.0,
            sharing_fraction: 0.15,
        },
        TraceGen {
            gap_scale: 4,
            ..TraceGen::tuned(4)
        },
        false,
        2,
    )
}

/// **minighost** — 3-D halo-exchange stencil: deep halos plus a
/// whole-boundary-plane reduction that every thread reads (second-highest
/// sharing; prefers M2).
pub fn minighost(scale: Scale) -> App {
    let d = scale.d3();
    let mut p = Program::new("minighost");
    let grid = p.add_array(ArrayDecl::new("grid", vec![d.0, d.1, d.2], F64));
    let flux = p.add_array(ArrayDecl::new("flux", vec![d.0, d.1, d.2], F64));
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.1),
            Loop::constant(0, d.0),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![ArrayRef::write(
                grid,
                AffineAccess::new(
                    IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[0, 0, 1]]),
                    IVec::zeros(3),
                ),
            )],
            1,
        )],
        1,
    ));
    // Deep-halo stencil (±2 along the partition dimension: lots of
    // cross-thread boundary sharing).
    p.add_nest(nest3_halo(
        d,
        2,
        vec![Statement::new(
            vec![
                ArrayRef::read(grid, ident_off(vec![0, 0, 0])),
                ArrayRef::read(grid, ident_off(vec![-2, 0, 0])),
                ArrayRef::read(grid, ident_off(vec![2, 0, 0])),
                ArrayRef::read(grid, ident_off(vec![0, -1, 0])),
                ArrayRef::write(flux, ident_off(vec![0, 0, 0])),
            ],
            1,
        )],
        25,
    ));
    // Boundary-exchange accumulation: every thread scans the first
    // eighth of the grid's slabs (the shared halo staging region, owned by
    // the first cluster) — the popularity hotspot behind minighost's M2
    // preference.
    p.add_nest(LoopNest::new(
        vec![
            Loop::constant(0, d.0),
            Loop::constant(0, d.0 / 16),
            Loop::constant(0, d.1),
            Loop::constant(0, d.2),
        ],
        0,
        vec![Statement::new(
            vec![ArrayRef::read(
                flux,
                AffineAccess::new(
                    IMat::from_rows(&[&[0, 1, 0, 0], &[0, 0, 1, 0], &[0, 0, 0, 1]]),
                    IVec::zeros(3),
                ),
            )],
            1,
        )],
        6,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 13.0,
            sharing_fraction: 0.45,
        },
        TraceGen::tuned_intense(8),
        false,
        6,
    )
}

/// **minimd** — Lennard-Jones MD: cell-sorted neighbour lists (approximate
/// well) with initialization matching the force loop (first-touch
/// friendly).
pub fn minimd(scale: Scale) -> App {
    // Position/force arrays sized past per-thread L2 (large input sets).
    let n = scale.d1() * 2;
    let inner = 64i64;
    let blk = |off: i64| AffineAccess::new(IMat::from_rows(&[&[inner, 1]]), IVec::new(vec![off]));
    let mut p = Program::new("minimd");
    let pos = p.add_array(ArrayDecl::new("pos", vec![n], F64));
    let force = p.add_array(ArrayDecl::new("force", vec![n], F64));
    let neigh = p.declare_table(banded(n, n, 48, 29));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n / inner), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![ArrayRef::write(pos, blk(0)), ArrayRef::write(force, blk(0))],
            1,
        )],
        1,
    ));
    p.add_nest(LoopNest::new(
        vec![Loop::constant(0, n / inner), Loop::constant(0, inner)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(pos, blk(0)),
                ArrayRef::indexed_read(pos, neigh, AffineExpr::new(vec![inner, 1], 0)),
                ArrayRef::write(force, blk(0)),
            ],
            7,
        )],
        18,
    ));
    App::new(
        p,
        AppProfile {
            offchip_per_kcycle: 2.0,
            sharing_fraction: 0.07,
        },
        TraceGen {
            gap_scale: 4,
            ..TraceGen::tuned(4)
        },
        true,
        2,
    )
}

type Constructor = fn(Scale) -> App;

/// Name and constructor of every application, in the paper's
/// presentation order.
const APPS: [(&str, Constructor); 13] = [
    ("wupwise", wupwise),
    ("swim", swim),
    ("mgrid", mgrid),
    ("applu", applu),
    ("galgel", galgel),
    ("apsi", apsi),
    ("gafort", gafort),
    ("fma3d", fma3d),
    ("art", art),
    ("ammp", ammp),
    ("hpccg", hpccg),
    ("minighost", minighost),
    ("minimd", minimd),
];

/// The 13 application names in the paper's presentation order.
pub const APP_NAMES: [&str; 13] = {
    let mut names = [""; 13];
    let mut i = 0;
    while i < names.len() {
        names[i] = APPS[i].0;
        i += 1;
    }
    names
};

/// Builds the one application `name` names, or `None` for a name outside
/// [`APP_NAMES`].
pub fn app_by_name(name: &str, scale: Scale) -> Option<App> {
    APPS.iter()
        .find(|(known, _)| *known == name)
        .map(|(_, build)| build(scale))
}

/// All 13 applications in the paper's presentation order.
pub fn all_apps(scale: Scale) -> Vec<App> {
    APPS.iter().map(|(_, build)| build(scale)).collect()
}

/// The multiprogrammed workload mixes of Figure 25 (pairs of applications
/// co-scheduled on the same mesh).
pub fn mixes(scale: Scale) -> Vec<(String, Vec<App>)> {
    vec![
        (
            "WL1: swim+mgrid".to_string(),
            vec![swim(scale), mgrid(scale)],
        ),
        (
            "WL2: apsi+hpccg".to_string(),
            vec![apsi(scale), hpccg(scale)],
        ),
        ("WL3: fma3d+art".to_string(), vec![fma3d(scale), art(scale)]),
        (
            "WL4: minighost+minimd".to_string(),
            vec![minighost(scale), minimd(scale)],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_order_agree_at_both_scales() {
        for scale in [Scale::Test, Scale::Bench] {
            let apps = all_apps(scale);
            let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
            assert_eq!(names, APP_NAMES, "{scale:?}");
            for (name, app) in APP_NAMES.iter().zip(&apps) {
                let one = app_by_name(name, scale).expect("listed name");
                assert_eq!(one.program, app.program, "{name} at {scale:?}");
            }
        }
        assert!(app_by_name("nosuchapp", Scale::Test).is_none());
    }

    #[test]
    fn every_app_has_arrays_and_nests() {
        for app in all_apps(Scale::Test) {
            assert!(
                !app.program.arrays().is_empty(),
                "{} has no arrays",
                app.name()
            );
            assert!(
                !app.program.nests().is_empty(),
                "{} has no nests",
                app.name()
            );
            assert!(app.program.iteration_estimate() > 0);
        }
    }

    #[test]
    fn high_pressure_apps_are_marked() {
        let apps = all_apps(Scale::Test);
        for app in &apps {
            let heavy = app.profile.offchip_per_kcycle > 10.0;
            let is_m2_app = app.name() == "fma3d" || app.name() == "minighost";
            assert_eq!(heavy, is_m2_app, "{}", app.name());
        }
    }

    #[test]
    fn first_touch_friendly_matches_paper() {
        let friendly: Vec<String> = all_apps(Scale::Test)
            .into_iter()
            .filter(|a| a.first_touch_friendly)
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(friendly, vec!["wupwise", "gafort", "minimd"]);
    }

    #[test]
    fn mixes_pair_apps() {
        let m = mixes(Scale::Test);
        assert_eq!(m.len(), 4);
        for (_, apps) in &m {
            assert_eq!(apps.len(), 2);
        }
    }

    #[test]
    fn bench_scale_is_larger() {
        let t = wupwise(Scale::Test);
        let b = wupwise(Scale::Bench);
        assert!(b.program.iteration_estimate() > t.program.iteration_estimate());
    }
}
