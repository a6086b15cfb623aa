//! Microbenchmarks of the compiler and simulator substrates: the
//! integer-linear-algebra kernels of the layout pass, the address
//! function, and the NoC/MC fast paths. Self-timed (no external bench
//! framework): each kernel is warmed up, then timed over enough
//! iterations for a stable per-call figure.

use hoploc_affine::{
    complete_unimodular, hermite_normal_form, nullspace, AffineAccess, ArrayDecl, ArrayRef, IMat,
    IVec, Loop, LoopNest, Program, Statement,
};
use hoploc_bench::time_kernel;
use hoploc_layout::{optimize_program, PassConfig};
use hoploc_mem::{McConfig, MemoryController};
use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh, Network, NocConfig, NodeId, TrafficClass};
use std::hint::black_box;

fn stencil_program() -> Program {
    let mut p = Program::new("bench");
    let z = p.add_array(ArrayDecl::new("Z", vec![512, 512], 8));
    let a = IMat::from_rows(&[&[0, 1], &[1, 0]]);
    p.add_nest(LoopNest::new(
        vec![Loop::constant(1, 511), Loop::constant(1, 511)],
        0,
        vec![Statement::new(
            vec![
                ArrayRef::read(z, AffineAccess::new(a.clone(), IVec::new(vec![-1, 0]))),
                ArrayRef::write(z, AffineAccess::new(a, IVec::zeros(2))),
            ],
            2,
        )],
        10,
    ));
    p
}

fn bench_linear_algebra() {
    let m = IMat::from_rows(&[&[2, 4, 6, 1], &[1, 3, 5, 7], &[0, 2, 4, 6]]);
    time_kernel("nullspace_3x4", || nullspace(black_box(&m)));
    time_kernel("hnf_3x4", || hermite_normal_form(black_box(&m)));
    let g = IVec::new(vec![3, 5, 7, 11]);
    time_kernel("complete_unimodular_4", || {
        complete_unimodular(black_box(&g), 0)
    });
}

fn bench_layout_pass() {
    let p = stencil_program();
    let mapping = L2ToMcMapping::nearest_cluster(Mesh::new(8, 8), &McPlacement::Corners);
    time_kernel("optimize_program_stencil", || {
        optimize_program(black_box(&p), &mapping, PassConfig::default())
    });
    let layout = optimize_program(&p, &mapping, PassConfig::default());
    let l = layout.layout(hoploc_affine::ArrayId(0));
    time_kernel("place_element", || l.place(black_box(&[137, 253])));
}

fn bench_substrates() {
    let mut net = Network::new(Mesh::new(8, 8), NocConfig::default());
    let mut t = 0u64;
    time_kernel("noc_send_cross_mesh", || {
        t += 10;
        net.send(NodeId(0), NodeId(63), 256, TrafficClass::OffChip, t)
    });
    let mut mc = MemoryController::new(McConfig::default());
    let mut now = 0u64;
    let mut addr = 0u64;
    time_kernel("mc_enqueue_stream", || {
        now += 50;
        addr += 256;
        mc.enqueue(addr, now, now).len()
    });
}

fn main() {
    bench_linear_algebra();
    bench_layout_pass();
    bench_substrates();
}
