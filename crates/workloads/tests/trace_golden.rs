//! Golden digests of `generate_traces` output, pinned from the allocating
//! generator before it was rewritten: any change to a single `vaddr`,
//! `write`, `gap` or `ref_id` of any thread of any application fails here.

use hoploc_layout::Granularity;
use hoploc_noc::L2ToMcMapping;
use hoploc_sim::{AddressSpace, SimConfig};
use hoploc_workloads::{all_apps, generate_traces, layout_for, RunKind, Scale, TraceGen};

/// FNV-1a over every thread's node and access stream, in thread order.
fn digest(app: &hoploc_workloads::App, kind: RunKind, threads_per_core: usize) -> u64 {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let layout = layout_for(app, &mapping, &sim, kind);
    let space = AddressSpace::build(&app.program, &layout, 0);
    let gen = TraceGen {
        threads_per_core,
        ..app.gen
    };
    let threads = generate_traces(&app.program, &layout, &space, &gen).gather();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for t in &threads {
        mix(t.node.0 as u64);
        mix(t.accesses.len() as u64);
        for a in &t.accesses {
            mix(a.vaddr);
            mix(a.write as u64);
            mix(a.gap as u64);
            mix(a.ref_id as u64);
        }
    }
    h
}

/// `(app, [baseline×1, baseline×2, optimized×1, optimized×2])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 4]); 13] = [
    ("wupwise", [0x5452d501d517a048, 0xaad389930c5a79c8, 0x2e80afde9ed872d2, 0xb21f4144c6fef812]),
    ("swim", [0x72689eb2530e9cab, 0xc9719a464b0b420b, 0xf4b1af418b7e9fe9, 0x33e0537a58d29789]),
    ("mgrid", [0x624b76992dd6f861, 0x7cc6a5001f4c5bc9, 0xe600c7de74e28481, 0x3cf2389c70129a19]),
    ("applu", [0x49e139a502b4ecc2, 0x3b1c11ed8b21ccea, 0x27ebfe7a1bfa757c, 0x60f055ac49b61a9c]),
    ("galgel", [0x51497a38b230359f, 0x44e45324edd3ad37, 0x0d4afc47e035b64f, 0x7670018fd9d8439f]),
    ("apsi", [0x7d7057e7aedfc7c4, 0x57ef60888bbb2454, 0xc31b1ca757cac95e, 0x326bd0f6595f8dc6]),
    ("gafort", [0x7ac520ba87d1edb9, 0xebb125e0fd232a55, 0x702fde86c675ffc5, 0xb098f2d30508a695]),
    ("fma3d", [0x37991a2fdbb7a131, 0xf40650fa1376d2b5, 0x54e410f57021bc69, 0xc1c2d6eac603b3d1]),
    ("art", [0x5329e890048d985e, 0x6417a9bd94aeec3e, 0x54aa0247338aba3c, 0x998e3d6310440e9c]),
    ("ammp", [0x5b959e1940d119a6, 0x696f3eb5f240cd78, 0x199c8a6aed042cac, 0x43e899d598c3bf86]),
    ("hpccg", [0x819f3b51115d2d9b, 0x3533bd9b0ae19eae, 0xf0b1efa610a5c9ef, 0x945b5a33d0d3eb68]),
    ("minighost", [0x1525d90f984c98c9, 0x3abb4c72a37882e9, 0x063abdc24d9f1a29, 0x8a5bd502cf9d0179]),
    ("minimd", [0x282b59bbb01a07d1, 0x9eaf0037ccaefbf5, 0x227422efb1a0cc89, 0x90b3a76e886f3f6d]),
];

#[test]
fn trace_streams_match_the_pinned_digests() {
    let apps = all_apps(Scale::Test);
    assert_eq!(apps.len(), GOLDEN.len());
    for (app, (name, want)) in apps.iter().zip(GOLDEN) {
        assert_eq!(app.name(), name);
        let got = [
            digest(app, RunKind::Baseline, 1),
            digest(app, RunKind::Baseline, 2),
            digest(app, RunKind::Optimized, 1),
            digest(app, RunKind::Optimized, 2),
        ];
        assert_eq!(
            got, want,
            "{name}: trace digest moved: (\"{name}\", {got:#018x?})"
        );
    }
}
