//! Pin of Figure 25's co-scheduled runs: the FNV-1a of the `{:?}` of the
//! baseline and optimized `RunStats` of each test-scale mix, recorded from
//! the workloads crate's `run_mix` before `Suite::run_mix` replaced it.
//! Any change to a mix's address spaces, merged desired-page map, miss
//! window or trace moves a digest here.

use hoploc_harness::{fnv1a, Suite};
use hoploc_layout::Granularity;
use hoploc_noc::L2ToMcMapping;
use hoploc_sim::SimConfig;
use hoploc_workloads::{mixes, RunKind, Scale};

/// `(mix, [baseline, optimized])`, in `mixes` order.
#[rustfmt::skip]
const PINNED: [(&str, [u64; 2]); 4] = [
    ("WL1: swim+mgrid", [0x1c863b8b62461c31, 0x9a2bfa2a3c9c8a8f]),
    ("WL2: apsi+hpccg", [0xe308357796caab86, 0x2ef7f9092192cbed]),
    ("WL3: fma3d+art", [0x3ca42eaa27aa3ff5, 0x67f9ec398510a6d2]),
    ("WL4: minighost+minimd", [0x2d22ed779de1b425, 0x67400ccaf7a26931]),
];

#[test]
fn mix_statistics_match_the_pinned_digests() {
    let sim = SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    };
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let got: Vec<(String, [u64; 2])> = mixes(Scale::Test)
        .into_iter()
        .map(|(name, apps)| {
            let suite = Suite::new(apps, mapping.clone(), sim.clone());
            let digest = |kind| fnv1a(format!("{:?}", suite.run_mix(kind)).as_bytes());
            (name, [RunKind::Baseline, RunKind::Optimized].map(digest))
        })
        .collect();
    let want: Vec<(String, [u64; 2])> = (PINNED.iter())
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert_eq!(got, want, "a mix's statistics moved: {got:#018x?}");
}
