//! Golden digests of everything a search candidate's score is made of,
//! pinned before the Data-to-Core analysis and the footprint model were
//! hoisted out of the per-candidate loop: a change to one byte of any
//! estimate record, any compiled layout, or any search report or progress
//! event of any application fails here.

use hoploc_est::{est_record_json, estimate_app, standard_configs, EstConfig};
use hoploc_layout::Granularity;
use hoploc_noc::L2ToMcMapping;
use hoploc_search::{curated, search_app, Candidate, SearchConfig};
use hoploc_sim::SimConfig;
use hoploc_workloads::{all_apps, layout_for, layout_with, App, RunKind, Scale};
use std::fmt::Write as _;

/// FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn mix(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The CLI's machine: cache-line interleaving over the scaled mesh.
fn cli_sim() -> SimConfig {
    SimConfig {
        granularity: Granularity::CacheLine,
        ..SimConfig::scaled()
    }
}

/// (a) `est_record_json` plus every per-array and per-reference field
/// (floats by bit pattern) over kinds × standard configs × 1 and 2
/// threads per core.
fn est_digest(app: &App) -> u64 {
    let mut h = Fnv::new();
    for (label, sim) in standard_configs() {
        let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
        for kind in RunKind::ALL {
            let layout = layout_for(app, &mapping, &sim, kind);
            for threads in [1, 2] {
                let cfg = EstConfig::from_sim(&sim).with_threads_per_core(threads);
                let e = estimate_app(app, &layout, &mapping, kind, &cfg);
                let mut s = format!("{label}/{threads}: {}\n", est_record_json(&e));
                let _ = writeln!(
                    s,
                    "{:016x} {:016x} {:?}",
                    e.avg_offchip_hops.to_bits(),
                    e.queue_pressure.to_bits(),
                    e.mc_shares.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                for a in &e.arrays {
                    let _ = writeln!(
                        s,
                        "{} {} {} {:?} {} {}",
                        a.array,
                        a.accesses,
                        a.predicted_offchip,
                        a.avg_hops.map(f64::to_bits),
                        a.broadcast,
                        a.indexed
                    );
                }
                for r in &e.refs {
                    let _ = writeln!(
                        s,
                        "{}.{}.{} {} {} {} {} {}",
                        r.nest,
                        r.statement,
                        r.reference,
                        r.array,
                        r.accesses,
                        r.predicted_offchip,
                        r.broadcast,
                        r.indexed
                    );
                }
                h.mix(&s);
            }
        }
    }
    h.0
}

/// Every curated candidate (4 placements × tilings × {cacheline, page} ×
/// {0.15, 0.30}), plus a 0.45-threshold twin of each 0.30 point.
fn layout_candidates() -> Vec<Candidate> {
    let mesh = cli_sim().mesh;
    let mut out = curated(&mesh, &[Granularity::CacheLine, Granularity::Page]);
    let loose: Vec<Candidate> = out
        .iter()
        .filter(|c| c.approx == 0.30)
        .map(|c| Candidate {
            approx: 0.45,
            ..c.clone()
        })
        .collect();
    out.extend(loose);
    out
}

/// (b) Debug bytes of the `ProgramLayout` each candidate compiles to.
fn layout_digest(app: &App, candidates: &[Candidate]) -> u64 {
    let base = cli_sim();
    let mut h = Fnv::new();
    for c in candidates {
        let placement = c
            .placement(&base.mesh)
            .expect("curated candidates are legal");
        let sim = SimConfig {
            granularity: c.granularity,
            placement: placement.mc_placement().clone(),
            ..base.clone()
        };
        let layout = layout_with(app, placement.mapping(), &sim, RunKind::Optimized, c.approx);
        h.mix(&c.key());
        h.mix(&format!("{layout:?}"));
    }
    h.0
}

/// (c) The report line and the whole progress-event stream of one search.
fn search_digest(app: &App) -> u64 {
    let cfg = SearchConfig {
        seed: 1,
        budget: 200,
        top_k: 3,
        ..SearchConfig::new(cli_sim(), Scale::Test)
    };
    let mut h = Fnv::new();
    let mut events = 0usize;
    let report = search_app(app, &cfg, &mut |e| {
        h.mix(&e);
        h.mix("\n");
        events += 1;
    });
    assert!(
        events >= 1,
        "{}: a search emits its start point",
        app.name()
    );
    h.mix(&report.to_json());
    h.0
}

/// `(app, [estimates, layouts, search])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 3]); 13] = [
    ("wupwise", [0x300c7ae1d3679647, 0xcd7a3af29092dc09, 0x3a1923249a6ea262]),
    ("swim", [0x0154eac38f08f6c9, 0x1c2b3042f0741f91, 0x453ce67b6e8389ae]),
    ("mgrid", [0x88bacf91b8ee5e67, 0xc2aaf0207dd50985, 0x184815ec10fa76a5]),
    ("applu", [0xee949811517e3b71, 0x88fe54d60aa7e24d, 0x927e8e1e58911da9]),
    ("galgel", [0xbb1966a2d3673485, 0x98d086cb24a30f65, 0x075b95f7dbdf9879]),
    ("apsi", [0xe3dbd78c4fb05935, 0x2faa664e358fc6e5, 0xb93b151e0446a095]),
    ("gafort", [0x5c0f108186d26219, 0x4d476e9b7ccbb705, 0xeac0d18a47b57d36]),
    ("fma3d", [0x1e0f9403417b99e7, 0xc531976f6c640b7d, 0xb71ea7431fafeb75]),
    ("art", [0xb36aedcbf5dec0c5, 0x8356d90533690985, 0xf658be8cfbd48052]),
    ("ammp", [0xe5506e5bc49d9eb7, 0xb0da8f6377522289, 0xb59fe4ec656c84a0]),
    ("hpccg", [0x1a1681635d9c090d, 0x2e68e6d6c69f99b9, 0xa355ce05ec3b051b]),
    ("minighost", [0x4d6b52aa8f455615, 0x1f38ae6b838d4df5, 0xc93f1bf98e4ba12d]),
    ("minimd", [0xa11065cc31fee8f5, 0x883f86bb621e9bad, 0x0198e8d5a7699712]),
];

fn check(column: usize, what: &str, digest: impl Fn(&App) -> u64) {
    let apps = all_apps(Scale::Test);
    assert_eq!(apps.len(), GOLDEN.len());
    let got: Vec<(&str, u64)> = apps.iter().map(|a| (a.name(), digest(a))).collect();
    let want: Vec<(&str, u64)> = GOLDEN.iter().map(|(n, d)| (*n, d[column])).collect();
    assert_eq!(got, want, "{what} digests moved: {got:#018x?}");
}

#[test]
fn estimates_match_the_pinned_digests() {
    check(0, "estimate", est_digest);
}

#[test]
fn compiled_layouts_match_the_pinned_digests() {
    let candidates = layout_candidates();
    assert!(candidates.len() >= 96, "curated space unexpectedly small");
    check(1, "layout", |app| layout_digest(app, &candidates));
}

#[test]
fn search_reports_and_events_match_the_pinned_digests() {
    check(2, "search", search_digest);
}
