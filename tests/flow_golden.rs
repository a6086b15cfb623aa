//! Golden digests of the cycle simulator's L2 miss flow, pinned against
//! the engine that still wrote the private and the shared flow out
//! separately: a change to one statistic, one Chrome-trace byte or one
//! metric of any cell below fails here.
//!
//! The matrix is {default L2, 2 KB 4-way L2} × {private, shared} × nine
//! variants × a slice of applications × {baseline, optimized, optimal},
//! every cell traced. The small L2 is what makes the matrix cover the
//! flow: with the default 32 KB slices no shared-L2 cell at test scale
//! ever evicts a dirty line, joins an in-flight prefetch or loses a reply,
//! so those branches would be pinned by nothing. The tally assertions
//! below keep that from silently becoming true again.

use hoploc::cache::CacheConfig;
use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{default_jobs, fault_topo, parallel_map, RunRequest, Suite};
use hoploc::layout::{Granularity, L2Mode};
use hoploc::noc::L2ToMcMapping;
use hoploc::obs::{EvName, ObsConfig, ObsReport, Track};
use hoploc::sim::{PrefetchConfig, PrefetchMode, RunStats, SimConfig};
use hoploc::workloads::{all_apps, RunKind, Scale};

/// swim and applu are the stencils `sweep-axes` runs; minimd gathers
/// through an index array.
const APPS: [&str; 3] = ["swim", "applu", "minimd"];

const KINDS: [RunKind; 3] = [RunKind::Baseline, RunKind::Optimized, RunKind::Optimal];

const MODES: [L2Mode; 2] = [L2Mode::Private, L2Mode::Shared];

/// `(label, L2 geometry)`: the capacity-scaled default, and a slice small
/// enough that test-scale footprints overflow it.
fn machines() -> [(&'static str, CacheConfig); 2] {
    [
        ("l2-32k", CacheConfig::l2_scaled()),
        (
            "l2-2k",
            CacheConfig {
                size_bytes: 2048,
                line_bytes: 256,
                ways: 4,
            },
        ),
    ]
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    Plain,
    Writebacks,
    Gated,
    Stream,
    FaultsModerate,
    FaultsSevere,
    /// Gated prefetch, a severe fault plan and writebacks together.
    Everything,
    Threads2,
    PageInterleave,
}

const VARIANTS: [Variant; 9] = [
    Variant::Plain,
    Variant::Writebacks,
    Variant::Gated,
    Variant::Stream,
    Variant::FaultsModerate,
    Variant::FaultsSevere,
    Variant::Everything,
    Variant::Threads2,
    Variant::PageInterleave,
];

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Writebacks => "writebacks",
            Variant::Gated => "gated",
            Variant::Stream => "stream",
            Variant::FaultsModerate => "faults-moderate",
            Variant::FaultsSevere => "faults-severe",
            Variant::Everything => "everything",
            Variant::Threads2 => "threads2",
            Variant::PageInterleave => "page",
        }
    }

    /// Fault intensity and plan seed, for the variants that inject. Drops
    /// are rare at test scale, so the severe seeds are picked for what they
    /// reach: 14 loses a demand's reply in both modes, and 10 (private) and
    /// 7 (shared) drop a prefetch that a demand had already joined.
    fn faults(self, mode: L2Mode) -> Option<(FaultRates, u64)> {
        match self {
            Variant::FaultsModerate => Some((FaultRates::moderate(), 7)),
            Variant::FaultsSevere => Some((FaultRates::severe(), 14)),
            Variant::Everything => {
                let seed = match mode {
                    L2Mode::Private => 10,
                    L2Mode::Shared => 7,
                };
                Some((FaultRates::severe(), seed))
            }
            _ => None,
        }
    }

    fn apply(self, sim: &mut SimConfig) {
        match self {
            Variant::Writebacks => sim.writebacks = true,
            Variant::Gated => sim.prefetch = PrefetchConfig::with_mode(PrefetchMode::Gated),
            Variant::Stream => sim.prefetch = PrefetchConfig::with_mode(PrefetchMode::Stream),
            Variant::Everything => {
                sim.writebacks = true;
                sim.prefetch = PrefetchConfig::with_mode(PrefetchMode::Gated);
            }
            Variant::PageInterleave => sim.granularity = Granularity::Page,
            Variant::Plain
            | Variant::FaultsModerate
            | Variant::FaultsSevere
            | Variant::Threads2 => {}
        }
    }
}

/// One digest's worth of cells: a machine, an L2 mode and a variant, over
/// every application and kind.
#[derive(Clone, Copy)]
struct Group {
    machine: &'static str,
    l2: CacheConfig,
    mode: L2Mode,
    variant: Variant,
}

impl Group {
    fn label(&self) -> String {
        let mode = match self.mode {
            L2Mode::Private => "private",
            L2Mode::Shared => "shared",
        };
        format!("{}/{mode}/{}", self.machine, self.variant.name())
    }
}

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

/// How often the cells of one group took the branches the digests exist
/// to pin.
#[derive(Clone, Copy, Default, Debug)]
struct Tally {
    writebacks: u64,
    late_joins: u64,
    /// Demands resumed by an error reply instead of data.
    lost_replies: u64,
    /// The lost replies whose demand had joined an in-flight prefetch: the
    /// controller dropped the prefetch, not a request of the demand's own.
    lost_joins: u64,
    c2c: u64,
    /// On-chip messages beyond the three of each cache-to-cache forward:
    /// under a private L2 these are the directory eviction notices.
    other_onchip: u64,
}

impl Tally {
    fn add_run(&mut self, s: &RunStats, report: &ObsReport) {
        let dropped = |on_core: bool| {
            report
                .events()
                .iter()
                .filter(|e| e.name == EvName::Dropped && e.req != u64::MAX)
                .filter(|e| matches!(e.track, Track::Core(_)) == on_core)
                .count() as u64
        };
        self.writebacks += s.writebacks;
        self.late_joins += s.prefetch.late;
        self.lost_replies += dropped(true);
        self.lost_joins += dropped(true) - dropped(false);
        self.c2c += s.cache_to_cache;
        self.other_onchip += s.net.on_chip.messages - 3 * s.cache_to_cache;
    }

    fn add(&mut self, t: &Tally) {
        self.writebacks += t.writebacks;
        self.late_joins += t.late_joins;
        self.lost_replies += t.lost_replies;
        self.lost_joins += t.lost_joins;
        self.c2c += t.c2c;
        self.other_onchip += t.other_onchip;
    }
}

fn run_group(g: &Group) -> (u64, Tally) {
    let mut sim = SimConfig {
        granularity: Granularity::CacheLine,
        l2: g.l2,
        l2_mode: g.mode,
        ..SimConfig::scaled()
    };
    g.variant.apply(&mut sim);
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let apps: Vec<_> = all_apps(Scale::Test)
        .into_iter()
        .filter(|a| APPS.contains(&a.name()))
        .collect();
    assert_eq!(apps.len(), APPS.len(), "an application was renamed");
    let threads = if g.variant == Variant::Threads2 { 2 } else { 1 };
    let obs = ObsConfig {
        prefetch: sim.prefetch.enabled(),
        ..ObsConfig::default()
    };
    let suite = Suite::new(apps, mapping, sim).with_threads_per_core(threads);
    let topo = fault_topo(suite.sim());
    let mut h = Fnv::new();
    let mut tally = Tally::default();
    for cell in suite.full_matrix(&KINDS) {
        // Windows are placed within the clean run's length, like
        // `hoploc faults --plan <seed>`.
        let plan = g.variant.faults(g.mode).map(|(rates, seed)| {
            let horizon = suite.run(&cell).stats.exec_cycles.max(1);
            FaultPlan::from_seed(seed, &topo, &rates.with_horizon(horizon))
        });
        let req = RunRequest {
            faults: plan.as_ref(),
            ..cell.with_obs(obs)
        };
        let (stats, report) = suite.run(&req).recorded();
        tally.add_run(&stats, &report);
        h.mix(&format!("{stats:?}"));
        h.mix(&report.chrome_trace_json());
        h.mix(&report.metrics_json());
    }
    (h.0, tally)
}

fn groups() -> Vec<Group> {
    let mut out = Vec::new();
    for (machine, l2) in machines() {
        for mode in MODES {
            for variant in VARIANTS {
                out.push(Group {
                    machine,
                    l2,
                    mode,
                    variant,
                });
            }
        }
    }
    out
}

/// One digest per group, in [`groups`] order.
#[rustfmt::skip]
const GOLDEN: [u64; 36] = [
    0x1e313bc85e84dfa3, // l2-32k/private/plain
    0x1e313bc85e84dfa3, // l2-32k/private/writebacks
    0x50dbd8c50516c4d7, // l2-32k/private/gated
    0x2b8cd76d72487e4f, // l2-32k/private/stream
    0xdf03abaae836502b, // l2-32k/private/faults-moderate
    0xd663df8ff6a60d3a, // l2-32k/private/faults-severe
    0x215e7cfaec245f31, // l2-32k/private/everything
    0x14c3e5a388332c98, // l2-32k/private/threads2
    0xb618ce8924e46224, // l2-32k/private/page
    0xdc62c9b610eceb34, // l2-32k/shared/plain
    0xdc62c9b610eceb34, // l2-32k/shared/writebacks
    0xa3486c61dae92d39, // l2-32k/shared/gated
    0x7843e88328654c57, // l2-32k/shared/stream
    0x92872a023b2829a5, // l2-32k/shared/faults-moderate
    0x055048c4c5ed5f1d, // l2-32k/shared/faults-severe
    0x6e998f839ecc3e8c, // l2-32k/shared/everything
    0x8a6868b9f72e4503, // l2-32k/shared/threads2
    0x0099ef0371ec866a, // l2-32k/shared/page
    0xdf3822bfcc0244e5, // l2-2k/private/plain
    0xfb4f106e586cbe9a, // l2-2k/private/writebacks
    0xb512c4233404912c, // l2-2k/private/gated
    0x93b3e697dde98cde, // l2-2k/private/stream
    0x9c8dab55ea62503a, // l2-2k/private/faults-moderate
    0x0a652a0f1296b5fd, // l2-2k/private/faults-severe
    0x3b09fb91b25f37b7, // l2-2k/private/everything
    0x84fada279fc8cf17, // l2-2k/private/threads2
    0xc84c5e595aa24263, // l2-2k/private/page
    0xafc2801a76a268fe, // l2-2k/shared/plain
    0x1ba2b5ca904cfca0, // l2-2k/shared/writebacks
    0xb1512776c2137d58, // l2-2k/shared/gated
    0xa8a567a1fb9f11f3, // l2-2k/shared/stream
    0x19fb16b12a91c890, // l2-2k/shared/faults-moderate
    0x5ad14b52e5df8b63, // l2-2k/shared/faults-severe
    0xb0bac37bf035b97c, // l2-2k/shared/everything
    0xee8818fbdfd3e723, // l2-2k/shared/threads2
    0x4eff3cfb49959504, // l2-2k/shared/page
];

#[test]
fn l2_flow_digests_match_the_pinned_engine() {
    let groups = groups();
    let results = parallel_map(&groups, default_jobs(), run_group);

    // Non-vacuity first: a digest over cells that never leave the common
    // path pins nothing.
    let total = |mode: L2Mode| {
        let mut t = Tally::default();
        for (g, (_, cell)) in groups.iter().zip(&results) {
            if g.mode == mode {
                t.add(cell);
            }
        }
        t
    };
    let (private, shared) = (total(L2Mode::Private), total(L2Mode::Shared));
    for (mode, t) in [("private", private), ("shared", shared)] {
        assert!(t.writebacks > 0, "no {mode}-L2 cell wrote back: {t:?}");
        assert!(t.late_joins > 0, "no {mode}-L2 demand joined a prefetch");
        assert!(
            t.lost_replies > t.lost_joins,
            "no {mode}-L2 demand request was dropped: {t:?}"
        );
        assert!(
            t.lost_joins > 0,
            "no {mode}-L2 demand joined a prefetch that was then dropped"
        );
    }
    assert!(private.c2c > 0, "no cache-to-cache forward");
    assert!(private.other_onchip > 0, "no directory eviction notice");

    let mut table = String::new();
    for (g, (digest, _)) in groups.iter().zip(&results) {
        table.push_str(&format!("    0x{digest:016x}, // {}\n", g.label()));
    }
    let changed: Vec<String> = groups
        .iter()
        .zip(&results)
        .zip(GOLDEN)
        .filter(|((_, (digest, _)), golden)| digest != golden)
        .map(|((g, _), _)| g.label())
        .collect();
    assert!(
        changed.is_empty(),
        "simulated behaviour changed in {changed:?}; this engine produces:\n{table}"
    );
}
