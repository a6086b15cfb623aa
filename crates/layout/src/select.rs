//! Compiler analysis for choosing among candidate L2-to-MC mappings (§4,
//! final paragraph).
//!
//! "We implemented a compiler analysis that identifies, given a set of
//! L2-to-MC mappings, the most effective one by weighing two metrics:
//! (1) distance-to-MC and (2) memory-level parallelism (MLP)."
//!
//! The analysis estimates, per candidate mapping, the expected cost of an
//! off-chip access as *network round-trip* plus *queueing delay* at the
//! controller. Localizing onto fewer controllers shortens the round trip
//! but concentrates load; the queueing term (an M/M/1-style waiting-time
//! estimate over the cluster's controllers and their banks) captures the
//! pressure that makes the paper's *fma3d* and *minighost* prefer M2.

use hoploc_noc::{L2ToMcMapping, NocConfig};

/// Compile-time estimate of an application's memory behaviour, derived
/// from the program (footprint vs. cache capacity, reference counts) or
/// from profiling.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AppProfile {
    /// Estimated off-chip requests issued per core per kilo-cycle.
    pub offchip_per_kcycle: f64,
    /// Fraction of data shared between cores (raises directory and bank
    /// pressure; fma3d/minighost have the highest values in Table 2's
    /// discussion).
    pub sharing_fraction: f64,
}

/// Mean DRAM service time per request, in cycles.
const DRAM_SERVICE_CYCLES: f64 = 60.0;

/// Scores one mapping on a machine whose network is `noc` and whose
/// controllers have `banks_per_mc` banks each: expected off-chip access
/// cost in cycles (lower is better).
pub fn mapping_cost(
    mapping: &L2ToMcMapping,
    profile: &AppProfile,
    noc: &NocConfig,
    banks_per_mc: usize,
) -> f64 {
    // Round-trip network distance to the cluster's controllers, each hop a
    // link plus a router.
    let hop_cost = (noc.hop_cycles + noc.router_cycles) as f64;
    let distance_cost = 2.0 * mapping.avg_distance_to_mc() * hop_cost;

    // Bank pressure: steady-state per-MC load is mapping-independent
    // (cluster size scales with k), so what distinguishes mappings is how
    // a *burst* of outstanding requests spreads over the banks reachable
    // from one cluster (k controllers × B banks each). Sharing inflates
    // the burst (coherence refills target the same rows). Requests beyond
    // the reachable bank count serialize.
    let k = mapping.mcs_per_cluster() as f64;
    let burst = profile.offchip_per_kcycle * (1.0 + profile.sharing_fraction);
    let reachable_banks = k * banks_per_mc as f64;
    let overflow = (burst - reachable_banks).max(0.0);
    let queue_cost = overflow / reachable_banks * DRAM_SERVICE_CYCLES;

    distance_cost + queue_cost
}

/// Picks the best mapping among candidates by [`mapping_cost`] on the same
/// machine; returns its index.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn select_mapping(
    candidates: &[L2ToMcMapping],
    profile: &AppProfile,
    noc: &NocConfig,
    banks_per_mc: usize,
) -> usize {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate mapping"
    );
    candidates
        .iter()
        .enumerate()
        .map(|(i, m)| (i, mapping_cost(m, profile, noc, banks_per_mc)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are finite"))
        .map(|(i, _)| i)
        .expect("non-empty candidates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_noc::{McPlacement, Mesh};

    /// Banks per controller of the simulated machine.
    const BANKS: usize = 8;

    fn m1m2() -> Vec<L2ToMcMapping> {
        let mesh = Mesh::new(8, 8);
        vec![
            L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners),
            L2ToMcMapping::halves(mesh, &McPlacement::Corners),
        ]
    }

    #[test]
    fn light_apps_prefer_m1() {
        // Most applications: modest off-chip pressure → locality wins (§6.2).
        let profile = AppProfile {
            offchip_per_kcycle: 2.0,
            sharing_fraction: 0.1,
        };
        assert_eq!(
            select_mapping(&m1m2(), &profile, &NocConfig::default(), BANKS),
            0
        );
    }

    #[test]
    fn bank_bound_apps_prefer_m2() {
        // fma3d / minighost: much higher memory parallelism demand.
        let profile = AppProfile {
            offchip_per_kcycle: 14.0,
            sharing_fraction: 0.5,
        };
        assert_eq!(
            select_mapping(&m1m2(), &profile, &NocConfig::default(), BANKS),
            1
        );
    }

    #[test]
    fn cost_is_monotone_in_pressure() {
        let m = &m1m2()[0];
        let noc = NocConfig::default();
        let lo = mapping_cost(
            m,
            &AppProfile {
                offchip_per_kcycle: 1.0,
                sharing_fraction: 0.0,
            },
            &noc,
            BANKS,
        );
        let hi = mapping_cost(
            m,
            &AppProfile {
                offchip_per_kcycle: 10.0,
                sharing_fraction: 0.0,
            },
            &noc,
            BANKS,
        );
        assert!(hi > lo);
    }

    #[test]
    fn queue_cost_saturates_not_explodes() {
        let m = &m1m2()[0];
        let profile = AppProfile {
            offchip_per_kcycle: 10_000.0,
            sharing_fraction: 1.0,
        };
        let c = mapping_cost(m, &profile, &NocConfig::default(), BANKS);
        assert!(c.is_finite());
    }
}
