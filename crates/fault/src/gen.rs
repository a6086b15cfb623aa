//! Seeded plan generation: same seed + shape + rates → the same plan,
//! bit for bit, on every host.

use crate::plan::{FaultPlan, FaultTopo, McBankFault, McOutage};
use hoploc_mem::{BankFault, RetryPolicy};
use hoploc_noc::LinkFault;
use hoploc_ptest::SmallRng;

/// Fault-volume knobs for seeded generation. The `at_level` ladder is what
/// the resilience bench sweeps: level 0 is a quiet machine, each level up
/// adds more and harsher windows, and outages appear from level 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultRates {
    /// Number of link-fault windows to place.
    pub link_faults: u32,
    /// Maximum extra cycles per faulted link traversal (≥ 1 when used).
    pub link_extra_max: u64,
    /// Number of bank-fault windows to place.
    pub bank_faults: u32,
    /// Maximum stall cycles per bank window.
    pub bank_stall_max: u64,
    /// Transient-error period inside bank windows (`0` = stalls only).
    pub error_period: u64,
    /// Number of whole-controller outage windows to place.
    pub mc_outages: u32,
    /// Cycle horizon windows are placed within (clamped to ≥ 16).
    pub horizon: u64,
    /// Retry policy the generated plan carries.
    pub retry: RetryPolicy,
}

impl FaultRates {
    /// Intensity ladder: volume and harshness grow with `level`; level 0
    /// generates the empty plan.
    pub fn at_level(level: u32) -> FaultRates {
        FaultRates {
            link_faults: 4 * level,
            link_extra_max: 8 + 4 * level as u64,
            bank_faults: 2 * level,
            bank_stall_max: 32 * level as u64,
            error_period: if level == 0 {
                0
            } else {
                // 128 at level 1, halving down to 2 from level 7 on.
                (256u64 >> level.min(7)).max(2)
            },
            mc_outages: level.saturating_sub(2),
            horizon: 1 << 20,
            retry: RetryPolicy::default(),
        }
    }

    /// The default chaos-suite intensity: stalls, errors, and one outage.
    pub fn moderate() -> FaultRates {
        FaultRates::at_level(3)
    }

    /// Heavy degradation: frequent errors and several outages.
    pub fn severe() -> FaultRates {
        FaultRates::at_level(6)
    }

    /// The same rates with a different placement horizon.
    pub fn with_horizon(self, horizon: u64) -> FaultRates {
        FaultRates { horizon, ..self }
    }
}

impl FaultPlan {
    /// Generates a plan from `seed`. Each fault category draws from its own
    /// forked PRNG stream, so changing one rate never perturbs the windows
    /// of the others.
    pub fn from_seed(seed: u64, topo: &FaultTopo, rates: &FaultRates) -> FaultPlan {
        assert!(
            topo.links > 0 && topo.mcs > 0 && topo.banks_per_mc > 0,
            "fault generation needs a non-degenerate topology"
        );
        let root = SmallRng::seed_from_u64(seed);
        let h = rates.horizon.max(16);
        let mut plan = FaultPlan {
            seed,
            retry: rates.retry,
            ..FaultPlan::none()
        };
        let mut r = root.fork(1);
        for _ in 0..rates.link_faults {
            let from = r.u64_below(h);
            let len = r.u64_in(h / 16..h / 2);
            plan.links.push(LinkFault {
                link: r.u32_in(0..topo.links),
                from,
                until: from.saturating_add(len),
                extra_cycles: r.u64_in(1..rates.link_extra_max.max(1).saturating_add(1)),
            });
        }
        let mut r = root.fork(2);
        for _ in 0..rates.bank_faults {
            let from = r.u64_below(h);
            let len = r.u64_in(h / 16..h / 2);
            plan.banks.push(McBankFault {
                mc: r.u16_in(0..topo.mcs),
                fault: BankFault {
                    bank: r.u16_in(0..topo.banks_per_mc),
                    from,
                    until: from.saturating_add(len),
                    stall_cycles: r.u64_below(rates.bank_stall_max.saturating_add(1)),
                    error_period: rates.error_period,
                },
            });
        }
        let mut r = root.fork(3);
        for _ in 0..rates.mc_outages {
            let from = r.u64_below(h);
            let len = r.u64_in(h / 16..h / 4);
            plan.outages.push(McOutage {
                mc: r.u16_in(0..topo.mcs),
                from,
                until: from.saturating_add(len),
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopo {
        FaultTopo {
            links: 64 * 4,
            mcs: 4,
            banks_per_mc: 8,
        }
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let t = topo();
        for seed in 0..20 {
            let a = FaultPlan::from_seed(seed, &t, &FaultRates::moderate());
            let b = FaultPlan::from_seed(seed, &t, &FaultRates::moderate());
            assert_eq!(a, b, "seed {seed}");
            a.validate(&t).unwrap();
        }
    }

    #[test]
    fn seeds_differ() {
        let t = topo();
        let a = FaultPlan::from_seed(1, &t, &FaultRates::moderate());
        let b = FaultPlan::from_seed(2, &t, &FaultRates::moderate());
        assert_ne!(a, b);
    }

    #[test]
    fn level_zero_is_empty() {
        let p = FaultPlan::from_seed(99, &topo(), &FaultRates::at_level(0));
        assert!(p.is_empty());
    }

    #[test]
    fn levels_monotonically_add_volume() {
        let t = topo();
        let mut last = 0;
        for level in 0..=6 {
            let rates = FaultRates::at_level(level);
            let p = FaultPlan::from_seed(5, &t, &rates);
            let volume = p.links.len() + p.banks.len() + p.outages.len();
            assert!(volume >= last, "level {level} shrank the plan");
            last = volume;
        }
        assert!(last > 0);
    }

    #[test]
    fn categories_draw_from_independent_streams() {
        // Turning outages off must not change the link/bank windows.
        let t = topo();
        let with = FaultPlan::from_seed(7, &t, &FaultRates::severe());
        let without = FaultPlan::from_seed(
            7,
            &t,
            &FaultRates {
                mc_outages: 0,
                ..FaultRates::severe()
            },
        );
        assert_eq!(with.links, without.links);
        assert_eq!(with.banks, without.banks);
        assert!(without.outages.is_empty());
    }
}
