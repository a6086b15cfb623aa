//! Plan types, validation, and per-component compilation.

use hoploc_mem::{BankFault, McFaults, RetryPolicy};
use hoploc_noc::LinkFault;

/// A whole-controller outage window: while `from <= cycle < until`, no new
/// request may be routed to controller `mc`. Requests already queued there
/// when the window opens are still drained — the outage is a routing-time
/// decision, modelling the OS fencing a failing controller off the
/// interleave rather than losing its queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct McOutage {
    /// Controller index.
    pub mc: u16,
    /// First cycle of the window (inclusive).
    pub from: u64,
    /// End of the window (exclusive).
    pub until: u64,
}

impl McOutage {
    /// Whether the controller is dark at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }
}

/// A [`BankFault`] pinned to one controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct McBankFault {
    /// Controller index.
    pub mc: u16,
    /// The bank-fault window on that controller.
    pub fault: BankFault,
}

/// Static shape a plan targets, used for validation and seeded generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultTopo {
    /// Directed link count (`nodes * 4`).
    pub links: u32,
    /// Number of memory controllers.
    pub mcs: u16,
    /// DRAM banks per controller.
    pub banks_per_mc: u16,
}

/// A complete, deterministic fault plan.
///
/// # Examples
///
/// ```
/// use hoploc_fault::{FaultPlan, FaultRates, FaultTopo};
///
/// let topo = FaultTopo { links: 64 * 4, mcs: 4, banks_per_mc: 8 };
/// let plan = FaultPlan::from_seed(7, &topo, &FaultRates::moderate());
/// assert_eq!(plan, FaultPlan::from_seed(7, &topo, &FaultRates::moderate()));
/// plan.validate(&topo).unwrap();
/// let round = FaultPlan::parse(&plan.render()).unwrap();
/// assert_eq!(plan, round);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Seed mixed into transient-error decisions (and recorded by
    /// [`FaultPlan::from_seed`] for provenance).
    pub seed: u64,
    /// Link-fault windows.
    pub links: Vec<LinkFault>,
    /// Bank-fault windows, each pinned to a controller.
    pub banks: Vec<McBankFault>,
    /// Whole-controller outage windows.
    pub outages: Vec<McOutage>,
    /// Retry/backoff policy for transient bank errors.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: provably inert when installed.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            links: Vec::new(),
            banks: Vec::new(),
            outages: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.banks.is_empty() && self.outages.is_empty()
    }

    /// The fault inputs for controller `mc`: its bank windows plus the
    /// plan-wide seed and retry policy.
    pub fn mc_faults(&self, mc: u16) -> McFaults {
        McFaults {
            seed: self.seed,
            banks: self
                .banks
                .iter()
                .filter(|b| b.mc == mc)
                .map(|b| b.fault)
                .collect(),
            retry: self.retry,
        }
    }

    /// Checks every window against the target shape: link/mc/bank indices
    /// in range, `from < until`, and a sane retry policy.
    pub fn validate(&self, topo: &FaultTopo) -> Result<(), String> {
        for (i, l) in self.links.iter().enumerate() {
            if l.link >= topo.links {
                return Err(format!(
                    "link fault {i}: link {} out of range (mesh has {} directed links)",
                    l.link, topo.links
                ));
            }
            if l.from >= l.until {
                return Err(format!(
                    "link fault {i}: empty window {}..{}",
                    l.from, l.until
                ));
            }
        }
        for (i, b) in self.banks.iter().enumerate() {
            if b.mc >= topo.mcs {
                return Err(format!(
                    "bank fault {i}: mc {} out of range ({} controllers)",
                    b.mc, topo.mcs
                ));
            }
            if b.fault.bank >= topo.banks_per_mc {
                return Err(format!(
                    "bank fault {i}: bank {} out of range ({} banks per controller)",
                    b.fault.bank, topo.banks_per_mc
                ));
            }
            if b.fault.from >= b.fault.until {
                return Err(format!(
                    "bank fault {i}: empty window {}..{}",
                    b.fault.from, b.fault.until
                ));
            }
        }
        for (i, o) in self.outages.iter().enumerate() {
            if o.mc >= topo.mcs {
                return Err(format!(
                    "outage {i}: mc {} out of range ({} controllers)",
                    o.mc, topo.mcs
                ));
            }
            if o.from >= o.until {
                return Err(format!("outage {i}: empty window {}..{}", o.from, o.until));
            }
        }
        if self.retry.max_backoff < self.retry.base_backoff {
            return Err(format!(
                "retry: max_backoff {} < base_backoff {}",
                self.retry.max_backoff, self.retry.base_backoff
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopo {
        FaultTopo {
            links: 16,
            mcs: 2,
            banks_per_mc: 4,
        }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        p.validate(&topo()).unwrap();
        assert!(p.mc_faults(0).banks.is_empty());
    }

    #[test]
    fn mc_faults_filters_by_controller() {
        let f = BankFault {
            bank: 1,
            from: 0,
            until: 10,
            stall_cycles: 5,
            error_period: 0,
        };
        let p = FaultPlan {
            banks: vec![
                McBankFault { mc: 0, fault: f },
                McBankFault { mc: 1, fault: f },
                McBankFault { mc: 0, fault: f },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(p.mc_faults(0).banks.len(), 2);
        assert_eq!(p.mc_faults(1).banks.len(), 1);
    }

    #[test]
    fn outage_windows_are_half_open() {
        let o = McOutage {
            mc: 1,
            from: 100,
            until: 200,
        };
        assert!(!o.active_at(99));
        assert!(o.active_at(100));
        assert!(o.active_at(199));
        assert!(!o.active_at(200));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let t = topo();
        let bad_link = FaultPlan {
            links: vec![LinkFault {
                link: 16,
                from: 0,
                until: 1,
                extra_cycles: 1,
            }],
            ..FaultPlan::none()
        };
        assert!(bad_link.validate(&t).is_err());
        let empty_window = FaultPlan {
            outages: vec![McOutage {
                mc: 0,
                from: 5,
                until: 5,
            }],
            ..FaultPlan::none()
        };
        assert!(empty_window.validate(&t).is_err());
        let bad_bank = FaultPlan {
            banks: vec![McBankFault {
                mc: 0,
                fault: BankFault {
                    bank: 4,
                    from: 0,
                    until: 1,
                    stall_cycles: 0,
                    error_period: 0,
                },
            }],
            ..FaultPlan::none()
        };
        assert!(bad_bank.validate(&t).is_err());
        let bad_retry = FaultPlan {
            retry: RetryPolicy {
                base_backoff: 100,
                max_backoff: 10,
                max_retries: 1,
            },
            ..FaultPlan::none()
        };
        assert!(bad_retry.validate(&t).is_err());
    }
}
