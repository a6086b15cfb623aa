//! Job specifications and the canonical job key.
//!
//! A job names one cell of the evaluation matrix: an application, a run
//! kind, the [`MachineSpec`] the CLI's flags also build, and an optional
//! fault plan. Two submissions describe *the same* simulation
//! exactly when their [canonical forms](JobSpec::canon) are equal — the
//! server coalesces and caches on that string, so the definition here is
//! the contract that makes duplicate submissions cost one simulation.

use hoploc_fault::FaultPlan;
pub use hoploc_harness::fnv1a;
use hoploc_harness::MachineSpec;
use hoploc_workloads::RunKind;

/// How a job asks for fault injection.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultSpec {
    /// No injection: bit-identical to a fault-free run.
    None,
    /// Generate a moderate-intensity plan from this seed against the
    /// server's machine topology, its windows placed over the cell's clean
    /// run (deterministic: same seed and cell, same plan).
    Seed(u64),
    /// An explicit plan, e.g. parsed from the `hoploc faults` text format.
    Plan(FaultPlan),
}

impl FaultSpec {
    fn canon(&self) -> String {
        match self {
            FaultSpec::None => "none".to_string(),
            FaultSpec::Seed(s) => format!("seed:{s}"),
            // The render/parse pair round-trips plans bit-for-bit, so the
            // rendered text is a faithful canonical encoding.
            FaultSpec::Plan(p) => format!("plan:{}", p.render().replace('\n', "|")),
        }
    }
}

/// How much machinery a job pays for its answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fidelity {
    /// Full cycle simulation (the default; what every pre-fidelity client
    /// implicitly asked for).
    Cycle,
    /// The static estimator (`hoploc-est`): microseconds instead of
    /// seconds, rank-faithful rather than cycle-accurate. Sweeps triage
    /// here and pay for cycle simulation only on the short list.
    Est,
}

impl Fidelity {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Cycle => "cycle",
            Fidelity::Est => "est",
        }
    }

    /// Parses a [`name`](Self::name) back to a tier.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cycle" => Ok(Fidelity::Cycle),
            "est" => Ok(Fidelity::Est),
            other => Err(format!("unknown fidelity {other:?} (use cycle or est)")),
        }
    }
}

/// Parameters of a long-running `search` job: the design-space
/// optimizer runs server-side with progress streamed over `watch`.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchSpec {
    /// Master seed the per-app chain forks from.
    pub seed: u64,
    /// Estimator-evaluation budget.
    pub budget: u32,
    /// Objective canon (`Objective::canon` form, e.g. `offchip+hops`).
    pub objective: String,
}

impl SearchSpec {
    fn canon(&self) -> String {
        format!(
            "seed:{},budget:{},objective:{}",
            self.seed, self.budget, self.objective
        )
    }
}

/// One job: a fully specified simulation request.
#[derive(Clone, PartialEq, Debug)]
pub struct JobSpec {
    /// Application name (as listed by `hoploc apps`).
    pub app: String,
    /// Which side of the comparison to run.
    pub kind: RunKind,
    /// The machine to run on. Its default-valued newer knobs
    /// ([`hoploc_sim::PrefetchMode::Off`]) are canon-absent, so every key
    /// minted before they existed stays byte-stable.
    pub machine: MachineSpec,
    /// Fault injection request.
    pub faults: FaultSpec,
    /// Answer tier: cycle simulation or the static estimator.
    pub fidelity: Fidelity,
    /// Present for the long-running `search` job kind: run the
    /// design-space optimizer for `app` instead of one simulation.
    pub search: Option<SearchSpec>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            app: String::new(),
            kind: RunKind::Baseline,
            machine: MachineSpec::default(),
            faults: FaultSpec::None,
            fidelity: Fidelity::Cycle,
            search: None,
        }
    }
}

/// The canonical identity of a job: the canonical string (the map key the
/// server coalesces and caches on — collision-proof by construction) plus
/// its 64-bit FNV-1a hash (the short id shown on the wire).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobKey {
    /// Canonical field-order-independent encoding of the spec.
    pub canon: String,
    /// FNV-1a of `canon`, displayed as 16 hex digits.
    pub hash: u64,
}

impl JobKey {
    /// The 16-hex-digit display form of the hash.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl JobSpec {
    /// Canonical encoding: every field in a fixed order with fixed value
    /// names. Parsing a submission from JSON with its fields in *any*
    /// order lands here identically, which is what makes the job hash
    /// stable under field reordering (asserted by the property suite).
    ///
    /// The `fidelity` suffix appears only for non-default tiers, so every
    /// key minted before the field existed — cached results, coalescing
    /// entries, client logs — stays byte-for-byte stable (asserted by the
    /// property suite).
    pub fn canon(&self) -> String {
        // The machine's default-absent terms go last, after the job's own.
        let (machine, machine_tail) = self.machine.canon_parts();
        let mut s = format!(
            "app={};kind={};{machine};faults={}",
            self.app,
            self.kind.name(),
            self.faults.canon(),
        );
        if self.fidelity != Fidelity::Cycle {
            s.push_str(";fidelity=");
            s.push_str(self.fidelity.name());
        }
        // Like `fidelity`, the `search` suffix is default-absent: every
        // key minted before the job kind existed stays byte-stable.
        if let Some(search) = &self.search {
            s.push_str(";search=");
            s.push_str(&search.canon());
        }
        s + &machine_tail
    }

    /// The canonical key of this spec.
    pub fn key(&self) -> JobKey {
        let canon = self.canon();
        let hash = fnv1a(canon.as_bytes());
        JobKey { canon, hash }
    }

    /// The configuration part of the canonical form: the machine
    /// ([`MachineSpec::canon`](hoploc_harness::MachineSpec::canon)), without
    /// the application, kind, faults, fidelity or search.
    pub fn config_canon(&self) -> String {
        self.machine.canon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_sim::PrefetchMode;
    use hoploc_workloads::Scale;

    fn spec() -> JobSpec {
        JobSpec {
            app: "swim".into(),
            kind: RunKind::Optimized,
            machine: MachineSpec::at(Scale::Test),
            ..JobSpec::default()
        }
    }

    #[test]
    fn canon_is_deterministic_and_field_sensitive() {
        let a = spec();
        assert_eq!(a.key(), a.clone().key());
        let mut b = a.clone();
        b.kind = RunKind::Baseline;
        assert_ne!(a.canon(), b.canon());
        assert_ne!(a.key().hash, b.key().hash);
        let mut c = a.clone();
        c.faults = FaultSpec::Seed(1);
        assert_ne!(a.canon(), c.canon());
    }

    #[test]
    fn config_canon_ignores_app_kind_and_faults() {
        let a = spec();
        let mut b = a.clone();
        b.app = "mgrid".into();
        b.kind = RunKind::Optimal;
        b.faults = FaultSpec::Seed(9);
        assert_eq!(a.config_canon(), b.config_canon());
        let mut c = a.clone();
        c.machine.threads = 2;
        assert_ne!(a.config_canon(), c.config_canon());
    }

    #[test]
    fn default_fidelity_keeps_pre_fidelity_keys_byte_stable() {
        let a = spec();
        assert_eq!(
            a.canon(),
            "app=swim;kind=optimized;scale=test;gran=cacheline;l2=private;\
             map=m1;threads=1;faults=none",
            "cycle-fidelity canon must not mention fidelity at all"
        );
        let mut b = a.clone();
        b.fidelity = Fidelity::Est;
        assert!(b.canon().ends_with(";fidelity=est"));
        assert_ne!(a.key(), b.key(), "tiers must cache separately");
    }

    #[test]
    fn absent_search_keeps_pre_search_keys_byte_stable() {
        let a = spec();
        assert!(
            !a.canon().contains("search"),
            "non-search canon must not mention search: {}",
            a.canon()
        );
        let mut b = a.clone();
        b.search = Some(SearchSpec {
            seed: 0,
            budget: 400,
            objective: "offchip+hops".into(),
        });
        assert!(
            b.canon()
                .ends_with(";search=seed:0,budget:400,objective:offchip+hops"),
            "{}",
            b.canon()
        );
        assert_ne!(a.key(), b.key(), "search jobs must cache separately");
        let mut c = b.clone();
        c.search.as_mut().unwrap().seed = 1;
        assert_ne!(b.key(), c.key(), "the seed is part of the job identity");
    }

    #[test]
    fn off_prefetch_keeps_pre_prefetch_keys_byte_stable() {
        let a = spec();
        assert_eq!(
            a.canon(),
            "app=swim;kind=optimized;scale=test;gran=cacheline;l2=private;\
             map=m1;threads=1;faults=none",
            "off-prefetch canon must not mention prefetch at all"
        );
        assert!(
            !a.config_canon().contains("prefetch"),
            "off-prefetch config canon must not mention prefetch: {}",
            a.config_canon()
        );
        let mut b = a.clone();
        b.machine.prefetch = PrefetchMode::Gated;
        assert!(b.canon().ends_with(";prefetch=gated"), "{}", b.canon());
        assert!(
            b.config_canon().ends_with(";prefetch=gated"),
            "{}",
            b.config_canon()
        );
        assert_ne!(a.key(), b.key(), "prefetch jobs must cache separately");
        let mut c = b.clone();
        c.machine.prefetch = PrefetchMode::Stride;
        assert_ne!(b.key(), c.key(), "the mode is part of the job identity");
    }

    #[test]
    fn plan_canon_round_trips_through_render() {
        use hoploc_fault::{FaultRates, FaultTopo};
        let topo = FaultTopo {
            links: 256,
            mcs: 4,
            banks_per_mc: 8,
        };
        let plan = FaultPlan::from_seed(3, &topo, &FaultRates::moderate());
        let mut a = spec();
        a.faults = FaultSpec::Plan(plan.clone());
        let mut b = spec();
        b.faults = FaultSpec::Plan(FaultPlan::parse(&plan.render()).unwrap());
        assert_eq!(a.key(), b.key(), "round-tripped plan must key identically");
    }

    #[test]
    fn fidelity_names_round_trip() {
        for f in [Fidelity::Cycle, Fidelity::Est] {
            assert_eq!(Fidelity::parse(f.name()), Ok(f));
        }
        assert!(Fidelity::parse("rtl").is_err());
    }
}
