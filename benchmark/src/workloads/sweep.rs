//! `sweep-hit`, `sweep-miss` and `sweep-axes`: cycle simulations through
//! the staged pipeline, one operation per cell.

use std::collections::BTreeMap;
use std::time::Instant;

use super::{check_cell, timed_setup, Failures, Outcome, RepClock, RunOptions};
use crate::span::Tracer;
use crate::surface::{
    app_name, build_apps, estimate_cell, kind_name, machine, run_cell, App, Cell, Counts, Machine,
    RunKind, Stats, Variant,
};
use crate::util::{median, Rng, FNV_SEED};

/// L1 hit 54–98 %, off-chip at most a tenth of accesses at bench scale.
const HIT_APPS: [&str; 8] = [
    "wupwise", "swim", "galgel", "gafort", "art", "ammp", "hpccg", "minimd",
];
/// L1 hit 1–49 %, off-chip 11–39 % of accesses at bench scale. Together
/// with `HIT_APPS` these are the paper's 13 applications.
const MISS_APPS: [&str; 5] = ["mgrid", "applu", "apsi", "fma3d", "minighost"];
/// One hit-heavy and one miss-heavy application.
const AXES_APPS: [&str; 2] = ["swim", "applu"];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    Hit,
    Miss,
    Axes,
}

/// A cell of the canonical list: an index into the built apps, and how the
/// machine is driven.
struct Slot {
    app: usize,
    kind: RunKind,
    variant: Variant,
}

struct Setup {
    apps: Vec<App>,
    /// The machine of every variant the cell list uses.
    machines: Vec<(Variant, Machine)>,
    slots: Vec<Slot>,
}

impl Setup {
    fn machine(&self, v: Variant) -> &Machine {
        let (_, m) = self
            .machines
            .iter()
            .find(|(variant, _)| *variant == v)
            .expect("set-up builds a machine for every variant in the cell list");
        m
    }

    fn cell<'a>(&'a self, slot: &Slot, fault: Option<(u64, u64)>) -> Cell<'a> {
        Cell {
            app: &self.apps[slot.app],
            kind: slot.kind,
            variant: slot.variant,
            fault,
        }
    }

    fn label(&self, slot: &Slot) -> String {
        format!(
            "{}/{}/{}",
            app_name(&self.apps[slot.app]),
            kind_name(slot.kind),
            slot.variant.name()
        )
    }

    /// The first slot of `app` that `pick` accepts.
    fn slot_of(&self, app: usize, pick: impl Fn(&Slot) -> bool) -> Option<usize> {
        self.slots.iter().position(|s| s.app == app && pick(s))
    }
}

fn setup(sweep: Sweep, opts: &RunOptions) -> Setup {
    let names: &[&str] = match sweep {
        Sweep::Hit => &HIT_APPS,
        Sweep::Miss => &MISS_APPS,
        Sweep::Axes => &AXES_APPS,
    };
    let apps = build_apps(opts.scale(), names);
    let mut slots = Vec::new();
    for app in 0..apps.len() {
        if sweep == Sweep::Axes {
            slots.extend(Variant::ALL.map(|variant| Slot {
                app,
                kind: variant.kind(),
                variant,
            }));
        } else {
            slots.extend([RunKind::Baseline, RunKind::Optimized].map(|kind| Slot {
                app,
                kind,
                variant: Variant::Plain,
            }));
        }
    }
    let machines = Variant::ALL
        .into_iter()
        .filter(|v| slots.iter().any(|s| s.variant == *v))
        .map(|v| (v, machine(v)))
        .collect();
    Setup {
        apps,
        machines,
        slots,
    }
}

/// The seeded cell order of one rep. A `faults` cell needs its app's
/// `plain` result for the plan horizon, so `plain` is kept ahead of it.
fn rep_order(setup: &Setup, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..setup.slots.len()).collect();
    rng.shuffle(&mut order);
    for app in 0..setup.apps.len() {
        let place = |v: Variant| {
            let slot = setup.slot_of(app, |s| s.variant == v)?;
            order.iter().position(|&i| i == slot)
        };
        if let (Some(p), Some(f)) = (place(Variant::Plain), place(Variant::Faults)) {
            if f < p {
                order.swap(p, f);
            }
        }
    }
    order
}

/// What the reps produced.
struct Measured {
    /// Every cell's statistics (rep 0's; later reps must equal them).
    stats: Vec<Stats>,
    /// `op_s[cell]`: one wall time per rep.
    op_s: Vec<Vec<f64>>,
    rep_wall_s: Vec<f64>,
    attempted: u64,
    failures: Failures,
    /// The spans of the traced reps.
    trace: Tracer,
    traced_reps: usize,
}

fn measure(setup: &Setup, opts: &RunOptions) -> Measured {
    let n = setup.slots.len();
    let mut failures = Failures::default();
    let mut attempted = 0u64;
    let mut first: Vec<Option<Stats>> = vec![None; n];
    let mut rep_wall_s = Vec::new();
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let mut traced_reps = 0usize;
    let order_rng = Rng::new(opts.seed).fork(0x5eed_0de5);
    let fault_seed = Rng::new(opts.seed).fork(0xfa17).next_u64();

    let clock = RepClock::start(opts);
    let mut rep = 0usize;
    while clock.another(rep) {
        let traced = opts.rep_is_traced(rep);
        traced_reps += traced as usize;
        let tr = if traced { &mut on } else { &mut off };
        let order = rep_order(setup, &mut order_rng.fork(rep as u64));
        let rep_start = Instant::now();
        for &i in &order {
            let slot = &setup.slots[i];
            let fault = (slot.variant == Variant::Faults).then(|| {
                let plain = setup
                    .slot_of(slot.app, |s| s.variant == Variant::Plain)
                    .and_then(|p| first[p].as_ref())
                    .expect("rep_order runs an app's plain cell before its faults cell");
                (fault_seed, plain.counts().exec_cycles)
            });
            let cell = setup.cell(slot, fault);
            let t = Instant::now();
            let span = tr.begin("op", i as u32);
            let stats = run_cell(&cell, setup.machine(slot.variant), i as u32, tr);
            tr.end(span);
            op_s[i].push(t.elapsed().as_secs_f64());
            attempted += 1;

            // An operation fails at most once. The comparison with rep 0
            // covers both "a rep repeats the first" and, in a traced run,
            // "traced equals untraced": rep 0 is always untraced.
            let label = setup.label(slot);
            let ok = check_cell(&label, &stats.counts(), &mut failures);
            match &first[i] {
                None => first[i] = Some(stats),
                Some(reference) if ok && *reference != stats => {
                    failures.fail(format!("{label}: rep {rep} statistics differ from rep 0"));
                }
                Some(_) => {}
            }
        }
        rep_wall_s.push(rep_start.elapsed().as_secs_f64());
        rep += 1;
    }

    Measured {
        stats: first
            .into_iter()
            .map(|s| s.expect("every cell ran in rep 0"))
            .collect(),
        op_s,
        rep_wall_s,
        attempted,
        failures,
        trace: on,
        traced_reps,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metrics of a traced sweep: stage spans per rep, the exact
/// counts, and the derived attribution of `sim.run_s`.
fn layer_metrics(
    sweep: Sweep,
    setup: &Setup,
    opts: &RunOptions,
    m: &mut Measured,
    counts: &[Counts],
    total: &Counts,
) -> BTreeMap<&'static str, f64> {
    // One static estimate per cell, timed on its own: the est tier's speed
    // beside the cycle tier's.
    for (i, slot) in setup.slots.iter().enumerate() {
        let machine = setup.machine(slot.variant);
        let cell = setup.cell(slot, None);
        estimate_cell(&cell, machine, i as u32, "est.estimate", &mut m.trace);
    }
    let trace = &m.trace;
    let reps = m.traced_reps.max(1) as f64;
    let per_rep = |name: &str| trace.total_s(name) / reps;
    let acc = total.accesses as f64;
    let run_s = per_rep("sim.run");
    let gen_s = per_rep("workloads.trace_gen");
    let est_s = trace.total_s("est.estimate");

    let mut layer = BTreeMap::new();
    for (metric, span) in [
        ("layout.pass_s", "layout.pass"),
        ("sim.address_space_s", "sim.address_space"),
        ("workloads.trace_gen_s", "workloads.trace_gen"),
        ("sim.construct_s", "sim.construct"),
        ("sim.run_s", "sim.run"),
        ("sim.teardown_s", "sim.teardown"),
    ] {
        layer.insert(metric, per_rep(span));
    }
    layer.insert("workloads.trace_gen_ns_per_access", gen_s * 1e9 / acc);
    layer.insert("sim.run_ns_per_access", run_s * 1e9 / acc);
    layer.insert("est.estimate_s", est_s);
    layer.insert(
        "est.speedup_vs_sim",
        (gen_s + per_rep("sim.construct") + run_s) / est_s,
    );

    if sweep == Sweep::Axes {
        // sim.run host time per simulated access, variant by variant.
        let per_access = |v: Variant| {
            let (mut ns, mut accesses) = (0.0, 0.0);
            for sp in trace.spans().iter().filter(|sp| sp.name == "sim.run") {
                if setup.slots[sp.op as usize].variant == v {
                    ns += (sp.end_ns - sp.start_ns) as f64;
                    accesses += counts[sp.op as usize].accesses as f64;
                }
            }
            ns / accesses
        };
        for (metric, v) in [
            ("sim.run_ns_per_access.plain", Variant::Plain),
            ("sim.run_ns_per_access.sharedl2", Variant::SharedL2),
            ("sim.run_ns_per_access.gated", Variant::Gated),
            ("sim.run_ns_per_access.faults", Variant::Faults),
            ("sim.run_ns_per_access.writebacks", Variant::Writebacks),
            ("sim.run_ns_per_access.threads2", Variant::Threads2),
            ("sim.run_ns_per_access.page-ft", Variant::PageFt),
            ("sim.run_ns_per_access.traced", Variant::Traced),
        ] {
            layer.insert(metric, per_access(v));
        }
        layer.insert(
            "obs.traced_slowdown",
            per_access(Variant::Traced) / per_access(Variant::Plain),
        );
    }

    let l1_misses = total.accesses - total.l1_hits;
    let l2_misses = l1_misses - total.l2_hits;
    layer.insert("sim_exec_cycles", total.exec_cycles as f64);
    layer.insert("sim.accesses", acc);
    layer.insert("cache.l1_hit_share", share(total.l1_hits, total.accesses));
    layer.insert("cache.l2_hit_share", share(total.l2_hits, l1_misses));
    layer.insert("cache.c2c_share", share(total.c2c, l1_misses));
    layer.insert("mem.offchip_share", share(total.offchip, total.accesses));
    layer.insert("mem.served", total.mc_served as f64);
    layer.insert("mem.dropped", total.mc_dropped as f64);
    layer.insert(
        "mem.row_hit_rate",
        share(total.mc_row_hits, total.mc_served),
    );
    layer.insert("noc.messages", total.noc_messages as f64);
    layer.insert(
        "noc.msgs_per_access",
        share(total.noc_messages, total.accesses),
    );
    layer.insert(
        "noc.avg_offchip_hops",
        share(total.offchip_hops, total.offchip_msgs),
    );
    layer.insert("prefetch.issued", total.pf_issued as f64);
    layer.insert(
        "prefetch.accuracy",
        share(total.pf_accurate, total.pf_issued),
    );
    layer.insert("fault.rehomed", total.rehomed as f64);
    layer.insert("sim.os_fallbacks", total.os_fallbacks as f64);
    layer.insert("sim.backstop_flushes", total.backstop_flushes as f64);

    // Where sim.run_s might go, estimated from outside: each probe's cost
    // per operation times how often this workload performs it. The probes
    // drive synthetic streams, so this is a guide to which layer to look
    // at, not a measurement of it; "rest" is the event heap, dispatch and
    // MSHR bookkeeping that no probe reaches.
    if let Some(p) = &opts.probes {
        let ns = run_s * 1e9;
        let cache = p.l1_access_ns * acc
            + p.l2_access_ns * l1_misses as f64
            + p.directory_lookup_ns * l2_misses as f64;
        let translate = p.os_translate_ns * acc;
        let noc = p.noc_send_ns * total.noc_messages as f64;
        let mem = p.mem_enqueue_poll_ns * (total.mc_served + total.mc_dropped) as f64;
        layer.insert("sim.est_share.cache", cache / ns);
        layer.insert("sim.est_share.translate", translate / ns);
        layer.insert("sim.est_share.noc", noc / ns);
        layer.insert("sim.est_share.mem", mem / ns);
        layer.insert(
            "sim.est_share.rest",
            1.0 - (cache + translate + noc + mem) / ns,
        );
    }
    layer
}

pub fn run(sweep: Sweep, opts: &RunOptions) -> Outcome {
    let (setup, setup_s) = timed_setup(opts, || setup(sweep, opts));
    let mut m = measure(&setup, opts);
    let counts: Vec<Counts> = m.stats.iter().map(Stats::counts).collect();

    // Equal dynamic work across the kinds/variants of an app at equal
    // threads per core: a layout or machine change must not change the
    // access count. Charged to the cell that disagrees.
    for (i, slot) in setup.slots.iter().enumerate() {
        if slot.variant == Variant::Threads2 {
            continue;
        }
        let reference = setup
            .slot_of(slot.app, |s| s.variant != Variant::Threads2)
            .expect("the slot itself qualifies");
        if counts[i].accesses != counts[reference].accesses {
            m.failures.fail(format!(
                "{}: {} accesses, but {} issued {}",
                setup.label(slot),
                counts[i].accesses,
                setup.label(&setup.slots[reference]),
                counts[reference].accesses
            ));
        }
    }

    let mut total = Counts::default();
    let mut digest = FNV_SEED;
    for (s, c) in m.stats.iter().zip(&counts) {
        total.add(c);
        digest = s.digest(digest);
    }

    let mut notes = vec![
        format!(
            "cells {}, simulated accesses/rep {}, simulated exec cycles {} (sum over cells)",
            setup.slots.len(),
            total.accesses,
            total.exec_cycles
        ),
        format!(
            "L1 hit {:.1} %, off-chip {:.1} % of accesses; digest {digest:016x}",
            100.0 * share(total.l1_hits, total.accesses),
            100.0 * share(total.offchip, total.accesses)
        ),
    ];

    // Mean over apps of 1 - optimized/baseline simulated exec cycles.
    let opt_exec_reduction = (sweep != Sweep::Axes).then(|| {
        let per_app = (0..setup.apps.len()).map(|app| {
            let cycles = |kind: RunKind| {
                let i = setup
                    .slot_of(app, |s| s.kind == kind)
                    .expect("both kinds are in the cell list");
                counts[i].exec_cycles as f64
            };
            1.0 - cycles(RunKind::Optimized) / cycles(RunKind::Baseline)
        });
        per_app.sum::<f64>() / setup.apps.len() as f64
    });
    if let Some(r) = opt_exec_reduction {
        notes.push(format!(
            "mean exec-cycle reduction, optimized vs baseline: {:.2} % over {} apps",
            100.0 * r,
            setup.apps.len()
        ));
    }

    // Which cells the time goes to.
    let mut slowest: Vec<(f64, String)> = setup
        .slots
        .iter()
        .zip(&m.op_s)
        .map(|(slot, samples)| (median(samples), setup.label(slot)))
        .collect();
    slowest.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("timings are finite"));
    let slowest: Vec<String> = slowest
        .iter()
        .take(4)
        .map(|(t, label)| format!("{label} {t:.3}"))
        .collect();
    notes.push(format!("slowest cells (median s): {}", slowest.join(", ")));

    let mut layer = BTreeMap::new();
    if opts.traced {
        layer = layer_metrics(sweep, &setup, opts, &mut m, &counts, &total);
        layer.insert("workloads.build_apps_s", setup_s);
        layer.insert("opt_exec_reduction", opt_exec_reduction.unwrap_or(0.0));
    }

    Outcome {
        attempted: m.attempted,
        failures: m.failures,
        setup_s,
        rep_wall_s: m.rep_wall_s,
        work_per_rep: total.accesses as f64,
        op_s: m.op_s,
        digest,
        layer,
        notes,
        trace: opts.traced.then_some(m.trace),
    }
}
