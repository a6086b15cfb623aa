//! `search-triage`: one design-space search per application at test scale,
//! then an untimed estimator-vs-simulator cross-check.

use std::collections::BTreeMap;
use std::time::Instant;

use super::{check_cell, timed_setup, Failures, Outcome, RepClock, RunOptions, ALL_APPS};
use crate::span::Tracer;
use crate::surface::{
    app_name, build_apps, estimate_cell, kind_name, machine, run_cell, search, Cell, RunKind,
    Scale, SearchOutcome, Variant,
};
use crate::util::{fnv1a, spearman, Rng, FNV_SEED};

const KINDS: [RunKind; 4] = [
    RunKind::Baseline,
    RunKind::Optimized,
    RunKind::FirstTouch,
    RunKind::Optimal,
];
const TOP_K: usize = 3;

pub fn run(opts: &RunOptions) -> Outcome {
    // Always test scale: estimator scoring does not depend on scale while
    // the verifying simulations shrink with it, which is what makes this
    // the workload where scoring, not simulating, is most of the time.
    let scale = Scale::Test;
    let budget: u32 = if opts.quick { 60 } else { 1000 };
    let (apps, setup_s) = timed_setup(opts, || build_apps(scale, &ALL_APPS));
    let search_seed = Rng::new(opts.seed).fork(0x5ea6c4).next_u64();
    let order_rng = Rng::new(opts.seed).fork(0x5eed_0de5);

    let mut failures = Failures::default();
    let mut attempted = 0u64;
    let mut first: Vec<Option<SearchOutcome>> = vec![None; apps.len()];
    let mut rep_wall_s = Vec::new();
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let mut traced_reps = 0usize;

    let clock = RepClock::start(opts);
    let mut rep = 0usize;
    while clock.another(rep) {
        let traced = opts.rep_is_traced(rep);
        traced_reps += traced as usize;
        let tr = if traced { &mut on } else { &mut off };
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order_rng.fork(rep as u64).shuffle(&mut order);
        let rep_start = Instant::now();
        for &i in &order {
            let t = Instant::now();
            let op = tr.begin("op", i as u32);
            let span = tr.begin("search.search_app", i as u32);
            let out = search(&apps[i], scale, search_seed, budget, TOP_K);
            tr.end(span);
            tr.end(op);
            op_s[i].push(t.elapsed().as_secs_f64());
            attempted += 1;

            let name = app_name(&apps[i]);
            if out.evaluated < 1 || out.evaluated > budget {
                failures.fail(format!(
                    "{name}: evaluated {} outside 1..={budget}",
                    out.evaluated
                ));
            } else if out.verified < 1 {
                failures.fail(format!("{name}: no verified finalist"));
            } else if first[i].as_ref().is_some_and(|f| *f != out) {
                failures.fail(format!("{name}: rep {rep} report differs from rep 0"));
            }
            first[i].get_or_insert(out);
        }
        rep_wall_s.push(rep_start.elapsed().as_secs_f64());
        rep += 1;
    }

    let outcomes: Vec<&SearchOutcome> = first
        .iter()
        .map(|o| o.as_ref().expect("every app was searched in rep 0"))
        .collect();
    let evals: u64 = outcomes.iter().map(|o| o.evaluated as u64).sum();
    let events: usize = outcomes.iter().map(|o| o.events).sum();
    let paper_best = |o: &SearchOutcome| o.diamond_cycles.min(o.edge_cycles);
    let found_vs_paper = (outcomes
        .iter()
        .map(|o| (paper_best(o) as f64 / o.found_cycles as f64).ln())
        .sum::<f64>()
        / outcomes.len() as f64)
        .exp();
    let wins = outcomes
        .iter()
        .filter(|o| o.found_cycles < paper_best(o))
        .count();
    let mut digest = FNV_SEED;
    for o in &outcomes {
        digest = fnv1a(digest, &o.report_digest.to_le_bytes());
    }

    let mut notes = vec![
        format!(
            "13 searches/rep, budget {budget}, top_k {TOP_K}: {evals} estimator evaluations, {events} progress events"
        ),
        format!(
            "found vs best paper placement (geomean of simulated cycles): {found_vs_paper:.4}, wins {wins}/13; digest {digest:016x}"
        ),
    ];

    let mut layer = BTreeMap::new();
    if opts.traced {
        // Verification lower bound: a budget-1 search still simulates one
        // finalist and the three paper placements, and scores once.
        for (i, app) in apps.iter().enumerate() {
            let span = on.begin("search.verify", i as u32);
            search(app, scale, search_seed, 1, TOP_K);
            on.end(span);
        }

        // Fidelity beside speed: est vs cycle sim over 13 apps x 4 kinds
        // on the sweeps' machine, pooled Spearman rank correlation.
        let m = machine(Variant::Plain);
        let (mut est_off, mut sim_off, mut est_hops, mut sim_hops) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, app) in apps.iter().enumerate() {
            for kind in KINDS {
                let cell = Cell {
                    app,
                    kind,
                    variant: Variant::Plain,
                    fault: None,
                };
                let e = estimate_cell(&cell, &m, i as u32, "est.xval_est", &mut on);
                let span = on.begin("est.xval_sim", i as u32);
                let s = run_cell(&cell, &m, i as u32, &mut off);
                on.end(span);
                let label = format!("xval {}/{}", app_name(app), kind_name(kind));
                check_cell(&label, &s.counts(), &mut failures);
                est_off.push(e.offchip_fraction);
                sim_off.push(s.offchip_fraction());
                est_hops.push(e.hops);
                sim_hops.push(s.avg_offchip_hops());
            }
        }
        let rho_off = spearman(&est_off, &sim_off);
        let rho_hops = spearman(&est_hops, &sim_hops);
        notes.push(format!(
            "est vs sim over 52 cells: rho(off-chip) {rho_off:.4}, rho(hops) {rho_hops:.4}"
        ));

        let reps = traced_reps.max(1) as f64;
        let search_s = on.total_s("search.search_app") / reps;
        let verify_s = on.total_s("search.verify");
        layer.insert("workloads.build_apps_s", setup_s);
        layer.insert("search.search_app_s", search_s);
        layer.insert("search.evals", evals as f64);
        layer.insert("search.evals_per_s", evals as f64 / search_s);
        layer.insert("search.events", events as f64);
        layer.insert("search.verify_s", verify_s);
        layer.insert("search.score_share", 1.0 - verify_s / search_s);
        layer.insert("search.wins_vs_paper", wins as f64);
        layer.insert("search_found_vs_paper", found_vs_paper);
        layer.insert("est_offchip_rank_corr", rho_off);
        layer.insert("est_hops_rank_corr", rho_hops);
        layer.insert("est.xval_est_s", on.total_s("est.xval_est"));
        layer.insert("est.xval_sim_s", on.total_s("est.xval_sim"));
    }

    Outcome {
        attempted,
        failures,
        setup_s,
        rep_wall_s,
        work_per_rep: evals as f64,
        op_s,
        digest,
        layer,
        notes,
        trace: opts.traced.then_some(on),
    }
}
