//! `hoploc` — command-line driver for the PLDI'15 reproduction.
//!
//! ```text
//! hoploc apps                      list the modelled applications
//! hoploc compile <app>             run the layout pass, print coverage + code
//! hoploc check <app|all>           statically verify layouts, races, bounds
//!                                  + predicted-performance findings (HL10xx)
//! hoploc est <app|all> [options]   static off-chip prediction vs cycle-sim
//!                                  ground truth: the full app x kind x
//!                                  config matrix side by side, Spearman
//!                                  rank correlation, self-timed speedup
//! hoploc run <app> [options]       simulate baseline vs optimized
//! hoploc sweep [options]           run the whole suite, one row per app
//! hoploc bench [options]           time every pipeline phase (layout,
//!                                  estimate, simulate) over the suite and
//!                                  emit the wall-clock baseline JSON
//! hoploc search <app|all> [options] seeded design-space search over MC
//!                                  placements, cluster maps, and layout
//!                                  plans: branch-and-bound + simulated
//!                                  annealing scored by the static
//!                                  estimator, top candidates verified by
//!                                  the cycle sim against the paper's
//!                                  corner/edge/diamond placements
//! hoploc trace <app> [options]     simulate with full request-lifecycle
//!                                  tracing; write Chrome-trace JSON
//!                                  (Perfetto-loadable), a metrics snapshot,
//!                                  and a per-link heatmap per configuration
//! hoploc trace-validate <file...>  schema-check Chrome-trace JSON files
//! hoploc faults <app> [options]    simulate under a deterministic fault
//!                                  plan (link latency windows, DRAM bank
//!                                  stalls/transient errors with bounded
//!                                  retry, whole-MC outages with
//!                                  re-homing) and report the degradation
//! hoploc serve [options]           serve simulations over TCP: bounded
//!                                  queue with backpressure, duplicate
//!                                  coalescing, LRU result cache, graceful
//!                                  drain (send "drain" on the connection
//!                                  or type `drain` on stdin)
//! hoploc load [options]            loopback load generator: concurrent
//!                                  clients submit the app x run-kind
//!                                  matrix and report throughput and tail
//!                                  latency
//!
//! `check` proves every layout recipe injective and in-bounds, re-derives
//! the dependence verdicts behind each nest's parallel dimension, and
//! lints accesses against the declared array bounds — over all four
//! layout configurations ({private, shared} × {cacheline, page}) — and
//! reports structured `HLxxxx` diagnostics. Exit status is nonzero on
//! errors (or on warnings too, under `--deny warnings`).
//!
//! options (each subcommand accepts its own subset; an unknown flag
//! names the subcommand and lists the valid options):
//!   --page | --cacheline           interleaving granularity (default cacheline)
//!   --shared                       shared SNUCA L2 instead of private L2s
//!   --m2                           use the M2 (halves, k=2) mapping
//!   --first-touch                  compare against first-touch instead of baseline
//!   --optimal                      run the Section-2 optimal scheme instead
//!   --threads <n>                  threads per core (default 1)
//!   --prefetch <off|stride|stream|gated>
//!                                  per-L2-slice prefetch engine (default
//!                                  off; `gated` throttles by the off-chip
//!                                  predictor). Also turns on the HL11xx
//!                                  advisories in `check` and the pf_*
//!                                  fields in `bench --json`
//!   --scale <test|bench>           problem size (default bench)
//!   --jobs <n>                     worker threads for the suite sweep
//!                                  (default: available parallelism)
//!   --json <path|->                also write a machine-readable JSON
//!                                  summary (- for stdout)
//!   --deny warnings                (check) treat warnings as fatal
//!   --config <kind|all>            (trace) which run kind(s) to trace
//!   --out <dir>                    (trace) output directory (default traces)
//!   --epoch <cycles>               (trace) windowed-series epoch width
//!   --span-cap <n>                 (trace) record spans for the first n
//!                                  requests only (0 = unlimited)
//!   --plan <seed|file>             (faults) a u64 seed or a plan file
//!   --seed <n>                     (search) master seed, forked per app
//!                                  (default 0)
//!   --budget <n>                   (search) estimator evaluations per app
//!                                  (default 400)
//!   --objective <terms>            (search) comma list of offchip, hops,
//!                                  queue, each optionally `name:weight`
//!                                  (default offchip,hops; queue excluded —
//!                                  see DESIGN.md §14)
//!   --addr <host:port>             (serve, load) server address
//!                                  (default 127.0.0.1:7077; port 0 picks
//!                                  a free port and prints it)
//!   --workers <n>                  (serve) job worker threads (default 2)
//!   --queue-cap <n>                (serve) queue capacity before
//!                                  backpressure rejects (default 64)
//!   --cache-cap <n>                (serve) result-cache entries, 0 to
//!                                  disable (default 256)
//!   --timeout-ms <ms>              (serve) per-job wall-clock budget,
//!                                  0 = none (default 0)
//!   --retry-after-ms <ms>          (serve) backoff hint sent with
//!                                  queue_full rejections (default 25)
//!   --metrics-out <path>           (serve) write the final metrics
//!                                  snapshot here after drain
//!   --clients <n>                  (load) concurrent connections (default 4)
//!   --repeat <n>                   (load) submissions per matrix cell
//!                                  (default 2; >1 exercises coalescing)
//!   --max-retries <n>              (load) backpressure retry budget
//!   --drain                        (load) drain the server afterwards
//! ```
//!
//! Usage errors (unknown subcommand/flag/value) exit 2; runtime failures
//! exit 1.

mod args;

use args::{parse, Options};
use hoploc::affine::parallelization_is_legal;
use hoploc::check::{
    check_layout, check_program, count, render_json, render_text, should_fail, CheckConfig,
};
use hoploc::est;
use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{
    fault_topo, kind_name, parallel_map, render_table, to_json, RunRecord, RunSpec, Suite,
};
use hoploc::layout::{
    codegen, determine_data_to_core, optimize_program, Granularity, L2Mode, PassConfig,
};
use hoploc::noc::{L2ToMcMapping, McPlacement, Placement};
use hoploc::obs::{validate_chrome_trace, ObsConfig};
use hoploc::serve::{
    load::{render_report, report_json},
    Client, EngineCaps, LoadConfig, ServeConfig, Server, SuiteEngine,
};
use hoploc::sim::{Improvement, PrefetchConfig, RunStats, SimConfig};
use hoploc::workloads::{all_apps, app_by_name, layout_for, App, RunKind, Scale, APP_NAMES};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

/// Usage errors (bad subcommand, flag, or value) exit with this code;
/// runtime failures exit 1.
const USAGE: u8 = 2;

fn sim(o: &Options) -> SimConfig {
    SimConfig {
        granularity: o.granularity,
        l2_mode: o.l2_mode,
        prefetch: PrefetchConfig::with_mode(o.prefetch),
        ..SimConfig::scaled()
    }
}

fn mapping(o: &Options, sim: &SimConfig) -> L2ToMcMapping {
    let placement = if o.m2 {
        Placement::halves(sim.mesh, &McPlacement::Corners)
    } else {
        Placement::nearest(sim.mesh, &sim.placement)
    };
    placement.into_mapping()
}

/// The (single-app or whole-suite) harness all simulation commands run
/// through, so baseline-class runs share layouts and traces.
fn suite(o: &Options, apps: Vec<App>) -> Suite {
    let sim = sim(o);
    let mapping = mapping(o, &sim);
    Suite::new(apps, mapping, sim).with_threads_per_core(o.threads)
}

/// Writes the JSON summary to the `--json` target (stdout for `-`).
fn emit_json(target: &str, json: &str) -> Result<(), String> {
    if target == "-" {
        print!("{json}");
        Ok(())
    } else {
        std::fs::write(target, json).map_err(|e| format!("writing {target}: {e}"))
    }
}

fn cmd_apps(scale: Scale) {
    println!(
        "{:<11} {:>7} {:>6} {:>8} {:>11} {:>4}",
        "app", "arrays", "nests", "accesses", "ft-friendly", "mlp"
    );
    for app in all_apps(scale) {
        println!(
            "{:<11} {:>7} {:>6} {:>8} {:>11} {:>4}",
            app.name(),
            app.program.arrays().len(),
            app.program.nests().len(),
            app.program.iteration_estimate(),
            if app.first_touch_friendly {
                "yes"
            } else {
                "no"
            },
            app.mlp,
        );
    }
}

fn cmd_compile(app: &App, o: &Options) {
    let sim = sim(o);
    let mapping = mapping(o, &sim);
    let layout = layout_for(app, &mapping, &sim, RunKind::Optimized);
    println!("== {} : layout pass report ==", app.name());
    for r in layout.reports() {
        match (&r.reason, r.optimized) {
            (_, true) => println!(
                "  {:<10} optimized   ({}/{} references satisfied)",
                r.name, r.satisfied_refs, r.total_refs
            ),
            (Some(e), false) => {
                println!("  {:<10} skipped     ({})", r.name, e.render(&app.program))
            }
            (None, false) => println!("  {:<10} skipped", r.name),
        }
    }
    println!(
        "arrays optimized: {:.0}%, references satisfied: {:.0}%",
        layout.arrays_optimized() * 100.0,
        layout.refs_satisfied() * 100.0
    );
    let clean = app
        .program
        .nests()
        .iter()
        .filter(|n| parallelization_is_legal(n))
        .count();
    println!(
        "dependence analysis: {clean}/{} nests provably parallel-safe \
         (the rest rely on halo synchronization outside the model)",
        app.program.nests().len()
    );
    // Render the hottest nest before/after, Figure-9 style.
    if let Some(nest) = app
        .program
        .nests()
        .iter()
        .max_by_key(|n| n.iteration_estimate())
    {
        let d2cs: Vec<_> = (0..app.program.arrays().len())
            .map(|i| determine_data_to_core(&app.program, hoploc::affine::ArrayId(i)).ok())
            .collect();
        println!("\n-- hottest nest, original --");
        print!("{}", codegen::render_original(&app.program, nest));
        println!("-- after Data-to-Core mapping --");
        print!(
            "{}",
            codegen::render_data_to_core(&app.program, nest, &d2cs)
        );
        println!("-- after layout customization --");
        print!(
            "{}",
            codegen::render_customized(&app.program, nest, &d2cs, layout.layouts())
        );
    }
}

/// The four layout configurations `check` verifies for every application.
fn check_configs() -> [(&'static str, PassConfig); 4] {
    let base = PassConfig::default();
    [
        (
            "private/cacheline",
            PassConfig {
                l2_mode: L2Mode::Private,
                granularity: Granularity::CacheLine,
                ..base
            },
        ),
        (
            "private/page",
            PassConfig {
                l2_mode: L2Mode::Private,
                granularity: Granularity::Page,
                ..base
            },
        ),
        (
            "shared/cacheline",
            PassConfig {
                l2_mode: L2Mode::Shared,
                granularity: Granularity::CacheLine,
                ..base
            },
        ),
        (
            "shared/page",
            PassConfig {
                l2_mode: L2Mode::Shared,
                granularity: Granularity::Page,
                ..base
            },
        ),
    ]
}

fn cmd_check(target: &str, o: &Options) -> ExitCode {
    let apps = if target == "all" {
        all_apps(o.scale)
    } else {
        match app_by_name(target, o.scale) {
            Some(app) => vec![app],
            None => {
                eprintln!("unknown application {target}; try `hoploc apps` (or `check all`)");
                return ExitCode::FAILURE;
            }
        }
    };
    let sim = sim(o);
    let mapping = mapping(o, &sim);
    let cfg = CheckConfig::default();
    let configs = check_configs();
    let diags: Vec<_> = parallel_map(&apps, o.jobs, |app| {
        let mut d = check_program(&app.program, &cfg);
        for (label, pass) in &configs {
            let layout = optimize_program(&app.program, &mapping, *pass);
            d.extend(check_layout(&app.program, &layout, label, &cfg));
            // Predicted-performance findings (HL10xx) from the static
            // estimator, under the same configuration the legality checks
            // just verified.
            let esim = SimConfig {
                granularity: pass.granularity,
                l2_mode: pass.l2_mode,
                ..SimConfig::scaled()
            };
            let ecfg = est::EstConfig::from_sim(&esim).with_threads_per_core(o.threads);
            d.extend(est::performance_diagnostics(
                app, &layout, &mapping, &ecfg, label,
            ));
            // Prefetch advisories (HL11xx) are opt-in: they judge the
            // *requested* engine, so without --prefetch there is nothing
            // to judge — and HL1102 warnings for an engine nobody asked
            // for would trip --deny warnings gates.
            if o.prefetch != hoploc::prefetch::PrefetchMode::Off {
                d.extend(est::prefetch_diagnostics(
                    app,
                    &layout,
                    &mapping,
                    &ecfg,
                    label,
                    o.prefetch.name(),
                ));
            }
        }
        d
    })
    .into_iter()
    .flatten()
    .collect();
    print!("{}", render_text(&diags));
    let c = count(&diags);
    println!(
        "checked {} application(s) x {} layout configuration(s): \
         {} error(s), {} warning(s), {} note(s)",
        apps.len(),
        configs.len(),
        c.errors,
        c.warnings,
        c.notes
    );
    if let Some(json_target) = &o.json {
        if let Err(e) = emit_json(json_target, &render_json(&diags)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if should_fail(&diags, o.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_est(target: &str, o: &Options) -> ExitCode {
    let apps = if target == "all" {
        all_apps(o.scale)
    } else {
        match app_by_name(target, o.scale) {
            Some(app) => vec![app],
            None => {
                eprintln!("unknown application {target}; try `hoploc apps` (or `est all`)");
                return ExitCode::FAILURE;
            }
        }
    };
    eprintln!(
        "cross-validating {} app(s) x {} kind(s) x {} config(s) \
         (the simulator pass is the slow half) ...",
        apps.len(),
        est::KINDS.len(),
        est::standard_configs().len()
    );
    let report = est::cross_validate(&apps, o.jobs);
    print!("{}", est::render_text(&report));
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &est::xval_json(&report)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One timed `hoploc bench` phase over the whole (app x kind) matrix.
struct BenchPhase {
    name: &'static str,
    wall_ms: f64,
}

fn cmd_bench(o: &Options) -> ExitCode {
    use std::time::Instant;
    let suite = suite(o, all_apps(o.scale));
    let specs: Vec<RunSpec> = (0..suite.apps().len())
        .flat_map(|a| est::KINDS.iter().map(move |&kind| RunSpec { app: a, kind }))
        .collect();
    let total = Instant::now();
    let mut phases = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        phases.push(BenchPhase {
            name,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        });
    };
    timed("layout", &mut || {
        for s in &specs {
            let _ = suite.layout_plan(s.app, s.kind);
        }
    });
    let cfg = est::EstConfig::from_sim(suite.sim()).with_threads_per_core(o.threads);
    let mut ests = Vec::new();
    timed("estimate", &mut || {
        ests = parallel_map(&specs, o.jobs, |s| {
            let plan = suite.layout_plan(s.app, s.kind);
            est::estimate_app(&suite.apps()[s.app], &plan, suite.mapping(), s.kind, &cfg)
        });
    });
    let mut stats = Vec::new();
    timed("simulate", &mut || {
        stats = parallel_map(&specs, o.jobs, |s| suite.run_one(*s));
    });
    let total_ms = total.elapsed().as_secs_f64() * 1e3;
    println!(
        "== hoploc bench: {} cells ({} apps x {} kinds), {} worker(s) ==",
        specs.len(),
        suite.apps().len(),
        est::KINDS.len(),
        o.jobs
    );
    println!("{:<10} {:>12}", "phase", "wall-clock");
    for p in &phases {
        println!("{:<10} {:>9.1} ms", p.name, p.wall_ms);
    }
    println!(
        "{:<10} {:>9.1} ms   (simulate includes trace generation)",
        "total", total_ms
    );
    if let Some(target) = &o.json {
        let mut json = format!(
            "{{\n  \"scale\": \"{}\",\n  \"jobs\": {},\n  \"cells\": {},\n  \"phases\": [\n",
            if o.scale == Scale::Bench {
                "bench"
            } else {
                "test"
            },
            o.jobs,
            specs.len(),
        );
        for (i, p) in phases.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}}}{}\n",
                p.name,
                p.wall_ms,
                if i + 1 < phases.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "  ],\n  \"total_wall_ms\": {total_ms:.3},\n  \"cells_detail\": [\n"
        ));
        for (i, (spec, (e, st))) in specs.iter().zip(ests.iter().zip(&stats)).enumerate() {
            let mut cell = format!(
                "    {{\"app\": \"{}\", \"kind\": \"{}\", \"exec_cycles\": {}, \
                 \"sim_offchip_fraction\": {:.6}, \"est_offchip_fraction\": {:.6}",
                suite.apps()[spec.app].name(),
                kind_name(spec.kind),
                st.exec_cycles,
                st.offchip_fraction(),
                e.offchip_fraction(),
            );
            // Per-cell prefetch effectiveness, present only when the run
            // actually prefetched (off runs keep pre-prefetch bytes).
            if !st.prefetch.is_empty() {
                cell.push_str(&format!(
                    ", \"pf_issued\": {}, \"pf_accuracy\": {:.6}, \
                     \"pf_coverage\": {:.6}, \"pf_pred_accuracy\": {:.6}",
                    st.prefetch.issued,
                    st.prefetch.accuracy(),
                    st.prefetch.coverage(st.offchip_accesses),
                    st.prefetch.pred_accuracy(),
                ));
            }
            json.push_str(&cell);
            json.push_str(&format!(
                "}}{}\n",
                if i + 1 < specs.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        if let Err(e) = emit_json(target, &json) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The simulator counts firings of its liveness backstop but prints
/// nothing; the commands that own stderr say so, once per run that had any.
fn warn_backstop(app: &str, kind: RunKind, stats: &RunStats) {
    if stats.backstop_flushes > 0 {
        eprintln!(
            "warning[HL0900]: {app}/{}: the event queue drained {} time(s) with requests \
             still in flight; the memory controllers were force-flushed",
            kind_name(kind),
            stats.backstop_flushes
        );
    }
}

fn cmd_run(app: App, o: &Options) -> ExitCode {
    let name = app.name().to_string();
    let suite = suite(o, vec![app]);
    let kinds = [o.baseline_kind(), o.optimized_kind()];
    let records = suite.run_full(&kinds, o.jobs.min(2));
    for r in &records {
        warn_backstop(&r.app, r.kind, &r.stats);
    }
    let (base, opt) = (&records[0].stats, &records[1].stats);
    let imp = Improvement::between(base, opt);
    println!("== {name} ==");
    println!(
        "{:<22} {:>14} {:>14}",
        "",
        format!("{:?}", o.baseline_kind()).to_lowercase(),
        format!("{:?}", o.optimized_kind()).to_lowercase()
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "exec cycles", base.exec_cycles, opt.exec_cycles
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "off-chip accesses", base.offchip_accesses, opt.offchip_accesses
    );
    println!(
        "{:<22} {:>14.2} {:>14.2}",
        "avg off-chip hops",
        base.net.off_chip.avg_hops(),
        opt.net.off_chip.avg_hops()
    );
    println!(
        "{:<22} {:>14.1} {:>14.1}",
        "memory latency (cy)",
        base.memory_latency(),
        opt.memory_latency()
    );
    println!(
        "\nreductions: on-net {:.1}%, off-net {:.1}%, memory {:.1}%, exec {:.1}%",
        imp.onchip_net * 100.0,
        imp.offchip_net * 100.0,
        imp.memory * 100.0,
        imp.exec_time * 100.0
    );
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &to_json(&records, Some(suite.cache_counters()))) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_links(app: App, o: &Options) {
    let name = app.name().to_string();
    let suite = suite(o, vec![app]);
    let stats = suite.run_one(RunSpec {
        app: 0,
        kind: o.optimized_kind(),
    });
    let sim = suite.sim();
    let width = sim.mesh.width() as usize;
    let util = &stats.link_utilization;
    println!("== {name} : per-node max outgoing-link utilization ==");
    for y in 0..sim.mesh.height() as usize {
        for x in 0..width {
            let n = y * width + x;
            let m = (0..4).map(|d| util[n * 4 + d]).fold(0.0f64, f64::max);
            print!("{:>6.2}", m);
        }
        println!();
    }
    let (node, dir, u) = stats.hottest_link();
    let dirs = ["E", "W", "N", "S"];
    println!(
        "hottest link: node {node} -> {} at {:.1}% utilization",
        dirs[dir],
        u * 100.0
    );
}

/// Resolves `--config` into the run kinds to trace.
fn trace_kinds(config: &str) -> Result<Vec<RunKind>, String> {
    let all = [
        RunKind::Baseline,
        RunKind::Optimized,
        RunKind::FirstTouch,
        RunKind::Optimal,
    ];
    if config == "all" {
        return Ok(all.to_vec());
    }
    all.iter()
        .find(|&&k| kind_name(k) == config)
        .map(|&k| vec![k])
        .ok_or_else(|| {
            format!("unknown trace config {config}; use baseline, optimized, first-touch, optimal, or all")
        })
}

fn cmd_trace(app: App, o: &Options) -> ExitCode {
    let name = app.name().to_string();
    let kinds = match trace_kinds(&o.config) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(USAGE);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("error: creating {}: {e}", o.out);
        return ExitCode::FAILURE;
    }
    let suite = suite(o, vec![app]);
    let specs: Vec<RunSpec> = kinds.iter().map(|&kind| RunSpec { app: 0, kind }).collect();
    let obs = ObsConfig {
        record_spans: true,
        epoch_cycles: o.epoch,
        span_capacity: o.span_cap,
        prefetch: o.prefetch != hoploc::prefetch::PrefetchMode::Off,
    };
    // One traced run per configuration, fanned across the worker pool.
    let records = suite.run_matrix_traced(&specs, o.jobs, obs);
    println!("== {name} : request-lifecycle traces ==");
    println!(
        "{:<12} {:>12} {:>10} {:>9} {:>12}",
        "config", "exec cycles", "off-chip", "spans", "p95 latency"
    );
    for r in &records {
        warn_backstop(&name, r.kind, &r.stats);
        let kind = kind_name(r.kind);
        let stem = format!("{}/{}-{}", o.out, name, kind);
        let outputs = [
            (format!("{stem}.trace.json"), r.report.chrome_trace_json()),
            (format!("{stem}.metrics.json"), r.report.metrics_json()),
            (format!("{stem}.links.tsv"), r.report.links_tsv()),
        ];
        for (path, contents) in &outputs {
            if let Err(e) = std::fs::write(path, contents) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!(
            "{:<12} {:>12} {:>10} {:>9} {:>9} cy",
            kind,
            r.stats.exec_cycles,
            r.stats.offchip_accesses,
            r.report.events().len(),
            r.report.quantile("req.offchip_cycles", 0.95),
        );
        if r.report.dropped_spans() > 0 {
            println!(
                "  ({} requests past --span-cap kept counters but no spans)",
                r.report.dropped_spans()
            );
        }
    }
    println!(
        "\nwrote {} file(s) under {}/ — open a .trace.json in https://ui.perfetto.dev",
        3 * records.len(),
        o.out
    );
    ExitCode::SUCCESS
}

/// Resolves `--plan` into a fault plan: a bare u64 seeds moderate-intensity
/// generation with windows placed across `horizon` cycles (so faults land
/// inside the run, whatever its length); anything else is read as a plan
/// text file and used verbatim.
fn resolve_plan(
    o: &Options,
    topo: &hoploc::fault::FaultTopo,
    horizon: u64,
) -> Result<(FaultPlan, String), String> {
    let rates = FaultRates::moderate().with_horizon(horizon);
    let (plan, origin) = match o.plan.as_deref() {
        None => (
            FaultPlan::from_seed(0, topo, &rates),
            "seed 0, moderate".to_string(),
        ),
        Some(s) => match s.parse::<u64>() {
            Ok(seed) => (
                FaultPlan::from_seed(seed, topo, &rates),
                format!("seed {seed}, moderate"),
            ),
            Err(_) => {
                let text = std::fs::read_to_string(s).map_err(|e| format!("reading {s}: {e}"))?;
                (
                    FaultPlan::parse(&text).map_err(|e| format!("{s}: {e}"))?,
                    format!("plan file {s}"),
                )
            }
        },
    };
    plan.validate(topo)
        .map_err(|e| format!("plan does not fit this machine: {e}"))?;
    Ok((plan, origin))
}

fn cmd_faults(app: App, o: &Options) -> ExitCode {
    let name = app.name().to_string();
    let suite = suite(o, vec![app]);
    let topo = fault_topo(suite.sim());
    let kinds = [o.baseline_kind(), o.optimized_kind()];
    // Clean runs first: they are half the comparison, and their length
    // anchors the seeded plan's placement horizon deterministically.
    let clean: Vec<_> = kinds
        .iter()
        .map(|&kind| suite.run_one(RunSpec { app: 0, kind }))
        .collect();
    let horizon = clean.iter().map(|s| s.exec_cycles).max().unwrap_or(0);
    let (plan, origin) = match resolve_plan(o, &topo, horizon) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("== {name} : fault injection ({origin}) ==");
    println!(
        "plan: {} link window(s), {} bank window(s), {} MC outage(s); \
         retry base={} max={} cap={}",
        plan.links.len(),
        plan.banks.len(),
        plan.outages.len(),
        plan.retry.base_backoff,
        plan.retry.max_backoff,
        plan.retry.max_retries
    );
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>8} {:>7} {:>9} {:>9}",
        "kind", "clean cyc", "faulted cyc", "inflation", "retries", "drops", "re-homed", "backstop"
    );
    let mut records = Vec::new();
    for (kind, clean) in kinds.into_iter().zip(clean) {
        let spec = RunSpec { app: 0, kind };
        let faulted = suite.run_one_faulted(spec, &plan);
        warn_backstop(&name, kind, &clean);
        warn_backstop(&name, kind, &faulted);
        let retries: u64 = faulted.mc.iter().map(|m| m.retries).sum();
        println!(
            "{:<12} {:>12} {:>12} {:>8.2}% {:>8} {:>7} {:>9} {:>9}",
            kind_name(kind),
            clean.exec_cycles,
            faulted.exec_cycles,
            (faulted.exec_cycles as f64 / clean.exec_cycles.max(1) as f64 - 1.0) * 100.0,
            retries,
            faulted.dropped_requests,
            faulted.rehomed_requests,
            faulted.backstop_flushes
        );
        records.push(RunRecord {
            app: name.clone(),
            kind,
            stats: faulted,
        });
    }
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &to_json(&records, None)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_trace_validate(files: &[String]) -> ExitCode {
    if files.is_empty() {
        eprintln!("usage: hoploc trace-validate <trace.json...>");
        return ExitCode::from(USAGE);
    }
    let mut ok = true;
    for path in files {
        let contents = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                ok = false;
                continue;
            }
        };
        match validate_chrome_trace(&contents) {
            Ok(s) => println!(
                "{path}: OK — {} span event(s), {} metadata event(s), {} track(s)",
                s.span_events, s.meta_events, s.tracks
            ),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_sweep(o: &Options) -> ExitCode {
    let suite = suite(o, all_apps(o.scale));
    let kinds = [o.baseline_kind(), o.optimized_kind()];
    let records = suite.run_full(&kinds, o.jobs);
    for r in &records {
        warn_backstop(&r.app, r.kind, &r.stats);
    }
    let napps = suite.apps().len();
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9}",
        "app", "on-net", "off-net", "memory", "exec"
    );
    for i in 0..napps {
        // run_full orders kinds outermost, apps innermost.
        let base = &records[i].stats;
        let opt = &records[napps + i].stats;
        let imp = Improvement::between(base, opt);
        println!(
            "{:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            records[i].app,
            imp.onchip_net * 100.0,
            imp.offchip_net * 100.0,
            imp.memory * 100.0,
            imp.exec_time * 100.0
        );
    }
    let c = suite.cache_counters();
    println!("\nper-run statistics ({} workers):", o.jobs);
    print!("{}", render_table(&records));
    println!(
        "caches: {} layout compiles ({} reused), {} trace generations ({} reused)",
        c.layout_misses, c.layout_hits, c.trace_misses, c.trace_hits
    );
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &to_json(&records, Some(c))) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Watches stdin for drain requests: an explicit `drain` line always
/// drains; EOF drains only at an interactive terminal (Ctrl-D), so a
/// server backgrounded with `</dev/null` keeps serving.
fn watch_stdin(core: Arc<hoploc::serve::Core>) {
    use std::io::IsTerminal;
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "drain" {
            core.drain();
            return;
        }
    }
    if interactive {
        core.drain();
    }
}

fn cmd_serve(o: &Options) -> ExitCode {
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    let cfg = ServeConfig {
        workers: o.workers,
        queue_cap: o.queue_cap,
        cache_cap: o.cache_cap,
        job_timeout_ms: o.timeout_ms,
        retry_after_ms: o.retry_after_ms,
    };
    let server = match Server::bind(o.addr.as_str(), engine, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {}: {e}", o.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "hoploc serve: listening on {addr} ({} workers, queue {}, cache {}, timeout {})",
        cfg.workers,
        cfg.queue_cap,
        cfg.cache_cap,
        if cfg.job_timeout_ms == 0 {
            "none".to_string()
        } else {
            format!("{} ms", cfg.job_timeout_ms)
        }
    );
    println!("hoploc serve: send {{\"op\":\"drain\"}} or type `drain` to shut down");
    let core = server.core();
    std::thread::spawn(move || watch_stdin(core));
    let summary = server.run();
    if let Some(path) = &o.metrics_out {
        if let Err(e) = std::fs::write(path, &summary.metrics) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("hoploc serve: metrics snapshot written to {path}");
    }
    println!(
        "hoploc serve: drained — {} job(s) answered, {} simulation(s) executed",
        summary.answered, summary.executed
    );
    ExitCode::SUCCESS
}

fn cmd_load(o: &Options) -> ExitCode {
    let cfg = LoadConfig {
        clients: o.clients,
        repeat: o.repeat,
        scale: o.scale,
        kinds: vec![o.baseline_kind(), o.optimized_kind()],
        max_retries: o.max_retries,
    };
    println!(
        "hoploc load: {} client(s) x ({} apps x {} kinds x {} repeat) against {}",
        cfg.clients,
        APP_NAMES.len(),
        cfg.kinds.len(),
        cfg.repeat,
        o.addr
    );
    let report = match hoploc::serve::run_load(o.addr.as_str(), &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", render_report(&report));
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &report_json(&report)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if o.drain {
        let drained = Client::connect(o.addr.as_str())
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| c.drain());
        match drained {
            Ok((answered, executed, _)) => println!(
                "drain: server answered {answered} job(s), executed {executed} simulation(s)"
            ),
            Err(e) => {
                eprintln!("error: drain: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.failed > 0 {
        eprintln!("error: {} job(s) failed", report.failed);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `hoploc search <app|all>`: seeded design-space search over MC
/// placement, cluster maps, and layout-plan parameters, scored by the
/// static estimator and cycle-sim verified against the paper placements.
fn cmd_search(target: &str, o: &Options) -> ExitCode {
    let objective = match hoploc::search::Objective::parse(&o.objective) {
        Ok(obj) => obj,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(USAGE);
        }
    };
    let apps: Vec<App> = if target == "all" {
        all_apps(o.scale)
    } else {
        match app_by_name(target, o.scale) {
            Some(a) => vec![a],
            None => {
                eprintln!("unknown application {target}; try `hoploc apps`");
                return ExitCode::FAILURE;
            }
        }
    };
    let cfg = hoploc::search::SearchConfig {
        seed: o.seed,
        budget: o.budget,
        objective,
        ..hoploc::search::SearchConfig::new(sim(o), o.scale)
    };
    let results = hoploc::search::search_suite(&apps, &cfg, o.jobs);
    if o.json.as_deref() == Some("-") {
        // Streaming form: progress-event lines then the report line, per
        // app in suite order — byte-identical to a serve `watch` stream
        // of the same seed.
        for (report, events) in &results {
            for e in events {
                println!("{e}");
            }
            println!("{}", report.to_json());
        }
        return ExitCode::SUCCESS;
    }
    println!("{}", hoploc::search::text_header());
    for (report, _) in &results {
        println!("{}", report.text_row());
    }
    let wins = results
        .iter()
        .filter(|(r, _)| r.beats_diamond() && r.beats_edge())
        .count();
    println!(
        "\nseed {}, budget {}: found designs beat both paper placements \
         (diamond and edge) on {wins}/{} app(s)",
        cfg.seed,
        cfg.budget,
        results.len()
    );
    let (simulated, requested) = results.iter().fold((0, 0), |(s, q), (r, _)| {
        (s + r.simulated, q + r.requested())
    });
    println!("verification: {simulated} of {requested} runs simulated");
    if let Some(target) = &o.json {
        let mut out = String::new();
        for (report, events) in &results {
            for e in events {
                out.push_str(e);
                out.push('\n');
            }
            out.push_str(&report.to_json());
            out.push('\n');
        }
        if let Err(e) = emit_json(target, &out) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!(
            "usage: hoploc <apps|compile <app>|check <app|all>|est <app|all>|run <app>\
             |links <app>|sweep|bench|search <app|all>|trace <app>\
             |trace-validate <file...>|faults <app>|serve|load> [options]"
        );
        eprintln!("see the module docs (or README.md) for the option list");
        ExitCode::from(USAGE)
    };
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    if cmd == "trace-validate" {
        return cmd_trace_validate(&args[1..]);
    }
    // Subcommands with a positional argument parse options after it.
    let rest_start = match cmd.as_str() {
        "compile" | "run" | "links" | "check" | "est" | "search" | "trace" | "faults" => 2,
        _ => 1,
    };
    let opts = match parse(&cmd, &args[rest_start.min(args.len())..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(USAGE);
        }
    };
    match cmd.as_str() {
        "apps" => cmd_apps(opts.scale),
        "compile" | "run" | "links" | "trace" | "faults" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(app) = app_by_name(name, opts.scale) else {
                eprintln!("unknown application {name}; try `hoploc apps`");
                return ExitCode::FAILURE;
            };
            match cmd.as_str() {
                "compile" => cmd_compile(&app, &opts),
                "links" => cmd_links(app, &opts),
                "trace" => return cmd_trace(app, &opts),
                "faults" => return cmd_faults(app, &opts),
                _ => return cmd_run(app, &opts),
            }
        }
        "check" => {
            let Some(target) = args.get(1) else {
                return usage();
            };
            return cmd_check(target, &opts);
        }
        "est" => {
            let Some(target) = args.get(1) else {
                return usage();
            };
            return cmd_est(target, &opts);
        }
        "search" => {
            let Some(target) = args.get(1) else {
                return usage();
            };
            return cmd_search(target, &opts);
        }
        "sweep" => return cmd_sweep(&opts),
        "bench" => return cmd_bench(&opts),
        "serve" => return cmd_serve(&opts),
        "load" => return cmd_load(&opts),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
