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
//! options (each subcommand accepts exactly the ones it reads — the
//! sets live in `args.rs`; any other flag names the subcommand and lists
//! its valid options). The machine flags (`--page` … `--scale`) build one
//! `hoploc::harness::MachineSpec`, the value a served job carries too:
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
//!                                  advisories in `check` and the
//!                                  `prefetch` block of `--json` records
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
//! exit 1. Wall-clock measurement is `hoploc-perf` (`benchmark/`), not a
//! subcommand.

mod args;

use args::{parse, Options};
use hoploc::check::{
    check_layout, check_program, check_races, count, render_json, render_text, should_fail,
    CheckConfig,
};
use hoploc::est;
use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{fault_topo, parallel_map, render_table, to_json, RunRecord};
use hoploc::layout::{codegen, determine_data_to_core, optimize_program, PassConfig};
use hoploc::obs::{validate_chrome_trace, ObsConfig};
use hoploc::serve::{
    load::{render_report, report_json},
    Client, EngineCaps, LoadConfig, ServeConfig, Server, SuiteEngine,
};
use hoploc::sim::Improvement;
use hoploc::workloads::{all_apps, app_by_name, layout_for, App, RunKind, Scale, APP_NAMES};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

/// Usage errors (bad subcommand, flag, or value) exit with this code;
/// runtime failures exit 1.
const USAGE: u8 = 2;

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
    let layout = layout_for(
        app,
        &o.machine.mapping(),
        &o.machine.sim(),
        RunKind::Optimized,
    );
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
    // The race detector's verdict, the one `hoploc check` reports.
    let races = check_races(&app.program, &CheckConfig::default());
    let nests = app.program.nests().len();
    let clean = (0..nests)
        .filter(|&k| races.iter().all(|d| d.nest != Some(k)))
        .count();
    println!(
        "dependence analysis: {clean}/{nests} nests provably parallel-safe \
         (the rest carry an HL02xx finding; `hoploc check {}` names it)",
        app.name()
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

fn cmd_check(target: &str, o: &Options) -> ExitCode {
    let apps = if target == "all" {
        all_apps(o.machine.scale)
    } else {
        match app_by_name(target, o.machine.scale) {
            Some(app) => vec![app],
            None => {
                eprintln!("unknown application {target}; try `hoploc apps` (or `check all`)");
                return ExitCode::FAILURE;
            }
        }
    };
    let mapping = o.machine.mapping();
    let cfg = CheckConfig::default();
    // All four L2 × granularity configurations, whatever the flags say:
    // the grid the estimator is cross-validated on.
    let configs = est::standard_configs();
    let prefetch = o.machine.prefetch;
    let diags: Vec<_> = parallel_map(&apps, o.jobs, |app| {
        let mut d = check_program(&app.program, &cfg);
        for (label, esim) in &configs {
            let pass = PassConfig {
                l2_mode: esim.l2_mode,
                granularity: esim.granularity,
                ..PassConfig::default()
            };
            let layout = optimize_program(&app.program, &mapping, pass);
            d.extend(check_layout(&app.program, &layout, label, &cfg));
            // Predicted-performance findings (HL10xx) from the static
            // estimator, under the same configuration the legality checks
            // just verified.
            let ecfg = est::EstConfig::from_sim(esim).with_threads_per_core(o.machine.threads);
            d.extend(est::performance_diagnostics(
                app, &layout, &mapping, &ecfg, label,
            ));
            // Prefetch advisories (HL11xx) are opt-in: they judge the
            // *requested* engine, so without --prefetch there is nothing
            // to judge — and HL1102 warnings for an engine nobody asked
            // for would trip --deny warnings gates.
            if prefetch != hoploc::prefetch::PrefetchMode::Off {
                d.extend(est::prefetch_diagnostics(
                    app,
                    &layout,
                    &mapping,
                    &ecfg,
                    label,
                    prefetch.name(),
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
        all_apps(o.machine.scale)
    } else {
        match app_by_name(target, o.machine.scale) {
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
        RunKind::ALL.len(),
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

fn cmd_run(app: App, o: &Options) -> ExitCode {
    let name = app.name().to_string();
    let suite = o.machine.suite(vec![app]);
    let records = suite.run_all(&suite.full_matrix(&o.kinds), o.jobs.min(2));
    let (base, opt) = (&records[0].stats, &records[1].stats);
    let imp = Improvement::between(base, opt);
    println!("== {name} ==");
    println!(
        "{:<22} {:>14} {:>14}",
        "",
        o.kinds[0].name(),
        o.kinds[1].name()
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
        if let Err(e) = emit_json(target, &to_json(&records)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn cmd_links(app: App, o: &Options) {
    let name = app.name().to_string();
    let suite = o.machine.suite(vec![app]);
    let stats = suite.run(&suite.full_matrix(&[o.kinds[1]])[0]).stats;
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

fn cmd_trace(app: App, o: &Options) -> ExitCode {
    let name = app.name().to_string();
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("error: creating {}: {e}", o.out);
        return ExitCode::FAILURE;
    }
    let suite = o.machine.suite(vec![app]);
    let obs = ObsConfig {
        epoch_cycles: o.epoch,
        span_capacity: o.span_cap,
    };
    // One traced run per configuration, fanned across the worker pool.
    let reqs: Vec<_> = suite
        .full_matrix(&o.config)
        .into_iter()
        .map(|r| r.with_obs(obs))
        .collect();
    let records = suite.run_all(&reqs, o.jobs);
    println!("== {name} : request-lifecycle traces ==");
    println!(
        "{:<12} {:>12} {:>10} {:>9} {:>12}",
        "config", "exec cycles", "off-chip", "spans", "p95 latency"
    );
    for r in &records {
        let kind = r.kind.name();
        let report = r
            .report
            .as_ref()
            .expect("every request above asked for a report");
        let stem = format!("{}/{}-{}", o.out, name, kind);
        let outputs = [
            (format!("{stem}.trace.json"), report.chrome_trace_json()),
            (format!("{stem}.metrics.json"), report.metrics_json()),
            (format!("{stem}.links.tsv"), report.links_tsv()),
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
            report.events().len(),
            report.quantile("req.offchip_cycles", 0.95),
        );
        if report.dropped_spans() > 0 {
            println!(
                "  ({} requests past --span-cap kept counters but no spans)",
                report.dropped_spans()
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
    let suite = o.machine.suite(vec![app]);
    let topo = fault_topo(suite.sim());
    // Clean runs first: they are half the comparison, and their length
    // anchors the seeded plan's placement horizon deterministically.
    let reqs = suite.full_matrix(&o.kinds);
    let clean = suite.run_all(&reqs, 1);
    let horizon = clean.iter().map(|r| r.stats.exec_cycles).max().unwrap_or(0);
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
        "{:<12} {:>12} {:>12} {:>9} {:>8} {:>7} {:>9}",
        "kind", "clean cyc", "faulted cyc", "inflation", "retries", "drops", "re-homed"
    );
    let mut records = Vec::new();
    for (req, clean) in reqs.iter().zip(clean) {
        let (kind, clean) = (clean.kind, clean.stats);
        let faulted = suite.run(&req.with_faults(&plan)).stats;
        let retries: u64 = faulted.mc.iter().map(|m| m.retries).sum();
        println!(
            "{:<12} {:>12} {:>12} {:>8.2}% {:>8} {:>7} {:>9}",
            kind.name(),
            clean.exec_cycles,
            faulted.exec_cycles,
            (faulted.exec_cycles as f64 / clean.exec_cycles.max(1) as f64 - 1.0) * 100.0,
            retries,
            faulted.dropped_requests,
            faulted.rehomed_requests,
        );
        records.push(RunRecord::new(&*name, kind, faulted));
    }
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &to_json(&records)) {
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
    let suite = o.machine.suite(all_apps(o.machine.scale));
    let records = suite.run_all(&suite.full_matrix(&o.kinds), o.jobs);
    let napps = suite.apps().len();
    println!(
        "{:<11} {:>9} {:>9} {:>9} {:>9}",
        "app", "on-net", "off-net", "memory", "exec"
    );
    for i in 0..napps {
        // full_matrix orders kinds outermost, apps innermost.
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
    println!("\nper-run statistics ({} workers):", o.jobs);
    print!("{}", render_table(&records));
    if let Some(target) = &o.json {
        if let Err(e) = emit_json(target, &to_json(&records)) {
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
        scale: o.machine.scale,
        kinds: o.kinds.to_vec(),
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
        all_apps(o.machine.scale)
    } else {
        match app_by_name(target, o.machine.scale) {
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
        ..hoploc::search::SearchConfig::new(o.machine.sim(), o.machine.scale)
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
             |links <app>|sweep|search <app|all>|trace <app>\
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
        "apps" => cmd_apps(opts.machine.scale),
        "compile" | "run" | "links" | "trace" | "faults" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            let Some(app) = app_by_name(name, opts.machine.scale) else {
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
        "serve" => return cmd_serve(&opts),
        "load" => return cmd_load(&opts),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
