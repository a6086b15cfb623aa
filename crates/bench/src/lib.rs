//! # hoploc-bench
//!
//! The paper's evaluation as one table. [`FIGURES`] holds an entry per
//! experiment of *Optimizing Off-Chip Accesses in Multicores* (PLDI 2015)
//! — Table 2, Figs. 3–4 and 13–25 — and per study beyond it: four
//! ablations and the resilience sweep. An entry runs its machines and run
//! kinds through [`Suite::run_all`] (Fig. 25's mixes through
//! [`Suite::run_mix`]), reduces them to one [`Table`]
//! and checks the paper's shape on them. An entry whose bench-scale shape
//! differs from the paper's names its DESIGN.md §9 entry.
//!
//! `cargo bench -p hoploc-bench --bench figures [id...]` prints the table
//! at bench scale and ends with the computed summary line;
//! `tests/paper_shapes.rs` checks seven of the shapes at test scale.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use hoploc_fault::{FaultPlan, FaultRates};
use hoploc_harness::{default_jobs, fault_topo, parallel_map, RunRequest, RunSpec, Suite};
use hoploc_layout::{select_mapping, Granularity, L2Mode};
use hoploc_mem::RowPolicy;
use hoploc_noc::{L2ToMcMapping, McPlacement, Mesh};
use hoploc_sim::{Improvement, RunStats, SimConfig};
use hoploc_workloads::{all_apps, mixes, weighted_speedup, App, RunKind, Scale};
use hoploc_workloads::{apsi, fma3d, swim, wupwise};
use Granularity::{CacheLine, Page};
use RunKind::{Baseline, Optimized};

/// One experiment: what it shows, what the paper reports, how to measure it.
pub struct Figure {
    /// The name that selects it on the `figures` command line.
    pub id: &'static str,
    /// What it shows.
    pub caption: &'static str,
    /// The paper's values and claim.
    pub paper: &'static str,
    /// The DESIGN.md §9 entry under which the bench-scale shape deviates
    /// from the paper's, if it does.
    pub deviation: Option<&'static str>,
    /// Runs the experiment at a scale: its rows and its shape predicate's
    /// verdict on them.
    pub measure: fn(Scale) -> Measured,
}

/// What one measurement of a [`Figure`] produced.
pub struct Measured {
    /// The rows, as printed.
    pub table: Table,
    /// The shape predicate: `Ok` when the claim holds; either way the
    /// numbers it read.
    pub shape: Result<String, String>,
}

/// Where a measured shape stands against the paper's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The claim holds.
    Holds,
    /// The claim fails, as the entry's §9 deviation says it does.
    Deviates,
    /// The claim fails unannounced, or holds although registered as a
    /// deviation (flip the registration).
    Fails,
}

impl Figure {
    /// The verdict on one measurement of this entry.
    pub fn verdict(&self, m: &Measured) -> Verdict {
        match (&m.shape, self.deviation) {
            (Ok(_), None) => Verdict::Holds,
            (Err(_), Some(_)) => Verdict::Deviates,
            _ => Verdict::Fails,
        }
    }

    /// The entry as printed: banner, the paper's values, the rows, the
    /// verdict.
    pub fn render(&self, m: &Measured) -> String {
        let (Ok(why) | Err(why)) = &m.shape;
        let verdict = match (self.verdict(m), self.deviation) {
            (Verdict::Holds, _) => "holds".to_string(),
            (Verdict::Deviates, Some(d)) => format!("deviates (DESIGN §9 \"{d}\")"),
            (_, Some(d)) => format!("FAILS: holds, yet is registered under §9 \"{d}\""),
            (_, None) => "FAILS".to_string(),
        };
        let (rule, table) = ("=".repeat(64), m.table.render());
        let (id, caption, paper) = (self.id, self.caption, self.paper);
        format!(
            "\n{rule}\n{id}: {caption}\n{rule}\npaper: {paper}\n{table}shape {verdict}: {why}\n"
        )
    }
}

/// The entry named `id`.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The `figures` bench: measures the entries named in `args` at bench
/// scale — all of them when none is named; flags such as cargo's `--bench`
/// are ignored — prints each, and ends with the summary line. Returns the
/// exit code: 2 for an unknown id (before running anything), 1 when a
/// shape fails, 0 otherwise.
pub fn run_figures(args: impl IntoIterator<Item = String>) -> i32 {
    let ids: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    let mut chosen = Vec::new();
    for id in &ids {
        let Some(fig) = figure(id) else {
            let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            eprintln!("unknown figure {id:?}; known: {}", known.join(" "));
            return 2;
        };
        chosen.push(fig);
    }
    if ids.is_empty() {
        chosen.extend(&FIGURES);
    }
    let mut counts = [0usize; 3];
    for fig in &chosen {
        let m = (fig.measure)(Scale::Bench);
        print!("{}", fig.render(&m));
        counts[fig.verdict(&m) as usize] += 1;
    }
    let ([hold, deviate, fail], total) = (counts, chosen.len());
    print!("\n{hold} of {total} shapes hold, {deviate} deviate (§9)");
    match fail {
        0 => println!(),
        n => println!(", {n} FAIL"),
    }
    i32::from(fail > 0)
}

/// Rows of cells under a header, and note lines under them: the one
/// printer every entry uses.
#[derive(Default)]
pub struct Table {
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    fn new<S: ToString>(head: impl IntoIterator<Item = S>) -> Self {
        let (mut t, head) = (Self::default(), head.into_iter());
        t.rows.push(head.map(|h| h.to_string()).collect());
        t
    }

    fn row(&mut self, label: &str, cells: impl IntoIterator<Item = String>) {
        let row = std::iter::once(label.to_string()).chain(cells);
        self.rows.push(row.collect());
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The header and rows, the first column left-aligned and the others
    /// right-aligned to their widest cell, a rule above an `AVERAGE` row;
    /// then the notes.
    pub fn render(&self) -> String {
        let mut width = Vec::new();
        for row in &self.rows {
            width.resize(width.len().max(row.len()), 0);
            for (w, cell) in width.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for row in &self.rows {
            if row[0] == "AVERAGE" {
                let rule = width.iter().sum::<usize>() + 2 * (width.len() - 1);
                let _ = writeln!(out, "{}", "-".repeat(rule));
            }
            for (i, (cell, w)) in row.iter().zip(&width).enumerate() {
                let _ = match i {
                    0 => write!(out, "{cell:<w$}"),
                    _ => write!(out, "  {cell:>w$}"),
                };
            }
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        out
    }
}

/// The capacity-scaled machine every entry starts from.
fn machine(granularity: Granularity) -> SimConfig {
    let mut sim = SimConfig::scaled();
    sim.granularity = granularity;
    sim
}

/// A suite of `apps` on `sim`, each cluster served by its nearest
/// controllers: M1 (Fig. 8a) under the config's placement.
fn suite(apps: Vec<App>, sim: SimConfig) -> Suite {
    let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    Suite::new(apps, mapping, sim)
}

/// The apps an entry runs: the whole suite, or at test scale `subset`
/// when it names any.
fn apps(scale: Scale, subset: &[fn(Scale) -> App]) -> Vec<App> {
    match scale {
        Scale::Test if !subset.is_empty() => subset.iter().map(|app| app(scale)).collect(),
        _ => all_apps(scale),
    }
}

/// Every app of `s` under each kind, in parallel: `out[kind][app]`.
fn cells(s: &Suite, kinds: &[RunKind]) -> Vec<Vec<RunStats>> {
    let records = s.run_all(&s.full_matrix(kinds), default_jobs());
    let stats: Vec<RunStats> = records.into_iter().map(|r| r.stats).collect();
    stats.chunks(s.apps().len()).map(|c| c.to_vec()).collect()
}

/// Execution-time reduction of `opt` over `base`, in percent.
fn saving(base: &RunStats, opt: &RunStats) -> f64 {
    RunStats::reduction(opt.exec_cycles as f64, base.exec_cycles as f64) * 100.0
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// An entry's result: `table`, and the verdict that the claim `holds`,
/// with the numbers it read.
fn measured(table: Table, holds: bool, why: String) -> Measured {
    let shape = if holds { Ok(why) } else { Err(why) };
    Measured { table, shape }
}

/// The shape of Figs. 20, 21 and 24: savings rise from column to column.
fn rising(cols: &[Vec<f64>]) -> (bool, String) {
    let avgs: Vec<f64> = cols.iter().map(|c| mean(c)).collect();
    let text: Vec<String> = avgs.iter().map(|&a| pct(a)).collect();
    let holds = avgs.windows(2).all(|w| w[0] < w[1]);
    (holds, format!("averages {}", text.join(" -> ")))
}

/// Figs. 4, 14, 16 and 22: the four reductions of `other` over Baseline
/// per app and on average — on-chip net, off-chip net, memory, exec time,
/// as fractions. Returns the table, the runs (`[kind][app]`) and the
/// average.
fn four_metrics(s: &Suite, other: RunKind) -> (Table, Vec<Vec<RunStats>>, [f64; 4]) {
    let runs = cells(s, &[Baseline, other]);
    let mut rows = Vec::new();
    for (b, o) in runs[0].iter().zip(&runs[1]) {
        let i = Improvement::between(b, o);
        rows.push([i.onchip_net, i.offchip_net, i.memory, i.exec_time]);
    }
    let avg = std::array::from_fn(|k| mean(&rows.iter().map(|r| r[k]).collect::<Vec<_>>()));
    let mut t = Table::new(["app", "on-chip net", "off-chip net", "memory", "exec time"]);
    for (app, row) in s.apps().iter().zip(&rows) {
        t.row(app.name(), row.map(|x| pct(x * 100.0)));
    }
    t.row("AVERAGE", avg.map(|x| pct(x * 100.0)));
    (t, runs, avg)
}

/// Runs per suite, kind and app: `[suite][kind][app]`.
type Runs = Vec<Vec<Vec<RunStats>>>;

/// Exec savings of Optimized over Baseline: a column per suite over the
/// same apps, and the average row when there are several apps. Returns
/// the table, the columns and the runs.
fn savings(labels: &[&str], suites: &[Suite]) -> (Table, Vec<Vec<f64>>, Runs) {
    let (mut runs, mut cols): (Runs, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    for s in suites {
        let r = cells(s, &[Baseline, Optimized]);
        cols.push(r[0].iter().zip(&r[1]).map(|(b, o)| saving(b, o)).collect());
        runs.push(r);
    }
    let mut t = Table::new(std::iter::once("app").chain(labels.iter().copied()));
    let apps = suites[0].apps();
    for (a, app) in apps.iter().enumerate() {
        t.row(app.name(), cols.iter().map(|c| pct(c[a])));
    }
    if apps.len() > 1 {
        t.row("AVERAGE", cols.iter().map(|c| pct(mean(c))));
    }
    (t, cols, runs)
}

fn table2(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(CacheLine));
    let mut t = Table::new(["app", "arrays optimized", "references satisfied"]);
    let (mut arrays, mut refs) = (Vec::new(), Vec::new());
    for (a, app) in s.apps().iter().enumerate() {
        let plan = s.layout_plan(a, Optimized);
        arrays.push(plan.arrays_optimized() * 100.0);
        refs.push(plan.refs_satisfied() * 100.0);
        t.row(app.name(), [arrays[a], refs[a]].map(|x| format!("{x:.0}%")));
    }
    let (arrays, refs) = (mean(&arrays), mean(&refs));
    t.row("AVERAGE", [arrays, refs].map(|x| format!("{x:.0}%")));
    let why = format!("{arrays:.0}% of arrays optimized, {refs:.0}% of references satisfied");
    measured(t, arrays == 100.0 && refs >= 80.0, why)
}

fn fig3(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(Page));
    let mut t = Table::new(["app", "off-chip"]);
    let mut shares = Vec::new();
    for (app, st) in s.apps().iter().zip(&cells(&s, &[Baseline])[0]) {
        let share = st.offchip_fraction() * 100.0;
        t.row(app.name(), [pct(share)]);
        shares.push((share, app.name()));
    }
    let avg = mean(&shares.iter().map(|s| s.0).collect::<Vec<_>>());
    t.row("AVERAGE", [pct(avg)]);
    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    let low: Vec<&str> = shares.iter().rev().take(2).map(|s| s.1).collect();
    let why = format!("highest {}, lowest two {low:?}", shares[0].1);
    let holds = shares[0].1 == "fma3d" && low.contains(&"art") && low.contains(&"ammp");
    measured(t, holds, why)
}

fn fig4(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(Page));
    let (table, runs, _) = four_metrics(&s, RunKind::Optimal);
    let pairs = runs[0].iter().zip(&runs[1]);
    let wins = pairs.filter(|(b, o)| o.exec_cycles < b.exec_cycles).count();
    let total = runs[0].len();
    let why = format!("the optimal scheme shortens {wins} of {total} runs (80% needed)");
    measured(table, wins * 10 >= total * 8, why)
}

fn fig13(scale: Scale) -> Measured {
    let sim = machine(CacheLine);
    let width = sim.mesh.width() as usize;
    let s = suite(vec![apsi(scale)], sim);
    let columns = (0..width).map(|x| format!("x{x}"));
    let mut t = Table::new(std::iter::once("MC1 share x100".to_string()).chain(columns));
    let (runs, mut quadrant) = (cells(&s, &[Baseline, Optimized]), [0.0; 2]);
    for (k, label) in ["original", "optimized"].into_iter().enumerate() {
        let shares = runs[k][0].mc_request_shares(0);
        for (y, row) in shares.chunks(width).enumerate() {
            let cells = row.iter().map(|s| format!("{:.1}", s * 100.0));
            t.row(&format!("{label} y{y}"), cells);
        }
        // How much of MC1's traffic comes from its own (top-left) quadrant.
        let top = shares.chunks(width).take(width / 2);
        let own = top.flat_map(|row| &row[..width / 2]).sum::<f64>() * 100.0;
        let note = format!("{label}: top-left quadrant share of MC1 traffic: {own:.1}%");
        t.note(note);
        quadrant[k] = own;
    }
    let [orig, opt] = quadrant;
    let why = format!("top-left quadrant share {orig:.1}% -> {opt:.1}%");
    measured(t, opt > 50.0 && opt > orig, why)
}

fn fig14(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(Page));
    let (table, _, avg) = four_metrics(&s, Optimized);
    let exec = avg[3];
    let why = format!("average exec saving {exec:.3} (0.10..0.32)");
    measured(table, (0.10..0.32).contains(&exec), why)
}

fn fig15(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(CacheLine));
    let runs = cells(&s, &[Baseline, Optimized]);
    // Pooled over every app: on-chip original, on-chip optimized,
    // off-chip original, off-chip optimized.
    let mut cdfs: Vec<Vec<f64>> = Vec::new();
    for (offchip, kind) in [(false, 0), (false, 1), (true, 0), (true, 1)] {
        let mut hist = vec![0u64; runs[0][0].net.on_chip.hop_histogram.len()];
        for st in &runs[kind] {
            let class = [&st.net.on_chip, &st.net.off_chip][usize::from(offchip)];
            hist.iter_mut()
                .zip(&class.hop_histogram)
                .for_each(|(p, n)| *p += n);
        }
        let total = hist.iter().sum::<u64>().max(1) as f64;
        for h in 1..hist.len() {
            hist[h] += hist[h - 1];
        }
        cdfs.push(hist.iter().map(|&c| c as f64 / total).collect());
    }
    let mut t = Table::new(["links", "on orig", "on opt", "off orig", "off opt"]);
    for h in 0..=14 {
        t.row(&h.to_string(), cdfs.iter().map(|c| pct(c[h] * 100.0)));
    }
    let (orig, opt) = (cdfs[2][4] * 100.0, cdfs[3][4] * 100.0);
    let note = format!("off-chip requests within 4 links: {orig:.0}% -> {opt:.0}% optimized");
    t.note(note);
    // The per-app shift, over the apps with real off-chip traffic.
    let (mut n, mut base4, mut opt4) = (0.0, 0.0, 0.0);
    for (b, o) in runs[0].iter().zip(&runs[1]) {
        if b.net.off_chip.messages > 1000 {
            base4 += b.net.off_chip.cdf()[4];
            opt4 += o.net.off_chip.cdf()[4];
            n += 1.0;
        }
    }
    let (base4, opt4) = (base4 / n, opt4 / n);
    let why = format!("per-app share within 4 links {base4:.2} -> {opt4:.2} over {n} apps");
    measured(t, n >= 8.0 && opt4 > base4 + 0.15, why)
}

fn fig16(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(CacheLine));
    let (table, _, avg) = four_metrics(&s, Optimized);
    let (exec, off) = (avg[3], avg[1]);
    let why = format!("average exec saving {exec:.3} (0.12..0.32), off-chip net {off:.3} (> 0.40)");
    measured(table, (0.12..0.32).contains(&exec) && off > 0.40, why)
}

fn fig17(scale: Scale) -> Measured {
    let sim = machine(CacheLine);
    let apps = apps(scale, &[wupwise, fma3d]);
    let m1 = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
    let candidates = [m1, L2ToMcMapping::halves(sim.mesh, &McPlacement::Corners)];
    // At test scale the entry checks the §4 analysis alone, which reads
    // profiles: only bench scale simulates.
    let sims = scale == Scale::Bench;
    let on = |m: usize| Suite::new(apps.clone(), candidates[m].clone(), sim.clone());
    let (on_m1, on_m2) = match sims {
        true => (
            cells(&on(0), &[Baseline, Optimized]),
            cells(&on(1), &[Optimized]),
        ),
        false => (Vec::new(), Vec::new()),
    };
    let mut t = Table::new(["app", "M1", "M2", "compiler"]);
    let (mut m2_wins, mut m2_picks) = (Vec::new(), Vec::new());
    for (a, app) in apps.iter().enumerate() {
        let pick = select_mapping(&candidates, &app.profile, &sim.noc, sim.mc.banks);
        if pick == 1 {
            m2_picks.push(app.name());
        }
        let mut row = vec![String::new(); 2];
        if sims {
            let base = &on_m1[0][a];
            let (v1, v2) = (saving(base, &on_m1[1][a]), saving(base, &on_m2[0][a]));
            if v2 > v1 {
                m2_wins.push(app.name());
            }
            row = vec![pct(v1), pct(v2)];
        }
        row.push(["M1", "M2"][pick].to_string());
        t.row(app.name(), row);
    }
    let why = format!("M2 saves more on {m2_wins:?}; the §4 analysis picks M2 for {m2_picks:?}");
    match scale {
        // M2 for fma3d (high MLP demand), M1 for a regular stencil.
        Scale::Test => measured(t, m2_picks == ["fma3d"], why),
        Scale::Bench => measured(t, m2_wins == ["fma3d", "minighost"], why),
    }
}

fn fig18(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(CacheLine));
    let mut t = Table::new(["app", "occupancy"]);
    let mut occ = Vec::new();
    for (app, st) in s.apps().iter().zip(&cells(&s, &[Optimized])[0]) {
        let o = st.bank_queue_occupancy();
        t.row(app.name(), [format!("{o:.2}")]);
        occ.push((app.name(), o));
    }
    occ.sort_by(|a, b| b.1.total_cmp(&a.1));
    // At test scale the exact ranking shifts with footprints; the robust
    // claim there is that both pressure apps sit in the top half.
    let top = if scale == Scale::Test { 7 } else { 2 };
    let leaders: Vec<&str> = occ.iter().take(top).map(|o| o.0).collect();
    let holds = leaders.contains(&"fma3d") && leaders.contains(&"minighost");
    measured(t, holds, format!("top {top} by occupancy: {leaders:?}"))
}

/// One suite of the whole app set per MC placement (Figs. 19 and 20).
fn placements(scale: Scale, placements: [McPlacement; 3]) -> [Suite; 3] {
    placements.map(|placement| {
        let mut sim = machine(CacheLine);
        sim.placement = placement;
        suite(all_apps(scale), sim)
    })
}

fn fig19(scale: Scale) -> Measured {
    use McPlacement::{Corners, Diagonal, EdgeMidpoints};
    let suites = placements(scale, [Corners, EdgeMidpoints, Diagonal]);
    let (table, cols, _) = savings(&["P1", "P2", "P3"], &suites);
    let [p1, p2, p3] = [0, 1, 2].map(|i| mean(&cols[i]));
    let why = format!("P1 / P2 / P3 average {}", [p1, p2, p3].map(pct).join(" / "));
    measured(table, p2 > p1 && p2 > p3, why)
}

fn fig20(scale: Scale) -> Measured {
    use McPlacement::{Corners, Eight, Sixteen};
    let suites = placements(scale, [Corners, Eight, Sixteen]);
    let (table, cols, _) = savings(&["4", "8", "16"], &suites);
    let (holds, why) = rising(&cols);
    measured(table, holds, why)
}

fn fig21(scale: Scale) -> Measured {
    let suites = [Mesh::new(4, 4), Mesh::new(8, 4), Mesh::new(8, 8)].map(|mesh| {
        let mut sim = machine(CacheLine);
        sim.mesh = mesh;
        suite(apps(scale, &[swim]), sim)
    });
    let (table, cols, _) = savings(&["4x4", "4x8", "8x8"], &suites);
    let (holds, why) = match scale {
        Scale::Test => {
            let (small, large) = (cols[0][0], cols[2][0]);
            let why = format!("swim saves {large:.1}% on 8x8, {small:.1}% on 4x4");
            (large > small - 2.0, why)
        }
        Scale::Bench => rising(&cols),
    };
    measured(table, holds, why)
}

fn fig22(scale: Scale) -> Measured {
    let mut sim = machine(CacheLine);
    sim.l2_mode = L2Mode::Shared;
    let (table, runs, avg) = four_metrics(&suite(apps(scale, &[swim]), sim), Optimized);
    let (holds, why) = match scale {
        Scale::Test => {
            let [b, o] = [0, 1].map(|k| runs[k][0].net.off_chip.avg_hops());
            (o <= b, format!("swim's off-chip hops {b:.2} -> {o:.2}"))
        }
        Scale::Bench => {
            let pairs = runs[0].iter().zip(&runs[1]);
            let faster = pairs.filter(|(b, o)| o.exec_cycles < b.exec_cycles).count();
            let n = runs[0].len();
            let exec = avg[3];
            let why = format!("{faster} of {n} apps run faster, average exec saving {exec:.3}");
            (faster + 1 >= n && exec > 0.0, why)
        }
    };
    measured(table, holds, why)
}

fn fig23(scale: Scale) -> Measured {
    let s = suite(all_apps(scale), machine(Page));
    let runs = cells(&s, &[RunKind::FirstTouch, Optimized]);
    let mut t = Table::new(["app", "vs first-touch", "first-touch friendly"]);
    let (mut gains, mut friendly_off) = (Vec::new(), Vec::new());
    for (a, app) in s.apps().iter().enumerate() {
        let gain = saving(&runs[0][a], &runs[1][a]);
        gains.push(gain);
        if app.first_touch_friendly && gain.abs() >= 10.0 {
            friendly_off.push(app.name());
        }
        let friendly = ["no", "yes"][usize::from(app.first_touch_friendly)];
        t.row(app.name(), [pct(gain), friendly.to_string()]);
    }
    let avg = mean(&gains);
    t.row("AVERAGE", [pct(avg)]);
    let why = format!("average {avg:.1}% (5..25); friendly apps beyond ±10%: {friendly_off:?}");
    let holds = friendly_off.is_empty() && (5.0..25.0).contains(&avg);
    measured(t, holds, why)
}

fn fig24(scale: Scale) -> Measured {
    // The test-scale check compares one and two threads per core.
    let threads = if scale == Scale::Test { 2 } else { 3 };
    let suites: Vec<Suite> = [1, 2, 4][..threads]
        .iter()
        .map(|&t| suite(apps(scale, &[fma3d]), machine(CacheLine)).with_threads_per_core(t))
        .collect();
    let (table, cols, runs) = savings(&["1t", "2t", "4t"][..threads], &suites);
    let (holds, why) = match scale {
        // The mechanism: baseline contention grows with threads per core,
        // on the suite's most memory-intense app.
        Scale::Test => {
            let (one, two) = (&runs[0][0][0], &runs[1][0][0]);
            let net = |s: &RunStats| s.onchip_net_latency() + s.offchip_net_latency();
            let (a, b) = (net(one), net(two));
            let why = format!("fma3d's baseline network latency {a:.1} -> {b:.1}");
            (two.total_accesses == one.total_accesses && b > a, why)
        }
        Scale::Bench => rising(&cols),
    };
    measured(table, holds, why)
}

fn fig25(scale: Scale) -> Measured {
    let mixes: Vec<(String, Suite)> = (mixes(scale).into_iter())
        .map(|(name, apps)| (name, suite(apps, machine(CacheLine))))
        .collect();
    let ws = parallel_map(&mixes, default_jobs(), |(_, s)| {
        let [base, opt] = [Baseline, Optimized].map(|kind| s.run_mix(kind));
        weighted_speedup(&base, &opt)
    });
    let mut t = Table::new(["workload", "weighted speedup", "change"]);
    for ((name, _), w) in mixes.iter().zip(&ws) {
        let change = format!("{:+.1}%", (w - 1.0) * 100.0);
        t.row(name, [format!("{w:.3}"), change]);
    }
    // At test scale one mix may fall short, as long as it stays near parity.
    let (floor, allowed) = [(1.0, 0), (0.98, 1)][usize::from(scale == Scale::Test)];
    let (below, n) = (ws.iter().filter(|&&w| w <= floor).count(), ws.len());
    let why = format!("{below} of {n} mixes at or below {floor} ({allowed} allowed)");
    measured(t, below <= allowed, why)
}

/// An ablation: one app's exec saving on two machines; the shape is
/// `holds(first, second)`.
fn ablation(
    labels: [&str; 2],
    arms: [(App, SimConfig); 2],
    holds: fn(f64, f64) -> bool,
) -> (Measured, Runs) {
    let (table, cols, runs) = savings(&labels, &arms.map(|(app, sim)| suite(vec![app], sim)));
    let (a, b) = (cols[0][0], cols[1][0]);
    let why = format!("{} {} against {} {}", labels[0], pct(a), labels[1], pct(b));
    (measured(table, holds(a, b), why), runs)
}

fn contention(scale: Scale) -> Measured {
    let mut free = machine(CacheLine);
    free.noc.contention = false;
    let arms = [(apsi(scale), machine(CacheLine)), (apsi(scale), free)];
    // The gap is the congestion-relief share of the gains.
    let labels = ["contended links", "contention-free links"];
    ablation(labels, arms, |a, b| a > b).0
}

fn mlp(scale: Scale) -> Measured {
    let arms = [1, 4].map(|mlp| {
        let mut app = wupwise(scale);
        app.mlp = mlp;
        (app, machine(CacheLine))
    });
    let labels = ["blocking cores (mlp=1)", "4 outstanding misses"];
    ablation(labels, arms, |a, b| b > a).0
}

fn writebacks(scale: Scale) -> Measured {
    let mut wb = machine(CacheLine);
    wb.writebacks = true;
    let arms = [(swim(scale), machine(CacheLine)), (swim(scale), wb)];
    let labels = ["without writebacks", "with writebacks"];
    let (mut m, runs) = ablation(labels, arms, |a, b| (a - b).abs() < 5.0);
    let localized = runs[1][1][0].writebacks;
    m.table
        .note(format!("{localized} writebacks localized too"));
    m
}

fn row_policy(scale: Scale) -> Measured {
    let mut closed = machine(CacheLine);
    closed.mc.row_policy = RowPolicy::Closed;
    let arms = [(swim(scale), machine(CacheLine)), (swim(scale), closed)];
    ablation(["open page (FR-FCFS)", "closed page"], arms, |a, b| a >= b).0
}

fn resilience(scale: Scale) -> Measured {
    const SEED: u64 = 42;
    let sim = machine(CacheLine);
    let s1 = suite(all_apps(scale), sim.clone());
    let m2 = L2ToMcMapping::halves(sim.mesh, &McPlacement::Corners);
    let s2 = Suite::new(all_apps(scale), m2, sim);
    let arms = [
        ("baseline", &s1, Baseline),
        ("M1", &s1, Optimized),
        ("M2", &s2, Optimized),
    ];
    let clean = arms.map(|(_, s, kind)| cells(s, &[kind]).remove(0));
    let pooled = |runs: &[RunStats]| runs.iter().map(|s| s.exec_cycles).sum::<u64>();
    let mut t = Table::new([
        "level", "baseline", "M1", "M2", "retries", "drops", "re-homed",
    ]);
    let app_ids: Vec<usize> = (0..s1.apps().len()).collect();
    let n = app_ids.len();
    t.note(format!("plan seed {SEED}; suite pooled over {n} apps"));
    for ((label, ..), runs) in arms.iter().zip(&clean) {
        let cycles = pooled(runs);
        t.note(format!("{label} clean pooled exec: {cycles} cycles"));
    }
    for level in 0..=6u32 {
        let (mut row, mut counters) = (Vec::new(), [0u64; 3]);
        for (arm, ((_, s, kind), clean)) in arms.iter().zip(&clean).enumerate() {
            let topo = fault_topo(s.sim());
            let faulted = parallel_map(&app_ids, default_jobs(), |&app| {
                let rates = FaultRates::at_level(level).with_horizon(clean[app].exec_cycles.max(1));
                let seed = SEED + level as u64 * 1000 + app as u64;
                let plan = FaultPlan::from_seed(seed, &topo, &rates);
                let req = RunRequest::new(RunSpec { app, kind: *kind }).with_faults(&plan);
                s.run(&req).stats
            });
            let inflation = (pooled(&faulted) as f64 / pooled(clean).max(1) as f64 - 1.0) * 100.0;
            row.push(format!("{inflation:.2}%"));
            // The operational counters are the M1 arm's (the paper's
            // default mapping); the other arms see the same plan volume.
            if arm == 1 {
                let retries = faulted.iter().flat_map(|s| &s.mc).map(|m| m.retries).sum();
                let drops = faulted.iter().map(|s| s.dropped_requests).sum();
                let rehomed = faulted.iter().map(|s| s.rehomed_requests).sum();
                counters = [retries, drops, rehomed];
            }
        }
        row.extend(counters.map(|c| c.to_string()));
        t.row(&level.to_string(), row);
    }
    // Level 0's plans are empty, so its inflation must print as exactly 0.
    let level0 = t.rows[1][1..4].join(" / ");
    let holds = level0 == "0.00% / 0.00% / 0.00%";
    measured(t, holds, format!("level 0 inflates by {level0}"))
}

/// Every entry, in the paper's order, then the studies beyond it.
#[rustfmt::skip]
pub static FIGURES: [Figure; 21] = [
    Figure { id: "table2", measure: table2, deviation: None,
        caption: "arrays optimized / references satisfied per application",
        paper: "per-app coverage; unsatisfied references are conflicting sweeps and broadcast operands" },
    Figure { id: "fig3", measure: fig3, deviation: None,
        caption: "off-chip share of dynamic data accesses (baseline, page interleaving)",
        paper: "22.4% on average; fma3d highest, the cache-resident art and ammp lowest" },
    Figure { id: "fig4", measure: fig4, deviation: None,
        caption: "optimal scheme vs baseline (page interleaving)",
        paper: "20.8% / 68.2% / 45.6% / 19.5% average on-chip net / off-chip net / memory / exec" },
    Figure { id: "fig13", measure: fig13, deviation: None,
        caption: "apsi: node-wise distribution of accesses to MC1",
        paper: "original requests come from all over the chip; optimized, from the nearby cores" },
    Figure { id: "fig14", measure: fig14, deviation: None,
        caption: "optimized vs baseline (page interleaving, private L2)",
        paper: "12.1% / 62.8% / 41.9% / 17.1% average on-chip net / off-chip net / memory / exec" },
    Figure { id: "fig15", measure: fig15, deviation: None,
        caption: "CDF of links traversed (pooled over all applications)",
        paper: "off-chip requests within 4 links rise 22% -> 31%; the on-chip CDF barely moves" },
    Figure { id: "fig16", measure: fig16, deviation: None,
        caption: "optimized vs baseline (cache-line interleaving, private L2)",
        paper: "13.6% / 66.4% / 45.8% / 20.5% average on-chip net / off-chip net / memory / exec" },
    Figure { id: "fig17", measure: fig17, deviation: Some("Figure 17"),
        caption: "execution-time savings: M1 vs M2 mappings",
        paper: "M1 wins for 11 of 13 apps; fma3d and minighost prefer M2" },
    Figure { id: "fig18", measure: fig18, deviation: None,
        caption: "bank queue occupancy under M1 (optimized runs)",
        paper: "fma3d and minighost far above the rest" },
    Figure { id: "fig19", measure: fig19, deviation: Some("Figure 19"),
        caption: "execution-time savings under MC placements P1/P2/P3",
        paper: "P2 (edge midpoints) slightly best, ~20.7% on average" },
    Figure { id: "fig20", measure: fig20, deviation: Some("Figure 20"),
        caption: "execution-time savings with 4 / 8 / 16 MCs",
        paper: "savings grow with the MC count" },
    Figure { id: "fig21", measure: fig21, deviation: None,
        caption: "execution-time savings on 4x4 / 4x8 / 8x8 meshes",
        paper: "14% / 18% / 20.5%: savings grow with the mesh" },
    Figure { id: "fig22", measure: fig22, deviation: None,
        caption: "optimized vs baseline (shared SNUCA L2)",
        paper: "24.3% average exec saving, above private L2 except fma3d and minighost" },
    Figure { id: "fig23", measure: fig23, deviation: None,
        caption: "compiler scheme vs OS first-touch (page interleaving)",
        paper: "12.3% on average; about 0 for the first-touch-friendly wupwise, gafort, minimd" },
    Figure { id: "fig24", measure: fig24, deviation: Some("Figure 24"),
        caption: "execution-time savings with 1 / 2 / 4 threads per core",
        paper: "savings grow with threads per core (minighost ~20% at 2 threads)" },
    Figure { id: "fig25", measure: fig25, deviation: None,
        caption: "multiprogrammed mixes: weighted speedup",
        paper: "every mix improves, by 5.4% to 13.1%" },
    Figure { id: "contention", measure: contention, deviation: None,
        caption: "ablation: apsi's exec saving with and without link contention",
        paper: "beyond the paper; its Fig. 15 reading credits part of the gain to congestion relief" },
    Figure { id: "mlp", measure: mlp, deviation: None, paper: "beyond the paper",
        caption: "ablation: wupwise's exec saving with blocking and overlapping cores" },
    Figure { id: "writebacks", measure: writebacks, deviation: None, paper: "beyond the paper",
        caption: "ablation: swim's exec saving with and without writeback traffic" },
    Figure { id: "row-policy", measure: row_policy, deviation: None, paper: "beyond the paper",
        caption: "ablation: swim's exec saving under open- and closed-page DRAM" },
    Figure { id: "resilience", measure: resilience, deviation: None, paper: "beyond the paper",
        caption: "pooled exec-cycle inflation under rising fault levels: baseline vs M1 vs M2" },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_ids_are_unique() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len());
    }

    #[test]
    fn an_unknown_id_exits_nonzero_before_running_anything() {
        let args = ["--bench", "fig16", "fig99"].map(String::from);
        assert_eq!(run_figures(args), 2);
    }
}
