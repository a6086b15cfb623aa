//! Frozen recording of one run: metric access and the metrics-snapshot /
//! link-heatmap exporters.
//!
//! All exports are deterministic: metrics serialize in registration order,
//! events in a stable per-track order, and every number comes from sim-cycle
//! arithmetic — so two runs of the same workload produce byte-identical
//! output regardless of host threading.

use crate::event::SpanEvent;
use crate::hist::Histogram;
use crate::json::{Floats, JsonWriter};
use crate::registry::{Registry, WindowMode};
use crate::sink::{ObsConfig, Topology};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Immutable result of a traced run. Plain data: freely `Send` across the
/// harness's worker threads.
#[derive(Debug)]
pub struct ObsReport {
    pub(crate) topo: Topology,
    pub(crate) config: ObsConfig,
    pub(crate) exec_cycles: u64,
    pub(crate) reg: Registry,
    pub(crate) events: Vec<SpanEvent>,
    pub(crate) dropped_spans: u64,
}

/// The event log of the largest report dropped so far, emptied, for the
/// next recording to write into: a traced run writes tens of MB of span
/// events, and each page of fresh memory faults in on its first write.
pub(crate) static SPARE_EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

impl Drop for ObsReport {
    fn drop(&mut self) {
        let mut spare = SPARE_EVENTS.lock().unwrap();
        if spare.capacity() < self.events.capacity() {
            self.events.clear();
            *spare = std::mem::take(&mut self.events);
        }
    }
}

/// Direction letters matching the NoC's link encoding (`node*4 + dir`).
pub const DIR_LETTERS: [char; 4] = ['E', 'W', 'N', 'S'];

impl ObsReport {
    /// Machine shape this run was recorded on.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The underlying metric registry.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// All recorded span events, in recording order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Requests whose spans were dropped by the span capacity cap.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// A scalar counter's value.
    ///
    /// # Panics
    ///
    /// Panics if the counter was never registered (a typo in the caller).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_family(name)[0]
    }

    /// An indexed counter family's slots.
    ///
    /// # Panics
    ///
    /// Panics if the family was never registered.
    pub fn counter_family(&self, name: &str) -> &[u64] {
        self.reg
            .counter_family(name)
            .unwrap_or_else(|| panic!("unknown obs counter {name:?}"))
    }

    /// Latency quantile of a named histogram (e.g. `"req.offchip_cycles"`).
    pub fn quantile(&self, hist: &str, q: f64) -> u64 {
        self.hist(hist).quantile(q)
    }

    fn hist(&self, name: &str) -> &Histogram {
        self.reg
            .histogram(name)
            .unwrap_or_else(|| panic!("unknown obs histogram {name:?}"))
    }

    // ---- exporters --------------------------------------------------------

    /// Stable JSON metrics snapshot: meta, counters, gauges, histograms
    /// (with exact-bucket p50/p95/p99), and windowed series, in registration
    /// order. Byte-identical across identical runs.
    pub fn metrics_json(&self) -> String {
        let mut w = JsonWriter::spaced();
        w.key("meta")
            .obj()
            .field("mesh_width", self.topo.mesh_width)
            .field("mesh_height", self.topo.mesh_height)
            .field("nodes", self.topo.nodes())
            .field("mcs", self.topo.mcs)
            .field("banks_per_mc", self.topo.banks_per_mc)
            .field("exec_cycles", self.exec_cycles)
            .field("epoch_cycles", self.config.epoch_cycles.max(1))
            // Spans are always recorded; the key stays because every
            // pinned snapshot carries it.
            .field("record_spans", true)
            .field("span_capacity", self.config.span_capacity)
            .field("events", self.events.len())
            .field("dropped_spans", self.dropped_spans)
            .end_obj();
        let meta = w.take();
        format!(
            "{{\n{meta},\n{}\n}}\n",
            registry_sections_json(&self.reg, false)
        )
    }

    /// Per-link heatmap dump: one TSV row per directed link with its flit
    /// cycles, wait cycles, and utilization over the run.
    pub fn links_tsv(&self) -> String {
        let flits = self.counter_family("net.link.flit_cycles");
        let waits = self.counter_family("net.link.wait_cycles");
        let e = self.exec_cycles.max(1) as f64;
        let w = self.topo.mesh_width;
        let mut s = String::from("node\tx\ty\tdir\tflit_cycles\twait_cycles\tutilization\n");
        for link in 0..self.topo.links() {
            let node = link / 4;
            let dir = DIR_LETTERS[link % 4];
            let _ = writeln!(
                s,
                "{node}\t{}\t{}\t{dir}\t{}\t{}\t{}",
                node % w,
                node / w,
                flits[link],
                waits[link],
                flits[link] as f64 / e,
            );
        }
        s
    }

    /// Chrome trace-event JSON (see [`crate::chrome`]).
    pub fn chrome_trace_json(&self) -> String {
        crate::chrome::chrome_trace_json(self)
    }
}

/// The `"counters"/"gauges"/"histograms"/"series"` sections of a metrics
/// snapshot, in registration order — shared between [`ObsReport::metrics_json`]
/// (which prepends run metadata) and [`Registry::snapshot_json`] (standalone
/// registries, e.g. the `hoploc-serve` server metrics). Spaced, each section
/// holds one family per line and a histogram's buckets are joined by a bare
/// comma; `one_line`, the same members are compact, with no line breaks.
pub(crate) fn registry_sections_json(reg: &Registry, one_line: bool) -> String {
    let (w, nl) = if one_line {
        (JsonWriter::compact(), "")
    } else {
        (JsonWriter::spaced(), "\n")
    };
    let mut w = w.floats(Floats::Shortest);
    let counters: Vec<String> = (reg.counters.iter())
        .map(|f| w.key(f.name).items(&f.vals).take())
        .collect();
    let gauges: Vec<String> = (reg.gauges.iter())
        .map(|f| w.key(f.name).items(&f.vals).take())
        .collect();
    let hists: Vec<String> = (reg.hists.iter())
        .map(|(name, h)| {
            let buckets: Vec<String> = (h.nonzero_buckets())
                .map(|(lo, hi, c)| w.items([lo, hi, c]).take())
                .collect();
            (w.key(name).obj())
                .field("count", h.count())
                .field("min", h.min())
                .field("max", h.max())
                .field("mean", h.mean())
                .field("p50", h.quantile(0.50))
                .field("p95", h.quantile(0.95))
                .field("p99", h.quantile(0.99))
                .key("buckets")
                .raw(&format!("[{}]", buckets.join(",")))
                .end_obj()
                .take()
        })
        .collect();
    let series: Vec<String> = (reg.series.iter())
        .map(|s| {
            let mode = match s.mode {
                WindowMode::Add => "add",
                WindowMode::Max => "max",
            };
            (w.key(s.name).obj())
                .field("epoch_cycles", s.epoch_cycles)
                .field("mode", mode)
                .key("values")
                .items(&s.vals)
                .end_obj()
                .take()
        })
        .collect();
    [
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", hists),
        ("series", series),
    ]
    .map(|(section, families)| {
        let lines: Vec<String> = families.iter().map(|f| format!("{nl}{f}")).collect();
        let body = format!("{{{}}}", lines.join(","));
        w.key(section).raw(&body).take()
    })
    .join(&format!(",{nl}"))
}

impl Registry {
    /// Stable JSON snapshot of a standalone registry: counters, gauges,
    /// histograms (with exact-bucket p50/p95/p99), and windowed series, in
    /// registration order — the same section format as
    /// [`ObsReport::metrics_json`], without the per-run metadata. Used for
    /// registries that outlive any single simulation, such as the
    /// `hoploc-serve` server metrics.
    pub fn snapshot_json(&self) -> String {
        format!("{{\n{}\n}}\n", registry_sections_json(self, false))
    }

    /// [`snapshot_json`](Self::snapshot_json) on one line with compact
    /// separators: the form the serve wire splices into its replies.
    pub fn snapshot_line(&self) -> String {
        format!("{{{}}}", registry_sections_json(self, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::sink::{Sink, HOP_HIST_LEN};

    fn topo() -> Topology {
        Topology {
            mesh_width: 2,
            mesh_height: 2,
            mcs: 1,
            banks_per_mc: 2,
        }
    }

    fn small_report() -> ObsReport {
        let s = Sink::recording(
            topo(),
            ObsConfig {
                epoch_cycles: 64,
                ..ObsConfig::default()
            },
        );
        let tag = s.begin_req(0, 1);
        s.offchip(tag, 0);
        s.bind_token(9, tag);
        s.hop(4, 2, 1, 4, tag);
        s.bank_service(0, 1, 9, 5, 8, 40, true, 0);
        s.retire(tag, 50);
        // What the simulator copies in from its components.
        s.set_counters("sim.offchip", &[1]);
        let mut flits = [0; 16];
        flits[4] = 4;
        s.set_counters("net.link.flit_cycles", &flits);
        s.into_report(100).unwrap()
    }

    #[test]
    fn metrics_json_is_valid_and_stable() {
        let rep = small_report();
        let a = rep.metrics_json();
        let b = rep.metrics_json();
        assert_eq!(a, b);
        let v = parse(&a).expect("snapshot must be valid JSON");
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters
                .get("sim.offchip")
                .and_then(|c| c.index(0))
                .and_then(|x| x.as_u64()),
            Some(1)
        );
        let meta = v.get("meta").expect("meta object");
        assert_eq!(meta.get("exec_cycles").and_then(|x| x.as_u64()), Some(100));
    }

    #[test]
    fn links_tsv_has_one_row_per_directed_link() {
        let rep = small_report();
        let tsv = rep.links_tsv();
        let rows: Vec<&str> = tsv.lines().collect();
        assert_eq!(rows.len(), 1 + rep.topology().links());
        assert!(
            rows[1 + 4].starts_with("1\t1\t0\tE\t4\t1\t"),
            "link 4 = node 1 east: {}",
            rows[5]
        );
    }

    #[test]
    fn empty_report_derivations_are_zero() {
        let s = Sink::recording(topo(), ObsConfig::default());
        let rep = s.into_report(0).unwrap();
        assert!(rep
            .counter_family("mc.queue_cycles")
            .iter()
            .all(|&c| c == 0));
        assert!(rep
            .counter_family("sim.node_mc_requests")
            .iter()
            .all(|&c| c == 0));
        assert_eq!(rep.counter("sim.offchip"), 0);
    }

    #[test]
    fn standalone_registry_snapshot_is_valid_json() {
        let mut r = Registry::new();
        let c = r.counter("serve.submitted", 1);
        let g = r.gauge("serve.queue_depth", 1);
        let h = r.hist("serve.job_wall_ms");
        r.inc(c, 0, 3);
        r.set_gauge(g, 0, 2);
        r.observe(h, 40);
        let snap = r.snapshot_json();
        let v = parse(&snap).expect("snapshot must be valid JSON");
        assert_eq!(r.snapshot_line(), snap.replace([' ', '\n'], ""));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("serve.submitted"))
                .and_then(|c| c.index(0))
                .and_then(|x| x.as_u64()),
            Some(3)
        );
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("serve.job_wall_ms"))
                .and_then(|h| h.get("count"))
                .and_then(|x| x.as_u64()),
            Some(1)
        );
        // The sections must serialize exactly as in a full report snapshot.
        let rep = small_report();
        assert!(rep
            .metrics_json()
            .contains(&registry_sections_json(rep.registry(), false)));
    }

    #[test]
    fn hop_histograms_have_one_slot_per_hop_count() {
        let rep = small_report();
        for name in ["net.onchip.hop_hist", "net.offchip.hop_hist"] {
            assert_eq!(rep.counter_family(name).len(), HOP_HIST_LEN);
        }
    }
}
