//! Chrome trace-event JSON export (the format Perfetto and `chrome://tracing`
//! load).
//!
//! Layout: one *process* per track family — cores, links, memory-controller
//! queues, DRAM banks — and one *thread* per track, so Perfetto renders one
//! named lane per core/link/MC/bank. All spans are `"X"` (complete) events
//! with sim-cycle `ts`/`dur` (displayed as microseconds); `"M"` metadata
//! events name the lanes. Events are emitted sorted by `(pid, tid, ts)`, so
//! timestamps are monotone within every lane.

use crate::event::{SpanEvent, Track};
use crate::json::JsonWriter;
use crate::report::{ObsReport, DIR_LETTERS};

/// Process ids, one per track family.
const PID_CORES: u64 = 1;
const PID_LINKS: u64 = 2;
const PID_MCS: u64 = 3;
const PID_BANKS: u64 = 4;

fn pid_tid(track: Track) -> (u64, u64) {
    match track {
        Track::Core(n) => (PID_CORES, n as u64),
        Track::Link(l) => (PID_LINKS, l as u64),
        Track::McQueue(m) => (PID_MCS, m as u64),
        Track::Bank(b) => (PID_BANKS, b as u64),
    }
}

fn track_label(report: &ObsReport, track: Track) -> String {
    match track {
        Track::Core(n) => {
            let w = report.topology().mesh_width;
            format!("core {n} ({},{})", n as usize % w, n as usize / w)
        }
        Track::Link(l) => format!("link {}{}", l / 4, DIR_LETTERS[(l % 4) as usize]),
        Track::McQueue(m) => format!("mc {m} queue"),
        Track::Bank(b) => {
            let banks = report.topology().banks_per_mc as u32;
            format!("mc {} bank {}", b / banks, b % banks)
        }
    }
}

fn category(track: Track) -> &'static str {
    match track {
        Track::Core(_) => "core",
        Track::Link(_) => "link",
        Track::McQueue(_) => "mc",
        Track::Bank(_) => "bank",
    }
}

/// Serialize a report's span events as Chrome trace-event JSON.
pub fn chrome_trace_json(report: &ObsReport) -> String {
    // Stable sort: equal-(pid, tid, ts) events keep recording order, so the
    // export is deterministic and per-lane timestamps are monotone.
    let mut order: Vec<(u64, u64, &SpanEvent)> = report
        .events()
        .iter()
        .map(|e| {
            let (pid, tid) = pid_tid(e.track);
            (pid, tid, e)
        })
        .collect();
    order.sort_by_key(|&(pid, tid, e)| (pid, tid, e.ts));

    // One line per event: metadata naming each process and lane, then spans.
    let mut w = JsonWriter::spaced();
    let mut meta = |what: &str, pid: u64, tid: u64, name: &str| {
        w.obj().field("ph", "M").field("name", what);
        w.field("pid", pid).field("tid", tid).key("args").obj();
        w.field("name", name).end_obj().end_obj().take()
    };
    let mut lines: Vec<String> = [
        (PID_CORES, "cores"),
        (PID_LINKS, "links"),
        (PID_MCS, "memory controllers"),
        (PID_BANKS, "dram banks"),
    ]
    .iter()
    .map(|&(pid, name)| meta("process_name", pid, 0, name))
    .collect();
    let mut last_lane = None;
    for &(pid, tid, e) in &order {
        if last_lane != Some((pid, tid)) {
            last_lane = Some((pid, tid));
            lines.push(meta("thread_name", pid, tid, &track_label(report, e.track)));
        }
    }
    for &(pid, tid, e) in &order {
        w.obj().field("ph", "X").field("name", e.name.as_str());
        w.field("cat", category(e.track)).field("ts", e.ts);
        w.field("dur", e.dur).field("pid", pid).field("tid", tid);
        w.key("args").obj();
        if e.req != u64::MAX {
            w.field("req", e.req);
        }
        if matches!(e.track, Track::Link(_)) {
            w.field("wait", e.arg);
        }
        lines.push(w.end_obj().end_obj().take());
    }
    (w.obj().field("displayTimeUnit", "ns").key("traceEvents"))
        .raw(&format!("[\n{}\n]", lines.join(",\n")))
        .end_obj();
    w.take() + "\n"
}

#[cfg(test)]
mod tests {
    use crate::json::validate_chrome_trace;
    use crate::sink::{ObsConfig, Sink, Topology};

    #[test]
    fn export_round_trips_through_the_validator() {
        let topo = Topology {
            mesh_width: 2,
            mesh_height: 2,
            mcs: 1,
            banks_per_mc: 2,
        };
        let s = Sink::recording(topo, ObsConfig::default());
        // Two interleaved requests so per-lane sorting actually has work.
        let a = s.begin_req(0, 0);
        let b = s.begin_req(1, 3);
        s.offchip(a, 2, 0, 0);
        s.offchip(b, 3, 3, 0);
        s.bind_token(1, a);
        s.bind_token(2, b);
        s.hop(0, 10, 0, 2, b);
        s.hop(0, 4, 1, 2, a);
        s.bank_service(0, 0, 1, 12, 20, 50, false, 1);
        s.bank_service(0, 0, 2, 13, 50, 70, true, 0);
        s.retire(b, 90);
        s.retire(a, 80);
        let rep = s.into_report(100).unwrap();
        let json = rep.chrome_trace_json();
        let summary = validate_chrome_trace(&json).expect("export must validate");
        assert_eq!(summary.span_events, rep.events().len());
        assert!(summary.tracks >= 3, "core, link, and bank lanes expected");
    }

    #[test]
    fn empty_report_exports_header_only() {
        let topo = Topology {
            mesh_width: 2,
            mesh_height: 2,
            mcs: 1,
            banks_per_mc: 1,
        };
        let rep = Sink::recording(topo, ObsConfig::default())
            .into_report(1)
            .unwrap();
        let json = rep.chrome_trace_json();
        let summary = validate_chrome_trace(&json).expect("empty export still validates");
        assert_eq!(summary.span_events, 0);
    }
}
