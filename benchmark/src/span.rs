//! Host-time spans, recorded by the benchmark around each call into a
//! layer. Spans are kept in memory and written out when the run ends; a
//! disabled tracer records nothing and never reads the clock, which is how
//! the untraced run stays free of tracing cost.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (cell, search or request) the span belongs to.
    pub op: u32,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when disabled.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Records a span measured elsewhere (another thread's request phases)
    /// and returns its index for use as a later span's `parent`. Offsets
    /// are nanoseconds since `origin()`.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u32,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds under the spans named `name` (0 when none was
    /// recorded).
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time of the spans named `name`, in seconds: their duration
    /// minus the part of it their direct children cover (children of one
    /// parent never overlap here: each thread's spans nest strictly).
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(*children))
            .sum();
        ns as f64 * 1e-9
    }

    /// `bench.span_coverage`: the share of the operations' time (`op`
    /// spans) that the layer spans inside them account for.
    pub fn coverage(&self) -> f64 {
        1.0 - self.self_s("op") / self.total_s("op")
    }

    /// The trace as a JSON document: one object per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"clock\": \"host ns since run start\", \"spans\": [\n",
            json::quote(workload)
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}",
                json::quote(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.op
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("x", 0);
        t.end(a);
        t.push("y", 0, 1, 2, None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.total_s("inner") >= 0.002);
        assert!(t.total_s("outer") >= t.total_s("inner"));
        let own = t.total_s("outer") - t.total_s("inner");
        assert!((t.self_s("outer") - own).abs() < 1e-9);
        assert_eq!(t.self_s("inner"), t.total_s("inner"));
        assert_eq!(t.total_s("absent"), 0.0);
        assert!(crate::json::parse(&t.to_json("w", 3)).is_ok());
    }
}
