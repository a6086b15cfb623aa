//! Memory-access traces: the interface between workload generation and the
//! simulator.

use hoploc_noc::NodeId;

/// One dynamic memory access of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Virtual byte address.
    pub vaddr: u64,
    /// Whether the access is a store.
    pub write: bool,
    /// Compute cycles the thread spends *before* issuing this access.
    pub gap: u32,
    /// Stable identifier of the static reference (the "PC") that issued
    /// this access — the stride-prefetcher training key. Ignored (and
    /// conventionally 0) when prefetching is off.
    ///
    /// `hoploc_workloads::generate_traces` packs it as
    /// `(nest << 16) | (statement << 8) | reference`, and so refuses a
    /// program with more than 65 536 nests, 256 statements in a nest or
    /// 256 references in a statement rather than let two references share
    /// an id.
    pub ref_id: u32,
}

/// The access stream of one thread, bound to a node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadTrace {
    /// The node (core) this thread runs on.
    pub node: NodeId,
    /// Accesses in program order.
    pub accesses: Vec<Access>,
}

impl ThreadTrace {
    /// Creates a trace.
    pub fn new(node: NodeId, accesses: Vec<Access>) -> Self {
        Self { node, accesses }
    }

    /// Total compute cycles in the trace.
    pub fn compute_cycles(&self) -> u64 {
        self.accesses.iter().map(|a| a.gap as u64).sum()
    }
}

/// A complete workload: one trace per thread (multiple threads may share a
/// node when simulating >1 thread per core), plus an application id used
/// for multiprogrammed statistics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceWorkload {
    /// Display name.
    pub name: String,
    /// Per-thread traces.
    pub threads: Vec<ThreadTrace>,
    /// Application index each thread belongs to (all zero for a single
    /// multithreaded application).
    pub app_of_thread: Vec<usize>,
}

impl TraceWorkload {
    /// Wraps traces of a single application.
    pub fn single(name: impl Into<String>, threads: Vec<ThreadTrace>) -> Self {
        let app_of_thread = vec![0; threads.len()];
        Self {
            name: name.into(),
            threads,
            app_of_thread,
        }
    }

    /// Merges several applications into one multiprogrammed workload.
    /// Thread order (and node bindings) are preserved per application.
    pub fn multiprogram(name: impl Into<String>, apps: Vec<TraceWorkload>) -> Self {
        let mut threads = Vec::new();
        let mut app_of_thread = Vec::new();
        for (i, app) in apps.into_iter().enumerate() {
            app_of_thread.extend(std::iter::repeat_n(i, app.threads.len()));
            threads.extend(app.threads);
        }
        Self {
            name: name.into(),
            threads,
            app_of_thread,
        }
    }

    /// Number of applications in the workload.
    pub fn num_apps(&self) -> usize {
        self.app_of_thread
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Total accesses across all threads.
    pub fn total_accesses(&self) -> u64 {
        self.threads.iter().map(|t| t.accesses.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(node: u16, n: usize) -> ThreadTrace {
        ThreadTrace::new(
            NodeId(node),
            (0..n)
                .map(|k| Access {
                    vaddr: k as u64 * 64,
                    write: false,
                    gap: 1,
                    ref_id: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn single_app_has_one_app() {
        let w = TraceWorkload::single("a", vec![t(0, 3), t(1, 2)]);
        assert_eq!(w.num_apps(), 1);
        assert_eq!(w.total_accesses(), 5);
    }

    #[test]
    fn multiprogram_tags_threads() {
        let a = TraceWorkload::single("a", vec![t(0, 1)]);
        let b = TraceWorkload::single("b", vec![t(1, 1), t(2, 1)]);
        let m = TraceWorkload::multiprogram("a+b", vec![a, b]);
        assert_eq!(m.num_apps(), 2);
        assert_eq!(m.app_of_thread, vec![0, 1, 1]);
    }

    #[test]
    fn compute_cycles_sum_gaps() {
        assert_eq!(t(0, 4).compute_cycles(), 4);
    }
}
