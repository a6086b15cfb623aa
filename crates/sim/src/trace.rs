//! Memory-access traces: the interface between workload generation and the
//! simulator.
//!
//! [`Access`] is the logical record every producer and consumer speaks. A
//! thread's accesses reach the simulator as a stream it pulls a chunk at a
//! time, so no whole trace exists during a run: a [`TraceSource`] opens
//! each thread's [`Stream`] afresh for every run, and the simulator holds
//! one chunk of at most [`CHUNK`] accesses per thread. Two sources exist:
//! a [`ThreadTrace`] list built by hand (tests, examples), and the
//! generator of `hoploc_workloads::generate_traces`, which replays the
//! loop nests as the simulator asks for them.

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

/// The accesses a stream hands over at a time: 128 accesses are 3 KiB, so
/// the chunks of 64–128 threads stay in a host's L2.
pub const CHUNK: usize = 128;

/// One thread's accesses, in program order, a chunk at a time: each call
/// appends the thread's next accesses to an empty buffer — at most
/// [`CHUNK`], more only when one iteration alone makes more — and appends
/// nothing once the thread is done.
pub type Stream<'a> = Box<dyn FnMut(&mut Vec<Access>) + 'a>;

/// Where the threads of one program come from.
pub trait TraceSource {
    /// The node (core) each thread runs on, in thread order.
    fn nodes(&self) -> Vec<NodeId>;

    /// Thread `thread`'s accesses from its first.
    fn stream(&self, thread: usize) -> Stream<'_>;
}

/// The access list of one thread, bound to a node: a trace built by hand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadTrace {
    /// The node (core) this thread runs on.
    pub node: NodeId,
    /// The accesses, in program order.
    pub accesses: Vec<Access>,
}

impl ThreadTrace {
    /// Creates a trace.
    pub fn new(node: NodeId, accesses: Vec<Access>) -> Self {
        Self { node, accesses }
    }
}

impl TraceSource for Vec<ThreadTrace> {
    fn nodes(&self) -> Vec<NodeId> {
        self.iter().map(|t| t.node).collect()
    }

    fn stream(&self, thread: usize) -> Stream<'_> {
        let mut rest = &self[thread].accesses[..];
        Box::new(move |chunk| {
            let (next, after) = rest.split_at(rest.len().min(CHUNK));
            chunk.extend_from_slice(next);
            rest = after;
        })
    }
}

/// A complete workload: the threads of one or more programs (multiple
/// threads may share a node when simulating >1 thread per core), plus an
/// application id per thread for multiprogrammed statistics.
pub struct TraceWorkload<'a> {
    /// Display name.
    pub name: String,
    /// Where the threads come from, in thread order.
    sources: Vec<Box<dyn TraceSource + 'a>>,
    /// Application index each thread belongs to (all zero for a single
    /// multithreaded application).
    pub app_of_thread: Vec<usize>,
}

impl<'a> TraceWorkload<'a> {
    /// Wraps the threads of a single application.
    pub fn single(name: impl Into<String>, source: impl TraceSource + 'a) -> Self {
        let app_of_thread = vec![0; source.nodes().len()];
        Self {
            name: name.into(),
            sources: vec![Box::new(source)],
            app_of_thread,
        }
    }

    /// Merges several applications into one multiprogrammed workload.
    /// Thread order (and node bindings) are preserved per application.
    pub fn multiprogram(name: impl Into<String>, apps: Vec<TraceWorkload<'a>>) -> Self {
        let mut sources = Vec::new();
        let mut app_of_thread = Vec::new();
        for (i, app) in apps.into_iter().enumerate() {
            app_of_thread.extend(std::iter::repeat_n(i, app.nodes().len()));
            sources.extend(app.sources);
        }
        Self {
            name: name.into(),
            sources,
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

    /// The node each thread runs on, in thread order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.sources.iter().flat_map(|s| s.nodes()).collect()
    }

    /// Every thread's stream from its first access, in thread order.
    pub fn streams(&self) -> Vec<Stream<'_>> {
        (self.sources.iter())
            .flat_map(|s| (0..s.nodes().len()).map(|t| s.stream(t)))
            .collect()
    }

    /// Every thread's whole trace, drawn from its stream: what a test or
    /// an example inspects. A run never holds one.
    pub fn gather(&self) -> Vec<ThreadTrace> {
        let streams = self.streams();
        (self.nodes().into_iter().zip(streams))
            .map(|(node, mut stream)| {
                let (mut accesses, mut chunk) = (Vec::new(), Vec::new());
                loop {
                    stream(&mut chunk);
                    if chunk.is_empty() {
                        break ThreadTrace::new(node, accesses);
                    }
                    accesses.append(&mut chunk);
                }
            })
            .collect()
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
        assert_eq!(w.gather(), vec![t(0, 3), t(1, 2)]);
    }

    #[test]
    fn multiprogram_tags_threads() {
        let a = TraceWorkload::single("a", vec![t(0, 1)]);
        let b = TraceWorkload::single("b", vec![t(1, 1), t(2, 1)]);
        let m = TraceWorkload::multiprogram("a+b", vec![a, b]);
        assert_eq!(m.num_apps(), 2);
        assert_eq!(m.app_of_thread, vec![0, 1, 1]);
        assert_eq!(m.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn a_hand_built_stream_hands_over_whole_chunks() {
        let trace = t(0, 2 * CHUNK + 5);
        let w = TraceWorkload::single("a", vec![trace.clone()]);
        let mut stream = w.streams().pop().unwrap();
        let mut lens = Vec::new();
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            stream(&mut chunk);
            lens.push(chunk.len());
            if chunk.is_empty() {
                break;
            }
        }
        assert_eq!(lens, vec![CHUNK, CHUNK, 5, 0]);
        assert_eq!(w.gather(), vec![trace]);
    }
}
