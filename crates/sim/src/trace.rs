//! Memory-access traces: the interface between workload generation and the
//! simulator.
//!
//! [`Access`] is the logical record every producer and consumer speaks. A
//! [`ThreadTrace`] stores one 8-byte word per access and a small table of
//! the parts that repeat — the trace is the largest stream the event loop
//! reads, so its width is host cache lines, page faults and teardown:
//!
//! ```text
//! word  = vaddr:40 | kind:16 | low:8
//! kinds[kind] = { gap_base (a multiple of 256), ref_id, write }
//! gap   = gap_base + low
//! ```
//!
//! A program has a handful of static references and a gap varies by a
//! jitter below `TraceGen::desync_jitter` around a per-statement constant,
//! so a thread's table holds a few dozen entries however long its trace.
//! Kinds are numbered in order of first appearance, which makes the
//! encoding a function of the access sequence alone: two traces holding
//! the same accesses hold the same words, however they were built.
//!
//! The two limits are refused with a panic naming them, never aliased: an
//! address at or past 2^40 (each program of a `Suite::run_mix` starts at a
//! multiple of 2^32, so 256 co-scheduled programs fit), and more than
//! 65 536 kinds in one thread.

use hoploc_noc::NodeId;

/// One dynamic memory access of a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
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

const LOW_BITS: u32 = 8;
const KIND_BITS: u32 = 16;
const VADDR_BITS: u32 = 64 - KIND_BITS - LOW_BITS;
const LOW_MASK: u32 = (1 << LOW_BITS) - 1;

/// What a trace word leaves to the table: an access without its address
/// and the low bits of its gap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Kind {
    gap_base: u32,
    ref_id: u32,
    write: bool,
}

impl Kind {
    fn of(a: &Access) -> Self {
        Self {
            gap_base: a.gap & !LOW_MASK,
            ref_id: a.ref_id,
            write: a.write,
        }
    }
}

/// Where [`ThreadTrace::push_hinted`] looks first for an access's table
/// entry: the two entries the same caller's previous pushes used. One
/// static reference's accesses differ in their address and a small gap
/// jitter, so a hint kept per reference almost always hits. It is only
/// ever a hint — an entry is compared before it is used — so a stale one,
/// or one last used with another trace, costs a scan of the table and
/// nothing else.
#[derive(Clone, Copy, Default, Debug)]
pub struct KindHint([u16; 2]);

/// The access stream of one thread, bound to a node.
///
/// Equality is equality of the access sequences (and nodes): kinds are
/// numbered in order of first appearance, so equal sequences are equal
/// words over equal tables.
#[derive(Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The node (core) this thread runs on.
    pub node: NodeId,
    /// One word per access, in program order.
    words: Vec<u64>,
    /// The table the words index, in order of first appearance.
    kinds: Vec<Kind>,
}

impl ThreadTrace {
    /// Creates a trace.
    ///
    /// # Panics
    ///
    /// As [`push`](Self::push).
    pub fn new(node: NodeId, accesses: Vec<Access>) -> Self {
        let mut trace = Self::with_capacity(node, accesses.len());
        for a in accesses {
            trace.push(a);
        }
        trace
    }

    /// An empty trace with room for `accesses` accesses.
    pub fn with_capacity(node: NodeId, accesses: usize) -> Self {
        Self {
            node,
            words: Vec::with_capacity(accesses),
            kinds: Vec::new(),
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace holds no access.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The `i`-th access in program order.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Access> {
        self.words.get(i).map(|&word| self.decode(word))
    }

    /// The accesses in program order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Access> + '_ {
        self.words.iter().map(|&word| self.decode(word))
    }

    /// Appends an access.
    ///
    /// # Panics
    ///
    /// Panics if the access cannot be encoded: its address is at or past
    /// 2^40, or its thread already holds 65 536 kinds (distinct
    /// `(gap / 256, ref_id, write)`) and this is another.
    pub fn push(&mut self, access: Access) {
        self.push_hinted(access, &mut KindHint::default());
    }

    /// [`push`](Self::push) for a caller that appends many accesses of one
    /// static reference and keeps a [`KindHint`] for it.
    #[inline]
    pub fn push_hinted(&mut self, access: Access, hint: &mut KindHint) {
        assert!(
            access.vaddr >> VADDR_BITS == 0,
            "trace address {:#x} is at or past the 2^{VADDR_BITS} a trace word holds",
            access.vaddr
        );
        let kind = Kind::of(&access);
        let [first, second] = hint.0;
        let id = if self.kinds.get(first as usize) == Some(&kind) {
            first
        } else if self.kinds.get(second as usize) == Some(&kind) {
            second
        } else {
            let id = self.intern(kind);
            hint.0 = [id, first];
            id
        };
        self.words.push(
            access.vaddr << (KIND_BITS + LOW_BITS)
                | (id as u64) << LOW_BITS
                | (access.gap & LOW_MASK) as u64,
        );
    }

    /// The table index of `kind`, entering it if it is new. A scan: the
    /// table holds a few dozen entries for any program's trace, and the
    /// hints keep all but a thread's first access of each kind away.
    fn intern(&mut self, kind: Kind) -> u16 {
        if let Some(id) = self.kinds.iter().position(|k| *k == kind) {
            return id as u16;
        }
        let id = u16::try_from(self.kinds.len()).unwrap_or_else(|_| {
            panic!(
                "a thread's trace holds at most {} kinds (distinct gap / {}, ref_id, write)",
                1u32 << KIND_BITS,
                1u32 << LOW_BITS
            )
        });
        self.kinds.push(kind);
        id
    }

    #[inline]
    fn decode(&self, word: u64) -> Access {
        let kind = self.kinds[(word >> LOW_BITS) as u16 as usize];
        Access {
            vaddr: word >> (KIND_BITS + LOW_BITS),
            write: kind.write,
            gap: kind.gap_base + (word as u32 & LOW_MASK),
            ref_id: kind.ref_id,
        }
    }

    /// Total compute cycles in the trace.
    pub fn compute_cycles(&self) -> u64 {
        self.iter().map(|a| a.gap as u64).sum()
    }
}

impl std::fmt::Debug for ThreadTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTrace")
            .field("node", &self.node)
            .field("accesses", &self.iter().collect::<Vec<_>>())
            .finish()
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
        self.threads.iter().map(|t| t.len() as u64).sum()
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
    fn an_access_is_stored_in_eight_bytes() {
        let trace = t(0, 100);
        assert_eq!(std::mem::size_of_val(&trace.words[..]), 8 * trace.len());
        assert_eq!(trace.kinds.len(), 1);
    }

    #[test]
    fn compute_cycles_sum_gaps() {
        assert_eq!(t(0, 4).compute_cycles(), 4);
    }
}
