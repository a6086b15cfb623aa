//! The span/event model: request tags carried through the simulator and the
//! per-track span events a recording accumulates.
//!
//! Timestamps are **sim cycles** — never wall clock — so two runs of the same
//! workload produce byte-identical traces regardless of host load or thread
//! count.

/// Lifecycle phase a network message belongs to, carried inside a [`ReqTag`]
/// so per-hop events can be told apart in the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Requester (or home L2) toward directory/MC: the outbound miss.
    Request,
    /// Directory to a forwarder (cache-to-cache intervention).
    Forward,
    /// Data on its way back to the requester.
    Reply,
}

/// Opaque per-request tag minted by [`Sink::begin_req`](crate::Sink::begin_req)
/// and threaded through NoC sends and MC tokens. The disabled sink mints only
/// [`ReqTag::NONE`], which every record call ignores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReqTag {
    pub(crate) id: u64,
    pub(crate) phase: Phase,
}

impl Default for ReqTag {
    fn default() -> Self {
        ReqTag::NONE
    }
}

impl ReqTag {
    /// The "no request" tag: recording calls carrying it attach no span.
    pub const NONE: ReqTag = ReqTag {
        id: u64::MAX,
        phase: Phase::Request,
    };

    /// Whether this tag refers to a live request.
    pub fn is_some(self) -> bool {
        self.id != u64::MAX
    }

    /// The same request, relabelled with a message phase.
    pub fn phase(self, phase: Phase) -> ReqTag {
        ReqTag { phase, ..self }
    }
}

/// Traffic class as seen by the observability layer (mirror of the NoC's
/// class split; `hoploc-obs` does not depend on the NoC, so it defines its
/// own). `class as usize` indexes the per-class metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetClass {
    /// Cache/coherence traffic.
    OnChip,
    /// Traffic to/from a memory controller.
    OffChip,
}

/// The timeline a span event is drawn on. One Chrome-trace thread per track.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Track {
    /// A core/node timeline (whole-request spans).
    Core(u16),
    /// A directed NoC link, indexed `node * 4 + direction` (E, W, N, S).
    Link(u32),
    /// A memory controller's queue timeline.
    McQueue(u16),
    /// A DRAM bank timeline, indexed `mc * banks_per_mc + bank`.
    Bank(u32),
}

/// What a span event represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvName {
    /// Whole off-chip request: L1 miss to reply arrival (core track).
    Offchip,
    /// Whole cache-to-cache request: L1 miss to forwarded-data arrival.
    CacheToCache,
    /// One link traversal of a request-phase message.
    HopRequest,
    /// One link traversal of a forward-phase message.
    HopForward,
    /// One link traversal of a reply-phase message.
    HopReply,
    /// Time a request sat in an MC bank queue before service began.
    McQueue,
    /// Bank service that hit the open row.
    BankRowHit,
    /// Bank service that missed the open row.
    BankRowMiss,
    /// A link traversal delayed by an injected link-fault window.
    LinkFault,
    /// Bank service stretched by an injected bank-stall window.
    BankStall,
    /// A transient MC error: the request re-enters the bank queue after its
    /// backoff (span duration = backoff cycles).
    McRetry,
    /// A request dropped after exhausting its retry budget.
    Dropped,
}

impl EvName {
    /// Stable event name used in the Chrome-trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            EvName::Offchip => "offchip",
            EvName::CacheToCache => "c2c",
            EvName::HopRequest => "hop.req",
            EvName::HopForward => "hop.fwd",
            EvName::HopReply => "hop.reply",
            EvName::McQueue => "queue",
            EvName::BankRowHit => "row_hit",
            EvName::BankRowMiss => "row_miss",
            EvName::LinkFault => "link_fault",
            EvName::BankStall => "bank_stall",
            EvName::McRetry => "retry",
            EvName::Dropped => "dropped",
        }
    }
}

/// One recorded span: a `[ts, ts + dur]` interval on a track, optionally
/// attributed to a request id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanEvent {
    /// Timeline the span belongs to.
    pub track: Track,
    /// Event kind.
    pub name: EvName,
    /// Start, in sim cycles.
    pub ts: u64,
    /// Duration, in sim cycles (0 allowed).
    pub dur: u64,
    /// Request id, or `u64::MAX` when unattributed (e.g. writebacks).
    pub req: u64,
    /// Kind-specific argument: link-wait cycles for hop events, 0 otherwise.
    pub arg: u64,
}
