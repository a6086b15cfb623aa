//! # hoploc-prefetch
//!
//! Hardware prefetching for the hoploc L2 slices: the complementary lever
//! to the paper's layout localization. Each L2 slice owns a
//! [`SlicePrefetcher`] with two candidate engines — a reference-keyed
//! stride table with confidence counters and a region-based stream
//! detector — plus a perceptron-style **off-chip predictor** (tag-hashed
//! weight tables over region features, trained on demand outcomes). In
//! [`PrefetchMode::Gated`] the predictor filters every candidate: lines it
//! expects to be found on-chip are dropped before they cost NoC or DRAM
//! bandwidth (the prefetch filtering of Jamet et al., "A Two Level Neural
//! Approach Combining Off-Chip Prediction with Adaptive Prefetch
//! Filtering"). Degree, stream distance and the in-flight cap are fixed
//! constants: one line per trigger, four lines ahead, 32 per slice.
//!
//! Everything here is plain integer arithmetic with no clocks and no
//! randomness: given the same demand stream, a prefetcher emits the same
//! candidates in the same order, which is what lets the simulator keep its
//! bit-identical determinism guarantees with prefetching enabled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Which prefetch machinery is active.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PrefetchMode {
    /// No prefetching: the simulator must behave bit-identically to a
    /// build without the subsystem.
    #[default]
    Off,
    /// Stride engine only, ungated.
    Stride,
    /// Stream engine only, ungated.
    Stream,
    /// Both engines, candidates gated by the off-chip predictor.
    Gated,
}

impl PrefetchMode {
    /// Canonical lowercase name (CLI flag value / serve wire value).
    pub fn name(self) -> &'static str {
        match self {
            PrefetchMode::Off => "off",
            PrefetchMode::Stride => "stride",
            PrefetchMode::Stream => "stream",
            PrefetchMode::Gated => "gated",
        }
    }

    /// Parses a [`name`](Self::name) back to a mode.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(PrefetchMode::Off),
            "stride" => Ok(PrefetchMode::Stride),
            "stream" => Ok(PrefetchMode::Stream),
            "gated" => Ok(PrefetchMode::Gated),
            other => Err(format!(
                "unknown prefetch mode {other:?} (expected off|stride|stream|gated)"
            )),
        }
    }

    /// All modes, in canonical order.
    pub fn all() -> [PrefetchMode; 4] {
        [
            PrefetchMode::Off,
            PrefetchMode::Stride,
            PrefetchMode::Stream,
            PrefetchMode::Gated,
        ]
    }
}

/// Prefetcher configuration. `Default` is [`PrefetchMode::Off`], so
/// embedding the struct in a simulator config changes nothing until a
/// mode is selected.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PrefetchConfig {
    /// Active machinery.
    pub mode: PrefetchMode,
}

impl PrefetchConfig {
    /// A config with the given mode.
    pub fn with_mode(mode: PrefetchMode) -> Self {
        Self { mode }
    }

    /// Whether any prefetch machinery is active.
    pub fn enabled(&self) -> bool {
        self.mode != PrefetchMode::Off
    }
}

/// What happened to the demand access that triggered training: the
/// predictor's ground truth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DemandOutcome {
    /// Hit in the L2 slice on an ordinary (demand-installed) line.
    L2Hit,
    /// Hit on a line a prefetch installed, or joined a still-in-flight
    /// prefetch. Trains as *off-chip*: without the prefetch this access
    /// would have left the chip, and labeling it by what actually
    /// happened would make the predictor ungate under its own success
    /// and oscillate.
    PrefetchedHit,
    /// Satisfied by another on-chip cache (directory forward).
    OnChip,
    /// Went to a memory controller.
    OffChip,
}

/// Prefetch counters of one L2 slice, or, summed over the slices, of one
/// run (the simulator's `RunStats::prefetch`). `Default` (all zero) marks a
/// run with prefetching off, which is what keeps serialized records
/// byte-identical to pre-prefetch builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PrefetchSummary {
    /// Candidate lines the engines produced.
    pub candidates: u64,
    /// Candidates the off-chip predictor filtered out (Gated mode only).
    pub gated: u64,
    /// Prefetch requests actually sent toward a memory controller.
    pub issued: u64,
    /// Prefetched lines later hit by a demand access.
    pub useful: u64,
    /// Demand misses that joined a still-in-flight prefetch.
    pub late: u64,
    /// Prefetched lines evicted untouched (cache pollution).
    pub harmful: u64,
    /// Prefetches dropped: slice queue full, target controller dark, or a
    /// DRAM transient error (prefetches are never retried or re-homed).
    pub dropped: u64,
    /// Off-chip predictions that matched the demand outcome.
    pub pred_correct: u64,
    /// Demand accesses the predictor scored.
    pub pred_total: u64,
}

impl PrefetchSummary {
    /// Fraction of issued prefetches that proved accurate (useful or
    /// joined late). 0.0 when nothing was issued.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            (self.useful + self.late) as f64 / self.issued as f64
        }
    }

    /// Fraction of would-be off-chip demand misses covered by a prefetch,
    /// given the run's demand off-chip count. 0.0 when there were none.
    pub fn coverage(&self, demand_offchip: u64) -> f64 {
        let covered = self.useful + self.late;
        let base = demand_offchip + covered;
        if base == 0 {
            0.0
        } else {
            covered as f64 / base as f64
        }
    }

    /// Measured accuracy of the off-chip predictor over demand outcomes.
    pub fn pred_accuracy(&self) -> f64 {
        if self.pred_total == 0 {
            0.0
        } else {
            self.pred_correct as f64 / self.pred_total as f64
        }
    }

    /// Whether any prefetch activity (or prediction) happened at all.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// The `pf.*` counter families a traced run reports, one slot per L2
    /// slice, with the field each reads, in snapshot order.
    pub const COUNTERS: [(&'static str, Field); 9] = [
        ("pf.candidates", |s| s.candidates),
        ("pf.gated", |s| s.gated),
        ("pf.issued", |s| s.issued),
        ("pf.useful", |s| s.useful),
        ("pf.late", |s| s.late),
        ("pf.harmful", |s| s.harmful),
        ("pf.dropped", |s| s.dropped),
        ("pf.pred.correct", |s| s.pred_correct),
        ("pf.pred.total", |s| s.pred_total),
    ];
}

/// Reads one counter of a [`PrefetchSummary`].
type Field = fn(&PrefetchSummary) -> u64;

impl<'a> std::iter::Sum<&'a PrefetchSummary> for PrefetchSummary {
    fn sum<I: Iterator<Item = &'a PrefetchSummary>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            candidates: a.candidates + b.candidates,
            gated: a.gated + b.gated,
            issued: a.issued + b.issued,
            useful: a.useful + b.useful,
            late: a.late + b.late,
            harmful: a.harmful + b.harmful,
            dropped: a.dropped + b.dropped,
            pred_correct: a.pred_correct + b.pred_correct,
            pred_total: a.pred_total + b.pred_total,
        })
    }
}

/// splitmix64 finalizer: the same deterministic mixer the rest of the
/// workspace uses for hashing-without-a-crate.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Clone, Copy, Default)]
struct StrideEntry {
    tag: u32,
    valid: bool,
    last_line: u64,
    stride: i64,
    conf: u8,
}

#[derive(Clone, Copy, Default)]
struct StreamEntry {
    region: u64,
    valid: bool,
    last_line: u64,
    dir: i8,
    count: u8,
}

/// Perceptron-style off-chip hit/miss predictor: three tag-hashed weight
/// tables indexed by region features of the line plus the reference id.
/// Predicts "off-chip" when the summed weights are non-negative; trains on
/// every demand outcome when the prediction was wrong or under-confident.
struct Predictor {
    w: [[i8; Predictor::TABLE]; 3],
}

impl Predictor {
    const TABLE: usize = 256;
    /// Train-on-correct margin (classic perceptron theta).
    const THETA: i32 = 8;
    /// Gating margin: a *candidate* is issued only when the summed
    /// weights clear this bar, not merely the sign — speculative
    /// bandwidth is spent only where the off-chip evidence is strong.
    const GATE: i32 = 8;
    const WMAX: i8 = 63;

    fn new() -> Self {
        Self {
            w: [[0; Self::TABLE]; 3],
        }
    }

    fn idx(line: u64, ref_id: u32) -> [usize; 3] {
        [
            (mix(line >> 2) & 0xff) as usize,
            (mix(line >> 6) & 0xff) as usize,
            (mix(ref_id as u64 ^ 0x9e37_79b9_7f4a_7c15) & 0xff) as usize,
        ]
    }

    fn sum(&self, idx: &[usize; 3]) -> i32 {
        idx.iter()
            .enumerate()
            .map(|(t, &i)| self.w[t][i] as i32)
            .sum()
    }

    fn predict_offchip(&self, line: u64, ref_id: u32) -> bool {
        self.sum(&Self::idx(line, ref_id)) >= 0
    }

    fn confident_offchip(&self, line: u64, ref_id: u32) -> bool {
        self.sum(&Self::idx(line, ref_id)) >= Self::GATE
    }

    fn train(&mut self, line: u64, ref_id: u32, offchip: bool) {
        let idx = Self::idx(line, ref_id);
        let sum = self.sum(&idx);
        let predicted = sum >= 0;
        if predicted != offchip || sum.abs() <= Self::THETA {
            let delta: i8 = if offchip { 1 } else { -1 };
            for (t, &i) in idx.iter().enumerate() {
                let w = &mut self.w[t][i];
                *w = w.saturating_add(delta).clamp(-Self::WMAX, Self::WMAX);
            }
        }
    }
}

/// The per-L2-slice prefetch unit: both candidate engines and the
/// off-chip predictor.
///
/// The simulator calls [`on_demand`](Self::on_demand) for every demand L2
/// access (training plus candidate generation), and is itself responsible
/// for issue-side filtering (lines already cached or in flight, the
/// [`INFLIGHT_CAP`]), transport, and installation.
pub struct SlicePrefetcher {
    mode: PrefetchMode,
    strides: Vec<StrideEntry>,
    streams: Vec<StreamEntry>,
    predictor: Predictor,
}

/// Lines fetched ahead per trigger.
const DEGREE: u32 = 1;

/// Stream lookahead: how many lines beyond the detected head the stream
/// engine targets.
const DISTANCE: u32 = 4;

/// In-flight prefetches a slice may have toward memory; the simulator
/// drops candidates beyond the cap, never queueing them across triggers.
pub const INFLIGHT_CAP: usize = 32;

/// Lines per stream region (64 lines = 16 KB at 256 B lines).
const REGION_SHIFT: u32 = 6;

/// Stride-table entries per slice (direct-mapped by reference id).
const STRIDE_ENTRIES: usize = 64;

/// Stream-detector entries per slice (direct-mapped by region).
const STREAM_ENTRIES: usize = 16;

impl SlicePrefetcher {
    /// A fresh slice prefetcher.
    pub fn new(cfg: PrefetchConfig) -> Self {
        Self {
            strides: vec![StrideEntry::default(); STRIDE_ENTRIES],
            streams: vec![StreamEntry::default(); STREAM_ENTRIES],
            predictor: Predictor::new(),
            mode: cfg.mode,
        }
    }

    /// Feeds one demand L2 access: trains the engines and the predictor on
    /// the observed `outcome`, scores the predictor, and appends surviving
    /// candidate lines to `out` (deduplicated within the trigger). Updates
    /// `summary.candidates`, `summary.gated`, and the predictor score
    /// counters; the caller owns issued/useful/late/harmful/dropped.
    pub fn on_demand(
        &mut self,
        ref_id: u32,
        line: u64,
        outcome: DemandOutcome,
        summary: &mut PrefetchSummary,
        out: &mut Vec<u64>,
    ) {
        if self.mode == PrefetchMode::Off {
            return;
        }
        // Miss-triggered prefetching: plain local hits neither train nor
        // trigger. An L2 line absorbs ~line_bytes/elem same-line re-hits
        // after every fill; folding those into the predictor drowns the
        // off-chip signal in trivially-on-chip noise (the per-reference
        // weight saturates negative and gates every candidate), and
        // letting them trigger the engines multiplies issue volume with
        // no new information — the *miss* stream is the pattern to cover.
        // A hit on a prefetched line stays a trigger (it is the covered
        // continuation of a stream the engines must keep running ahead
        // of) and trains as off-chip (without the prefetch it would have
        // been — the "would-miss" labeling of Jamet et al., which keeps
        // the predictor stable under the prefetcher's own success).
        if outcome == DemandOutcome::L2Hit {
            return;
        }
        // Score, then train: the prediction must not see its own update.
        let offchip = matches!(
            outcome,
            DemandOutcome::OffChip | DemandOutcome::PrefetchedHit
        );
        summary.pred_total += 1;
        if self.predictor.predict_offchip(line, ref_id) == offchip {
            summary.pred_correct += 1;
        }
        self.predictor.train(line, ref_id, offchip);

        let base = out.len();
        if matches!(self.mode, PrefetchMode::Stride | PrefetchMode::Gated) {
            self.stride_candidates(ref_id, line, out);
        }
        // In Gated mode the stream engine is a fallback for references the
        // stride table cannot lock (its hashed regions collide, so running
        // it alongside an armed stride entry only adds mispredictions).
        let stream_too = match self.mode {
            PrefetchMode::Stream => true,
            PrefetchMode::Gated => out.len() == base,
            _ => false,
        };
        if stream_too {
            self.stream_candidates(line, out);
        }
        // Within-trigger dedup, preserving first-engine order.
        let mut k = base;
        for i in base..out.len() {
            let cand = out[i];
            if cand != line && !out[base..k].contains(&cand) {
                out[k] = cand;
                k += 1;
            }
        }
        out.truncate(k);
        summary.candidates += (out.len() - base) as u64;
        if self.mode == PrefetchMode::Gated {
            let mut k = base;
            for i in base..out.len() {
                let cand = out[i];
                if self.predictor.confident_offchip(cand, ref_id) {
                    out[k] = cand;
                    k += 1;
                } else {
                    summary.gated += 1;
                }
            }
            out.truncate(k);
        }
    }

    fn stride_candidates(&mut self, ref_id: u32, line: u64, out: &mut Vec<u64>) {
        let e = &mut self.strides[ref_id as usize % STRIDE_ENTRIES];
        if !e.valid || e.tag != ref_id {
            *e = StrideEntry {
                tag: ref_id,
                valid: true,
                last_line: line,
                stride: 0,
                conf: 0,
            };
            return;
        }
        let stride = line as i64 - e.last_line as i64;
        e.last_line = line;
        if stride == 0 {
            return;
        }
        if stride == e.stride {
            e.conf = (e.conf + 1).min(3);
        } else if e.conf > 0 {
            e.conf -= 1;
            return;
        } else {
            e.stride = stride;
            return;
        }
        if e.conf >= 2 {
            // Next line(s) only: the workloads' miss streams run in short
            // bursts, so a deep lookahead overshoots the burst end and
            // pollutes — a near prefetch that joins late still hides most
            // of the round trip.
            let stride = e.stride;
            for k in 1..=DEGREE as i64 {
                let target = line as i64 + stride * k;
                if target >= 0 {
                    out.push(target as u64);
                }
            }
        }
    }

    fn stream_candidates(&mut self, line: u64, out: &mut Vec<u64>) {
        let region = line >> REGION_SHIFT;
        let e = &mut self.streams[(mix(region) as usize) % STREAM_ENTRIES];
        if !e.valid || e.region != region {
            *e = StreamEntry {
                region,
                valid: true,
                last_line: line,
                dir: 0,
                count: 0,
            };
            return;
        }
        let dir: i8 = match line.cmp(&e.last_line) {
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
        };
        e.last_line = line;
        if dir == 0 {
            return;
        }
        if dir == e.dir {
            e.count = (e.count + 1).min(7);
        } else {
            e.dir = dir;
            e.count = 1;
            return;
        }
        if e.count >= 2 {
            for k in 0..DEGREE as i64 {
                let target = line as i64 + dir as i64 * (DISTANCE as i64 + k);
                if target >= 0 {
                    out.push(target as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> PrefetchSummary {
        PrefetchSummary::default()
    }

    fn drive(
        pf: &mut SlicePrefetcher,
        ref_id: u32,
        lines: impl IntoIterator<Item = u64>,
        outcome: DemandOutcome,
    ) -> (PrefetchSummary, Vec<u64>) {
        let mut s = summary();
        let mut out = Vec::new();
        for l in lines {
            pf.on_demand(ref_id, l, outcome, &mut s, &mut out);
        }
        (s, out)
    }

    #[test]
    fn mode_names_round_trip() {
        for m in PrefetchMode::all() {
            assert_eq!(PrefetchMode::parse(m.name()).unwrap(), m);
        }
        assert!(PrefetchMode::parse("bogus").is_err());
        assert_eq!(PrefetchMode::default(), PrefetchMode::Off);
        assert!(!PrefetchConfig::default().enabled());
        assert!(PrefetchConfig::with_mode(PrefetchMode::Gated).enabled());
    }

    #[test]
    fn off_mode_is_inert() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::default());
        let (s, out) = drive(&mut pf, 1, (0..100).map(|k| k * 2), DemandOutcome::OffChip);
        assert!(out.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn stride_engine_locks_onto_constant_stride() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Stride));
        let (s, out) = drive(
            &mut pf,
            7,
            (0..8).map(|k| 100 + k * 3),
            DemandOutcome::OffChip,
        );
        assert!(!out.is_empty(), "confident stride must emit candidates");
        // Every candidate extends the +3 stride beyond the trigger line.
        assert!(out.iter().all(|&c| (c as i64 - 100) % 3 == 0));
        assert_eq!(s.candidates, out.len() as u64);
        assert_eq!(s.gated, 0, "stride mode never gates");
    }

    #[test]
    fn stride_engine_ignores_erratic_references() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Stride));
        // An indexed-style reference: strides never repeat.
        let lines = [5u64, 900, 13, 4421, 2, 777, 30_000, 8, 1234];
        let (_, out) = drive(&mut pf, 9, lines, DemandOutcome::OffChip);
        assert!(
            out.is_empty(),
            "no repeating stride, no candidates: {out:?}"
        );
    }

    #[test]
    fn stream_engine_follows_ascending_runs() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Stream));
        let (_, out) = drive(&mut pf, 0, 200..210, DemandOutcome::OffChip);
        assert!(!out.is_empty());
        let distance = DISTANCE as u64;
        assert!(
            out.iter().all(|&c| c > 200 + distance - 1),
            "stream candidates run ahead of the head: {out:?}"
        );
    }

    #[test]
    fn stream_engine_follows_descending_runs() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Stream));
        let (_, out) = drive(&mut pf, 0, (200..210).rev(), DemandOutcome::OffChip);
        assert!(!out.is_empty());
        let distance = DISTANCE as u64;
        assert!(
            out.iter().all(|&c| c <= 209 - distance),
            "stream candidates run ahead (downward) of the head: {out:?}"
        );
    }

    #[test]
    fn candidates_are_deduplicated_and_never_the_trigger_line() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Gated));
        let mut s = summary();
        let mut out = Vec::new();
        for l in 0..64u64 {
            out.clear();
            pf.on_demand(3, l, DemandOutcome::OffChip, &mut s, &mut out);
            let mut d = out.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), out.len(), "dup candidates at line {l}: {out:?}");
            assert!(!out.contains(&l));
        }
    }

    #[test]
    fn predictor_learns_offchip_regions() {
        let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Gated));
        let mut s = summary();
        let mut out = Vec::new();
        // Region A (lines 0..) always resolves on-chip; region B (lines
        // 1<<20..) always misses off-chip. After training, gating keeps
        // B, drops A. (Local L2 hits train nothing — the predictor only
        // sees the miss path.)
        for rep in 0..40u64 {
            for l in 0..8u64 {
                pf.on_demand(1, l + (rep % 8), DemandOutcome::OnChip, &mut s, &mut out);
                pf.on_demand(
                    2,
                    (1 << 20) + rep * 8 + l,
                    DemandOutcome::OffChip,
                    &mut s,
                    &mut out,
                );
            }
        }
        assert!(
            s.pred_accuracy() > 0.8,
            "predictor should converge: {}",
            s.pred_accuracy()
        );
        assert!(s.gated > 0, "on-chip region candidates must be gated");
    }

    #[test]
    fn summary_ratios_are_total() {
        let s = summary();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.coverage(0), 0.0);
        assert_eq!(s.pred_accuracy(), 0.0);
        let s = PrefetchSummary {
            issued: 10,
            useful: 4,
            late: 1,
            pred_correct: 8,
            pred_total: 10,
            ..summary()
        };
        assert!((s.accuracy() - 0.5).abs() < 1e-12);
        assert!((s.coverage(15) - 0.25).abs() < 1e-12);
        assert!((s.pred_accuracy() - 0.8).abs() < 1e-12);
        assert!(!s.is_empty());
    }

    #[test]
    fn deterministic_given_same_stream() {
        let run = || {
            let mut pf = SlicePrefetcher::new(PrefetchConfig::with_mode(PrefetchMode::Gated));
            let mut s = summary();
            let mut out = Vec::new();
            let mut x: u64 = 0x1234_5678;
            for i in 0..2000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = if i % 3 == 0 { i * 2 } else { x % 4096 };
                let outcome = if line % 5 == 0 {
                    DemandOutcome::L2Hit
                } else {
                    DemandOutcome::OffChip
                };
                pf.on_demand((i % 11) as u32, line, outcome, &mut s, &mut out);
            }
            (s, out)
        };
        assert_eq!(run(), run());
    }
}
