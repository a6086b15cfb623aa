//! The diagnostics model: stable codes, severities, locations, and the
//! text / JSON emitters.
//!
//! Every analysis in this crate reports findings as [`Diagnostic`] values
//! with a stable `HLxxxx` code, so tooling (CI gates, editors, trend
//! dashboards) can match on codes rather than message text. Codes are
//! grouped by analysis: `HL01xx` layout legality, `HL02xx` parallelization
//! races, `HL03xx` bounds and overflow lints, `HL10xx` static performance
//! predictions, and `HL11xx` prefetch advisories (the last two produced
//! by the `hoploc-est` estimator, which depends on this crate — not the
//! other way around; `HL11xx` is opt-in, emitted only when a prefetch
//! mode is requested).

use hoploc_obs::json_string;
use std::fmt;
use std::fmt::Write as _;

/// How serious a finding is.
///
/// * [`Severity::Error`] — the program or layout is wrong: an aliasing
///   layout, an out-of-bounds access that always fires, a parallel loop
///   whose iterations race beyond neighbouring cores.
/// * [`Severity::Warning`] — suspicious and worth fixing, but the model
///   has defined (if surprising) behaviour: clamped subscripts, wrapped
///   table positions, dead declarations.
/// * [`Severity::Note`] — expected properties of the modelled workloads
///   that a reviewer should know about: halo-carried dependences the apps
///   synchronize outside the model, arrays the pass declined to optimize.
///   Notes never fail a `--deny warnings` gate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Expected/informational finding; never gates.
    Note,
    /// Suspicious construct; gates only under `--deny warnings`.
    Warning,
    /// Definite defect; always gates.
    Error,
}

impl Severity {
    /// Lower-case display name (stable across `Debug` changes).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning once
/// released; retired codes are not reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Code {
    // ── HL01xx: layout legality ────────────────────────────────────────
    /// Layout transformation matrix `U` is not unimodular, so it is not a
    /// bijection of the data space.
    NonUnimodularTransform,
    /// An interleave-unit slot is assigned to more than one owner group
    /// (or lies outside the super-group), so two owners' units collide.
    SlotAliasing,
    /// The plan places elements at offsets beyond the allocated span.
    SpanOverflow,
    /// Empirical witness: two distinct data vectors map to one offset.
    PlacementCollision,
    /// The interleave unit is not a positive multiple of the element size.
    BadInterleaveUnit,
    /// The pass left the array in its original layout (with the reason).
    ArraySkipped,
    // ── HL02xx: parallelization races ──────────────────────────────────
    /// Distinct iterations of the parallel loop write the same element
    /// (the write access matrix has a kernel component along the parallel
    /// dimension — broadcast writes are the simplest case).
    ParallelWriteOverlap,
    /// A carried dependence with small constant distance at the parallel
    /// dimension: only chunk-boundary elements conflict, the halo pattern
    /// the modelled applications synchronize outside the model.
    HaloCarriedDependence,
    /// A carried dependence whose distance at the parallel dimension
    /// exceeds the halo limit: conflicts span whole core chunks.
    CarriedDependenceSpansChunks,
    /// Exhaustive enumeration found iterations on non-adjacent cores
    /// touching the same element through a write-involving pair.
    CrossCoreCollision,
    /// The dependence test returned Unknown and the iteration domain was
    /// too large to enumerate exhaustively; independence is unproven.
    UnprovenIndependence,
    /// An indexed reference shares elements with a write across cores
    /// (through its profiled table) — assumed synchronized by the app.
    IndexedSharing,
    /// Two writes to the same element from different cores, at least one
    /// through an index table.
    IndexedWriteRace,
    // ── HL03xx: bounds and overflow lints ──────────────────────────────
    /// A subscript can leave the declared dimension (runtime clamps it,
    /// distorting the access geometry).
    PossibleOutOfBounds,
    /// A subscript is out of bounds for every iteration.
    DefiniteOutOfBounds,
    /// An indexed reference names a stale or empty profile table.
    NoProfiledTable,
    /// A table entry exceeds the indexed array's extent.
    TableEntryOutOfBounds,
    /// The table position range exceeds the table length (wraps).
    TablePositionWraps,
    /// An array is declared but never referenced.
    DeadArray,
    /// Subscript count differs from the array's declared rank.
    RankMismatch,
    /// A reference or bound uses an iterator deeper than the nest.
    DepthMismatch,
    /// Linearization magnitudes approach `i64` overflow.
    StrideOverflowRisk,
    /// A nest's iteration domain is provably empty.
    EmptyIterationDomain,
    /// An index table is declared but never referenced.
    UnusedTable,
    // ── HL10xx: static performance predictions (produced by hoploc-est) ─
    /// A localized plan is predicted not to reduce off-chip hop distance
    /// for a traffic-significant array (its slots sit no closer to the
    /// requesting threads than uniform interleaving would).
    PredictedPlanIneffective,
    /// A localized plan concentrates a traffic-significant array's slots
    /// on few controllers, so one MC queue is predicted to saturate.
    PredictedMcImbalance,
    /// The application's working set is predicted to stream through the
    /// L2 (footprint ≫ capacity): off-chip traffic scales with accesses
    /// and layout placement, not caching, dominates performance.
    PredictedCapacityStreaming,
    /// The prediction involves index-table references, where the static
    /// model is a coarse approximation.
    EstimateApproximate,
    // ── HL11xx: prefetch advisories (opt-in; emitted only when the
    //    requested prefetch mode is not `off`) ──────────────────────────
    /// A significant share of the application's accesses go through index
    /// tables, where a stride/stream prefetcher learns nothing — the
    /// requested engine is predicted useless for that traffic.
    PrefetchUselessOnIndexed,
    /// The estimator predicts the application is L2-resident, so the
    /// requested prefetcher can only pollute a cache that already holds
    /// the working set — predicted harmful, not merely useless.
    PrefetchPredictedHarmful,
}

impl Code {
    /// The stable `HLxxxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NonUnimodularTransform => "HL0101",
            Code::SlotAliasing => "HL0102",
            Code::SpanOverflow => "HL0103",
            Code::PlacementCollision => "HL0104",
            Code::BadInterleaveUnit => "HL0105",
            Code::ArraySkipped => "HL0110",
            Code::ParallelWriteOverlap => "HL0201",
            Code::HaloCarriedDependence => "HL0202",
            Code::CarriedDependenceSpansChunks => "HL0203",
            Code::CrossCoreCollision => "HL0204",
            Code::UnprovenIndependence => "HL0205",
            Code::IndexedSharing => "HL0206",
            Code::IndexedWriteRace => "HL0207",
            Code::PossibleOutOfBounds => "HL0301",
            Code::DefiniteOutOfBounds => "HL0302",
            Code::NoProfiledTable => "HL0303",
            Code::TableEntryOutOfBounds => "HL0304",
            Code::TablePositionWraps => "HL0305",
            Code::DeadArray => "HL0306",
            Code::RankMismatch => "HL0307",
            Code::DepthMismatch => "HL0308",
            Code::StrideOverflowRisk => "HL0309",
            Code::EmptyIterationDomain => "HL0310",
            Code::UnusedTable => "HL0311",
            Code::PredictedPlanIneffective => "HL1001",
            Code::PredictedMcImbalance => "HL1002",
            Code::PredictedCapacityStreaming => "HL1003",
            Code::EstimateApproximate => "HL1004",
            Code::PrefetchUselessOnIndexed => "HL1101",
            Code::PrefetchPredictedHarmful => "HL1102",
        }
    }

    /// The severity every finding with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::NonUnimodularTransform
            | Code::SlotAliasing
            | Code::SpanOverflow
            | Code::PlacementCollision
            | Code::BadInterleaveUnit
            | Code::ParallelWriteOverlap
            | Code::CarriedDependenceSpansChunks
            | Code::CrossCoreCollision
            | Code::IndexedWriteRace
            | Code::DefiniteOutOfBounds
            | Code::NoProfiledTable
            | Code::TableEntryOutOfBounds
            | Code::RankMismatch
            | Code::DepthMismatch => Severity::Error,
            Code::UnprovenIndependence
            | Code::PossibleOutOfBounds
            | Code::TablePositionWraps
            | Code::DeadArray
            | Code::StrideOverflowRisk
            | Code::PredictedPlanIneffective
            | Code::PredictedMcImbalance
            | Code::PrefetchPredictedHarmful => Severity::Warning,
            Code::ArraySkipped
            | Code::HaloCarriedDependence
            | Code::IndexedSharing
            | Code::EmptyIterationDomain
            | Code::UnusedTable
            | Code::PredictedCapacityStreaming
            | Code::EstimateApproximate
            | Code::PrefetchUselessOnIndexed => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a coded, located, rendered defect or observation.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable code; fixes the severity.
    pub code: Code,
    /// The application (program) name.
    pub app: String,
    /// The pass configuration label (e.g. `private/cacheline`) for
    /// layout-scoped findings; `None` for program-scoped ones.
    pub config: Option<String>,
    /// Nest index within the program.
    pub nest: Option<usize>,
    /// Statement index within the nest.
    pub statement: Option<usize>,
    /// Reference index within the statement.
    pub reference: Option<usize>,
    /// The array concerned, by name.
    pub array: Option<String>,
    /// The rendered finding.
    pub message: String,
    /// A suggested fix, when the analysis can offer one.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a finding with only app-level location.
    pub fn new(code: Code, app: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            app: app.into(),
            config: None,
            nest: None,
            statement: None,
            reference: None,
            array: None,
            message: message.into(),
            help: None,
        }
    }

    /// The severity implied by the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Attaches the pass-configuration label.
    pub fn with_config(mut self, label: impl Into<String>) -> Self {
        self.config = Some(label.into());
        self
    }

    /// Attaches a `(nest, statement, reference)` location.
    pub fn at(mut self, nest: usize, statement: usize, reference: usize) -> Self {
        self.nest = Some(nest);
        self.statement = Some(statement);
        self.reference = Some(reference);
        self
    }

    /// Attaches only a nest location.
    pub fn in_nest(mut self, nest: usize) -> Self {
        self.nest = Some(nest);
        self
    }

    /// Attaches the concerned array's name.
    pub fn on_array(mut self, name: impl Into<String>) -> Self {
        self.array = Some(name.into());
        self
    }

    /// Attaches a suggested fix.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

/// Severity tallies over a batch of findings.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counts {
    /// Number of errors.
    pub errors: usize,
    /// Number of warnings.
    pub warnings: usize,
    /// Number of notes.
    pub notes: usize,
}

/// Tallies findings by severity.
pub fn count(diags: &[Diagnostic]) -> Counts {
    let mut c = Counts::default();
    for d in diags {
        match d.severity() {
            Severity::Error => c.errors += 1,
            Severity::Warning => c.warnings += 1,
            Severity::Note => c.notes += 1,
        }
    }
    c
}

/// Whether a batch should fail the run: any error, or any warning when
/// `deny_warnings` escalates them. Notes never gate.
pub fn should_fail(diags: &[Diagnostic], deny_warnings: bool) -> bool {
    let c = count(diags);
    c.errors > 0 || (deny_warnings && c.warnings > 0)
}

/// Renders one finding's location prefix: `app [config] nest N stmt S ref R`.
fn location(d: &Diagnostic) -> String {
    let mut out = d.app.clone();
    if let Some(cfg) = &d.config {
        let _ = write!(out, " [{cfg}]");
    }
    if let Some(n) = d.nest {
        let _ = write!(out, " nest {n}");
    }
    if let Some(s) = d.statement {
        let _ = write!(out, " stmt {s}");
    }
    if let Some(r) = d.reference {
        let _ = write!(out, " ref {r}");
    }
    if let Some(a) = &d.array {
        let _ = write!(out, " array `{a}`");
    }
    out
}

/// Renders findings as compiler-style text, one per line (plus help
/// lines), most severe first within the given order.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(
            out,
            "{}[{}]: {}: {}",
            d.severity().name(),
            d.code,
            location(d),
            d.message
        );
        if let Some(h) = &d.help {
            let _ = writeln!(out, "    help: {h}");
        }
    }
    out
}

/// Serializes findings as a JSON document. Hand-rolled like the harness's
/// emitter: the workspace has no serde and builds offline.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let c = count(diags);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"counts\": {{\"errors\": {}, \"warnings\": {}, \"notes\": {}}},",
        c.errors, c.warnings, c.notes
    );
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let opt_num = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        let opt_str = |v: &Option<String>| v.as_deref().map_or("null".to_string(), json_string);
        let _ = write!(
            out,
            "    {{\"code\": \"{}\", \"severity\": \"{}\", \"app\": {}, \
             \"config\": {}, \"nest\": {}, \"statement\": {}, \"reference\": {}, \
             \"array\": {}, \"message\": {}, \"help\": {}}}",
            d.code,
            d.severity().name(),
            json_string(&d.app),
            opt_str(&d.config),
            opt_num(d.nest),
            opt_num(d.statement),
            opt_num(d.reference),
            opt_str(&d.array),
            json_string(&d.message),
            opt_str(&d.help),
        );
        out.push_str(if i + 1 < diags.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new(Code::SlotAliasing, "swim", "slot 3 assigned twice")
                .with_config("private/cacheline")
                .on_array("U"),
            Diagnostic::new(Code::PossibleOutOfBounds, "swim", "subscript may reach -1")
                .at(1, 0, 2)
                .on_array("V")
                .with_help("widen the array or shift the offset"),
            Diagnostic::new(Code::HaloCarriedDependence, "mgrid", "distance 1 at dim 0").in_nest(2),
        ]
    }

    #[test]
    fn severities_follow_codes() {
        assert_eq!(Code::SlotAliasing.severity(), Severity::Error);
        assert_eq!(Code::PossibleOutOfBounds.severity(), Severity::Warning);
        assert_eq!(Code::HaloCarriedDependence.severity(), Severity::Note);
    }

    #[test]
    fn counts_and_gating() {
        let d = sample();
        let c = count(&d);
        assert_eq!((c.errors, c.warnings, c.notes), (1, 1, 1));
        assert!(should_fail(&d, false));
        let warn_only = &d[1..];
        assert!(!should_fail(warn_only, false));
        assert!(should_fail(warn_only, true));
        let note_only = &d[2..];
        assert!(!should_fail(note_only, true), "notes never gate");
    }

    #[test]
    fn text_rendering_includes_code_and_location() {
        let t = render_text(&sample());
        assert!(t.contains("error[HL0102]: swim [private/cacheline] array `U`"));
        assert!(t.contains("warning[HL0301]: swim nest 1 stmt 0 ref 2 array `V`"));
        assert!(t.contains("    help: widen the array"));
        assert!(t.contains("note[HL0202]: mgrid nest 2"));
    }

    #[test]
    fn json_is_balanced_and_typed() {
        let j = render_json(&sample());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"code\": \"HL0102\""));
        assert!(j.contains("\"severity\": \"error\""));
        assert!(j.contains("\"counts\": {\"errors\": 1, \"warnings\": 1, \"notes\": 1}"));
        assert!(j.contains("\"nest\": null"));
        assert!(j.contains("\"help\": \"widen the array or shift the offset\""));
    }

    #[test]
    fn json_of_empty_batch_is_wellformed() {
        let j = render_json(&[]);
        assert!(j.contains("\"diagnostics\": [\n  ]"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
