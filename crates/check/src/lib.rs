//! Static verifier and lint pass over the affine IR and layout output.
//!
//! Three analyses, each reporting structured [`Diagnostic`]s with stable
//! `HLxxxx` codes instead of panicking or silently mis-simulating:
//!
//! * **Layout legality** ([`check_layout`] / [`verify_array_layout`],
//!   HL01xx): proves each strip-mine/permute/pad recipe injective and
//!   in-bounds, and folds the pass's per-array skip reports into notes.
//! * **Race detection** ([`check_races`], HL02xx): recomputes dependences
//!   per reference pair and flags writes whose conflicts cross core chunks
//!   under the block distribution, distinguishing benign halo sharing from
//!   genuine races.
//! * **Bounds and consistency lints** ([`lint_program`], HL03xx): range
//!   analysis of every access against the declared dimensions, overflow
//!   risks, stale ids, rank/depth mismatches, dead arrays, and table
//!   defects.
//!
//! [`check_program`] runs the program-level analyses (lints + races);
//! [`check_layout`] additionally needs a pass result. The `hoploc check`
//! subcommand drives all of them over every application × configuration
//! and renders text or JSON via [`render_text`] / [`render_json`].

mod diag;
mod legality;
mod lints;
mod races;

pub use diag::{count, render_json, render_text, should_fail, Code, Counts, Diagnostic, Severity};
pub use legality::{check_layout, verify_array_layout};
pub use lints::lint_program;
pub use races::check_races;

use hoploc_affine::Program;

/// Tunables of the analyses. The defaults model the paper's machine and
/// keep full verification of every bundled application exact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckConfig {
    /// Cores the parallel dimension is chunked over (Table 1: 64).
    pub cores: u32,
    /// Elements per array above which layout verification subsamples the
    /// index box instead of enumerating it exhaustively.
    pub sample_cap: u64,
    /// Iterations per nest above which the race decision procedure
    /// subsamples sequential dimensions.
    pub enum_cap: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            cores: 64,
            sample_cap: 1 << 17,
            enum_cap: 1 << 22,
        }
    }
}

/// Runs every program-level analysis (bounds/consistency lints, then the
/// race detector) and returns the combined diagnostics.
pub fn check_program(program: &Program, cfg: &CheckConfig) -> Vec<Diagnostic> {
    let mut out = lint_program(program, cfg);
    out.extend(check_races(program, cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoploc_affine::{AffineAccess, ArrayDecl, ArrayRef, Loop, LoopNest, Statement};

    #[test]
    fn defaults_model_the_paper_machine() {
        let cfg = CheckConfig::default();
        assert_eq!(cfg.cores, 64);
    }

    #[test]
    fn check_program_combines_lints_and_races() {
        // One nest with both a dead array (lint) and a broadcast write
        // (race): both families must appear in one report.
        let mut p = Program::new("combo");
        let w = p.add_array(ArrayDecl::new("W", vec![32], 8));
        p.add_array(ArrayDecl::new("dead", vec![8], 8));
        p.add_nest(LoopNest::new(
            vec![Loop::constant(0, 16), Loop::constant(0, 32)],
            0,
            vec![Statement::new(
                vec![ArrayRef::write(
                    w,
                    AffineAccess::new(
                        hoploc_affine::IMat::from_rows(&[&[0, 1]]),
                        hoploc_affine::IVec::zeros(1),
                    ),
                )],
                1,
            )],
            1,
        ));
        let d = check_program(&p, &CheckConfig::default());
        let codes: Vec<_> = d.iter().map(|x| x.code.as_str()).collect();
        assert!(codes.contains(&"HL0306"), "{codes:?}");
        assert!(codes.contains(&"HL0201"), "{codes:?}");
    }
}
