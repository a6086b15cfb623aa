//! The profile parity guard.
//!
//! Cargo takes `[profile.*]` from the workspace being built, and this
//! package is its own workspace, so `benchmark/Cargo.toml` carries a copy
//! of the root manifest's `[profile.release]`. The copy is compared with
//! the original, textually, before every run and in the self-tests: a
//! later change to the root profile can neither be invisible to the
//! numbers nor be silently missing from them.

const OWN_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
const ROOT_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");

/// The settings of a manifest's `[profile.release]` section: its lines
/// without comments, blank lines or surrounding space, in file order.
/// A manifest without the section has no settings (cargo's defaults).
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Compares the two sections; `Ok` carries the shared profile on one line.
pub fn check_parity() -> Result<String, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let own = release_profile(&read(OWN_MANIFEST)?);
    let root = release_profile(&read(ROOT_MANIFEST)?);
    if own != root {
        return Err(format!(
            "[profile.release] differs: the root manifest has {root:?}, benchmark/Cargo.toml has \
             {own:?}; copy the root section into benchmark/Cargo.toml and measure again"
        ));
    }
    Ok(own.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_is_extracted_without_comments() {
        let m = "[package]\nname = \"x\"\n\n# why\n[profile.release]\n# note\noverflow-checks = true\n\ndebug = 1\n[dependencies]\na = \"1\"\n";
        assert_eq!(release_profile(m), ["overflow-checks = true", "debug = 1"]);
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn benchmark_profile_matches_the_root() {
        let profile = check_parity().expect("profiles agree");
        assert!(!profile.is_empty(), "the root pins a release profile");
    }
}
