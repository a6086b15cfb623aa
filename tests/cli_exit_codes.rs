//! Exit codes of the `hoploc` binary for failures that happen after the
//! simulation: a `--json` target that cannot be written is a runtime
//! failure (exit 1) on every subcommand that takes one, not a message on
//! stderr beside a success.

use std::process::Command;

/// A path no run can create, whoever runs it and whatever earlier runs
/// left on the machine: its parent is not a directory.
const UNWRITABLE: &str = "/dev/null/hoploc.json";

fn assert_json_write_failure(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_hoploc"))
        .args(args)
        .args(["--scale", "test", "--json", UNWRITABLE])
        .output()
        .expect("the hoploc binary is built for integration tests");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("error: writing {UNWRITABLE}")),
        "{args:?} did not report the failed write: {stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} must exit 1 when its JSON summary cannot be written"
    );
}

#[test]
fn run_fails_when_its_json_cannot_be_written() {
    assert_json_write_failure(&["run", "swim"]);
}

#[test]
fn sweep_fails_when_its_json_cannot_be_written() {
    assert_json_write_failure(&["sweep"]);
}

#[test]
fn faults_fails_when_its_json_cannot_be_written() {
    assert_json_write_failure(&["faults", "swim"]);
}
