//! Exit codes of the `hoploc` binary. A failure that happens after the
//! simulation — a `--json` target that cannot be written — is a runtime
//! failure (exit 1) on every subcommand that takes one, not a message on
//! stderr beside a success. A flag the subcommand does not read, a
//! subcommand that does not exist and a machine that cannot be built are
//! usage errors (exit 2).

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

/// Runs `hoploc <args>` and returns its exit code and stderr.
fn hoploc(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hoploc"))
        .args(args)
        .output()
        .expect("the hoploc binary is built for integration tests");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A flag its subcommand never reads is a usage error naming the
/// subcommand, not something parsed and dropped; so is the subcommand
/// `hoploc-perf` replaced.
#[test]
fn flags_that_would_do_nothing_and_the_bench_subcommand_exit_2() {
    for (args, needle) in [
        (
            &["links", "swim", "--scale", "test", "--json", "out.json"][..],
            "`--json` is not an option of `hoploc links`",
        ),
        (
            &["compile", "swim", "--scale", "test", "--threads", "2"],
            "`--threads` is not an option of `hoploc compile`",
        ),
        (
            &["check", "swim", "--scale", "test", "--page"],
            "`--page` is not an option of `hoploc check`",
        ),
        (&["bench", "--scale", "test"], "unknown subcommand `bench`"),
    ] {
        let (code, stderr) = hoploc(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// One function refuses a value wherever it arrives: the text the CLI
/// prints for `--threads 17` and `--scale huge` is the text a served job
/// with `"threads":17` or `"scale":"huge"` is refused with.
#[test]
fn the_cli_and_the_wire_refuse_a_machine_with_the_same_text() {
    use hoploc::serve::wire::parse_request;
    use hoploc::serve::{Engine, EngineCaps, Request, SuiteEngine};

    let job = |member: &str| {
        parse_request(&format!(
            "{{\"op\":\"submit\",\"job\":{{\"app\":\"swim\",\"kind\":\"baseline\",{member}}}}}"
        ))
    };
    let Ok(Request::Submit(crowded)) = job("\"threads\":17") else {
        panic!("17 threads is a well-formed request; admission refuses it");
    };
    let refused = SuiteEngine::new(EngineCaps::default())
        .validate(&crowded)
        .unwrap_err();
    assert!(refused.contains("at most 16"), "{refused}");
    let (code, stderr) = hoploc(&["run", "swim", "--threads", "17"]);
    assert_eq!((code, stderr), (Some(2), format!("error: {refused}\n")));

    let refused = job("\"scale\":\"huge\"").unwrap_err();
    assert!(refused.contains("\"huge\""), "{refused}");
    let (code, stderr) = hoploc(&["run", "swim", "--scale", "huge"]);
    assert_eq!((code, stderr), (Some(2), format!("error: {refused}\n")));
}
