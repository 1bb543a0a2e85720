//! The `extrap-exp` front end: a usage error names the offending token
//! and exits 1, a closed stdout is a quiet exit, and an `--out`
//! directory that cannot be made is an error, not a panic.

use std::process::{Command, Output, Stdio};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_extrap-exp"))
        .args(args)
        .output()
        .expect("run extrap-exp")
}

/// Runs a failing invocation; returns its stderr.
fn failure(args: &[&str]) -> String {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_targets_and_flags_are_rejected_by_name() {
    assert_eq!(
        failure(&["fig10"]),
        "extrap-exp: unknown target \"fig10\"; try `extrap-exp --help`\n"
    );
    assert_eq!(
        failure(&["--sclae", "tiny"]),
        "extrap-exp: unknown flag \"--sclae\"; try `extrap-exp --help`\n"
    );
    let err = failure(&["--scale", "huge", "table1"]);
    assert!(err.contains("bad --scale value \"huge\""), "{err}");
}

#[test]
fn jobs_must_be_positive() {
    let err = failure(&["--jobs", "0", "table1"]);
    assert_eq!(err, "extrap-exp: --jobs needs a positive integer\n");
}

#[test]
fn help_lists_every_flag_and_target() {
    let out = exp(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for word in [
        "--scale",
        "--jobs",
        "--strategy",
        "--out",
        "table1",
        "fig9",
        "repr",
        "bounds",
        "scale",
    ] {
        assert!(help.contains(word), "help must name {word}:\n{help}");
    }
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_exit() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_extrap-exp"))
        .args(["--scale", "tiny", "table1", "table2", "table3"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run extrap-exp");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

#[test]
fn an_unwritable_out_directory_is_an_error() {
    // A directory cannot be made below a regular file.
    let file = std::env::temp_dir().join(format!("extrap-exp-cli-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out_dir = file.join("csv");
    let err = failure(&["--out", out_dir.to_str().unwrap(), "table1"]);
    let _ = std::fs::remove_file(&file);
    assert!(
        err.starts_with(&format!(
            "extrap-exp: cannot create output directory {}: ",
            out_dir.display()
        )),
        "{err}"
    );
}
