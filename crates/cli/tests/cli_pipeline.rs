//! End-to-end tests of the `extrap` binary: trace → translate →
//! report/simulate/timeline/lint over real files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn extrap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_extrap"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Runs `extrap args` with `dir` as the working directory.
fn extrap_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_extrap"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("extrap-cli-test-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_through_the_binary() {
    let dir = tmpdir("pipeline");
    let xtrp = dir.join("grid.xtrp");
    let xtps = dir.join("grid.xtps");

    let out = extrap(&[
        "trace",
        "grid",
        "4",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("4 threads"));

    let out = extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        xtps.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("translated 4 threads"));

    // A zero budget spills every batch; the set file is the same bytes.
    let spilled = dir.join("grid-spilled.xtps");
    let out = extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        spilled.to_str().unwrap(),
        "--mem-budget",
        "0",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&spilled).unwrap(),
        std::fs::read(&xtps).unwrap()
    );

    let out = extrap(&["report", xtps.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("barriers:"));
    assert!(text.contains("remote accesses:"));

    let out = extrap(&["simulate", xtps.to_str().unwrap(), "--machine", "cm5"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("predicted execution time"));

    let out = extrap(&["timeline", xtps.to_str().unwrap(), "--width", "60"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("T0"));

    // The §5 determinism check is lint's E007; `check` is only the
    // model checker and points there.
    let out = extrap(&["lint", xtps.to_str().unwrap()]);
    assert!(out.status.success(), "grid is read-only: {out:?}");
    let out = extrap(&["check", xtps.to_str().unwrap()]);
    assert!(!out.status.success(), "check takes no trace file: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("extrap lint FILE"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_honors_param_overrides() {
    let dir = tmpdir("overrides");
    let xtrp = dir.join("embar.xtrp");
    let xtps = dir.join("embar.xtps");
    extrap(&[
        "trace",
        "embar",
        "2",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        xtps.to_str().unwrap(),
    ]);

    let base = stdout(&extrap(&[
        "simulate",
        xtps.to_str().unwrap(),
        "--machine",
        "ideal",
    ]));
    let slowed = stdout(&extrap(&[
        "simulate",
        xtps.to_str().unwrap(),
        "--machine",
        "ideal",
        "--set",
        "MipsRatio=2.0",
    ]));
    let time = |s: &str| -> f64 {
        s.lines()
            .find(|l| l.contains("predicted execution time"))
            .unwrap()
            .split_whitespace()
            .nth(3)
            .unwrap()
            .parse()
            .unwrap()
    };
    let (t_base, t_slow) = (time(&base), time(&slowed));
    assert!(
        (t_slow / t_base - 2.0).abs() < 0.05,
        "MipsRatio=2 should double the time: {t_base} vs {t_slow}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn params_round_trip_through_a_file() {
    let dir = tmpdir("params");
    let cfg = dir.join("machine.cfg");
    let out = extrap(&["params", "--machine", "cm5"]);
    assert!(out.status.success());
    std::fs::write(&cfg, out.stdout).unwrap();

    let xtrp = dir.join("t.xtrp");
    let xtps = dir.join("t.xtps");
    extrap(&[
        "trace",
        "cyclic",
        "2",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        xtps.to_str().unwrap(),
    ]);

    let via_file = stdout(&extrap(&[
        "simulate",
        xtps.to_str().unwrap(),
        "--params",
        cfg.to_str().unwrap(),
    ]));
    let via_preset = stdout(&extrap(&[
        "simulate",
        xtps.to_str().unwrap(),
        "--machine",
        "cm5",
    ]));
    assert_eq!(
        via_file.lines().next(),
        via_preset.lines().next(),
        "config file must reproduce the preset"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_compares_two_machines() {
    let dir = tmpdir("diff");
    let xtrp = dir.join("m.xtrp");
    let xtps = dir.join("m.xtps");
    extrap(&[
        "trace",
        "mgrid",
        "4",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        xtps.to_str().unwrap(),
    ]);
    let out = extrap(&["diff", xtps.to_str().unwrap(), "distributed", "cm5"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("prediction diff"));
    assert!(text.contains("barrier wait"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every trace reader takes a raw capture as well as its translation
/// and prints the same bytes for both.  Each command runs once in a
/// directory holding the raw trace and once in one holding the set,
/// under the same file name, so path-bearing output lines agree too.
#[test]
fn raw_and_translated_inputs_print_identical_output() {
    let dir = tmpdir("raw-vs-set");
    for bench in ["grid", "mgrid", "embar"] {
        let raw_dir = dir.join(format!("{bench}-raw"));
        let set_dir = dir.join(format!("{bench}-set"));
        std::fs::create_dir_all(&raw_dir).unwrap();
        std::fs::create_dir_all(&set_dir).unwrap();
        let raw = raw_dir.join("trace");
        let set = set_dir.join("trace");
        let (raw, set) = (raw.to_str().unwrap(), set.to_str().unwrap());
        let out = extrap(&["trace", bench, "4", "--scale", "tiny", "-o", raw]);
        assert!(out.status.success(), "{out:?}");
        let out = extrap(&["translate", raw, "-o", set]);
        assert!(out.status.success(), "{out:?}");
        for args in [
            &["simulate", "trace", "--predicted", "predicted.xtps"][..],
            &["analyze", "trace", "--format", "json"],
            &["stats", "trace"],
            &["stats", "trace", "--phases"],
            &["report", "trace"],
            &["diff", "trace", "cm5", "ideal"],
        ] {
            let from_raw = extrap_in(&raw_dir, args);
            let from_set = extrap_in(&set_dir, args);
            assert!(from_raw.status.success(), "{bench} {args:?}: {from_raw:?}");
            assert!(from_set.status.success(), "{bench} {args:?}: {from_set:?}");
            assert_eq!(
                stdout(&from_raw),
                stdout(&from_set),
                "{bench} {args:?}: raw and translated output differ"
            );
        }
        assert_eq!(
            std::fs::read(raw_dir.join("predicted.xtps")).unwrap(),
            std::fs::read(set_dir.join("predicted.xtps")).unwrap(),
            "{bench}: predicted traces differ"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `extrap args`, expecting exit code 1 and exactly `stderr`.
fn assert_fails_with(args: &[&str], stderr: &str) {
    let out = extrap(args);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), stderr, "{args:?}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    use extrap_time::{BarrierId, ThreadId, TimeNs};
    use extrap_trace::{format, EventKind, ProgramTrace, ThreadTrace, TraceRecord, TraceSet};

    let out = extrap(&["trace", "nope", "4", "-o", "/dev/null"]);
    assert!(!out.status.success());
    let out = extrap(&["frobnicate"]);
    assert!(!out.status.success());
    let out = extrap(&["benches"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("Embar"));

    let dir = tmpdir("bad-inputs");
    let rec = |time: u64, thread: u32, kind| TraceRecord {
        time: TimeNs(time),
        thread: ThreadId(thread),
        kind,
    };
    let enter = |b: u32| EventKind::BarrierEnter {
        barrier: BarrierId(b),
    };
    let exit = |b: u32| EventKind::BarrierExit {
        barrier: BarrierId(b),
    };
    // A set whose threads pass different barriers.
    let badset = dir.join("badset.xtps");
    let thread = |t: u32, b: u32| ThreadTrace {
        thread: ThreadId(t),
        records: vec![
            rec(0, t, EventKind::ThreadBegin),
            rec(10, t, enter(b)),
            rec(10, t, exit(b)),
            rec(20, t, EventKind::ThreadEnd),
        ],
    };
    let set = TraceSet {
        threads: vec![thread(0, 0), thread(1, 5)],
    };
    std::fs::write(&badset, format::encode_set(&set)).unwrap();
    // A set whose thread 1 clock runs backwards at its last record, and
    // a clean set cut off inside thread 1's records.
    let regress = dir.join("regress.xtps");
    let mut regressed = TraceSet {
        threads: vec![thread(0, 0), thread(1, 0)],
    };
    regressed.threads[1].records[3].time = TimeNs(5);
    std::fs::write(&regress, format::encode_set(&regressed)).unwrap();
    let truncated = dir.join("truncated.xtps");
    let mut cut = format::encode_set(&TraceSet {
        threads: vec![thread(0, 0), thread(1, 0)],
    });
    cut.truncate(cut.len() - 7);
    std::fs::write(&truncated, cut).unwrap();
    // A bare set header that declares u32::MAX threads.
    let forged = dir.join("forged.xtps");
    let mut header = format::encode_set(&TraceSet { threads: vec![] });
    header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&forged, header).unwrap();
    let missing = dir.join("missing.xtps");

    let badset = badset.to_str().unwrap();
    let forged = forged.to_str().unwrap();
    let missing = missing.to_str().unwrap();
    let regress = regress.to_str().unwrap();
    let truncated = truncated.to_str().unwrap();
    let regression = format!("extrap: {regress}: timestamp regression in T1 at record 3\n");
    let cut_short =
        format!("extrap: {truncated}: malformed trace: truncated while reading record header\n");
    let mismatch = format!(
        "extrap: {badset}: T1 passes a different barrier sequence than thread 0 \
         (program is not deterministically data-parallel)\n"
    );
    let forged_count = format!(
        "extrap: {forged}: malformed trace: header declares 4294967295 threads, \
         more than the 4096 supported\n"
    );
    let absent =
        format!("extrap: {missing}: trace I/O error: No such file or directory (os error 2)\n");
    for (file, err) in [
        (badset, &mismatch),
        (forged, &forged_count),
        (missing, &absent),
        (regress, &regression),
        (truncated, &cut_short),
    ] {
        // `stats` reads the same walk as `simulate` and prints the
        // same first error, with or without the epoch section.
        assert_fails_with(&["stats", file], err);
        assert_fails_with(&["stats", file, "--phases"], err);
        assert_fails_with(&["simulate", file], err);
        assert_fails_with(&["diff", file, "cm5", "ideal"], err);
        assert_fails_with(&["report", file], err);
        if file != missing {
            // A path that is not a file resolves as a benchmark name.
            assert_fails_with(&["analyze", file], err);
        }
    }

    // `translate` names its input too, for machine errors as well as
    // decode errors: T1 reaches epoch 0 first, so it is the reference.
    let xtrp = dir.join("mismatch.xtrp");
    let mut pt = ProgramTrace::new(3);
    pt.records = vec![
        rec(0, 0, EventKind::ThreadBegin),
        rec(0, 1, EventKind::ThreadBegin),
        rec(0, 2, EventKind::ThreadBegin),
        rec(10, 1, enter(9)),
        rec(20, 0, enter(0)),
        rec(30, 2, enter(0)),
    ];
    std::fs::write(&xtrp, format::encode_program(&pt)).unwrap();
    let xtrp = xtrp.to_str().unwrap();
    let out_path = dir.join("out.xtps");
    let out_path = out_path.to_str().unwrap();
    assert_fails_with(
        &["translate", xtrp, "-o", out_path],
        &format!(
            "extrap: {xtrp}: T0 passes a different barrier sequence than thread 1 \
             (program is not deterministically data-parallel)\n"
        ),
    );
    let missing_xtrp = dir.join("missing.xtrp");
    let missing_xtrp = missing_xtrp.to_str().unwrap();
    assert_fails_with(
        &["translate", missing_xtrp, "-o", out_path],
        &format!(
            "extrap: {missing_xtrp}: trace I/O error: No such file or directory (os error 2)\n"
        ),
    );
    // A raw capture cut off inside a record fails in the decoder.
    let cut_xtrp = dir.join("cut.xtrp");
    let mut cut = format::encode_program(&pt);
    cut.truncate(cut.len() - 3);
    std::fs::write(&cut_xtrp, cut).unwrap();
    let cut_xtrp = cut_xtrp.to_str().unwrap();
    assert_fails_with(
        &["translate", cut_xtrp, "-o", out_path],
        &format!("extrap: {cut_xtrp}: malformed trace: truncated while reading barrier id\n"),
    );
    // Every reader of raw captures prints what `translate` prints.
    for file in [xtrp, cut_xtrp] {
        let translated = extrap(&["translate", file, "-o", out_path]);
        let err = String::from_utf8_lossy(&translated.stderr).to_string();
        assert_fails_with(&["stats", file], &err);
        assert_fails_with(&["stats", file, "--phases"], &err);
        assert_fails_with(&["simulate", file], &err);
        assert_fails_with(&["analyze", file], &err);
        assert_fails_with(&["diff", file, "cm5", "ideal"], &err);
        assert_fails_with(&["report", file], &err);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_accepts_clean_traces_and_configs() {
    let dir = tmpdir("lint-clean");
    let xtrp = dir.join("c.xtrp");
    let xtps = dir.join("c.xtps");
    extrap(&[
        "trace",
        "grid",
        "4",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        xtps.to_str().unwrap(),
    ]);
    let cfg = dir.join("machine.cfg");
    std::fs::write(&cfg, stdout(&extrap(&["params", "--machine", "cm5"]))).unwrap();

    let out = extrap(&[
        "lint",
        xtrp.to_str().unwrap(),
        xtps.to_str().unwrap(),
        cfg.to_str().unwrap(),
        "--machine",
        "ideal",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert_eq!(text.matches("clean: no diagnostics").count(), 4);

    let out = extrap(&["lint", xtps.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success(), "{out:?}");
    let json = stdout(&out);
    assert!(json.contains("\"diagnostics\":[]"), "{json}");
    assert!(
        json.trim_end().ends_with("\"errors\":0,\"warnings\":0}"),
        "{json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_flags_corruption_and_exits_nonzero() {
    let dir = tmpdir("lint-bad");
    let cfg = dir.join("bad.cfg");
    std::fs::write(&cfg, "MipsRatio = 0\n").unwrap();
    let out = extrap(&["lint", cfg.to_str().unwrap()]);
    assert!(!out.status.success(), "out-of-range param must fail lint");
    assert!(stdout(&out).contains("error[E008]"));

    let out = extrap(&["lint", cfg.to_str().unwrap(), "--format", "json"]);
    assert!(!out.status.success());
    let json = stdout(&out);
    assert!(json.contains("\"code\":\"E008\""), "{json}");
    assert!(json.contains("\"errors\":1"), "{json}");

    // A corrupted binary trace: the strict reader would refuse it, but
    // `lint` decodes raw and must diagnose it with a stable code.
    let xtrp = dir.join("t.xtrp");
    extrap(&[
        "trace",
        "embar",
        "2",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    let mut bytes = std::fs::read(&xtrp).unwrap();
    // Zero the (little-endian u64) timestamp of the last record: each
    // record is 8 (time) + 4 (thread) + 1 (kind) + payload; the final
    // record is thread-end (no payload), 13 bytes from the stream's tail.
    let n = bytes.len();
    for b in &mut bytes[n - 13..n - 5] {
        *b = 0;
    }
    std::fs::write(&xtrp, &bytes).unwrap();
    let out = extrap(&["lint", xtrp.to_str().unwrap()]);
    assert!(!out.status.success(), "time regression must fail lint");
    assert!(stdout(&out).contains("error[E001]"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// `lint` and `simulate --params` judge a params file by the same rule
/// list: every file `simulate` refuses, `lint` flags as `E008`.
#[test]
fn lint_flags_every_params_rule_simulate_enforces() {
    let dir = tmpdir("lint-repr");
    for (strategy, message) in [
        ("repr:0", "representative max_clusters must be >= 1"),
        (
            "repr:4:-1",
            "representative tolerance must be non-negative, got -1",
        ),
    ] {
        let cfg = dir.join("repr.cfg");
        std::fs::write(&cfg, format!("Strategy = {strategy}\n")).unwrap();
        let out = extrap(&["lint", cfg.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{strategy}: {out:?}");
        let text = stdout(&out);
        assert_eq!(text.matches("error[E008]").count(), 1, "{strategy}: {text}");
        assert!(text.contains(message), "{strategy}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_codes_listing() {
    let out = extrap(&["lint", "--codes"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for code in ["E001", "E005", "E007", "E008", "W001", "W004"] {
        assert!(text.contains(code), "missing {code} in listing");
    }
}

#[test]
fn lint_recurses_directories_and_is_deterministic() {
    let dir = tmpdir("lint-dir");
    let sub = dir.join("nested");
    std::fs::create_dir_all(&sub).unwrap();
    let xtrp = dir.join("a.xtrp");
    extrap(&[
        "trace",
        "grid",
        "2",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    let xtps = sub.join("b.xtps");
    extrap(&[
        "translate",
        xtrp.to_str().unwrap(),
        "-o",
        xtps.to_str().unwrap(),
    ]);
    std::fs::write(
        sub.join("machine.cfg"),
        stdout(&extrap(&["params", "--machine", "cm5"])),
    )
    .unwrap();
    std::fs::write(dir.join("notes.txt"), "not linted").unwrap();

    let serial = extrap(&["lint", dir.to_str().unwrap(), "--jobs", "1"]);
    assert!(serial.status.success(), "{serial:?}");
    let text = stdout(&serial);
    assert_eq!(text.matches("clean: no diagnostics").count(), 3, "{text}");
    assert!(
        !text.contains("notes.txt"),
        "unrecognized extensions must be skipped: {text}"
    );
    let (a, b, c) = (
        text.find("a.xtrp").unwrap(),
        text.find("b.xtps").unwrap(),
        text.find("machine.cfg").unwrap(),
    );
    assert!(
        a < b && b < c,
        "directory expansion must be path-sorted: {text}"
    );

    let parallel = extrap(&["lint", dir.to_str().unwrap(), "--jobs", "8"]);
    assert!(parallel.status.success(), "{parallel:?}");
    assert_eq!(
        text,
        stdout(&parallel),
        "lint output must not depend on the worker count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_fix_repairs_fixable_corruption() {
    let dir = tmpdir("lint-fix");
    let xtrp = dir.join("t.xtrp");
    extrap(&[
        "trace",
        "embar",
        "2",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    // Zero the timestamp of the final record (a 13-byte thread-end):
    // an E001 regression the fixer can repair by re-sorting.
    let mut bytes = std::fs::read(&xtrp).unwrap();
    let n = bytes.len();
    for b in &mut bytes[n - 13..n - 5] {
        *b = 0;
    }
    std::fs::write(&xtrp, &bytes).unwrap();
    assert!(!extrap(&["lint", xtrp.to_str().unwrap()]).status.success());

    // --dry-run reports the repairs but must not touch the file.
    let out = extrap(&["lint", "--fix", xtrp.to_str().unwrap(), "--dry-run"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("fix[E001]"), "{}", stdout(&out));
    assert_eq!(
        std::fs::read(&xtrp).unwrap(),
        bytes,
        "--dry-run must not write"
    );

    // --fix --out writes a repaired copy that then lints clean.
    let fixed = dir.join("fixed.xtrp");
    let out = extrap(&[
        "lint",
        "--fix",
        xtrp.to_str().unwrap(),
        "--out",
        fixed.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("wrote fixed trace"),
        "{}",
        stdout(&out)
    );
    let out = extrap(&["lint", fixed.to_str().unwrap()]);
    assert!(out.status.success(), "fixed file must lint clean: {out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_fix_refuses_unfixable_corruption() {
    let dir = tmpdir("lint-unfixable");
    let xtrp = dir.join("t.xtrp");
    extrap(&[
        "trace",
        "embar",
        "2",
        "--scale",
        "tiny",
        "-o",
        xtrp.to_str().unwrap(),
    ]);
    // Zero the timestamp of T1's trailing barrier-exit (the 17-byte
    // record starting 59 bytes from the end; the embar generator is
    // deterministic).  Re-sorting would drag the exit across its
    // matching enter, so this regression is NOT mechanically fixable.
    let mut bytes = std::fs::read(&xtrp).unwrap();
    let n = bytes.len();
    for b in &mut bytes[n - 59..n - 51] {
        *b = 0;
    }
    std::fs::write(&xtrp, &bytes).unwrap();

    let fixed = dir.join("fixed.xtrp");
    let out = extrap(&[
        "lint",
        "--fix",
        xtrp.to_str().unwrap(),
        "--out",
        fixed.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "unfixable corruption must fail --fix"
    );
    assert!(stdout(&out).contains("[unfixable]"), "{}", stdout(&out));
    assert!(!fixed.exists(), "--fix must not write a still-broken trace");
    // Configs have nothing to rewrite either.
    let cfg = dir.join("m.cfg");
    std::fs::write(&cfg, "MipsRatio = 1\n").unwrap();
    assert!(!extrap(&["lint", "--fix", cfg.to_str().unwrap()])
        .status
        .success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_allow_and_deny_warnings() {
    let dir = tmpdir("lint-allow");
    let cfg = dir.join("warn.cfg");
    // Legal but suspicious: contention enabled with a no-op alpha (W004).
    std::fs::write(&cfg, "Contention = on\nContentionAlpha = 0\n").unwrap();

    let out = extrap(&["lint", cfg.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "warnings alone must not fail: {out:?}"
    );
    assert!(stdout(&out).contains("warning[W004]"));

    let out = extrap(&["lint", cfg.to_str().unwrap(), "--deny-warnings"]);
    assert!(!out.status.success(), "--deny-warnings must fail on W004");

    let out = extrap(&[
        "lint",
        cfg.to_str().unwrap(),
        "--deny-warnings",
        "--allow",
        "w004",
    ]);
    assert!(out.status.success(), "allowed codes are filtered: {out:?}");
    assert!(stdout(&out).contains("clean: no diagnostics"));

    // --allow also silences errors (case-insensitive code parse).
    let out = extrap(&["lint", cfg.to_str().unwrap(), "--allow", "nope"]);
    assert!(!out.status.success(), "unknown --allow code must error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_is_deterministic_across_worker_counts() {
    let args = |jobs: &'static str| {
        [
            "sweep",
            "embar,grid",
            "--scale",
            "tiny",
            "--procs",
            "1,2,4",
            "--jobs",
            jobs,
            "--csv",
        ]
    };
    let serial = extrap(&args("1"));
    assert!(serial.status.success(), "{serial:?}");
    let parallel = extrap(&args("8"));
    assert!(parallel.status.success(), "{parallel:?}");
    assert_eq!(
        stdout(&serial),
        stdout(&parallel),
        "sweep output must not depend on the worker count"
    );
    let text = stdout(&serial);
    assert!(text.starts_with("bench,procs,time_ms"));
    assert_eq!(
        text.lines().count(),
        1 + 2 * 3,
        "header + 2 benches x 3 procs"
    );
}

#[test]
fn sweep_rejects_the_removed_stream_flag() {
    let dir = tmpdir("no-stream");
    let xtrp = dir.join("grid.xtrp");
    let xtps = dir.join("grid.xtps");
    let (xtrp, xtps) = (xtrp.to_str().unwrap(), xtps.to_str().unwrap());
    let out = extrap(&["trace", "grid", "4", "--scale", "tiny", "-o", xtrp]);
    assert!(out.status.success(), "{out:?}");
    let out = extrap(&["translate", xtrp, "-o", xtps]);
    assert!(out.status.success(), "{out:?}");
    for args in [
        &[
            "sweep", "embar", "--scale", "tiny", "--procs", "1", "--stream",
        ][..],
        &["translate", xtrp, "-o", xtps, "--stream"],
        &["simulate", xtps, "--stream"],
    ] {
        let out = extrap(args);
        assert!(!out.status.success(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{}: unknown flag \"--stream\"", args[0])),
            "unexpected stderr: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_counts_outside_the_cap_are_usage_errors() {
    let max = extrap_trace::format::MAX_THREADS;
    let over = (max + 1).to_string();
    let dir = tmpdir("thread-cap");
    let out_file = dir.join("never.xtrp");
    for args in [
        vec!["trace", "sort", &over, "-o", out_file.to_str().unwrap()],
        vec!["trace", "sort", "0", "-o", out_file.to_str().unwrap()],
        vec!["sweep", "sort", "--scale", "tiny", "--procs", &over],
        vec!["sweep", "sort", "--scale", "tiny", "--procs", "4,0"],
        vec!["analyze", "sort", "--scale", "tiny", "--threads", &over],
    ] {
        let out = extrap(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("1..={max}")), "{args:?}: {err}");
    }
    assert!(!out_file.exists());
}
