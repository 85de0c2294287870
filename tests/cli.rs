//! End-to-end CLI tests. Error layer: every malformed input must exit
//! non-zero with a single `tw: <message>` diagnostic on stderr — no
//! panic, no backtrace, and the conventional exit-code split (2 for
//! usage errors, 1 for runtime failures). Text renderers: stdout of the
//! report-printing commands matches committed transcripts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tw"))
        .args(args)
        .output()
        .expect("tw binary runs")
}

fn stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).trim_end().to_string()
}

/// Asserts the failure contract: given exit code, one-line `tw:`
/// diagnostic, no panic artifacts.
fn assert_diagnostic(out: &Output, code: i32) {
    assert_eq!(
        out.status.code(),
        Some(code),
        "stderr: {}",
        stderr_line(out)
    );
    let err = stderr_line(out);
    assert_eq!(err.lines().count(), 1, "not a one-line diagnostic: {err:?}");
    assert!(err.starts_with("tw: "), "missing tw: prefix: {err:?}");
    assert!(!err.contains("panicked"), "panic leaked: {err:?}");
    assert!(!err.contains("RUST_BACKTRACE"), "backtrace leaked: {err:?}");
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tw-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path
}

#[test]
fn unknown_command_and_flags_are_usage_errors() {
    assert_diagnostic(&tw(&["frobnicate"]), 2);
    assert_diagnostic(&tw(&["bench"]), 2); // retired: perfbench measures speed
    assert_diagnostic(&tw(&["sim", "--bogus-flag"]), 2);
    assert_diagnostic(&tw(&["sim", "--bench"]), 2); // missing value
    assert_diagnostic(&tw(&["sim", "--bench", "gcc", "--config", "nope"]), 2);
    assert_diagnostic(
        &tw(&[
            "sim", "--bench", "gcc", "--config", "headline", "--insts", "lots",
        ]),
        2,
    );
    assert_diagnostic(&tw(&["faults", "--workload", "gcc"]), 2); // no rate/cycles
    assert_diagnostic(
        &tw(&[
            "faults",
            "--workload",
            "gcc",
            "--rate",
            "1e-4",
            "--targets",
            "bogus",
        ]),
        2,
    );
    assert_diagnostic(
        &tw(&["compare", "--bench", "gcc", "--timeout-secs", "0"]),
        2,
    );
}

/// A reader that stops listening (`tw list | head`) is not a failure:
/// `tw` exits 0 with nothing on stderr instead of panicking.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    for args in [&["list"][..], &["lint", "--all"]] {
        // The read end closes before `tw` starts, so its first write
        // fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe opens");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_tw"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("tw binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "`tw {}` stderr: {}",
            args.join(" "),
            stderr_line(&out)
        );
        assert_eq!(stderr_line(&out), "", "`tw {}`", args.join(" "));
    }
}

#[test]
fn malformed_asm_is_a_runtime_error_with_position() {
    let path = temp_file("bad.s", "li t0, 0\nfrobnicate t1\n");
    let out = tw(&["lint", "--asm", path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_diagnostic(&out, 1);
    let err = stderr_line(&out);
    assert!(
        err.contains("line 2:1"),
        "no position in diagnostic: {err:?}"
    );
    assert!(err.contains("frobnicate"), "no offending token: {err:?}");
}

#[test]
fn valid_asm_lints_clean() {
    let path = temp_file("good.s", ".entry main\nmain:\n  li t0, 3\n  halt\n");
    let out = tw(&["lint", "--asm", path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 instruction(s)"), "{stdout}");
}

#[test]
fn analyze_emits_a_valid_plan_and_sim_consumes_it() {
    // analyze → plan file → analyze --check → sim --plan, end to end.
    let out = tw(&[
        "analyze",
        "--workload",
        "compress",
        "--insts",
        "100000",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"tw-plan/v1\""), "{stdout}");
    assert!(stdout.contains("\"branches\""), "{stdout}");

    let path = temp_file("plan.json", &stdout);
    let p = path.to_str().expect("utf-8 path");
    let check = tw(&["analyze", "--check", p]);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&check)
    );
    let sim = tw(&[
        "sim",
        "--bench",
        "compress",
        "--config",
        "promo-pack",
        "--insts",
        "30000",
        "--plan",
        p,
        "--json",
    ]);
    let wrong = tw(&[
        "sim",
        "--bench",
        "gcc",
        "--config",
        "promo-pack",
        "--insts",
        "30000",
        "--plan",
        p,
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(sim.status.code(), Some(0), "stderr: {}", stderr_line(&sim));
    let sim_out = String::from_utf8_lossy(&sim.stdout);
    assert!(sim_out.contains("\"plan\""), "no plan stats: {sim_out}");
    // A plan profiled for compress must be rejected on gcc.
    assert_diagnostic(&wrong, 1);
}

#[test]
fn malformed_plans_are_runtime_errors() {
    let inputs = [
        ("bad-plan.json", "{\"schema\": \"tw-plan/v9\"}"),
        (
            "trunc-plan.json",
            "{\"schema\":\"tw-plan/v1\",\"workload\":\"compress\",\"branches\":[",
        ),
    ];
    for (name, contents) in inputs {
        let bad = temp_file(name, contents);
        let p = bad.to_str().expect("utf-8 path");
        let check = tw(&["analyze", "--check", p]);
        let sim = tw(&[
            "sim",
            "--bench",
            "compress",
            "--config",
            "promotion",
            "--plan",
            p,
        ]);
        let _ = std::fs::remove_file(&bad);
        assert_diagnostic(&check, 1);
        assert_diagnostic(&sim, 1);
    }
    let missing = tw(&["analyze", "--check", "/nonexistent/definitely-missing.json"]);
    assert_diagnostic(&missing, 1);
    // analyze without a workload is a usage error.
    assert_diagnostic(&tw(&["analyze"]), 2);
}

#[test]
fn faults_subcommand_reports_deterministic_counters() {
    let run = |seed: &str| {
        let out = tw(&[
            "faults",
            "--workload",
            "compress",
            "--preset",
            "headline",
            "--seed",
            seed,
            "--rate",
            "1e-3",
            "--insts",
            "20000",
            "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains("\"fault\""), "no fault stats: {stdout}");
        assert!(stdout.contains("\"injected\""), "{stdout}");
        assert!(stdout.contains("\"escaped\""), "{stdout}");
        stdout
    };
    // Same seed twice: bit-identical output. Different seed: same shape.
    let a = run("11");
    let b = run("11");
    assert_eq!(a, b, "same seed+plan must reproduce exactly");
    let _ = run("12");
}

/// `tw` with an overridden `TW_JOBS` environment value.
fn tw_env(args: &[&str], key: &str, value: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tw"))
        .args(args)
        .env(key, value)
        .output()
        .expect("tw binary runs")
}

#[test]
fn jobs_flag_enforces_the_range_contract() {
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "0"]), 2);
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "1000000"]), 2);
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "-3"]), 2);
    assert_diagnostic(&tw(&["compare", "--bench", "gcc", "--jobs", "many"]), 2);
    let err = stderr_line(&tw(&["compare", "--bench", "gcc", "--jobs", "1000000"]));
    assert!(err.contains("cap"), "names the cap: {err}");
}

#[test]
fn malformed_tw_jobs_is_a_usage_error_not_a_silent_fallback() {
    // `list` exercises flag parsing without simulating anything.
    assert_diagnostic(&tw_env(&["list"], "TW_JOBS", "abc"), 2);
    assert_diagnostic(&tw_env(&["list"], "TW_JOBS", "0"), 2);
    assert_diagnostic(&tw_env(&["list"], "TW_JOBS", "1000000"), 2);
    let err = stderr_line(&tw_env(&["list"], "TW_JOBS", "abc"));
    assert!(err.contains("TW_JOBS"), "names the variable: {err}");

    // Benign spellings still work: unset, empty-trimmed digits, spaces.
    let ok = tw_env(&["list"], "TW_JOBS", " 8 ");
    assert_eq!(ok.status.code(), Some(0), "stderr: {}", stderr_line(&ok));
}

fn temp_bytes(name: &str, contents: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tw-cli-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path
}

#[test]
fn rv_inspects_a_committed_image() {
    // Committed workload images live in the source tree; integration
    // tests run with the package root as the working directory.
    let out = tw(&["rv", "crates/rv/programs/crc.rv.bin"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rv instructions"), "{stdout}");
    assert!(stdout.contains("translated"), "{stdout}");
    assert!(stdout.contains("expansion"), "{stdout}");
}

#[test]
fn malformed_rv_images_are_structured_usage_errors() {
    // Not an image at all.
    let garbage = temp_bytes("garbage.rv.bin", b"ELF\x7fdefinitely not RV32");
    let out = tw(&["rv", garbage.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&garbage);
    assert_diagnostic(&out, 2);
    assert!(stderr_line(&out).contains("magic"), "{}", stderr_line(&out));

    // A valid image truncated mid-segment.
    let whole = std::fs::read("crates/rv/programs/fib.rv.bin").expect("committed image");
    let cut = temp_bytes("trunc.rv.bin", &whole[..whole.len() - 5]);
    let out = tw(&["rv", cut.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&cut);
    assert_diagnostic(&out, 2);
    assert!(
        stderr_line(&out).contains("truncated"),
        "{}",
        stderr_line(&out)
    );

    // Missing file is a runtime error; missing operand a usage error.
    assert_diagnostic(&tw(&["rv", "/nonexistent/definitely-missing.rv.bin"]), 1);
    assert_diagnostic(&tw(&["rv"]), 2);
    assert_diagnostic(&tw(&["rv", "a.rv.bin", "b.rv.bin"]), 2);
}

#[test]
fn rv_workloads_reach_the_sim_surface_by_family_name() {
    let out = tw(&[
        "sim", "--bench", "rv/crc", "--config", "headline", "--insts", "30000", "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"benchmark\": \"rv/crc\""), "{stdout}");
    // Unknown rv/ names get the same usage diagnostic as synthetic ones.
    assert_diagnostic(
        &tw(&["sim", "--bench", "rv/nope", "--config", "headline"]),
        2,
    );
}

#[test]
fn serve_flags_are_validated_before_binding() {
    assert_diagnostic(&tw(&["serve", "--queue-depth", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--cache-entries", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--max-conns", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--max-body", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--max-insts", "0"]), 2);
    assert_diagnostic(&tw(&["serve", "--port", "99999"]), 2);
    assert_diagnostic(
        &tw(&["serve", "--addr", "127.0.0.1:0", "--port", "8080"]),
        2,
    );
    assert_diagnostic(
        &tw(&["serve", "--insts", "2000000", "--max-insts", "1000"]),
        2,
    );
    // An unbindable address is a runtime error (exit 1), not a panic.
    assert_diagnostic(&tw(&["serve", "--addr", "999.999.999.999:1"]), 1);
}

/// The durability contract end to end: artifacts written by `tw` are
/// CRC-stamped, a stamped artifact round-trips, and *any* corruption —
/// a flipped byte, a truncation — turns into an exit-1 one-liner that
/// names the crc32 mismatch instead of a confusing parse error (or
/// worse, silently wrong numbers).
#[test]
fn corrupted_checkpoint_fails_with_crc_diagnostic() {
    let out_path =
        std::env::temp_dir().join(format!("tw-cli-test-{}-ckpt.json", std::process::id()));
    let out_str = out_path.to_str().expect("utf-8 path");
    let save = tw(&[
        "checkpoint",
        "save",
        "--workload",
        "gcc",
        "--insts",
        "30000",
        "--out",
        out_str,
    ]);
    assert_eq!(
        save.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&save)
    );
    let text = std::fs::read_to_string(&out_path).expect("checkpoint written");
    assert!(text.contains("\"crc32\""), "artifact is stamped: {text}");

    // The intact artifact restores cleanly.
    let restore = tw(&[
        "checkpoint",
        "restore",
        "--from",
        out_str,
        "--config",
        "promo-pack",
        "--insts",
        "20000",
    ]);
    assert_eq!(
        restore.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&restore)
    );

    // One flipped byte in the payload: restore must refuse, naming the
    // CRC mismatch — before any parsing can misfire.
    let mut flipped = text.clone().into_bytes();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    std::fs::write(&out_path, &flipped).expect("corrupt rewrite");
    let out = tw(&[
        "checkpoint",
        "restore",
        "--from",
        out_str,
        "--config",
        "promo-pack",
    ]);
    assert_diagnostic(&out, 1);
    assert!(
        stderr_line(&out).contains("crc32 mismatch"),
        "diagnostic names the crc: {}",
        stderr_line(&out)
    );

    // Truncation: the stamp leads the artifact, so a half file is still
    // recognizably stamped and fails the same way.
    std::fs::write(&out_path, &text.as_bytes()[..text.len() / 2]).expect("truncate");
    let out = tw(&[
        "checkpoint",
        "restore",
        "--from",
        out_str,
        "--config",
        "promo-pack",
    ]);
    let _ = std::fs::remove_file(&out_path);
    assert_diagnostic(&out, 1);
    assert!(
        stderr_line(&out).contains("crc32 mismatch"),
        "diagnostic names the crc: {}",
        stderr_line(&out)
    );
}

#[test]
fn corrupted_plan_fails_with_crc_diagnostic() {
    let out_path =
        std::env::temp_dir().join(format!("tw-cli-test-{}-plan.json", std::process::id()));
    let out_str = out_path.to_str().expect("utf-8 path");
    let analyze = tw(&[
        "analyze",
        "--workload",
        "gcc",
        "--insts",
        "30000",
        "--out",
        out_str,
    ]);
    assert_eq!(
        analyze.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&analyze)
    );
    let text = std::fs::read_to_string(&out_path).expect("plan written");
    assert!(text.contains("\"crc32\""), "plan is stamped: {text}");
    let check = tw(&["analyze", "--check", out_str]);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&check)
    );

    let mut flipped = text.into_bytes();
    let last = flipped.len() - 2;
    flipped[last] ^= 0x01;
    std::fs::write(&out_path, &flipped).expect("corrupt rewrite");
    let check = tw(&["analyze", "--check", out_str]);
    let sim = tw(&[
        "sim",
        "--bench",
        "gcc",
        "--config",
        "promo-pack",
        "--insts",
        "20000",
        "--plan",
        out_str,
    ]);
    let _ = std::fs::remove_file(&out_path);
    assert_diagnostic(&check, 1);
    assert_diagnostic(&sim, 1);
    assert!(
        stderr_line(&check).contains("crc32 mismatch"),
        "{}",
        stderr_line(&check)
    );
}

/// Artifacts from before the integrity envelope (no `crc32` field) are
/// still accepted — the stamp is additive, not a format break.
#[test]
fn legacy_unstamped_artifacts_are_still_accepted() {
    let path = std::env::temp_dir().join(format!(
        "tw-cli-test-{}-legacy-plan.json",
        std::process::id()
    ));
    let p = path.to_str().expect("utf-8 path");
    let analyze = tw(&[
        "analyze",
        "--workload",
        "compress",
        "--insts",
        "30000",
        "--out",
        p,
    ]);
    assert_eq!(
        analyze.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&analyze)
    );
    // The same plan without its `crc32` line is what `tw analyze --out`
    // wrote before the envelope existed.
    let stamped = std::fs::read_to_string(&path).expect("plan written");
    let legacy: String = stamped
        .lines()
        .filter(|line| !line.trim_start().starts_with("\"crc32\""))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_ne!(legacy, stamped, "the crc32 line was removed");
    std::fs::write(&path, &legacy).expect("legacy rewrite");
    let check = tw(&["analyze", "--check", p]);
    let sim = tw(&[
        "sim",
        "--bench",
        "compress",
        "--config",
        "promo-pack",
        "--insts",
        "20000",
        "--plan",
        p,
    ]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        stderr_line(&check)
    );
    assert_eq!(sim.status.code(), Some(0), "stderr: {}", stderr_line(&sim));
}

/// The human-readable renderers, pinned: `tw` stdout on 20k-instruction
/// compress runs must match the transcripts under `tests/text/` byte for
/// byte (the JSON reports are pinned separately by the golden fixtures).
#[test]
fn text_output_matches_committed_transcripts() {
    const RUN: [&str; 6] = [
        "--bench", "compress", "--config", "headline", "--insts", "20000",
    ];
    const FAULTS: [&str; 10] = [
        "--workload",
        "compress",
        "--preset",
        "headline",
        "--seed",
        "1",
        "--rate",
        "1e-3",
        "--insts",
        "20000",
    ];
    let cases: [(&str, Vec<&str>); 5] = [
        ("sim.txt", [&["sim"][..], &RUN].concat()),
        (
            "sim_sample.txt",
            [&["sim"][..], &RUN, &["--sample", "2000/10000"]].concat(),
        ),
        (
            "sim_timeline.txt",
            [&["sim"][..], &RUN, &["--timeline", "--interval", "1000"]].concat(),
        ),
        ("faults.txt", [&["faults"][..], &FAULTS].concat()),
        (
            "trace.txt",
            [
                "trace",
                "--workload",
                "compress",
                "--preset",
                "headline",
                "--insts",
                "20000",
                "--limit",
                "2000",
                "--out",
                "trace.json",
            ]
            .to_vec(),
        ),
    ];
    // `tw trace` prints the path it wrote, so every case runs in a
    // scratch directory and names its output relatively.
    let dir = std::env::temp_dir().join(format!("tw-cli-test-{}-text", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    let expected = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/text");
    for (file, args) in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tw"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("tw binary runs");
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_line(&out));
        let want = std::fs::read_to_string(expected.join(file)).expect("transcript reads");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "`tw {}` differs from tests/text/{file}",
            args.join(" ")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
