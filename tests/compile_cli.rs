//! End-to-end tests of `gabm compile` and the general CLI surface
//! (`--version`, `help <cmd>`, named unknown-flag errors).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gabm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gabm"))
        .args(args)
        .output()
        .expect("gabm binary runs")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

#[test]
fn compile_prints_program_summary() {
    let out = gabm(&["compile", fixture("clean.fas").to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean: 2 pins"), "{stdout}");
    assert!(stdout.contains("ops in"), "{stdout}");
}

#[test]
fn compile_disasm_lists_bytecode() {
    let out = gabm(&[
        "compile",
        fixture("clean.fas").to_str().unwrap(),
        "--disasm",
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; model clean"), "{stdout}");
    assert!(stdout.contains("<- pin in"), "{stdout}");
    assert!(stdout.contains("impose out"), "{stdout}");
}

/// Malformed input, including nesting deep enough to exhaust the stack
/// of an unbounded recursive-descent parser, is a located lex or parse
/// error and exit code 2 from `compile` and `lint` alike. The usage text
/// follows argument errors only, never an error in the input.
#[test]
fn compile_reports_parse_errors() {
    let dir = std::env::temp_dir().join("gabm_compile_cli_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let model = |body: String| format!("model deep pin (a)\nanalog\n{body}\nendanalog\nendmodel\n");
    let cases = [
        ("model broken pin (\n".to_string(), "parse error at 2:1"),
        (
            model(format!(
                "make x = {}1{}",
                "(".repeat(10_000),
                ")".repeat(10_000)
            )),
            "parse error at 3:74: nested deeper than 64 levels",
        ),
        (
            model(format!("make x = {}1", "-".repeat(30_000))),
            "parse error at 3:74: nested deeper than 64 levels",
        ),
        (
            model(format!("make x = {}", vec!["1"; 50_000].join(" + "))),
            "parse error at 3:2056: expression tree higher than 512 nodes",
        ),
        (
            model(format!(
                "{}make x = 1\n{}",
                "if (mode=dc) then\n".repeat(50_000),
                "endif\n".repeat(50_000)
            )),
            "parse error at 67:1: nested deeper than 64 levels",
        ),
        // A non-ASCII character is named whole, not by its first byte.
        (
            model("make x = 2 é 3".to_string()),
            "lex error at 3:12: unexpected character 'é'",
        ),
    ];
    let bad = dir.join("bad.fas");
    for (text, want) in cases {
        std::fs::write(&bad, text).unwrap();
        for command in ["compile", "lint"] {
            let out = gabm(&[command, bad.to_str().unwrap()]);
            assert_eq!(exit_code(&out), 2, "{command}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("bad.fas") && stderr.contains(want),
                "{stderr}"
            );
            assert!(!stderr.contains("usage:"), "{command}: {stderr}");
        }
    }
    for args in [
        &["compile", bad.to_str().unwrap(), "--wat"][..],
        &["lint", bad.to_str().unwrap(), "--wat"],
        &["compile"],
        &["lint"],
    ] {
        let out = gabm(args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let json = dir.join("deep.json");
    std::fs::write(&json, "[".repeat(100_000) + &"]".repeat(100_000)).unwrap();
    let out = gabm(&["lint", json.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("JSON parse error at byte 128: nested deeper than 128 levels"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compile_missing_file_exits_two() {
    let out = gabm(&["compile", "/nonexistent/model.fas"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read"),
        "{out:?}"
    );
}

#[test]
fn version_flag_prints_version() {
    for flag in ["--version", "-V"] {
        let out = gabm(&[flag]);
        assert_eq!(exit_code(&out), 0, "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("gabm ") && stdout.contains(env!("CARGO_PKG_VERSION")),
            "{stdout}"
        );
    }
}

#[test]
fn help_subcommand_shows_command_usage() {
    let out = gabm(&["help", "compile"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("--disasm"),
        "{out:?}"
    );
    let out = gabm(&["help", "lint"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("--list-passes"),
        "{out:?}"
    );
    let out = gabm(&["help"]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("commands:"),
        "{out:?}"
    );
    let out = gabm(&["help", "frobnicate"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown command 'frobnicate'"),
        "{out:?}"
    );
}

#[test]
fn threads_flag_is_unknown_to_gabm() {
    // No gabm command runs the worker pool, so the flag does not exist.
    let out = gabm(&["--threads", "2", "compile", "x.fas"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag '--threads'"),
        "{out:?}"
    );
    let help = gabm(&["--help"]);
    assert!(
        !String::from_utf8_lossy(&help.stdout).contains("--threads"),
        "{help:?}"
    );
}

#[test]
fn trace_flag_rejects_bad_values_naming_the_flag() {
    let out = gabm(&["compile", "x.fas", "--trace"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--trace requires a value"),
        "{out:?}"
    );
    // A flag where the path should be is a missing value, not a file
    // named "--deny-warnings" — and the message names both flags.
    let out = gabm(&["--trace", "--deny-warnings", "lint", "x.fas"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid value '--deny-warnings' for --trace"),
        "{stderr}"
    );
}

#[test]
fn trace_flag_writes_chrome_json_validated_by_trace_subcommand() {
    let dir = std::env::temp_dir().join("gabm_trace_cli_out");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("compile_trace.json");
    let out = gabm(&[
        "--trace",
        trace.to_str().unwrap(),
        "compile",
        fixture("clean.fas").to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.contains("\"traceEvents\""), "{text}");
    assert!(text.contains("fasvm.compile"), "{text}");
    // The trace subcommand accepts its own output...
    let out = gabm(&["trace", trace.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("top-level spans: fasvm.compile"),
        "{stdout}"
    );
    // ...and rejects files that are not trace-event JSON.
    let bad = dir.join("not_a_trace.json");
    std::fs::write(&bad, "{\"nope\": 1}").unwrap();
    let out = gabm(&["trace", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no 'traceEvents' array"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_env_fallback_and_summary_flag() {
    let dir = std::env::temp_dir().join("gabm_trace_cli_env");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("env_trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_gabm"))
        .args(["compile", fixture("clean.fas").to_str().unwrap()])
        .env("GABM_TRACE", trace.to_str().unwrap())
        .output()
        .expect("gabm binary runs");
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(trace.exists(), "GABM_TRACE fallback writes the trace file");

    let out = gabm(&[
        "--trace-summary",
        "compile",
        fixture("clean.fas").to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace summary:"), "{stdout}");
    assert!(stdout.contains("fasvm.compile"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_and_command_flags_compose_across_positions() {
    let dir = std::env::temp_dir().join("gabm_trace_cli_compose");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("composed.json");
    let out = gabm(&[
        "lint",
        "--deny-warnings",
        fixture("clean.fas").to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{out:?}");
    assert!(trace.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_named() {
    let out = gabm(&["--frobnicate"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag '--frobnicate'"),
        "{out:?}"
    );
    let out = gabm(&["compile", "x.fas", "--wat"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag '--wat'"),
        "{out:?}"
    );
    let out = gabm(&["lint", "x.fas", "--wat"]);
    assert_eq!(exit_code(&out), 2, "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag '--wat'"),
        "{out:?}"
    );
}
