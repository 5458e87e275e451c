//! End-to-end flag validation of the `dide` binary.
//!
//! Every bad flag value must die with exit code 1 and a one-line
//! `error: ...` diagnostic naming the flag — never a panic, never a
//! backtrace, never output on stdout. These run the real binary
//! (`CARGO_BIN_EXE_dide`), so they cover the flag plumbing the unit tests
//! in `dide::cli` cannot: which subcommand routes which flag through the
//! strict parser.

use std::process::{Command, Output};

fn dide(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dide")).args(args).output().expect("dide binary runs")
}

/// Asserts the invocation fails cleanly: exit 1, empty stdout, and a
/// single-line stderr diagnostic containing every expected fragment.
fn assert_one_line_error(args: &[&str], fragments: &[&str]) {
    let out = dide(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1; stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not write stdout");
    assert_eq!(stderr.lines().count(), 1, "{args:?} must emit one line, got: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?} stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    for fragment in fragments {
        assert!(stderr.contains(fragment), "{args:?} stderr missing `{fragment}`: {stderr}");
    }
}

#[test]
fn bench_rejects_bad_scales() {
    assert_one_line_error(&["bench", "--scales", "0"], &["--scales", ">= 1"]);
    assert_one_line_error(&["bench", "--scales", ""], &["--scales", "non-empty list"]);
    assert_one_line_error(&["bench", "--scales", "1,x,4"], &["--scales", ">= 1"]);
    assert_one_line_error(&["bench", "--scales", "1,4,"], &["--scales"]);
}

#[test]
fn run_and_trace_reject_zero_scale() {
    assert_one_line_error(&["run", "expr", "--scale", "0"], &["--scale", ">= 1"]);
    assert_one_line_error(&["trace", "expr", "--scale", "zero"], &["--scale", ">= 1"]);
}

#[test]
fn verify_rejects_bad_numeric_flags() {
    assert_one_line_error(&["verify", "--seeds", "many"], &["--seeds"]);
    assert_one_line_error(&["verify", "--jobs", "0"], &["--jobs", ">= 1"]);
}

#[test]
fn stats_rejects_bad_flags() {
    assert_one_line_error(&["stats", "--benchmark", "nope"], &["unknown benchmark", "dide list"]);
    assert_one_line_error(&["stats", "--scale", "0"], &["--scale", ">= 1"]);
    assert_one_line_error(&["stats", "--json", "--csv"], &["at most one"]);
    assert_one_line_error(&["stats", "--machine", "turbo"], &["unknown machine"]);
}

#[test]
fn events_rejects_bad_flags() {
    assert_one_line_error(&["events", "--last", "0"], &["--last", ">= 1"]);
    assert_one_line_error(&["events", "--sample-every", "-4"], &["--sample-every", ">= 1"]);
    assert_one_line_error(&["events", "--benchmark", "nope"], &["unknown benchmark"]);
}

#[test]
fn campaign_rejects_bad_flags() {
    assert_one_line_error(&["campaign"], &["campaign subcommand"]);
    assert_one_line_error(&["campaign", "sweep"], &["campaign subcommand", "sweep"]);
    assert_one_line_error(&["campaign", "run", "--elims", "turbo"], &["--elims", "turbo"]);
    assert_one_line_error(&["campaign", "run", "--opts", "O3"], &["--opts", "O0 or O2"]);
    assert_one_line_error(&["campaign", "run", "--machines", "quantum"], &["--machines"]);
    assert_one_line_error(&["campaign", "run", "--thresholds", "0"], &["--thresholds", ">= 1"]);
    assert_one_line_error(&["campaign", "run", "--seeds", "1,x"], &["--seeds"]);
    assert_one_line_error(&["campaign", "run", "--benchmarks", "nope"], &["unknown benchmark"]);
    assert_one_line_error(&["campaign", "run", "--flush-every", "0"], &["--flush-every", ">= 1"]);
    assert_one_line_error(&["campaign", "report", "--where", "noequals"], &["--where"]);
    assert_one_line_error(
        &["campaign", "report", "--store", "nonexistent/x.jsonl"],
        &["nonexistent/x.jsonl"],
    );
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dide-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn bench_rejects_bad_baselines_before_measuring() {
    // A baseline that cannot be read, parsed or is of another schema fails
    // the gate closed, before anything is measured: one line naming the
    // file (and line:col), and no report written.
    let dir = scratch_dir("baseline");
    let out = dir.join("out.json");
    let check = |name: &str, contents: Option<&str>, fragments: &[&str]| {
        let baseline = dir.join(name);
        if let Some(contents) = contents {
            std::fs::write(&baseline, contents).expect("write baseline");
        }
        let args = [
            "bench",
            "--quick",
            "--out",
            out.to_str().expect("utf-8 temp path"),
            "--check-against",
            baseline.to_str().expect("utf-8 temp path"),
        ];
        assert_one_line_error(&args, fragments);
        assert!(!out.exists(), "{name}: a rejected baseline must leave --out unwritten");
    };
    check("garbage.json", Some("this is not json"), &["garbage.json:1:1: expected a value"]);
    check(
        "v3.json",
        Some("{\"schema\": \"dide-bench/v3\"}"),
        &["v3.json: schema is dide-bench/v3, expected dide-bench/v4"],
    );
    check("missing.json", None, &["cannot read", "missing.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_report_names_the_damaged_store_line() {
    // Only a torn final line is forgiven; damage before the end is a
    // one-line error naming the line and column.
    let dir = scratch_dir("store");
    let store = dir.join("damaged.jsonl");
    let contents = concat!(
        "{\"schema\":\"dide-campaign-store/v1\",\"grid\":\"f00d\",\"jobs\":3}\n",
        "{\"seq\":0,\"benchmark\":\"expr\"}\n",
        "{\"seq\":1,\"benchmark\":\"rou\n",
        "{\"seq\":2,\"benchmark\":\"sort\"}\n",
    );
    std::fs::write(&store, contents).expect("write store");
    let path = store.to_str().expect("utf-8 temp path");
    assert_one_line_error(
        &["campaign", "report", "--store", path],
        &["damaged.jsonl", "store line 3:26:"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_happy_path_emits_schema() {
    let out = dide(&["stats", "--benchmark", "route", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"dide-stats/v1\""), "{stdout}");
    assert!(stdout.contains("\"benchmark\": \"route\""), "{stdout}");
}

#[test]
fn events_happy_path_shows_tail() {
    let out = dide(&["events", "--benchmark", "route", "--last", "5", "--eliminate"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recorded event(s)"), "{stdout}");
}

/// Repo-root path for a file, valid from the test CWD (`crates/core`).
fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn run_asm_file_matches_the_golden_snapshot() {
    let out = dide(&["run", &repo_path("asm/prime.asm")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let golden = std::fs::read_to_string(repo_path("tests/golden/run_prime.txt"))
        .expect("golden snapshot committed");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "dide run asm/prime.asm drifted from tests/golden/run_prime.txt \
         (re-bless with `dide verify --golden --bless --only run_prime.txt`)"
    );
}

#[test]
fn run_asm_workloads_by_name() {
    for name in ["prime", "matmul", "strsearch"] {
        let out = dide(&["run", name]);
        assert!(out.status.success(), "{name} stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("cycles"), "{name}: {stdout}");
    }
}

#[test]
fn disasm_asm_file_round_trips_to_stdout() {
    let out = dide(&["disasm", &repo_path("asm/strsearch.asm")]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("; program `strsearch`"), "{stdout}");
    assert!(stdout.contains(".data"), "{stdout}");
}

#[test]
fn stats_accepts_asm_workloads_by_name() {
    let out = dide(&["stats", "--benchmark", "prime", "--json", "--eliminate"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"benchmark\": \"prime\""), "{stdout}");
    assert!(stdout.contains("\"violations\": []"), "{stdout}");
}

#[test]
fn list_includes_asm_workloads() {
    let out = dide(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["prime", "matmul", "strsearch", "expr"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn run_rejects_asm_errors_with_position() {
    // A missing file is an I/O error; a bad file is a positioned parse
    // error. Both must be one-line `error:` diagnostics, not panics.
    assert_one_line_error(&["run", "nonexistent/x.asm"], &["nonexistent/x.asm"]);
    let dir = std::env::temp_dir().join("dide-cli-asm-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.asm");
    std::fs::write(&bad, "  adx t0, t1, t2\n  halt\n").expect("write bad.asm");
    assert_one_line_error(
        &["run", bad.to_str().expect("utf-8 temp path")],
        &["bad.asm:1:3: unknown mnemonic `adx`"],
    );
}
