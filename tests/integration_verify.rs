//! Integration tests for the `dide verify` driver: the differential fuzz
//! sweep (report determinism across job counts, corpus replay) and the
//! golden-table bless/compare cycle.

use std::fs;
use std::path::PathBuf;

use dide::{GoldenOptions, VerifyOptions};
use dide_verify::{golden_path, save_case, CorpusCase};
use dide_workloads::GenConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dide-verify-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fuzz_sweep_is_clean_and_byte_identical_across_job_counts() {
    let serial = dide::run_verify(&VerifyOptions { seeds: 12, jobs: 1, corpus: None }).unwrap();
    let parallel = dide::run_verify(&VerifyOptions { seeds: 12, jobs: 4, corpus: None }).unwrap();
    assert_eq!(serial.report, parallel.report, "report must not depend on --jobs");
    assert!(serial.is_clean(), "stack must verify clean:\n{}", serial.report);
    assert_eq!(serial.seeds_checked, 12);
    assert_eq!(serial.corpus_replayed, 0);
    assert!(serial.report.contains("checked 12 seed(s)"));
    assert!(serial.report.contains("0 failure(s)"));
}

#[test]
fn corpus_cases_are_replayed_before_fresh_seeds() {
    let dir = temp_dir("corpus");
    // A clean case: replay notes it as fixed.
    save_case(
        &dir,
        &CorpusCase { seed: 3, config: GenConfig::default(), reason: "old failure".into() },
        "",
    )
    .unwrap();
    let run =
        dide::run_verify(&VerifyOptions { seeds: 2, jobs: 2, corpus: Some(dir.clone()) }).unwrap();
    assert_eq!(run.corpus_replayed, 1);
    assert_eq!(run.failures, 0, "{}", run.report);
    assert!(run.report.contains("replaying 1 corpus case(s)"));
    assert!(run.report.contains("clean (fixed"));
    // An invalid-config case cannot be replayed: the corpus fails to load,
    // naming the file, instead of reporting a model failure.
    save_case(
        &dir,
        &CorpusCase {
            seed: 4,
            config: GenConfig { segments: 0, ..GenConfig::default() },
            reason: "synthetic".into(),
        },
        "",
    )
    .unwrap();
    let err = dide::run_verify(&VerifyOptions { seeds: 2, jobs: 2, corpus: Some(dir.clone()) })
        .unwrap_err()
        .to_string();
    assert!(err.contains("seed-0000000000000004.case"), "{err}");
    assert!(err.contains("segments must be at least 1"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_bless_compare_and_tamper_detection() {
    let dir = temp_dir("golden");
    let subset = Some(vec!["e1".to_string(), "e10".to_string()]);

    // Unblessed directory: every table is a mismatch, with a bless hint.
    let unblessed = dide::run_golden(&GoldenOptions {
        dir: dir.clone(),
        only: subset.clone(),
        jobs: 2,
        bless: false,
    })
    .unwrap();
    assert_eq!(unblessed.mismatches, 2, "{}", unblessed.report);
    assert!(unblessed.report.contains("--bless"));

    // Bless, then compare: clean.
    let blessed = dide::run_golden(&GoldenOptions {
        dir: dir.clone(),
        only: subset.clone(),
        jobs: 2,
        bless: true,
    })
    .unwrap();
    assert_eq!(blessed.mismatches, 0);
    assert!(blessed.report.contains("blessed 2 snapshot(s)"));
    let clean = dide::run_golden(&GoldenOptions {
        dir: dir.clone(),
        only: subset.clone(),
        jobs: 2,
        bless: false,
    })
    .unwrap();
    assert_eq!(clean.mismatches, 0, "{}", clean.report);

    // Perturb one snapshot: the comparison pinpoints it.
    let e1 = golden_path(&dir, "e1");
    let mut text = fs::read_to_string(&e1).unwrap();
    text.push_str("tampered\n");
    fs::write(&e1, text).unwrap();
    let tampered =
        dide::run_golden(&GoldenOptions { dir: dir.clone(), only: subset, jobs: 2, bless: false })
            .unwrap();
    assert_eq!(tampered.mismatches, 1, "{}", tampered.report);
    assert!(tampered.report.contains("MISMATCH e1"), "{}", tampered.report);
    fs::remove_dir_all(&dir).unwrap();
}
