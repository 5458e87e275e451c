//! Self-test of the benchmark at a tiny size: every metric is emitted with
//! its unit on every workload, `BENCHMARK.json` names the same metrics, and
//! a failed operation lowers `success_rate`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dide_perfbench::ledger::Ledger;
use dide_perfbench::report::{Report, END_TO_END, PER_LAYER};
use dide_perfbench::workload::{Kind, Sizes};
use dide_perfbench::{run, Options};

fn tiny(kind: Kind, trace: bool, ledger: &mut Ledger) -> Report {
    // Tests run in parallel; each run gets a store directory of its own.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{}-{run_id}",
        std::process::id(),
        kind.name()
    ));
    let options = Options {
        kind,
        seed: 3,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
        work_dir: work_dir.clone(),
    };
    let report = run(&options, ledger).expect("tiny run sets up");
    let _ = std::fs::remove_dir_all(work_dir);
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report.metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("no {name}")).1
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for kind in Kind::ALL {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = tiny(kind, trace, &mut Ledger::default());
            let what = format!("{} trace={trace}", kind.name());
            assert!(report.correct && report.failed == 0, "{what}: {report:?}");
            assert!(report.attempted > 0, "{what}");
            let emitted: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(emitted, table, "{what}");
            assert!(report.metrics.iter().all(|m| m.1.is_finite()), "{what}: {report:?}");
            if !trace {
                // End-to-end metrics are never 0.
                assert!(report.metrics.iter().all(|m| m.1 > 0.0), "{what}: {report:?}");
                assert_eq!(value(&report, "success_rate"), 1.0);
            }
            let json = report.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
            assert!(!json.contains('\n'));
        }
    }
}

#[test]
fn traced_runs_measure_each_workloads_layers() {
    let suite = tiny(Kind::Suite, true, &mut Ledger::default());
    for name in
        ["emu.run_s", "analysis.analyze_s", "pipeline.unified_ns_per_cycle", "pipeline.cycles"]
    {
        assert!(value(&suite, name) > 0.0, "suite {name}");
    }
    assert_eq!(value(&suite, "pipeline.clustered_s"), 0.0, "suite runs no clustered loop");

    let stream = tiny(Kind::Stream, true, &mut Ledger::default());
    for name in
        ["analysis.streamed_s", "pipeline.streamed_s", "analysis.escaped", "analysis.epochs"]
    {
        assert!(value(&stream, name) > 0.0, "stream {name}");
    }

    let campaign = tiny(Kind::Campaign, true, &mut Ledger::default());
    for name in [
        "pipeline.cluster_host_ratio",
        "pipeline.steered_dead",
        "campaign.direct_s",
        "campaign.parallel_efficiency",
        "store.report_s",
    ] {
        assert!(value(&campaign, name) > 0.0, "campaign {name}");
    }
    // 14 named programs + 4 generated, each at 2 machines x {off, cfi 8,
    // cfi 12, oracle}; the off and oracle rows alias across thresholds.
    assert_eq!(value(&campaign, "campaign.jobs_unique"), 144.0);
    assert_eq!(value(&campaign, "campaign.jobs_deduped"), 72.0);
    assert_eq!(value(&campaign, "store.records"), 144.0);
    assert!(value(&campaign, "fixture.misses") >= 18.0);
}

#[test]
fn a_wrong_expected_count_is_a_failed_operation() {
    let mut ledger = Ledger::default();
    ledger.expect_exact("pass:pipeline.cycles", 1);
    let report = tiny(Kind::Suite, false, &mut ledger);
    assert!(!report.correct);
    assert_eq!(report.failed, 1, "one pass, one drifted count set");
    assert!(value(&report, "success_rate") < 1.0);
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    for kind in Kind::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", kind.name())));
    }
}
