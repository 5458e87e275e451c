//! The `dide verify` driver: differential fuzzing and golden-table
//! regression from the command line.
//!
//! Two modes share the subcommand:
//!
//! * **fuzz** ([`run_verify`]) — replay the on-disk corpus of previously
//!   found failures first, then fan fresh seeds over the worker pool;
//!   every seed runs the full differential check (second liveness oracle
//!   and metamorphic invariants, see the `dide-verify` crate). New failures
//!   are shrunk to a minimal generator configuration and persisted to the
//!   corpus.
//! * **golden** ([`run_golden`]) — render the E1–E18 experiment tables and
//!   compare them byte-for-byte against committed snapshots
//!   (`--bless` rewrites them).
//!
//! Like the experiment runner, both reports are **byte-identical for any
//! `--jobs` value**: work is fanned out by [`harness::map_ordered`], which
//! reassembles results in input order, and nothing timing-dependent goes
//! into the report.

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use dide_verify::{
    bless_golden, check_invariants, check_streaming, compare_golden, differential_verdicts,
    load_corpus, save_case, shrink_case, verify_seed, verify_seed_with, CorpusCase,
};
use dide_workloads::random_program;

use crate::harness;
use crate::runner::{run_experiments, ExperimentOptions};
use crate::statsrun::{run_stats, RunSelection, StatsOptions};
use crate::workbench::BenchCase;
use dide_workloads::OptLevel;

/// Options for [`run_verify`] (the fuzzing mode of `dide verify`).
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Number of fresh random seeds to check (seeds `0..seeds`).
    pub seeds: u64,
    /// Worker threads (`0` = available parallelism; `1` = serial). The
    /// report is byte-identical for every value.
    pub jobs: usize,
    /// Corpus directory: previously failing cases are replayed from here
    /// before fresh seeds, and new failures are shrunk and saved here.
    /// `None` disables persistence entirely.
    pub corpus: Option<PathBuf>,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions { seeds: 64, jobs: 0, corpus: None }
    }
}

/// The result of one [`run_verify`] call.
#[derive(Debug, Clone)]
pub struct VerifyRun {
    /// Human-readable report (deterministic for a given option set).
    pub report: String,
    /// Corpus cases replayed before the random sweep.
    pub corpus_replayed: usize,
    /// Fresh seeds checked.
    pub seeds_checked: u64,
    /// Total failing cases (corpus replays still failing + new failures).
    pub failures: usize,
}

impl VerifyRun {
    /// Whether every corpus case and every fresh seed passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures == 0
    }
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        harness::default_jobs()
    } else {
        jobs
    }
}

/// Replays the corpus, then sweeps fresh seeds through the differential
/// verifier, shrinking and persisting any new failure.
///
/// # Errors
///
/// Propagates filesystem errors from corpus loading and saving; a missing
/// corpus directory is an empty corpus, not an error. Verification
/// failures are reported in the returned [`VerifyRun`], not as `Err`.
pub fn run_verify(options: &VerifyOptions) -> io::Result<VerifyRun> {
    let jobs = effective_jobs(options.jobs);
    let mut report = String::new();
    let mut failures = 0usize;

    // Shipped `.asm` workloads first: each runs the same differential
    // check (second liveness oracle + metamorphic invariants) as a fuzz
    // seed, so hand-written external programs exercise paths the
    // generator's canonical encodings never produce.
    for spec in dide_workloads::asm_suite() {
        let case = BenchCase::cached(spec, OptLevel::O2, 1);
        let mismatches = differential_verdicts(&case.trace, &case.analysis);
        let violations = check_invariants(&case.trace, &case.analysis);
        if mismatches.is_empty() && violations.is_empty() {
            let _ = writeln!(report, "asm {}: clean ({} insts)", spec.name, case.trace.len());
        } else {
            failures += 1;
            let _ = writeln!(
                report,
                "asm {}: FAILURE ({} verdict mismatch(es), {} invariant violation(s))",
                spec.name,
                mismatches.len(),
                violations.len()
            );
            for m in mismatches.iter().take(3) {
                let _ = writeln!(report, "  {m}");
            }
            for v in violations.iter().take(3) {
                let _ = writeln!(report, "  {v}");
            }
        }
    }

    // The one `.asm` workload with a scale knob (matmul's outer rounds
    // loop) additionally runs the full streaming differential on a scaled
    // build, so the multi-epoch bench enrollments rest on a verified path.
    {
        let spec = dide_workloads::find_workload("matmul").expect("matmul is enrolled");
        let scale = 2;
        let case = BenchCase::cached(spec, OptLevel::O2, scale);
        let program = spec.build(OptLevel::O2, scale);
        let violations = check_streaming(&program, &case.trace, &case.analysis);
        if violations.is_empty() {
            let _ = writeln!(
                report,
                "asm matmul@s{scale} (streamed): clean ({} insts)",
                case.trace.len()
            );
        } else {
            failures += 1;
            let _ = writeln!(
                report,
                "asm matmul@s{scale} (streamed): FAILURE ({} violation(s))",
                violations.len()
            );
            for v in violations.iter().take(3) {
                let _ = writeln!(report, "  {v}");
            }
        }
    }

    // Corpus replay before fresh seeds: a once-found bug stays found
    // until fixed.
    let corpus = match &options.corpus {
        Some(dir) => load_corpus(dir)?,
        None => Vec::new(),
    };
    if !corpus.is_empty() {
        let _ = writeln!(report, "replaying {} corpus case(s)", corpus.len());
        let replayed =
            harness::map_ordered(jobs, &corpus, |case| verify_seed_with(case.seed, &case.config));
        for (case, result) in corpus.iter().zip(&replayed) {
            if result.is_clean() {
                let _ = writeln!(
                    report,
                    "  seed {:#018x}: clean (fixed — the case file can be deleted)",
                    case.seed
                );
            } else {
                failures += 1;
                let _ = writeln!(report, "  STILL FAILING: {}", result.describe());
            }
        }
    }

    // Fresh random sweep. Each seed derives its own generator config, so
    // the fuzzer explores program shapes as well as contents.
    let seeds: Vec<u64> = (0..options.seeds).collect();
    let results = harness::map_ordered(jobs, &seeds, |&seed| verify_seed(seed));
    let mut total_insts = 0u64;
    let mut total_dead = 0u64;
    for result in &results {
        total_insts += result.trace_len as u64;
        total_dead += result.dead_total;
        if result.is_clean() {
            continue;
        }
        failures += 1;
        let _ = writeln!(report, "FAILURE: {}", result.describe());
        // Shrink serially (it re-runs the whole check O(log) times per
        // config field) and persist, so the failure reproduces minimally
        // on the next run.
        if let Some(dir) = &options.corpus {
            let shrunk = shrink_case(result.seed, &result.config, |seed, config| {
                !verify_seed_with(seed, config).is_clean()
            });
            let minimal = verify_seed_with(result.seed, &shrunk);
            let reason = minimal
                .mismatches
                .iter()
                .chain(&minimal.violations)
                .cloned()
                .collect::<Vec<_>>()
                .join("\n");
            let listing = random_program(result.seed, &shrunk).listing();
            let case = CorpusCase { seed: result.seed, config: shrunk, reason };
            let path = save_case(dir, &case, &listing)?;
            let _ = writeln!(report, "  shrunk case saved to {}", path.display());
        }
    }

    let _ = writeln!(
        report,
        "checked {} seed(s) ({} dynamic instructions, {} oracle-dead): {} failure(s)",
        options.seeds, total_insts, total_dead, failures
    );
    Ok(VerifyRun { report, corpus_replayed: corpus.len(), seeds_checked: options.seeds, failures })
}

/// Options for [`run_golden`] (the snapshot mode of `dide verify`).
#[derive(Debug, Clone)]
pub struct GoldenOptions {
    /// Snapshot directory (the committed tree uses `tests/golden`).
    pub dir: PathBuf,
    /// Lower-cased experiment ids to check (`None` = all of E1–E18).
    pub only: Option<Vec<String>>,
    /// Worker threads for rendering (`0` = available parallelism). Does
    /// not affect the rendered bytes.
    pub jobs: usize,
    /// Rewrite the snapshots instead of comparing against them.
    pub bless: bool,
}

impl Default for GoldenOptions {
    fn default() -> GoldenOptions {
        GoldenOptions { dir: PathBuf::from("tests/golden"), only: None, jobs: 0, bless: false }
    }
}

/// The result of one [`run_golden`] call.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Human-readable report.
    pub report: String,
    /// Experiments whose table differs from (or lacks) a snapshot. Always
    /// `0` after a bless.
    pub mismatches: usize,
}

/// Renders the (selected) experiment tables at scale 1 and compares them
/// byte-for-byte against the snapshots in `options.dir` — or rewrites the
/// snapshots when `options.bless` is set.
///
/// # Errors
///
/// Propagates filesystem errors; table mismatches are reported in the
/// returned [`GoldenRun`], not as `Err`.
///
/// # Panics
///
/// Panics if a workload fails to build or trace (a workload-generator
/// bug), as [`run_experiments`] does.
pub fn run_golden(options: &GoldenOptions) -> io::Result<GoldenRun> {
    let run = run_experiments(&ExperimentOptions {
        only: options.only.clone(),
        jobs: options.jobs,
        ..ExperimentOptions::default()
    });
    let mut rendered = run.per_experiment.clone();
    rendered.extend(stats_documents(options.only.as_deref()));
    rendered.extend(asm_documents(options.only.as_deref()));
    let mut report = String::new();
    if options.bless {
        bless_golden(&options.dir, &rendered)?;
        let _ =
            writeln!(report, "blessed {} snapshot(s) in {}", rendered.len(), options.dir.display());
        return Ok(GoldenRun { report, mismatches: 0 });
    }
    let mismatches = compare_golden(&options.dir, &rendered)?;
    for m in &mismatches {
        let _ = writeln!(report, "MISMATCH {}: {}", m.id, m.message);
    }
    let _ = writeln!(
        report,
        "compared {} table(s) against {}: {} mismatch(es)",
        rendered.len(),
        options.dir.display(),
        mismatches.len()
    );
    Ok(GoldenRun { report, mismatches: mismatches.len() })
}

/// The `dide stats` documents snapshotted alongside the experiment tables:
/// one CFI-elimination run, one oracle run on the baseline machine, one
/// clustered dead-steering run (elimination off, so every predicted
/// verdict shows up as steering rather than squashing), and compress on
/// four affinity-steered clusters behind a 4-cycle bypass, without and
/// with CFI elimination — a run dense in full-IQ, no-free-register and
/// per-cluster bypass stalls. Stats output is a pure function of the
/// committed code (fixtures are deterministic and jobs-independent), so it
/// goldens exactly like a table.
fn stats_documents(only: Option<&[String]>) -> Vec<(String, String)> {
    let affinity = dide_pipeline::ClusterConfig {
        clusters: 4,
        bypass_penalty: 4,
        steer: dide_pipeline::SteerPolicy::DependenceAffinity,
    };
    let docs: [(&str, RunSelection); 5] = [
        ("stats_expr.json", RunSelection { eliminate: true, ..RunSelection::default() }),
        (
            "stats_route.json",
            RunSelection {
                benchmark: "route".to_string(),
                contended: false,
                oracle: true,
                ..RunSelection::default()
            },
        ),
        (
            "stats_expr_clustered.json",
            RunSelection {
                cluster: Some(dide_pipeline::ClusterConfig {
                    clusters: 2,
                    bypass_penalty: 2,
                    steer: dide_pipeline::SteerPolicy::DeadSteer,
                }),
                ..RunSelection::default()
            },
        ),
        (
            "stats_compress_clustered_affinity.json",
            RunSelection {
                benchmark: "compress".to_string(),
                cluster: Some(affinity),
                ..RunSelection::default()
            },
        ),
        (
            "stats_compress_clustered_affinity_cfi.json",
            RunSelection {
                benchmark: "compress".to_string(),
                eliminate: true,
                cluster: Some(affinity),
                ..RunSelection::default()
            },
        ),
    ];
    docs.into_iter()
        .filter(|(id, _)| only.is_none_or(|ids| ids.iter().any(|x| x == id)))
        .map(|(id, select)| {
            let stats =
                run_stats(&StatsOptions { select, format: None }).expect("suite benchmark exists");
            (id.to_string(), stats.output)
        })
        .collect()
}

/// Snapshots pinning the assembly frontend:
///
/// * `run_prime.txt` — the exact stdout of `dide run asm/prime.asm`
///   (default machine, no elimination), so the end-to-end path from `.asm`
///   text through emulation and the pipeline stays byte-stable;
/// * `stats_prime.json` — a full `dide stats` document for an `.asm`
///   workload with CFI elimination enabled;
/// * `asm_errors.txt` — the parser's diagnostic messages over a fixed
///   bad-input corpus, so error-message drift shows up as a reviewable
///   diff.
fn asm_documents(only: Option<&[String]>) -> Vec<(String, String)> {
    type Render = fn() -> String;
    let mut docs: Vec<(&str, Render)> = Vec::new();
    docs.push(("run_prime.txt", || {
        let spec = dide_workloads::find_workload("prime").expect("prime is enrolled");
        let case = BenchCase::cached(spec, OptLevel::O2, 1);
        let stats = dide_pipeline::Core::new(dide_pipeline::PipelineConfig::contended())
            .run(&case.trace, &case.analysis);
        // `dide run` prints the stats via `println!`, so the golden ends
        // with the extra newline.
        format!("{stats}\n")
    }));
    docs.push(("stats_prime.json", || {
        let select = RunSelection {
            benchmark: "prime".to_string(),
            eliminate: true,
            ..RunSelection::default()
        };
        run_stats(&StatsOptions { select, format: None }).expect("prime is enrolled").output
    }));
    docs.push(("asm_errors.txt", dide_asm::diagnostic_snapshot));
    docs.into_iter()
        .filter(|(id, _)| only.is_none_or(|ids| ids.iter().any(|x| x == id)))
        .map(|(id, render)| (id.to_string(), render()))
        .collect()
}
