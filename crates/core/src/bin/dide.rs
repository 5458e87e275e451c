//! `dide` — command-line front end for the reproduction.
//!
//! ```text
//! dide list                               list the benchmark suite
//! dide disasm <bench> [--opt O0|O2]       print a benchmark's assembly
//! dide trace <bench> [--scale N]          run + oracle deadness summary
//! dide run <bench> [--machine M] [--eliminate] [--oracle] [--jump-aware]
//!                                         cycle-level pipeline run
//!
//! `trace`, `run`, `stats`, `events`, and `bench` take `--stream`
//! (with an optional `--epoch N`) to drive the bounded-memory streaming
//! stack instead of materializing the whole trace.
//!
//! `disasm`, `trace`, and `run` also accept a path to an external `.asm`
//! file (e.g. `dide run asm/prime.asm`), assembled by `dide-asm` and fed
//! through the same emu -> analysis -> pipeline stack.
//! dide experiments [--scale N] [--only LIST] [--jobs N] [--timings]
//!                                         regenerate paper tables (e1..e18)
//! dide campaign run [axis flags] [--out PATH] [--jobs N] [--resume]
//!                                         batch grid simulation -> JSONL store
//! dide campaign report [--store PATH] [--where k=v] [--group-by LIST]
//!                                         grouped aggregates over a store
//! dide bench [--quick] [--out PATH] [--scales 1,4] [--check-against PATH]
//!                                         timed phase harness -> BENCH.json
//! dide verify [--seeds N] [--jobs N] [--corpus DIR]
//!                                         differential fuzzing of the stack
//! dide verify --golden [--bless] [--dir DIR] [--only LIST] [--jobs N]
//!                                         golden-table regression
//! dide stats [--benchmark NAME] [--json|--csv]
//!                                         full-stack counter registry dump
//! dide events [--benchmark NAME] [--last N] [--sample-every N]
//!                                         cycle-event trace tail
//! ```

use std::process::ExitCode;

use dide::prelude::*;
use dide::{ExperimentOptions, OptLevel};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    let command = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    match command {
        "list" => list(),
        "disasm" => disasm(&rest),
        "trace" => trace(&rest),
        "run" => run(&rest),
        "experiments" => experiments(&rest),
        "campaign" => campaign(&rest),
        "bench" => bench(&rest),
        "verify" => verify(&rest),
        "stats" => stats(&rest),
        "events" => events(&rest),
        "help" | "--help" | "-h" => {
            print!("{}", USAGE);
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dide — dynamic dead-instruction detection and elimination

USAGE:
  dide list
  dide disasm <benchmark|path.asm> [--opt O0|O2]
  dide trace <benchmark|path.asm> [--scale N] [--opt O0|O2] [--hot N] [--stream [--epoch N]]
  dide run <benchmark|path.asm> [--machine baseline|contended|clustered] [--clusters N] [--bypass N] [--steer rr|affinity|dead]
                                [--eliminate] [--oracle] [--jump-aware] [--scale N] [--stream [--epoch N]]
  dide experiments [--scale N] [--only e1,e9,...] [--jobs N] [--timings] [--stream [--epoch N]]
  dide campaign run [--benchmarks L] [--seeds L] [--opts L] [--scales L] [--machines L]
                    [--elims L] [--thresholds L] [--penalties L]
                    [--out PATH] [--jobs N] [--resume] [--flush-every N] [--fixture-cap N]
  dide campaign report [--store PATH] [--where field=value ...] [--group-by L] [--metrics L]
  dide bench [--quick] [--out PATH] [--scales 1,4] [--check-against PATH] [--stream] [--epoch N]
  dide verify [--seeds N] [--jobs N] [--corpus DIR]
  dide verify --golden [--bless] [--dir DIR] [--only e1,e9,...] [--jobs N]
  dide stats [--benchmark NAME] [--json|--csv] [run flags]
  dide events [--benchmark NAME] [--last N] [--sample-every N] [run flags]

STREAMING (bounded memory):
  --stream     run the emu->analysis->pipeline stack over bounded epochs
               instead of materializing the whole trace: the windowed
               analysis carries a live-out frontier across epochs
               (cross-epoch escapes are conservatively useful) and the
               pipeline recycles epochs as the ROB drains past them.
               run/trace/stats/events take it as a run flag; for bench it
               restricts the run to the streamed enrollments.
  --epoch N    records per epoch (default 65536)

EXPERIMENTS:
  --jobs N     worker threads (default: available parallelism; 1 = serial).
               Tables are byte-identical for every N.
  --timings    print the per-span timing detail in addition to the summary
               (timing always goes to stderr; tables go to stdout)
  --stream     render the streamed table (S1) over the streamed enrollments
               instead of the materializing tables E1..E18

CLUSTERED BACKEND (DESIGN.md \u{a7}11):
  --machine clustered  partition the IQ and function units of the selected
               base into execution clusters; cross-cluster operand
               forwarding pays --bypass cycles. Passing any cluster axis
               implies the clustered backend.
  --clusters N         execution clusters (default 2, max 8)
  --bypass N           inter-cluster forwarding penalty in cycles (default 2)
  --steer rr|affinity|dead
               dispatch steering: round-robin, follow the producing
               cluster, or route predicted-dead instructions to the
               cheap cluster (squash pre-dispatch when --eliminate)

CAMPAIGN (batch grid simulation):
  run expands the cartesian product of the axis flags (comma-separated
  lists; defaults: expr / O2 / scale 1 / contended / off,cfi / the default
  threshold and penalty; --machines takes baseline, contended and
  clustered, the latter fixed at 2 clusters / bypass 2 / dead steering),
  canonicalizes redundant points (elim=off pins
  threshold+penalty; oracle pins threshold; gen workloads pin opt+scale),
  and simulates the unique jobs on a work-stealing pool. Results land in
  an append-only JSONL store whose bytes are identical for every --jobs N.
  --seeds L        enroll generated workloads gen:<seed> alongside --benchmarks
  --out PATH       store path (default campaign.jsonl); a fsync'd cursor
                   sidecar <PATH>.cursor tracks the durable prefix
  --resume         continue an interrupted campaign from the cursor; the
                   finished store is byte-identical to an uninterrupted run
  --flush-every N  records per durable commit (default 32)
  --fixture-cap N  LRU capacity of the per-campaign fixture cache
  report reads a store back and prints grouped aggregate sums:
  --where f=v      equality filter, repeatable (all must match)
  --group-by L     axis fields to group rows by (e.g. benchmark,elim)
  --metrics L      counters to sum (default pipeline.cycles,
                   pipeline.committed, violations)

BENCH (perf tracking):
  --quick      smoke subset (expr, objstore, route at scale 1) for CI
  --out PATH   where to write the JSON report (default BENCH.json)
  --scales L   comma-separated workload scales (default 1,4)
               every phase is re-run uncached; wall-clock goes to stderr,
               machine-readable nanoseconds go to the JSON file
  --check-against PATH
               compare the run against a committed BENCH.json, read and
               checked before measuring; exit 1 if it is unreadable, not
               dide-bench/v4 or lacks an entry this run measured, on any
               drift in an exact field, or on a >2x (and >5ms) slowdown;
               the tolerance is generous because CI timings on a shared
               CPU are noisy

VERIFY (differential fuzzing):
  --seeds N    fresh random seeds to check (default 64); each seed runs the
               second liveness oracle and the metamorphic invariants
  --corpus DIR replay previously failing cases from DIR first; shrink and
               persist new failures there
  --jobs N     worker threads; the report is byte-identical for every N

VERIFY (golden tables):
  --golden     compare rendered experiment tables byte-for-byte against
               tests/golden/ snapshots (exit 1 on any difference)
  --bless      rewrite the snapshots instead of comparing
  --dir DIR    snapshot directory (default tests/golden)

ASSEMBLY WORKLOADS:
  disasm/trace/run accept a `.asm` file path anywhere a benchmark name is
  expected; the shipped benchmarks under asm/ (prime, matmul, strsearch)
  are also enrolled by name in `dide list`, stats, events, and bench.
  `.asm` programs ignore --opt; they also ignore --scale except matmul,
  whose outer rounds loop scales linearly with --scale.

STATS / EVENTS (observability):
  both take the `dide run` flags [--opt O0|O2] [--scale N]
  [--machine baseline|contended|clustered] [--clusters N] [--bypass N]
  [--steer P] [--eliminate] [--oracle] [--jump-aware];
  the benchmark is chosen with --benchmark NAME (default expr)
  --json       stats: emit the dide-stats/v1 JSON document (default)
  --csv        stats: emit `# dide-stats/v1` then counter,value rows
  --last N     events: show the N most recent events (default 32)
  --sample-every N
               events: occupancy sampling period in cycles (default 64)
";

fn flag_value<'a>(rest: &[&'a str], name: &str) -> Option<&'a str> {
    rest.iter().position(|&a| a == name).and_then(|i| rest.get(i + 1).copied())
}

fn has_flag(rest: &[&str], name: &str) -> bool {
    rest.contains(&name)
}

fn parse_opt(rest: &[&str]) -> Result<OptLevel, String> {
    match flag_value(rest, "--opt") {
        None | Some("O2") | Some("o2") => Ok(OptLevel::O2),
        Some("O0") | Some("o0") => Ok(OptLevel::O0),
        Some(other) => Err(format!("unknown optimization level `{other}` (use O0 or O2)")),
    }
}

fn parse_scale(rest: &[&str]) -> Result<u32, String> {
    match flag_value(rest, "--scale") {
        None => Ok(1),
        Some(s) => dide::cli::parse_positive("--scale", s),
    }
}

fn parse_epoch(rest: &[&str]) -> Result<usize, String> {
    match flag_value(rest, "--epoch") {
        None => Ok(dide::DEFAULT_EPOCH_LEN),
        Some(s) => dide::cli::parse_positive("--epoch", s).map(|n| n as usize),
    }
}

/// Parses the clustered-backend axes shared by `run`, `stats` and
/// `events`: `--machine clustered` (or any of `--clusters`, `--bypass`,
/// `--steer`) selects the clustered backend on top of the machine base,
/// with [`ClusterConfig::default`] filling unspecified axes.
fn parse_cluster(rest: &[&str]) -> Result<Option<ClusterConfig>, String> {
    let clustered = matches!(flag_value(rest, "--machine"), Some("clustered"))
        || flag_value(rest, "--clusters").is_some()
        || flag_value(rest, "--bypass").is_some()
        || flag_value(rest, "--steer").is_some();
    if !clustered {
        return Ok(None);
    }
    let mut cluster = ClusterConfig::default();
    if let Some(s) = flag_value(rest, "--clusters") {
        let n = dide::cli::parse_positive("--clusters", s)? as usize;
        if n > 8 {
            return Err(format!("invalid --clusters `{n}` (expected 1..=8)"));
        }
        cluster.clusters = n;
    }
    if let Some(s) = flag_value(rest, "--bypass") {
        cluster.bypass_penalty = s
            .parse::<u32>()
            .map_err(|_| format!("invalid --bypass `{s}` (expected cycles >= 0)"))?;
    }
    if let Some(s) = flag_value(rest, "--steer") {
        cluster.steer = SteerPolicy::parse(s)?;
    }
    Ok(Some(cluster))
}

/// What `disasm`/`trace`/`run` operate on: a named workload from the
/// suites, or an external `.asm` file assembled on the fly.
enum RunTarget {
    Spec(dide::WorkloadSpec),
    File(std::path::PathBuf),
}

impl RunTarget {
    /// Builds the program. `.asm` files are fixed programs and ignore
    /// `opt`/`scale`; named workloads honor both.
    fn build(&self, opt: OptLevel, scale: u32) -> Result<dide::prelude::Program, String> {
        match self {
            RunTarget::Spec(spec) => Ok(spec.build(opt, scale)),
            RunTarget::File(path) => dide::asm::assemble_path(path),
        }
    }
}

fn find_target(name: Option<&&str>) -> Result<RunTarget, String> {
    let name = name.ok_or("missing benchmark name or .asm path (try `dide list`)")?;
    if name.ends_with(".asm") || name.contains(std::path::MAIN_SEPARATOR) {
        return Ok(RunTarget::File(name.into()));
    }
    dide::find_workload(name)
        .map(RunTarget::Spec)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `dide list`)"))
}

fn fail(message: String) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

fn list() -> ExitCode {
    let mut t = dide::Table::new(["name", "description"]);
    for s in dide::suite().into_iter().chain(dide::asm_suite()) {
        t.row([s.name, s.description]);
    }
    print!("{t}");
    ExitCode::SUCCESS
}

fn disasm(rest: &[&str]) -> ExitCode {
    let target = match find_target(rest.first()) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let opt = match parse_opt(rest) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    match target.build(opt, 1) {
        Ok(program) => {
            print!("{}", program.listing());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn trace(rest: &[&str]) -> ExitCode {
    let target = match find_target(rest.first()) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let (opt, scale) = match (parse_opt(rest), parse_scale(rest)) {
        (Ok(o), Ok(s)) => (o, s),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let program = match target.build(opt, scale) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if has_flag(rest, "--stream") {
        if flag_value(rest, "--hot").is_some() {
            return fail("--hot needs the materialized trace (drop --stream)".to_string());
        }
        let epoch = match parse_epoch(rest) {
            Ok(n) => n,
            Err(e) => return fail(e),
        };
        let deadness = match DeadnessAnalysis::analyze_streamed(&program, epoch) {
            Ok(d) => d,
            Err(e) => return fail(format!("emulation trapped: {e}")),
        };
        println!(
            "== streamed trace ==\n{} dynamic instructions in {} epoch(s) of {epoch} records",
            deadness.len(),
            deadness.epochs()
        );
        println!(
            "peak window memory: {} bytes (materialized trace: {} bytes)",
            deadness.mem_peak_bytes(),
            deadness.len() as u64 * std::mem::size_of::<DynInst>() as u64
        );
        println!("\n== windowed deadness ==\n{}", deadness.stats());
        println!("escaped at epoch boundaries (conservatively useful): {}", deadness.escaped());
        return ExitCode::SUCCESS;
    }
    let trace = match Emulator::new(&program).run() {
        Ok(t) => t,
        Err(e) => return fail(format!("emulation trapped: {e}")),
    };
    println!("== trace summary ==\n{}", trace.summary());
    let analysis = DeadnessAnalysis::analyze(&trace);
    println!("\n== oracle deadness ==\n{}", analysis.stats());
    println!("\n== static profile ==\n{}", analysis.static_profile(&trace));
    println!("\n== locality ==\n{}", analysis.locality(&trace));

    if let Some(n) = flag_value(rest, "--hot") {
        let Ok(n) = n.parse::<usize>() else {
            return fail(format!("invalid --hot count `{n}`"));
        };
        let profile = analysis.static_profile(&trace);
        let mut hot: Vec<(usize, u64, u64)> = profile
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.dead > 0)
            .map(|(idx, r)| (idx, r.dead, r.eligible))
            .collect();
        hot.sort_by_key(|&(_, dead, _)| std::cmp::Reverse(dead));
        println!("\n== hottest dead statics ==");
        let mut t = dide::Table::new(["index", "instruction", "dead", "of eligible"]);
        for &(idx, dead, eligible) in hot.iter().take(n) {
            t.row([
                idx.to_string(),
                program.insts()[idx].to_string(),
                dead.to_string(),
                eligible.to_string(),
            ]);
        }
        print!("{t}");
    }
    ExitCode::SUCCESS
}

fn run(rest: &[&str]) -> ExitCode {
    let target = match find_target(rest.first()) {
        Ok(t) => t,
        Err(e) => return fail(e),
    };
    let (opt, scale) = match (parse_opt(rest), parse_scale(rest)) {
        (Ok(o), Ok(s)) => (o, s),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let machine = match flag_value(rest, "--machine") {
        None | Some("contended" | "clustered") => PipelineConfig::contended(),
        Some("baseline") => PipelineConfig::baseline(),
        Some(other) => return fail(format!("unknown machine `{other}`")),
    };
    let machine = match parse_cluster(rest) {
        Ok(Some(cluster)) => machine.with_cluster(cluster),
        Ok(None) => machine,
        Err(e) => return fail(e),
    };
    let config = if has_flag(rest, "--eliminate") || has_flag(rest, "--oracle") {
        machine.with_elimination(DeadElimConfig {
            oracle: has_flag(rest, "--oracle"),
            jump_aware: has_flag(rest, "--jump-aware"),
            ..DeadElimConfig::default()
        })
    } else {
        machine
    };

    let program = match target.build(opt, scale) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if has_flag(rest, "--stream") {
        let epoch = match parse_epoch(rest) {
            Ok(n) => n,
            Err(e) => return fail(e),
        };
        let deadness = match DeadnessAnalysis::analyze_streamed(&program, epoch) {
            Ok(d) => d,
            Err(e) => return fail(format!("emulation trapped: {e}")),
        };
        let mut stream = TraceStream::new(&program, epoch);
        let stats = Core::new(config).run_streamed(&mut stream, &deadness);
        println!("{stats}");
        eprintln!(
            "stream: {} insts in {} epoch(s) of {epoch}; peak window {} KiB ({} escaped)",
            deadness.len(),
            deadness.epochs(),
            stream.peak_resident_bytes().max(deadness.mem_peak_bytes()) / 1024,
            deadness.escaped(),
        );
        return ExitCode::SUCCESS;
    }
    let trace = match Emulator::new(&program).run() {
        Ok(t) => t,
        Err(e) => return fail(format!("emulation trapped: {e}")),
    };
    let analysis = DeadnessAnalysis::analyze(&trace);
    let stats = Core::new(config).run(&trace, &analysis);
    println!("{stats}");
    ExitCode::SUCCESS
}

fn parse_jobs(rest: &[&str]) -> Result<usize, String> {
    match flag_value(rest, "--jobs") {
        None => Ok(0),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("invalid --jobs `{s}` (expected an integer >= 1)")),
        },
    }
}

fn parse_only(rest: &[&str]) -> Option<Vec<String>> {
    flag_value(rest, "--only").map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect())
}

fn verify(rest: &[&str]) -> ExitCode {
    let jobs = match parse_jobs(rest) {
        Ok(j) => j,
        Err(e) => return fail(e),
    };
    if has_flag(rest, "--golden") {
        let options = dide::GoldenOptions {
            dir: flag_value(rest, "--dir").unwrap_or("tests/golden").into(),
            only: parse_only(rest),
            jobs,
            bless: has_flag(rest, "--bless"),
        };
        return match dide::run_golden(&options) {
            Ok(run) => {
                print!("{}", run.report);
                if run.mismatches == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => fail(format!("golden comparison failed: {e}")),
        };
    }
    let seeds = match flag_value(rest, "--seeds") {
        None => 64,
        Some(s) => match s.parse::<u64>() {
            Ok(n) => n,
            Err(_) => return fail(format!("invalid --seeds `{s}`")),
        },
    };
    let options =
        dide::VerifyOptions { seeds, jobs, corpus: flag_value(rest, "--corpus").map(Into::into) };
    match dide::run_verify(&options) {
        Ok(run) => {
            print!("{}", run.report);
            if run.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(format!("verification failed: {e}")),
    }
}

fn bench(rest: &[&str]) -> ExitCode {
    let scales = match flag_value(rest, "--scales") {
        None => vec![1, 4],
        Some(s) => match dide::cli::parse_positive_list("--scales", s) {
            Ok(v) => v,
            Err(e) => return fail(e),
        },
    };
    let epoch = match parse_epoch(rest) {
        Ok(n) => n,
        Err(e) => return fail(e),
    };
    let options = dide::BenchOptions {
        scales,
        quick: has_flag(rest, "--quick"),
        out: flag_value(rest, "--out").unwrap_or("BENCH.json").into(),
        check_against: flag_value(rest, "--check-against").map(Into::into),
        stream_only: has_flag(rest, "--stream"),
        epoch,
    };
    match dide::run_bench(&options) {
        Ok(run) => {
            eprintln!("{}", run.report);
            match &run.regression {
                Some(check) if !check.ok => fail("bench regression check failed".to_string()),
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => fail(format!("bench failed: {e}")),
    }
}

/// Parses the shared `dide stats` / `dide events` run-selection flags.
fn parse_selection(rest: &[&str]) -> Result<dide::RunSelection, String> {
    let mut select = dide::RunSelection::default();
    if let Some(name) = flag_value(rest, "--benchmark") {
        // Validate early so the error names the flag, not a build failure.
        if dide::find_workload(name).is_none() {
            return Err(format!("unknown benchmark `{name}` (try `dide list`)"));
        }
        select.benchmark = name.to_string();
    }
    select.opt = parse_opt(rest)?;
    select.scale = parse_scale(rest)?;
    select.contended = match flag_value(rest, "--machine") {
        None | Some("contended" | "clustered") => true,
        Some("baseline") => false,
        Some(other) => return Err(format!("unknown machine `{other}`")),
    };
    select.cluster = parse_cluster(rest)?;
    select.eliminate = has_flag(rest, "--eliminate");
    select.oracle = has_flag(rest, "--oracle");
    select.jump_aware = has_flag(rest, "--jump-aware");
    select.stream = has_flag(rest, "--stream");
    select.epoch = parse_epoch(rest)?;
    Ok(select)
}

fn stats(rest: &[&str]) -> ExitCode {
    let select = match parse_selection(rest) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let format = match (has_flag(rest, "--json"), has_flag(rest, "--csv")) {
        (_, false) => dide::StatsFormat::Json,
        (false, true) => dide::StatsFormat::Csv,
        (true, true) => return fail("pass at most one of --json / --csv".to_string()),
    };
    match dide::run_stats(&dide::StatsOptions { select, format: Some(format) }) {
        Ok(run) => {
            print!("{}", run.output);
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn events(rest: &[&str]) -> ExitCode {
    let select = match parse_selection(rest) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let mut options = dide::EventsOptions { select, ..dide::EventsOptions::default() };
    if let Some(n) = flag_value(rest, "--last") {
        match dide::cli::parse_positive("--last", n) {
            Ok(n) => options.last = n as usize,
            Err(e) => return fail(e),
        }
    }
    if let Some(n) = flag_value(rest, "--sample-every") {
        match dide::cli::parse_positive("--sample-every", n) {
            Ok(n) => options.sample_every = u64::from(n),
            Err(e) => return fail(e),
        }
    }
    match dide::run_events(&options) {
        Ok(run) => {
            print!("{}", run.report);
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn experiments(rest: &[&str]) -> ExitCode {
    let scale = match parse_scale(rest) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let only = parse_only(rest);
    let jobs = match parse_jobs(rest) {
        Ok(j) => j,
        Err(e) => return fail(e),
    };
    let epoch = match parse_epoch(rest) {
        Ok(n) => n,
        Err(e) => return fail(e),
    };
    let options = ExperimentOptions {
        scale,
        only,
        jobs,
        timings: has_flag(rest, "--timings"),
        stream: has_flag(rest, "--stream"),
        epoch,
    };

    let run = dide::run_experiments(&options);
    print!("{}", run.tables);
    eprintln!("{}", run.timing_summary);
    if options.timings {
        eprintln!("{}", run.timing_detail);
    }
    ExitCode::SUCCESS
}

/// Collects every value of a repeatable flag (e.g. `--where k=v --where k=v`).
fn flag_values<'a>(rest: &[&'a str], name: &str) -> Vec<&'a str> {
    rest.iter()
        .enumerate()
        .filter(|&(_, a)| *a == name)
        .filter_map(|(i, _)| rest.get(i + 1).copied())
        .collect()
}

fn campaign(rest: &[&str]) -> ExitCode {
    match rest.first().copied() {
        Some("run") => campaign_run(&rest[1..]),
        Some("report") => campaign_report(&rest[1..]),
        Some(other) => fail(format!("unknown campaign subcommand `{other}` (use run or report)")),
        None => fail("missing campaign subcommand (use run or report)".to_string()),
    }
}

/// Builds a [`dide::CampaignGrid`] from the `campaign run` axis flags;
/// axes without a flag keep their defaults.
fn parse_grid(rest: &[&str]) -> Result<dide::CampaignGrid, String> {
    let mut grid = dide::CampaignGrid::default();
    if let Some(s) = flag_value(rest, "--benchmarks") {
        grid.benchmarks = dide::cli::parse_name_list("--benchmarks", s)?;
    }
    if let Some(s) = flag_value(rest, "--seeds") {
        grid.seeds = dide::cli::parse_seed_list("--seeds", s)?;
    }
    if let Some(s) = flag_value(rest, "--opts") {
        grid.opts = dide::cli::parse_name_list("--opts", s)?
            .iter()
            .map(|o| match o.as_str() {
                "O0" | "o0" => Ok(OptLevel::O0),
                "O2" | "o2" => Ok(OptLevel::O2),
                other => Err(format!("invalid --opts `{other}` (expected O0 or O2)")),
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(s) = flag_value(rest, "--scales") {
        grid.scales = dide::cli::parse_positive_list("--scales", s)?;
    }
    if let Some(s) = flag_value(rest, "--machines") {
        grid.machines = dide::cli::parse_name_list("--machines", s)?
            .iter()
            .map(|m| dide::Machine::parse(m))
            .collect::<Result<_, _>>()?;
    }
    if let Some(s) = flag_value(rest, "--elims") {
        grid.elims = dide::cli::parse_name_list("--elims", s)?
            .iter()
            .map(|e| dide::Elim::parse(e))
            .collect::<Result<_, _>>()?;
    }
    if let Some(s) = flag_value(rest, "--thresholds") {
        grid.thresholds = dide::cli::parse_positive_list("--thresholds", s)?;
    }
    if let Some(s) = flag_value(rest, "--penalties") {
        grid.penalties = dide::cli::parse_positive_list("--penalties", s)?;
    }
    Ok(grid)
}

fn campaign_run(rest: &[&str]) -> ExitCode {
    let grid = match parse_grid(rest) {
        Ok(g) => g,
        Err(e) => return fail(e),
    };
    let jobs = match parse_jobs(rest) {
        Ok(j) => j,
        Err(e) => return fail(e),
    };
    let mut options = dide::CampaignOptions {
        grid,
        out: flag_value(rest, "--out").unwrap_or("campaign.jsonl").into(),
        jobs: if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        },
        resume: has_flag(rest, "--resume"),
        ..dide::CampaignOptions::default()
    };
    if let Some(s) = flag_value(rest, "--flush-every") {
        match dide::cli::parse_positive("--flush-every", s) {
            Ok(n) => options.flush_every = u64::from(n),
            Err(e) => return fail(e),
        }
    }
    if let Some(s) = flag_value(rest, "--fixture-cap") {
        match dide::cli::parse_positive("--fixture-cap", s) {
            Ok(n) => options.fixture_cap = n as usize,
            Err(e) => return fail(e),
        }
    }
    match dide::run_campaign(&options) {
        Ok(run) => {
            print!("{}", run.summary);
            if run.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                for v in &run.violations {
                    eprintln!("rule violated: {v}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(format!("campaign failed: {e}")),
    }
}

fn campaign_report(rest: &[&str]) -> ExitCode {
    let mut wheres = Vec::new();
    for clause in flag_values(rest, "--where") {
        let Some((name, value)) = clause.split_once('=') else {
            return fail(format!("invalid --where `{clause}` (expected field=value)"));
        };
        wheres.push((name.trim().to_string(), value.trim().to_string()));
    }
    let parse_list = |flag: &str| -> Result<Vec<String>, String> {
        match flag_value(rest, flag) {
            None => Ok(Vec::new()),
            Some(s) => dide::cli::parse_name_list(flag, s),
        }
    };
    let (group_by, metrics) = match (parse_list("--group-by"), parse_list("--metrics")) {
        (Ok(g), Ok(m)) => (g, m),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let options = dide::ReportOptions {
        store: flag_value(rest, "--store").unwrap_or("campaign.jsonl").into(),
        wheres,
        group_by,
        metrics,
    };
    match dide::run_campaign_report(&options) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}
