//! The `dide campaign` driver: batch simulation over a parameter grid.
//!
//! A campaign is the cartesian product of benchmark × seed × opt × scale ×
//! machine × elimination × threshold × penalty, run through the
//! work-stealing scheduler ([`crate::harness::map_stealing_sink`]) and
//! recorded in an append-only JSONL store ([`crate::store`]). Three design
//! rules make a 10,000-job campaign practical and auditable:
//!
//! * **Canonical jobs, deduplicated.** Many grid points are aliases: with
//!   elimination off the predictor threshold and violation penalty are
//!   never consulted; the oracle ignores the threshold; seeded generator
//!   workloads ignore opt and scale. Every tuple is rewritten to its
//!   canonical form and duplicates are counted (`campaign.jobs_deduped`)
//!   instead of re-simulated.
//! * **Deterministic store bytes.** Unique jobs carry a sequence number and
//!   records are written strictly in sequence order by the scheduler's
//!   in-order sink, so the store is byte-identical for any `--jobs` count
//!   and `cmp` is the determinism check.
//! * **Crash-safe resume.** The store's fsync'd cursor marks the durable
//!   prefix; `--resume` truncates any torn tail and continues from the next
//!   sequence number, converging on the same bytes as an uninterrupted run.
//!
//! The run's own accounting lives in a `campaign.` / `fixture.` counter
//! registry and is checked against conservation rules
//! ([`campaign_rules`]) the same way pipeline runs are.

use std::fmt::Write as _;
use std::path::PathBuf;

use dide_obs::{check_rules, CounterSet, Expr, Rule};
use dide_pipeline::{
    ClusterConfig, Core, DeadElimConfig, PipelineConfig, PipelineStats, SteerPolicy,
};
use dide_workloads::{find_workload, OptLevel, WorkloadSpec};

use crate::harness::map_stealing_sink;
use crate::statsrun::{full_counters, STATS_SCHEMA};
use crate::store::{render_record, FieldValue, StoreReader, StoreWriter};
use crate::workbench::FixtureCache;
use crate::Table;

/// Elimination mode axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Elim {
    /// No elimination: thresholds and penalties are irrelevant.
    Off,
    /// The realistic CFI dead predictor.
    Cfi,
    /// The perfect-knowledge limit study.
    Oracle,
}

impl Elim {
    /// The axis value as written in records and flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Elim::Off => "off",
            Elim::Cfi => "cfi",
            Elim::Oracle => "oracle",
        }
    }

    /// Parses one `--elims` element.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for anything but `off`, `cfi`, `oracle`.
    pub fn parse(value: &str) -> Result<Elim, String> {
        match value {
            "off" => Ok(Elim::Off),
            "cfi" => Ok(Elim::Cfi),
            "oracle" => Ok(Elim::Oracle),
            other => Err(format!("invalid --elims `{other}` (expected off, cfi or oracle)")),
        }
    }
}

/// Machine axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Machine {
    /// The wide baseline machine.
    Baseline,
    /// The resource-contended machine (the `dide run` default).
    Contended,
    /// The contended machine with the clustered backend (DESIGN.md §11):
    /// two clusters, bypass penalty 2, dead-instruction steering — the
    /// campaign-fixed clustered point; `dide run` exposes the full axes.
    Clustered,
}

impl Machine {
    /// The axis value as written in records and flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Machine::Baseline => "baseline",
            Machine::Contended => "contended",
            Machine::Clustered => "clustered",
        }
    }

    /// Parses one `--machines` element.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for anything but `baseline`,
    /// `contended`, `clustered`.
    pub fn parse(value: &str) -> Result<Machine, String> {
        match value {
            "baseline" => Ok(Machine::Baseline),
            "contended" => Ok(Machine::Contended),
            "clustered" => Ok(Machine::Clustered),
            other => Err(format!(
                "invalid --machines `{other}` (expected baseline, contended or clustered)"
            )),
        }
    }

    /// The campaign's pipeline configuration for this machine.
    #[must_use]
    pub fn base_config(self) -> PipelineConfig {
        match self {
            Machine::Baseline => PipelineConfig::baseline(),
            Machine::Contended => PipelineConfig::contended(),
            Machine::Clustered => PipelineConfig::contended().with_cluster(ClusterConfig {
                clusters: 2,
                bypass_penalty: 2,
                steer: SteerPolicy::DeadSteer,
            }),
        }
    }

    /// The cluster count of [`Machine::base_config`] (`0` = unified).
    #[must_use]
    pub fn clusters(self) -> usize {
        self.base_config().cluster.map_or(0, |c| c.clusters)
    }
}

/// The requested parameter grid, before expansion and canonicalization.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Named suite benchmarks.
    pub benchmarks: Vec<String>,
    /// Seeds for generated (`gen:<seed>`) workloads; empty = none.
    pub seeds: Vec<u64>,
    /// Optimization levels.
    pub opts: Vec<OptLevel>,
    /// Workload scales.
    pub scales: Vec<u32>,
    /// Machine axis.
    pub machines: Vec<Machine>,
    /// Elimination modes.
    pub elims: Vec<Elim>,
    /// CFI confidence thresholds.
    pub thresholds: Vec<u32>,
    /// Dead-tag violation penalties (cycles).
    pub penalties: Vec<u32>,
}

impl Default for CampaignGrid {
    fn default() -> CampaignGrid {
        let elim = DeadElimConfig::default();
        CampaignGrid {
            benchmarks: vec!["expr".to_string()],
            seeds: Vec::new(),
            opts: vec![OptLevel::O2],
            scales: vec![1],
            machines: vec![Machine::Contended],
            elims: vec![Elim::Off, Elim::Cfi],
            thresholds: vec![u32::from(elim.predictor.threshold)],
            penalties: vec![elim.violation_penalty],
        }
    }
}

/// One canonical, unique job of an expanded grid.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position in the unique-job sequence (the store record order).
    pub seq: u64,
    /// Canonical identity string (the dedup key).
    pub id: String,
    /// The workload to build.
    pub spec: WorkloadSpec,
    /// Display name (`expr`, or `gen:<seed>` for seeded workloads).
    pub benchmark: String,
    /// Optimization level (canonical: `O2` for generated workloads).
    pub opt: OptLevel,
    /// Scale (canonical: 1 for generated workloads).
    pub scale: u32,
    /// Machine selector.
    pub machine: Machine,
    /// Elimination mode.
    pub elim: Elim,
    /// CFI threshold (canonical: the default when not consulted).
    pub threshold: u32,
    /// Violation penalty (canonical: the default when elimination is off).
    pub penalty: u32,
}

impl JobSpec {
    fn config(&self) -> PipelineConfig {
        let machine = self.machine.base_config();
        match self.elim {
            Elim::Off => machine,
            Elim::Cfi | Elim::Oracle => {
                let defaults = DeadElimConfig::default();
                let threshold =
                    u8::try_from(self.threshold).expect("expansion validated the threshold");
                machine.with_elimination(DeadElimConfig {
                    oracle: self.elim == Elim::Oracle,
                    violation_penalty: self.penalty,
                    predictor: dide_predictor::dead::CfiConfig { threshold, ..defaults.predictor },
                    ..defaults
                })
            }
        }
    }
}

/// The expanded grid: unique canonical jobs plus dedup accounting.
#[derive(Debug)]
pub struct ExpandedGrid {
    /// Unique canonical jobs in deterministic expansion order.
    pub jobs: Vec<JobSpec>,
    /// Grid points that canonicalized onto an earlier job.
    pub deduped: u64,
    /// FNV-1a fingerprint over the canonical job ids (hex).
    pub fingerprint: String,
}

/// Expands a grid into unique canonical jobs.
///
/// Canonicalization: `elim=off` pins threshold and penalty to their
/// defaults (neither is consulted); `elim=oracle` pins the threshold (the
/// oracle has no confidence table); generated workloads pin `opt=O2` and
/// `scale=1` (the generator ignores both). Tuples that collide after
/// canonicalization count as `deduped`.
///
/// # Errors
///
/// Returns a one-line message for an unknown benchmark name, an empty
/// axis, or a threshold that does not fit the predictor's counter width.
pub fn expand_grid(grid: &CampaignGrid) -> Result<ExpandedGrid, String> {
    let defaults = DeadElimConfig::default();
    let default_threshold = u32::from(defaults.predictor.threshold);
    let default_penalty = defaults.violation_penalty;

    let mut targets: Vec<(WorkloadSpec, String, bool)> = Vec::new();
    for name in &grid.benchmarks {
        let spec = find_workload(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `dide list`)"))?;
        targets.push((spec, name.clone(), false));
    }
    for &seed in &grid.seeds {
        targets.push((WorkloadSpec::generated(seed), format!("gen:{seed}"), true));
    }
    for (axis, len) in [
        ("benchmarks/seeds", targets.len()),
        ("--opts", grid.opts.len()),
        ("--scales", grid.scales.len()),
        ("--machines", grid.machines.len()),
        ("--elims", grid.elims.len()),
        ("--thresholds", grid.thresholds.len()),
        ("--penalties", grid.penalties.len()),
    ] {
        if len == 0 {
            return Err(format!("campaign grid axis {axis} is empty"));
        }
    }
    // The predictor's confidence counter saturates at 2^counter_bits - 1;
    // a threshold above that would panic at predictor construction.
    let threshold_max = (1u32 << defaults.predictor.counter_bits) - 1;
    for &threshold in &grid.thresholds {
        if threshold > threshold_max {
            return Err(format!(
                "invalid --thresholds `{threshold}` (expected 1..={threshold_max}, \
                 the confidence counter maximum)"
            ));
        }
    }

    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut deduped = 0u64;
    for (spec, benchmark, is_gen) in &targets {
        for &opt in &grid.opts {
            for &scale in &grid.scales {
                for &machine in &grid.machines {
                    for &elim in &grid.elims {
                        for &threshold in &grid.thresholds {
                            for &penalty in &grid.penalties {
                                let (opt, scale) =
                                    if *is_gen { (OptLevel::O2, 1) } else { (opt, scale) };
                                let threshold = match elim {
                                    Elim::Cfi => threshold,
                                    Elim::Off | Elim::Oracle => default_threshold,
                                };
                                let penalty = match elim {
                                    Elim::Cfi | Elim::Oracle => penalty,
                                    Elim::Off => default_penalty,
                                };
                                let id = format!(
                                    "{benchmark}|{opt}|s{scale}|{}|{}|t{threshold}|p{penalty}",
                                    machine.label(),
                                    elim.label()
                                );
                                if !seen.insert(id.clone()) {
                                    deduped += 1;
                                    continue;
                                }
                                jobs.push(JobSpec {
                                    seq: jobs.len() as u64,
                                    id,
                                    spec: *spec,
                                    benchmark: benchmark.clone(),
                                    opt,
                                    scale,
                                    machine,
                                    elim,
                                    threshold,
                                    penalty,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    let fingerprint = fingerprint_ids(jobs.iter().map(|j| j.id.as_str()));
    Ok(ExpandedGrid { jobs, deduped, fingerprint })
}

/// FNV-1a (64-bit) over newline-joined ids, rendered as 16 hex digits.
fn fingerprint_ids<'a>(ids: impl Iterator<Item = &'a str>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for &byte in id.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Runs one job and renders its store record.
fn run_job(job: &JobSpec, cache: &FixtureCache) -> (String, u64) {
    let case = cache.cached(job.spec, job.opt, job.scale);
    let stats = Core::new(job.config()).run(&case.trace, &case.analysis);
    let counters = full_counters(&case, &stats);
    let violations =
        check_rules(&PipelineStats::conservation_rules_for(job.machine.clusters()), &counters);
    let mut fields: Vec<(String, FieldValue)> = vec![
        ("schema".to_string(), FieldValue::Str(STATS_SCHEMA.to_string())),
        ("seq".to_string(), FieldValue::Num(job.seq)),
        ("id".to_string(), FieldValue::Str(job.id.clone())),
        ("benchmark".to_string(), FieldValue::Str(job.benchmark.clone())),
        ("opt".to_string(), FieldValue::Str(job.opt.to_string())),
        ("scale".to_string(), FieldValue::Num(u64::from(job.scale))),
        ("machine".to_string(), FieldValue::Str(job.machine.label().to_string())),
        ("elim".to_string(), FieldValue::Str(job.elim.label().to_string())),
        ("threshold".to_string(), FieldValue::Num(u64::from(job.threshold))),
        ("penalty".to_string(), FieldValue::Num(u64::from(job.penalty))),
        ("violations".to_string(), FieldValue::Num(violations.len() as u64)),
    ];
    for (name, value) in counters.iter() {
        fields.push((name.to_string(), FieldValue::Num(value)));
    }
    (render_record(fields), violations.len() as u64)
}

/// Options for [`run_campaign`] (the `dide campaign run` CLI).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The requested grid.
    pub grid: CampaignGrid,
    /// Store path (JSONL; the cursor sidecar lives next to it).
    pub out: PathBuf,
    /// Worker threads (`<= 1` runs inline on the calling thread).
    pub jobs: usize,
    /// Resume from the store's cursor instead of truncating.
    pub resume: bool,
    /// Commit (fsync + cursor) batch size in records.
    pub flush_every: u64,
    /// Capacity of the campaign's private fixture cache.
    pub fixture_cap: usize,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            grid: CampaignGrid::default(),
            out: PathBuf::from("campaign.jsonl"),
            jobs: 1,
            resume: false,
            flush_every: 32,
            fixture_cap: crate::workbench::DEFAULT_FIXTURE_CAP,
        }
    }
}

/// The result of one [`run_campaign`] call.
#[derive(Debug)]
pub struct CampaignRun {
    /// The campaign accounting registry (`campaign.` / `fixture.` scopes).
    pub counters: CounterSet,
    /// Violated campaign conservation rules (empty = healthy run).
    pub violations: Vec<String>,
    /// Human-readable summary (stdout).
    pub summary: String,
    /// The grid fingerprint (also in the store header).
    pub fingerprint: String,
}

/// The conservation laws every campaign run must satisfy.
#[must_use]
pub fn campaign_rules() -> Vec<Rule> {
    vec![
        Rule::eq(
            Expr::sum([
                "campaign.jobs_completed",
                "campaign.jobs_deduped",
                "campaign.jobs_skipped",
            ]),
            Expr::counter("campaign.jobs_total"),
        )
        .note("every grid point is completed, deduplicated or resume-skipped"),
        Rule::eq(
            Expr::sum(["campaign.jobs_completed", "campaign.jobs_skipped"]),
            Expr::counter("campaign.jobs_unique"),
        )
        .note("unique jobs split into completed and skipped"),
        Rule::eq(
            Expr::sum(["fixture.hits", "fixture.misses"]),
            Expr::counter("campaign.jobs_completed"),
        )
        .note("each completed job makes exactly one fixture lookup"),
        Rule::le(Expr::counter("fixture.peak_resident"), Expr::counter("fixture.cap"))
            .note("the fixture cache never exceeds its capacity bound"),
        Rule::le(Expr::counter("campaign.store_records"), Expr::counter("campaign.jobs_unique"))
            .note("the store holds at most one record per unique job"),
    ]
}

/// Expands the grid, runs every unique job not already durable in the
/// store, and writes records in sequence order.
///
/// # Errors
///
/// Returns a one-line message for grid errors or store I/O failures
/// (including `--resume` against a store from a different grid).
///
/// # Panics
///
/// Panics if a workload traps (a generator bug), propagated from worker
/// threads.
pub fn run_campaign(options: &CampaignOptions) -> Result<CampaignRun, String> {
    let expanded = expand_grid(&options.grid)?;
    let unique = expanded.jobs.len() as u64;
    let total = unique + expanded.deduped;

    let mut writer = if options.resume {
        StoreWriter::resume(&options.out, &expanded.fingerprint, options.flush_every)
            .map_err(|e| format!("cannot resume {}: {e}", options.out.display()))?
    } else {
        StoreWriter::create(&options.out, &expanded.fingerprint, unique, options.flush_every)
            .map_err(|e| format!("cannot create {}: {e}", options.out.display()))?
    };
    let skipped = writer.records();
    if skipped > unique {
        return Err(format!(
            "store {} holds {skipped} records but the grid has {unique} unique jobs",
            options.out.display()
        ));
    }

    let cache = FixtureCache::with_cap(options.fixture_cap);
    let remaining = &expanded.jobs[usize::try_from(skipped).expect("record count fits usize")..];
    let mut record_violations = 0u64;
    let mut io_error: Option<String> = None;
    let report = map_stealing_sink(
        options.jobs,
        remaining,
        |_, job| run_job(job, &cache),
        |_, (line, violations)| {
            record_violations += violations;
            if io_error.is_none() {
                if let Err(e) = writer.append(&line) {
                    io_error = Some(format!("cannot append to {}: {e}", options.out.display()));
                }
            }
        },
    );
    if let Some(e) = io_error {
        return Err(e);
    }
    writer.commit().map_err(|e| format!("cannot commit {}: {e}", options.out.display()))?;

    let completed = remaining.len() as u64;
    let fixture = cache.stats();
    let mut counters = CounterSet::new();
    let mut scope = counters.scope("campaign");
    scope.counter("jobs_total", total);
    scope.counter("jobs_unique", unique);
    scope.counter("jobs_completed", completed);
    scope.counter("jobs_deduped", expanded.deduped);
    scope.counter("jobs_skipped", skipped);
    scope.counter("store_records", writer.records());
    scope.counter("record_violations", record_violations);
    scope.counter("workers", report.workers as u64);
    scope.counter("steals", report.steals);
    drop(scope);
    let mut scope = counters.scope("fixture");
    scope.counter("hits", fixture.hits);
    scope.counter("misses", fixture.misses);
    scope.counter("evictions", fixture.evictions);
    scope.counter("peak_resident", fixture.peak_resident as u64);
    scope.counter("cap", fixture.cap as u64);
    drop(scope);
    let violations = check_rules(&campaign_rules(), &counters);

    let mut summary = format!(
        "== campaign: {total} grid points -> {unique} unique jobs ({} deduped) ==\n",
        expanded.deduped
    );
    let _ =
        writeln!(summary, "store      {} (grid {})", options.out.display(), expanded.fingerprint);
    let _ = writeln!(
        summary,
        "run        {completed} completed, {skipped} resumed-skipped, {} worker(s), {} steal(s)",
        report.workers, report.steals
    );
    let _ = writeln!(
        summary,
        "fixtures   {} built, {} reused, peak {} resident (cap {})",
        fixture.misses, fixture.hits, fixture.peak_resident, fixture.cap
    );
    if record_violations > 0 {
        let _ = writeln!(summary, "WARNING    {record_violations} record-level rule violation(s)");
    }
    if violations.is_empty() {
        summary.push_str("laws       campaign conservation rules hold\n");
    } else {
        for v in &violations {
            let _ = writeln!(summary, "VIOLATION  {v}");
        }
    }
    Ok(CampaignRun { counters, violations, summary, fingerprint: expanded.fingerprint })
}

/// The grid [`measure_campaign_throughput`] times: small enough for a CI
/// smoke stage, rich enough that canonical dedup actually fires (the
/// `off` rows alias across the threshold axis).
#[must_use]
pub fn bench_grid() -> CampaignGrid {
    CampaignGrid {
        benchmarks: vec!["expr".to_string(), "route".to_string(), "sort".to_string()],
        seeds: Vec::new(),
        opts: vec![OptLevel::O2],
        scales: vec![1],
        machines: vec![Machine::Contended],
        elims: vec![Elim::Off, Elim::Cfi],
        thresholds: vec![8, 12],
        penalties: vec![15],
    }
}

/// The `campaign` block of `BENCH.json`: scheduler throughput plus the
/// deterministic dedup/fixture accounting of [`bench_grid`].
#[derive(Debug, Clone)]
pub struct CampaignThroughput {
    /// Fingerprint of the measured grid.
    pub grid_fingerprint: String,
    /// Expanded grid points.
    pub jobs_total: u64,
    /// Unique canonical jobs.
    pub jobs_unique: u64,
    /// Grid points answered by the dedup pass.
    pub jobs_deduped: u64,
    /// Peak resident fixtures during the jobs=N run.
    pub peak_resident: u64,
    /// Fixture-cache capacity during the measurement.
    pub fixture_cap: u64,
    /// Wall-clock of a plain serial loop (no scheduler, no store).
    pub direct_ns: u128,
    /// Wall-clock of the full engine at `--jobs 1` (inline path + store).
    pub jobs1_ns: u128,
    /// Worker count of the parallel measurement.
    pub jobsn: usize,
    /// Wall-clock of the full engine at `--jobs N`.
    pub jobsn_ns: u128,
}

impl CampaignThroughput {
    /// Fraction of grid points answered without simulation.
    #[must_use]
    pub fn dedup_rate(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.jobs_total == 0 {
            0.0
        } else {
            self.jobs_deduped as f64 / self.jobs_total as f64
        }
    }

    /// Unique jobs per second at `--jobs N`.
    #[must_use]
    pub fn jobs_per_sec(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.jobsn_ns == 0 {
            0.0
        } else {
            self.jobs_unique as f64 / (self.jobsn_ns as f64 / 1e9)
        }
    }

    /// Engine-at-jobs-1 over plain-loop wall-clock: the scheduler + store
    /// overhead the acceptance criteria bound at 5%.
    #[must_use]
    pub fn scheduler_overhead(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.direct_ns == 0 {
            1.0
        } else {
            self.jobs1_ns as f64 / self.direct_ns as f64
        }
    }
}

/// Times [`bench_grid`] three ways — a plain serial loop over the unique
/// jobs (no scheduler, no store), the engine at `--jobs 1`, and the engine
/// at `--jobs N` — writing throwaway stores under the system temp
/// directory, which is removed before returning. Each pass uses a fresh
/// fixture cache so no pass inherits the previous pass's builds.
///
/// # Errors
///
/// Propagates grid or store errors from [`run_campaign`].
pub fn measure_campaign_throughput(jobsn: usize) -> Result<CampaignThroughput, String> {
    use std::time::Instant;

    let expanded = expand_grid(&bench_grid())?;
    let dir = std::env::temp_dir().join(format!("dide-campaign-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    // Reference: the pre-campaign way of running a batch — a bare loop,
    // results kept in memory.
    let direct_cache = FixtureCache::with_cap(crate::workbench::DEFAULT_FIXTURE_CAP);
    let start = Instant::now();
    let mut lines = Vec::with_capacity(expanded.jobs.len());
    for job in &expanded.jobs {
        lines.push(run_job(job, &direct_cache));
    }
    let direct_ns = start.elapsed().as_nanos();
    drop(lines);

    let timed = |jobs: usize, name: &str| -> Result<(u128, CampaignRun), String> {
        let options = CampaignOptions {
            grid: bench_grid(),
            out: dir.join(name),
            jobs,
            ..CampaignOptions::default()
        };
        let start = Instant::now();
        let run = run_campaign(&options)?;
        Ok((start.elapsed().as_nanos(), run))
    };
    let runs = timed(1, "jobs1.jsonl").and_then(|(jobs1_ns, _)| {
        timed(jobsn.max(2), "jobsn.jsonl").map(|(jobsn_ns, run_n)| (jobs1_ns, jobsn_ns, run_n))
    });
    // The stores are throwaway: remove them whether or not the runs worked.
    let _ = std::fs::remove_dir_all(&dir);
    let (jobs1_ns, jobsn_ns, run_n) = runs?;

    Ok(CampaignThroughput {
        grid_fingerprint: expanded.fingerprint,
        jobs_total: run_n.counters.expect("campaign.jobs_total"),
        jobs_unique: run_n.counters.expect("campaign.jobs_unique"),
        jobs_deduped: run_n.counters.expect("campaign.jobs_deduped"),
        peak_resident: run_n.counters.expect("fixture.peak_resident"),
        fixture_cap: run_n.counters.expect("fixture.cap"),
        direct_ns,
        jobs1_ns,
        jobsn: jobsn.max(2),
        jobsn_ns,
    })
}

/// Options for [`run_campaign_report`] (the `dide campaign report` CLI).
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Store to query.
    pub store: PathBuf,
    /// Equality filters (`field=value`, all must match).
    pub wheres: Vec<(String, String)>,
    /// Fields to group by (empty = one global group).
    pub group_by: Vec<String>,
    /// Counters to sum per group (empty = a default set).
    pub metrics: Vec<String>,
}

/// Reads a store and renders a grouped aggregate table.
///
/// # Errors
///
/// Returns a one-line message for store I/O or parse failures.
pub fn run_campaign_report(options: &ReportOptions) -> Result<String, String> {
    let reader = StoreReader::open(&options.store)
        .map_err(|e| format!("cannot read {}: {e}", options.store.display()))?;
    let metrics: Vec<String> = if options.metrics.is_empty() {
        vec![
            "pipeline.cycles".to_string(),
            "pipeline.committed".to_string(),
            "violations".to_string(),
        ]
    } else {
        options.metrics.clone()
    };

    // group key -> (record count, summed metrics)
    let mut groups: std::collections::BTreeMap<Vec<String>, (u64, CounterSet)> =
        std::collections::BTreeMap::new();
    let mut matched = 0u64;
    for record in &reader.records {
        let field =
            |name: &str| record.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_match_text());
        if !options.wheres.iter().all(|(name, want)| field(name).as_deref() == Some(want)) {
            continue;
        }
        matched += 1;
        let key: Vec<String> =
            options.group_by.iter().map(|g| field(g).unwrap_or_else(|| "-".to_string())).collect();
        let entry = groups.entry(key).or_insert_with(|| (0, CounterSet::new()));
        entry.0 += 1;
        let mut delta = CounterSet::new();
        for metric in &metrics {
            let value = record
                .iter()
                .find_map(|(n, v)| match (n == metric, v) {
                    (true, FieldValue::Num(value)) => Some(*value),
                    _ => None,
                })
                .unwrap_or(0);
            delta.record(metric, value);
        }
        entry.1.accumulate(&delta);
    }

    let mut out = format!(
        "== campaign report: {} ({} record(s), {matched} matched) ==\n",
        options.store.display(),
        reader.records.len()
    );
    let mut headers: Vec<String> = options.group_by.clone();
    headers.push("records".to_string());
    headers.extend(metrics.iter().cloned());
    let mut table = Table::new(headers);
    for (key, (count, sums)) in &groups {
        let mut row: Vec<String> = key.clone();
        row.push(count.to_string());
        for metric in &metrics {
            row.push(sums.get(metric).unwrap_or(0).to_string());
        }
        table.row(row);
    }
    out.push_str(&table.to_string());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dide-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("campaign.jsonl")
    }

    fn small_grid() -> CampaignGrid {
        CampaignGrid {
            benchmarks: vec!["expr".to_string(), "stream".to_string()],
            seeds: vec![3],
            opts: vec![OptLevel::O0, OptLevel::O2],
            scales: vec![1],
            machines: vec![Machine::Contended],
            elims: vec![Elim::Off, Elim::Cfi],
            thresholds: vec![8, 12],
            penalties: vec![15],
        }
    }

    #[test]
    fn expansion_dedups_canonical_aliases() {
        let expanded = expand_grid(&small_grid()).unwrap();
        let total = expanded.jobs.len() as u64 + expanded.deduped;
        // 3 targets x 2 opts x 1 scale x 1 machine x 2 elims x 2 thresholds x 1 penalty.
        assert_eq!(total, 24);
        // Aliases: elim=off ignores the threshold axis (halves off jobs);
        // gen targets ignore the opt axis.
        assert!(expanded.deduped > 0, "grid must contain canonical aliases");
        let ids: std::collections::HashSet<&str> =
            expanded.jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(ids.len(), expanded.jobs.len(), "job ids are unique");
        assert!(expanded.jobs.iter().all(|j| { j.elim != Elim::Off || j.threshold == 12 }));
        assert!(expanded
            .jobs
            .iter()
            .filter(|j| j.benchmark.starts_with("gen:"))
            .all(|j| j.opt == OptLevel::O2 && j.scale == 1));
        // Sequence numbers are dense and ordered.
        for (i, job) in expanded.jobs.iter().enumerate() {
            assert_eq!(job.seq, i as u64);
        }
    }

    #[test]
    fn expansion_rejects_unknown_benchmarks_and_wide_thresholds() {
        let mut grid = small_grid();
        grid.benchmarks = vec!["nope".to_string()];
        assert!(expand_grid(&grid).unwrap_err().contains("unknown benchmark"));
        let mut grid = small_grid();
        grid.thresholds = vec![300];
        assert!(expand_grid(&grid).unwrap_err().contains("--thresholds"));
        let mut grid = small_grid();
        grid.opts.clear();
        assert!(expand_grid(&grid).unwrap_err().contains("--opts"));
    }

    #[test]
    fn fingerprint_tracks_grid_identity() {
        let a = expand_grid(&small_grid()).unwrap();
        let b = expand_grid(&small_grid()).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        let mut grid = small_grid();
        grid.thresholds = vec![8];
        let c = expand_grid(&grid).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn campaign_is_deterministic_across_job_counts() {
        let out1 = tmp("jobs1");
        let out4 = tmp("jobs4");
        let grid = small_grid();
        let run1 = run_campaign(&CampaignOptions {
            grid: grid.clone(),
            out: out1.clone(),
            jobs: 1,
            ..CampaignOptions::default()
        })
        .unwrap();
        let run4 = run_campaign(&CampaignOptions {
            grid,
            out: out4.clone(),
            jobs: 4,
            flush_every: 3,
            ..CampaignOptions::default()
        })
        .unwrap();
        assert!(run1.violations.is_empty(), "{:?}", run1.violations);
        assert!(run4.violations.is_empty(), "{:?}", run4.violations);
        let bytes1 = std::fs::read(&out1).unwrap();
        let bytes4 = std::fs::read(&out4).unwrap();
        assert_eq!(bytes1, bytes4, "store bytes must not depend on --jobs");
        assert_eq!(run1.counters.expect("campaign.record_violations"), 0);
    }

    #[test]
    fn resume_skips_durable_prefix_and_converges() {
        let full = tmp("full");
        let partial = tmp("partial");
        let grid = small_grid();
        let _ = run_campaign(&CampaignOptions {
            grid: grid.clone(),
            out: full.clone(),
            flush_every: 1,
            ..CampaignOptions::default()
        })
        .unwrap();

        // Simulate a crash: keep only the first 4 committed records.
        let _ = run_campaign(&CampaignOptions {
            grid: grid.clone(),
            out: partial.clone(),
            flush_every: 1,
            ..CampaignOptions::default()
        })
        .unwrap();
        let contents = std::fs::read_to_string(&partial).unwrap();
        let keep: String = contents.split_inclusive('\n').take(5).collect();
        std::fs::write(&partial, &keep).unwrap();
        let reader = StoreReader::parse(&keep).unwrap();
        let cursor = format!(
            "{{\"schema\":\"dide-campaign-cursor/v1\",\"grid\":\"{}\",\"records\":{},\"bytes\":{}}}\n",
            expand_grid(&grid).unwrap().fingerprint,
            reader.records.len(),
            keep.len()
        );
        std::fs::write(partial.with_file_name("campaign.jsonl.cursor"), cursor).unwrap();

        let resumed = run_campaign(&CampaignOptions {
            grid,
            out: partial.clone(),
            jobs: 2,
            resume: true,
            ..CampaignOptions::default()
        })
        .unwrap();
        assert!(resumed.violations.is_empty(), "{:?}", resumed.violations);
        assert_eq!(resumed.counters.expect("campaign.jobs_skipped"), 4);
        assert!(resumed.counters.expect("campaign.jobs_completed") > 0);
        assert_eq!(std::fs::read(&full).unwrap(), std::fs::read(&partial).unwrap());
    }

    #[test]
    fn resume_rejects_a_different_grid() {
        let out = tmp("wronggrid");
        let _ = run_campaign(&CampaignOptions { out: out.clone(), ..CampaignOptions::default() })
            .unwrap();
        let grid = CampaignGrid { scales: vec![2], ..CampaignGrid::default() };
        let err = run_campaign(&CampaignOptions {
            grid,
            out,
            resume: true,
            ..CampaignOptions::default()
        })
        .unwrap_err();
        assert!(err.contains("cannot resume"), "{err}");
        assert!(!err.contains('\n'));
    }

    #[test]
    fn report_filters_and_groups() {
        let out = tmp("report");
        let _ = run_campaign(&CampaignOptions {
            grid: small_grid(),
            out: out.clone(),
            ..CampaignOptions::default()
        })
        .unwrap();
        let report = run_campaign_report(&ReportOptions {
            store: out.clone(),
            wheres: vec![("elim".to_string(), "cfi".to_string())],
            group_by: vec!["benchmark".to_string()],
            metrics: vec!["pipeline.committed".to_string()],
        })
        .unwrap();
        assert!(report.contains("benchmark"), "{report}");
        assert!(report.contains("expr"), "{report}");
        assert!(report.contains("gen:3"), "{report}");
        // Filtering works: `off` rows are excluded, so grouping by elim
        // under the same filter yields exactly one group.
        let by_elim = run_campaign_report(&ReportOptions {
            store: out,
            wheres: vec![("elim".to_string(), "cfi".to_string())],
            group_by: vec!["elim".to_string()],
            metrics: vec!["pipeline.committed".to_string()],
        })
        .unwrap();
        assert!(by_elim.contains("cfi"));
        assert!(!by_elim.lines().any(|l| l.starts_with("off")));
    }

    #[test]
    fn fixture_cap_bounds_resident_fixtures() {
        let out = tmp("cap");
        let run = run_campaign(&CampaignOptions {
            grid: small_grid(),
            out,
            jobs: 2,
            fixture_cap: 2,
            ..CampaignOptions::default()
        })
        .unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.counters.expect("fixture.peak_resident") <= 2);
        assert!(run.counters.expect("fixture.evictions") > 0);
    }
}
