//! The three workloads, each driven through the public API of every crate
//! it exercises.
//!
//! * `suite` — the 14 built-in programs, materialized: build, emulate,
//!   analyze, then simulate on the contended machine with elimination off
//!   and with CFI elimination. The unified cycle loop dominates.
//! * `stream` — three long programs through the bounded-memory path:
//!   windowed analysis, then two streamed simulations that re-emulate.
//! * `campaign` — a 6168-point grid (4112 unique jobs) through the
//!   work-stealing scheduler, fixture cache, clustered loop and store,
//!   then a grouped report read back from the store.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};

use dide::prelude::{CfiConfig, DeadElimConfig, DeadnessAnalysis, Emulator, TraceStream};
use dide::store::FieldValue;
use dide::{
    expand_grid, find_workload, run_campaign, run_campaign_report, CampaignGrid, CampaignOptions,
    Elim, ExpandedGrid, JobSpec, Machine, ReportOptions, StoreReader, StoreWriter,
    DEFAULT_EPOCH_LEN, DEFAULT_FIXTURE_CAP,
};
use dide_emu::DynInst;
use dide_isa::Program;
use dide_pipeline::{Core, PipelineConfig, PipelineStats};
use dide_workloads::{asm_suite, suite, OptLevel, WorkloadSpec};

use crate::ledger::Ledger;
use crate::report::SimTally;
use crate::spans::Spans;

/// Store commit batch of the campaign: the `dide campaign run` default.
const FLUSH_EVERY: u64 = 32;

/// Campaign worker threads: the host's `nproc`.
pub const WORKERS: usize = 2;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Stream,
    Campaign,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::Suite, Kind::Stream, Kind::Campaign];

    /// Parses a `--workload` value.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        Kind::ALL.into_iter().find(|k| k.name() == name).ok_or_else(|| {
            format!("unknown workload `{name}` (expected suite, stream or campaign)")
        })
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Suite => "suite",
            Kind::Stream => "stream",
            Kind::Campaign => "campaign",
        }
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::tiny`] keeps
/// every code path of it for the self-test.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Scale of the `suite` programs.
    pub suite_scale: u32,
    /// The `stream` programs and their scales.
    pub stream: Vec<(&'static str, u32)>,
    /// Records per streaming epoch.
    pub epoch: usize,
    /// Scale of the named programs in the `campaign` grid.
    pub campaign_scale: u32,
    /// Seeded `gen:` programs in the `campaign` grid.
    pub campaign_gens: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Sizes {
        Sizes {
            suite_scale: 16,
            stream: vec![("expr", 100), ("route", 64), ("matmul", 256)],
            epoch: DEFAULT_EPOCH_LEN,
            campaign_scale: 4,
            campaign_gens: 500,
        }
    }

    /// A seconds-long variant: small programs, short epochs (so streaming
    /// still crosses epoch boundaries), a handful of generated programs.
    #[must_use]
    pub fn tiny() -> Sizes {
        Sizes {
            suite_scale: 1,
            stream: vec![("expr", 2), ("route", 1), ("matmul", 2)],
            epoch: 4096,
            campaign_scale: 1,
            campaign_gens: 4,
        }
    }
}

/// What one pass produced: every field is exact, so it must repeat
/// bit-for-bit from pass to pass (the ledger's guard), except the two
/// scheduling-dependent campaign counts.
#[derive(Debug, Default, Clone)]
pub struct PassOut {
    /// Simulated counts over every pipeline run of the pass.
    pub sim: SimTally,
    /// `off` cycles over `cfi` cycles, one per matching pair of runs.
    pub speedups: Vec<f64>,
    /// Trace records emulated, counting each program once.
    pub records: u64,
    /// Largest trace held at once: a materialized trace, or a streamed
    /// run's resident epochs.
    pub trace_bytes: u64,
    pub dead: u64,
    pub escaped: u64,
    pub epochs: u64,
    /// Simulated cycles inside `pipeline.unified` / `pipeline.clustered`
    /// spans, for host nanoseconds per simulated cycle.
    pub unified_cycles: u64,
    pub clustered_cycles: u64,
    pub campaign: CampaignCounts,
}

/// Campaign accounting of one pass.
#[derive(Debug, Default, Clone)]
pub struct CampaignCounts {
    pub jobs_unique: u64,
    pub jobs_deduped: u64,
    pub programs: u64,
    pub store_bytes: u64,
    pub store_records: u64,
    /// Scheduling-dependent: vary with work stealing, not exact.
    pub steals: u64,
    pub fixture_misses: u64,
}

impl PassOut {
    /// The counts the exact guard compares between passes.
    #[must_use]
    pub fn exact_counts(&self) -> Vec<(&'static str, u64)> {
        let s = &self.sim;
        let c = &self.campaign;
        let speedup_bits =
            self.speedups.iter().fold(0u64, |acc, v| acc.rotate_left(5) ^ v.to_bits());
        vec![
            ("pipeline.cycles", s.cycles),
            ("pipeline.committed", s.committed),
            ("pipeline.eliminated", s.eliminated),
            ("pipeline.dead_violations", s.dead_violations),
            ("pipeline.stall.rob", s.stall_rob),
            ("pipeline.stall.iq", s.stall_iq),
            ("pipeline.stall.phys", s.stall_phys),
            ("pipeline.stall.lsq", s.stall_lsq),
            ("pipeline.fetch_stall_cycles", s.fetch_stall_cycles),
            ("pipeline.bypass_stalls", s.bypass_stalls),
            ("pipeline.steered_dead", s.steered_dead),
            ("predictor.predicted", s.cfi_predicted),
            ("predictor.correct", s.cfi_correct),
            ("predictor.oracle_dead", s.cfi_oracle_dead),
            ("mem.l1d.accesses", s.l1d_accesses),
            ("mem.l1d.misses", s.l1d_misses),
            ("mem.l2.misses", s.l2_misses),
            ("elim_speedup.bits", speedup_bits),
            ("emu.records", self.records),
            ("emu.trace_bytes", self.trace_bytes),
            ("analysis.dead", self.dead),
            ("analysis.escaped", self.escaped),
            ("analysis.epochs", self.epochs),
            ("campaign.jobs_unique", c.jobs_unique),
            ("campaign.jobs_deduped", c.jobs_deduped),
            ("store.bytes", c.store_bytes),
            ("store.records", c.store_records),
        ]
    }
}

/// The contended machine with elimination off and with the default CFI
/// elimination: the two runs `suite` and `stream` make per program.
fn machine_modes() -> [(Elim, PipelineConfig); 2] {
    let contended = PipelineConfig::contended();
    [(Elim::Off, contended), (Elim::Cfi, contended.with_elimination(DeadElimConfig::default()))]
}

/// The run checks every simulation passes: the pipeline's conservation
/// laws hold and it committed exactly the trace.
fn check_run(stats: &PipelineStats, len: u64) -> Result<(), String> {
    let violations = stats.invariant_violations();
    if !violations.is_empty() {
        return Err(format!("invariants violated: {}", violations.join("; ")));
    }
    if stats.committed != len {
        return Err(format!("committed {} of {len} trace records", stats.committed));
    }
    Ok(())
}

/// The 14 built-in programs: the eleven-benchmark suite plus the three
/// shipped `.asm` programs.
fn builtin_specs() -> Vec<WorkloadSpec> {
    suite().into_iter().chain(asm_suite()).collect()
}

/// A set-up workload, ready for passes.
#[derive(Debug)]
pub struct Bench {
    kind: Kind,
    sizes: Sizes,
    /// `(label, program)`, in run order.
    programs: Vec<(String, Program)>,
    campaign: Option<Campaign>,
}

/// The campaign workload's grid, store and bookkeeping.
#[derive(Debug)]
struct Campaign {
    grid: CampaignGrid,
    expanded: ExpandedGrid,
    /// Index into `Bench::programs` of every job, by sequence number.
    program_of: Vec<usize>,
    store: PathBuf,
    /// `pipeline.cycles` of every store record of the last pass, by
    /// sequence number (the direct replay must reproduce them).
    cycles: Vec<u64>,
}

impl Bench {
    /// Builds the workload's programs (and, for `campaign`, expands the
    /// grid and creates the store under `work_dir`).
    ///
    /// # Errors
    ///
    /// Returns a one-line message when set-up fails.
    pub fn setup(
        kind: Kind,
        sizes: &Sizes,
        seed: u64,
        work_dir: &Path,
        spans: &mut Spans,
    ) -> Result<Bench, String> {
        let mut build = |spec: WorkloadSpec, label: String, opt: OptLevel, scale: u32| {
            let program = spans.time("workloads.build", || spec.build(opt, scale));
            (label, program)
        };
        let mut bench = Bench { kind, sizes: sizes.clone(), programs: Vec::new(), campaign: None };
        match kind {
            Kind::Suite => {
                for spec in builtin_specs() {
                    let label = format!("{}@{}", spec.name, sizes.suite_scale);
                    bench.programs.push(build(spec, label, OptLevel::O2, sizes.suite_scale));
                }
            }
            Kind::Stream => {
                for &(name, scale) in &sizes.stream {
                    let spec = find_workload(name).ok_or_else(|| format!("no workload {name}"))?;
                    bench.programs.push(build(
                        spec,
                        format!("{name}@{scale}"),
                        OptLevel::O2,
                        scale,
                    ));
                }
            }
            Kind::Campaign => {
                let grid = campaign_grid(sizes, seed);
                let expanded = expand_grid(&grid)?;
                let mut index: HashMap<(String, OptLevel, u32), usize> = HashMap::new();
                let mut program_of = Vec::with_capacity(expanded.jobs.len());
                for job in &expanded.jobs {
                    let key = (job.benchmark.clone(), job.opt, job.scale);
                    let next = bench.programs.len();
                    let i = *index.entry(key).or_insert(next);
                    if i == next {
                        let label = format!("{}@{}", job.benchmark, job.scale);
                        bench.programs.push(build(job.spec, label, job.opt, job.scale));
                    }
                    program_of.push(i);
                }
                let store = work_dir.join("campaign.jsonl");
                let unique = expanded.jobs.len() as u64;
                StoreWriter::create(&store, &expanded.fingerprint, unique, FLUSH_EVERY)
                    .map_err(|e| format!("cannot create {}: {e}", store.display()))?;
                bench.campaign =
                    Some(Campaign { grid, expanded, program_of, store, cycles: Vec::new() });
            }
        }
        Ok(bench)
    }

    /// One measured pass over the workload. The caller times it.
    pub fn pass(&self, ledger: &mut Ledger, spans: &mut Spans) -> PassOut {
        let mut out = PassOut::default();
        match self.kind {
            Kind::Suite => self.suite_pass(ledger, spans, &mut out),
            Kind::Stream => self.stream_pass(ledger, spans, &mut out),
            Kind::Campaign => self.campaign_pass(ledger, spans, &mut out),
        }
        out
    }

    fn suite_pass(&self, ledger: &mut Ledger, spans: &mut Spans, out: &mut PassOut) {
        for (label, program) in &self.programs {
            let Some(trace) = ledger.op(&format!("{label}/emu"), || {
                spans.time("emu.run", || Emulator::new(program).run()).map_err(|e| e.to_string())
            }) else {
                continue;
            };
            let len = trace.len() as u64;
            out.records += len;
            out.trace_bytes = out.trace_bytes.max(len * std::mem::size_of::<DynInst>() as u64);
            let Some(analysis) = ledger.op(&format!("{label}/analyze"), || {
                Ok(spans.time("analysis.analyze", || DeadnessAnalysis::analyze(&trace)))
            }) else {
                continue;
            };
            out.dead += analysis.stats().dead_total;
            let mut cycles = Vec::new();
            for (elim, config) in machine_modes() {
                let stats = ledger.op(&format!("{label}/{}", elim.label()), || {
                    let stats =
                        spans.time("pipeline.unified", || Core::new(config).run(&trace, &analysis));
                    check_run(&stats, len)?;
                    Ok(stats)
                });
                if let Some(stats) = stats {
                    out.sim.add(elim, stats.counters().iter());
                    out.unified_cycles += stats.cycles;
                    cycles.push(stats.cycles);
                }
            }
            if let [off, cfi] = cycles[..] {
                out.speedups.push(off as f64 / cfi as f64);
            }
        }
    }

    fn stream_pass(&self, ledger: &mut Ledger, spans: &mut Spans, out: &mut PassOut) {
        let epoch = self.sizes.epoch;
        for (label, program) in &self.programs {
            let Some(deadness) = ledger.op(&format!("{label}/analyze"), || {
                spans
                    .time("analysis.streamed", || {
                        DeadnessAnalysis::analyze_streamed(program, epoch)
                    })
                    .map_err(|e| e.to_string())
            }) else {
                continue;
            };
            let len = deadness.len() as u64;
            out.records += len;
            out.dead += deadness.stats().dead_total;
            out.escaped += deadness.escaped();
            out.epochs += deadness.epochs();
            out.trace_bytes = out.trace_bytes.max(deadness.mem_peak_bytes());
            let mut cycles = Vec::new();
            for (elim, config) in machine_modes() {
                let run = ledger.op(&format!("{label}/{}", elim.label()), || {
                    let mut stream = TraceStream::new(program, epoch);
                    let stats = spans.time("pipeline.streamed", || {
                        Core::new(config).run_streamed(&mut stream, &deadness)
                    });
                    check_run(&stats, len)?;
                    if stream.outputs() != deadness.outputs() {
                        return Err("streamed outputs disagree with the analysis pass".to_string());
                    }
                    Ok((stats, stream.peak_resident_bytes()))
                });
                if let Some((stats, resident)) = run {
                    out.sim.add(elim, stats.counters().iter());
                    out.trace_bytes = out.trace_bytes.max(resident);
                    cycles.push(stats.cycles);
                }
            }
            if let [off, cfi] = cycles[..] {
                out.speedups.push(off as f64 / cfi as f64);
            }
        }
    }

    fn campaign_pass(&self, ledger: &mut Ledger, spans: &mut Spans, out: &mut PassOut) {
        let campaign = self.campaign.as_ref().expect("campaign workload has a campaign");
        let options = CampaignOptions {
            grid: campaign.grid.clone(),
            out: campaign.store.clone(),
            jobs: WORKERS,
            resume: false,
            flush_every: FLUSH_EVERY,
            fixture_cap: DEFAULT_FIXTURE_CAP,
        };
        let run = ledger.op("campaign/run", || {
            let run = spans.time("campaign.run", || run_campaign(&options))?;
            if !run.violations.is_empty() {
                return Err(format!("campaign rules violated: {}", run.violations.join("; ")));
            }
            let record_violations = run.counters.expect("campaign.record_violations");
            if record_violations > 0 {
                return Err(format!("{record_violations} record-level rule violation(s)"));
            }
            Ok(run)
        });
        let Some(run) = run else { return };
        let unique = run.counters.expect("campaign.jobs_unique");
        ledger.op("campaign/report", || {
            let report = ReportOptions {
                store: campaign.store.clone(),
                group_by: vec!["machine".to_string(), "elim".to_string()],
                ..ReportOptions::default()
            };
            let text = spans.time("store.report", || run_campaign_report(&report))?;
            let covered = format!("({unique} record(s), {unique} matched)");
            if text.contains(&covered) {
                Ok(())
            } else {
                Err(format!("report does not cover the {unique} stored records"))
            }
        });
        out.campaign = CampaignCounts {
            jobs_unique: unique,
            jobs_deduped: run.counters.expect("campaign.jobs_deduped"),
            programs: self.programs.len() as u64,
            store_bytes: 0,
            store_records: run.counters.expect("campaign.store_records"),
            steals: run.counters.expect("campaign.steals"),
            fixture_misses: run.counters.expect("fixture.misses"),
        };
    }

    /// Untimed bookkeeping after a pass: the campaign reads its store back
    /// to count every job as an operation and to tally simulated counts.
    pub fn settle(&mut self, ledger: &mut Ledger, out: &mut PassOut) {
        let Some(campaign) = self.campaign.as_mut() else { return };
        let unique = campaign.expanded.jobs.len();
        let reader = match StoreReader::open(&campaign.store) {
            Ok(reader) => reader,
            Err(e) => {
                ledger.tally(unique as u64, &[format!("cannot read the store: {e}")]);
                return;
            }
        };
        let mut failures = Vec::new();
        if reader.records.len() != unique {
            failures.push(format!("store holds {} of {unique} records", reader.records.len()));
        }
        out.campaign.store_bytes = std::fs::metadata(&campaign.store).map_or(0, |m| m.len());
        campaign.cycles = vec![0; unique];
        let mut off_cycles: HashMap<(String, String), u64> = HashMap::new();
        let mut cfi_cycles: Vec<((String, String), u64)> = Vec::new();
        for record in &reader.records {
            let num = |name: &str| {
                record.iter().find_map(|(n, v)| match v {
                    FieldValue::Num(x) if n == name => Some(*x),
                    _ => None,
                })
            };
            let text =
                |name: &str| record.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_match_text());
            let (Some(seq), Some(cycles), Some(machine), Some(benchmark), Some(elim)) = (
                num("seq"),
                num("pipeline.cycles"),
                text("machine"),
                text("benchmark"),
                text("elim"),
            ) else {
                failures.push(format!("malformed store record: {record:?}"));
                continue;
            };
            if num("violations") != Some(0) {
                failures.push(format!("record {seq} violates conservation rules"));
            }
            let Ok(elim) = Elim::parse(&elim) else {
                failures.push(format!("record {seq} has elimination mode `{elim}`"));
                continue;
            };
            let counters = record.iter().filter_map(|(n, v)| match v {
                FieldValue::Num(x) => Some((n.as_str(), *x)),
                FieldValue::Str(_) => None,
            });
            out.sim.add(elim, counters);
            if let Some(slot) = usize::try_from(seq).ok().and_then(|s| campaign.cycles.get_mut(s)) {
                *slot = cycles;
            }
            let key = (benchmark, machine);
            match elim {
                Elim::Off => {
                    if key.1 == Machine::Contended.label() {
                        let len = num("emu.total").unwrap_or(0);
                        out.records += len;
                        out.dead += num("analysis.dead_total").unwrap_or(0);
                        out.trace_bytes =
                            out.trace_bytes.max(len * std::mem::size_of::<DynInst>() as u64);
                    }
                    off_cycles.insert(key, cycles);
                }
                Elim::Cfi => cfi_cycles.push((key, cycles)),
                Elim::Oracle => {}
            }
        }
        for (key, cfi) in cfi_cycles {
            match off_cycles.get(&key) {
                Some(&off) => out.speedups.push(off as f64 / cfi as f64),
                None => failures.push(format!("no elimination-off run for {key:?}")),
            }
        }
        ledger.tally(unique as u64, &failures);
    }

    /// Traced-only passes that give self times and a baseline for the
    /// scheduler: every program emulated once into a no-op consumer, and
    /// (campaign) every job replayed serially through `Core::run`, with no
    /// scheduler and no store.
    pub fn probe(&self, ledger: &mut Ledger, spans: &mut Spans, out: &mut PassOut) {
        let epoch = self.sizes.epoch;
        for (label, program) in &self.programs {
            ledger.op(&format!("{label}/emu-stream"), || {
                spans
                    .time("emu.stream", || {
                        Emulator::new(program).run_streamed(epoch, |chunk| {
                            black_box(chunk.len());
                        })
                    })
                    .map(drop)
                    .map_err(|e| e.to_string())
            });
        }
        if let Some(campaign) = &self.campaign {
            let depth = spans.enter("campaign.direct");
            self.replay(campaign, ledger, spans, out);
            spans.exit(depth);
        }
    }

    fn replay(
        &self,
        campaign: &Campaign,
        ledger: &mut Ledger,
        spans: &mut Spans,
        out: &mut PassOut,
    ) {
        let jobs = &campaign.expanded.jobs;
        let mut start = 0;
        while start < jobs.len() {
            let p = campaign.program_of[start];
            let end = start + campaign.program_of[start..].iter().take_while(|&&q| q == p).count();
            let (label, program) = &self.programs[p];
            let fixture = ledger.op(&format!("direct/{label}/fixture"), || {
                let trace = spans
                    .time("emu.run", || Emulator::new(program).run())
                    .map_err(|e| e.to_string())?;
                let analysis = spans.time("analysis.analyze", || DeadnessAnalysis::analyze(&trace));
                Ok((trace, analysis))
            });
            for job in &jobs[start..end] {
                let Some((trace, analysis)) = &fixture else { break };
                let clustered = job.machine == Machine::Clustered;
                let span = if clustered { "pipeline.clustered" } else { "pipeline.unified" };
                let cycles = ledger.op(&format!("direct/{}", job.id), || {
                    let config = job_config(job)?;
                    let stats = spans.time(span, || Core::new(config).run(trace, analysis));
                    check_run(&stats, trace.len() as u64)?;
                    let stored = usize::try_from(job.seq).ok().and_then(|s| campaign.cycles.get(s));
                    if stored != Some(&stats.cycles) {
                        return Err(format!("{} cycles, store says {stored:?}", stats.cycles));
                    }
                    Ok(stats.cycles)
                });
                let total =
                    if clustered { &mut out.clustered_cycles } else { &mut out.unified_cycles };
                *total += cycles.unwrap_or(0);
            }
            start = end;
        }
    }
}

/// The campaign grid: the 14 built-in programs at the campaign scale plus
/// `campaign_gens` generated programs whose seeds follow from `seed`,
/// crossed with machines {contended, clustered} × elimination {off, cfi,
/// oracle} × CFI thresholds {8, 12}.
fn campaign_grid(sizes: &Sizes, seed: u64) -> CampaignGrid {
    let gens = sizes.campaign_gens;
    CampaignGrid {
        benchmarks: builtin_specs().iter().map(|s| s.name.to_string()).collect(),
        seeds: (0..gens).map(|i| seed.wrapping_mul(gens).wrapping_add(i)).collect(),
        opts: vec![OptLevel::O2],
        scales: vec![sizes.campaign_scale],
        machines: vec![Machine::Contended, Machine::Clustered],
        elims: vec![Elim::Off, Elim::Cfi, Elim::Oracle],
        thresholds: vec![8, 12],
        penalties: vec![DeadElimConfig::default().violation_penalty],
    }
}

/// The pipeline configuration of one campaign job, as the campaign engine
/// derives it; the direct replay checks the two agree cycle for cycle.
fn job_config(job: &JobSpec) -> Result<PipelineConfig, String> {
    let machine = job.machine.base_config();
    if job.elim == Elim::Off {
        return Ok(machine);
    }
    let defaults = DeadElimConfig::default();
    let threshold = u8::try_from(job.threshold).map_err(|e| format!("threshold: {e}"))?;
    Ok(machine.with_elimination(DeadElimConfig {
        oracle: job.elim == Elim::Oracle,
        violation_penalty: job.penalty,
        predictor: CfiConfig { threshold, ..defaults.predictor },
        ..defaults
    }))
}
