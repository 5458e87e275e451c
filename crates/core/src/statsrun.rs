//! The `dide stats` and `dide events` drivers: one full-stack run exported
//! through the unified counter registry.
//!
//! `dide stats` builds (or reuses, via the process-wide fixture cache) one
//! benchmark case, simulates it on the selected machine, assembles every
//! layer's counters into one [`CounterSet`] — trace demographics under
//! `emu.`, oracle deadness under `analysis.`, the pipeline run under
//! `pipeline.` — and renders the registry as a `dide-stats/v1` document
//! (JSON or CSV). The document embeds the conservation-law check: a clean
//! run has an empty `violations` array, and CI greps the schema string as a
//! smoke check.
//!
//! `dide events` runs the same simulation with a cycle-event trace attached
//! and renders the tail of the ring buffer as a table.
//!
//! Both outputs are deterministic: fixtures are pure functions of
//! `(benchmark, opt, scale)`, the simulator is deterministic, and counters
//! render in registration order. The JSON goes through `dide_obs::json`,
//! like `BENCH.json` and the campaign store.

use std::fmt::Write as _;
use std::sync::Arc;

use dide_analysis::{DeadnessAnalysis, StreamedDeadness};
use dide_emu::TraceStream;
use dide_obs::json::Value;
use dide_obs::{
    check_rules, counters_csv, counters_json, CounterSet, CycleEvent, EventKind, EventTrace,
    EventsConfig, Observe,
};
use dide_pipeline::{ClusterConfig, Core, DeadElimConfig, PipelineConfig, PipelineStats};
use dide_workloads::OptLevel;

use crate::{BenchCase, Table};

/// Schema identifier embedded in every `dide stats` document; bump on
/// layout changes.
pub const STATS_SCHEMA: &str = "dide-stats/v1";

/// Default epoch length (records per chunk) for `--stream` runs, shared by
/// `dide run/trace/stats/events/bench`. Large enough that windowed-analysis
/// escapes are rare, small enough that two resident epochs stay a few MiB.
pub const DEFAULT_EPOCH_LEN: usize = 65_536;

/// Output format for [`run_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// The `dide-stats/v1` JSON document (default).
    Json,
    /// `# dide-stats/v1` comment line, then `counter,value` rows.
    Csv,
}

/// Which run `dide stats` / `dide events` measure: a benchmark case plus
/// the machine and elimination mode, mirroring the `dide run` flags.
#[derive(Debug, Clone)]
pub struct RunSelection {
    /// Benchmark name (see `dide list`).
    pub benchmark: String,
    /// Optimization level to build at.
    pub opt: OptLevel,
    /// Workload scale factor (>= 1).
    pub scale: u32,
    /// `true` = contended machine (the `dide run` default), `false` =
    /// baseline machine.
    pub contended: bool,
    /// Enable CFI dead-instruction elimination.
    pub eliminate: bool,
    /// Use the oracle dead predictor (implies elimination).
    pub oracle: bool,
    /// Jump-aware CFI signatures.
    pub jump_aware: bool,
    /// Stream the trace in bounded epochs (windowed analysis + streaming
    /// pipeline) instead of materializing it.
    pub stream: bool,
    /// Epoch length (records per chunk) for `stream` runs.
    pub epoch: usize,
    /// Clustered backend on top of the selected machine base
    /// (DESIGN.md §11). `None` = unified backend.
    pub cluster: Option<ClusterConfig>,
}

impl Default for RunSelection {
    fn default() -> RunSelection {
        RunSelection {
            benchmark: "expr".to_string(),
            opt: OptLevel::O2,
            scale: 1,
            contended: true,
            eliminate: false,
            oracle: false,
            jump_aware: false,
            stream: false,
            epoch: DEFAULT_EPOCH_LEN,
            cluster: None,
        }
    }
}

impl RunSelection {
    /// The machine name rendered into the document.
    #[must_use]
    pub fn machine(&self) -> &'static str {
        if self.cluster.is_some() {
            "clustered"
        } else if self.contended {
            "contended"
        } else {
            "baseline"
        }
    }

    /// The elimination mode rendered into the document.
    #[must_use]
    pub fn elimination(&self) -> &'static str {
        if self.oracle {
            "oracle"
        } else if self.eliminate {
            "cfi"
        } else {
            "off"
        }
    }

    fn config(&self) -> PipelineConfig {
        let mut machine =
            if self.contended { PipelineConfig::contended() } else { PipelineConfig::baseline() };
        if let Some(cluster) = self.cluster {
            machine = machine.with_cluster(cluster);
        }
        if self.eliminate || self.oracle {
            machine.with_elimination(DeadElimConfig {
                oracle: self.oracle,
                jump_aware: self.jump_aware,
                ..DeadElimConfig::default()
            })
        } else {
            machine
        }
    }

    fn case(&self) -> Result<Arc<BenchCase>, String> {
        let spec = dide_workloads::find_workload(&self.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}` (try `dide list`)", self.benchmark))?;
        Ok(BenchCase::cached(spec, self.opt, self.scale))
    }

    /// Runs this selection through the streaming path: windowed analysis
    /// over the program, then the streaming pipeline pass (with an optional
    /// cycle-event trace attached). Returns the windowed deadness, the
    /// pipeline statistics, and the stream's peak resident trace bytes.
    fn run_streamed(
        &self,
        events: Option<&mut EventTrace>,
    ) -> Result<(StreamedDeadness, PipelineStats, u64), String> {
        let spec = dide_workloads::find_workload(&self.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}` (try `dide list`)", self.benchmark))?;
        let program = spec.build(self.opt, self.scale);
        let deadness = DeadnessAnalysis::analyze_streamed(&program, self.epoch)
            .map_err(|e| format!("emulation trapped: {e}"))?;
        let mut stream = TraceStream::new(&program, self.epoch);
        let stats = Core::new(self.config()).run_streamed_observed(&mut stream, &deadness, events);
        Ok((deadness, stats, stream.peak_resident_bytes()))
    }
}

/// Options for [`run_stats`] (the `dide stats` CLI).
#[derive(Debug, Clone, Default)]
pub struct StatsOptions {
    /// The run to measure.
    pub select: RunSelection,
    /// Output format.
    pub format: Option<StatsFormat>,
}

/// The result of one [`run_stats`] call.
#[derive(Debug, Clone)]
pub struct StatsRun {
    /// The assembled full-stack registry (`emu.`, `analysis.`,
    /// `pipeline.` namespaces).
    pub counters: CounterSet,
    /// Conservation-law violations (empty = healthy run).
    pub violations: Vec<String>,
    /// The rendered document (stdout).
    pub output: String,
}

/// Builds one benchmark case, simulates it, and renders the full-stack
/// counter registry as a `dide-stats/v1` document.
///
/// # Errors
///
/// Returns a one-line message for an unknown benchmark name.
///
/// # Panics
///
/// Panics if the benchmark program traps (a workload-generator bug).
pub fn run_stats(options: &StatsOptions) -> Result<StatsRun, String> {
    let counters = if options.select.stream {
        let (deadness, stats, peak_bytes) = options.select.run_streamed(None)?;
        stream_counters(&options.select, &deadness, &stats, peak_bytes)
    } else {
        let case = options.select.case()?;
        let stats = Core::new(options.select.config()).run(&case.trace, &case.analysis);
        full_counters(&case, &stats)
    };
    let clusters = options.select.cluster.map_or(0, |c| c.clusters);
    let violations = check_rules(&PipelineStats::conservation_rules_for(clusters), &counters);
    let output = match options.format.unwrap_or(StatsFormat::Json) {
        StatsFormat::Json => render_stats_json(&options.select, &counters, &violations),
        StatsFormat::Csv => format!("# {STATS_SCHEMA}\n{}", counters_csv(&counters)),
    };
    Ok(StatsRun { counters, violations, output })
}

/// Assembles the full-stack registry for one simulated case: trace
/// demographics under `emu.`, oracle deadness under `analysis.`, and the
/// pipeline run (savings, cache hierarchy) under `pipeline.`.
#[must_use]
pub fn full_counters(case: &BenchCase, stats: &PipelineStats) -> CounterSet {
    let mut set = CounterSet::new();
    case.trace.summary().observe(&mut set.scope("emu"));
    case.analysis.stats().observe(&mut set.scope("analysis"));
    stats.observe(&mut set.scope("pipeline"));
    set
}

/// The registry for a `--stream` run: the windowed deadness under
/// `analysis.`, the pipeline under `pipeline.`, and the epoch bookkeeping
/// under `stream.`. There is no `emu.` scope — trace demographics would
/// require materializing the trace the mode exists to avoid.
fn stream_counters(
    select: &RunSelection,
    deadness: &StreamedDeadness,
    stats: &PipelineStats,
    peak_bytes: u64,
) -> CounterSet {
    let mut set = CounterSet::new();
    deadness.stats().observe(&mut set.scope("analysis"));
    stats.observe(&mut set.scope("pipeline"));
    let mut scope = set.scope("stream");
    scope.counter("epoch_len", select.epoch as u64);
    scope.counter("epochs", deadness.epochs());
    scope.counter("escaped", deadness.escaped());
    scope.counter("mem_peak_bytes", peak_bytes);
    drop(scope);
    set
}

fn render_stats_json(
    select: &RunSelection,
    counters: &CounterSet,
    violations: &[String],
) -> String {
    let mut doc = vec![
        ("schema", Value::from(STATS_SCHEMA)),
        ("benchmark", select.benchmark.as_str().into()),
        ("opt", Value::Str(select.opt.to_string())),
        ("scale", select.scale.into()),
        ("machine", select.machine().into()),
    ];
    if select.stream {
        // Only streamed documents carry the key, so the golden-pinned
        // materializing documents stay byte-identical.
        doc.push(("mode", "streamed".into()));
    }
    doc.push(("elimination", select.elimination().into()));
    doc.push(("counters", counters_json(counters)));
    doc.push(("violations", Value::Array(violations.iter().map(|v| v.as_str().into()).collect())));
    Value::object(doc).to_pretty() + "\n"
}

/// Options for [`run_events`] (the `dide events` CLI).
#[derive(Debug, Clone)]
pub struct EventsOptions {
    /// The run to trace.
    pub select: RunSelection,
    /// How many of the most recent events to show.
    pub last: usize,
    /// Occupancy sampling period in cycles.
    pub sample_every: u64,
}

impl Default for EventsOptions {
    fn default() -> EventsOptions {
        EventsOptions {
            select: RunSelection::default(),
            last: 32,
            sample_every: EventsConfig::default().sample_every,
        }
    }
}

/// The result of one [`run_events`] call.
#[derive(Debug, Clone)]
pub struct EventsRun {
    /// The events shown (the tail of the ring, oldest first).
    pub events: Vec<CycleEvent>,
    /// Events recorded over the whole run (including overwritten ones).
    pub recorded: u64,
    /// Events lost to ring overwrites.
    pub dropped: u64,
    /// Human-readable table (stdout).
    pub report: String,
}

/// Runs one benchmark with a cycle-event trace attached and renders the
/// most recent events as a table.
///
/// # Errors
///
/// Returns a one-line message for an unknown benchmark name.
///
/// # Panics
///
/// Panics if the benchmark program traps (a workload-generator bug), or if
/// `sample_every` is zero (the CLI rejects that before calling in).
pub fn run_events(options: &EventsOptions) -> Result<EventsRun, String> {
    let mut trace = EventTrace::new(EventsConfig {
        sample_every: options.sample_every,
        ..EventsConfig::default()
    });
    if options.select.stream {
        let _ = options.select.run_streamed(Some(&mut trace))?;
    } else {
        let case = options.select.case()?;
        let _ = Core::new(options.select.config()).run_observed(
            &case.trace,
            &case.analysis,
            Some(&mut trace),
        );
    }
    let events = trace.last(options.last);

    let mut report = format!(
        "== events: {}@{}/s{} on {} (elimination {}, sampled every {} cycles) ==\n",
        options.select.benchmark,
        options.select.opt,
        options.select.scale,
        options.select.machine(),
        options.select.elimination(),
        options.sample_every
    );
    let mut t = Table::new(["cycle", "event", "detail"]);
    for e in &events {
        t.row([e.cycle.to_string(), e.kind.label().to_string(), event_detail(e.kind)]);
    }
    report.push_str(&t.to_string());
    let _ = writeln!(
        report,
        "showing {} of {} recorded event(s) ({} overwritten)",
        events.len(),
        trace.recorded(),
        trace.dropped()
    );
    Ok(EventsRun { events, recorded: trace.recorded(), dropped: trace.dropped(), report })
}

fn event_detail(kind: EventKind) -> String {
    match kind {
        EventKind::Sample { rob, iq, lq, sq, free_regs } => {
            format!("rob={rob} iq={iq} lq={lq} sq={sq} free_regs={free_regs}")
        }
        EventKind::Verdict { seq, predicted_dead } => {
            format!("seq={seq} predicted_dead={predicted_dead}")
        }
        EventKind::Eliminated { seq } | EventKind::Violation { seq } => format!("seq={seq}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr_elim() -> RunSelection {
        RunSelection { eliminate: true, ..RunSelection::default() }
    }

    #[test]
    fn stats_json_is_deterministic_and_schema_tagged() {
        let options = StatsOptions { select: expr_elim(), format: None };
        let a = run_stats(&options).expect("expr exists");
        let b = run_stats(&options).expect("expr exists");
        assert_eq!(a.output, b.output, "stats output must be byte-deterministic");
        assert!(a.output.contains("\"schema\": \"dide-stats/v1\""));
        assert!(a.output.contains("\"elimination\": \"cfi\""));
        assert!(a.output.contains("\"emu.total\""));
        assert!(a.output.contains("\"analysis.dead_total\""));
        assert!(a.output.contains("\"pipeline.mem.l1d.hits\""));
        assert!(a.output.contains("\"violations\": []"), "clean run: {:?}", a.violations);
        assert_eq!(a.output.matches('{').count(), a.output.matches('}').count());
        assert_eq!(a.output.matches('[').count(), a.output.matches(']').count());
    }

    #[test]
    fn stats_csv_has_schema_comment_and_rows() {
        let options = StatsOptions { select: expr_elim(), format: Some(StatsFormat::Csv) };
        let run = run_stats(&options).expect("expr exists");
        assert!(run.output.starts_with("# dide-stats/v1\ncounter,value\n"));
        assert!(run.output.contains("pipeline.committed,"));
    }

    #[test]
    fn stats_registry_agrees_with_pipeline_counters() {
        let run = run_stats(&StatsOptions::default()).expect("expr exists");
        // The full-stack registry embeds the emulator's totals: the
        // pipeline commits exactly the committed-path trace.
        assert_eq!(
            run.counters.expect("pipeline.committed"),
            run.counters.expect("emu.total"),
            "trace-driven core commits the whole trace"
        );
    }

    #[test]
    fn streamed_stats_match_the_materialized_pipeline() {
        let select = RunSelection { stream: true, ..RunSelection::default() };
        let run = run_stats(&StatsOptions { select, format: None }).expect("expr exists");
        assert!(run.output.contains("\"mode\": \"streamed\""));
        assert!(run.output.contains("\"stream.epoch_len\""));
        assert!(run.output.contains("\"stream.mem_peak_bytes\""));
        assert!(!run.output.contains("\"emu."), "streamed docs carry no emu scope");
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        // Elimination off: the verdicts are never consulted, so the
        // streamed cycle loop is bit-identical to the materializing one.
        let base = run_stats(&StatsOptions::default()).expect("expr exists");
        for name in ["pipeline.committed", "pipeline.cycles", "pipeline.mem.l1d.hits"] {
            assert_eq!(run.counters.expect(name), base.counters.expect(name), "{name}");
        }
        assert_eq!(run.counters.expect("pipeline.committed"), base.counters.expect("emu.total"));
    }

    #[test]
    fn streamed_events_are_recorded() {
        let select = RunSelection { stream: true, ..expr_elim() };
        let run =
            run_events(&EventsOptions { select, last: 5, sample_every: 16 }).expect("expr exists");
        assert!(run.recorded > 0);
        assert!(run.events.len() <= 5);
    }

    #[test]
    fn unknown_benchmark_is_a_one_line_error() {
        let select = RunSelection { benchmark: "nope".into(), ..RunSelection::default() };
        let err = run_stats(&StatsOptions { select, format: None }).unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
        assert!(!err.contains('\n'));
    }

    #[test]
    fn events_tail_is_bounded_and_described() {
        let options = EventsOptions { select: expr_elim(), last: 5, sample_every: 16 };
        let run = run_events(&options).expect("expr exists");
        assert!(run.events.len() <= 5);
        assert!(run.recorded > 0);
        assert!(run.report.contains("cycle"));
        assert!(run.report.contains("sampled every 16 cycles"));
        let labels: Vec<&str> = run.report.lines().collect();
        assert!(labels.iter().any(|l| l.contains("recorded event(s)")));
    }
}
