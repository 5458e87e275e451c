//! The `dide bench` runner: a tracked performance harness over the
//! benchmark suite.
//!
//! Runs the four pipeline phases (build → trace → analyze → simulate) for
//! every benchmark at the requested scales, bypassing the fixture cache so
//! each phase is actually re-executed and timed, and renders the result as
//! a machine-readable `BENCH.json` through [`dide_obs::json`], with a fixed
//! key order so diffs are stable. CI runs `dide bench --quick
//! --check-against BENCH.json` as a smoke stage: the run's document is
//! compared against the committed baseline block by block (the `GATES`
//! table), and the gate fails closed on a baseline that is unreadable, of
//! another schema, or lacks an entry the run measured. Comparing two
//! `BENCH.json` files from different commits is how analyze/trace-phase
//! regressions are caught (see `TESTING.md`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dide_analysis::DeadnessAnalysis;
use dide_emu::{DynInst, TraceStream};
use dide_obs::json::{self, Value};
use dide_obs::{EventTrace, EventsConfig};
use dide_pipeline::{ClusterConfig, Core, PipelineConfig, SteerPolicy};
use dide_workloads::{suite, OptLevel, WorkloadSpec};

use crate::campaign::{measure_campaign_throughput, CampaignThroughput};
use crate::harness::{self, Phase};
use crate::statsrun::DEFAULT_EPOCH_LEN;
use crate::{BenchCase, Table};

/// Schema identifier written into `BENCH.json`; bump on layout changes.
/// v2 added the `stream` block (bounded-memory streamed runs with their
/// `mem_peak_bytes` accounting); v3 added the `campaign` block (batch
/// engine throughput, dedup rate and fixture-cache accounting); v4 added
/// the `cluster` block (clustered-backend reference point: host overhead
/// of the clustered scheduling loop plus exact-gated cycle counts,
/// DESIGN.md §11).
pub const BENCH_SCHEMA: &str = "dide-bench/v4";

/// Benchmarks used by `--quick` (CI smoke): small but covering the three
/// workload families (expression-heavy, store-heavy, pointer-chasing) plus
/// one externally assembled `.asm` workload.
const QUICK_SUITE: [&str; 4] = ["expr", "objstore", "route", "prime"];

/// `(benchmark, scale)` streamed-mode enrollments for the full run. The
/// scale-16 entries produce multi-million-record traces the materializing
/// path would hold fully resident (tens of MB); matmul at scale 64 runs a
/// long `.asm` kernel (256 rounds) through the same path.
const STREAM_SUITE: [(&str, u32); 4] = [("expr", 4), ("expr", 16), ("route", 16), ("matmul", 64)];

/// Streamed enrollments for `--quick`: one small entry so CI still compares
/// `mem_peak_bytes` against the committed baseline on every push.
const QUICK_STREAM_SUITE: [(&str, u32); 1] = [("expr", 4)];

/// Options accepted by [`run_bench`] (the `dide bench` CLI).
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Workload scales to measure. The full run uses `[1, 4]`.
    pub scales: Vec<u32>,
    /// Smoke mode: only the [`QUICK_SUITE`] benchmarks at scale 1.
    pub quick: bool,
    /// Where to write the JSON report.
    pub out: PathBuf,
    /// A committed `BENCH.json` to compare the run against
    /// (`--check-against`); see [`check_against`].
    pub check_against: Option<PathBuf>,
    /// `--stream`: skip the materializing four-phase sweep and measure only
    /// the streamed enrollments.
    pub stream_only: bool,
    /// Epoch length for the streamed enrollments (`--epoch`).
    pub epoch: usize,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            scales: vec![1, 4],
            quick: false,
            out: PathBuf::from("BENCH.json"),
            check_against: None,
            stream_only: false,
            epoch: DEFAULT_EPOCH_LEN,
        }
    }
}

/// Growth over its baseline past which a timed field fails the gate, when
/// it also exceeds its [`Gate`]'s `floor`. Deliberately generous: CI
/// shares one CPU with other jobs and single-shot phase timings jitter by
/// tens of percent, so the gate only catches order-of-magnitude
/// regressions (e.g. an accidentally quadratic pipeline structure), not
/// tuning drift.
const REGRESSION_FACTOR: f64 = 2.0;

/// Floor of the wall-clock fields, in nanoseconds: it keeps
/// sub-millisecond baselines from tripping on scheduler noise alone, and
/// sits below a single quick-run simulate phase (~8ms), so a genuine 2x
/// regression there still clears it.
const WALL_FLOOR_NS: u64 = 5_000_000;

/// One block of `BENCH.json` the regression gate compares. Every entry the
/// run measured needs a baseline entry with equal `keys`; its `exact`
/// fields are pure functions of the workload and must match exactly, and
/// its `timed` field (a dotted path) fails when it grows by more than
/// [`REGRESSION_FACTOR`] *and* by more than `floor`.
struct Gate {
    block: &'static str,
    keys: &'static [&'static str],
    exact: &'static [&'static str],
    timed: &'static str,
    floor: u64,
}

/// The regression gate of `--check-against`, block by block.
const GATES: [Gate; 4] = [
    Gate {
        block: "benchmarks",
        keys: &["name", "scale"],
        exact: &[],
        timed: "phases_ns.simulate",
        floor: WALL_FLOOR_NS,
    },
    Gate {
        block: "stream",
        keys: &["name", "scale"],
        exact: &[],
        timed: "mem_peak_bytes.streamed",
        // Streamed peak memory is deterministic (resident chunks x epoch
        // bytes), so any growth is structural: no noise floor applies, and
        // the factor only absorbs intentional epoch retuning.
        floor: 0,
    },
    Gate {
        block: "campaign",
        keys: &["grid"],
        exact: &["jobs_total", "jobs_unique", "jobs_deduped", "peak_resident_fixtures"],
        timed: "jobsn_ns",
        floor: WALL_FLOOR_NS,
    },
    Gate {
        block: "cluster",
        keys: &["workload"],
        exact: &["unified_cycles", "rr_cycles", "dead_cycles", "steered_dead"],
        timed: "dead_ns",
        floor: WALL_FLOOR_NS,
    },
];

/// One streamed-mode measurement: windowed analysis + streaming pipeline,
/// with the peak retained trace memory both paths would need.
#[derive(Debug, Clone)]
pub struct StreamMeasurement {
    /// Benchmark name.
    pub name: String,
    /// Workload scale.
    pub scale: u32,
    /// Epoch length (records per chunk).
    pub epoch_len: usize,
    /// Dynamic trace length.
    pub trace_len: u64,
    /// Windowed-analysis wall-clock (one emulation pass).
    pub analyze: Duration,
    /// Streaming-pipeline wall-clock (emulation + cycle loop).
    pub simulate: Duration,
    /// Peak trace bytes resident in the stream during the pipeline pass.
    pub mem_peak_bytes: u64,
    /// Bytes the materializing path would hold for the same trace
    /// (`trace_len * size_of::<DynInst>()`).
    pub materialized_bytes: u64,
}

impl StreamMeasurement {
    /// Materialized-over-streamed memory ratio (the headline saving).
    #[must_use]
    pub fn mem_ratio(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.mem_peak_bytes == 0 {
            1.0
        } else {
            self.materialized_bytes as f64 / self.mem_peak_bytes as f64
        }
    }
}

/// Wall-clock of the four phases for one benchmark at one scale.
#[derive(Debug, Clone)]
pub struct BenchMeasurement {
    /// Benchmark name.
    pub name: String,
    /// Optimization level measured (the suite default, O2).
    pub opt: OptLevel,
    /// Workload scale.
    pub scale: u32,
    /// Dynamic trace length, for ns-per-instruction normalization.
    pub trace_len: u64,
    /// Wall-clock per phase, in [`Phase::ALL`] order.
    pub phases: [Duration; 4],
}

impl BenchMeasurement {
    /// Sum of the four phases.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.phases.iter().sum()
    }
}

/// The result of one [`run_bench`] call.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Every measurement, in (scale, suite) order.
    pub measurements: Vec<BenchMeasurement>,
    /// Streamed-mode measurements, in [`STREAM_SUITE`] order.
    pub streams: Vec<StreamMeasurement>,
    /// Batch-engine throughput over [`crate::campaign::bench_grid`].
    pub campaign: CampaignThroughput,
    /// Event-trace overhead on the fixed reference workload.
    pub events_overhead: EventsOverhead,
    /// Clustered-backend overhead on the fixed reference workload.
    pub cluster: ClusterOverhead,
    /// The `BENCH.json` document.
    pub json: String,
    /// Human-readable summary table (stderr).
    pub report: String,
    /// Baseline comparison, when `--check-against` was given.
    pub regression: Option<RegressionCheck>,
}

/// Outcome of comparing a run against a baseline `BENCH.json` (see
/// [`check_against`]).
#[derive(Debug, Clone)]
pub struct RegressionCheck {
    /// One verdict line per compared field, for the report.
    pub lines: Vec<String>,
    /// Whether every compared field passed.
    pub ok: bool,
}

/// Wall-clock of one fixed simulation with cycle-event tracing off versus
/// sampled, recorded into `BENCH.json` so a regression in the
/// tracing-disabled hot path shows up in CI history.
#[derive(Debug, Clone)]
pub struct EventsOverhead {
    /// Workload measured (the fixed reference point `expr@O2/s1`).
    pub workload: String,
    /// Simulation wall-clock with no event trace attached.
    pub off: Duration,
    /// Simulation wall-clock with a sampled event trace attached.
    pub sampled: Duration,
    /// Whether both runs produced bit-identical pipeline statistics.
    /// Anything but `true` is a tracing-hook bug.
    pub identical: bool,
}

impl EventsOverhead {
    /// Sampled-over-off wall-clock ratio (1.0 when `off` was too fast to
    /// time).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.off.is_zero() {
            1.0
        } else {
            self.sampled.as_secs_f64() / self.off.as_secs_f64()
        }
    }
}

/// The clustered-backend reference point: the fixed `expr@O2/s1` workload
/// simulated on the unified contended machine versus the clustered backend
/// (DESIGN.md §11) under round-robin and dead-instruction steering.
///
/// The wall-clock fields track the host-side cost of the clustered
/// scheduling loop (visibility bitsets, remote-wakeup events, per-cluster
/// issue merge) so a regression there shows up in CI history. The cycle
/// counts and steered-dead tally are pure functions of the workload and
/// are exact-compared by [`check_against`] — any drift is a determinism
/// bug, not noise.
#[derive(Debug, Clone)]
pub struct ClusterOverhead {
    /// Workload measured (the fixed reference point `expr@O2/s1`).
    pub workload: String,
    /// Cluster count of the clustered runs ([`ClusterConfig::default`]).
    pub clusters: usize,
    /// Inter-cluster bypass penalty of the clustered runs.
    pub bypass_penalty: u32,
    /// Unified-backend simulation wall-clock.
    pub unified: Duration,
    /// Clustered round-robin simulation wall-clock.
    pub rr: Duration,
    /// Clustered dead-steer simulation wall-clock.
    pub dead: Duration,
    /// Simulated cycles on the unified backend.
    pub unified_cycles: u64,
    /// Simulated cycles clustered with round-robin steering.
    pub rr_cycles: u64,
    /// Simulated cycles clustered with dead-instruction steering.
    pub dead_cycles: u64,
    /// Instructions the dead-steer run routed to the cheap cluster.
    pub steered_dead: u64,
}

impl ClusterOverhead {
    /// Dead-steer-over-unified host wall-clock ratio (1.0 when `unified`
    /// was too fast to time): what clustered scheduling costs the *host*,
    /// not the simulated machine.
    #[must_use]
    pub fn host_overhead(&self) -> f64 {
        if self.unified.is_zero() {
            1.0
        } else {
            self.dead.as_secs_f64() / self.unified.as_secs_f64()
        }
    }
}

/// Runs the benchmark harness and writes `BENCH.json`. With
/// `check_against`, the baseline is read and checked before anything is
/// measured.
///
/// # Errors
///
/// Returns a one-line message if the baseline cannot be read, parsed or is
/// of another schema (naming `path:line:col` for a parse error), or if the
/// output file cannot be written.
///
/// # Panics
///
/// Panics if a benchmark program traps (a workload-generator bug).
pub fn run_bench(options: &BenchOptions) -> Result<BenchRun, String> {
    let baseline = match &options.check_against {
        Some(path) => Some((path, load_baseline(path)?)),
        None => None,
    };
    let specs: Vec<WorkloadSpec> = if options.quick {
        QUICK_SUITE
            .iter()
            .map(|&n| dide_workloads::find_workload(n).expect("quick benchmark exists"))
            .collect()
    } else {
        // The full sweep covers the synthetic suite plus the shipped
        // `.asm` workloads (which ignore `scale`, so their repeated
        // measurements double as timing-stability probes).
        suite().into_iter().chain(dide_workloads::asm_suite()).collect()
    };
    let scales: &[u32] = if options.quick { &[1] } else { &options.scales };

    let mut measurements = Vec::new();
    if !options.stream_only {
        for &scale in scales {
            for &spec in &specs {
                eprintln!("bench: {}@{}/s{scale}...", spec.name, OptLevel::O2);
                measurements.push(measure(spec, OptLevel::O2, scale));
            }
        }
    }

    let stream_suite: &[(&str, u32)] =
        if options.quick { &QUICK_STREAM_SUITE } else { &STREAM_SUITE };
    let mut streams = Vec::new();
    for &(name, scale) in stream_suite {
        eprintln!("bench: {name}@{}/s{scale} (streamed)...", OptLevel::O2);
        let spec = dide_workloads::find_workload(name).expect("stream benchmark exists");
        streams.push(measure_stream(spec, scale, options.epoch));
    }

    eprintln!("bench: campaign throughput grid...");
    let campaign = measure_campaign_throughput(4)?;

    eprintln!("bench: events-overhead reference point...");
    let events_overhead = measure_events_overhead();

    eprintln!("bench: clustered-backend reference point...");
    let cluster = measure_cluster_overhead();

    let doc =
        bench_document(scales, &measurements, &streams, &campaign, &events_overhead, &cluster);
    let json = render_json(&doc);
    std::fs::write(&options.out, &json)
        .map_err(|e| format!("cannot write {}: {e}", options.out.display()))?;
    let mut report =
        render_report(&measurements, &streams, &campaign, &events_overhead, &cluster, &options.out);
    let regression = baseline.map(|(path, baseline)| {
        let check = check_against(&baseline, &doc).unwrap_or_else(|e| RegressionCheck {
            lines: vec![format!("{}: {e}", path.display())],
            ok: false,
        });
        report.push_str(&format!("\n== regression check against {} ==\n", path.display()));
        for line in &check.lines {
            report.push_str(line);
            report.push('\n');
        }
        report.push_str(if check.ok {
            "regression check passed\n"
        } else {
            "REGRESSION CHECK FAILED\n"
        });
        check
    });
    Ok(BenchRun {
        measurements,
        streams,
        campaign,
        events_overhead,
        cluster,
        json,
        report,
        regression,
    })
}

/// Reads a baseline `BENCH.json` and checks that it is a
/// [`BENCH_SCHEMA`] document.
///
/// # Errors
///
/// A one-line message naming `path` — with `line:col` for a parse error —
/// when the file cannot be read, is not JSON, or has another schema.
fn load_baseline(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}:{e}", path.display()))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(BENCH_SCHEMA) => Ok(doc),
        schema => Err(format!(
            "{}: schema is {}, expected {BENCH_SCHEMA}",
            path.display(),
            schema.unwrap_or("missing")
        )),
    }
}

/// Compares the document a run rendered against a baseline through the
/// `GATES` table: one verdict line per compared field, `ok`, `REGRESSION`
/// or `DETERMINISM REGRESSION`. Baseline entries the run did not measure
/// are ignored.
///
/// # Errors
///
/// Fails closed with a one-line message when the baseline lacks an entry
/// the run measured (a baseline from another campaign grid or cluster
/// workload lacks it too), or either side lacks an integer field the gate
/// compares.
pub fn check_against(baseline: &Value, current: &Value) -> Result<RegressionCheck, String> {
    let mut check = RegressionCheck { lines: Vec::new(), ok: true };
    for gate in &GATES {
        for entry in entries(current, gate.block) {
            let mut label = gate.block.to_string();
            for key in gate.keys {
                let value = entry.get(key).map_or_else(String::new, |v| {
                    v.as_str().map_or_else(|| v.to_compact(), str::to_string)
                });
                label.push_str(&format!(" {key}={value}"));
            }
            let base = entries(baseline, gate.block)
                .find(|b| gate.keys.iter().all(|k| b.get(k) == entry.get(k)))
                .ok_or_else(|| format!("baseline lacks {label}"))?;
            let int = |doc: &Value, path: &str| {
                path.split('.').try_fold(doc, |v, k| v.get(k)).and_then(Value::as_u64)
            };
            let pair = |path: &str| match (int(entry, path), int(base, path)) {
                (Some(got), Some(want)) => Ok((got, want)),
                _ => Err(format!("{label} has no integer `{path}` to compare")),
            };
            for path in gate.exact {
                let (got, want) = pair(path)?;
                check.ok &= got == want;
                check.lines.push(if got == want {
                    format!("{label} {path}: {got} — ok")
                } else {
                    format!("{label} {path}: {got} vs baseline {want} — DETERMINISM REGRESSION")
                });
            }
            let (got, want) = pair(gate.timed)?;
            #[allow(clippy::cast_precision_loss)]
            let ratio = if want == 0 { 1.0 } else { got as f64 / want as f64 };
            let regressed = ratio > REGRESSION_FACTOR && got.saturating_sub(want) > gate.floor;
            check.ok &= !regressed;
            check.lines.push(format!(
                "{label} {}: {got} vs baseline {want} ({ratio:.2}x) — {}",
                gate.timed,
                if regressed { "REGRESSION" } else { "ok" }
            ));
        }
    }
    Ok(check)
}

/// The entries of a `BENCH.json` block: an array's elements, or an object
/// block as its only entry.
fn entries<'a>(doc: &'a Value, block: &str) -> std::slice::Iter<'a, Value> {
    match doc.get(block) {
        Some(Value::Array(items)) => items.iter(),
        Some(object @ Value::Object(_)) => std::slice::from_ref(object).iter(),
        _ => [].iter(),
    }
}

/// Times the same contended-machine simulation with event tracing off and
/// with the default sampling config, on the fixed `expr@O2/s1` reference
/// workload. The architectural results must be bit-identical — tracing is
/// pure observation — and the wall-clock ratio goes into `BENCH.json`.
#[must_use]
pub fn measure_events_overhead() -> EventsOverhead {
    let spec = *suite().iter().find(|s| s.name == "expr").expect("expr is in the suite");
    let case = crate::BenchCase::cached(spec, OptLevel::O2, 1);
    let config = PipelineConfig::contended();

    let start = Instant::now();
    let off_stats = Core::new(config).run_observed(&case.trace, &case.analysis, None);
    let off = start.elapsed();

    let mut events = EventTrace::new(EventsConfig::default());
    let start = Instant::now();
    let sampled_stats =
        Core::new(config).run_observed(&case.trace, &case.analysis, Some(&mut events));
    let sampled = start.elapsed();

    EventsOverhead {
        workload: format!("{}@{}/s1", spec.name, OptLevel::O2),
        off,
        sampled,
        identical: off_stats == sampled_stats,
    }
}

/// Times the fixed `expr@O2/s1` reference workload on the unified
/// contended machine and on the default clustered backend (2 clusters,
/// bypass 2) under round-robin and dead-instruction steering, recording
/// both the host wall-clock and the deterministic simulated cycle counts.
#[must_use]
pub fn measure_cluster_overhead() -> ClusterOverhead {
    let spec = *suite().iter().find(|s| s.name == "expr").expect("expr is in the suite");
    let case = crate::BenchCase::cached(spec, OptLevel::O2, 1);
    let machine = PipelineConfig::contended();
    let cluster = ClusterConfig::default();

    let start = Instant::now();
    let unified = Core::new(machine).run(&case.trace, &case.analysis);
    let unified_wall = start.elapsed();

    let start = Instant::now();
    let rr = Core::new(machine.with_cluster(cluster)).run(&case.trace, &case.analysis);
    let rr_wall = start.elapsed();

    let dead_config = ClusterConfig { steer: SteerPolicy::DeadSteer, ..cluster };
    let start = Instant::now();
    let dead = Core::new(machine.with_cluster(dead_config)).run(&case.trace, &case.analysis);
    let dead_wall = start.elapsed();

    ClusterOverhead {
        workload: format!("{}@{}/s1", spec.name, OptLevel::O2),
        clusters: cluster.clusters,
        bypass_penalty: cluster.bypass_penalty,
        unified: unified_wall,
        rr: rr_wall,
        dead: dead_wall,
        unified_cycles: unified.cycles,
        rr_cycles: rr.cycles,
        dead_cycles: dead.cycles,
        steered_dead: dead.steer.dead,
    }
}

/// Measures one streamed enrollment: a windowed analysis pass over the
/// program, then the streaming pipeline over a fresh epoch stream (on the
/// contended machine, matching [`measure`]'s simulate phase). The recorded
/// peak is the larger of the two phases' retained trace memory.
fn measure_stream(spec: WorkloadSpec, scale: u32, epoch_len: usize) -> StreamMeasurement {
    let program = spec.build(OptLevel::O2, scale);
    let start = Instant::now();
    let deadness = DeadnessAnalysis::analyze_streamed(&program, epoch_len)
        .unwrap_or_else(|e| panic!("benchmark {} must run to halt: {e}", spec.name));
    let analyze = start.elapsed();
    let mut stream = TraceStream::new(&program, epoch_len);
    let start = Instant::now();
    let _stats = Core::new(PipelineConfig::contended()).run_streamed(&mut stream, &deadness);
    let simulate = start.elapsed();
    let trace_len = deadness.len() as u64;
    StreamMeasurement {
        name: spec.name.to_string(),
        scale,
        epoch_len,
        trace_len,
        analyze,
        simulate,
        mem_peak_bytes: stream.peak_resident_bytes().max(deadness.mem_peak_bytes()),
        materialized_bytes: trace_len * std::mem::size_of::<DynInst>() as u64,
    }
}

/// Measures one benchmark at one scale: a fresh (uncached) build, trace and
/// analyze, then a contended-machine simulation.
fn measure(spec: WorkloadSpec, opt: OptLevel, scale: u32) -> BenchMeasurement {
    let before = harness::timing_records().len();
    // `build` bypasses the fixture cache and records Build/Trace/Analyze
    // spans in the process-wide registry; the simulation span is recorded
    // here under the same label.
    let case = BenchCase::build(spec, opt, scale);
    let label = format!("{}@{opt}/s{scale}", spec.name);
    let _stats = harness::time(&label, Phase::Simulate, || {
        Core::new(PipelineConfig::contended()).run(&case.trace, &case.analysis)
    });

    let mut phases = [Duration::ZERO; 4];
    for r in &harness::timing_records()[before..] {
        if r.label == label {
            let slot = Phase::ALL.iter().position(|&p| p == r.phase).expect("phase in ALL");
            phases[slot] += r.elapsed;
        }
    }
    BenchMeasurement {
        name: spec.name.to_string(),
        opt,
        scale,
        trace_len: case.trace.len() as u64,
        phases,
    }
}

/// Builds the `BENCH.json` document: fixed key order, benchmarks in
/// measurement order.
#[must_use]
fn bench_document(
    scales: &[u32],
    measurements: &[BenchMeasurement],
    streams: &[StreamMeasurement],
    campaign: &CampaignThroughput,
    events: &EventsOverhead,
    cluster: &ClusterOverhead,
) -> Value {
    let phases_ns = |ns: &dyn Fn(usize) -> u128| {
        Value::object(Phase::ALL.iter().enumerate().map(|(slot, p)| (p.label(), ns(slot).into())))
    };
    let total = |slot: usize, scale: Option<u32>| -> u128 {
        let ms = measurements.iter().filter(|m| scale.is_none_or(|s| m.scale == s));
        ms.map(|m| m.phases[slot].as_nanos()).sum()
    };
    let benchmarks = measurements.iter().map(|m| {
        Value::object([
            ("name", m.name.as_str().into()),
            ("opt", Value::Str(m.opt.to_string())),
            ("scale", m.scale.into()),
            ("trace_len", m.trace_len.into()),
            ("phases_ns", phases_ns(&|slot| m.phases[slot].as_nanos())),
            ("total_ns", m.total().as_nanos().into()),
        ])
    });
    let per_scale =
        scales.iter().map(|&s| (s.to_string(), phases_ns(&|slot| total(slot, Some(s)))));
    let stream = streams.iter().map(|s| {
        Value::object([
            ("name", s.name.as_str().into()),
            ("scale", s.scale.into()),
            ("epoch_len", s.epoch_len.into()),
            ("trace_len", s.trace_len.into()),
            ("analyze_ns", s.analyze.as_nanos().into()),
            ("simulate_ns", s.simulate.as_nanos().into()),
            (
                "mem_peak_bytes",
                Value::object([
                    ("streamed", s.mem_peak_bytes.into()),
                    ("materialized", s.materialized_bytes.into()),
                    ("ratio", Value::fixed(s.mem_ratio(), 1)),
                ]),
            ),
        ])
    });
    Value::object([
        ("schema", BENCH_SCHEMA.into()),
        ("scales", Value::Array(scales.iter().map(|&s| s.into()).collect())),
        ("benchmarks", Value::Array(benchmarks.collect())),
        ("totals_ns", phases_ns(&|slot| total(slot, None))),
        ("per_scale_totals_ns", Value::object(per_scale)),
        // Dedup and fixture fields are deterministic for a fixed grid and
        // exact-gated; the ns fields get the generous wall-clock factor.
        (
            "campaign",
            Value::object([
                ("grid", campaign.grid_fingerprint.as_str().into()),
                ("jobs_total", campaign.jobs_total.into()),
                ("jobs_unique", campaign.jobs_unique.into()),
                ("jobs_deduped", campaign.jobs_deduped.into()),
                ("dedup_rate", Value::fixed(campaign.dedup_rate(), 3)),
                ("peak_resident_fixtures", campaign.peak_resident.into()),
                ("fixture_cap", campaign.fixture_cap.into()),
                ("direct_ns", campaign.direct_ns.into()),
                ("jobs1_ns", campaign.jobs1_ns.into()),
                ("scheduler_overhead", Value::fixed(campaign.scheduler_overhead(), 3)),
                ("jobs", campaign.jobsn.into()),
                ("jobsn_ns", campaign.jobsn_ns.into()),
                ("jobs_per_sec", Value::fixed(campaign.jobs_per_sec(), 1)),
            ]),
        ),
        ("stream", Value::Array(stream.collect())),
        (
            "events_overhead",
            Value::object([
                ("workload", events.workload.as_str().into()),
                ("off_ns", events.off.as_nanos().into()),
                ("sampled_ns", events.sampled.as_nanos().into()),
                ("ratio", Value::fixed(events.ratio(), 3)),
                ("identical", Value::Bool(events.identical)),
            ]),
        ),
        // The cycle counts and steered-dead tally are deterministic and
        // exact-gated; the ns fields get the generous wall-clock factor.
        (
            "cluster",
            Value::object([
                ("workload", cluster.workload.as_str().into()),
                ("clusters", cluster.clusters.into()),
                ("bypass_penalty", cluster.bypass_penalty.into()),
                ("unified_ns", cluster.unified.as_nanos().into()),
                ("rr_ns", cluster.rr.as_nanos().into()),
                ("dead_ns", cluster.dead.as_nanos().into()),
                ("host_overhead", Value::fixed(cluster.host_overhead(), 3)),
                ("unified_cycles", cluster.unified_cycles.into()),
                ("rr_cycles", cluster.rr_cycles.into()),
                ("dead_cycles", cluster.dead_cycles.into()),
                ("steered_dead", cluster.steered_dead.into()),
            ]),
        ),
    ])
}

/// Renders a `BENCH.json` document: pretty JSON, except that `scales`, the
/// `phases_ns` maps and their totals, and `mem_peak_bytes` each sit on one
/// line (per-scale totals are keyed by their scale).
#[must_use]
pub fn render_json(doc: &Value) -> String {
    let one_line = |key: &str| {
        matches!(key, "scales" | "phases_ns" | "totals_ns" | "mem_peak_bytes")
            || key.bytes().all(|b| b.is_ascii_digit())
    };
    doc.to_pretty_with(&one_line) + "\n"
}

/// Renders the human-readable summary.
fn render_report(
    measurements: &[BenchMeasurement],
    streams: &[StreamMeasurement],
    campaign: &CampaignThroughput,
    events: &EventsOverhead,
    cluster: &ClusterOverhead,
    out: &std::path::Path,
) -> String {
    let mut text = String::new();
    if !measurements.is_empty() {
        text.push_str("== bench (wall-clock per phase) ==\n");
        let mut t =
            Table::new(["benchmark", "scale", "build", "trace", "analyze", "simulate", "total"]);
        for m in measurements {
            t.row([
                m.name.clone(),
                m.scale.to_string(),
                harness::fmt_duration(m.phases[0]),
                harness::fmt_duration(m.phases[1]),
                harness::fmt_duration(m.phases[2]),
                harness::fmt_duration(m.phases[3]),
                harness::fmt_duration(m.total()),
            ]);
        }
        text.push_str(&t.to_string());
    }
    if !streams.is_empty() {
        text.push_str("\n== bench (streamed, bounded-memory) ==\n");
        let mut t = Table::new([
            "benchmark",
            "scale",
            "insts",
            "analyze",
            "simulate",
            "mem peak",
            "vs materialized",
        ]);
        for s in streams {
            t.row([
                s.name.clone(),
                s.scale.to_string(),
                s.trace_len.to_string(),
                harness::fmt_duration(s.analyze),
                harness::fmt_duration(s.simulate),
                format!("{} KiB", s.mem_peak_bytes / 1024),
                format!("{:.1}x smaller", s.mem_ratio()),
            ]);
        }
        text.push_str(&t.to_string());
    }
    text.push_str(&format!(
        "\n== campaign throughput (grid {}) ==\n\
         {} grid points -> {} unique ({} deduped, rate {:.3})\n\
         direct {}, jobs=1 {} (overhead {:.3}x), jobs={} {} ({:.1} jobs/sec)\n\
         fixtures: peak {} resident (cap {})\n",
        campaign.grid_fingerprint,
        campaign.jobs_total,
        campaign.jobs_unique,
        campaign.jobs_deduped,
        campaign.dedup_rate(),
        harness::fmt_duration(Duration::from_nanos(
            campaign.direct_ns.min(u128::from(u64::MAX)) as u64
        )),
        harness::fmt_duration(Duration::from_nanos(
            campaign.jobs1_ns.min(u128::from(u64::MAX)) as u64
        )),
        campaign.scheduler_overhead(),
        campaign.jobsn,
        harness::fmt_duration(Duration::from_nanos(
            campaign.jobsn_ns.min(u128::from(u64::MAX)) as u64
        )),
        campaign.jobs_per_sec(),
        campaign.peak_resident,
        campaign.fixture_cap,
    ));
    text.push_str(&format!(
        "\nevents overhead on {}: off {}, sampled {} (ratio {:.3}, {})\n",
        events.workload,
        harness::fmt_duration(events.off),
        harness::fmt_duration(events.sampled),
        events.ratio(),
        if events.identical { "results identical" } else { "RESULTS DIVERGED" },
    ));
    text.push_str(&format!(
        "clustered backend on {} ({} clusters, bypass {}): unified {}, rr {}, dead-steer {} \
         (host overhead {:.3}x); cycles {} -> {} rr -> {} dead-steer, {} steered dead\n",
        cluster.workload,
        cluster.clusters,
        cluster.bypass_penalty,
        harness::fmt_duration(cluster.unified),
        harness::fmt_duration(cluster.rr),
        harness::fmt_duration(cluster.dead),
        cluster.host_overhead(),
        cluster.unified_cycles,
        cluster.rr_cycles,
        cluster.dead_cycles,
        cluster.steered_dead,
    ));
    text.push_str(&format!("wrote {}\n", out.display()));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchMeasurement> {
        vec![
            BenchMeasurement {
                name: "expr".into(),
                opt: OptLevel::O2,
                scale: 1,
                trace_len: 1000,
                phases: [
                    Duration::from_nanos(10),
                    Duration::from_nanos(20),
                    Duration::from_nanos(30),
                    Duration::from_nanos(40),
                ],
            },
            BenchMeasurement {
                name: "route".into(),
                opt: OptLevel::O2,
                scale: 4,
                trace_len: 4000,
                phases: [
                    Duration::from_nanos(1),
                    Duration::from_nanos(2),
                    Duration::from_nanos(3),
                    Duration::from_nanos(4),
                ],
            },
        ]
    }

    fn overhead() -> EventsOverhead {
        EventsOverhead {
            workload: "expr@O2/s1".into(),
            off: Duration::from_nanos(1000),
            sampled: Duration::from_nanos(1100),
            identical: true,
        }
    }

    fn stream_sample() -> Vec<StreamMeasurement> {
        vec![StreamMeasurement {
            name: "expr".into(),
            scale: 16,
            epoch_len: 65_536,
            trace_len: 1_000_000,
            analyze: Duration::from_nanos(50),
            simulate: Duration::from_nanos(60),
            mem_peak_bytes: 5_242_880,
            materialized_bytes: 40_000_000,
        }]
    }

    fn campaign_sample() -> CampaignThroughput {
        CampaignThroughput {
            grid_fingerprint: "00000000deadbeef".into(),
            jobs_total: 12,
            jobs_unique: 9,
            jobs_deduped: 3,
            peak_resident: 3,
            fixture_cap: 256,
            direct_ns: 1_000_000,
            jobs1_ns: 1_020_000,
            jobsn: 4,
            jobsn_ns: 900_000,
        }
    }

    fn cluster_sample() -> ClusterOverhead {
        ClusterOverhead {
            workload: "expr@O2/s1".into(),
            clusters: 2,
            bypass_penalty: 2,
            unified: Duration::from_nanos(1000),
            rr: Duration::from_nanos(1300),
            dead: Duration::from_nanos(1200),
            unified_cycles: 500,
            rr_cycles: 700,
            dead_cycles: 620,
            steered_dead: 40,
        }
    }

    /// The unit-test sample with every block present.
    fn doc() -> Value {
        bench_document(
            &[1, 4],
            &sample(),
            &stream_sample(),
            &campaign_sample(),
            &overhead(),
            &cluster_sample(),
        )
    }

    /// Replaces the value at `path` (object keys and array indices).
    fn set(doc: &mut Value, path: &[&str], value: Value) {
        let slot = path.iter().fold(doc, |v, key| match v {
            Value::Object(members) => {
                &mut members.iter_mut().find(|(k, _)| k == key).expect("member exists").1
            }
            Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
            _ => panic!("`{key}` is not inside a container"),
        });
        *slot = value;
    }

    fn with(path: &[&str], value: Value) -> Value {
        let mut d = doc();
        set(&mut d, path, value);
        d
    }

    /// Today's `BENCH.json` layout, every block present. Pretty JSON,
    /// except that `scales`, `phases_ns`, `totals_ns`, `mem_peak_bytes`
    /// and the per-scale totals sit on one line.
    const PINNED_JSON: &str = r#"{
  "schema": "dide-bench/v4",
  "scales": [1, 4],
  "benchmarks": [
    {
      "name": "expr",
      "opt": "O2",
      "scale": 1,
      "trace_len": 1000,
      "phases_ns": {"build": 10, "trace": 20, "analyze": 30, "simulate": 40},
      "total_ns": 100
    },
    {
      "name": "route",
      "opt": "O2",
      "scale": 4,
      "trace_len": 4000,
      "phases_ns": {"build": 1, "trace": 2, "analyze": 3, "simulate": 4},
      "total_ns": 10
    }
  ],
  "totals_ns": {"build": 11, "trace": 22, "analyze": 33, "simulate": 44},
  "per_scale_totals_ns": {
    "1": {"build": 10, "trace": 20, "analyze": 30, "simulate": 40},
    "4": {"build": 1, "trace": 2, "analyze": 3, "simulate": 4}
  },
  "campaign": {
    "grid": "00000000deadbeef",
    "jobs_total": 12,
    "jobs_unique": 9,
    "jobs_deduped": 3,
    "dedup_rate": 0.250,
    "peak_resident_fixtures": 3,
    "fixture_cap": 256,
    "direct_ns": 1000000,
    "jobs1_ns": 1020000,
    "scheduler_overhead": 1.020,
    "jobs": 4,
    "jobsn_ns": 900000,
    "jobs_per_sec": 10000.0
  },
  "stream": [
    {
      "name": "expr",
      "scale": 16,
      "epoch_len": 65536,
      "trace_len": 1000000,
      "analyze_ns": 50,
      "simulate_ns": 60,
      "mem_peak_bytes": {"streamed": 5242880, "materialized": 40000000, "ratio": 7.6}
    }
  ],
  "events_overhead": {
    "workload": "expr@O2/s1",
    "off_ns": 1000,
    "sampled_ns": 1100,
    "ratio": 1.100,
    "identical": true
  },
  "cluster": {
    "workload": "expr@O2/s1",
    "clusters": 2,
    "bypass_penalty": 2,
    "unified_ns": 1000,
    "rr_ns": 1300,
    "dead_ns": 1200,
    "host_overhead": 1.200,
    "unified_cycles": 500,
    "rr_cycles": 700,
    "dead_cycles": 620,
    "steered_dead": 40
  }
}
"#;

    #[test]
    fn json_layout_is_pinned_byte_for_byte() {
        assert_eq!(render_json(&doc()), PINNED_JSON);
    }

    #[test]
    fn committed_bench_json_rerenders_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
        let committed = std::fs::read_to_string(path).expect("BENCH.json is committed");
        let parsed = json::parse(&committed).expect("BENCH.json parses");
        assert_eq!(render_json(&parsed), committed);
        let check = check_against(&parsed, &parsed).expect("a baseline matches itself");
        assert!(check.ok, "{:?}", check.lines);
    }

    #[test]
    fn json_has_schema_and_per_phase_totals() {
        let json = render_json(&doc());
        assert!(json.contains("\"schema\": \"dide-bench/v4\""));
        assert!(json.contains("\"scales\": [1, 4]"));
        assert!(json.contains("\"name\": \"expr\""));
        assert!(json.contains(
            "\"phases_ns\": {\"build\": 10, \"trace\": 20, \"analyze\": 30, \"simulate\": 40}"
        ));
        assert!(json.contains("\"total_ns\": 100"));
        assert!(json.contains(
            "\"totals_ns\": {\"build\": 11, \"trace\": 22, \"analyze\": 33, \"simulate\": 44}"
        ));
        assert!(json.contains("\"1\": {\"build\": 10"));
        assert!(json.contains("\"4\": {\"build\": 1"));
        let d = bench_document(&[1], &[], &[], &campaign_sample(), &overhead(), &cluster_sample());
        let json = render_json(&d);
        assert!(json.contains("\"benchmarks\": [],"), "no measurements renders an empty block");
        assert!(json.contains("\"stream\": [],"), "no streams renders an empty block");
    }

    #[test]
    fn json_records_campaign_block_and_roundtrips() {
        let json = render_json(&doc());
        assert!(json.contains("\"campaign\": {"));
        assert!(json.contains("\"grid\": \"00000000deadbeef\""));
        assert!(json.contains("\"dedup_rate\": 0.250"));
        assert!(json.contains("\"scheduler_overhead\": 1.020"));
        assert!(json.contains("\"jobs_per_sec\": 10000.0"));
        let parsed = json::parse(&json).expect("BENCH.json parses");
        assert_eq!(parsed, doc());
        let campaign = parsed.get("campaign").expect("campaign block");
        assert_eq!(campaign.get("jobs_deduped").and_then(Value::as_u64), Some(3));
        assert_eq!(campaign.get("jobsn_ns").and_then(Value::as_u64), Some(900_000));
    }

    #[test]
    fn campaign_regression_check_gates_determinism_and_timing() {
        let base = doc();
        let check = check_against(&base, &doc()).unwrap();
        assert!(check.ok, "{:?}", check.lines);
        assert!(check
            .lines
            .contains(&"campaign grid=00000000deadbeef jobs_deduped: 3 — ok".into()));

        // A baseline without the block, or measured on another grid, fails
        // closed.
        let missing = with(&["campaign"], Value::Null);
        let err = check_against(&missing, &doc()).unwrap_err();
        assert_eq!(err, "baseline lacks campaign grid=00000000deadbeef", "missing block fails");
        let other = with(&["campaign", "grid"], "ffff".into());
        assert!(check_against(&other, &doc()).is_err(), "a different grid fails");

        // Same grid, different dedup count: a determinism regression.
        let drifted = with(&["campaign", "jobs_deduped"], 2u64.into());
        let check = check_against(&drifted, &doc()).unwrap();
        assert!(!check.ok);
        assert!(check.lines.contains(
            &"campaign grid=00000000deadbeef jobs_deduped: 3 vs baseline 2 — DETERMINISM REGRESSION"
                .into()
        ));

        // A big slowdown over the floor fails; a tiny one passes.
        let fast = with(&["campaign", "jobsn_ns"], 1000u64.into());
        let slow_run = with(&["campaign", "jobsn_ns"], 400_000_000u64.into());
        assert!(!check_against(&fast, &slow_run).unwrap().ok);
        assert!(check_against(&fast, &doc()).unwrap().ok, "under the 5ms floor");
    }

    #[test]
    fn json_records_cluster_block_and_roundtrips() {
        let json = render_json(&doc());
        assert!(json.contains("\"cluster\": {"));
        assert!(json.contains("\"clusters\": 2"));
        assert!(json.contains("\"bypass_penalty\": 2"));
        assert!(json.contains("\"host_overhead\": 1.200"));
        assert!(json.contains("\"steered_dead\": 40"));
        let parsed = json::parse(&json).expect("BENCH.json parses");
        let cluster = parsed.get("cluster").expect("cluster block");
        assert_eq!(cluster.get("workload").and_then(Value::as_str), Some("expr@O2/s1"));
        assert_eq!(cluster.get("dead_cycles").and_then(Value::as_u64), Some(620));
        assert_eq!(cluster.get("dead_ns").and_then(Value::as_u64), Some(1200));
    }

    #[test]
    fn cluster_regression_check_gates_determinism_and_timing() {
        let base = doc();
        assert!(check_against(&base, &doc()).unwrap().ok);

        // A baseline without the block, or on another reference workload,
        // fails closed.
        let missing = with(&["cluster"], Value::Null);
        assert!(check_against(&missing, &doc()).is_err(), "missing block fails");
        let other = with(&["cluster", "workload"], "route@O2/s1".into());
        let err = check_against(&other, &doc()).unwrap_err();
        assert_eq!(err, "baseline lacks cluster workload=expr@O2/s1", "a different workload fails");

        // Same workload, different cycle count: a determinism regression.
        let drifted = with(&["cluster", "dead_cycles"], 621u64.into());
        assert!(!check_against(&drifted, &doc()).unwrap().ok);
        let steered = with(&["cluster", "steered_dead"], 39u64.into());
        assert!(!check_against(&steered, &doc()).unwrap().ok);

        // A big slowdown over the floor fails; a tiny one passes.
        let fast = with(&["cluster", "dead_ns"], 1000u64.into());
        let slow_run = with(&["cluster", "dead_ns"], 400_000_000u64.into());
        assert!(!check_against(&fast, &slow_run).unwrap().ok);
        assert!(check_against(&fast, &doc()).unwrap().ok, "under the 5ms floor");
    }

    #[test]
    fn clustered_reference_point_is_deterministic_and_steers() {
        // The regression test behind the exact-compared cycle fields: two
        // measurements of the fixed reference point must agree on every
        // simulated count (wall-clock is environment noise and is not
        // compared).
        let a = measure_cluster_overhead();
        let b = measure_cluster_overhead();
        assert_eq!(a.unified_cycles, b.unified_cycles);
        assert_eq!(a.rr_cycles, b.rr_cycles);
        assert_eq!(a.dead_cycles, b.dead_cycles);
        assert_eq!(a.steered_dead, b.steered_dead);
        assert!(a.rr_cycles >= a.unified_cycles, "clustering is not free on expr");
        assert!(a.steered_dead > 0, "dead work must be steered on expr");
        assert!(!a.unified.is_zero() && !a.dead.is_zero());
    }

    #[test]
    fn json_records_stream_block() {
        let json = render_json(&doc());
        assert!(json.contains("\"stream\": [\n"));
        assert!(json.contains("\"epoch_len\": 65536"));
        assert!(json.contains("\"analyze_ns\": 50"));
        assert!(json.contains("\"simulate_ns\": 60"));
        assert!(json.contains(
            "\"mem_peak_bytes\": {\"streamed\": 5242880, \"materialized\": 40000000, \
             \"ratio\": 7.6}"
        ));
    }

    #[test]
    fn json_records_events_overhead() {
        let json = render_json(&doc());
        assert!(json.contains("\"events_overhead\": {"));
        assert!(json.contains("\"workload\": \"expr@O2/s1\""));
        assert!(json.contains("\"off_ns\": 1000"));
        assert!(json.contains("\"sampled_ns\": 1100"));
        assert!(json.contains("\"ratio\": 1.100"));
        assert!(json.contains("\"identical\": true"));
    }

    #[test]
    fn event_tracing_never_changes_architectural_results() {
        // The regression test behind the `identical` flag: the sampled run
        // must be a pure observer. (The timing itself is environment noise,
        // so only the architectural equality is asserted.)
        let ev = measure_events_overhead();
        assert!(ev.identical, "event tracing perturbed the pipeline on {}", ev.workload);
        assert!(!ev.off.is_zero() && !ev.sampled.is_zero());
    }

    #[test]
    fn baseline_roundtrips_through_the_renderer() {
        // The parser must read exactly what render_json writes, and the
        // gate must match every block's entries by their keys — not
        // confuse the `totals_ns` simulate key with a benchmark's, nor a
        // `stream` entry with a benchmark of the same name.
        let parsed = json::parse(&render_json(&doc())).expect("BENCH.json parses");
        assert_eq!(parsed, doc());
        let check = check_against(&parsed, &doc()).unwrap();
        assert!(check.ok, "{:?}", check.lines);
        assert_eq!(
            check.lines,
            [
                "benchmarks name=expr scale=1 phases_ns.simulate: 40 vs baseline 40 (1.00x) — ok",
                "benchmarks name=route scale=4 phases_ns.simulate: 4 vs baseline 4 (1.00x) — ok",
                "stream name=expr scale=16 mem_peak_bytes.streamed: 5242880 vs baseline 5242880 \
                 (1.00x) — ok",
                "campaign grid=00000000deadbeef jobs_total: 12 — ok",
                "campaign grid=00000000deadbeef jobs_unique: 9 — ok",
                "campaign grid=00000000deadbeef jobs_deduped: 3 — ok",
                "campaign grid=00000000deadbeef peak_resident_fixtures: 3 — ok",
                "campaign grid=00000000deadbeef jobsn_ns: 900000 vs baseline 900000 (1.00x) — ok",
                "cluster workload=expr@O2/s1 unified_cycles: 500 — ok",
                "cluster workload=expr@O2/s1 rr_cycles: 700 — ok",
                "cluster workload=expr@O2/s1 dead_cycles: 620 — ok",
                "cluster workload=expr@O2/s1 steered_dead: 40 — ok",
                "cluster workload=expr@O2/s1 dead_ns: 1200 vs baseline 1200 (1.00x) — ok",
            ]
        );
    }

    #[test]
    fn reindented_baseline_gives_the_same_verdicts() {
        // The same JSON value in another layout (every container
        // multi-line, or everything on one line) must be compared, not
        // skipped, with identical verdicts.
        let current = with(&["benchmarks", "0", "phases_ns", "simulate"], 90_000_000u64.into());
        let verdicts = |text: &str| check_against(&json::parse(text).unwrap(), &current).unwrap();
        let original = verdicts(&render_json(&doc()));
        assert!(!original.ok, "the slowed-down benchmark regresses");
        for text in [doc().to_pretty(), doc().to_compact()] {
            let reindented = verdicts(&text);
            assert_eq!(reindented.lines, original.lines);
            assert_eq!(reindented.ok, original.ok);
        }
    }

    fn baseline_file(name: &str, contents: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dide-benchrun-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn baseline_parser_tolerates_garbage() {
        // Garbage never panics and never passes: it is a one-line error
        // naming the file and, for a parse error, the line and column.
        let err = |name: &str, contents: &str| {
            let path = baseline_file(name, contents);
            let err = load_baseline(&path).unwrap_err();
            assert!(!err.contains('\n'), "{err}");
            err.replacen(&path.display().to_string(), "PATH", 1)
        };
        assert_eq!(err("empty.json", ""), "PATH:1:1: expected a value, found end of input");
        assert_eq!(
            err("garbage.json", "this is not json"),
            "PATH:1:1: expected a value, found `t`"
        );
        assert_eq!(
            err("name-only.json", "{\"simulate\": 12}"),
            "PATH: schema is missing, expected dide-bench/v4"
        );
        assert_eq!(
            err("v3.json", "{\"schema\": \"dide-bench/v3\"}"),
            "PATH: schema is dide-bench/v3, expected dide-bench/v4"
        );
        let torn = &render_json(&doc())[..200];
        assert!(err("torn.json", torn).starts_with("PATH:10:"), "{}", err("torn.json", torn));
        let missing = baseline_file("x", "").with_file_name("missing.json");
        assert!(load_baseline(&missing).unwrap_err().starts_with("cannot read "));
        let good = baseline_file("good.json", &render_json(&doc()));
        assert_eq!(load_baseline(&good), Ok(doc()));
        std::fs::remove_dir_all(good.parent().unwrap()).ok();
    }

    #[test]
    fn mem_regression_check_flags_structural_growth() {
        // No baseline entry for the enrollment (e.g. a v1 file): fails.
        let err = check_against(&with(&["stream"], Value::Array(Vec::new())), &doc()).unwrap_err();
        assert_eq!(err, "baseline lacks stream name=expr scale=16");
        // Within 2x: ok.
        let grown = with(&["stream", "0", "mem_peak_bytes", "streamed"], 10_000_000u64.into());
        assert!(check_against(&doc(), &grown).unwrap().ok);
        // More than 2x growth: a structural regression, no noise floor.
        let shrunk = with(&["stream", "0", "mem_peak_bytes", "streamed"], 1_000_000u64.into());
        let check = check_against(&shrunk, &doc()).unwrap();
        assert!(!check.ok);
        assert!(
            check.lines.contains(
                &"stream name=expr scale=16 mem_peak_bytes.streamed: 5242880 vs baseline 1000000 \
                  (5.24x) — REGRESSION"
                    .into()
            ),
            "{:?}",
            check.lines
        );
    }

    #[test]
    fn regression_check_flags_only_large_real_slowdowns() {
        let simulate = ["benchmarks", "0", "phases_ns", "simulate"];
        // expr baseline 100ms; current 40ns → fine (a speedup).
        let check = check_against(&with(&simulate, 100_000_000u64.into()), &doc()).unwrap();
        assert!(check.ok, "{:?}", check.lines);
        // route: ratio 1.0 — fine.
        assert!(check.lines[1].ends_with("(1.00x) — ok"), "{:?}", check.lines);

        // A 3x slowdown that is still under the 5ms floor must pass
        // (sub-millisecond noise), then one over both thresholds must fail.
        let slow = with(&simulate, 300_000_000u64.into());
        let check = check_against(&with(&simulate, 1u64.into()), &slow).unwrap();
        assert!(!check.ok, "300ms over a 1ns baseline is a regression");
        assert!(check.lines[0].ends_with("— REGRESSION"), "{:?}", check.lines);
        let small = with(&simulate, 299_000_000u64.into());
        assert!(check_against(&small, &slow).unwrap().ok, "1ms over baseline is noise");
    }

    #[test]
    fn regression_check_skips_unmatched_benchmarks() {
        // A baseline that lacks a measured benchmark fails closed; extra
        // baseline entries the run did not measure are ignored.
        let mut base = doc();
        let Some(Value::Array(benchmarks)) = base.get("benchmarks").cloned() else { panic!() };
        set(&mut base, &["benchmarks"], Value::Array(benchmarks[..1].to_vec()));
        let err = check_against(&base, &doc()).unwrap_err();
        assert_eq!(err, "baseline lacks benchmarks name=route scale=4");
        let other_scale = with(&["benchmarks", "1", "scale"], 16u32.into());
        assert!(check_against(&other_scale, &doc()).is_err(), "another scale is not a match");
        assert!(check_against(&doc(), &base).unwrap().ok, "unmeasured entries are ignored");
    }

    #[test]
    fn quick_bench_writes_well_formed_json() {
        let dir = std::env::temp_dir().join("dide-benchrun-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH.json");
        let options = BenchOptions { quick: true, out: out.clone(), ..BenchOptions::default() };
        let run = run_bench(&options).expect("bench writes");
        assert_eq!(run.measurements.len(), QUICK_SUITE.len());
        assert!(run.measurements.iter().all(|m| m.scale == 1));
        assert!(run.measurements.iter().all(|m| m.trace_len > 0));
        assert_eq!(run.streams.len(), QUICK_STREAM_SUITE.len());
        let written = std::fs::read_to_string(&out).unwrap();
        assert_eq!(written, run.json);
        assert!(written.contains("\"schema\": \"dide-bench/v4\""));
        assert!(written.contains("\"events_overhead\""));
        assert!(written.contains("\"mem_peak_bytes\": {\"streamed\": "));
        assert!(written.contains("\"campaign\": {"));
        assert!(written.contains("\"cluster\": {"));
        assert!(run.campaign.jobs_deduped > 0, "the bench grid must exercise dedup");
        assert_eq!(run.campaign.jobs_total, run.campaign.jobs_unique + run.campaign.jobs_deduped);
        assert!(run.events_overhead.identical);
        assert!(run.cluster.steered_dead > 0, "dead steering must route work on expr");
        assert!(run.report.contains("objstore"));
        assert!(run.report.contains("events overhead"));
        assert!(run.report.contains("streamed"));
        assert!(run.report.contains("campaign throughput"));
        assert!(run.report.contains("clustered backend"));
        let scratch =
            std::env::temp_dir().join(format!("dide-campaign-bench-{}", std::process::id()));
        assert!(!scratch.exists(), "the campaign measurement leaked {}", scratch.display());
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn streamed_measurement_is_bounded_and_honest() {
        let spec = dide_workloads::find_workload("expr").expect("expr exists");
        let s = measure_stream(spec, 4, DEFAULT_EPOCH_LEN);
        let epoch_bytes = DEFAULT_EPOCH_LEN as u64 * std::mem::size_of::<DynInst>() as u64;
        assert_eq!(s.materialized_bytes, s.trace_len * std::mem::size_of::<DynInst>() as u64);
        assert!(s.trace_len as usize > 2 * DEFAULT_EPOCH_LEN, "expr@4 spans several epochs");
        assert!(
            s.mem_peak_bytes <= 2 * epoch_bytes,
            "peak retained trace memory must stay within two epochs (got {} bytes)",
            s.mem_peak_bytes
        );
        assert!(s.mem_ratio() > 1.0, "streaming must beat materializing at this scale");
    }
}
