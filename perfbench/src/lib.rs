//! The repository benchmark: three workloads (`suite`, `stream`,
//! `campaign`) driven through the public API of each crate, reporting
//! end-to-end metrics from untraced passes and per-layer metrics from a
//! separate traced pass. See `README.md` in this directory.

pub mod host;
pub mod ledger;
pub mod report;
pub mod spans;
pub mod sys;
pub mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use host::Probe;
use ledger::Ledger;
use report::{geomean, median, ratio, Report, END_TO_END, PER_LAYER};
use spans::Spans;
use workload::{Bench, Kind, PassOut, Sizes, WORKERS};

/// Every pass runs on a freshly set-up workload. Before each pass, set-up
/// repeats until this much time has passed (at least once, at most
/// `SETUP_MAX_REPS` times), so `setup_s` is the median of samples spread over
/// the whole run rather than its first moments.
const SETUP_BUDGET: Duration = Duration::from_millis(50);
const SETUP_MAX_REPS: usize = 1000;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub kind: Kind,
    /// Picks the campaign's generated programs; `suite` and `stream` are
    /// fixed programs.
    pub seed: u64,
    /// Untraced passes repeat until this much time has passed (at least one).
    pub seconds: f64,
    /// Report per-layer metrics from an extra traced pass instead of the
    /// end-to-end metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for the campaign store.
    pub work_dir: PathBuf,
}

/// One timed pass: its output, host wall and CPU seconds (the probe's own
/// CPU time left out), the host's speed during the pass, and peak resident
/// MiB.
struct Timed {
    out: PassOut,
    wall: f64,
    cpu: f64,
    speed: f64,
    rss: f64,
}

fn timed_pass(
    bench: &mut Bench,
    ledger: &mut Ledger,
    spans: &mut Spans,
    probe: &Probe,
) -> Result<Timed, String> {
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let mut out = bench.pass(ledger, spans);
    let end = Instant::now();
    let wall = (end - start).as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu0 - probe.cpu_s(start, end);
    let rss = sys::peak_rss_mib()?;
    let speed = probe.speed(start, end)?;
    bench.settle(ledger, &mut out);
    ledger.exact("pass", out.exact_counts());
    Ok(Timed { out, wall, cpu, speed, rss })
}

/// Sets the workload up repeatedly for `SETUP_BUDGET`, recording each
/// set-up's seconds, at the reference host speed, in `setup_s`; returns
/// the last set-up.
fn set_up(
    options: &Options,
    spans: &mut Spans,
    probe: &Probe,
    setup_s: &mut Vec<f64>,
) -> Result<Bench, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let bench =
            Bench::setup(options.kind, &options.sizes, options.seed, &options.work_dir, spans)?;
        times.push(start.elapsed().as_secs_f64());
        if started.elapsed() >= SETUP_BUDGET || times.len() >= SETUP_MAX_REPS {
            let speed = probe.speed(started, Instant::now())?;
            setup_s.extend(times.iter().map(|t| t * speed));
            return Ok(bench);
        }
    }
}

/// Runs the benchmark and returns its report. `ledger` may carry planted
/// expectations (the self-test's wrong counts).
///
/// # Errors
///
/// Returns a one-line message when set-up or a host reading fails; failed
/// operations are counted in the report instead.
pub fn run(options: &Options, ledger: &mut Ledger) -> Result<Report, String> {
    let mut spans = Spans::new(options.trace);
    std::fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", options.work_dir.display()))?;
    // A single-threaded workload stays on one CPU, beside its sampler, and
    // fixes the allocator's thresholds. The campaign's workers may use
    // every CPU, and each gets a sampler; they allocate from arenas of their
    // own, and the fixed thresholds would let each keep 64 MiB of free heap
    // at a moment that depends on thread timing (its peak spread 17% from
    // run to run so, and 2% with the adaptive defaults).
    let mut probed = sys::allowed_cpus()?;
    if options.kind != Kind::Campaign {
        sys::fix_allocator_thresholds()?;
        probed.truncate(1);
        sys::pin_to(probed[0])?;
    }
    let probe = Probe::start(&probed);

    let mut untraced = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut raw_walls = Vec::new();
    let mut speeds = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut rss = Vec::new();
    let started = Instant::now();
    let last = loop {
        let mut bench = set_up(options, &mut untraced, &probe, &mut setup_s)?;
        let pass = timed_pass(&mut bench, ledger, &mut untraced, &probe)?;
        raw_walls.push(pass.wall);
        speeds.push(pass.speed);
        walls.push(pass.wall * pass.speed);
        cpus.push(pass.cpu * pass.speed);
        rss.push(pass.rss);
        if started.elapsed().as_secs_f64() >= options.seconds {
            break pass.out;
        }
    };
    let wall = median(&walls);
    eprintln!(
        "perfbench: {} seed {}: {} set-up(s), {} pass(es), wall {wall:.4} reference s median \
         of {walls:.4?}; measured {raw_walls:.4?} s at host speed {speeds:.3?}; peak MiB \
         {rss:.1?}",
        options.kind.name(),
        options.seed,
        setup_s.len(),
        walls.len(),
    );

    let mut values = BTreeMap::new();
    if !options.trace {
        values.insert("setup_s", median(&setup_s));
        values.insert("wall_s", wall);
        values.insert("sim_mips", last.sim.committed as f64 / wall / 1e6);
        values.insert("cpu_s", median(&cpus));
        // The first pass of a fresh process is what one `dide` invocation
        // sees; later passes inherit memory the allocator kept.
        values.insert("peak_rss_mib", rss[0]);
        values.insert("elim_speedup", geomean(&last.speedups));
        values.insert(
            "success_rate",
            1.0 - ledger.failed() as f64 / ledger.attempted().max(1) as f64,
        );
        eprintln!("perfbench: exact-count digest {}", ledger.digest());
        return Ok(Report::new(ledger.attempted(), ledger.failed(), END_TO_END, values));
    }

    let mut traced_setups = Vec::new();
    let mut bench = set_up(options, &mut spans, &probe, &mut traced_setups)?;
    let traced = timed_pass(&mut bench, ledger, &mut spans, &probe)?;
    let mut t = traced.out;
    bench.probe(ledger, &mut spans, &mut t);
    eprint!("{}", spans.summary());
    eprintln!("perfbench: exact-count digest {}", ledger.digest());

    let s = |name: &str| spans.total_s(name);
    let emu_stream = s("emu.stream");
    let emu_s = if s("emu.run") > 0.0 { s("emu.run") } else { emu_stream };
    // Each streamed simulation re-emulates its program once.
    let streamed_emu = emu_stream
        * ratio(spans.count("pipeline.streamed") as f64, spans.count("emu.stream") as f64);
    let analysis_streamed = s("analysis.streamed");
    let c = &t.campaign;
    let sim = &t.sim;
    let layer: [(&'static str, f64); 48] = [
        ("workloads.build_s", s("workloads.build") / traced_setups.len() as f64),
        ("emu.run_s", s("emu.run")),
        ("emu.stream_s", emu_stream),
        ("emu.mrec_per_s", ratio(t.records as f64 / 1e6, emu_s)),
        ("emu.trace_mib", t.trace_bytes as f64 / (1024.0 * 1024.0)),
        ("emu.records", t.records as f64),
        ("analysis.analyze_s", s("analysis.analyze")),
        ("analysis.streamed_s", analysis_streamed),
        (
            "analysis.self_s",
            if analysis_streamed > 0.0 { analysis_streamed - emu_stream } else { 0.0 },
        ),
        ("analysis.dead", t.dead as f64),
        ("analysis.escaped", t.escaped as f64),
        ("analysis.epochs", t.epochs as f64),
        ("pipeline.unified_s", s("pipeline.unified")),
        (
            "pipeline.unified_ns_per_cycle",
            ratio(s("pipeline.unified") * 1e9, t.unified_cycles as f64),
        ),
        ("pipeline.streamed_s", s("pipeline.streamed")),
        ("pipeline.streamed_self_s", s("pipeline.streamed") - streamed_emu),
        ("pipeline.clustered_s", s("pipeline.clustered")),
        (
            "pipeline.clustered_ns_per_cycle",
            ratio(s("pipeline.clustered") * 1e9, t.clustered_cycles as f64),
        ),
        (
            "pipeline.cluster_host_ratio",
            if s("pipeline.clustered") > 0.0 {
                ratio(s("pipeline.clustered"), s("pipeline.unified"))
            } else {
                0.0
            },
        ),
        ("pipeline.cycles", sim.cycles as f64),
        ("pipeline.committed", sim.committed as f64),
        ("pipeline.eliminated", sim.eliminated as f64),
        ("pipeline.dead_violations", sim.dead_violations as f64),
        ("pipeline.stall.rob", sim.stall_rob as f64),
        ("pipeline.stall.iq", sim.stall_iq as f64),
        ("pipeline.stall.phys", sim.stall_phys as f64),
        ("pipeline.stall.lsq", sim.stall_lsq as f64),
        ("pipeline.fetch_stall_cycles", sim.fetch_stall_cycles as f64),
        ("pipeline.bypass_stalls", sim.bypass_stalls as f64),
        ("pipeline.steered_dead", sim.steered_dead as f64),
        ("predictor.dead_accuracy", ratio(sim.cfi_correct as f64, sim.cfi_predicted as f64)),
        ("predictor.dead_coverage", ratio(sim.cfi_correct as f64, sim.cfi_oracle_dead as f64)),
        ("mem.l1d.accesses", sim.l1d_accesses as f64),
        ("mem.l1d.misses", sim.l1d_misses as f64),
        ("mem.l2.misses", sim.l2_misses as f64),
        ("campaign.run_s", s("campaign.run")),
        ("campaign.direct_s", s("campaign.direct")),
        (
            "campaign.parallel_efficiency",
            ratio(s("campaign.direct"), s("campaign.run") * WORKERS as f64),
        ),
        ("campaign.jobs_unique", c.jobs_unique as f64),
        ("campaign.jobs_deduped", c.jobs_deduped as f64),
        ("campaign.steals", c.steals as f64),
        ("fixture.misses", c.fixture_misses as f64),
        ("fixture.rebuilds", c.fixture_misses.saturating_sub(c.programs) as f64),
        ("store.bytes", c.store_bytes as f64),
        ("store.records", c.store_records as f64),
        ("store.report_s", s("store.report")),
        ("trace_overhead", traced.wall * traced.speed / wall),
        ("host.speed", median(&speeds)),
    ];
    values.extend(layer);
    Ok(Report::new(ledger.attempted(), ledger.failed(), PER_LAYER, values))
}
