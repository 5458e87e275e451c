//! The benchmark's metric vocabulary, the simulated-count tally, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dide::Elim;

/// End-to-end metrics (untraced runs), with their units. `BENCHMARK.json`
/// lists the same names and units; the self-test holds the two together.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("elim_speedup", "ratio"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics (traced runs), with their units. A metric whose layer
/// a workload does not run reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("emu.run_s", "s"),
    ("emu.stream_s", "s"),
    ("emu.mrec_per_s", "Mrec/s"),
    ("emu.trace_mib", "MiB"),
    ("emu.records", "count"),
    ("analysis.analyze_s", "s"),
    ("analysis.streamed_s", "s"),
    ("analysis.self_s", "s"),
    ("analysis.dead", "count"),
    ("analysis.escaped", "count"),
    ("analysis.epochs", "count"),
    ("pipeline.unified_s", "s"),
    ("pipeline.unified_ns_per_cycle", "ns"),
    ("pipeline.streamed_s", "s"),
    ("pipeline.streamed_self_s", "s"),
    ("pipeline.clustered_s", "s"),
    ("pipeline.clustered_ns_per_cycle", "ns"),
    ("pipeline.cluster_host_ratio", "ratio"),
    ("pipeline.cycles", "count"),
    ("pipeline.committed", "count"),
    ("pipeline.eliminated", "count"),
    ("pipeline.dead_violations", "count"),
    ("pipeline.stall.rob", "count"),
    ("pipeline.stall.iq", "count"),
    ("pipeline.stall.phys", "count"),
    ("pipeline.stall.lsq", "count"),
    ("pipeline.fetch_stall_cycles", "count"),
    ("pipeline.bypass_stalls", "count"),
    ("pipeline.steered_dead", "count"),
    ("predictor.dead_accuracy", "ratio"),
    ("predictor.dead_coverage", "ratio"),
    ("mem.l1d.accesses", "count"),
    ("mem.l1d.misses", "count"),
    ("mem.l2.misses", "count"),
    ("campaign.run_s", "s"),
    ("campaign.direct_s", "s"),
    ("campaign.parallel_efficiency", "ratio"),
    ("campaign.jobs_unique", "count"),
    ("campaign.jobs_deduped", "count"),
    ("campaign.steals", "count"),
    ("fixture.misses", "count"),
    ("fixture.rebuilds", "count"),
    ("store.bytes", "bytes"),
    ("store.records", "count"),
    ("store.report_s", "s"),
    ("trace_overhead", "ratio"),
    ("host.speed", "ratio"),
];

/// Simulated counts summed over every pipeline run of one pass. All exact:
/// the simulator is deterministic.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimTally {
    pub cycles: u64,
    pub committed: u64,
    pub eliminated: u64,
    pub dead_violations: u64,
    pub stall_rob: u64,
    pub stall_iq: u64,
    pub stall_phys: u64,
    pub stall_lsq: u64,
    pub fetch_stall_cycles: u64,
    pub bypass_stalls: u64,
    pub steered_dead: u64,
    /// Dead predictions acted on, correct ones, and oracle-dead committed
    /// instructions, over CFI runs only (the predictor's own score).
    pub cfi_predicted: u64,
    pub cfi_correct: u64,
    pub cfi_oracle_dead: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
}

impl SimTally {
    /// Adds one run's `pipeline.*` counters (as `PipelineStats::counters`
    /// and campaign store records name them).
    pub fn add<'a>(&mut self, elim: Elim, counters: impl IntoIterator<Item = (&'a str, u64)>) {
        let cfi = elim == Elim::Cfi;
        for (name, value) in counters {
            let Some(name) = name.strip_prefix("pipeline.") else { continue };
            let field = match name {
                "cycles" => &mut self.cycles,
                "committed" => &mut self.committed,
                "dead_predicted" => {
                    if cfi {
                        self.cfi_predicted += value;
                    }
                    &mut self.eliminated
                }
                "dead_predicted_correct" if cfi => &mut self.cfi_correct,
                "oracle_dead_committed" if cfi => &mut self.cfi_oracle_dead,
                "dead_violations" => &mut self.dead_violations,
                "rob_full_stalls" => &mut self.stall_rob,
                "iq_full_stalls" => &mut self.stall_iq,
                "no_phys_stalls" => &mut self.stall_phys,
                "lsq_full_stalls" => &mut self.stall_lsq,
                "fetch_stall_cycles" => &mut self.fetch_stall_cycles,
                "mem.l1d.accesses" => &mut self.l1d_accesses,
                "mem.l1d.misses" => &mut self.l1d_misses,
                "mem.l2.misses" => &mut self.l2_misses,
                _ if name.starts_with("cluster.") && name.ends_with(".bypass_stalls") => {
                    &mut self.bypass_stalls
                }
                _ if name.starts_with("cluster.") && name.ends_with(".steered_dead") => {
                    &mut self.steered_dead
                }
                _ => continue,
            };
            *field += value;
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive `values` (0 when there are none).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload does
/// not run).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The benchmark's result line.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Builds a report whose metrics are exactly the names of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `values` lacks a name of `table` or has one it lacks (a
    /// bug in this benchmark).
    #[must_use]
    pub fn new(
        attempted: u64,
        failed: u64,
        table: &[(&'static str, &'static str)],
        mut values: BTreeMap<&'static str, f64>,
    ) -> Report {
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values.remove(name).unwrap_or_else(|| panic!("metric {name} unset"));
                (name, value, unit)
            })
            .collect();
        assert!(values.is_empty(), "metrics outside the table: {:?}", values.keys());
        Report { correct: failed == 0, attempted, failed, metrics }
    }

    /// The one-line JSON object the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn tally_reads_pipeline_counters() {
        let mut tally = SimTally::default();
        tally.add(
            Elim::Cfi,
            [
                ("pipeline.cycles", 10),
                ("pipeline.dead_predicted", 4),
                ("pipeline.dead_predicted_correct", 3),
                ("pipeline.cluster.1.bypass_stalls", 2),
                ("analysis.dead_total", 99),
            ],
        );
        tally.add(Elim::Off, [("pipeline.cycles", 12), ("pipeline.dead_predicted", 0)]);
        assert_eq!((tally.cycles, tally.eliminated, tally.cfi_predicted), (22, 4, 4));
        assert_eq!((tally.cfi_correct, tally.bypass_stalls), (3, 2));
    }

    #[test]
    fn json_line_shape() {
        let mut values = BTreeMap::new();
        values.insert("a", 1.5);
        values.insert("b", f64::NAN);
        let report = Report::new(3, 0, &[("a", "s"), ("b", "count")], values);
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
