//! Machine configuration.

use dide_mem::HierarchyConfig;
use dide_predictor::dead::CfiConfig;

/// Function-unit counts and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Simple integer ALUs (1-cycle).
    pub alus: usize,
    /// Pipelined multipliers.
    pub muls: usize,
    /// Unpipelined dividers.
    pub divs: usize,
    /// Memory ports (address generation + cache access issue).
    pub mem_ports: usize,
    /// Multiply latency in cycles.
    pub mul_latency: u32,
    /// Divide latency in cycles (the divider blocks for the duration).
    pub div_latency: u32,
}

impl Default for FuConfig {
    fn default() -> Self {
        FuConfig { alus: 4, muls: 1, divs: 1, mem_ports: 2, mul_latency: 3, div_latency: 12 }
    }
}

/// Which instructions the eliminator may act on (experiment E12).
///
/// Note that `RegOnly` is *not* simply "`RegAndStore` minus the store
/// savings": a dead store whose data was produced by an eliminated
/// instruction reads a dead tag and triggers a recovery, so asymmetric
/// policies can suffer systematic violations. The ablation quantifies
/// this — it is why the paper's mechanism covers whole dead chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EliminationPolicy {
    /// No elimination: the machine runs as a plain out-of-order core.
    Off,
    /// Eliminate predicted-dead stores only (dead-store elimination).
    StoreOnly,
    /// Eliminate predicted-dead register writers only (ALU ops and loads).
    RegOnly,
    /// Eliminate both register writers and stores.
    RegAndStore,
}

impl EliminationPolicy {
    /// Whether the policy eliminates anything at all.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != EliminationPolicy::Off
    }

    /// Whether the policy covers stores.
    #[must_use]
    pub fn covers_stores(self) -> bool {
        matches!(self, EliminationPolicy::StoreOnly | EliminationPolicy::RegAndStore)
    }

    /// Whether the policy covers register-writing instructions.
    #[must_use]
    pub fn covers_registers(self) -> bool {
        matches!(self, EliminationPolicy::RegOnly | EliminationPolicy::RegAndStore)
    }
}

/// Dead-instruction elimination configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadElimConfig {
    /// What to eliminate.
    pub policy: EliminationPolicy,
    /// The CFI dead-predictor table configuration.
    pub predictor: CfiConfig,
    /// Branch lookahead used to form CFI signatures.
    pub lookahead: u8,
    /// Cycles of rename stall charged per dead-tag violation (the paper's
    /// re-injection recovery, modeled as a fixed penalty).
    pub violation_penalty: u32,
    /// Jump-aware signatures (experiment E13): indirect jumps contribute a
    /// hash of their predicted target to the CFI signature, enabling dead
    /// prediction in interpreter-style dispatch code. Off by default
    /// (paper-faithful: the paper's signatures use branch directions only).
    pub jump_aware: bool,
    /// Limit study (experiment E14): replace the CFI predictor with the
    /// deadness oracle, eliminating every dead instruction with perfect
    /// foresight. Bounds what any predictor could achieve on this machine.
    pub oracle: bool,
}

impl Default for DeadElimConfig {
    fn default() -> Self {
        DeadElimConfig {
            policy: EliminationPolicy::RegAndStore,
            predictor: CfiConfig::default(),
            lookahead: 4,
            violation_penalty: 15,
            jump_aware: false,
            oracle: false,
        }
    }
}

/// Dispatch-time steering policy for a clustered backend (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteerPolicy {
    /// Rotate dispatched instructions across clusters, advancing only on a
    /// successful dispatch so stalls do not skew the rotation.
    RoundRobin,
    /// Follow the producing cluster of the first physical source operand
    /// (falling back to round-robin for instructions with no in-flight
    /// producer), trading load balance for fewer cross-cluster forwards.
    DependenceAffinity,
    /// Route predicted-dead instructions to the designated cheap cluster
    /// (the highest-numbered one); live instructions rotate over the
    /// remaining clusters. With elimination enabled, predicted-dead
    /// instructions are squashed pre-dispatch instead of steered.
    DeadSteer,
}

impl SteerPolicy {
    /// The axis value as written in records and flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SteerPolicy::RoundRobin => "rr",
            SteerPolicy::DependenceAffinity => "affinity",
            SteerPolicy::DeadSteer => "dead",
        }
    }

    /// Parses one `--steer` flag value.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for anything but `rr`, `affinity`, `dead`.
    pub fn parse(value: &str) -> Result<SteerPolicy, String> {
        match value {
            "rr" => Ok(SteerPolicy::RoundRobin),
            "affinity" => Ok(SteerPolicy::DependenceAffinity),
            "dead" => Ok(SteerPolicy::DeadSteer),
            other => Err(format!("invalid --steer `{other}` (expected rr, affinity or dead)")),
        }
    }
}

/// Clustered-backend configuration: the issue queue and function units are
/// divided into `clusters` slices, and a value produced in one cluster
/// becomes visible to consumers in another only `bypass_penalty` cycles
/// after its local writeback (DESIGN.md §11). Memory ordering (LSQ) and
/// the register-file storage itself stay global; only operand *forwarding*
/// pays the inter-cluster penalty. The unified backend (`cluster: None`)
/// runs as one cluster with no penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    /// Execution clusters (1..=8). Each gets `iq_entries / clusters` issue
    /// slots and `fu / clusters` function units (floored, minimum one).
    pub clusters: usize,
    /// Extra cycles before a result produced in one cluster can wake
    /// consumers waiting in another (0 = an ideal global bypass network).
    pub bypass_penalty: u32,
    /// Dispatch-time steering policy.
    pub steer: SteerPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { clusters: 2, bypass_penalty: 2, steer: SteerPolicy::RoundRobin }
    }
}

/// Full machine configuration (defaults are DESIGN.md §4's baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub rename_width: usize,
    /// Instructions issued to function units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Physical registers (must exceed the 32 architectural ones).
    pub phys_regs: usize,
    /// Frontend depth: cycles from fetch to rename readiness.
    pub frontend_depth: u32,
    /// Fetch-buffer capacity in instructions.
    pub fetch_buffer: usize,
    /// Extra redirect cycles after a mispredicted branch resolves.
    pub mispredict_penalty: u32,
    /// Fetch bubble cycles for a taken branch whose target missed the BTB.
    pub btb_miss_penalty: u32,
    /// Function units.
    pub fu: FuConfig,
    /// gshare global-history bits.
    pub gshare_history_bits: u32,
    /// log2 of gshare table entries.
    pub gshare_log2_entries: u32,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Dead-instruction elimination (policy `Off` for the baseline).
    pub dead: DeadElimConfig,
    /// Clustered backend (`None` = the classic unified backend).
    pub cluster: Option<ClusterConfig>,
}

impl PipelineConfig {
    /// The paper-scale baseline machine: 4-wide, 128-entry ROB, 160
    /// physical registers — resources generous enough that contention is
    /// mild.
    #[must_use]
    pub fn baseline() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            rename_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 128,
            iq_entries: 64,
            lq_entries: 32,
            sq_entries: 32,
            phys_regs: 160,
            frontend_depth: 3,
            fetch_buffer: 32,
            mispredict_penalty: 14,
            btb_miss_penalty: 2,
            fu: FuConfig::default(),
            gshare_history_bits: 10,
            gshare_log2_entries: 12,
            ras_depth: 16,
            hierarchy: HierarchyConfig::default(),
            dead: DeadElimConfig { policy: EliminationPolicy::Off, ..DeadElimConfig::default() },
            cluster: None,
        }
    }

    /// The paper's "architecture exhibiting resource contention": the same
    /// frontend with a tight physical register file, a small issue queue,
    /// fewer ALUs and a single memory port. This is where elimination buys
    /// measurable IPC (experiment E9).
    #[must_use]
    pub fn contended() -> PipelineConfig {
        PipelineConfig {
            phys_regs: 48,
            iq_entries: 16,
            rob_entries: 64,
            lq_entries: 8,
            sq_entries: 8,
            fu: FuConfig { alus: 2, mem_ports: 1, ..FuConfig::default() },
            ..PipelineConfig::baseline()
        }
    }

    /// The contended machine with its backend split into clusters, plus an
    /// inter-cluster bypass penalty. The issue queue and function units are
    /// divided among the clusters, but each share is floored at one entry
    /// or unit, so a scarce unit is replicated rather than split: two
    /// clusters hold two memory ports, two multipliers and two dividers
    /// against the unified contended machine's one of each (DESIGN.md §11).
    /// The `dide run/stats/campaign` `clustered` machine axis.
    #[must_use]
    pub fn clustered(cluster: ClusterConfig) -> PipelineConfig {
        PipelineConfig { cluster: Some(cluster), ..PipelineConfig::contended() }
    }

    /// Returns the configuration with the given elimination settings.
    #[must_use]
    pub fn with_elimination(mut self, dead: DeadElimConfig) -> PipelineConfig {
        self.dead = dead;
        self
    }

    /// Returns the configuration with the given clustered backend.
    #[must_use]
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> PipelineConfig {
        self.cluster = Some(cluster);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if widths are zero, the physical register file cannot cover
    /// the architectural registers, queues are empty, the cluster count is
    /// outside 1..=8, or an issue-queue slice would exceed 64 entries.
    pub fn validate(&self) {
        assert!(self.fetch_width > 0 && self.rename_width > 0, "widths must be positive");
        assert!(self.issue_width > 0 && self.commit_width > 0, "widths must be positive");
        assert!(
            self.phys_regs > dide_isa::Reg::COUNT,
            "need more than {} physical registers",
            dide_isa::Reg::COUNT
        );
        assert!(self.rob_entries > 0 && self.iq_entries > 0, "queues must be non-empty");
        assert!(self.lq_entries > 0 && self.sq_entries > 0, "queues must be non-empty");
        assert!(self.fetch_buffer >= self.fetch_width, "fetch buffer too small");
        assert!(self.fu.alus > 0 && self.fu.mem_ports > 0, "need ALUs and memory ports");
        assert!(self.fu.muls > 0 && self.fu.divs > 0, "need multiplier and divider");
        // The unified machine is the one-cluster case, so every machine
        // splits its issue queue into slices floored at one entry: a slice
        // exceeds the IQ bitmap cap only when the whole queue does.
        let clusters = self.cluster.map_or(1, |c| c.clusters);
        assert!((1..=8).contains(&clusters), "need 1..=8 execution clusters, got {clusters}");
        assert!(
            (self.iq_entries / clusters).max(1) <= 64,
            "per-cluster issue-queue slice capped at 64 entries"
        );
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        PipelineConfig::baseline().validate();
        PipelineConfig::contended().validate();
    }

    #[test]
    fn contended_is_tighter() {
        let b = PipelineConfig::baseline();
        let c = PipelineConfig::contended();
        assert!(c.phys_regs < b.phys_regs);
        assert!(c.iq_entries < b.iq_entries);
        assert!(c.fu.alus < b.fu.alus);
        assert!(c.fu.mem_ports < b.fu.mem_ports);
    }

    #[test]
    fn with_elimination_sets_policy() {
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig::default());
        assert_eq!(cfg.dead.policy, EliminationPolicy::RegAndStore);
        assert!(cfg.dead.policy.enabled());
        assert!(cfg.dead.policy.covers_stores());
        assert!(!EliminationPolicy::RegOnly.covers_stores());
        assert!(EliminationPolicy::RegOnly.covers_registers());
        assert!(EliminationPolicy::StoreOnly.covers_stores());
        assert!(!EliminationPolicy::StoreOnly.covers_registers());
        assert!(!EliminationPolicy::Off.enabled());
        assert!(!EliminationPolicy::Off.covers_stores());
        assert!(!EliminationPolicy::Off.covers_registers());
    }

    #[test]
    #[should_panic(expected = "physical registers")]
    fn too_few_phys_regs_panics() {
        let mut cfg = PipelineConfig::baseline();
        cfg.phys_regs = 32;
        cfg.validate();
    }

    #[test]
    fn clustered_validates_and_keeps_contended_resources() {
        let cfg = PipelineConfig::clustered(ClusterConfig::default());
        cfg.validate();
        let contended = PipelineConfig::contended();
        assert_eq!(cfg.iq_entries, contended.iq_entries);
        assert_eq!(cfg.fu, contended.fu);
        assert_eq!(cfg.cluster, Some(ClusterConfig::default()));
        for n in 1..=8 {
            PipelineConfig::clustered(ClusterConfig { clusters: n, ..ClusterConfig::default() })
                .validate();
        }
    }

    #[test]
    #[should_panic(expected = "capped at 64")]
    fn oversized_unified_issue_queue_panics() {
        let mut cfg = PipelineConfig::baseline();
        cfg.iq_entries = 65;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "execution clusters")]
    fn too_many_clusters_panics() {
        PipelineConfig::clustered(ClusterConfig { clusters: 9, ..ClusterConfig::default() })
            .validate();
    }

    #[test]
    fn steer_policy_labels_roundtrip() {
        for policy in
            [SteerPolicy::RoundRobin, SteerPolicy::DependenceAffinity, SteerPolicy::DeadSteer]
        {
            assert_eq!(SteerPolicy::parse(policy.label()), Ok(policy));
        }
        assert!(SteerPolicy::parse("nope").unwrap_err().contains("--steer"));
    }
}
