//! **DIDE** — Dynamic dead-Instruction Detection and Elimination.
//!
//! Top-level library of the reproduction of Butts & Sohi, *Dynamic
//! dead-instruction detection and elimination* (ASPLOS 2002). It ties the
//! substrate crates together and provides the experiment harness that
//! regenerates every table and figure of the paper (see `DESIGN.md` and
//! `EXPERIMENTS.md` at the repository root).
//!
//! The stack, bottom to top:
//!
//! | layer | crate |
//! |-------|-------|
//! | ISA (SIR) | [`dide_isa`] |
//! | functional emulator + traces | [`dide_emu`] |
//! | oracle deadness analysis | [`dide_analysis`] |
//! | branch + dead predictors | [`dide_predictor`] |
//! | cache hierarchy | [`dide_mem`] |
//! | out-of-order core + elimination | [`dide_pipeline`] |
//! | benchmark suite | [`dide_workloads`] |
//! | experiments (this crate) | [`experiments`] |
//!
//! # Quickstart
//!
//! Measure the dead-instruction fraction of one benchmark and eliminate
//! its dead instructions on the contended machine:
//!
//! ```
//! use dide::prelude::*;
//!
//! let spec = *dide::suite().iter().find(|s| s.name == "expr").unwrap();
//! let program = spec.build(OptLevel::O2, 1);
//! let trace = Emulator::new(&program).run()?;
//! let analysis = DeadnessAnalysis::analyze(&trace);
//! println!("dead: {:.1}%", 100.0 * analysis.stats().dead_fraction());
//!
//! let config = PipelineConfig::contended().with_elimination(DeadElimConfig::default());
//! let stats = Core::new(config).run(&trace, &analysis);
//! println!("IPC {:.3}, eliminated {}", stats.ipc(), stats.dead_predicted);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchrun;
pub mod campaign;
pub mod cli;
pub mod experiments;
pub mod harness;
pub mod runner;
pub mod statsrun;
pub mod store;
mod table;
pub mod verifyrun;
mod workbench;

pub use benchrun::{
    check_against, measure_events_overhead, run_bench, BenchOptions, BenchRun, EventsOverhead,
    RegressionCheck, StreamMeasurement,
};
pub use campaign::{
    bench_grid, campaign_rules, expand_grid, measure_campaign_throughput, run_campaign,
    run_campaign_report, CampaignGrid, CampaignOptions, CampaignRun, CampaignThroughput, Elim,
    ExpandedGrid, JobSpec, Machine, ReportOptions,
};
pub use runner::{run_experiments, ExperimentOptions, ExperimentRun};
pub use statsrun::{
    run_events, run_stats, EventsOptions, EventsRun, RunSelection, StatsFormat, StatsOptions,
    StatsRun, DEFAULT_EPOCH_LEN, STATS_SCHEMA,
};
pub use store::{StoreReader, StoreWriter, CAMPAIGN_STORE_SCHEMA};
pub use table::Table;
pub use verifyrun::{run_golden, run_verify, GoldenOptions, GoldenRun, VerifyOptions, VerifyRun};
pub use workbench::{
    fixture_cache, BenchCase, FixtureCache, FixtureCacheStats, Workbench, DEFAULT_FIXTURE_CAP,
};

pub use dide_workloads::{asm_suite, find_workload, suite, OptLevel, WorkloadSpec};

pub use dide_asm as asm;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dide_analysis::{
        DeadKind, DeadnessAnalysis, StaticBehavior, StreamedDeadness, Verdict,
    };
    pub use dide_emu::{DynInst, Emulator, Trace, TraceStream};
    pub use dide_isa::{Inst, Opcode, Program, ProgramBuilder, Reg};
    pub use dide_pipeline::{
        ClusterConfig, ClusterStats, Core, DeadElimConfig, EliminationPolicy, PipelineConfig,
        PipelineStats, SteerPolicy, SteerStats,
    };
    pub use dide_predictor::branch::{BimodalBranch, BranchPredictor, Gshare};
    pub use dide_predictor::dead::{
        evaluate, BimodalDeadConfig, BimodalDeadPredictor, CfiConfig, CfiDeadPredictor,
        DeadPredictionReport, DeadPredictor, LastOutcomePredictor, OracleDeadPredictor,
    };
    pub use dide_workloads::{suite, OptLevel, WorkloadSpec};

    pub use crate::workbench::{BenchCase, Workbench};
}
