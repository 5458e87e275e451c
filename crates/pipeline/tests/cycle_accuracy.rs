//! Cycle-accuracy pins: hand-built micro-traces with known exact cycle
//! counts, asserted before the simulate-phase hot-path rework and kept
//! green through it. These pin the model at *cycle* granularity — an
//! off-by-one in writeback ordering, idle-cycle skip-ahead, or issue
//! select shows up here even when end-to-end benchmark stats still agree.
//!
//! The exact constants were recorded from the pre-rework cycle loop (the
//! per-cycle linear-scan implementation); every relative assertion below
//! explains *why* the counts relate the way they do, so a legitimate model
//! change (as opposed to a rework bug) is distinguishable.

use dide_analysis::DeadnessAnalysis;
use dide_emu::{Emulator, Trace};
use dide_isa::{ProgramBuilder, Reg};
use dide_pipeline::{Core, PipelineConfig, PipelineStats};

fn run(trace: &Trace, config: PipelineConfig) -> PipelineStats {
    let analysis = DeadnessAnalysis::analyze(trace);
    Core::new(config).run(trace, &analysis)
}

/// A loop whose body is a chain of `body` serially dependent `addi`s (the
/// chain value carries across iterations, so issue fully serializes); the
/// loop warms the I-cache and branch predictor, isolating wakeup/select
/// timing from cold-fetch effects.
fn dep_chain_loop(body: usize, iters: i64) -> Trace {
    let mut b = ProgramBuilder::new("chain");
    b.li(Reg::T0, 0);
    b.li(Reg::T1, iters);
    b.li(Reg::T2, 0);
    let top = b.label();
    b.bind(top);
    for _ in 0..body {
        b.addi(Reg::T2, Reg::T2, 1);
    }
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.out(Reg::T2);
    b.halt();
    Emulator::new(&b.build().unwrap()).run().unwrap()
}

/// A loop whose body is `body` *independent* single-cycle ALU ops (all
/// reading the stable `S0`), so throughput is capped by issue width once
/// the I-cache and branch predictor are warm.
fn independent_alus_loop(body: usize, iters: i64) -> Trace {
    let mut b = ProgramBuilder::new("wide");
    b.li(Reg::S0, 7);
    b.li(Reg::T0, 0);
    b.li(Reg::T1, iters);
    let top = b.label();
    b.bind(top);
    for i in 0..body {
        b.addi(Reg::TEMPS[2 + i % 6], Reg::S0, i as i64);
    }
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.halt();
    Emulator::new(&b.build().unwrap()).run().unwrap()
}

/// A store at `SP-8` followed by a load of the same (or a disjoint)
/// address, then a consumer of the loaded value.
fn store_then_load(overlapping: bool) -> Trace {
    let mut b = ProgramBuilder::new("stld");
    b.li(Reg::T0, 99);
    b.sd(Reg::T0, Reg::SP, -8);
    b.ld(Reg::T1, Reg::SP, if overlapping { -8 } else { -16 });
    b.addi(Reg::T2, Reg::T1, 1);
    b.out(Reg::T2);
    b.halt();
    Emulator::new(&b.build().unwrap()).run().unwrap()
}

/// A blocking 12-cycle divide at the ROB head, then `k` independent adds
/// that must all wait for commit space behind it.
fn div_then_adds(k: usize) -> Trace {
    let mut b = ProgramBuilder::new("robfull");
    b.li(Reg::T0, 144);
    b.li(Reg::T1, 12);
    b.div(Reg::T2, Reg::T0, Reg::T1);
    for i in 0..k {
        b.addi(Reg::TEMPS[3 + i % 4], Reg::S0, i as i64);
    }
    b.out(Reg::T2);
    b.halt();
    Emulator::new(&b.build().unwrap()).run().unwrap()
}

#[test]
fn single_dependency_chain_is_cycle_exact() {
    let short = run(&dep_chain_loop(8, 50), PipelineConfig::baseline());
    let long = run(&dep_chain_loop(16, 50), PipelineConfig::baseline());
    assert_eq!(short.cycles, 499, "8-link chain body cycles");
    assert_eq!(long.cycles, 981, "16-link chain body cycles");
    // The chain value carries across iterations, so every extra link costs
    // at least one cycle per iteration (8 extra links × 50 iterations =
    // 400 cycles, plus the occasional fetch bubble on the longer body).
    assert!(long.cycles - short.cycles >= 400, "one cycle per link per iteration");
}

#[test]
fn issue_width_saturation_is_cycle_exact() {
    let w4 = run(&independent_alus_loop(12, 50), PipelineConfig::baseline());
    assert_eq!(w4.cycles, 411, "4-wide cycles");
    let mut narrow = PipelineConfig::baseline();
    narrow.issue_width = 1;
    let w1 = run(&independent_alus_loop(12, 50), narrow);
    assert_eq!(w1.cycles, 900, "1-wide cycles");
    // A warm loop of independent ALU ops is issue-width-bound: ~14 ops per
    // iteration need ≥14 cycles at width 1 but ~4 at width 4.
    assert!(w1.cycles > 2 * w4.cycles, "1-wide must be at least 2x slower");
}

#[test]
fn load_blocked_on_overlapping_store_is_cycle_exact() {
    let blocked = run(&store_then_load(true), PipelineConfig::baseline());
    let free = run(&store_then_load(false), PipelineConfig::baseline());
    assert_eq!(blocked.cycles, 105, "overlapping store+load cycles");
    assert_eq!(free.cycles, 195, "disjoint store+load cycles");
    // The overlapping load waits for the store to execute, then forwards
    // (fixed 2-cycle latency, no memory round-trip); the disjoint load
    // issues immediately alongside the store but pays the L1D cold miss
    // the forwarded load avoids, so the *disjoint* variant is slower here.
    assert!(free.cycles > blocked.cycles);
}

#[test]
fn rob_full_stall_is_cycle_exact() {
    let mut tiny = PipelineConfig::baseline();
    tiny.rob_entries = 4;
    let stats = run(&div_then_adds(32), tiny);
    assert_eq!(stats.cycles, 292, "tiny-ROB div cycles");
    assert!(stats.rob_full_stalls > 0, "the divide must back the 4-entry ROB up into rename");
    // The same program on the 128-entry baseline ROB never stalls rename.
    let roomy = run(&div_then_adds(32), PipelineConfig::baseline());
    assert_eq!(roomy.cycles, 291, "baseline-ROB div cycles");
    assert_eq!(roomy.rob_full_stalls, 0);
    assert!(stats.cycles > roomy.cycles, "backpressure must cost cycles");
}

// ---- clustered-backend pins (DESIGN.md §11) ----

use dide_pipeline::{ClusterConfig, DeadElimConfig, SteerPolicy, SteerStats};

/// Drops the cluster-only counters so a clustered run can be compared
/// field-for-field against a unified run of the same machine.
fn strip_cluster_counters(mut stats: PipelineStats) -> PipelineStats {
    stats.clusters.clear();
    stats.steer = SteerStats::default();
    stats
}

/// A loop with one oracle-dead `slt` per iteration (dead on every
/// iteration but the last, when `out` reads it) — the steering target
/// population for the `DeadSteer` pins.
fn dead_slt_loop(dead_per_iter: usize, iters: i64) -> Trace {
    let mut b = ProgramBuilder::new("deadsteer");
    b.li(Reg::T0, 0);
    b.li(Reg::T1, iters);
    let top = b.label();
    b.bind(top);
    for _ in 0..dead_per_iter {
        b.slt(Reg::T2, Reg::T0, Reg::T1);
    }
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.out(Reg::T2);
    b.halt();
    Emulator::new(&b.build().unwrap()).run().unwrap()
}

#[test]
fn single_cluster_zero_penalty_is_cycle_identical_to_unified() {
    // N=1 with a free bypass network *is* the unified backend: one IQ slice
    // holding the whole queue, one FU pool holding every unit, and operand
    // visibility coinciding with the global ready bit. Every steering
    // policy degenerates to "cluster 0". `clusters: 1` must therefore build
    // the same machine as `cluster: None` and reproduce its statistics bit
    // for bit (modulo the cluster/steer counters only a clustered machine
    // exports) — including with elimination on, where dead predictions
    // squash pre-dispatch on both.
    for trace in [dep_chain_loop(8, 50), store_then_load(true), dead_slt_loop(2, 120)] {
        for elim in [false, true] {
            let mut unified = PipelineConfig::contended();
            if elim {
                unified = unified.with_elimination(DeadElimConfig::default());
            }
            let base = run(&trace, unified);
            for steer in
                [SteerPolicy::RoundRobin, SteerPolicy::DependenceAffinity, SteerPolicy::DeadSteer]
            {
                let cfg =
                    unified.with_cluster(ClusterConfig { clusters: 1, bypass_penalty: 0, steer });
                let clustered = run(&trace, cfg);
                if steer == SteerPolicy::DeadSteer && !elim {
                    // Dead-steering without elimination turns on prediction
                    // (for steering), which perturbs training-side counters
                    // — but never timing: everything still runs on the one
                    // cluster.
                    assert_eq!(clustered.cycles, base.cycles, "elim {elim} steer dead cycles");
                    assert_eq!(clustered.committed, base.committed);
                } else {
                    assert_eq!(
                        strip_cluster_counters(clustered.clone()),
                        base,
                        "elim {elim} steer {steer:?}"
                    );
                }
                assert_eq!(clustered.clusters.len(), 1);
                assert_eq!(clustered.clusters[0].bypass_stalls, 0, "one cluster, no bypass");
                assert!(clustered.invariant_violations().is_empty());
            }
        }
    }
}

#[test]
fn cross_cluster_bypass_delay_is_cycle_exact() {
    // Round-robin over two clusters sends consecutive instructions of a
    // serial dependence chain to alternating clusters, so *every* chain
    // link crosses the cluster boundary and waits out the bypass penalty.
    let trace = dep_chain_loop(8, 50);
    let cycles_at = |penalty: u32| {
        let cfg = PipelineConfig::clustered(ClusterConfig {
            clusters: 2,
            bypass_penalty: penalty,
            steer: SteerPolicy::RoundRobin,
        });
        run(&trace, cfg)
    };
    let p0 = cycles_at(0);
    let p2 = cycles_at(2);
    let p4 = cycles_at(4);
    assert_eq!(p0.cycles, 507, "2-cluster penalty-0 cycles");
    assert_eq!(p2.cycles, 1302, "2-cluster penalty-2 cycles");
    assert_eq!(p4.cycles, 2104, "2-cluster penalty-4 cycles");
    // ~500 of the ~550 dynamic instructions sit on the cross-iteration
    // chain; at penalty p each link's wakeup arrives p cycles after the
    // producer's writeback, so total cycles grow by roughly p per link.
    assert!(p2.cycles > p0.cycles + 400, "penalty 2 must slow the chain");
    assert!(p4.cycles > p2.cycles + 400, "penalty 4 must slow it further");
    assert_eq!(p0.clusters[0].bypass_stalls + p0.clusters[1].bypass_stalls, 0);
    assert!(
        p2.clusters[0].bypass_stalls + p2.clusters[1].bypass_stalls > 400,
        "most chain links wait on a delayed remote wakeup"
    );
    for stats in [&p0, &p2, &p4] {
        assert_eq!(stats.committed, trace.len() as u64);
        assert_eq!(stats.clusters[0].issued + stats.clusters[1].issued, stats.dispatched);
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }
}

#[test]
fn dead_steering_under_a_full_cheap_cluster_iq_is_cycle_exact() {
    // Four oracle-dead `slt`s per iteration, all steered into the cheap
    // cluster, whose IQ slice is a single entry (2-entry global queue split
    // two ways) drained by a single ALU: dispatch must back up on the full
    // cheap slice, be charged `iq_full_stalls`, and still commit everything
    // in a pinned number of cycles.
    let trace = dead_slt_loop(4, 60);
    let mut cfg = PipelineConfig::clustered(ClusterConfig {
        clusters: 2,
        bypass_penalty: 2,
        steer: SteerPolicy::DeadSteer,
    });
    cfg.iq_entries = 2;
    cfg.dead.oracle = true; // policy stays Off: steer, never squash
    let stats = run(&trace, cfg);
    assert_eq!(stats.cycles, 480, "full-cheap-IQ cycles");
    assert_eq!(stats.committed, trace.len() as u64);
    assert!(stats.iq_full_stalls > 0, "the 1-entry cheap slice must stall dispatch");
    assert!(stats.steer.dead > 200, "4 dead slts x 59 warm iterations steer to the cheap cluster");
    assert_eq!(stats.clusters[1].steered_dead, stats.steer.dead);
    assert_eq!(stats.steer.dead_wrong, 0, "the oracle never steers a live instruction");
    assert_eq!(stats.steer.squashed, 0, "nothing is eliminated with the policy off");
    assert_eq!(stats.dead_predicted, 0);
    assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
}

/// A loop of cold loads, each feeding a serial chain of `chain` dependent
/// `addi`s: every load walks a fresh 64-byte line of a zeroed array, so it
/// misses the L1D and the L2 and waits out the full memory latency while
/// its chain backs up behind it in the issue queue.
fn missing_loads_feeding_chains(chain: usize, iters: i64) -> Trace {
    let mut b = ProgramBuilder::new("misschain");
    let array = b.data_zeros(64 * iters as usize);
    b.li_u64(Reg::T3, array);
    b.li(Reg::T0, 0);
    b.li(Reg::T1, iters);
    b.li(Reg::T4, 0);
    let top = b.label();
    b.bind(top);
    b.ld(Reg::T2, Reg::T3, 0);
    for _ in 0..chain {
        b.addi(Reg::T2, Reg::T2, 1);
    }
    b.add(Reg::T4, Reg::T4, Reg::T2);
    b.addi(Reg::T3, Reg::T3, 64);
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.out(Reg::T4);
    b.halt();
    Emulator::new(&b.build().unwrap()).run().unwrap()
}

#[test]
fn memory_missing_loads_feeding_round_robined_chains_are_cycle_exact() {
    // Round-robin over two clusters alternates the links of each chain
    // between the clusters, so every link behind a missing load waits out
    // the 4-cycle bypass. Meanwhile the chains fill both 8-entry IQ slices
    // (64 physical registers keep the free list from binding first, bar a
    // handful of cycles), and rename stalls on them for most of each
    // memory round-trip. These long idle windows — full IQ, nothing ready,
    // completions and remote wakeups far off — are exactly the ones an
    // idle-cycle skip-ahead jumps over.
    let trace = missing_loads_feeding_chains(6, 40);
    let mut cfg = PipelineConfig::clustered(ClusterConfig {
        clusters: 2,
        bypass_penalty: 4,
        steer: SteerPolicy::RoundRobin,
    });
    cfg.phys_regs = 64;
    let stats = run(&trace, cfg);
    assert_eq!(stats.committed, trace.len() as u64);
    assert_eq!(stats.memory.memory_accesses, 42, "40 cold data lines + 2 instruction lines");
    assert_eq!(stats.cycles, 1920, "cycles");
    assert_eq!(stats.fetch_stall_cycles, 1860, "fetch stall cycles");
    assert_eq!(stats.iq_full_stalls, 1692, "IQ-full stalls");
    assert_eq!(stats.no_phys_stalls, 5, "no-free-register stalls");
    assert_eq!(stats.iq_occupancy_sum, 27677, "IQ occupancy sum");
    assert_eq!(stats.clusters[0].bypass_stalls, 192, "cluster 0 bypass stalls");
    assert_eq!(stats.clusters[1].bypass_stalls, 192, "cluster 1 bypass stalls");
    // Each miss costs ~95 cycles (L1D + L2 + memory), so the run is
    // latency-bound at 48 cycles per iteration, most of them with rename
    // blocked on a full IQ.
    assert!(stats.iq_full_stalls > stats.cycles * 3 / 4, "IQ-bound");
    assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
}
