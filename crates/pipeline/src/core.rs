//! The cycle loop: rename, dispatch, issue, execute, commit — with
//! dead-instruction elimination — over one or more execution clusters.
//!
//! Each cluster owns an issue-queue slice and a function-unit pool; the
//! unified machine (`cluster: None`) is the one-cluster case. The ROB,
//! rename map, free list, commit stage, load/store queues and physical
//! register storage stay global on every machine (DESIGN.md §11).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use dide_analysis::{DeadnessAnalysis, StreamedDeadness, Verdict};
use dide_emu::{MemAccess, PagedShadow, Trace, TraceStream};
use dide_isa::{Program, Reg};
use dide_mem::MemoryHierarchy;
use dide_obs::EventKind;
use dide_predictor::dead::{CfiDeadPredictor, DeadPredictor, OracleDeadPredictor, PredictInput};
use dide_predictor::future::CfSignature;

use crate::config::{EliminationPolicy, FuConfig, PipelineConfig, SteerPolicy};
use crate::frontend::{FetchBlock, Frontend};
use crate::fu::{FuClass, FuPool};
use crate::iq::{IqEntry, IssueQueue};
use crate::lsq::LoadStoreQueues;
use crate::predecode::{predecode, PreDec};
use crate::regfile::{PhysReg, PhysRegFile};
use crate::rename::{Mapping, RenameMap};
use crate::rob::{DestInfo, Rob, RobEntry};
use crate::source::RecordSource;
use crate::stats::{ClusterStats, PipelineStats, SteerStats};
use crate::wheel::{Completion, CompletionQueue};

/// The out-of-order core.
///
/// See the [crate docs](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct Core {
    config: PipelineConfig,
}

/// A structural resource that blocks rename, naming the stall counter it
/// bumps — once per blocked attempt, or once per skipped idle cycle.
#[derive(Debug, Clone, Copy)]
enum RenameStall {
    RobFull,
    IqFull,
    LsqFull,
    NoPhys,
}

impl RenameStall {
    /// What blocks dispatching `pre` into an issue-queue slice that is or
    /// is not full, checked in rename's order: IQ, LSQ, free register.
    fn dispatch(
        iq_full: bool,
        pre: &PreDec,
        lsq: &LoadStoreQueues,
        regs: &PhysRegFile,
    ) -> Option<RenameStall> {
        if iq_full {
            Some(RenameStall::IqFull)
        } else if (pre.is_load && lsq.lq_full()) || (pre.is_store && lsq.sq_full()) {
            Some(RenameStall::LsqFull)
        } else if pre.dest.is_some() && regs.free_count() == 0 {
            Some(RenameStall::NoPhys)
        } else {
            None
        }
    }

    fn counter(self, stats: &mut PipelineStats) -> &mut u64 {
        match self {
            RenameStall::RobFull => &mut stats.rob_full_stalls,
            RenameStall::IqFull => &mut stats.iq_full_stalls,
            RenameStall::LsqFull => &mut stats.lsq_full_stalls,
            RenameStall::NoPhys => &mut stats.no_phys_stalls,
        }
    }
}

/// A pending cross-cluster wakeup: at `cycle`, generation `gen` of register
/// `reg` becomes visible to cluster `cluster`. Ordered by the full tuple so
/// the calendar drains deterministically.
type RemoteWakeup = Reverse<(u64, u16, u32, u8)>;

/// The delayed inter-cluster bypass network: a value wakes its producing
/// cluster's consumers at writeback and every other cluster's `penalty`
/// cycles later. It exists only with several clusters and a nonzero
/// penalty; otherwise every cluster sees a value at writeback, so operand
/// visibility is the register file's global ready bit.
struct Bypass {
    penalty: u64,
    /// Per physical register, one bit per cluster (at most 8) that its
    /// current value is visible to.
    visible: Vec<u8>,
    /// Allocation generation per physical register. A register can be
    /// freed at commit and re-allocated while a remote wakeup for its
    /// previous value is still in flight; the generation check discards
    /// exactly those stale events.
    gen: Vec<u32>,
    /// Remote wakeups in flight.
    calendar: BinaryHeap<RemoteWakeup>,
}

impl Bypass {
    fn new(penalty: u32, phys_regs: usize) -> Bypass {
        let mut visible = vec![0; phys_regs];
        visible[..Reg::COUNT].fill(u8::MAX);
        Bypass {
            penalty: u64::from(penalty),
            visible,
            gen: vec![0; phys_regs],
            calendar: BinaryHeap::new(),
        }
    }

    fn is_visible(&self, cluster: usize, p: PhysReg) -> bool {
        self.visible[p.0 as usize] & (1 << cluster) != 0
    }

    /// Makes `p` visible to `cluster` and wakes that cluster's waiters on
    /// it; returns how many woke.
    fn deliver(&mut self, cluster: usize, p: PhysReg, iq: &mut IssueQueue) -> u32 {
        self.visible[p.0 as usize] |= 1 << cluster;
        iq.wakeup(p)
    }

    /// Allocation: the new value is visible to `clusters` (a bitmask), and
    /// any remote wakeup still in flight for the register's previous value
    /// goes stale.
    fn on_alloc(&mut self, p: PhysReg, clusters: u8) {
        self.visible[p.0 as usize] = clusters;
        self.gen[p.0 as usize] = self.gen[p.0 as usize].wrapping_add(1);
    }

    /// Writeback of `p` produced in cluster `home`: local consumers wake
    /// now, every other cluster's after the penalty.
    fn writeback(&mut self, p: PhysReg, home: usize, now: u64, iqs: &mut [IssueQueue]) {
        self.deliver(home, p, &mut iqs[home]);
        let gen = self.gen[p.0 as usize];
        for k in (0..iqs.len()).filter(|&k| k != home) {
            self.calendar.push(Reverse((now + self.penalty, p.0, gen, k as u8)));
        }
    }

    /// Delivers the remote wakeups due at `now`, charging each waiter they
    /// wake as one bypass stall of its cluster.
    fn drain_due(&mut self, now: u64, iqs: &mut [IssueQueue], clusters: &mut [ClusterStats]) {
        while let Some(&Reverse((cycle, reg, gen, k))) = self.calendar.peek() {
            if cycle > now {
                break;
            }
            self.calendar.pop();
            if self.gen[reg as usize] == gen {
                let k = usize::from(k);
                let woken = self.deliver(k, PhysReg(reg), &mut iqs[k]);
                clusters[k].bypass_stalls += u64::from(woken);
            }
        }
    }

    /// The cycle of the earliest remote wakeup in flight.
    fn next_cycle(&self) -> Option<u64> {
        self.calendar.peek().map(|&Reverse((cycle, ..))| cycle)
    }
}

/// Marks `seq` (stored as `seq + 1`; 0 = no owner) as the last store to
/// claim each byte of `mem` in the core's rename-order shadow table.
fn claim_store_bytes(shadow: &mut PagedShadow<u64>, seq: u64, mem: MemAccess) {
    let len = mem.width.bytes();
    let claimed = seq + 1;
    if !PagedShadow::<u64>::crosses_page(mem.addr, len) {
        shadow.span_mut(mem.addr, len).fill(claimed);
    } else {
        for byte in mem.bytes() {
            shadow.set(byte, claimed);
        }
    }
}

/// Scans `mem`'s bytes in access order for the first one whose producing
/// store sits in `eliminated`; removes that store and reports the hit.
///
/// This replicates the producer-table walk it replaced (probing the
/// analysis' per-load store-producer list, which listed producers in
/// first-occurrence byte order, against `eliminated` in order): rename
/// visits instructions in the same program order the analysis' forward
/// pass did, so the shadow holds the same byte→store map the analysis saw,
/// and removing an absent seq is a no-op — scanning the bytes in order
/// (skipping consecutive duplicates) removes exactly the same store, or
/// none, as the producer-table walk did.
fn take_eliminated_producer(
    shadow: &PagedShadow<u64>,
    eliminated: &mut HashSet<u64>,
    mem: MemAccess,
) -> bool {
    let len = mem.width.bytes();
    let mut last = 0u64;
    if !PagedShadow::<u64>::crosses_page(mem.addr, len) {
        if let Some(cells) = shadow.span(mem.addr, len) {
            for &cell in cells {
                if cell != 0 && cell != last {
                    last = cell;
                    if eliminated.remove(&(cell - 1)) {
                        return true;
                    }
                }
            }
        }
    } else {
        for byte in mem.bytes() {
            let cell = shadow.get(byte);
            if cell != 0 && cell != last {
                last = cell;
                if eliminated.remove(&(cell - 1)) {
                    return true;
                }
            }
        }
    }
    false
}

impl Core {
    /// Creates a core with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`PipelineConfig::validate`]).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Core {
        config.validate();
        Core { config }
    }

    /// The core's configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Simulates the trace to completion and returns the run's statistics.
    ///
    /// The oracle `analysis` is used only for commit-time predictor
    /// training and for scoring (never for making predictions); it must
    /// have been computed from this same `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `analysis` does not match `trace`, or if the simulation
    /// exceeds its deadlock guard (which would indicate a model bug).
    #[must_use]
    pub fn run(&self, trace: &Trace, analysis: &DeadnessAnalysis) -> PipelineStats {
        self.run_observed(trace, analysis, None)
    }

    /// [`Core::run`] with an optional cycle-event trace attached.
    ///
    /// With `events = None` (what [`Core::run`] passes) the loop pays one
    /// branch per hook and records nothing — architectural results are
    /// bit-identical either way, which `dide bench` asserts. With a trace
    /// attached, occupancy is sampled every
    /// [`EventsConfig::sample_every`](dide_obs::EventsConfig) cycles and
    /// predictor verdicts, eliminations and dead-tag violations are
    /// recorded as they retire through rename.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Core::run`].
    #[must_use]
    pub fn run_observed(
        &self,
        trace: &Trace,
        analysis: &DeadnessAnalysis,
        events: Option<&mut dide_obs::EventTrace>,
    ) -> PipelineStats {
        assert_eq!(
            analysis.verdicts().len(),
            trace.len(),
            "analysis must come from the same trace"
        );
        self.run_loop(
            trace.program(),
            RecordSource::Slice(trace.records()),
            analysis.verdicts(),
            events,
        )
    }

    /// Simulates a streamed trace to completion: the same cycle loop as
    /// [`Core::run`], but fetch pulls epochs out of `stream` on demand and
    /// commit releases them once the ROB has drained past, so peak retained
    /// trace memory stays bounded by the in-flight window (at most
    /// ROB + fetch-buffer records, rounded up to whole epochs) regardless
    /// of trace length.
    ///
    /// `deadness` must come from [`DeadnessAnalysis::analyze_streamed`] on
    /// the same program under the same emulator limits — the analysis pass
    /// runs first, and its verdict vector also tells this loop the trace
    /// length. When that analysis was single-epoch its verdicts equal the
    /// exact oracle's, and this run's statistics are bit-identical to
    /// [`Core::run`] on the materialized trace.
    ///
    /// `stream` must be freshly constructed: nothing produced or released.
    ///
    /// # Panics
    ///
    /// Panics if `stream` and `deadness` disagree about the trace, or if
    /// the simulation exceeds its deadlock guard.
    #[must_use]
    pub fn run_streamed(
        &self,
        stream: &mut TraceStream<'_>,
        deadness: &StreamedDeadness,
    ) -> PipelineStats {
        self.run_streamed_observed(stream, deadness, None)
    }

    /// [`Core::run_streamed`] with an optional cycle-event trace attached
    /// (see [`Core::run_observed`] for the tracing contract).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Core::run_streamed`].
    #[must_use]
    pub fn run_streamed_observed(
        &self,
        stream: &mut TraceStream<'_>,
        deadness: &StreamedDeadness,
        events: Option<&mut dide_obs::EventTrace>,
    ) -> PipelineStats {
        let program = stream.program();
        let stats =
            self.run_loop(program, RecordSource::Stream(stream), deadness.verdicts(), events);
        assert_eq!(
            stream.total_len(),
            Some(deadness.len() as u64),
            "deadness must come from an analysis of the streamed program"
        );
        stats
    }

    /// The cycle loop, generic over where records come from. `verdicts` is
    /// always full-length — the analysis pass precedes the pipeline pass
    /// even when the trace itself is streamed — and supplies the trace
    /// length, the oracle predictor's answers, and commit-time training
    /// labels.
    fn run_loop(
        &self,
        program: &Program,
        mut source: RecordSource<'_, '_>,
        verdicts: &[Verdict],
        mut events: Option<&mut dide_obs::EventTrace>,
    ) -> PipelineStats {
        let cfg = &self.config;
        let total = verdicts.len() as u64;
        let (n, penalty, policy) = match cfg.cluster {
            Some(c) => (c.clusters, c.bypass_penalty, c.steer),
            None => (1, 0, SteerPolicy::RoundRobin),
        };
        let elim_on = cfg.dead.policy.enabled();
        // `DeadSteer` without elimination still needs dead predictions — to
        // steer on, not to squash on. Predecode eligibility (which drives
        // signatures, prediction and commit-time training) is computed under
        // the full policy; the actual `cfg.dead.policy` stays `Off`, so
        // nothing is ever eliminated and no dead-tag mapping can exist.
        let mut effective = *cfg;
        if policy == SteerPolicy::DeadSteer && !elim_on {
            effective.dead.policy = EliminationPolicy::RegAndStore;
        }
        let predec = predecode(program, &effective);
        let track_stores = cfg.dead.policy.covers_stores();

        let mut stats = PipelineStats::default();
        let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);
        let mut frontend = Frontend::new(cfg, &predec);
        let mut regs = PhysRegFile::new(cfg.phys_regs, Reg::COUNT);
        let mut map = RenameMap::new();
        let mut rob = Rob::new(cfg.rob_entries);
        let mut lsq = LoadStoreQueues::new(cfg.lq_entries, cfg.sq_entries);
        // Per-cluster slices of the issue queue and the function units,
        // each floored at one entry or unit.
        let mut iqs = vec![IssueQueue::new((cfg.iq_entries / n).max(1), cfg.phys_regs); n];
        let fu = FuConfig {
            alus: (cfg.fu.alus / n).max(1),
            muls: (cfg.fu.muls / n).max(1),
            divs: (cfg.fu.divs / n).max(1),
            mem_ports: (cfg.fu.mem_ports / n).max(1),
            ..cfg.fu
        };
        let mut fus = vec![FuPool::new(fu); n];
        let mut bypass = (n > 1 && penalty > 0).then(|| Bypass::new(penalty, cfg.phys_regs));
        // Cluster that produces (or last produced) each register's value.
        let mut producer = vec![0u8; cfg.phys_regs];
        // Exported only by a clustered machine.
        let mut clusters = vec![ClusterStats::default(); n];
        let mut steering = SteerStats::default();
        let mut predictor: Box<dyn DeadPredictor> = if cfg.dead.oracle {
            Box::new(OracleDeadPredictor::from_verdicts(verdicts))
        } else {
            Box::new(CfiDeadPredictor::new(cfg.dead.predictor))
        };
        let mut completions = CompletionQueue::new();
        let mut eliminated_stores: HashSet<u64> = HashSet::new();
        // Last store (as `seq + 1`, 0 = none) to claim each byte, written at
        // rename in program order: the core's own producer tracking for the
        // eliminated-store violation check, since no analysis, exact or
        // streamed, keeps a producer table.
        let mut store_shadow: PagedShadow<u64> = PagedShadow::new();
        let mut rename_stalled_until = 0u64;
        // Round-robin steering cursor, advanced only on a dispatch it
        // placed, so stalled attempts do not skew the rotation.
        let mut rr = 0usize;
        // Issue candidates (seq, slot, cluster), reused across cycles.
        let mut ready_scratch: Vec<(u64, u32, u8)> = Vec::new();

        let mut committed = 0u64;
        let mut now = 0u64;
        let deadlock_guard = 10_000u64.saturating_add(total.saturating_mul(1_000));

        while committed < total {
            assert!(
                now < deadlock_guard,
                "pipeline deadlock: {committed}/{total} committed after {now} cycles \
                 (rob {}/{}, iq {:?} of {}, lq {}/{}, sq {}/{}, free regs {}, remote wakeups {})",
                rob.len(),
                cfg.rob_entries,
                iqs.iter().map(IssueQueue::len).collect::<Vec<_>>(),
                cfg.iq_entries,
                lsq.lq_len(),
                cfg.lq_entries,
                lsq.sq_len(),
                cfg.sq_entries,
                regs.free_count(),
                bypass.as_ref().map_or(0, |b| b.calendar.len()),
            );

            // ---- cross-cluster wakeups due this cycle ----
            // Drained before writeback: every due event was scheduled at
            // least one cycle ago (penalty >= 1), so the two never race
            // within a cycle.
            if let Some(b) = &mut bypass {
                b.drain_due(now, &mut iqs, &mut clusters);
            }

            // ---- writeback: drain completions due this cycle ----
            // `pop_due` yields same-cycle completions in ascending seq
            // order (see wheel.rs for why that pinning is benign).
            while let Some(c) = completions.pop_due(now) {
                rob.complete(c.seq);
                if let Some(p) = c.dest {
                    regs.set_ready(p);
                    stats.rf_writes += 1;
                    match &mut bypass {
                        Some(b) => {
                            b.writeback(p, usize::from(producer[p.0 as usize]), now, &mut iqs)
                        }
                        None => {
                            for iq in &mut iqs {
                                iq.wakeup(p);
                            }
                        }
                    }
                }
                if c.is_store {
                    lsq.store_executed(c.seq);
                }
                if frontend.pending_branch() == Some(c.seq) {
                    frontend.resolve_branch(c.seq, now);
                }
            }

            // ---- commit ----
            for _ in 0..cfg.commit_width {
                let Some(head) = rob.head() else { break };
                if !head.completed {
                    break;
                }
                let e = rob.pop().expect("head exists");
                if let Some(d) = e.dest {
                    if let Mapping::Phys(p) = d.prev {
                        regs.free(p);
                        stats.phys_frees += 1;
                    }
                }
                if e.is_cond_branch {
                    stats.branches += 1;
                }
                if e.is_load && !e.eliminated {
                    lsq.pop_load(e.seq);
                }
                if e.is_store {
                    if e.eliminated {
                        stats.savings.dcache_accesses_saved += 1;
                    } else {
                        lsq.pop_store(e.seq);
                        let mem = source.get(e.seq).mem().expect("stores carry an access");
                        hierarchy.access_data(mem.addr, true);
                    }
                }
                // Audit dead-steering against the oracle: a live instruction
                // routed to the cheap cluster paid latency it should not
                // have. Zero by construction under the oracle predictor.
                if e.steered_dead && !verdicts[e.seq as usize].is_dead() {
                    steering.dead_wrong += 1;
                }
                if e.eligible {
                    let was_dead = verdicts[e.seq as usize].is_dead();
                    let input = PredictInput {
                        seq: e.seq,
                        static_index: source.get(e.seq).index,
                        signature: e.signature,
                    };
                    predictor.train(&input, was_dead);
                    if was_dead {
                        stats.oracle_dead_committed += 1;
                    }
                    if e.eliminated {
                        stats.dead_predicted += 1;
                        stats.dead_predicted_correct += u64::from(was_dead);
                    }
                }
                committed += 1;
                stats.committed += 1;
            }
            // Nothing before the commit head is ever read again: a
            // streaming source recycles the epochs the ROB drained past.
            source.release_before(committed);

            // ---- issue / execute ----
            // Select visits only *ready* entries, oldest first across every
            // cluster under the global issue width. Each slice lists its
            // ready entries in age order, so only a merge of several slices
            // needs a sort.
            let mut issued = 0usize;
            ready_scratch.clear();
            for (k, (iq, fus)) in iqs.iter().zip(&mut fus).enumerate() {
                fus.begin_cycle();
                iq.collect_ready(k as u8, &mut ready_scratch);
            }
            if n > 1 {
                ready_scratch.sort_unstable_by_key(|&(seq, ..)| seq);
            }
            for &(seq, slot, k) in &ready_scratch {
                if issued == cfg.issue_width {
                    break;
                }
                // FU availability first: it is a pure counter check, and
                // skipping it saves the (pricier) LSQ probe for loads once
                // the memory ports are exhausted. The probe is
                // side-effect-free, so swapping the check order changes no
                // outcome.
                let k = usize::from(k);
                let e = iqs[k].entry(slot);
                let fu = e.fu;
                if !fus[k].can_issue(fu, now) {
                    continue;
                }
                let mem = e.is_load.then(|| source.get(seq).mem().expect("loads carry an access"));
                if mem.is_some_and(|mem| !lsq.load_may_issue(seq, mem)) {
                    continue;
                }
                let base_latency = fus[k].try_issue(fu, now).expect("availability checked above");
                let latency = match mem {
                    // The cache is probed either way; a store-to-load
                    // forward shortcuts the latency.
                    Some(mem) => {
                        let access = hierarchy.access_data(mem.addr, false);
                        if lsq.load_forwards(seq, mem) {
                            2
                        } else {
                            1 + access
                        }
                    }
                    None => base_latency, // store: address generation only
                };
                stats.rf_reads += e.srcs.iter().flatten().count() as u64;
                completions.push(Completion {
                    cycle: now + u64::from(latency),
                    seq,
                    dest: e.dest,
                    is_store: fu == FuClass::Mem && !e.is_load,
                });
                iqs[k].remove(slot);
                clusters[k].issued += 1;
                issued += 1;
            }

            // ---- rename / dispatch / steer ----
            if now >= rename_stalled_until {
                'rename: for _ in 0..cfg.rename_width {
                    let Some(seq) = frontend.peek_ready(now) else { break };
                    if rob.is_full() {
                        stats.rob_full_stalls += 1;
                        break;
                    }
                    let r = source.get(seq);
                    let pre = &predec[r.index as usize];
                    let dest = pre.dest;
                    let is_store = pre.is_store;
                    let is_load = pre.is_load;

                    let eligible = pre.eligible;
                    let signature = if eligible {
                        frontend.signature(seq, cfg.dead.lookahead)
                    } else {
                        CfSignature::empty()
                    };
                    let input = PredictInput { seq, static_index: r.index, signature };
                    let predicted_dead = eligible && predictor.predict(&input);
                    // With elimination on, a dead prediction squashes (the
                    // paper's mechanism); with it off under `DeadSteer`, the
                    // same prediction steers to the cheap cluster instead.
                    let eliminate = predicted_dead && elim_on;
                    let steer_dead = predicted_dead && !elim_on;
                    if eligible {
                        if let Some(tr) = events.as_deref_mut() {
                            tr.record(now, EventKind::Verdict { seq, predicted_dead });
                        }
                    }

                    let mut srcs = [None, None];
                    if !eliminate {
                        // Map sources, detecting dead-tag violations (this
                        // instruction actually reads its sources) in the
                        // same pass.
                        let mut violated = false;
                        for (i, &src) in pre.srcs.iter().flatten().enumerate() {
                            match map.get(src) {
                                Mapping::Phys(p) => srcs[i] = Some(p),
                                Mapping::Dead(_) => {
                                    // Recovery re-executes the producer: it
                                    // needs a register for the materialized
                                    // value.
                                    let Some(p) = regs.alloc() else {
                                        stats.no_phys_stalls += 1;
                                        break 'rename;
                                    };
                                    stats.phys_allocs += 1;
                                    // The value materializes outside any
                                    // cluster's datapath: ready and visible
                                    // everywhere at once, like the initial
                                    // architectural mappings.
                                    regs.set_ready(p);
                                    if let Some(b) = &mut bypass {
                                        b.on_alloc(p, u8::MAX);
                                    }
                                    // No in-flight entry can reference a reg
                                    // straight off the free list, but keep the
                                    // set_ready → wakeup pairing uniform.
                                    for iq in &mut iqs {
                                        iq.wakeup(p);
                                    }
                                    map.set(src, Mapping::Phys(p));
                                    violated = true;
                                    break;
                                }
                            }
                        }
                        // Loads can also trip over eliminated stores. (The
                        // emptiness guard keeps elimination-off runs from
                        // probing the shadow on every load.)
                        violated = violated
                            || (is_load
                                && !eliminated_stores.is_empty()
                                && take_eliminated_producer(
                                    &store_shadow,
                                    &mut eliminated_stores,
                                    r.mem().expect("loads carry an access"),
                                ));
                        if violated {
                            stats.dead_violations += 1;
                            if let Some(tr) = events.as_deref_mut() {
                                tr.record(now, EventKind::Violation { seq });
                            }
                            rename_stalled_until = now + u64::from(cfg.dead.violation_penalty);
                            break;
                        }
                    }

                    let dest_info = if eliminate {
                        // The instruction vanishes: no physical register,
                        // no issue-queue slot in any cluster, no execution,
                        // no cache access. It retires through the ROB for
                        // precise state and trains the predictor at commit.
                        stats.savings.phys_allocs_saved += u64::from(dest.is_some());
                        stats.savings.iq_slots_saved += 1;
                        stats.savings.rf_writes_saved += u64::from(dest.is_some());
                        stats.savings.rf_reads_saved += pre.srcs.iter().flatten().count() as u64;
                        if is_load {
                            stats.savings.dcache_accesses_saved += 1;
                        }
                        if is_store {
                            eliminated_stores.insert(seq);
                            // An eliminated store still architecturally
                            // produced its bytes: claim them so later loads
                            // can trip the violation check above.
                            claim_store_bytes(
                                &mut store_shadow,
                                seq,
                                r.mem().expect("stores carry an access"),
                            );
                        }
                        if let Some(tr) = events.as_deref_mut() {
                            tr.record(now, EventKind::Eliminated { seq });
                        }
                        steering.squashed += 1;
                        dest.map(|arch| DestInfo { prev: map.set(arch, Mapping::Dead(seq)) })
                    } else {
                        // Steering picks the target cluster before the
                        // structural checks, which are then per-cluster for
                        // the issue queue.
                        let (cluster, rotated) = match policy {
                            _ if n == 1 => (0, false),
                            _ if steer_dead => (n - 1, false),
                            SteerPolicy::RoundRobin => (rr % n, true),
                            // Follow the cluster producing the first still
                            // in-flight source; nothing in flight means no
                            // forward to save, so fall back to rotation.
                            SteerPolicy::DependenceAffinity => {
                                match srcs.iter().flatten().find(|p| !regs.is_ready(**p)) {
                                    Some(p) => (usize::from(producer[p.0 as usize]), false),
                                    None => (rr % n, true),
                                }
                            }
                            // Live instructions rotate over all but the
                            // cheap cluster.
                            SteerPolicy::DeadSteer => (rr % (n - 1), true),
                        };
                        if let Some(stall) =
                            RenameStall::dispatch(iqs[cluster].is_full(), pre, &lsq, &regs)
                        {
                            *stall.counter(&mut stats) += 1;
                            break;
                        }
                        let mut dest_phys = None;
                        let dest_info = dest.map(|arch| {
                            let p = regs.alloc().expect("free count checked above");
                            stats.phys_allocs += 1;
                            producer[p.0 as usize] = cluster as u8;
                            if let Some(b) = &mut bypass {
                                b.on_alloc(p, 0);
                            }
                            dest_phys = Some(p);
                            DestInfo { prev: map.set(arch, Mapping::Phys(p)) }
                        });
                        if is_load {
                            lsq.push_load(seq);
                        }
                        if is_store {
                            let mem = r.mem().expect("stores carry an access");
                            lsq.push_store(seq, mem);
                            if track_stores {
                                claim_store_bytes(&mut store_shadow, seq, mem);
                            }
                        }
                        let entry = IqEntry { seq, srcs, fu: pre.fu, is_load, dest: dest_phys };
                        // Readiness in a cluster is *visibility*: behind a
                        // delayed bypass, a ready remote value still in
                        // flight counts as pending there.
                        match &bypass {
                            Some(b) => iqs[cluster].push(entry, |p| b.is_visible(cluster, p)),
                            None => iqs[cluster].push(entry, |p| regs.is_ready(p)),
                        }
                        clusters[cluster].dispatched += 1;
                        if steer_dead {
                            steering.dead += 1;
                            clusters[cluster].steered_dead += 1;
                        } else {
                            steering.normal += 1;
                        }
                        if rotated {
                            rr += 1;
                        }
                        dest_info
                    };
                    stats.dispatched += 1;
                    rob.push(RobEntry {
                        seq,
                        dest: dest_info,
                        eliminated: eliminate,
                        completed: eliminate,
                        is_load,
                        is_store,
                        is_cond_branch: pre.is_cond_branch,
                        eligible,
                        steered_dead: steer_dead,
                        signature,
                    });
                    frontend.pop(seq);
                }
            }

            // ---- fetch ----
            frontend.fetch(now, &mut source, &mut hierarchy, &mut stats);

            // Occupancy accounting (end-of-cycle snapshot).
            let iq_len: usize = iqs.iter().map(IssueQueue::len).sum();
            stats.rob_occupancy_sum += rob.len() as u64;
            stats.iq_occupancy_sum += iq_len as u64;
            // Registers in use beyond the architectural baseline; dead-tag
            // mappings hold no register, so this can dip below 32 — clamp.
            stats.phys_used_sum +=
                (cfg.phys_regs - regs.free_count()).saturating_sub(Reg::COUNT) as u64;
            if let Some(tr) = events.as_deref_mut() {
                if tr.should_sample(now) {
                    tr.record(
                        now,
                        EventKind::Sample {
                            rob: rob.len() as u32,
                            iq: iq_len as u32,
                            lq: lsq.lq_len() as u32,
                            sq: lsq.sq_len() as u32,
                            free_regs: regs.free_count() as u32,
                        },
                    );
                }
            }

            now += 1;

            // ---- idle-cycle skip-ahead ----
            // When no stage can make progress, jump `now` to the next
            // cycle at which one can, replicating exactly the per-cycle
            // accounting the skipped no-op cycles would have performed.
            // Stage-by-stage, a cycle `t` in the skipped window is a no-op:
            //  * remote wakeups and writeback — the earliest pending remote
            //    wakeup and completion bound the target, so nothing is due
            //    before it;
            //  * commit — requires a *completed* ROB head, checked below;
            //    nothing completes in the window, and dispatch (which can
            //    push pre-completed eliminated entries) is blocked;
            //  * issue — requires a ready entry in some cluster, checked
            //    below; wakeups only happen at writeback or on a remote
            //    delivery, and dispatch is blocked;
            //  * rename — before `rename_wake`, rename is gated by its
            //    stall window or an empty/unready fetch buffer and touches
            //    no counter. From `rename_wake` on, the buffer-front
            //    instruction is presented every cycle; if a structural
            //    resource blocks it, the attempt's only side effect is one
            //    stall-counter bump, replicated below, and the window may
            //    extend past `rename_wake`. A full ROB qualifies
            //    unconditionally (the check precedes every other rename
            //    side effect, including the predictor verdict and its
            //    event). The IQ/LSQ/phys-reg checks qualify only when
            //    nothing is `eligible` under the effective predecode
            //    policy: the attempt then runs no predictor query, records
            //    no event, and the dead-tag scan is read-only, so re-running
            //    it every skipped cycle is observationally a counter bump.
            //    (Dead-steering with elimination off queries the predictor
            //    and steers on its verdict, so it never qualifies.) The
            //    steered cluster is frozen with the rest of the machine,
            //    but a full IQ is charged only when every slice is full:
            //    with some slices full, the steering decides which counter
            //    the attempt bumps. If no resource blocks, rename would
            //    dispatch: `rename_wake` bounds the target;
            //  * fetch — classified via `block_state`: blocked states only
            //    bump `fetch_stall_cycles` (replicated below); a state that
            //    would fetch forbids skipping outright.
            // All machine state is therefore frozen across the window and
            // the classification cannot change mid-window, except for
            // `Stalled`, whose expiry cycle also bounds the target.
            if committed < total
                && iqs.iter().all(|iq| iq.ready_count() == 0)
                && !rob.head().is_some_and(|h| h.completed)
            {
                let mut target = completions.next_cycle().unwrap_or(u64::MAX);
                if let Some(remote) = bypass.as_ref().and_then(Bypass::next_cycle) {
                    target = target.min(remote);
                }
                let rename_wake = match frontend.next_ready_at() {
                    Some(ready_at) => ready_at.max(rename_stalled_until),
                    None => u64::MAX,
                };
                let blocked = if rob.is_full() {
                    Some(RenameStall::RobFull)
                } else if effective.dead.policy == EliminationPolicy::Off {
                    frontend.next_seq().and_then(|seq| {
                        // With only some slices full, the steering decides
                        // which counter the attempt bumps: do not qualify.
                        let full = iqs.iter().filter(|iq| iq.is_full()).count();
                        let pre = &predec[source.get(seq).index as usize];
                        (full == 0 || full == n)
                            .then(|| RenameStall::dispatch(full == n, pre, &lsq, &regs))
                            .flatten()
                    })
                } else {
                    None
                };
                if blocked.is_none() {
                    target = target.min(rename_wake);
                }
                let fetch_stalls = match frontend.block_state(now, &mut source) {
                    FetchBlock::Pending | FetchBlock::BufferFull => true,
                    FetchBlock::Stalled(until) => {
                        target = target.min(until);
                        true
                    }
                    FetchBlock::Exhausted => false,
                    FetchBlock::Progress => {
                        target = now; // fetch would advance: cannot skip
                        false
                    }
                };
                if let Some(tr) = events.as_deref() {
                    // Never skip over an occupancy-sample cycle; the loop
                    // body records it naturally once `now` lands there.
                    let every = tr.config().sample_every;
                    if every > 0 {
                        target = target.min(now.next_multiple_of(every));
                    }
                }
                if target > now && target != u64::MAX {
                    let skipped = target - now;
                    stats.rob_occupancy_sum += rob.len() as u64 * skipped;
                    stats.iq_occupancy_sum += iq_len as u64 * skipped;
                    stats.phys_used_sum +=
                        (cfg.phys_regs - regs.free_count()).saturating_sub(Reg::COUNT) as u64
                            * skipped;
                    if fetch_stalls {
                        stats.fetch_stall_cycles += skipped;
                    }
                    if rename_wake < target {
                        // Each skipped cycle from `rename_wake` on would
                        // have presented a ready instruction to rename and
                        // stalled on the blocking resource.
                        let stalled = target - rename_wake.max(now);
                        *blocked
                            .expect("an unblocked rename bounds the target")
                            .counter(&mut stats) += stalled;
                    }
                    now = target;
                }
            }
        }
        debug_assert!(frontend.drained(&mut source), "all instructions must pass through fetch");
        stats.cycles = now;
        stats.memory = hierarchy.stats();
        if cfg.cluster.is_some() {
            stats.clusters = clusters;
            stats.steer = steering;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeadElimConfig, EliminationPolicy};
    use dide_emu::Emulator;
    use dide_isa::ProgramBuilder;

    fn counted_loop_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.slt(Reg::T2, Reg::T0, Reg::T1); // dead on all but the last iteration
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        b.build().unwrap()
    }

    fn counted_loop(iters: i64) -> Trace {
        Emulator::new(&counted_loop_program(iters)).run().unwrap()
    }

    #[test]
    fn commits_every_instruction() {
        let t = counted_loop(200);
        let a = DeadnessAnalysis::analyze(&t);
        let stats = Core::new(PipelineConfig::baseline()).run(&t, &a);
        assert_eq!(stats.committed, t.len() as u64);
        assert_eq!(stats.dispatched, t.len() as u64);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.1, "ipc {}", stats.ipc());
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn loop_branch_is_predictable() {
        let t = counted_loop(500);
        let a = DeadnessAnalysis::analyze(&t);
        let stats = Core::new(PipelineConfig::baseline()).run(&t, &a);
        assert!(stats.branch_accuracy() > 0.95, "accuracy {}", stats.branch_accuracy());
    }

    #[test]
    fn elimination_reduces_register_traffic() {
        let t = counted_loop(2000);
        let a = DeadnessAnalysis::analyze(&t);
        let base = Core::new(PipelineConfig::baseline()).run(&t, &a);
        let elim_cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig::default());
        let elim = Core::new(elim_cfg).run(&t, &a);
        assert_eq!(elim.committed, base.committed);
        assert!(elim.dead_predicted > 500, "eliminated {}", elim.dead_predicted);
        assert!(elim.savings.phys_allocs_saved > 0);
        assert!(elim.phys_allocs < base.phys_allocs);
        assert!(elim.rf_writes < base.rf_writes);
        assert!(elim.elimination_accuracy() > 0.9, "accuracy {}", elim.elimination_accuracy());
        assert!(elim.invariant_violations().is_empty(), "{:?}", elim.invariant_violations());
    }

    fn store_load_loop(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new("memloop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.sd(Reg::T0, Reg::SP, -8);
        b.ld(Reg::T2, Reg::SP, -8);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    #[test]
    fn rob_pressure_shows_up_in_registry_counters() {
        // A 4-entry ROB wraps its ring dozens of times on a 300-iteration
        // loop; the registry must report the resulting backpressure while
        // every conservation law still holds.
        let t = counted_loop(300);
        let a = DeadnessAnalysis::analyze(&t);
        let mut cfg = PipelineConfig::baseline();
        cfg.rob_entries = 4;
        let stats = Core::new(cfg).run(&t, &a);
        let c = stats.counters();
        assert_eq!(c.expect("pipeline.committed"), t.len() as u64);
        assert!(c.expect("pipeline.rob_full_stalls") > 0, "tiny ROB must stall dispatch");
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn free_list_exhaustion_shows_up_in_registry_counters() {
        // Two spare physical registers: rename repeatedly drains the free
        // list and recycles registers freed at commit. The registry reports
        // the stalls, and frees stay bounded by allocs plus the initial
        // architectural mappings.
        let t = counted_loop(300);
        let a = DeadnessAnalysis::analyze(&t);
        let mut cfg = PipelineConfig::baseline();
        cfg.phys_regs = 34;
        let stats = Core::new(cfg).run(&t, &a);
        let c = stats.counters();
        assert_eq!(c.expect("pipeline.committed"), t.len() as u64);
        assert!(c.expect("pipeline.no_phys_stalls") > 0, "2 spare registers must stall rename");
        assert!(c.expect("pipeline.phys_allocs") > 0);
        assert!(
            c.expect("pipeline.phys_frees") <= c.expect("pipeline.phys_allocs") + Reg::COUNT as u64
        );
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn store_load_traffic_shows_up_in_registry_counters() {
        // Store-to-load forwarding pressure through a 1-entry store queue:
        // the LSQ stalls are counted, and the memory scope feeds the L1D
        // conservation rules (hits + misses == accesses).
        let t = store_load_loop(200);
        let a = DeadnessAnalysis::analyze(&t);
        let mut cfg = PipelineConfig::baseline();
        cfg.sq_entries = 1;
        let stats = Core::new(cfg).run(&t, &a);
        let c = stats.counters();
        assert_eq!(c.expect("pipeline.committed"), t.len() as u64);
        assert!(c.expect("pipeline.lsq_full_stalls") > 0, "1-entry SQ must stall dispatch");
        assert!(c.expect("pipeline.mem.l1d.accesses") >= 400, "each iteration touches the L1D");
        assert_eq!(
            c.expect("pipeline.mem.l1d.hits") + c.expect("pipeline.mem.l1d.misses"),
            c.expect("pipeline.mem.l1d.accesses")
        );
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn elimination_off_by_default_in_baseline() {
        let cfg = PipelineConfig::baseline();
        assert_eq!(cfg.dead.policy, EliminationPolicy::Off);
        let t = counted_loop(50);
        let a = DeadnessAnalysis::analyze(&t);
        let stats = Core::new(cfg).run(&t, &a);
        assert_eq!(stats.dead_predicted, 0);
        assert_eq!(stats.savings.phys_allocs_saved, 0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_records_events() {
        use dide_obs::{EventKind, EventTrace, EventsConfig};
        let t = counted_loop(600);
        let a = DeadnessAnalysis::analyze(&t);
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig::default());
        let core = Core::new(cfg);
        let plain = core.run(&t, &a);
        let mut events = EventTrace::new(EventsConfig { sample_every: 16, capacity: 512 });
        let observed = core.run_observed(&t, &a, Some(&mut events));
        assert_eq!(plain, observed, "tracing must not perturb architectural results");
        assert!(!events.is_empty());
        let kinds: Vec<&str> = events.events().iter().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"sample"));
        assert!(kinds.contains(&"verdict"));
        assert!(kinds.contains(&"eliminated"));
        let verdicts = events
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Verdict { predicted_dead: true, .. }))
            .count();
        assert!(verdicts > 0, "an eliminating run must record dead verdicts");
    }

    #[test]
    fn eliminated_stores_never_reach_the_store_queue() {
        // Each iteration's first store is overwritten before any load:
        // the oracle eliminates it at rename, so it must never be pushed
        // into the store queue or issued. If one ever leaked into the
        // execute path, writeback's `store_executed` would panic on the
        // absent sequence number (see lsq.rs) — this run completing is
        // the regression guard.
        let mut b = ProgramBuilder::new("deadstores");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 200);
        let top = b.label();
        b.bind(top);
        b.sd(Reg::T0, Reg::SP, -8); // dead: overwritten below, never read
        b.sd(Reg::T1, Reg::SP, -8);
        b.ld(Reg::T2, Reg::SP, -8);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        let t = Emulator::new(&b.build().unwrap()).run().unwrap();
        let a = DeadnessAnalysis::analyze(&t);
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig {
            policy: EliminationPolicy::StoreOnly,
            oracle: true,
            ..DeadElimConfig::default()
        });
        let stats = Core::new(cfg).run(&t, &a);
        assert_eq!(stats.committed, t.len() as u64);
        assert!(stats.dead_predicted > 0, "the oracle must eliminate the dead stores");
        assert!(
            stats.savings.dcache_accesses_saved > 0,
            "eliminated stores must skip the D-cache at commit"
        );
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
    }

    #[test]
    fn contended_machine_is_slower() {
        let t = counted_loop(1000);
        let a = DeadnessAnalysis::analyze(&t);
        let base = Core::new(PipelineConfig::baseline()).run(&t, &a);
        let tight = Core::new(PipelineConfig::contended()).run(&t, &a);
        assert!(tight.cycles >= base.cycles);
    }

    #[test]
    fn single_epoch_streamed_run_is_bit_identical() {
        // A single-epoch windowed analysis yields the exact verdicts, so
        // the streamed pipeline pass must reproduce the materialized run's
        // statistics bit for bit — elimination, training and all.
        let p = counted_loop_program(2000);
        let t = Emulator::new(&p).run().unwrap();
        let a = DeadnessAnalysis::analyze(&t);
        let cfg = PipelineConfig::baseline()
            .with_elimination(DeadElimConfig { oracle: true, ..DeadElimConfig::default() });
        let core = Core::new(cfg);
        let base = core.run(&t, &a);

        let epoch = 1 << 20; // whole trace in one epoch
        let sd = DeadnessAnalysis::analyze_streamed(&p, epoch).unwrap();
        let mut stream = TraceStream::new(&p, epoch);
        let streamed = core.run_streamed(&mut stream, &sd);
        assert_eq!(streamed, base, "single-epoch streamed run must be bit-identical");
    }

    #[test]
    fn streamed_run_window_stays_bounded() {
        // With many small epochs the stream must keep only the in-flight
        // window resident: ROB (128) + fetch buffer (32) records span at
        // most two 256-record epochs beyond the one being produced.
        let p = counted_loop_program(3000);
        let cfg = PipelineConfig::baseline()
            .with_elimination(DeadElimConfig { oracle: true, ..DeadElimConfig::default() });
        let core = Core::new(cfg);
        let sd = DeadnessAnalysis::analyze_streamed(&p, 256).unwrap();
        let mut stream = TraceStream::new(&p, 256);
        let stats = core.run_streamed(&mut stream, &sd);
        assert_eq!(stats.committed, sd.len() as u64);
        assert!(stats.invariant_violations().is_empty(), "{:?}", stats.invariant_violations());
        let chunks = stream.total_len().unwrap().div_ceil(256);
        assert!(chunks > 20, "the trace must span many epochs (got {chunks})");
        assert!(
            stream.peak_resident_chunks() <= 4,
            "peak window {} chunks of {chunks}",
            stream.peak_resident_chunks()
        );
    }

    #[test]
    fn streamed_violation_path_matches_materialized() {
        // A dead store whose bytes are read only by a dead-but-uneliminable
        // load: under a store-only oracle the store vanishes at rename and
        // the load must trip the dead-tag violation — through the core's
        // own store shadow, identically on both record paths.
        let mut b = ProgramBuilder::new("violating");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 150);
        let top = b.label();
        b.bind(top);
        b.sd(Reg::T0, Reg::SP, -8); // read only by the dead load: eliminated
        b.ld(Reg::T2, Reg::SP, -8); // result never used, not store-eligible
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T0);
        b.halt();
        let p = b.build().unwrap();
        let cfg = PipelineConfig::baseline().with_elimination(DeadElimConfig {
            policy: EliminationPolicy::StoreOnly,
            oracle: true,
            ..DeadElimConfig::default()
        });
        let core = Core::new(cfg);

        let t = Emulator::new(&p).run().unwrap();
        let a = DeadnessAnalysis::analyze(&t);
        let base = core.run(&t, &a);
        assert!(base.dead_violations > 0, "the dead load must read the eliminated store");
        assert!(base.invariant_violations().is_empty(), "{:?}", base.invariant_violations());

        let sd = DeadnessAnalysis::analyze_streamed(&p, 1 << 20).unwrap();
        let mut stream = TraceStream::new(&p, 1 << 20);
        assert_eq!(core.run_streamed(&mut stream, &sd), base);

        // Small epochs: verdicts are conservative, but the run still
        // commits everything and detects violations soundly.
        let sd = DeadnessAnalysis::analyze_streamed(&p, 64).unwrap();
        let mut stream = TraceStream::new(&p, 64);
        let small = core.run_streamed(&mut stream, &sd);
        assert_eq!(small.committed, base.committed);
        assert!(small.invariant_violations().is_empty(), "{:?}", small.invariant_violations());
    }
}
