//! Windowed (epoch-streamed) deadness analysis.
//!
//! [`DeadnessAnalysis::analyze_streamed`] labels a trace without ever
//! materializing it: the emulator delivers fixed-size epochs of records,
//! the forward pass consumes each epoch as it arrives, and the backward
//! transitive-deadness pass runs *per epoch*, carrying only a live-out
//! frontier across the boundary:
//!
//! * the pending last-writer seq per architectural register, and
//! * the byte-granular last-store shadow table (global seqs).
//!
//! Everything else — per-seq consumer stamps, live-byte counters, the
//! intra-epoch producer table — is discarded when the epoch is finalized,
//! so peak retained trace memory is one epoch regardless of trace length.
//!
//! # Soundness (streamed-dead ⊆ exact-dead, same kind)
//!
//! At the end of every non-final epoch, any value still *pending* — a
//! register whose writer has not been displaced, or a store with visible
//! bytes — **escapes**: it is conservatively finalized `Useful` (it may be
//! read by a future epoch; we do not wait to find out). Consequently a
//! record labelled dead by the windowed pass was fully displaced *within
//! its own epoch*, which means the exact analysis sees the very same
//! displacement and read events for it:
//!
//! * whether it was read, and its first-level kind, agree with the exact
//!   analysis, and
//! * every consumer that read it is intra-epoch (a value cannot be read
//!   after being fully displaced), so a `Transitive` verdict rests on
//!   consumers that are themselves streamed-dead — by induction
//!   exact-dead.
//!
//! Cross-epoch *read edges* are dropped entirely: a read whose producer
//! lives in an earlier epoch finds that producer already finalized
//! `Useful`, so the edge can no longer change any verdict. The final epoch
//! is finalized like the end of the program in the exact analysis (a value
//! still pending there was never overwritten), and a trace that fits in a
//! single epoch is delegated verbatim to
//! [`DeadnessAnalysis::analyze_records`], making the single-epoch streamed
//! run bit-identical to the materializing path.

use dide_emu::{DynInst, EmuError, Emulator, EmulatorConfig, MemAccess, PagedShadow, TraceChunk};
use dide_isa::{OpcodeKind, Program, Reg};

use crate::liveness::DeadnessAnalysis;
use crate::stats::DeadStats;
use crate::verdict::{DeadKind, Verdict};

/// The result of a windowed streaming analysis: per-seq verdicts (a sound
/// under-approximation of the exact oracle), aggregate counters, and the
/// streaming run's bookkeeping.
#[derive(Debug, Clone)]
pub struct StreamedDeadness {
    verdicts: Vec<Verdict>,
    stats: DeadStats,
    epochs: u64,
    epoch_len: usize,
    escaped: u64,
    outputs: Vec<u64>,
}

impl StreamedDeadness {
    /// The verdict for dynamic instruction `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range for the analyzed trace.
    #[must_use]
    pub fn verdict(&self, seq: u64) -> Verdict {
        self.verdicts[seq as usize]
    }

    /// Whether dynamic instruction `seq` is dead.
    #[must_use]
    pub fn is_dead(&self, seq: u64) -> bool {
        self.verdicts[seq as usize].is_dead()
    }

    /// All verdicts, indexed by seq.
    #[must_use]
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Aggregated deadness counters (for the windowed verdicts).
    #[must_use]
    pub fn stats(&self) -> &DeadStats {
        &self.stats
    }

    /// Trace length in dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether the trace was empty (it never is for a valid program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Number of epochs the trace was processed in.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Configured epoch length (records per epoch).
    #[must_use]
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    /// Eligible values conservatively finalized `Useful` because they were
    /// still pending at a (non-final) epoch boundary. Zero when the trace
    /// fits in one epoch; the gap between windowed and exact dead counts
    /// is bounded by this number.
    #[must_use]
    pub fn escaped(&self) -> u64 {
        self.escaped
    }

    /// Values written by `out`, in order (same as the materializing run).
    #[must_use]
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Peak retained *trace* memory of the analysis pass: one reused epoch
    /// buffer. (The verdict vector — 1 byte per record — is the analysis
    /// *output* and is excluded, as is the carried shadow frontier, which
    /// scales with the touched byte-address footprint, not trace length.)
    #[must_use]
    pub fn mem_peak_bytes(&self) -> u64 {
        self.epoch_len as u64 * std::mem::size_of::<DynInst>() as u64
    }
}

impl DeadnessAnalysis {
    /// Runs the windowed streaming analysis over `program` with default
    /// emulator limits, processing the trace in epochs of `epoch_len`
    /// records. See the [module docs](self) for the algorithm and its
    /// soundness argument.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from the underlying emulation.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn analyze_streamed(
        program: &Program,
        epoch_len: usize,
    ) -> Result<StreamedDeadness, EmuError> {
        DeadnessAnalysis::analyze_streamed_with_config(
            program,
            EmulatorConfig::default(),
            epoch_len,
        )
    }

    /// As [`DeadnessAnalysis::analyze_streamed`], with explicit emulator
    /// limits.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] from the underlying emulation.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn analyze_streamed_with_config(
        program: &Program,
        config: EmulatorConfig,
        epoch_len: usize,
    ) -> Result<StreamedDeadness, EmuError> {
        let mut w = WindowedLiveness::new();
        let summary = Emulator::with_config(program, config)
            .run_streamed(epoch_len, |chunk| w.push(chunk))?;
        Ok(w.finish(epoch_len, summary.outputs))
    }
}

/// Per-seq forward-pass bookkeeping, packed so that resolving one producer
/// touches one 16-byte entry (one cache line) instead of three parallel
/// arrays.
#[derive(Debug, Clone, Copy)]
struct SeqState {
    /// Stamp (seq) of the last consumer that listed this producer — the
    /// duplicate-producer filter, which keeps a consumer's producer list
    /// free of repeats without scanning it (per-byte resolution of wide
    /// loads would make that scan quadratic).
    last_touch: u64,
    /// For stores: bytes of the store still visible (not yet overwritten).
    live_bytes: u32,
    /// Whether any later instruction read this value.
    read: bool,
    /// First-level deadness hint, pending final classification.
    hint: Option<DeadKind>,
}

impl SeqState {
    /// No consumer yet, no visible bytes, unread, no hint. `u64::MAX` is a
    /// safe stamp sentinel: stamps are consumer seqs, which are dense
    /// from 0 and bounded by the trace length.
    const EMPTY: SeqState =
        SeqState { last_touch: u64::MAX, live_bytes: 0, read: false, hint: None };
}

/// The carried frontier plus per-epoch scratch of the windowed analysis.
struct WindowedLiveness {
    // ---- carried across epochs ----
    /// Pending writer seq (global) per architectural register.
    reg_writer: [Option<u64>; Reg::COUNT],
    /// Last store to claim each byte address, as global `seq + 1`
    /// (0 = untouched).
    mem_writer: PagedShadow<u64>,
    verdicts: Vec<Verdict>,
    stats: DeadStats,
    epochs: u64,
    escaped: u64,
    // ---- per-epoch scratch, reused between epochs ----
    /// Packed per-seq state, indexed by `seq - base`.
    state: Vec<SeqState>,
    /// Intra-epoch producer table (global seqs, all `>= base`).
    producers: Vec<u64>,
    /// `offsets[i]..offsets[i + 1]` brackets record `base + i`'s producers.
    offsets: Vec<usize>,
    /// Backward-pass usefulness flags, indexed by `seq - base`.
    useful: Vec<bool>,
    finished: bool,
}

impl WindowedLiveness {
    fn new() -> WindowedLiveness {
        WindowedLiveness {
            reg_writer: [None; Reg::COUNT],
            mem_writer: PagedShadow::new(),
            verdicts: Vec::new(),
            stats: DeadStats::default(),
            epochs: 0,
            escaped: 0,
            state: Vec::new(),
            producers: Vec::new(),
            offsets: Vec::new(),
            useful: Vec::new(),
            finished: false,
        }
    }

    /// Resolves a read of producer `w` by consumer `stamp`. Cross-epoch
    /// reads (`w < base`) are dropped: the producer was already finalized
    /// `Useful` when its epoch closed, so the edge cannot change a verdict.
    #[inline]
    fn note_read(&mut self, base: u64, w: u64, stamp: u64) {
        if w < base {
            return;
        }
        let st = &mut self.state[(w - base) as usize];
        st.read = true;
        if st.last_touch != stamp {
            st.last_touch = stamp;
            self.producers.push(w);
        }
    }

    #[inline]
    fn read_reg(&mut self, base: u64, src: Reg, stamp: u64) {
        if let Some(w) = self.reg_writer[src.index()] {
            self.note_read(base, w, stamp);
        }
    }

    #[inline]
    fn read_mem(&mut self, base: u64, acc: MemAccess, stamp: u64) {
        let len = acc.width.bytes();
        if !PagedShadow::<u64>::crosses_page(acc.addr, len) {
            // Fast path: one page resolution per access, `note_read` body
            // inlined to keep the span borrow disjoint from the
            // state/producer updates.
            if let Some(cells) = self.mem_writer.span(acc.addr, len) {
                for &cell in cells {
                    if cell != 0 && cell > base {
                        let w = cell - 1;
                        let st = &mut self.state[(w - base) as usize];
                        st.read = true;
                        if st.last_touch != stamp {
                            st.last_touch = stamp;
                            self.producers.push(w);
                        }
                    }
                }
            }
        } else {
            for byte in acc.bytes() {
                let cell = self.mem_writer.get(byte);
                if cell != 0 {
                    self.note_read(base, cell - 1, stamp);
                }
            }
        }
    }

    #[inline]
    fn end_reads(&mut self) {
        self.offsets.push(self.producers.len());
    }

    /// Register write: displace the previous pending writer. A displaced
    /// cross-epoch writer needs no bookkeeping — it was already finalized.
    #[inline]
    fn write_reg(&mut self, base: u64, rd: Reg, seq: u64) {
        if rd.is_zero() {
            return;
        }
        if let Some(prev) = self.reg_writer[rd.index()] {
            if prev >= base {
                let prev_state = &mut self.state[(prev - base) as usize];
                if !prev_state.read {
                    prev_state.hint = Some(DeadKind::RegOverwritten);
                }
            }
        }
        self.reg_writer[rd.index()] = Some(seq);
    }

    #[inline]
    fn displace(&mut self, base: u64, prev_cell: u64, claimed: u64) {
        if prev_cell != 0 && prev_cell != claimed && prev_cell > base {
            let prev = &mut self.state[(prev_cell - 1 - base) as usize];
            prev.live_bytes -= 1;
            if prev.live_bytes == 0 && !prev.read {
                prev.hint = Some(DeadKind::StoreOverwritten);
            }
        }
    }

    /// Store: claim bytes globally, displacing previous owners.
    #[inline]
    fn write_mem(&mut self, base: u64, acc: MemAccess, seq: u64) {
        let len = acc.width.bytes();
        let claimed = seq + 1;
        if !PagedShadow::<u64>::crosses_page(acc.addr, len) {
            let cells = self.mem_writer.span_mut(acc.addr, len);
            for cell in cells {
                let prev_cell = std::mem::replace(cell, claimed);
                if prev_cell != 0 && prev_cell != claimed && prev_cell > base {
                    let prev = &mut self.state[(prev_cell - 1 - base) as usize];
                    prev.live_bytes -= 1;
                    if prev.live_bytes == 0 && !prev.read {
                        prev.hint = Some(DeadKind::StoreOverwritten);
                    }
                }
            }
        } else {
            for byte in acc.bytes() {
                let prev_cell = self.mem_writer.get(byte);
                self.mem_writer.set(byte, claimed);
                self.displace(base, prev_cell, claimed);
            }
        }
        self.state[(seq - base) as usize].live_bytes = len as u32;
    }

    /// Consumes one epoch: forward pass, then immediate per-epoch backward
    /// finalization. Chunks must arrive in order.
    fn push(&mut self, chunk: &TraceChunk) {
        assert!(!self.finished, "chunk after the final epoch");
        assert_eq!(chunk.base(), self.verdicts.len() as u64, "chunks must arrive in seq order");

        if chunk.base() == 0 && chunk.is_last() {
            // The whole trace fits in one epoch: delegate to the exact
            // whole-trace pass so the verdicts are trivially bit-identical
            // to the materializing path.
            let exact = DeadnessAnalysis::analyze_records(chunk.records());
            self.verdicts = exact.verdicts().to_vec();
            self.stats = *exact.stats();
            self.epochs = 1;
            self.finished = true;
            return;
        }

        self.epochs += 1;
        let base = chunk.base();
        let n = chunk.len();

        // ---- forward pass over the epoch ----
        self.state.clear();
        self.state.resize(n, SeqState::EMPTY);
        self.producers.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for r in chunk.records() {
            let seq = r.seq;
            match r.op.kind() {
                OpcodeKind::AluRR => {
                    self.read_reg(base, r.rs1, seq);
                    self.read_reg(base, r.rs2, seq);
                    self.end_reads();
                    self.write_reg(base, r.rd, seq);
                }
                OpcodeKind::AluRI => {
                    self.read_reg(base, r.rs1, seq);
                    self.end_reads();
                    self.write_reg(base, r.rd, seq);
                }
                OpcodeKind::LoadImm | OpcodeKind::Jal => {
                    self.end_reads();
                    self.write_reg(base, r.rd, seq);
                }
                OpcodeKind::Load { .. } => {
                    self.read_reg(base, r.rs1, seq);
                    if let Some(acc) = r.mem() {
                        self.read_mem(base, acc, seq);
                    }
                    self.end_reads();
                    self.write_reg(base, r.rd, seq);
                }
                OpcodeKind::Store { .. } => {
                    self.read_reg(base, r.rs1, seq);
                    self.read_reg(base, r.rs2, seq);
                    self.end_reads();
                    if let Some(acc) = r.mem() {
                        self.write_mem(base, acc, seq);
                    }
                }
                OpcodeKind::Branch(_) => {
                    self.read_reg(base, r.rs1, seq);
                    self.read_reg(base, r.rs2, seq);
                    self.end_reads();
                }
                OpcodeKind::Jalr => {
                    self.read_reg(base, r.rs1, seq);
                    self.end_reads();
                    self.write_reg(base, r.rd, seq);
                }
                OpcodeKind::Out => {
                    self.read_reg(base, r.rs1, seq);
                    self.end_reads();
                }
                OpcodeKind::Halt | OpcodeKind::Nop => self.end_reads(),
            }
        }

        // ---- per-epoch backward finalization ----
        let final_epoch = chunk.is_last();
        if final_epoch {
            // End of program: register values still pending were never
            // read. (Writers from earlier epochs were already finalized
            // when their epoch closed.)
            for w in self.reg_writer.iter().flatten().copied() {
                if w >= base {
                    let st = &mut self.state[(w - base) as usize];
                    if !st.read {
                        st.hint = Some(DeadKind::RegUnread);
                    }
                }
            }
            self.finished = true;
        }

        let mut useful = std::mem::take(&mut self.useful);
        useful.clear();
        useful.resize(n, false);
        self.verdicts.resize(base as usize + n, Verdict::NotEligible);

        for r in chunk.records().iter().rev() {
            let i = (r.seq - base) as usize;
            let (eligible, root, is_load, is_store) = match r.op.kind() {
                OpcodeKind::AluRR | OpcodeKind::AluRI | OpcodeKind::LoadImm => {
                    (!r.rd.is_zero(), false, false, false)
                }
                OpcodeKind::Load { .. } => (!r.rd.is_zero(), false, true, false),
                OpcodeKind::Store { .. } => (true, false, false, true),
                OpcodeKind::Branch(_)
                | OpcodeKind::Jal
                | OpcodeKind::Jalr
                | OpcodeKind::Halt
                | OpcodeKind::Out => (false, true, false, false),
                OpcodeKind::Nop => (false, false, false, false),
            };
            let st = self.state[i];

            // Escape detection (non-final epochs): the value is still
            // pending at the boundary — a future epoch may read it, so it
            // must conservatively stay alive.
            let escapes = !final_epoch
                && ((is_store && st.live_bytes > 0)
                    || r.dest().is_some_and(|rd| self.reg_writer[rd.index()] == Some(r.seq)));
            if escapes && eligible {
                self.escaped += 1;
            }

            let is_useful = root || useful[i] || escapes;
            if is_useful {
                for &p in &self.producers[self.offsets[i]..self.offsets[i + 1]] {
                    useful[(p - base) as usize] = true;
                }
            }

            let verdict = if !eligible {
                Verdict::NotEligible
            } else if is_useful {
                Verdict::Useful
            } else if st.read {
                Verdict::Dead(DeadKind::Transitive)
            } else if is_store && st.live_bytes > 0 {
                // Only reachable in the final epoch (otherwise `escapes`
                // made the store useful): bytes survived to program end
                // without being loaded.
                Verdict::Dead(DeadKind::StoreUnread)
            } else {
                Verdict::Dead(st.hint.expect("unread eligible value must have a kind"))
            };

            self.stats.count(verdict, is_load, is_store);
            self.verdicts[r.seq as usize] = verdict;
        }
        self.useful = useful;
        self.stats.total += n as u64;
    }

    fn finish(self, epoch_len: usize, outputs: Vec<u64>) -> StreamedDeadness {
        assert!(self.finished, "the final epoch never arrived");
        StreamedDeadness {
            verdicts: self.verdicts,
            stats: self.stats,
            epochs: self.epochs,
            epoch_len,
            escaped: self.escaped,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_isa::ProgramBuilder;

    fn looping_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        b.li(Reg::S0, 0);
        let top = b.label();
        b.bind(top);
        b.slt(Reg::T2, Reg::T0, Reg::T1); // dead every iteration but the last
        b.sw(Reg::T0, Reg::SP, -4);
        b.lw(Reg::T3, Reg::SP, -4);
        b.add(Reg::S0, Reg::S0, Reg::T3);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::S0);
        b.out(Reg::T2);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn single_epoch_is_bit_identical_to_exact() {
        let p = looping_program(40);
        let trace = Emulator::new(&p).run().unwrap();
        let exact = DeadnessAnalysis::analyze(&trace);
        let streamed = DeadnessAnalysis::analyze_streamed(&p, 1 << 20).unwrap();
        assert_eq!(streamed.epochs(), 1);
        assert_eq!(streamed.verdicts(), exact.verdicts());
        assert_eq!(streamed.stats(), exact.stats());
        assert_eq!(streamed.escaped(), 0);
        assert_eq!(streamed.outputs(), trace.outputs());
    }

    #[test]
    fn windowed_is_a_sound_under_approximation() {
        let p = looping_program(100);
        let trace = Emulator::new(&p).run().unwrap();
        let exact = DeadnessAnalysis::analyze(&trace);
        for epoch_len in [1usize, 3, 16, 128] {
            let streamed = DeadnessAnalysis::analyze_streamed(&p, epoch_len).unwrap();
            assert_eq!(streamed.len(), trace.len(), "epoch_len={epoch_len}");
            assert!(streamed.epochs() > 1);
            let mut dead_gap = 0u64;
            for seq in 0..trace.len() as u64 {
                let s = streamed.verdict(seq);
                let e = exact.verdict(seq);
                // Eligibility is verdict-independent and must agree.
                assert_eq!(s.is_eligible(), e.is_eligible(), "seq {seq}");
                if s.is_dead() {
                    // Sound: streamed-dead implies exact-dead, same kind.
                    assert_eq!(s, e, "seq {seq} epoch_len {epoch_len}");
                } else if e.is_dead() {
                    dead_gap += 1;
                }
            }
            // Precision loss is bounded by the escape count: a missed dead
            // verdict is an escaped value or transitively downstream of one.
            assert_eq!(
                streamed.stats().dead_total + dead_gap,
                exact.stats().dead_total,
                "epoch_len={epoch_len}"
            );
            assert!(streamed.escaped() > 0, "multi-epoch loop must see escapes");
            assert_eq!(streamed.outputs(), trace.outputs());
            assert_eq!(streamed.stats().total, trace.len() as u64);
        }
    }

    #[test]
    fn large_epochs_lose_little_precision() {
        // With a 4K-record epoch over a ~1K-record trace the trace fits in
        // one epoch; with 256 it doesn't, but the loop-carried frontier
        // keeps nearly all verdicts exact.
        let p = looping_program(150);
        let trace = Emulator::new(&p).run().unwrap();
        let exact = DeadnessAnalysis::analyze(&trace);
        let streamed = DeadnessAnalysis::analyze_streamed(&p, 256).unwrap();
        let exact_dead = exact.stats().dead_total;
        let streamed_dead = streamed.stats().dead_total;
        assert!(streamed_dead <= exact_dead);
        assert!(
            streamed_dead * 10 >= exact_dead * 8,
            "windowed recovered {streamed_dead}/{exact_dead} dead"
        );
    }

    #[test]
    fn emulation_errors_propagate() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = EmulatorConfig { max_steps: 50, ..EmulatorConfig::default() };
        let err = DeadnessAnalysis::analyze_streamed_with_config(&p, cfg, 8).unwrap_err();
        assert_eq!(err, EmuError::StepLimit { limit: 50 });
    }
}
