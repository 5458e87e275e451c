//! The two-pass oracle deadness algorithm.

use dide_emu::{DynInst, PagedShadow, Trace};
use dide_isa::OpcodeKind;

use crate::locality::LocalityCdf;
use crate::static_profile::StaticProfile;
use crate::stats::DeadStats;
use crate::verdict::{DeadKind, Verdict};

/// Exact deadness labels for every dynamic instruction of a trace.
///
/// Produced by [`DeadnessAnalysis::analyze`]; see the [crate docs](crate)
/// for the definitions and an example. Only the verdicts and their tallies
/// are kept: the producer table the analysis builds is dropped once the
/// backward pass has consumed it, so a cached analysis costs one byte per
/// record.
#[derive(Debug, Clone)]
pub struct DeadnessAnalysis {
    verdicts: Vec<Verdict>,
    stats: DeadStats,
}

/// Per-seq forward-pass bookkeeping, packed so that resolving one producer
/// touches one 16-byte entry (one cache line) instead of three parallel
/// arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqState {
    /// Stamp (seq) of the last consumer that listed this producer — the
    /// duplicate-producer filter. Replaces the seed's
    /// `producers[start..].contains(&w)` scan, which was quadratic in a
    /// consumer's producer count (per-byte resolution of wide loads bit).
    pub(crate) last_touch: u64,
    /// For stores: bytes of the store still visible (not yet overwritten).
    pub(crate) live_bytes: u32,
    /// Whether any later instruction read this value.
    pub(crate) read: bool,
    /// First-level deadness hint, pending final classification.
    pub(crate) hint: Option<DeadKind>,
}

impl SeqState {
    /// No consumer yet, no visible bytes, unread, no hint. `u64::MAX` is a
    /// safe stamp sentinel: stamps are consumer seqs, which are dense
    /// from 0 and bounded by the trace length.
    pub(crate) const EMPTY: SeqState =
        SeqState { last_touch: u64::MAX, live_bytes: 0, read: false, hint: None };
}

/// Forward-pass state: pending register writers, the byte-granular
/// last-store shadow table, and the producer edges resolved so far.
struct Forward {
    /// Pending writer seq per architectural register.
    reg_writer: [Option<u64>; dide_isa::Reg::COUNT],
    /// Last store to claim each byte address, as `seq + 1` (0 = untouched).
    /// One page resolution per access instead of one hash probe per byte.
    mem_writer: PagedShadow<u64>,
    /// Packed per-seq state, indexed by seq.
    state: Vec<SeqState>,
    /// Flat producer table under construction.
    producers: Vec<u64>,
    /// `offsets[i]..offsets[i + 1]` brackets record `i`'s producers.
    offsets: Vec<usize>,
}

impl Forward {
    fn new(n: usize) -> Forward {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Forward {
            reg_writer: [None; dide_isa::Reg::COUNT],
            mem_writer: PagedShadow::new(),
            state: vec![SeqState::EMPTY; n],
            producers: Vec::with_capacity(n * 2),
            offsets,
        }
    }

    /// The forward pass: resolves every read of `records`
    /// (`records[i].seq == i`) to its producers, and leaves first-level
    /// deadness hints for the backward pass.
    fn run(records: &[DynInst]) -> Forward {
        let mut fwd = Forward::new(records.len());
        for r in records {
            let seq = r.seq;
            match r.op.kind() {
                OpcodeKind::AluRR => {
                    fwd.read_reg(r.rs1, seq);
                    fwd.read_reg(r.rs2, seq);
                    fwd.end_reads();
                    fwd.write_reg(r.rd, seq);
                }
                OpcodeKind::AluRI => {
                    fwd.read_reg(r.rs1, seq);
                    fwd.end_reads();
                    fwd.write_reg(r.rd, seq);
                }
                OpcodeKind::LoadImm | OpcodeKind::Jal => {
                    fwd.end_reads();
                    fwd.write_reg(r.rd, seq);
                }
                OpcodeKind::Load { .. } => {
                    fwd.read_reg(r.rs1, seq);
                    if let Some(acc) = r.mem() {
                        fwd.read_mem(acc, seq);
                    }
                    fwd.end_reads();
                    fwd.write_reg(r.rd, seq);
                }
                OpcodeKind::Store { .. } => {
                    fwd.read_reg(r.rs1, seq);
                    fwd.read_reg(r.rs2, seq);
                    fwd.end_reads();
                    if let Some(acc) = r.mem() {
                        fwd.write_mem(acc, seq);
                    }
                }
                OpcodeKind::Branch(_) => {
                    fwd.read_reg(r.rs1, seq);
                    fwd.read_reg(r.rs2, seq);
                    fwd.end_reads();
                }
                OpcodeKind::Jalr => {
                    fwd.read_reg(r.rs1, seq);
                    fwd.end_reads();
                    fwd.write_reg(r.rd, seq);
                }
                OpcodeKind::Out => {
                    fwd.read_reg(r.rs1, seq);
                    fwd.end_reads();
                }
                OpcodeKind::Halt | OpcodeKind::Nop => fwd.end_reads(),
            }
        }
        fwd
    }

    /// The producer seqs whose values record `seq` read.
    #[cfg(test)]
    fn producers(&self, seq: usize) -> &[u64] {
        &self.producers[self.offsets[seq]..self.offsets[seq + 1]]
    }

    /// Resolves a read of producer `w` by the consumer `stamp` (its seq):
    /// marks the value read and appends a producer edge unless this
    /// consumer already listed `w`.
    #[inline]
    fn note_read(&mut self, w: u64, stamp: u64) {
        let st = &mut self.state[w as usize];
        st.read = true;
        if st.last_touch != stamp {
            st.last_touch = stamp;
            self.producers.push(w);
        }
    }

    /// Resolves a register read. No zero-register filter is needed: writes
    /// never claim the zero register, so its slot is permanently `None`.
    #[inline]
    fn read_reg(&mut self, src: dide_isa::Reg, stamp: u64) {
        if let Some(w) = self.reg_writer[src.index()] {
            self.note_read(w, stamp);
        }
    }

    /// Resolves a memory read, byte-granular.
    #[inline]
    fn read_mem(&mut self, acc: dide_emu::MemAccess, stamp: u64) {
        let len = acc.width.bytes();
        if !PagedShadow::<u64>::crosses_page(acc.addr, len) {
            // Fast path: one page resolution for the whole access. The
            // `note_read` body is inlined so the span borrow (of
            // `mem_writer`) stays disjoint from the `state`/`producers`
            // updates.
            if let Some(cells) = self.mem_writer.span(acc.addr, len) {
                for &cell in cells {
                    if cell != 0 {
                        let w = cell - 1;
                        let st = &mut self.state[w as usize];
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
                    self.note_read(cell - 1, stamp);
                }
            }
        }
    }

    /// Closes the current record's producer bracket.
    #[inline]
    fn end_reads(&mut self) {
        self.offsets.push(self.producers.len());
    }

    /// Register write: displace the previous pending writer.
    #[inline]
    fn write_reg(&mut self, rd: dide_isa::Reg, seq: u64) {
        if rd.is_zero() {
            return;
        }
        if let Some(prev) = self.reg_writer[rd.index()] {
            let prev_state = &mut self.state[prev as usize];
            if !prev_state.read {
                prev_state.hint = Some(DeadKind::RegOverwritten);
            }
        }
        self.reg_writer[rd.index()] = Some(seq);
    }

    /// A store displaced `prev_cell`'s claim on one byte: burn one of the
    /// previous owner's live bytes, classifying it once fully overwritten.
    /// Self-displacement (a wrapping synthetic access revisiting its own
    /// bytes) is skipped.
    #[inline]
    fn displace(&mut self, prev_cell: u64, claimed: u64) {
        if prev_cell != 0 && prev_cell != claimed {
            // A displaced owner always has a live-byte counter: bytes only
            // enter the shadow table through `write_mem`.
            let prev = &mut self.state[(prev_cell - 1) as usize];
            prev.live_bytes -= 1;
            if prev.live_bytes == 0 && !prev.read {
                prev.hint = Some(DeadKind::StoreOverwritten);
            }
        }
    }

    /// Store: claim bytes, displacing previous owners.
    #[inline]
    fn write_mem(&mut self, acc: dide_emu::MemAccess, seq: u64) {
        let len = acc.width.bytes();
        let claimed = seq + 1;
        if !PagedShadow::<u64>::crosses_page(acc.addr, len) {
            let cells = self.mem_writer.span_mut(acc.addr, len);
            for cell in cells {
                let prev_cell = std::mem::replace(cell, claimed);
                if prev_cell != 0 && prev_cell != claimed {
                    let prev = &mut self.state[(prev_cell - 1) as usize];
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
                self.displace(prev_cell, claimed);
            }
        }
        self.state[seq as usize].live_bytes = len as u32;
    }
}

impl DeadnessAnalysis {
    /// Runs the analysis over a trace.
    ///
    /// Cost is `O(n)` in trace length with byte-granular memory tracking.
    /// Memory liveness state lives in a [`PagedShadow`] last-writer table
    /// (one `u64` cell per byte address, holding `seq + 1`, 0 = no writer):
    /// one page resolution per access — usually satisfied by the shadow's
    /// page-handle cache — instead of one hash probe per byte. All per-seq
    /// bookkeeping (consumer stamps, store live-byte counters, read flags,
    /// deadness hints) is packed in a flat table indexed by seq, and both
    /// passes dispatch on the opcode kind exactly once per record.
    #[must_use]
    pub fn analyze(trace: &Trace) -> DeadnessAnalysis {
        DeadnessAnalysis::analyze_records(trace.records())
    }

    /// Runs the analysis over a bare record slice (`records[i].seq == i`).
    ///
    /// This is the same exact whole-trace algorithm as
    /// [`DeadnessAnalysis::analyze`]; the windowed streaming analysis
    /// delegates here when a trace fits in a single epoch so its verdicts
    /// are trivially bit-identical.
    #[must_use]
    pub fn analyze_records(records: &[DynInst]) -> DeadnessAnalysis {
        let n = records.len();
        debug_assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));

        // ---- forward pass: resolve reads to producers ----
        let Forward { reg_writer, mut state, producers, offsets, .. } = Forward::run(records);

        // End of program: register values still pending were never read.
        // (Stores are classified during the backward pass below: a store's
        // hint is only inspected at its own backward step, so pending
        // unread stores need no separate sweep.)
        for w in reg_writer.into_iter().flatten() {
            let st = &mut state[w as usize];
            if !st.read {
                st.hint = Some(DeadKind::RegUnread);
            }
        }

        // ---- backward pass: propagate usefulness over the exact DAG ----
        // Verdicts are assigned and tallied in one sweep with a single
        // opcode-kind dispatch per record.
        let mut has_useful_consumer = vec![false; n];
        let mut verdicts = vec![Verdict::NotEligible; n];
        let mut stats = DeadStats { total: n as u64, ..DeadStats::default() };

        for r in records.iter().rev() {
            let seq = r.seq as usize;
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
            let useful = root || has_useful_consumer[seq];

            if useful {
                for &p in &producers[offsets[seq]..offsets[seq + 1]] {
                    has_useful_consumer[p as usize] = true;
                }
            }

            let st = state[seq];
            let verdict = if !eligible {
                Verdict::NotEligible
            } else if useful {
                Verdict::Useful
            } else if st.read {
                Verdict::Dead(DeadKind::Transitive)
            } else if is_store && st.live_bytes > 0 {
                // Bytes of this store survived to the end of the program
                // without being loaded.
                Verdict::Dead(DeadKind::StoreUnread)
            } else {
                // Any other never-read eligible value received a
                // first-level kind hint in the forward pass.
                Verdict::Dead(st.hint.expect("unread eligible value must have a kind"))
            };

            stats.eligible += u64::from(eligible);
            if let Verdict::Dead(kind) = verdict {
                stats.dead_total += 1;
                match kind {
                    DeadKind::RegOverwritten => stats.reg_overwritten += 1,
                    DeadKind::RegUnread => stats.reg_unread += 1,
                    DeadKind::StoreOverwritten => stats.store_overwritten += 1,
                    DeadKind::StoreUnread => stats.store_unread += 1,
                    DeadKind::Transitive => stats.transitive += 1,
                }
                stats.dead_loads += u64::from(is_load);
                stats.dead_stores += u64::from(is_store);
            }
            verdicts[seq] = verdict;
        }

        DeadnessAnalysis { verdicts, stats }
    }

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

    /// Aggregated deadness counters.
    #[must_use]
    pub fn stats(&self) -> &DeadStats {
        &self.stats
    }

    /// Computes the per-static-instruction execution/deadness profile.
    #[must_use]
    pub fn static_profile(&self, trace: &Trace) -> StaticProfile {
        StaticProfile::build(trace, &self.verdicts)
    }

    /// Computes the locality CDF of dead instances over static instructions.
    #[must_use]
    pub fn locality(&self, trace: &Trace) -> LocalityCdf {
        LocalityCdf::build(&self.static_profile(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    fn analyze(b: ProgramBuilder) -> (Trace, DeadnessAnalysis) {
        let trace = Emulator::new(&b.build().unwrap()).run().unwrap();
        let a = DeadnessAnalysis::analyze(&trace);
        (trace, a)
    }

    /// The forward pass's producer table for `b`'s trace.
    fn forward(b: ProgramBuilder) -> Forward {
        let trace = Emulator::new(&b.build().unwrap()).run().unwrap();
        Forward::run(trace.records())
    }

    #[test]
    fn overwritten_register_is_first_level_dead() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0: dead (overwritten by 1)
        b.li(Reg::T0, 2); // 1: useful
        b.out(Reg::T0); // 2
        b.halt(); // 3
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(0), Verdict::Dead(DeadKind::RegOverwritten));
        assert_eq!(a.verdict(1), Verdict::Useful);
        assert_eq!(a.verdict(2), Verdict::NotEligible);
    }

    #[test]
    fn unread_register_at_exit_is_dead() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0: never read
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(0), Verdict::Dead(DeadKind::RegUnread));
    }

    #[test]
    fn transitive_deadness_propagates() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0: read only by 1, which is dead -> transitive
        b.addi(Reg::T1, Reg::T0, 1); // 1: never read -> first-level dead
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(1), Verdict::Dead(DeadKind::RegUnread));
        assert_eq!(a.verdict(0), Verdict::Dead(DeadKind::Transitive));
    }

    #[test]
    fn long_transitive_chain() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1);
        for _ in 0..10 {
            b.addi(Reg::T0, Reg::T0, 1);
        }
        b.halt();
        let (_, a) = analyze(b);
        // Last addi is first-level dead; everything upstream transitive.
        for seq in 0..10 {
            assert_eq!(a.verdict(seq), Verdict::Dead(DeadKind::Transitive), "seq {seq}");
        }
        assert_eq!(a.verdict(10), Verdict::Dead(DeadKind::RegUnread));
    }

    #[test]
    fn value_feeding_branch_is_useful() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0: feeds the branch -> useful
        let l = b.label();
        b.beq(Reg::T0, Reg::ZERO, l); // 1: root
        b.bind(l);
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(0), Verdict::Useful);
        assert_eq!(a.verdict(1), Verdict::NotEligible);
    }

    #[test]
    fn value_feeding_out_is_useful() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 7);
        b.out(Reg::T0);
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(0), Verdict::Useful);
    }

    #[test]
    fn dead_store_overwritten() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0: transitive (feeds dead store only)
        b.sd(Reg::T0, Reg::SP, -8); // 1: overwritten by 3
        b.li(Reg::T1, 2); // 2: useful (feeds live store)
        b.sd(Reg::T1, Reg::SP, -8); // 3: loaded by 4
        b.ld(Reg::T2, Reg::SP, -8); // 4: feeds out
        b.out(Reg::T2); // 5
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(1), Verdict::Dead(DeadKind::StoreOverwritten));
        assert_eq!(a.verdict(0), Verdict::Dead(DeadKind::Transitive));
        assert_eq!(a.verdict(3), Verdict::Useful);
        assert_eq!(a.verdict(4), Verdict::Useful);
    }

    #[test]
    fn partially_overwritten_store_classified_unread() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, -1);
        b.sd(Reg::T0, Reg::SP, -8); // 1: 8 bytes, half overwritten, never read
        b.sw(Reg::ZERO, Reg::SP, -8); // 2: overwrites low 4 bytes (store of zero reg)
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(1), Verdict::Dead(DeadKind::StoreUnread));
    }

    #[test]
    fn store_read_through_partial_load_is_useful() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 0x1234_5678);
        b.sd(Reg::T0, Reg::SP, -8); // store 8 bytes
        b.lb(Reg::T1, Reg::SP, -8); // read one byte of it
        b.out(Reg::T1);
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(1), Verdict::Useful);
    }

    #[test]
    fn zero_register_write_discards_sources() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 5); // 0: read only by a zero-reg write -> dead (unread: nobody reads value)
        b.add(Reg::ZERO, Reg::T0, Reg::T0); // 1: not eligible
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(1), Verdict::NotEligible);
        // The li's value was read by the add (directly read), but the add is
        // not a useful consumer, so the li is transitively dead.
        assert_eq!(a.verdict(0), Verdict::Dead(DeadKind::Transitive));
    }

    #[test]
    fn call_link_write_is_not_eligible() {
        let mut b = ProgramBuilder::new("t");
        let f = b.label();
        b.call(f); // 0: jal writes ra but is control -> not eligible
        b.halt();
        b.bind(f);
        b.ret();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(0), Verdict::NotEligible);
    }

    #[test]
    fn dead_load_detected() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 7);
        b.sd(Reg::T0, Reg::SP, -8); // useful: loaded
        b.ld(Reg::T1, Reg::SP, -8); // dead: result never used
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(2), Verdict::Dead(DeadKind::RegUnread));
        // The store feeds only a dead load -> transitively dead.
        assert_eq!(a.verdict(1), Verdict::Dead(DeadKind::Transitive));
        assert_eq!(a.verdict(0), Verdict::Dead(DeadKind::Transitive));
    }

    #[test]
    fn producers_resolved_exactly() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0
        b.li(Reg::T1, 2); // 1
        b.add(Reg::T2, Reg::T0, Reg::T1); // 2 reads 0 and 1
        b.out(Reg::T2); // 3 reads 2
        b.halt();
        let fwd = forward(b);
        assert_eq!(fwd.producers(2), &[0, 1]);
        assert_eq!(fwd.producers(3), &[2]);
        assert_eq!(fwd.producers(0), &[] as &[u64]);
    }

    #[test]
    fn duplicate_source_registers_deduped() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 3); // 0
        b.add(Reg::T1, Reg::T0, Reg::T0); // 1 reads 0 twice
        b.out(Reg::T1);
        b.halt();
        assert_eq!(forward(b).producers(1), &[0]);
    }

    #[test]
    fn loop_counter_is_useful_but_flag_calc_dead() {
        // A loop that computes a "flag" every iteration but only uses it on exit.
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 0); // i
        b.li(Reg::T1, 4); // n
        let top = b.label();
        b.bind(top);
        b.slt(Reg::T2, Reg::T0, Reg::T1); // flag: overwritten every iteration
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2); // only the last flag value is used
        b.halt();
        let (trace, a) = analyze(b);
        let stats = a.stats();
        // 4 slt instances; only the final one is useful.
        let slts: Vec<_> = trace
            .iter()
            .filter(|r| r.op == dide_isa::Opcode::Slt)
            .map(|r| a.verdict(r.seq))
            .collect();
        assert_eq!(slts.len(), 4);
        assert_eq!(slts.iter().filter(|v| v.is_dead()).count(), 3);
        assert_eq!(*slts.last().unwrap(), Verdict::Useful);
        assert!(stats.dead_total >= 3);
    }
}
