//! The exact deadness analysis: one reverse liveness sweep.

use dide_emu::{DynInst, MemAccess, PagedShadow, Trace};
use dide_isa::{OpcodeKind, Reg};

use crate::locality::LocalityCdf;
use crate::static_profile::StaticProfile;
use crate::stats::DeadStats;
use crate::verdict::{DeadKind, Verdict};

/// Exact deadness labels for every dynamic instruction of a trace.
///
/// Produced by [`DeadnessAnalysis::analyze`]; see the [crate docs](crate)
/// for the definitions and an example. Only the verdicts and their tallies
/// are kept, and the analysis builds nothing else per record, so a cached
/// analysis costs one byte per record.
#[derive(Debug, Clone)]
pub struct DeadnessAnalysis {
    verdicts: Vec<Verdict>,
    stats: DeadStats,
}

/// Sweep state bit: a useful record reads the value before it is
/// overwritten.
const LIVE: u8 = 1;
/// Sweep state bit: some record reads the value before it is overwritten.
const READ: u8 = 2;
/// Sweep state bit: the value is overwritten before the program ends.
const OVER: u8 = 4;

/// The reverse sweep's state: [`LIVE`], [`READ`] and [`OVER`] bits for the
/// value every architectural register and every byte address holds at the
/// sweep's position, looking forward in time. All bits start clear: at the
/// end of the program every value is unread and never overwritten.
struct Sweep {
    /// Indexed by register. The zero register's bits are never consulted:
    /// writes to it define nothing.
    regs: [u8; Reg::COUNT],
    /// One cell per byte address.
    mem: PagedShadow<u8>,
}

impl Sweep {
    /// A register write: returns the bits of the value it defines and
    /// resets the register to [`OVER`], since the value it held before is
    /// overwritten here.
    #[inline]
    fn define_reg(&mut self, rd: Reg) -> u8 {
        if rd.is_zero() {
            return 0;
        }
        std::mem::replace(&mut self.regs[rd.index()], OVER)
    }

    /// A store: returns the bits of the value it defines — [`LIVE`] and
    /// [`READ`] when any of its bytes has them, [`OVER`] when all of them
    /// do — and resets its bytes to [`OVER`].
    #[inline]
    fn define_mem(&mut self, acc: MemAccess) -> u8 {
        let (mut any, mut all) = (0, OVER);
        self.update_bytes(acc, |cell| {
            any |= *cell;
            all &= *cell;
            *cell = OVER;
        });
        (any & (LIVE | READ)) | (all & OVER)
    }

    /// A read by a record whose usefulness `mark` carries.
    #[inline]
    fn read_reg(&mut self, src: Reg, mark: u8) {
        self.regs[src.index()] |= mark;
    }

    /// A load's read of every byte it touches.
    #[inline]
    fn read_mem(&mut self, acc: MemAccess, mark: u8) {
        self.update_bytes(acc, |cell| *cell |= mark);
    }

    /// Applies `f` to the cell of every byte `acc` touches: one page
    /// resolution for the whole access, or a byte-at-a-time fallback when
    /// it crosses a page boundary.
    #[inline]
    fn update_bytes(&mut self, acc: MemAccess, mut f: impl FnMut(&mut u8)) {
        let len = acc.width.bytes();
        if PagedShadow::<u8>::crosses_page(acc.addr, len) {
            for byte in acc.bytes() {
                let mut cell = self.mem.get(byte);
                f(&mut cell);
                self.mem.set(byte, cell);
            }
        } else {
            self.mem.span_mut(acc.addr, len).iter_mut().for_each(f);
        }
    }
}

impl DeadnessAnalysis {
    /// Runs the analysis over a trace.
    ///
    /// One reverse sweep, `O(n)` in trace length, with byte-granular memory
    /// tracking. Walking from the last record to the first, a record reads
    /// the state bits of the value it defines, resets its destination to
    /// "overwritten", and is useful if it is a root or its value is read by
    /// a useful record. Its reads happened before its write, so it then
    /// marks its sources read, and live when it is useful. Byte state lives
    /// in a [`PagedShadow`] of `u8` cells: one page resolution per access,
    /// usually satisfied by the shadow's page-handle cache. Nothing is kept
    /// per record but the verdict.
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
        debug_assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        let mut sweep = Sweep { regs: [0; Reg::COUNT], mem: PagedShadow::new() };
        let mut verdicts = vec![Verdict::NotEligible; records.len()];
        let mut stats = DeadStats { total: records.len() as u64, ..DeadStats::default() };

        for (r, verdict) in records.iter().zip(&mut verdicts).rev() {
            let kind = r.op.kind();
            // The bits of the value this record defines; roots (control,
            // output, halt) are useful whatever they define.
            let (def, eligible, root) = match kind {
                OpcodeKind::AluRR
                | OpcodeKind::AluRI
                | OpcodeKind::LoadImm
                | OpcodeKind::Load { .. } => (sweep.define_reg(r.rd), !r.rd.is_zero(), false),
                OpcodeKind::Store { .. } => {
                    (r.mem().map_or(0, |acc| sweep.define_mem(acc)), true, false)
                }
                OpcodeKind::Jal | OpcodeKind::Jalr => (sweep.define_reg(r.rd), false, true),
                OpcodeKind::Branch(_) | OpcodeKind::Halt | OpcodeKind::Out => (0, false, true),
                OpcodeKind::Nop => (0, false, false),
            };
            let useful = root || def & LIVE != 0;

            // Its reads precede its write, so they reach the values its
            // sources held before it, its own destination included.
            let mark = if useful { LIVE | READ } else { READ };
            match kind {
                OpcodeKind::AluRR | OpcodeKind::Store { .. } | OpcodeKind::Branch(_) => {
                    sweep.read_reg(r.rs1, mark);
                    sweep.read_reg(r.rs2, mark);
                }
                OpcodeKind::AluRI | OpcodeKind::Jalr | OpcodeKind::Out => {
                    sweep.read_reg(r.rs1, mark);
                }
                OpcodeKind::Load { .. } => {
                    sweep.read_reg(r.rs1, mark);
                    if let Some(acc) = r.mem() {
                        sweep.read_mem(acc, mark);
                    }
                }
                OpcodeKind::LoadImm | OpcodeKind::Jal | OpcodeKind::Halt | OpcodeKind::Nop => {}
            }

            if !eligible {
                continue;
            }
            let is_store = matches!(kind, OpcodeKind::Store { .. });
            *verdict = if useful {
                Verdict::Useful
            } else if def & READ != 0 {
                Verdict::Dead(DeadKind::Transitive)
            } else {
                Verdict::Dead(match (is_store, def & OVER != 0) {
                    (false, true) => DeadKind::RegOverwritten,
                    (false, false) => DeadKind::RegUnread,
                    (true, true) => DeadKind::StoreOverwritten,
                    (true, false) => DeadKind::StoreUnread,
                })
            };
            stats.count(*verdict, matches!(kind, OpcodeKind::Load { .. }), is_store);
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
    fn zero_register_load_defines_nothing() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 7); // 0: feeds only a store that nothing useful reads
        b.sd(Reg::T0, Reg::SP, -8); // 1: read by a discarded load -> transitive
        b.ld(Reg::ZERO, Reg::SP, -8); // 2: not eligible, not useful
        b.halt();
        let (_, a) = analyze(b);
        assert_eq!(a.verdict(2), Verdict::NotEligible);
        assert_eq!(a.verdict(1), Verdict::Dead(DeadKind::Transitive));
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
