//! Dynamic instruction records.

use dide_isa::{Inst, MemWidth, Opcode, Reg, SourceIter};

/// A memory access performed by a dynamic load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Starting byte address.
    pub addr: u64,
    /// Access width.
    pub width: MemWidth,
}

impl MemAccess {
    /// Iterates over the byte addresses this access touches.
    pub fn bytes(self) -> impl Iterator<Item = u64> {
        (0..self.width.bytes()).map(move |i| self.addr.wrapping_add(i))
    }

    /// Whether the access overlaps `other` by at least one byte.
    ///
    /// Compares inclusive last-byte addresses, saturating at `u64::MAX`:
    /// an access whose byte range would wrap past the top of the address
    /// space is treated as ending there. The emulator faults wrapping
    /// accesses before they reach a trace, so the clamp only affects
    /// synthetic records, where it keeps the predicate total instead of
    /// panicking in debug builds.
    #[must_use]
    pub fn overlaps(self, other: MemAccess) -> bool {
        let a_last = self.addr.saturating_add(self.width.bytes() - 1);
        let b_last = other.addr.saturating_add(other.width.bytes() - 1);
        self.addr <= b_last && other.addr <= a_last
    }
}

/// Flag bit: the dynamic instruction was a taken control transfer.
const FLAG_TAKEN: u8 = 1 << 3;
/// Mask for the memory-width code in the flags byte (`0` = no access,
/// `1..=4` = B1/B2/B4/B8).
const WIDTH_MASK: u8 = 0b111;

/// One retired dynamic instruction.
///
/// `seq` numbers are dense: the `i`-th record of a [`Trace`](crate::Trace)
/// has `seq == i`.
///
/// The record is deliberately packed to 32 bytes (pinned by a test): traces
/// run to tens of millions of records and the streaming pipeline keeps
/// several epochs of them resident, so every byte here is multiplied by
/// the epoch budget. The static operand fields (`op`, `rd`, `rs1`, `rs2`)
/// are carried inline, but the *immediate* is not — consumers that need it
/// (replay, disassembly) look the static instruction up by `index` in the
/// owning [`Program`](dide_isa::Program). The memory access and
/// taken-branch bit are niche-packed into a single flags byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Position in the dynamic instruction stream (dense, from 0).
    pub seq: u64,
    /// Starting byte address of the memory access (meaningful only when the
    /// flags byte carries a width code).
    mem_addr: u64,
    /// Static instruction index (the PC, in instruction units).
    pub index: u32,
    /// Index of the next instruction that actually executed.
    pub next_index: u32,
    /// Operation.
    pub op: Opcode,
    /// Destination register field.
    pub rd: Reg,
    /// First source register field.
    pub rs1: Reg,
    /// Second source register field.
    pub rs2: Reg,
    /// Packed width code (bits 0-2) and taken bit (bit 3).
    flags: u8,
}

impl DynInst {
    /// Builds a record from the executed static instruction plus the
    /// dynamic facts the emulator observed.
    #[must_use]
    pub fn new(
        seq: u64,
        index: u32,
        inst: Inst,
        next_index: u32,
        taken: bool,
        mem: Option<MemAccess>,
    ) -> DynInst {
        let width_code = match mem.map(|m| m.width) {
            None => 0,
            Some(MemWidth::B1) => 1,
            Some(MemWidth::B2) => 2,
            Some(MemWidth::B4) => 3,
            Some(MemWidth::B8) => 4,
        };
        DynInst {
            seq,
            mem_addr: mem.map_or(0, |m| m.addr),
            index,
            next_index,
            op: inst.op,
            rd: inst.rd,
            rs1: inst.rs1,
            rs2: inst.rs2,
            flags: width_code | if taken { FLAG_TAKEN } else { 0 },
        }
    }

    /// For loads and stores: the access performed.
    #[inline]
    #[must_use]
    pub fn mem(&self) -> Option<MemAccess> {
        let width = match self.flags & WIDTH_MASK {
            0 => return None,
            1 => MemWidth::B1,
            2 => MemWidth::B2,
            3 => MemWidth::B4,
            _ => MemWidth::B8,
        };
        Some(MemAccess { addr: self.mem_addr, width })
    }

    /// For conditional branches (and jumps): whether the control transfer
    /// was taken.
    #[inline]
    #[must_use]
    pub fn taken(&self) -> bool {
        self.flags & FLAG_TAKEN != 0
    }

    /// The destination register this record *architecturally wrote*,
    /// i.e. excluding writes to the zero register.
    #[inline]
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        (self.op.has_dest() && !self.rd.is_zero()).then_some(self.rd)
    }

    /// Source registers read, excluding the zero register (which is not a
    /// real data dependence).
    #[inline]
    #[must_use]
    pub fn sources(&self) -> SourceIter {
        // The immediate does not participate in operand classification, so
        // a zero-imm reconstruction gives the same answer as the original.
        Inst::new(self.op, self.rd, self.rs1, self.rs2, 0).sources()
    }

    /// Whether this dynamic instruction is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        self.op.is_cond_branch()
    }

    /// Whether this dynamic instruction wrote an architectural register
    /// (excludes zero-register writes).
    #[must_use]
    pub fn writes_register(&self) -> bool {
        self.dest().is_some()
    }

    /// Whether this instruction produces a *value* a later instruction could
    /// consume: a register write or a memory store. Only these can be
    /// dynamically dead in the paper's sense.
    #[must_use]
    pub fn produces_value(&self) -> bool {
        self.writes_register() || self.op.is_store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_isa::{Opcode, Reg};

    fn di(inst: Inst) -> DynInst {
        DynInst::new(0, 0, inst, 1, false, None)
    }

    #[test]
    fn record_is_32_bytes() {
        // Streaming memory budgets are sized in units of this struct; a
        // regression here silently doubles every epoch's footprint.
        assert_eq!(std::mem::size_of::<DynInst>(), 32);
    }

    #[test]
    fn mem_access_round_trips_through_flags() {
        let inst = Inst::new(Opcode::Lw, Reg::T1, Reg::T0, Reg::ZERO, 0);
        for width in [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8] {
            let acc = MemAccess { addr: 0xdead_0000, width };
            let r = DynInst::new(3, 7, inst, 8, false, Some(acc));
            assert_eq!(r.mem(), Some(acc));
        }
        assert_eq!(di(inst).mem(), None);
    }

    #[test]
    fn taken_round_trips_through_flags() {
        let br = Inst::new(Opcode::Beq, Reg::ZERO, Reg::T0, Reg::T1, 9);
        let t = DynInst::new(0, 0, br, 9, true, None);
        assert!(t.taken());
        assert!(!di(br).taken());
    }

    #[test]
    fn operand_accessors_match_the_static_instruction() {
        let add = Inst::new(Opcode::Add, Reg::T0, Reg::T1, Reg::T2, 0);
        let r = di(add);
        assert_eq!(r.dest(), add.dest());
        assert_eq!(r.sources().collect::<Vec<_>>(), add.sources().collect::<Vec<_>>());
        let store = Inst::new(Opcode::Sd, Reg::ZERO, Reg::SP, Reg::T0, -8);
        let r = di(store);
        assert_eq!(r.dest(), None);
        assert_eq!(r.sources().collect::<Vec<_>>(), store.sources().collect::<Vec<_>>());
    }

    #[test]
    fn mem_access_bytes() {
        let a = MemAccess { addr: 0x100, width: MemWidth::B4 };
        assert_eq!(a.bytes().collect::<Vec<_>>(), vec![0x100, 0x101, 0x102, 0x103]);
    }

    #[test]
    fn mem_access_overlap() {
        let a = MemAccess { addr: 0x100, width: MemWidth::B4 };
        let b = MemAccess { addr: 0x102, width: MemWidth::B8 };
        let c = MemAccess { addr: 0x104, width: MemWidth::B4 };
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
    }

    #[test]
    fn overlap_at_address_space_boundary_does_not_panic() {
        // `addr + width` would overflow u64 here; the predicate must stay
        // total (saturating) instead of panicking in debug builds.
        let top = MemAccess { addr: u64::MAX - 1, width: MemWidth::B8 };
        let near = MemAccess { addr: u64::MAX - 4, width: MemWidth::B4 };
        let low = MemAccess { addr: 0x1000, width: MemWidth::B8 };
        assert!(top.overlaps(top));
        assert!(top.overlaps(near));
        assert!(near.overlaps(top));
        assert!(!top.overlaps(low));
        assert!(!low.overlaps(top));
        // Exactly at the limit: end saturates to u64::MAX, still exclusive.
        let last = MemAccess { addr: u64::MAX, width: MemWidth::B1 };
        assert!(last.overlaps(top));
        assert!(!last.overlaps(near));
    }

    #[test]
    fn produces_value_classification() {
        let add = di(Inst::new(Opcode::Add, Reg::T0, Reg::T1, Reg::T2, 0));
        assert!(add.produces_value());
        let add_zero = di(Inst::new(Opcode::Add, Reg::ZERO, Reg::T1, Reg::T2, 0));
        assert!(!add_zero.produces_value());
        let store = di(Inst::new(Opcode::Sd, Reg::ZERO, Reg::SP, Reg::T0, 0));
        assert!(store.produces_value());
        let branch = di(Inst::new(Opcode::Beq, Reg::ZERO, Reg::T0, Reg::T1, 0));
        assert!(!branch.produces_value());
        assert!(branch.is_cond_branch());
    }
}
