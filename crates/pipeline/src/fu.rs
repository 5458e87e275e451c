//! Function-unit pool.

use dide_isa::{Opcode, OpcodeKind};

use crate::config::FuConfig;

/// Function-unit class an instruction executes on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) enum FuClass {
    /// Single-cycle integer ALU (also branches, jumps, `out`).
    #[default]
    Alu,
    /// Pipelined multiplier.
    Mul,
    /// Unpipelined divider.
    Div,
    /// Memory port (loads and stores).
    Mem,
}

/// Classifies an opcode onto a function unit.
pub(crate) fn classify(op: Opcode) -> FuClass {
    match op.kind() {
        OpcodeKind::Load { .. } | OpcodeKind::Store { .. } => FuClass::Mem,
        _ => match op {
            Opcode::Mul => FuClass::Mul,
            Opcode::Div | Opcode::Rem => FuClass::Div,
            _ => FuClass::Alu,
        },
    }
}

/// Per-cycle function-unit availability.
///
/// ALUs, multipliers and memory ports are fully pipelined (an issue slot
/// per cycle each); the divider blocks until its operation completes.
#[derive(Debug, Clone)]
pub(crate) struct FuPool {
    config: FuConfig,
    alu_used: usize,
    mul_used: usize,
    mem_used: usize,
    div_busy_until: u64,
}

impl FuPool {
    pub(crate) fn new(config: FuConfig) -> FuPool {
        FuPool { config, alu_used: 0, mul_used: 0, mem_used: 0, div_busy_until: 0 }
    }

    /// Resets per-cycle issue slots.
    pub(crate) fn begin_cycle(&mut self) {
        self.alu_used = 0;
        self.mul_used = 0;
        self.mem_used = 0;
    }

    /// Whether a unit of `class` could be claimed at `cycle`, without
    /// claiming it. Lets the select loop skip per-entry issue checks (LSQ
    /// disambiguation probes) once a class is exhausted this cycle.
    pub(crate) fn can_issue(&self, class: FuClass, cycle: u64) -> bool {
        match class {
            FuClass::Alu => self.alu_used < self.config.alus,
            FuClass::Mul => self.mul_used < self.config.muls,
            FuClass::Div => cycle >= self.div_busy_until,
            FuClass::Mem => self.mem_used < self.config.mem_ports,
        }
    }

    /// Attempts to claim a unit of `class` at `cycle`; returns the
    /// operation's base execution latency on success.
    pub(crate) fn try_issue(&mut self, class: FuClass, cycle: u64) -> Option<u32> {
        if !self.can_issue(class, cycle) {
            return None;
        }
        Some(match class {
            FuClass::Alu => {
                self.alu_used += 1;
                1
            }
            FuClass::Mul => {
                self.mul_used += 1;
                self.config.mul_latency
            }
            FuClass::Div => {
                self.div_busy_until = cycle + u64::from(self.config.div_latency);
                self.config.div_latency
            }
            FuClass::Mem => {
                self.mem_used += 1;
                1
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_by_opcode() {
        assert_eq!(classify(Opcode::Add), FuClass::Alu);
        assert_eq!(classify(Opcode::Beq), FuClass::Alu);
        assert_eq!(classify(Opcode::Mul), FuClass::Mul);
        assert_eq!(classify(Opcode::Div), FuClass::Div);
        assert_eq!(classify(Opcode::Rem), FuClass::Div);
        assert_eq!(classify(Opcode::Ld), FuClass::Mem);
        assert_eq!(classify(Opcode::Sd), FuClass::Mem);
        assert_eq!(classify(Opcode::Out), FuClass::Alu);
    }

    #[test]
    fn alu_slots_limit_per_cycle() {
        let mut pool = FuPool::new(FuConfig { alus: 2, ..FuConfig::default() });
        pool.begin_cycle();
        assert!(pool.try_issue(FuClass::Alu, 0).is_some());
        assert!(pool.try_issue(FuClass::Alu, 0).is_some());
        assert!(pool.try_issue(FuClass::Alu, 0).is_none());
        pool.begin_cycle();
        assert!(pool.try_issue(FuClass::Alu, 1).is_some());
    }

    #[test]
    fn divider_blocks_until_done() {
        let mut pool = FuPool::new(FuConfig { div_latency: 12, ..FuConfig::default() });
        pool.begin_cycle();
        assert_eq!(pool.try_issue(FuClass::Div, 0), Some(12));
        pool.begin_cycle();
        assert!(pool.try_issue(FuClass::Div, 1).is_none());
        assert!(pool.try_issue(FuClass::Div, 11).is_none());
        assert_eq!(pool.try_issue(FuClass::Div, 12), Some(12));
    }

    #[test]
    fn mul_latency_reported() {
        let mut pool = FuPool::new(FuConfig { mul_latency: 3, ..FuConfig::default() });
        pool.begin_cycle();
        assert_eq!(pool.try_issue(FuClass::Mul, 0), Some(3));
    }
}
