//! Dynamic trace container and summary statistics.

use std::fmt;

use dide_isa::Program;

use crate::dyninst::DynInst;

/// Whole-run counters derived from a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total retired dynamic instructions.
    pub total: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic taken conditional branches.
    pub taken_branches: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic instructions that write an architectural register.
    pub reg_writers: u64,
    /// Dynamic instructions that produce a value (register write or store) —
    /// the paper's denominator candidates for deadness.
    pub value_producers: u64,
    /// Dynamic calls/returns/indirect jumps (`jal`/`jalr`).
    pub jumps: u64,
}

impl dide_obs::Observe for TraceSummary {
    fn observe(&self, scope: &mut dide_obs::Scope<'_>) {
        scope.counter("total", self.total);
        scope.counter("cond_branches", self.cond_branches);
        scope.counter("taken_branches", self.taken_branches);
        scope.counter("loads", self.loads);
        scope.counter("stores", self.stores);
        scope.counter("reg_writers", self.reg_writers);
        scope.counter("value_producers", self.value_producers);
        scope.counter("jumps", self.jumps);
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total instructions : {}", self.total)?;
        writeln!(f, "cond branches      : {} ({} taken)", self.cond_branches, self.taken_branches)?;
        writeln!(f, "loads / stores     : {} / {}", self.loads, self.stores)?;
        writeln!(f, "register writers   : {}", self.reg_writers)?;
        writeln!(f, "value producers    : {}", self.value_producers)?;
        write!(f, "jumps              : {}", self.jumps)
    }
}

/// The committed-path dynamic instruction stream of one program run,
/// together with the program's observable outputs.
#[derive(Debug, Clone)]
pub struct Trace {
    program: Program,
    records: Vec<DynInst>,
    outputs: Vec<u64>,
}

impl Trace {
    /// Assembles a trace from its parts. Intended for the emulator and for
    /// synthetic traces in tests.
    #[must_use]
    pub fn from_parts(program: Program, records: Vec<DynInst>, outputs: Vec<u64>) -> Trace {
        debug_assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        Trace { program, records, outputs }
    }

    /// The program that produced this trace.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The retired dynamic instructions, in program order.
    #[must_use]
    pub fn records(&self) -> &[DynInst] {
        &self.records
    }

    /// The values emitted by `out` instructions, in order.
    #[must_use]
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Number of retired dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInst> {
        self.records.iter()
    }

    /// Computes whole-run counters.
    ///
    /// One `match` on [`OpcodeKind`](dide_isa::OpcodeKind) per record: the
    /// summary runs over every record in several experiments, so the
    /// per-category predicates (`is_load`, `is_store`, ... — each its own
    /// kind dispatch) are folded into a single dispatch.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        use dide_isa::OpcodeKind;
        let mut s = TraceSummary { total: self.records.len() as u64, ..TraceSummary::default() };
        for r in &self.records {
            // Kinds with a destination register count as writers (and value
            // producers) unless the destination is the zero register.
            let writes_reg = !r.rd.is_zero();
            match r.op.kind() {
                OpcodeKind::AluRR | OpcodeKind::AluRI | OpcodeKind::LoadImm => {
                    s.reg_writers += u64::from(writes_reg);
                    s.value_producers += u64::from(writes_reg);
                }
                OpcodeKind::Load { .. } => {
                    s.loads += 1;
                    s.reg_writers += u64::from(writes_reg);
                    s.value_producers += u64::from(writes_reg);
                }
                OpcodeKind::Store { .. } => {
                    s.stores += 1;
                    s.value_producers += 1;
                }
                OpcodeKind::Branch(_) => {
                    s.cond_branches += 1;
                    s.taken_branches += u64::from(r.taken());
                }
                OpcodeKind::Jal | OpcodeKind::Jalr => {
                    s.jumps += 1;
                    s.reg_writers += u64::from(writes_reg);
                    s.value_producers += u64::from(writes_reg);
                }
                OpcodeKind::Out | OpcodeKind::Halt | OpcodeKind::Nop => {}
            }
        }
        s
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    fn sample_trace() -> Trace {
        let mut b = ProgramBuilder::new("sample");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 3);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.sd(Reg::T0, Reg::SP, -8);
        b.ld(Reg::T2, Reg::SP, -8);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T2);
        b.halt();
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    #[test]
    fn summary_counts() {
        let t = sample_trace();
        let s = t.summary();
        assert_eq!(s.total, t.len() as u64);
        assert_eq!(s.cond_branches, 3);
        assert_eq!(s.taken_branches, 2);
        assert_eq!(s.loads, 3);
        assert_eq!(s.stores, 3);
        assert_eq!(s.jumps, 0);
        assert!(s.reg_writers >= 2 + 3 + 3);
        assert_eq!(s.value_producers, s.reg_writers + s.stores);
    }

    #[test]
    fn run_trims_the_record_buffer() {
        // 17 records: not a capacity the buffer's doubling growth reaches.
        let mut b = ProgramBuilder::new("odd");
        for _ in 0..16 {
            b.li(Reg::T0, 1);
        }
        b.halt();
        let t = Emulator::new(&b.build().unwrap()).run().unwrap();
        assert_eq!(t.len(), 17);
        assert_eq!(t.records.capacity(), t.len());
    }

    #[test]
    fn outputs_captured() {
        let t = sample_trace();
        assert_eq!(t.outputs(), &[3]);
    }

    #[test]
    fn records_are_dense() {
        let t = sample_trace();
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn summary_matches_per_record_predicates() {
        // The single-dispatch summary must agree with the (slower)
        // per-predicate definitions it replaced.
        let t = sample_trace();
        let s = t.summary();
        let count = |p: &dyn Fn(&crate::DynInst) -> bool| t.iter().filter(|r| p(r)).count() as u64;
        assert_eq!(s.loads, count(&|r| r.op.is_load()));
        assert_eq!(s.stores, count(&|r| r.op.is_store()));
        assert_eq!(s.cond_branches, count(&|r| r.is_cond_branch()));
        assert_eq!(s.taken_branches, count(&|r| r.is_cond_branch() && r.taken()));
        assert_eq!(s.reg_writers, count(&|r| r.writes_register()));
        assert_eq!(s.value_producers, count(&|r| r.produces_value()));
        assert_eq!(
            s.jumps,
            count(&|r| matches!(
                r.op.kind(),
                dide_isa::OpcodeKind::Jal | dide_isa::OpcodeKind::Jalr
            ))
        );
    }

    #[test]
    fn summary_display_mentions_totals() {
        let t = sample_trace();
        let text = t.summary().to_string();
        assert!(text.contains("total instructions"));
    }
}
