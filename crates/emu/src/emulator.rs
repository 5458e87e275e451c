//! The architectural interpreter.
//!
//! Two consumption models share one stepping core:
//!
//! * [`Emulator::run`] — execute to `halt` and materialize the full
//!   [`Trace`] (the original whole-trace path);
//! * [`Emulator::run_streamed`] / [`TraceStream`] — execute in fixed-size
//!   *epochs* of [`DynInst`] records, handing each epoch to the consumer
//!   and reusing the buffers, so peak retained trace memory is bounded by
//!   a few epochs regardless of trace length.

use std::collections::VecDeque;

use dide_isa::{BranchCond, Inst, OpcodeKind, Program, Reg, STACK_BASE};

use crate::dyninst::{DynInst, MemAccess};
use crate::error::EmuError;
use crate::memory::Memory;
use crate::trace::Trace;

/// Default epoch length (records per [`TraceChunk`]) for streaming runs.
pub const DEFAULT_EPOCH_LEN: usize = 65_536;

/// Resource limits and initial conditions for an emulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmulatorConfig {
    /// Maximum dynamic instructions before the run aborts with
    /// [`EmuError::StepLimit`].
    pub max_steps: u64,
    /// Initial stack pointer.
    pub stack_base: u64,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        EmulatorConfig { max_steps: 50_000_000, stack_base: STACK_BASE }
    }
}

/// One epoch of consecutive dynamic instructions from a streaming run.
///
/// Record `i` of the chunk has `seq == base + i`. Every chunk except
/// possibly the last holds exactly the configured epoch length; chunks are
/// never empty.
#[derive(Debug)]
pub struct TraceChunk {
    base: u64,
    records: Vec<DynInst>,
    last: bool,
}

impl TraceChunk {
    /// Sequence number of the first record in the chunk.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The records, in sequence order.
    #[must_use]
    pub fn records(&self) -> &[DynInst] {
        &self.records
    }

    /// Number of records in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the chunk is empty (never true for chunks a consumer sees).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One past the sequence number of the last record.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// Whether this is the final chunk of the run (the program halted).
    #[must_use]
    pub fn is_last(&self) -> bool {
        self.last
    }
}

/// What a completed [`Emulator::run_streamed`] run produced besides the
/// epochs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total dynamic instructions retired.
    pub len: u64,
    /// Number of epochs delivered to the consumer.
    pub epochs: u64,
    /// Values written by `out`, in order.
    pub outputs: Vec<u64>,
}

/// Architectural interpreter for SIR programs.
///
/// Executes a program to completion and captures the full dynamic trace.
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Emulator<'p> {
    program: &'p Program,
    config: EmulatorConfig,
    regs: [u64; Reg::COUNT],
    memory: Memory,
    pc: u32,
    steps: u64,
    outputs: Vec<u64>,
    halted: bool,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with default limits.
    #[must_use]
    pub fn new(program: &'p Program) -> Emulator<'p> {
        Emulator::with_config(program, EmulatorConfig::default())
    }

    /// Creates an emulator with explicit limits.
    #[must_use]
    pub fn with_config(program: &'p Program, config: EmulatorConfig) -> Emulator<'p> {
        let mut memory = Memory::new();
        memory.write_bytes(dide_isa::DATA_BASE, program.data());
        let mut regs = [0u64; Reg::COUNT];
        regs[Reg::SP.index()] = config.stack_base;
        regs[Reg::FP.index()] = config.stack_base;
        Emulator {
            pc: program.entry(),
            program,
            config,
            regs,
            memory,
            steps: 0,
            outputs: Vec::new(),
            halted: false,
        }
    }

    fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Executes up to `max` further instructions, appending one record per
    /// retired instruction to `out`. Returns `true` once the program has
    /// halted (the `halt` record itself is appended first).
    fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) -> Result<bool, EmuError> {
        debug_assert!(!self.halted, "fill called after halt");
        let len = self.program.len() as u64;
        for _ in 0..max {
            let seq = self.steps;
            if seq >= self.config.max_steps {
                return Err(EmuError::StepLimit { limit: self.config.max_steps });
            }
            let pc = self.pc;
            let inst: Inst = *self
                .program
                .get(pc)
                .ok_or(EmuError::BadFetch { index: u64::from(pc), at_seq: seq })?;

            let mut next = pc + 1;
            let mut taken = false;
            let mut mem: Option<MemAccess> = None;
            let mut halted = false;

            match inst.op.kind() {
                OpcodeKind::AluRR => {
                    let v =
                        crate::semantics::alu_rr(inst.op, self.reg(inst.rs1), self.reg(inst.rs2));
                    self.set_reg(inst.rd, v);
                }
                OpcodeKind::AluRI => {
                    let v = crate::semantics::alu_ri(inst.op, self.reg(inst.rs1), inst.imm);
                    self.set_reg(inst.rd, v);
                }
                OpcodeKind::LoadImm => self.set_reg(inst.rd, inst.imm as u64),
                OpcodeKind::Load { width, signed } => {
                    let addr = self.reg(inst.rs1).wrapping_add(inst.imm as u64);
                    let bytes = width.bytes();
                    if Memory::faults(addr, bytes) {
                        return Err(EmuError::MemFault { addr, at_seq: seq });
                    }
                    let raw = self.memory.read_le(addr, bytes);
                    let v = if signed { crate::semantics::sign_extend(raw, bytes) } else { raw };
                    self.set_reg(inst.rd, v);
                    mem = Some(MemAccess { addr, width });
                }
                OpcodeKind::Store { width } => {
                    let addr = self.reg(inst.rs1).wrapping_add(inst.imm as u64);
                    let bytes = width.bytes();
                    if Memory::faults(addr, bytes) {
                        return Err(EmuError::MemFault { addr, at_seq: seq });
                    }
                    self.memory.write_le(addr, bytes, self.reg(inst.rs2));
                    mem = Some(MemAccess { addr, width });
                }
                OpcodeKind::Branch(cond) => {
                    taken = BranchCond::eval(cond, self.reg(inst.rs1), self.reg(inst.rs2));
                    if taken {
                        next = inst.imm as u32;
                    }
                }
                OpcodeKind::Jal => {
                    self.set_reg(inst.rd, u64::from(pc + 1));
                    next = inst.imm as u32;
                    taken = true;
                }
                OpcodeKind::Jalr => {
                    let target = self.reg(inst.rs1).wrapping_add(inst.imm as u64);
                    if target >= len {
                        return Err(EmuError::BadFetch { index: target, at_seq: seq });
                    }
                    self.set_reg(inst.rd, u64::from(pc + 1));
                    next = target as u32;
                    taken = true;
                }
                OpcodeKind::Out => {
                    let v = self.reg(inst.rs1);
                    self.outputs.push(v);
                }
                OpcodeKind::Halt => {
                    halted = true;
                    next = pc;
                }
                OpcodeKind::Nop => {}
            }

            out.push(DynInst::new(seq, pc, inst, next, taken, mem));
            self.steps += 1;

            if halted {
                self.halted = true;
                return Ok(true);
            }
            self.pc = next;
        }
        Ok(false)
    }

    /// Runs the program to `halt`, returning the full dynamic trace.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on an invalid fetch, a memory access into the
    /// guard region, or exhaustion of the configured step limit.
    pub fn run(mut self) -> Result<Trace, EmuError> {
        let mut records: Vec<DynInst> = Vec::new();
        while !self.fill(&mut records, usize::MAX)? {}
        // Drop the growth slack (up to half the buffer): a materialized
        // trace is often held for the rest of the run, or cached.
        records.shrink_to_fit();
        Ok(Trace::from_parts(self.program.clone(), records, self.outputs))
    }

    /// Runs the program to `halt`, delivering the trace to `consumer` in
    /// epochs of `epoch_len` records.
    ///
    /// One chunk buffer is allocated for the whole run and reused between
    /// epochs, so peak retained trace memory is a single epoch. The borrow
    /// handed to the consumer does not outlive the call, and the program is
    /// never cloned (streaming consumers that need it borrow it from the
    /// caller instead).
    ///
    /// # Errors
    ///
    /// As [`Emulator::run`]. The consumer may already have observed a
    /// prefix of the trace when an error is returned.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn run_streamed<F>(
        mut self,
        epoch_len: usize,
        mut consumer: F,
    ) -> Result<StreamSummary, EmuError>
    where
        F: FnMut(&TraceChunk),
    {
        assert!(epoch_len > 0, "epoch length must be positive");
        let mut chunk = TraceChunk { base: 0, records: Vec::with_capacity(epoch_len), last: false };
        let mut epochs = 0u64;
        loop {
            chunk.base = self.steps;
            chunk.records.clear();
            let halted = self.fill(&mut chunk.records, epoch_len)?;
            chunk.last = halted;
            epochs += 1;
            consumer(&chunk);
            if halted {
                return Ok(StreamSummary { len: self.steps, epochs, outputs: self.outputs });
            }
        }
    }
}

/// Pull-style streaming view of a trace, for consumers that need random
/// access to a *sliding window* of recent records (the pipeline: fetch
/// reads ahead while the ROB still references older sequence numbers).
///
/// Chunks are produced on demand by [`TraceStream::get`] and recycled by
/// [`TraceStream::release_before`]; released buffers are reused for new
/// epochs, so peak retained memory is `peak_resident_chunks()` epochs.
///
/// The stream is for programs already known to emulate cleanly (the
/// analysis pass runs first and surfaces any [`EmuError`]); a mid-stream
/// emulation failure panics.
#[derive(Debug)]
pub struct TraceStream<'p> {
    emu: Emulator<'p>,
    epoch_len: usize,
    /// Live window, oldest chunk first. Every chunk base is a multiple of
    /// `epoch_len`, so lookup is pure arithmetic.
    window: VecDeque<TraceChunk>,
    /// Recycled chunk buffers awaiting reuse.
    spare: Vec<Vec<DynInst>>,
    /// Total records produced so far (== `emu.steps`).
    produced: u64,
    /// Known total trace length, once the program has halted.
    total: Option<u64>,
    peak_resident: usize,
}

impl<'p> TraceStream<'p> {
    /// Creates a stream over `program` with default emulator limits.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn new(program: &'p Program, epoch_len: usize) -> TraceStream<'p> {
        TraceStream::with_config(program, EmulatorConfig::default(), epoch_len)
    }

    /// Creates a stream with explicit emulator limits.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    #[must_use]
    pub fn with_config(
        program: &'p Program,
        config: EmulatorConfig,
        epoch_len: usize,
    ) -> TraceStream<'p> {
        assert!(epoch_len > 0, "epoch length must be positive");
        TraceStream {
            emu: Emulator::with_config(program, config),
            epoch_len,
            window: VecDeque::new(),
            spare: Vec::new(),
            produced: 0,
            total: None,
            peak_resident: 0,
        }
    }

    /// The program being executed (borrowed, never cloned).
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.emu.program
    }

    /// Configured epoch length.
    #[must_use]
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    fn produce_chunk(&mut self) {
        debug_assert!(self.total.is_none());
        let mut records = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(self.epoch_len));
        records.clear();
        let base = self.produced;
        let halted = self
            .emu
            .fill(&mut records, self.epoch_len)
            .expect("streamed program emulates cleanly (checked by the analysis pass)");
        self.produced += records.len() as u64;
        self.window.push_back(TraceChunk { base, records, last: halted });
        if halted {
            self.total = Some(self.produced);
        }
        self.peak_resident = self.peak_resident.max(self.window.len() + self.spare.len());
    }

    /// The record with sequence number `seq`, producing further epochs on
    /// demand; `None` once `seq` is at or past the end of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `seq` falls before the current window (already released)
    /// or the program fails to emulate.
    pub fn get(&mut self, seq: u64) -> Option<DynInst> {
        while seq >= self.produced && self.total.is_none() {
            self.produce_chunk();
        }
        if seq >= self.produced {
            return None;
        }
        let first = self.window.front().expect("window holds every unreleased produced record");
        assert!(
            seq >= first.base,
            "record {seq} was already released (window starts at {})",
            first.base
        );
        let chunk = &self.window[((seq - first.base) / self.epoch_len as u64) as usize];
        Some(chunk.records[(seq - chunk.base) as usize])
    }

    /// Whether `pos` is past the last record of the trace (producing epochs
    /// as needed to decide).
    pub fn end_reached(&mut self, pos: u64) -> bool {
        self.get(pos).is_none()
    }

    /// Recycles every chunk that lies entirely before `seq`; their buffers
    /// are reused for future epochs.
    pub fn release_before(&mut self, seq: u64) {
        while let Some(front) = self.window.front() {
            if front.end() > seq {
                break;
            }
            let chunk = self.window.pop_front().expect("front exists");
            self.spare.push(chunk.records);
        }
    }

    /// Chunks currently resident (live window plus recycled spares).
    #[must_use]
    pub fn resident_chunks(&self) -> usize {
        self.window.len() + self.spare.len()
    }

    /// High-water mark of resident chunks over the stream's lifetime.
    #[must_use]
    pub fn peak_resident_chunks(&self) -> usize {
        self.peak_resident
    }

    /// High-water mark of retained trace bytes: resident chunks times the
    /// epoch buffer size. Deterministic model-level accounting (buffer
    /// capacity, not OS RSS), comparable across runs.
    #[must_use]
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident as u64 * self.epoch_len as u64 * std::mem::size_of::<DynInst>() as u64
    }

    /// Total trace length, once known (the final epoch has been produced).
    #[must_use]
    pub fn total_len(&self) -> Option<u64> {
        self.total
    }

    /// Values written by `out` so far; complete once [`TraceStream::total_len`]
    /// is `Some`.
    #[must_use]
    pub fn outputs(&self) -> &[u64] {
        &self.emu.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dide_isa::ProgramBuilder;

    fn run(b: ProgramBuilder) -> Trace {
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let mut b = ProgramBuilder::new("arith");
        b.li(Reg::T0, 6).li(Reg::T1, 7);
        b.mul(Reg::T2, Reg::T0, Reg::T1);
        b.out(Reg::T2);
        b.halt();
        assert_eq!(run(b).outputs(), &[42]);
    }

    #[test]
    fn signed_division_semantics() {
        let mut b = ProgramBuilder::new("div");
        b.li(Reg::T0, -7).li(Reg::T1, 2);
        b.div(Reg::T2, Reg::T0, Reg::T1);
        b.rem(Reg::T3, Reg::T0, Reg::T1);
        b.out(Reg::T2).out(Reg::T3);
        // division by zero: div -> all ones, rem -> dividend
        b.li(Reg::T1, 0);
        b.div(Reg::T4, Reg::T0, Reg::T1);
        b.rem(Reg::T5, Reg::T0, Reg::T1);
        b.out(Reg::T4).out(Reg::T5);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs(), &[(-3i64) as u64, (-1i64) as u64, u64::MAX, (-7i64) as u64]);
    }

    #[test]
    fn loads_sign_extend() {
        let mut b = ProgramBuilder::new("sext");
        let addr = b.data_bytes(&[0xff, 0xff, 0x80, 0x00]);
        b.li_u64(Reg::T0, addr);
        b.lb(Reg::T1, Reg::T0, 0);
        b.lbu(Reg::T2, Reg::T0, 0);
        b.lh(Reg::T3, Reg::T0, 0);
        b.lw(Reg::T4, Reg::T0, 0);
        b.out(Reg::T1).out(Reg::T2).out(Reg::T3).out(Reg::T4);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs(), &[(-1i64) as u64, 0xff, (-1i64) as u64, 0x0080_ffff,]);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut b = ProgramBuilder::new("mem");
        b.li(Reg::T0, 0x0123_4567_89ab_cdef_u64 as i64);
        b.sd(Reg::T0, Reg::SP, -8);
        b.ld(Reg::T1, Reg::SP, -8);
        b.lw(Reg::T2, Reg::SP, -8);
        b.out(Reg::T1).out(Reg::T2);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs()[0], 0x0123_4567_89ab_cdef);
        assert_eq!(t.outputs()[1], 0xffff_ffff_89ab_cdef); // lw sign-extends
    }

    #[test]
    fn zero_register_writes_discarded() {
        let mut b = ProgramBuilder::new("zero");
        b.li(Reg::ZERO, 99);
        b.out(Reg::ZERO);
        b.halt();
        assert_eq!(run(b).outputs(), &[0]);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new("call");
        let f = b.label();
        b.li(Reg::A0, 5);
        b.call(f);
        b.out(Reg::A0);
        b.halt();
        b.bind(f);
        b.addi(Reg::A0, Reg::A0, 10);
        b.ret();
        let t = run(b);
        assert_eq!(t.outputs(), &[15]);
        // jal and jalr recorded as taken control transfers
        let jal = t.iter().find(|r| r.op == dide_isa::Opcode::Jal).unwrap();
        assert!(jal.taken());
        assert_eq!(jal.next_index, 4);
    }

    #[test]
    fn branch_records_direction_and_target() {
        let mut b = ProgramBuilder::new("branch");
        b.li(Reg::T0, 1);
        let skip = b.label();
        b.bne(Reg::T0, Reg::ZERO, skip);
        b.li(Reg::T0, 0); // skipped
        b.bind(skip);
        b.out(Reg::T0);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs(), &[1]);
        let br = t.iter().find(|r| r.is_cond_branch()).unwrap();
        assert!(br.taken());
        assert_eq!(br.next_index, 3);
    }

    #[test]
    fn step_limit_enforced() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = EmulatorConfig { max_steps: 100, ..EmulatorConfig::default() };
        let err = Emulator::with_config(&p, cfg).run().unwrap_err();
        assert_eq!(err, EmuError::StepLimit { limit: 100 });
    }

    #[test]
    fn guard_region_faults() {
        let mut b = ProgramBuilder::new("null");
        b.li(Reg::T0, 0);
        b.ld(Reg::T1, Reg::T0, 8);
        b.halt();
        let p = b.build().unwrap();
        let err = Emulator::new(&p).run().unwrap_err();
        assert!(matches!(err, EmuError::MemFault { addr: 8, .. }));
    }

    #[test]
    fn jalr_to_invalid_index_faults() {
        let mut b = ProgramBuilder::new("badjump");
        b.li(Reg::T0, 1_000_000);
        b.jalr(Reg::ZERO, Reg::T0, 0);
        b.halt();
        let p = b.build().unwrap();
        assert!(matches!(
            Emulator::new(&p).run().unwrap_err(),
            EmuError::BadFetch { index: 1_000_000, .. }
        ));
    }

    #[test]
    fn data_segment_initialized() {
        let mut b = ProgramBuilder::new("data");
        let addr = b.data_u64(0xdead_beef);
        b.li_u64(Reg::T0, addr);
        b.ld(Reg::T1, Reg::T0, 0);
        b.out(Reg::T1);
        b.halt();
        assert_eq!(run(b).outputs(), &[0xdead_beef]);
    }

    #[test]
    fn shift_semantics() {
        let mut b = ProgramBuilder::new("shift");
        b.li(Reg::T0, -8);
        b.srai(Reg::T1, Reg::T0, 1);
        b.srli(Reg::T2, Reg::T0, 1);
        b.slli(Reg::T3, Reg::T0, 1);
        b.out(Reg::T1).out(Reg::T2).out(Reg::T3);
        b.halt();
        let t = run(b);
        assert_eq!(t.outputs()[0], (-4i64) as u64);
        assert_eq!(t.outputs()[1], ((-8i64) as u64) >> 1);
        assert_eq!(t.outputs()[2], (-16i64) as u64);
    }

    #[test]
    fn slt_comparisons() {
        let mut b = ProgramBuilder::new("slt");
        b.li(Reg::T0, -1).li(Reg::T1, 1);
        b.slt(Reg::T2, Reg::T0, Reg::T1);
        b.sltu(Reg::T3, Reg::T0, Reg::T1);
        b.slti(Reg::T4, Reg::T0, 0);
        b.out(Reg::T2).out(Reg::T3).out(Reg::T4);
        b.halt();
        assert_eq!(run(b).outputs(), &[1, 0, 1]);
    }

    /// A looping program long enough to span several epochs.
    fn looping_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::T0, 0);
        b.li(Reg::T1, iters);
        let top = b.label();
        b.bind(top);
        b.sw(Reg::T0, Reg::SP, -4);
        b.lw(Reg::T2, Reg::SP, -4);
        b.add(Reg::T3, Reg::T2, Reg::T2);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.out(Reg::T3);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn streamed_concatenation_matches_run() {
        let p = looping_program(200);
        let whole = Emulator::new(&p).run().unwrap();
        for epoch_len in [1usize, 7, 64, 100_000] {
            let mut streamed: Vec<DynInst> = Vec::new();
            let mut bases = Vec::new();
            let summary = Emulator::new(&p)
                .run_streamed(epoch_len, |chunk| {
                    bases.push(chunk.base());
                    assert_eq!(chunk.base() % epoch_len as u64, 0);
                    assert!(!chunk.is_empty());
                    streamed.extend_from_slice(chunk.records());
                })
                .unwrap();
            assert_eq!(streamed, whole.records(), "epoch_len={epoch_len}");
            assert_eq!(summary.outputs, whole.outputs());
            assert_eq!(summary.len, whole.len() as u64);
            assert_eq!(summary.epochs, bases.len() as u64);
            // Every chunk but the last is exactly epoch_len.
            assert_eq!(
                bases,
                (0..summary.epochs).map(|i| i * epoch_len as u64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn streamed_errors_propagate() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.label();
        b.bind(top);
        b.j(top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = EmulatorConfig { max_steps: 100, ..EmulatorConfig::default() };
        let err = Emulator::with_config(&p, cfg).run_streamed(8, |_| {}).unwrap_err();
        assert_eq!(err, EmuError::StepLimit { limit: 100 });
    }

    #[test]
    fn trace_stream_random_access_and_recycling() {
        let p = looping_program(300);
        let whole = Emulator::new(&p).run().unwrap();
        let mut stream = TraceStream::new(&p, 64);
        // Walk forward like the pipeline: read ahead a bit, release behind.
        for seq in 0..whole.len() as u64 {
            let r = stream.get(seq).expect("record exists");
            assert_eq!(r, whole.records()[seq as usize]);
            if seq >= 128 {
                stream.release_before(seq - 128);
            }
        }
        assert!(stream.end_reached(whole.len() as u64));
        assert_eq!(stream.total_len(), Some(whole.len() as u64));
        assert_eq!(stream.outputs(), whole.outputs());
        // The window never needed more than read-ahead + released slack.
        assert!(
            stream.peak_resident_chunks() <= 4,
            "peak {} chunks for a 128-record window of 64-record epochs",
            stream.peak_resident_chunks()
        );
        assert_eq!(
            stream.peak_resident_bytes(),
            stream.peak_resident_chunks() as u64 * 64 * std::mem::size_of::<DynInst>() as u64
        );
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn trace_stream_rejects_reads_behind_the_window() {
        let p = looping_program(300);
        let mut stream = TraceStream::new(&p, 16);
        let _ = stream.get(200);
        stream.release_before(64);
        let _ = stream.get(0);
    }
}
