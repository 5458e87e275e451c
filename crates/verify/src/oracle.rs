//! An independently written reference liveness oracle.
//!
//! [`ReferenceOracle`] recomputes the per-instruction deadness verdicts of a
//! trace with code written independently of
//! [`dide_analysis::DeadnessAnalysis`]. Both classify first-level deadness
//! in a **reverse scan** that tracks, per architectural register and per
//! memory byte, the *fate* of the value held there (read next /
//! overwritten next / untouched until the program ends). What stays
//! independent:
//!
//! * **usefulness**: the oracle derives it by an explicit **worklist BFS**
//!   from the observable roots over producer edges resolved by its own
//!   forward pass ([`reference_producers`]); the analysis derives it from a
//!   LIVE bit inside its one reverse sweep and never builds an edge;
//! * **memory state**: the oracle keeps per-byte `HashMap`s; the analysis
//!   keeps its bits in a paged byte table, with whole-access span fast
//!   paths and a byte-at-a-time fallback for page-crossing accesses.
//!
//! The two implementations share only the verdict vocabulary
//! ([`Verdict`]/[`DeadKind`]), so a bug in either side's usefulness
//! propagation or byte bookkeeping shows up as a verdict mismatch in the
//! differential check ([`crate::diff`]).
//!
//! Cost is `O(n · regs)` time and `O(n)` space for a trace of `n` dynamic
//! instructions — deliberately naive; this oracle referees correctness, it
//! does not race the production analysis.

use std::collections::HashMap;

use dide_analysis::{DeadKind, Verdict};
use dide_emu::{DynInst, Trace};
use dide_isa::{OpcodeKind, Reg};

/// What eventually happens, looking forward in time, to a value that is
/// live in a register or memory byte at some point of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Nothing later touches it: it survives to the end of the program.
    Untouched,
    /// The next event is a write that destroys it.
    Overwritten,
    /// The next event is a read.
    Read,
}

/// Reference deadness verdicts for every dynamic instruction of a trace.
#[derive(Debug, Clone)]
pub struct ReferenceOracle {
    verdicts: Vec<Verdict>,
}

impl ReferenceOracle {
    /// Recomputes verdicts for `trace` from scratch.
    #[must_use]
    pub fn analyze(trace: &Trace) -> ReferenceOracle {
        ReferenceOracle { verdicts: compute_verdicts(trace, true) }
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
}

/// A deliberately broken oracle variant for mutation smoke tests: `out`
/// instructions are not treated as usefulness roots, so values that are
/// only ever printed get classified dead. The differential check must
/// catch this — if it does not, the net has a hole.
#[cfg(test)]
fn broken_reference_verdicts(trace: &Trace) -> Vec<Verdict> {
    compute_verdicts(trace, false)
}

/// Whether this record anchors usefulness: control flow, observable
/// output, and program termination are always useful.
fn is_root(kind: OpcodeKind, out_is_root: bool) -> bool {
    match kind {
        OpcodeKind::Branch(_) | OpcodeKind::Jal | OpcodeKind::Jalr | OpcodeKind::Halt => true,
        OpcodeKind::Out => out_is_root,
        _ => false,
    }
}

/// The producers of every record of `records` (`records[i].seq == i`):
/// entry `i` lists, without duplicates and in first-read order, the seqs
/// of the register writes and store bytes record `i` read. This is the
/// reference oracle's own forward pass, kept public so that properties of
/// the production analysis's verdicts can be checked against producer
/// edges computed independently of it.
#[must_use]
pub fn reference_producers(records: &[DynInst]) -> Vec<Vec<u64>> {
    let mut reg_writer: [Option<u64>; Reg::COUNT] = [None; Reg::COUNT];
    let mut byte_writer: HashMap<u64, u64> = HashMap::new();
    let mut producers_of: Vec<Vec<u64>> = vec![Vec::new(); records.len()];

    for r in records {
        let seq = r.seq as usize;
        for src in r.sources() {
            if let Some(w) = reg_writer[src.index()] {
                if !producers_of[seq].contains(&w) {
                    producers_of[seq].push(w);
                }
            }
        }
        if r.op.is_load() {
            for b in r.mem().expect("loads carry a memory access").bytes() {
                if let Some(&w) = byte_writer.get(&b) {
                    if !producers_of[seq].contains(&w) {
                        producers_of[seq].push(w);
                    }
                }
            }
        }
        if let Some(rd) = r.dest() {
            reg_writer[rd.index()] = Some(r.seq);
        }
        if r.op.is_store() {
            for b in r.mem().expect("stores carry a memory access").bytes() {
                byte_writer.insert(b, r.seq);
            }
        }
    }
    producers_of
}

fn compute_verdicts(trace: &Trace, out_is_root: bool) -> Vec<Verdict> {
    let records = trace.records();
    let n = records.len();

    // ---- pass 1 (reverse): per-value fates -> first-level classification.
    //
    // `reg_fate[r]` / `byte_fate[a]` describe the next thing that happens,
    // in forward time, to a value sitting in register `r` / byte `a` at the
    // current scan position. A write classifies the value it produces from
    // the fate recorded *after* it, then flips the fate to `Overwritten`;
    // reads flip fates to `Read`. Within one instruction the reads precede
    // the write in forward time, so in reverse they are applied last.
    let mut reg_fate = [Fate::Untouched; Reg::COUNT];
    let mut byte_fate: HashMap<u64, Fate> = HashMap::new();
    let mut directly_read = vec![false; n];
    let mut first_level: Vec<Option<DeadKind>> = vec![None; n];

    for r in records.iter().rev() {
        let seq = r.seq as usize;
        if let Some(rd) = r.dest() {
            match reg_fate[rd.index()] {
                Fate::Read => directly_read[seq] = true,
                Fate::Overwritten => first_level[seq] = Some(DeadKind::RegOverwritten),
                Fate::Untouched => first_level[seq] = Some(DeadKind::RegUnread),
            }
            reg_fate[rd.index()] = Fate::Overwritten;
        }
        if r.op.is_store() {
            let acc = r.mem().expect("stores carry a memory access");
            let fates: Vec<Fate> =
                acc.bytes().map(|b| *byte_fate.get(&b).unwrap_or(&Fate::Untouched)).collect();
            if fates.contains(&Fate::Read) {
                directly_read[seq] = true;
            } else if fates.iter().all(|&f| f == Fate::Overwritten) {
                first_level[seq] = Some(DeadKind::StoreOverwritten);
            } else {
                first_level[seq] = Some(DeadKind::StoreUnread);
            }
            for b in acc.bytes() {
                byte_fate.insert(b, Fate::Overwritten);
            }
        }
        for src in r.sources() {
            if !src.is_zero() {
                reg_fate[src.index()] = Fate::Read;
            }
        }
        if r.op.is_load() {
            let acc = r.mem().expect("loads carry a memory access");
            for b in acc.bytes() {
                byte_fate.insert(b, Fate::Read);
            }
        }
    }

    // ---- pass 2 (forward): resolve each read to its producer seq.
    let producers_of = reference_producers(records);

    // ---- pass 3: worklist BFS from the roots over producer edges.
    //
    // `useful[i]` means instruction `i`'s value is (transitively) consumed
    // by a root. Roots themselves seed the queue with their producers.
    let mut useful = vec![false; n];
    let mut queue: Vec<u64> = Vec::new();
    for r in records {
        if is_root(r.op.kind(), out_is_root) {
            for &p in &producers_of[r.seq as usize] {
                if !useful[p as usize] {
                    useful[p as usize] = true;
                    queue.push(p);
                }
            }
        }
    }
    while let Some(i) = queue.pop() {
        for &p in &producers_of[i as usize] {
            if !useful[p as usize] {
                useful[p as usize] = true;
                queue.push(p);
            }
        }
    }

    // ---- verdict assembly.
    records
        .iter()
        .map(|r| {
            let seq = r.seq as usize;
            let eligible = (r.dest().is_some() && !r.op.is_control()) || r.op.is_store();
            if !eligible {
                Verdict::NotEligible
            } else if useful[seq] {
                Verdict::Useful
            } else if directly_read[seq] {
                Verdict::Dead(DeadKind::Transitive)
            } else {
                Verdict::Dead(
                    first_level[seq].expect("unread eligible value has a first-level kind"),
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::differential_verdicts;
    use dide_analysis::DeadnessAnalysis;
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    fn run(b: ProgramBuilder) -> Trace {
        Emulator::new(&b.build().unwrap()).run().unwrap()
    }

    #[test]
    fn classifies_the_canonical_cases() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0: overwritten by 1
        b.li(Reg::T0, 2); // 1: useful (printed)
        b.out(Reg::T0); // 2: not eligible
        b.li(Reg::T1, 3); // 3: unread at exit
        b.halt(); // 4
        let o = ReferenceOracle::analyze(&run(b));
        assert_eq!(o.verdict(0), Verdict::Dead(DeadKind::RegOverwritten));
        assert_eq!(o.verdict(1), Verdict::Useful);
        assert_eq!(o.verdict(2), Verdict::NotEligible);
        assert_eq!(o.verdict(3), Verdict::Dead(DeadKind::RegUnread));
        assert!(o.is_dead(0));
        assert_eq!(o.verdicts().len(), 5);
    }

    #[test]
    fn transitive_chain_matches_analysis() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1);
        for _ in 0..6 {
            b.addi(Reg::T0, Reg::T0, 1);
        }
        b.halt();
        let t = run(b);
        let o = ReferenceOracle::analyze(&t);
        for seq in 0..6 {
            assert_eq!(o.verdict(seq), Verdict::Dead(DeadKind::Transitive), "seq {seq}");
        }
        assert_eq!(o.verdict(6), Verdict::Dead(DeadKind::RegUnread));
        assert!(differential_verdicts(&t, &DeadnessAnalysis::analyze(&t)).is_empty());
    }

    #[test]
    fn partial_store_overwrite_is_store_unread() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, -1);
        b.sd(Reg::T0, Reg::SP, -8); // 1: only half overwritten, never read
        b.sw(Reg::ZERO, Reg::SP, -8);
        b.halt();
        let o = ReferenceOracle::analyze(&run(b));
        assert_eq!(o.verdict(1), Verdict::Dead(DeadKind::StoreUnread));
    }

    #[test]
    fn full_store_overwrite_is_store_overwritten() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, -1);
        b.sd(Reg::T0, Reg::SP, -8); // 1: both halves overwritten
        b.sw(Reg::ZERO, Reg::SP, -8);
        b.sw(Reg::ZERO, Reg::SP, -4);
        b.halt();
        let o = ReferenceOracle::analyze(&run(b));
        assert_eq!(o.verdict(1), Verdict::Dead(DeadKind::StoreOverwritten));
    }

    #[test]
    fn store_read_through_overlapping_load_is_useful() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 0x1234_5678);
        b.sd(Reg::T0, Reg::SP, -8);
        b.lb(Reg::T1, Reg::SP, -5); // reads one byte of the store
        b.out(Reg::T1);
        b.halt();
        let o = ReferenceOracle::analyze(&run(b));
        assert_eq!(o.verdict(1), Verdict::Useful);
    }

    #[test]
    fn value_feeding_branch_is_useful() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1);
        let l = b.label();
        b.beq(Reg::T0, Reg::ZERO, l);
        b.bind(l);
        b.halt();
        let o = ReferenceOracle::analyze(&run(b));
        assert_eq!(o.verdict(0), Verdict::Useful);
        assert_eq!(o.verdict(1), Verdict::NotEligible);
    }

    #[test]
    fn zero_register_write_consumer_is_not_useful() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 5); // 0: read only by a discarded write
        b.add(Reg::ZERO, Reg::T0, Reg::T0); // 1: not eligible, not a root
        b.halt();
        let o = ReferenceOracle::analyze(&run(b));
        assert_eq!(o.verdict(1), Verdict::NotEligible);
        assert_eq!(o.verdict(0), Verdict::Dead(DeadKind::Transitive));
    }

    #[test]
    fn producers_resolved_exactly() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // 0
        b.li(Reg::T1, 2); // 1
        b.add(Reg::T2, Reg::T0, Reg::T1); // 2 reads 0 and 1
        b.out(Reg::T2); // 3 reads 2
        b.halt();
        let producers = reference_producers(run(b).records());
        assert_eq!(producers[2], [0, 1]);
        assert_eq!(producers[3], [2]);
        assert_eq!(producers[0], &[] as &[u64]);
    }

    #[test]
    fn duplicate_source_registers_deduped() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 3); // 0
        b.add(Reg::T1, Reg::T0, Reg::T0); // 1 reads 0 twice
        b.out(Reg::T1);
        b.halt();
        assert_eq!(reference_producers(run(b).records())[1], [0]);
    }

    #[test]
    fn mutation_smoke_broken_oracle_is_caught() {
        // The broken variant drops `out` from the root set. On any program
        // whose outputs depend on computed values, it must disagree with
        // the real analysis — proving the differential net catches bugs.
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 41);
        b.addi(Reg::T0, Reg::T0, 1);
        b.out(Reg::T0);
        b.halt();
        let t = run(b);
        let analysis = DeadnessAnalysis::analyze(&t);
        let broken = broken_reference_verdicts(&t);
        assert!(differential_verdicts(&t, &analysis).is_empty(), "healthy oracle agrees");
        let disagreements: Vec<u64> =
            (0..t.len() as u64).filter(|&s| broken[s as usize] != analysis.verdict(s)).collect();
        assert!(!disagreements.is_empty(), "the seeded bug must be visible as a verdict diff");
    }
}
