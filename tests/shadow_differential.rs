//! Differential coverage for the shadow-memory analysis fast paths.
//!
//! `DeadnessAnalysis` keeps per-byte liveness bits in a paged shadow table
//! (`u8` cells) with whole-access (span) fast paths; the `dide-verify`
//! reference oracle deliberately keeps the naive per-byte representation.
//! These tests pin the two implementations together exactly where the fast
//! paths diverge structurally from the naive code: aliasing-heavy random
//! workloads, sub-word partial overwrites, and accesses that straddle a
//! shadow-page boundary (where the analysis must take its byte-at-a-time
//! fallback).

use dide::prelude::*;
use dide_isa::STACK_BASE;
use dide_verify::{derive_config, differential_verdicts};
use dide_workloads::{random_program, GenConfig};

/// Runs a program and returns its trace plus analysis.
fn analyze(program: &Program) -> (Trace, DeadnessAnalysis) {
    let trace = Emulator::new(program).run().expect("program must run to halt");
    let analysis = DeadnessAnalysis::analyze(&trace);
    (trace, analysis)
}

/// Sequence numbers of store records, in trace order.
fn store_seqs(trace: &Trace) -> Vec<u64> {
    trace.iter().filter(|r| r.op.is_store()).map(|r| r.seq).collect()
}

#[test]
fn matches_reference_oracle_on_aliasing_heavy_configs() {
    // Few memory slots force the generator to reuse addresses constantly,
    // producing dense overwrite/partial-overwrite chains in the shadow
    // table. Every verdict must agree with the naive per-byte oracle.
    for &memory_slots in &[1usize, 2, 4] {
        for seed in 0..8u64 {
            let config = GenConfig { memory_slots, segment_len: 16, ..GenConfig::default() };
            let program = random_program(seed, &config);
            let (trace, analysis) = analyze(&program);
            let mismatches = differential_verdicts(&trace, &analysis);
            assert!(
                mismatches.is_empty(),
                "slots {memory_slots}, seed {seed}: {} mismatch(es), first: {}",
                mismatches.len(),
                mismatches[0],
            );
        }
    }
}

#[test]
fn matches_reference_oracle_on_derived_seed_configs() {
    // The `dide verify` seed sweep derives a different config shape per
    // seed (including sub-word and unaligned aliasing patterns).
    for seed in 0..24u64 {
        let config = derive_config(seed);
        let program = random_program(seed, &config);
        let (trace, analysis) = analyze(&program);
        let mismatches = differential_verdicts(&trace, &analysis);
        assert!(mismatches.is_empty(), "seed {seed}: first mismatch: {}", mismatches[0]);
    }
}

#[test]
fn page_crossing_store_read_back_is_useful() {
    // STACK_BASE is 4 KiB-aligned, so an 8-byte store at SP - 4 straddles
    // a shadow-page boundary and must take the analysis fallback path.
    assert_eq!(STACK_BASE % 4096, 0, "test relies on a page-aligned stack");
    let mut b = ProgramBuilder::new("cross-read");
    b.li(Reg::T0, 0x1122_3344_5566_7788);
    b.sd(Reg::T0, Reg::SP, -4);
    b.ld(Reg::T1, Reg::SP, -4);
    b.out(Reg::T1);
    b.halt();
    let program = b.build().unwrap();
    let (trace, analysis) = analyze(&program);

    assert_eq!(trace.outputs(), &[0x1122_3344_5566_7788]);
    let stores = store_seqs(&trace);
    assert_eq!(stores.len(), 1);
    assert_eq!(analysis.verdict(stores[0]), Verdict::Useful);
    assert!(differential_verdicts(&trace, &analysis).is_empty());
}

#[test]
fn page_crossing_store_never_read_is_store_unread() {
    let mut b = ProgramBuilder::new("cross-unread");
    b.li(Reg::T0, 7);
    b.sd(Reg::T0, Reg::SP, -4); // straddles the page boundary, never loaded
    b.li(Reg::T1, 1);
    b.out(Reg::T1);
    b.halt();
    let program = b.build().unwrap();
    let (trace, analysis) = analyze(&program);

    let stores = store_seqs(&trace);
    assert_eq!(stores.len(), 1);
    assert_eq!(analysis.verdict(stores[0]), Verdict::Dead(DeadKind::StoreUnread));
    assert!(differential_verdicts(&trace, &analysis).is_empty());
}

#[test]
fn wide_store_fully_overwritten_by_narrow_stores_is_dead() {
    // An 8-byte store whose bytes are all re-claimed by two 4-byte stores
    // before any load: the live-byte counter must reach zero and classify
    // it StoreOverwritten, while the narrow stores stay live.
    let mut b = ProgramBuilder::new("narrow-overwrite");
    b.li(Reg::T0, -1);
    b.li(Reg::T1, 0x0a0b_0c0d);
    b.sd(Reg::T0, Reg::SP, -16); // dead: fully overwritten below
    b.sw(Reg::T1, Reg::SP, -16);
    b.sw(Reg::T1, Reg::SP, -12);
    b.ld(Reg::T2, Reg::SP, -16);
    b.out(Reg::T2);
    b.halt();
    let program = b.build().unwrap();
    let (trace, analysis) = analyze(&program);

    assert_eq!(trace.outputs(), &[0x0a0b_0c0d_0a0b_0c0d]);
    let stores = store_seqs(&trace);
    assert_eq!(stores.len(), 3);
    assert_eq!(analysis.verdict(stores[0]), Verdict::Dead(DeadKind::StoreOverwritten));
    assert_eq!(analysis.verdict(stores[1]), Verdict::Useful);
    assert_eq!(analysis.verdict(stores[2]), Verdict::Useful);
    assert!(differential_verdicts(&trace, &analysis).is_empty());
}

#[test]
fn partially_overwritten_wide_store_stays_live() {
    // Only half of the wide store's bytes are re-claimed; a load of the
    // surviving half must keep it useful.
    let mut b = ProgramBuilder::new("partial-overwrite");
    b.li(Reg::T0, 0x1111_2222_3333_4444);
    b.li(Reg::T1, 0x5555_6666);
    b.sd(Reg::T0, Reg::SP, -16);
    b.sw(Reg::T1, Reg::SP, -16); // overwrites only the low half
    b.lw(Reg::T2, Reg::SP, -12); // reads the surviving high half
    b.out(Reg::T2);
    b.halt();
    let program = b.build().unwrap();
    let (trace, analysis) = analyze(&program);

    assert_eq!(trace.outputs(), &[0x1111_2222]);
    let stores = store_seqs(&trace);
    assert_eq!(stores.len(), 2);
    assert_eq!(analysis.verdict(stores[0]), Verdict::Useful);
    assert!(differential_verdicts(&trace, &analysis).is_empty());
}
