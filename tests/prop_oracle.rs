//! Whole-stack property tests over randomly generated programs:
//!
//! * the deadness oracle's removability promise (deleting dead
//!   instructions preserves outputs),
//! * structural invariants of the dynamic dependence graph, and
//! * conservation laws of the timing pipeline.

use dide::prelude::*;
use dide_analysis::{replay_outputs, verify_dead_removable};
use dide_workloads::{random_program, GenConfig};
use proptest::prelude::*;

fn trace_for(seed: u64) -> Trace {
    let program = random_program(seed, &GenConfig::default());
    Emulator::new(&program).run().expect("generated programs halt")
}

proptest! {
    // 24 cases by default; `DIDE_PROPTEST_CASES` (e.g. via `./ci.sh --deep`)
    // scales this up without editing the test.
    #![proptest_config(ProptestConfig::from_env(24))]

    #[test]
    fn dead_instructions_are_removable(seed: u64) {
        let trace = trace_for(seed);
        let analysis = DeadnessAnalysis::analyze(&trace);
        verify_dead_removable(&trace, &analysis)
            .expect("removing oracle-dead instructions must preserve outputs");
    }

    #[test]
    fn full_replay_is_faithful(seed: u64) {
        let trace = trace_for(seed);
        let outputs = replay_outputs(&trace, |_| false);
        prop_assert_eq!(outputs, trace.outputs().to_vec());
    }

    #[test]
    fn useful_instructions_read_only_useful_producers(seed: u64) {
        let trace = trace_for(seed);
        let analysis = DeadnessAnalysis::analyze(&trace);
        // Producer edges from the reference oracle's own forward pass: the
        // analysis never builds any.
        let producers = dide_verify::reference_producers(trace.records());
        for r in &trace {
            let v = analysis.verdict(r.seq);
            // Producers always precede their consumers.
            for &p in &producers[r.seq as usize] {
                prop_assert!(p < r.seq, "producer {} of {} out of order", p, r.seq);
            }
            // A useful (or root) instruction's producers must be useful:
            // dead values are read only by dead instructions.
            let consumes = v == Verdict::Useful || !v.is_eligible();
            let roots_or_useful = consumes
                && (r.op.is_control()
                    || matches!(
                        r.op.kind(),
                        dide_isa::OpcodeKind::Out | dide_isa::OpcodeKind::Halt
                    )
                    || v == Verdict::Useful);
            if roots_or_useful {
                for &p in &producers[r.seq as usize] {
                    prop_assert!(
                        !analysis.is_dead(p),
                        "useful seq {} read dead producer {}",
                        r.seq,
                        p
                    );
                }
            }
        }
    }

    #[test]
    fn dead_counts_are_conserved(seed: u64) {
        let trace = trace_for(seed);
        let analysis = DeadnessAnalysis::analyze(&trace);
        let stats = analysis.stats();
        let dead_by_scan = analysis.verdicts().iter().filter(|v| v.is_dead()).count() as u64;
        let eligible_by_scan =
            analysis.verdicts().iter().filter(|v| v.is_eligible()).count() as u64;
        prop_assert_eq!(stats.dead_total, dead_by_scan);
        prop_assert_eq!(stats.eligible, eligible_by_scan);
        prop_assert!(stats.dead_total <= stats.eligible);
        prop_assert_eq!(stats.total, trace.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::from_env(10))]

    // The counter registry's conservation laws, end to end: every per-run
    // law in `PipelineStats::conservation_rules()` (commit accounting,
    // alloc/free bounds, elimination accounting, cache-level conservation)
    // plus the cross-run laws between the baseline and each elimination
    // flavor (eliminated register-file and D-cache traffic reappears
    // exactly as savings). These registry rules subsume the bespoke
    // alloc/free and elimination assertions this block used to spell out
    // field by field.
    #[test]
    fn registry_conservation_laws_hold_end_to_end(seed: u64) {
        let trace = trace_for(seed);
        let analysis = DeadnessAnalysis::analyze(&trace);
        let base = Core::new(PipelineConfig::contended()).run(&trace, &analysis);
        prop_assert_eq!(base.counters().expect("pipeline.committed"), trace.len() as u64);
        let v = base.invariant_violations();
        prop_assert!(v.is_empty(), "baseline laws: {:?}", v);
        for oracle in [false, true] {
            let config = PipelineConfig::contended()
                .with_elimination(DeadElimConfig { oracle, ..DeadElimConfig::default() });
            let elim = Core::new(config).run(&trace, &analysis);
            prop_assert_eq!(elim.committed, trace.len() as u64);
            let v = elim.invariant_violations();
            prop_assert!(v.is_empty(), "per-run laws (oracle={}): {:?}", oracle, v);
            let v = dide_verify::cross_run_violations(&base, &elim);
            prop_assert!(v.is_empty(), "cross-run laws (oracle={}): {:?}", oracle, v);
        }
    }
}
