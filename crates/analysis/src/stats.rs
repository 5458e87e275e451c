//! Aggregated deadness counters.

use std::fmt;

use dide_emu::Trace;

use crate::verdict::{DeadKind, Verdict};

/// Whole-trace deadness counters (the numbers behind the paper's Figure on
/// dead-instruction fractions and its breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadStats {
    /// Total dynamic instructions.
    pub total: u64,
    /// Dynamic instructions eligible for deadness (value producers).
    pub eligible: u64,
    /// Dead dynamic instructions (first-level + transitive).
    pub dead_total: u64,
    /// Dead register-overwritten instructions.
    pub reg_overwritten: u64,
    /// Dead register-never-read instructions.
    pub reg_unread: u64,
    /// Dead fully-overwritten stores.
    pub store_overwritten: u64,
    /// Dead never-loaded stores.
    pub store_unread: u64,
    /// Transitively dead instructions.
    pub transitive: u64,
    /// Dead dynamic loads (a subset of the register kinds above; each one
    /// would have consumed a D-cache access).
    pub dead_loads: u64,
    /// Dead dynamic stores (each one would have consumed a D-cache access).
    pub dead_stores: u64,
}

impl DeadStats {
    /// Tallies verdicts against the trace they were computed from.
    #[must_use]
    pub fn from_verdicts(trace: &Trace, verdicts: &[Verdict]) -> DeadStats {
        assert_eq!(trace.len(), verdicts.len(), "verdicts must match trace");
        let mut s = DeadStats { total: trace.len() as u64, ..DeadStats::default() };
        for (r, &v) in trace.iter().zip(verdicts) {
            s.count(v, r.op.is_load(), r.op.is_store());
        }
        s
    }

    /// Tallies one record's verdict into every counter but `total`;
    /// `is_load` and `is_store` say what kind of record it was.
    #[inline]
    pub(crate) fn count(&mut self, verdict: Verdict, is_load: bool, is_store: bool) {
        self.eligible += u64::from(verdict.is_eligible());
        let Some(kind) = verdict.dead_kind() else { return };
        self.dead_total += 1;
        match kind {
            DeadKind::RegOverwritten => self.reg_overwritten += 1,
            DeadKind::RegUnread => self.reg_unread += 1,
            DeadKind::StoreOverwritten => self.store_overwritten += 1,
            DeadKind::StoreUnread => self.store_unread += 1,
            DeadKind::Transitive => self.transitive += 1,
        }
        self.dead_loads += u64::from(is_load);
        self.dead_stores += u64::from(is_store);
    }

    /// Count for one dead kind.
    #[must_use]
    pub fn kind_count(&self, kind: DeadKind) -> u64 {
        match kind {
            DeadKind::RegOverwritten => self.reg_overwritten,
            DeadKind::RegUnread => self.reg_unread,
            DeadKind::StoreOverwritten => self.store_overwritten,
            DeadKind::StoreUnread => self.store_unread,
            DeadKind::Transitive => self.transitive,
        }
    }

    /// First-level (directly) dead instructions.
    #[must_use]
    pub fn first_level(&self) -> u64 {
        self.dead_total - self.transitive
    }

    /// Dead instructions as a fraction of *all* dynamic instructions — the
    /// paper's headline 3–16% metric.
    #[must_use]
    pub fn dead_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.dead_total as f64 / self.total as f64
        }
    }

    /// Dead instructions as a fraction of eligible (value-producing)
    /// instructions.
    #[must_use]
    pub fn dead_fraction_of_eligible(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            self.dead_total as f64 / self.eligible as f64
        }
    }
}

impl dide_obs::Observe for DeadStats {
    fn observe(&self, scope: &mut dide_obs::Scope<'_>) {
        scope.counter("total", self.total);
        scope.counter("eligible", self.eligible);
        scope.counter("dead_total", self.dead_total);
        scope.counter("reg_overwritten", self.reg_overwritten);
        scope.counter("reg_unread", self.reg_unread);
        scope.counter("store_overwritten", self.store_overwritten);
        scope.counter("store_unread", self.store_unread);
        scope.counter("transitive", self.transitive);
        scope.counter("dead_loads", self.dead_loads);
        scope.counter("dead_stores", self.dead_stores);
    }
}

impl fmt::Display for DeadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dynamic instructions : {}", self.total)?;
        writeln!(f, "value producers      : {}", self.eligible)?;
        writeln!(
            f,
            "dead                 : {} ({:.2}% of all, {:.2}% of producers)",
            self.dead_total,
            100.0 * self.dead_fraction(),
            100.0 * self.dead_fraction_of_eligible()
        )?;
        for kind in DeadKind::ALL {
            writeln!(f, "  {:<18} : {}", kind.label(), self.kind_count(kind))?;
        }
        write!(f, "dead loads / stores  : {} / {}", self.dead_loads, self.dead_stores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeadnessAnalysis;
    use dide_emu::Emulator;
    use dide_isa::{ProgramBuilder, Reg};

    fn stats_for(b: ProgramBuilder) -> DeadStats {
        let trace = Emulator::new(&b.build().unwrap()).run().unwrap();
        *DeadnessAnalysis::analyze(&trace).stats()
    }

    #[test]
    fn counts_sum_to_dead_total() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1); // transitive (feeds only the next, dead, li chain? no: overwritten)
        b.li(Reg::T0, 2); // useful
        b.li(Reg::T1, 3); // unread at exit
        b.sd(Reg::T0, Reg::SP, -8); // overwritten store
        b.sd(Reg::T0, Reg::SP, -8); // unread store
        b.out(Reg::T0);
        b.halt();
        let s = stats_for(b);
        let sum: u64 = DeadKind::ALL.iter().map(|&k| s.kind_count(k)).sum();
        assert_eq!(sum, s.dead_total);
        assert_eq!(s.first_level() + s.transitive, s.dead_total);
        assert_eq!(s.reg_overwritten, 1);
        assert_eq!(s.reg_unread, 1);
        assert_eq!(s.store_overwritten, 1);
        assert_eq!(s.store_unread, 1);
        assert_eq!(s.dead_stores, 2);
    }

    #[test]
    fn fractions() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1);
        b.li(Reg::T0, 2);
        b.out(Reg::T0);
        b.halt();
        let s = stats_for(b);
        assert_eq!(s.total, 4);
        assert_eq!(s.eligible, 2);
        assert_eq!(s.dead_total, 1);
        assert!((s.dead_fraction() - 0.25).abs() < 1e-12);
        assert!((s.dead_fraction_of_eligible() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_fractions_are_zero() {
        let s = DeadStats::default();
        assert_eq!(s.dead_fraction(), 0.0);
        assert_eq!(s.dead_fraction_of_eligible(), 0.0);
    }

    #[test]
    fn display_mentions_all_kinds() {
        let mut b = ProgramBuilder::new("t");
        b.li(Reg::T0, 1);
        b.halt();
        let text = stats_for(b).to_string();
        for kind in DeadKind::ALL {
            assert!(text.contains(kind.label()), "missing {kind}");
        }
    }
}
