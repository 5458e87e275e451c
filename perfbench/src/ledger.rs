//! Operation accounting: attempted and failed operations, and the guard
//! that every exact (simulated or deterministic) count repeats
//! bit-for-bit across the passes of a run.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted and failed operations of one benchmark run.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    exact: BTreeMap<String, u64>,
}

impl Ledger {
    /// Operations attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Runs one operation. A panic or an `Err` counts it as failed (and is
    /// logged to stderr); otherwise its value is returned.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.fail(what, &e);
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                self.fail(what, &format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Counts `attempted` operations that ran elsewhere (a campaign's jobs),
    /// `failures` of them failed.
    pub fn tally(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        for failure in failures {
            self.fail("campaign", failure);
        }
    }

    /// Marks the last successful operation as failed.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {why}");
    }

    /// Fixes the expected value of one exact count before any pass runs
    /// (the self-test plants a wrong one to prove drift is caught).
    pub fn expect_exact(&mut self, key: &str, value: u64) {
        self.exact.insert(key.to_string(), value);
    }

    /// Checks the exact counts of the successful operation `what` against
    /// their first sighting in this run; any drift fails the operation.
    pub fn exact<'a>(&mut self, what: &str, counts: impl IntoIterator<Item = (&'a str, u64)>) {
        let mut drift = None;
        for (name, value) in counts {
            let key = format!("{what}:{name}");
            let first = *self.exact.entry(key.clone()).or_insert(value);
            if first != value && drift.is_none() {
                drift = Some(format!("exact count {key} drifted: {first} then {value}"));
            }
        }
        if let Some(why) = drift {
            self.fail(what, &why);
        }
    }

    /// An order-independent digest of every exact count seen, for
    /// comparing runs of one commit by eye (logged to stderr).
    #[must_use]
    pub fn digest(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for (key, value) in &self.exact {
            for byte in key.bytes().chain(value.to_le_bytes()) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("{hash:016x} over {} exact counts", self.exact.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_and_errors_count_as_failures() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.op("ok", || Ok(3)), Some(3));
        assert_eq!(ledger.op::<()>("err", || Err("bad".to_string())), None);
        assert_eq!(ledger.op::<()>("panic", || panic!("boom")), None);
        assert_eq!((ledger.attempted(), ledger.failed()), (3, 2));
    }

    #[test]
    fn exact_drift_fails_once_per_operation() {
        let mut ledger = Ledger::default();
        ledger.exact("run", [("cycles", 10), ("committed", 5)]);
        ledger.exact("run", [("cycles", 10), ("committed", 5)]);
        assert_eq!(ledger.failed(), 0);
        ledger.exact("run", [("cycles", 11), ("committed", 6)]);
        assert_eq!(ledger.failed(), 1);
    }
}
