//! **dide-obs** — the unified observability layer.
//!
//! The paper's headline claims are all *counter deltas*: physical-register
//! management, register-file traffic and D-cache accesses with and without
//! elimination. This crate gives every substrate crate one way to expose
//! those counters and one place to state the laws they must obey:
//!
//! * [`CounterSet`] — an ordered, named registry of `u64` counters.
//!   Producer crates implement [`Observe`] and write their counters into a
//!   [`Scope`] (a dot-separated namespace such as `pipeline.` or
//!   `mem.l1d.`). Hot paths keep incrementing plain struct fields; a
//!   registry snapshot is taken *after* a run, so observation costs nothing
//!   per cycle and allocates nothing on the hot path.
//! * [`Rule`] / [`check_rules`] — conservation laws over counter names
//!   (`a + b == c`, `x <= y + k`). The pipeline's per-run invariants and
//!   `dide-verify`'s cross-run laws are both expressed this way, against
//!   one registry, instead of as ad-hoc field comparisons.
//! * [`EventTrace`] — an optional, runtime-toggled ring buffer of
//!   cycle-stamped events (per-stage occupancy samples, predictor verdicts,
//!   eliminations, violations). Disabled runs pass `None` and pay one
//!   branch per cycle; `dide bench` tracks that overhead.
//! * [`json`] — the workspace's one JSON layer: an ordered [`json::Value`]
//!   tree, one writer and one strict parser with `line:col` errors. Stats
//!   documents, `BENCH.json` and the campaign store all go through it.
//! * [`export`] — deterministic JSON/CSV export of a registry for the
//!   `dide-stats/v1` schema.
//!
//! # Example
//!
//! ```
//! use dide_obs::{check_rules, CounterSet, Expr, Rule};
//!
//! let mut set = CounterSet::new();
//! let mut scope = set.scope("pipeline");
//! scope.counter("committed", 90);
//! scope.counter("squashed", 10);
//! scope.counter("dispatched", 100);
//!
//! let rules = [Rule::eq(
//!     Expr::sum(["pipeline.committed", "pipeline.squashed"]),
//!     Expr::counter("pipeline.dispatched"),
//! )];
//! assert!(check_rules(&rules, &set).is_empty());
//! assert_eq!(set.expect("pipeline.committed"), 90);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod events;
pub mod export;
pub mod json;
mod rules;

pub use counters::{CounterSet, Observe, Scope};
pub use events::{CycleEvent, EventKind, EventTrace, EventsConfig};
pub use export::{counters_csv, counters_json};
pub use rules::{check_rules, Expr, Rule};
