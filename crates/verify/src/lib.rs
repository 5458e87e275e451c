//! Differential verification for the DIDE stack.
//!
//! A single `DeadnessAnalysis` implementation is both the measurement and
//! its own referee; this crate adds an independent checking layer:
//!
//! * [`oracle`] — a second liveness oracle, written from scratch with a
//!   different algorithm, whose verdicts must match the production
//!   analysis bit-for-bit;
//! * [`diff`] — the verdict-by-verdict differential comparison;
//! * [`invariants`] — metamorphic whole-stack invariants checked per
//!   seed: removal preserves outputs, pipeline committed state matches
//!   the emulator, conservation laws over pipeline statistics, and
//!   exact threshold monotonicity of the offline predictor evaluation;
//! * [`stream`] — the streamed-vs-exact differential: windowed analysis
//!   soundness across an epoch sweep, single-epoch bit-identity, and
//!   streamed-pipeline equivalence;
//! * [`storecheck`] — canonical-form equality of campaign result stores
//!   (the jobs-1 vs jobs-N vs interrupted+resumed determinism check);
//! * [`seedcheck`] — one seed in, one [`seedcheck::SeedReport`] out: the
//!   unit of work the `dide verify` fuzz driver fans out;
//! * [`shrink`] — minimizes a failing seed's generator config while
//!   preserving the failure;
//! * [`corpus`] — on-disk persistence of failing cases, replayed before
//!   fresh random seeds on every run;
//! * [`golden`] — byte-identical snapshot comparison for rendered
//!   experiment tables.

pub mod corpus;
pub mod diff;
pub mod golden;
pub mod invariants;
pub mod oracle;
pub mod seedcheck;
pub mod shrink;
pub mod storecheck;
pub mod stream;

pub use corpus::{load_corpus, save_case, CorpusCase};
pub use diff::{differential_verdicts, VerdictMismatch};
pub use golden::{bless_golden, compare_golden, golden_path, GoldenMismatch};
pub use invariants::{check_invariants, cross_run_rules, cross_run_violations};
pub use oracle::{reference_producers, ReferenceOracle};
pub use seedcheck::{derive_config, verify_seed, verify_seed_with, SeedReport};
pub use shrink::shrink_case;
pub use storecheck::{canonical_store_lines, diff_stores};
pub use stream::check_streaming;
