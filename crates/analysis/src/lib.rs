//! Oracle dead-instruction analysis over dynamic traces.
//!
//! Implements the paper's definitions exactly, over the *actual* dynamic
//! dependence graph recorded by the emulator:
//!
//! * A dynamic instruction is **eligible** for deadness when it produces a
//!   value (an architectural register write or a memory store) and has no
//!   other architectural side effect. Control transfers (`jal`/`jalr`),
//!   branches, `out`, and `halt` are *roots* — always useful.
//! * An eligible instruction is **first-level dead** when its value is never
//!   read at all: the destination register is overwritten before any read
//!   (or never read again), or every stored byte is overwritten before any
//!   load (or never loaded).
//! * An eligible instruction is **dead** when no *useful* instruction ever
//!   reads its value — this adds the **transitively dead** instructions
//!   whose only readers are themselves dead.
//!
//! Deadness is a backward property, so the analysis is one reverse sweep
//! over the trace. For every architectural register and every memory byte
//! (byte-granular, so partial overlaps resolve exactly) it tracks three
//! bits about the value held there: whether a useful instruction reads it
//! before it is overwritten, whether any instruction does, and whether it
//! is overwritten at all. An instruction's verdict follows from the bits
//! of the value it writes, and its sources inherit its usefulness, so
//! usefulness propagates over the exact dynamic dependence graph without
//! that graph ever being built.
//!
//! # Example
//!
//! ```
//! use dide_isa::{ProgramBuilder, Reg};
//! use dide_emu::Emulator;
//! use dide_analysis::DeadnessAnalysis;
//!
//! // t0 = 1 is overwritten by t0 = 2 before any read: first-level dead.
//! let mut b = ProgramBuilder::new("dead-write");
//! b.li(Reg::T0, 1);
//! b.li(Reg::T0, 2);
//! b.out(Reg::T0);
//! b.halt();
//! let trace = Emulator::new(&b.build()?).run()?;
//!
//! let analysis = DeadnessAnalysis::analyze(&trace);
//! assert!(analysis.verdict(0).is_dead());
//! assert!(!analysis.verdict(1).is_dead());
//! assert_eq!(analysis.stats().dead_total, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod lifetime;
mod liveness;
mod locality;
mod replay;
mod static_profile;
mod stats;
mod verdict;
mod window;

pub use interval::{Interval, IntervalSeries};
pub use lifetime::DeadLifetimes;
pub use liveness::DeadnessAnalysis;
pub use locality::{LocalityCdf, LocalityPoint};
pub use replay::{replay_outputs, verify_dead_removable, ReplayMismatch};
pub use static_profile::{StaticBehavior, StaticProfile, StaticRecord};
pub use stats::DeadStats;
pub use verdict::{DeadKind, Verdict};
pub use window::StreamedDeadness;
