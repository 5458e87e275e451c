//! Seeded random program generator.
//!
//! Produces arbitrary — but always valid and always terminating — SIR
//! programs for property-based differential testing: the emulator, the
//! deadness analysis and the timing pipeline are all exercised against the
//! same random programs.
//!
//! Beyond plain ALU traffic the generator manufactures the patterns that
//! make deadness analysis hard: sub-word stores and loads that partially
//! alias each other, diamond control flow whose arms kill each other's
//! values, and call-like save/clobber/restore sequences whose spill slots
//! are frequently overwritten before they are reloaded.

use dide_isa::{Program, ProgramBuilder, Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for [`random_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Number of straight-line segments.
    pub segments: usize,
    /// Operations per segment.
    pub segment_len: usize,
    /// Trip count of each bounded inner loop.
    pub loop_iters: u32,
    /// Scratch memory words available to loads/stores.
    pub memory_slots: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { segments: 8, segment_len: 12, loop_iters: 5, memory_slots: 16 }
    }
}

impl GenConfig {
    /// Derives a shape configuration from a bare seed, splitmix64-mixed so
    /// config and program content are uncorrelated. This is the canonical
    /// seed → config mapping shared by the `dide verify` fuzz driver and
    /// the campaign engine's `gen:<seed>` workloads: every field lands
    /// strictly inside its [`GenConfig::validate`] bounds.
    #[must_use]
    pub fn derived(seed: u64) -> GenConfig {
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        GenConfig {
            segments: 2 + (next() % 9) as usize,
            segment_len: 4 + (next() % 13) as usize,
            loop_iters: 1 + (next() % 6) as u32,
            memory_slots: 4 + (next() % 21) as usize,
        }
    }

    /// Largest accepted `segments`, `segment_len` and `loop_iters`.
    const MAX_SHAPE: u64 = 64;
    /// Largest accepted `memory_slots`.
    const MAX_MEMORY_SLOTS: u64 = 4096;

    /// Checks that the configuration can generate a valid, terminating
    /// program, returning a description of the first problem found.
    ///
    /// # Errors
    ///
    /// Every field must be at least 1: zero segments or zero
    /// `segment_len` generate an empty program, zero memory slots leave
    /// loads/stores nowhere legal to touch, and a zero `loop_iters`
    /// would emit loops whose counter starts at zero and counts *down*,
    /// never terminating. Every field must also be at most its bound — 64
    /// for `segments`, `segment_len` and `loop_iters`, 4096 for
    /// `memory_slots` — which keeps generated programs and their traces
    /// small and the scratch area's byte size from overflowing. Both
    /// bounds sit far above anything [`GenConfig::default`] and
    /// [`GenConfig::derived`] produce.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments == 0 {
            return Err("GenConfig: segments must be at least 1 (got 0)".into());
        }
        if self.segment_len == 0 {
            return Err("GenConfig: segment_len must be at least 1 (got 0)".into());
        }
        if self.memory_slots == 0 {
            return Err("GenConfig: need at least one memory slot (got 0)".into());
        }
        if self.loop_iters == 0 {
            return Err(
                "GenConfig: loop_iters must be at least 1 (a zero-trip loop would decrement \
                 its counter past zero and never terminate)"
                    .into(),
            );
        }
        for (name, value, max) in [
            ("segments", self.segments as u64, Self::MAX_SHAPE),
            ("segment_len", self.segment_len as u64, Self::MAX_SHAPE),
            ("loop_iters", u64::from(self.loop_iters), Self::MAX_SHAPE),
            ("memory_slots", self.memory_slots as u64, Self::MAX_MEMORY_SLOTS),
        ] {
            if value > max {
                return Err(format!("GenConfig: {name} must be at most {max} (got {value})"));
            }
        }
        Ok(())
    }
}

/// Registers the generator is allowed to clobber freely.
const SCRATCH: [Reg; 12] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
];

/// Generates a random, valid, always-terminating program.
///
/// Termination is guaranteed by construction: conditional branches only
/// jump *forward*, and every backward branch is the bottom of a counted
/// loop with a compile-time trip count.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`GenConfig::validate`]).
#[must_use]
pub fn random_program(seed: u64, config: &GenConfig) -> Program {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(format!("random-{seed:#x}"));

    let scratch_base = b.data_zeros(config.memory_slots * 8);
    let base = Reg::G5;
    b.li_u64(base, scratch_base);

    // Seed the scratch registers.
    for r in SCRATCH {
        b.li(r, rng.gen_range(-1000..1000));
    }

    for _ in 0..config.segments {
        let looped = rng.gen_bool(0.4);
        let (top, counter) = if looped {
            let counter = Reg::G4;
            b.li(counter, i64::from(config.loop_iters));
            let top = b.label();
            b.bind(top);
            (Some(top), Some(counter))
        } else {
            (None, None)
        };

        for _ in 0..config.segment_len {
            emit_random_op(&mut b, &mut rng, base, config.memory_slots);
        }

        if let (Some(top), Some(counter)) = (top, counter) {
            b.addi(counter, counter, -1);
            b.bne(counter, Reg::ZERO, top);
        }
    }

    // Make every scratch register observable so the whole computation has
    // live roots (and differential tests can compare final values).
    for r in SCRATCH {
        b.out(r);
    }
    b.halt();
    b.build().expect("generator emits only valid programs")
}

fn pick(rng: &mut StdRng) -> Reg {
    SCRATCH[rng.gen_range(0..SCRATCH.len())]
}

/// A random byte offset into the scratch area such that an access of
/// `width` bytes stays in bounds. Offsets are *not* width-aligned, so
/// accesses of different widths partially overlap each other — the aliasing
/// patterns that distinguish `StoreUnread` / `StoreOverwritten` /
/// transitively-dead stores.
fn unaligned_offset(rng: &mut StdRng, slots: usize, width: usize) -> i64 {
    rng.gen_range(0..=(slots * 8 - width) as i64)
}

fn emit_random_op(b: &mut ProgramBuilder, rng: &mut StdRng, base: Reg, slots: usize) {
    let (d, s1, s2) = (pick(rng), pick(rng), pick(rng));
    match rng.gen_range(0..18) {
        0 => b.add(d, s1, s2),
        1 => b.sub(d, s1, s2),
        2 => b.xor(d, s1, s2),
        3 => b.and(d, s1, s2),
        4 => b.or(d, s1, s2),
        5 => b.mul(d, s1, s2),
        6 => b.div(d, s1, s2),
        7 => b.slt(d, s1, s2),
        8 => b.addi(d, s1, rng.gen_range(-64..64)),
        9 => b.slli(d, s1, rng.gen_range(0..8)),
        10 => {
            // Sub-word store at an arbitrary (unaligned) offset.
            let w = [1usize, 2, 4, 8][rng.gen_range(0..4usize)];
            let off = unaligned_offset(rng, slots, w);
            match w {
                1 => b.sb(s1, base, off),
                2 => b.sh(s1, base, off),
                4 => b.sw(s1, base, off),
                _ => b.sd(s1, base, off),
            }
        }
        11 => {
            // Sub-word load, signed or unsigned, at an arbitrary offset.
            let w = [1usize, 2, 4, 8][rng.gen_range(0..4usize)];
            let off = unaligned_offset(rng, slots, w);
            match (w, rng.gen_bool(0.5)) {
                (1, true) => b.lb(d, base, off),
                (1, false) => b.lbu(d, base, off),
                (2, true) => b.lh(d, base, off),
                (2, false) => b.lhu(d, base, off),
                (4, true) => b.lw(d, base, off),
                (4, false) => b.lwu(d, base, off),
                _ => b.ld(d, base, off),
            }
        }
        12 => {
            // Forward skip over a couple of ops.
            let skip = b.label();
            b.bne(s1, s2, skip);
            b.add(d, s1, s2);
            b.addi(d, d, 1);
            b.bind(skip)
        }
        13 => {
            // Diamond: both arms define `d`, so the not-taken arm's write
            // is killed at the join whenever the taken arm re-defines it.
            let else_arm = b.label();
            let merge = b.label();
            b.blt(s1, s2, else_arm);
            b.add(d, s1, s2);
            b.j(merge);
            b.bind(else_arm);
            b.sub(d, s2, s1);
            b.bind(merge)
        }
        14 => {
            // Call-like save/clobber/restore: spill `s1`, clobber it, then
            // reload. The spill is useful only if nothing overwrites the
            // slot before the reload — later stores frequently do.
            let off = 8 * rng.gen_range(0..slots as i64);
            b.sd(s1, base, off);
            b.xor(s1, s1, s2);
            b.addi(s1, s1, rng.gen_range(-8..8));
            b.ld(s1, base, off)
        }
        15 => {
            // Double-word store at an aligned slot (dense aliasing with
            // the save/restore pattern above).
            let off = 8 * rng.gen_range(0..slots as i64);
            b.sd(s1, base, off)
        }
        16 => {
            let off = 8 * rng.gen_range(0..slots as i64);
            b.ld(d, base, off)
        }
        _ => b.li(d, rng.gen_range(-100..100)),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let cfg = GenConfig::default();
        let a = random_program(7, &cfg);
        let c = random_program(7, &cfg);
        assert_eq!(a.insts(), c.insts());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        assert_ne!(random_program(1, &cfg).insts(), random_program(2, &cfg).insts());
    }

    #[test]
    fn always_valid_over_many_seeds() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let p = random_program(seed, &cfg);
            assert!(p.len() > cfg.segments * cfg.segment_len);
        }
    }

    #[test]
    fn validate_accepts_default_and_minimal() {
        assert!(GenConfig::default().validate().is_ok());
        let minimal = GenConfig { segments: 1, segment_len: 1, loop_iters: 1, memory_slots: 1 };
        assert!(minimal.validate().is_ok());
        // The minimal config must actually generate and terminate.
        let p = random_program(3, &minimal);
        assert!(p.len() >= 2);
    }

    #[test]
    fn validate_rejects_each_zero_field() {
        let d = GenConfig::default();
        for (cfg, needle) in [
            (GenConfig { segments: 0, ..d }, "segments"),
            (GenConfig { segment_len: 0, ..d }, "segment_len"),
            (GenConfig { memory_slots: 0, ..d }, "memory slot"),
            (GenConfig { loop_iters: 0, ..d }, "loop_iters"),
        ] {
            let err = cfg.validate().expect_err("zero field must be rejected");
            assert!(err.contains(needle), "error {err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn validate_rejects_each_oversized_field_naming_its_bound() {
        let d = GenConfig::default();
        for (cfg, message) in [
            (GenConfig { segments: 65, ..d }, "segments must be at most 64 (got 65)"),
            (GenConfig { segment_len: 65, ..d }, "segment_len must be at most 64 (got 65)"),
            (GenConfig { loop_iters: 65, ..d }, "loop_iters must be at most 64 (got 65)"),
            (
                GenConfig { memory_slots: 2_305_843_009_213_693_952, ..d },
                "memory_slots must be at most 4096 (got 2305843009213693952)",
            ),
        ] {
            let err = cfg.validate().expect_err("oversized field must be rejected");
            assert!(err.ends_with(message), "error {err:?} should end with {message:?}");
        }
    }

    #[test]
    fn validate_accepts_the_bounds() {
        let max = GenConfig { segments: 64, segment_len: 64, loop_iters: 64, memory_slots: 4096 };
        assert!(max.validate().is_ok());
        // The largest config generates without overflowing its scratch area.
        assert!(random_program(5, &max).len() > 64 * 64);
    }

    #[test]
    #[should_panic(expected = "memory slot")]
    fn zero_slots_panics() {
        let _ = random_program(0, &GenConfig { memory_slots: 0, ..GenConfig::default() });
    }

    #[test]
    #[should_panic(expected = "loop_iters")]
    fn zero_loop_iters_panics() {
        let _ = random_program(0, &GenConfig { loop_iters: 0, ..GenConfig::default() });
    }

    #[test]
    fn single_slot_accesses_stay_in_bounds() {
        // With one 8-byte slot every generated access must fit inside it;
        // emulating proves no out-of-bounds/guard-page faults occur.
        let cfg = GenConfig { memory_slots: 1, ..GenConfig::default() };
        for seed in 0..20 {
            let _ = random_program(seed, &cfg);
        }
    }
}
