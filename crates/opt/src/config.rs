//! Optimization flags and configurations.
//!
//! The paper explores "all n = 38 optimization options implied by -O3 of
//! the GCC 3.3 version" (§5.2). Our optimizer likewise exposes exactly 38
//! boolean flags, each mapping to a transformation pass or a codegen
//! policy in this crate, with semantics and names aligned with the GCC 3.3
//! flag categories. `-O3` means all 38 on; Iterative Elimination then
//! searches the 2^38 space by toggling flags off.

use std::fmt;

/// One optimization flag. The discriminant is the flag's bit index in
/// [`OptConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Flag {
    /// Evaluate constant expressions at compile time.
    ConstantFolding = 0,
    /// Propagate known-constant variable values.
    ConstantPropagation = 1,
    /// Replace uses of copies by their sources.
    CopyPropagation = 2,
    /// Algebraic identities: `x+0`, `x*1`, `x*2ᵏ → x<<k`, …
    AlgebraicSimplification = 3,
    /// Rebalance associative integer expression trees.
    Reassociation = 4,
    /// Local (in-block) common-subexpression elimination.
    CseLocal = 5,
    /// Global (dominator-based) CSE, GCC's `-fgcse`.
    Gcse = 6,
    /// Remove side-effect-free dead assignments.
    DeadCodeElimination = 7,
    /// Remove stores overwritten before any read.
    DeadStoreElimination = 8,
    /// Thread jumps to jumps; fold constant branches.
    JumpThreading = 9,
    /// Lay out likely paths as fallthrough (static heuristics).
    BranchReorder = 10,
    /// Convert small branch diamonds into `Select` (cmov-style).
    IfConversion = 11,
    /// Duplicate small join blocks into predecessors.
    TailDuplication = 12,
    /// Hoist loop-invariant computations to preheaders.
    LoopInvariantCodeMotion = 13,
    /// Rewrite `iv*c` recurrences into additive updates.
    StrengthReduction = 14,
    /// Remove redundant induction variables.
    InductionVariableElimination = 15,
    /// Unroll counted loops by a factor (with remainder loop).
    LoopUnroll = 16,
    /// Fully unroll short constant-trip loops.
    LoopUnrollSmall = 17,
    /// Peel the first iteration of loops with iteration-0 special cases.
    LoopPeel = 18,
    /// Hoist loop-invariant branches out of loops (loop unswitching).
    LoopUnswitch = 19,
    /// Fuse adjacent conformable counted loops.
    LoopFusion = 20,
    /// Inline callees below the small-size threshold.
    InlineSmall = 21,
    /// Inline callees below the aggressive threshold (GCC
    /// `-finline-functions`, enabled at -O3).
    InlineAggressive = 22,
    /// Forward stored values to later loads of the same address.
    StoreForwarding = 23,
    /// Keep repeatedly accessed memory locations in registers across
    /// loops (register promotion / scalar replacement).
    RegisterPromotion = 24,
    /// Assume pointers to differently-typed data never alias (GCC
    /// `-fstrict-aliasing`). Widens what RegisterPromotion and
    /// StoreForwarding may move, at the cost of longer live ranges —
    /// the ART / Pentium IV anecdote of paper §5.2.
    StrictAliasing = 25,
    /// Insert software prefetches for strided array accesses in loops.
    PrefetchLoopArrays = 26,
    /// Local pattern cleanups (select-of-same, double negation, …).
    Peephole = 27,
    /// Pre-register-allocation instruction scheduling.
    ScheduleInsns = 28,
    /// Post-register-allocation scheduling.
    ScheduleInsns2 = 29,
    /// Rename registers to break false dependencies.
    RenameRegisters = 30,
    /// Coalesce register copies during allocation.
    RegAllocCoalesce = 31,
    /// Free the frame-pointer register for allocation.
    OmitFramePointer = 32,
    /// Allocate call-crossing values to caller-saved registers.
    CallerSaves = 33,
    /// Align loop headers to fetch boundaries.
    AlignLoops = 34,
    /// Align branch-join targets.
    AlignJumps = 35,
    /// Fill branch delay slots (effective on the SPARC model only).
    DelayedBranch = 36,
    /// Replace float division by power-of-two constants with
    /// multiplication by the exact reciprocal.
    ReciprocalMath = 37,
}

/// Number of flags (the paper's n = 38).
pub const NUM_FLAGS: usize = 38;

/// All flags in bit order.
pub const ALL_FLAGS: [Flag; NUM_FLAGS] = [
    Flag::ConstantFolding,
    Flag::ConstantPropagation,
    Flag::CopyPropagation,
    Flag::AlgebraicSimplification,
    Flag::Reassociation,
    Flag::CseLocal,
    Flag::Gcse,
    Flag::DeadCodeElimination,
    Flag::DeadStoreElimination,
    Flag::JumpThreading,
    Flag::BranchReorder,
    Flag::IfConversion,
    Flag::TailDuplication,
    Flag::LoopInvariantCodeMotion,
    Flag::StrengthReduction,
    Flag::InductionVariableElimination,
    Flag::LoopUnroll,
    Flag::LoopUnrollSmall,
    Flag::LoopPeel,
    Flag::LoopUnswitch,
    Flag::LoopFusion,
    Flag::InlineSmall,
    Flag::InlineAggressive,
    Flag::StoreForwarding,
    Flag::RegisterPromotion,
    Flag::StrictAliasing,
    Flag::PrefetchLoopArrays,
    Flag::Peephole,
    Flag::ScheduleInsns,
    Flag::ScheduleInsns2,
    Flag::RenameRegisters,
    Flag::RegAllocCoalesce,
    Flag::OmitFramePointer,
    Flag::CallerSaves,
    Flag::AlignLoops,
    Flag::AlignJumps,
    Flag::DelayedBranch,
    Flag::ReciprocalMath,
];

/// The six codegen flags. No pipeline pass reads them: register
/// allocation and the machine model do, when `peak_sim` prepares a
/// compiled version for a machine. The other 32 are pipeline flags.
pub const CODEGEN_FLAGS: [Flag; 6] = [
    Flag::ScheduleInsns2,
    Flag::RenameRegisters,
    Flag::RegAllocCoalesce,
    Flag::OmitFramePointer,
    Flag::CallerSaves,
    Flag::DelayedBranch,
];

impl Flag {
    /// Bit index.
    #[inline]
    pub fn bit(self) -> u8 {
        self as u8
    }

    /// GCC-style flag name.
    pub fn name(self) -> &'static str {
        match self {
            Flag::ConstantFolding => "const-fold",
            Flag::ConstantPropagation => "const-prop",
            Flag::CopyPropagation => "copy-prop",
            Flag::AlgebraicSimplification => "algebraic-simplify",
            Flag::Reassociation => "reassociate",
            Flag::CseLocal => "cse",
            Flag::Gcse => "gcse",
            Flag::DeadCodeElimination => "dce",
            Flag::DeadStoreElimination => "dse",
            Flag::JumpThreading => "jump-threading",
            Flag::BranchReorder => "reorder-blocks",
            Flag::IfConversion => "if-conversion",
            Flag::TailDuplication => "tail-duplicate",
            Flag::LoopInvariantCodeMotion => "licm",
            Flag::StrengthReduction => "strength-reduce",
            Flag::InductionVariableElimination => "iv-elim",
            Flag::LoopUnroll => "unroll-loops",
            Flag::LoopUnrollSmall => "unroll-small-loops",
            Flag::LoopPeel => "peel-loops",
            Flag::LoopUnswitch => "unswitch-loops",
            Flag::LoopFusion => "fuse-loops",
            Flag::InlineSmall => "inline-small",
            Flag::InlineAggressive => "inline-functions",
            Flag::StoreForwarding => "store-forwarding",
            Flag::RegisterPromotion => "register-promotion",
            Flag::StrictAliasing => "strict-aliasing",
            Flag::PrefetchLoopArrays => "prefetch-loop-arrays",
            Flag::Peephole => "peephole",
            Flag::ScheduleInsns => "schedule-insns",
            Flag::ScheduleInsns2 => "schedule-insns2",
            Flag::RenameRegisters => "rename-registers",
            Flag::RegAllocCoalesce => "regalloc-coalesce",
            Flag::OmitFramePointer => "omit-frame-pointer",
            Flag::CallerSaves => "caller-saves",
            Flag::AlignLoops => "align-loops",
            Flag::AlignJumps => "align-jumps",
            Flag::DelayedBranch => "delayed-branch",
            Flag::ReciprocalMath => "reciprocal-math",
        }
    }

    /// Flag from its bit index.
    pub fn from_bit(bit: u8) -> Option<Flag> {
        ALL_FLAGS.get(bit as usize).copied()
    }

    /// Flag from its GCC-style name.
    pub fn from_name(name: &str) -> Option<Flag> {
        ALL_FLAGS.iter().copied().find(|f| f.name() == name)
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A set of enabled flags: one point in the 2^38 search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OptConfig {
    bits: u64,
}

impl OptConfig {
    /// All flags off (our `-O0`).
    pub fn o0() -> Self {
        OptConfig { bits: 0 }
    }

    /// All 38 flags on (our `-O3`, the paper's starting point).
    pub fn o3() -> Self {
        OptConfig { bits: (1u64 << NUM_FLAGS) - 1 }
    }

    /// Construct from raw bits (low 38 used).
    pub fn from_bits(bits: u64) -> Self {
        OptConfig { bits: bits & ((1u64 << NUM_FLAGS) - 1) }
    }

    /// Raw bits.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Whether `flag` is enabled.
    #[inline]
    pub fn enabled(self, flag: Flag) -> bool {
        self.bits & (1u64 << flag.bit()) != 0
    }

    /// With `flag` set to `on`.
    #[must_use]
    pub fn with(self, flag: Flag, on: bool) -> Self {
        let mask = 1u64 << flag.bit();
        OptConfig { bits: if on { self.bits | mask } else { self.bits & !mask } }
    }

    /// With `flag` disabled (the Iterative Elimination move).
    #[must_use]
    pub fn without(self, flag: Flag) -> Self {
        self.with(flag, false)
    }

    /// Enabled flags, in bit order.
    pub fn enabled_flags(self) -> Vec<Flag> {
        ALL_FLAGS.iter().copied().filter(|f| self.enabled(*f)).collect()
    }

    /// Disabled flags, in bit order.
    pub fn disabled_flags(self) -> Vec<Flag> {
        ALL_FLAGS.iter().copied().filter(|f| !self.enabled(*f)).collect()
    }

    /// Number of enabled flags.
    pub fn count_enabled(self) -> u32 {
        self.bits.count_ones()
    }

    /// This configuration's codegen flags ([`CODEGEN_FLAGS`]) alone.
    pub fn codegen(self) -> OptConfig {
        let mask = CODEGEN_FLAGS.iter().fold(0u64, |m, f| m | 1 << f.bit());
        OptConfig { bits: self.bits & mask }
    }

    /// This configuration's pipeline flags alone: every flag but the
    /// codegen flags.
    pub fn pipeline(self) -> OptConfig {
        OptConfig { bits: self.bits & !self.codegen().bits }
    }
}

impl Default for OptConfig {
    /// Defaults to `-O3`, like the paper's initial compilation.
    fn default() -> Self {
        OptConfig::o3()
    }
}

impl fmt::Display for OptConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == OptConfig::o3() {
            return write!(f, "-O3");
        }
        if *self == OptConfig::o0() {
            return write!(f, "-O0");
        }
        write!(f, "-O3")?;
        for flag in self.disabled_flags() {
            write!(f, " -fno-{}", flag.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_38_flags() {
        assert_eq!(NUM_FLAGS, 38, "the paper's n = 38");
        assert_eq!(ALL_FLAGS.len(), 38);
        // Bits are dense and unique.
        for (i, f) in ALL_FLAGS.iter().enumerate() {
            assert_eq!(f.bit() as usize, i);
            assert_eq!(Flag::from_bit(i as u8), Some(*f));
        }
        assert_eq!(Flag::from_bit(38), None);
    }

    #[test]
    fn names_roundtrip() {
        for f in ALL_FLAGS {
            assert_eq!(Flag::from_name(f.name()), Some(f), "{f}");
        }
        assert_eq!(Flag::from_name("no-such-flag"), None);
    }

    #[test]
    fn o3_has_everything_o0_nothing() {
        assert_eq!(OptConfig::o3().count_enabled(), 38);
        assert_eq!(OptConfig::o0().count_enabled(), 0);
        assert!(OptConfig::o3().enabled(Flag::StrictAliasing));
        assert!(!OptConfig::o0().enabled(Flag::Gcse));
    }

    #[test]
    fn with_and_without() {
        let c = OptConfig::o3().without(Flag::StrictAliasing);
        assert!(!c.enabled(Flag::StrictAliasing));
        assert_eq!(c.count_enabled(), 37);
        let c2 = c.with(Flag::StrictAliasing, true);
        assert_eq!(c2, OptConfig::o3());
    }

    #[test]
    fn display_shows_disabled() {
        let c = OptConfig::o3().without(Flag::StrictAliasing);
        assert_eq!(format!("{c}"), "-O3 -fno-strict-aliasing");
        assert_eq!(format!("{}", OptConfig::o3()), "-O3");
        assert_eq!(format!("{}", OptConfig::o0()), "-O0");
    }

    #[test]
    fn pipeline_and_codegen_split_the_flags() {
        let o3 = OptConfig::o3();
        assert_eq!((o3.pipeline().count_enabled(), o3.codegen().count_enabled()), (32, 6));
        assert_eq!(o3.pipeline().bits() | o3.codegen().bits(), o3.bits());
        assert!(o3.codegen().enabled(Flag::DelayedBranch));
        assert!(!o3.pipeline().enabled(Flag::DelayedBranch));
    }

    #[test]
    fn from_bits_masks_high_bits() {
        let c = OptConfig::from_bits(u64::MAX);
        assert_eq!(c, OptConfig::o3());
    }
}
