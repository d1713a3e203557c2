//! Execution tiers and the engine interface they share.
//!
//! The executor ladder has three rungs that all charge **bit-identical
//! cycles** for the same invocation stream (the differential goldens in
//! `peak-core` pin this down):
//!
//! * [`ExecTier::Interp`] — the slow tier: walks the IR and recomputes
//!   every flag-/machine-dependent cost per statement (the shape of the
//!   executor before pre-decoding existed). Baseline for A/B benches;
//!   its engine is [`InterpVersion`](crate::InterpVersion).
//! * [`ExecTier::Predecoded`] — per-block folded constants and a
//!   resolved spill-event stream
//!   ([`PreparedVersion::prepare`](crate::PreparedVersion::prepare));
//!   the [`PreparedVersion`] is its own engine.
//! * [`ExecTier::Jit`] — the default: threaded code, blocks lowered once
//!   into arrays of monomorphized op thunks (the `peak-jit` crate). A
//!   version whose lowering declines runs on the predecoded engine.
//!
//! The tier is an execution-engine choice, never a semantics or cost
//! choice: every engine reproduces the same goldens byte for byte.
//! Production runs the jit engine, or the predecoded one where lowering
//! declines; the interp engine, and the predecoded engine of a version
//! that lowers, are built only where tests and benches compare tiers.
//! The engine is chosen once per version, when it is built; whoever runs
//! an engine just calls [`TierBackend::execute`].

use crate::cache::AddressMap;
use crate::exec::{ExecError, ExecOptions, ExecResult, ExecScratch, MachineState, PreparedVersion};
use peak_ir::{MemId, MemoryImage, Value};
use peak_opt::CompiledVersion;

/// Which execution engine runs TS invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// Recompute-everything IR walker (slowest, zero preparation reuse).
    Interp,
    /// Pre-decoded cost-stream interpreter.
    Predecoded,
    /// Threaded code (the default), with per-version fallback to
    /// `Predecoded` when lowering declines.
    #[default]
    Jit,
}

impl ExecTier {
    /// All tiers, in ladder order (slowest first).
    pub const ALL: [ExecTier; 3] = [ExecTier::Interp, ExecTier::Predecoded, ExecTier::Jit];

    /// Stable lower-case name (CLI values, metric labels, JSON fields).
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Predecoded => "predecoded",
            ExecTier::Jit => "jit",
        }
    }

    /// Parse a tier name as accepted by `--tier`.
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Some(ExecTier::Interp),
            "predecoded" | "predecode" => Some(ExecTier::Predecoded),
            "jit" | "native" => Some(ExecTier::Jit),
            "default" => Some(ExecTier::default()),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An execution engine for one version: given the same inputs every
/// engine must produce the same [`ExecResult`] (return value,
/// `true_cycles`, counters, write log) and the same machine-state
/// evolution as [`execute_with_scratch`](crate::execute_with_scratch),
/// bit for bit.
///
/// The engine is the unit the version cache in `peak-core` builds (one
/// per version) and the run harness executes. Implementations:
/// [`PreparedVersion`] (predecoded), [`InterpVersion`](crate::InterpVersion)
/// (the slow oracle) and `peak_jit::JitVersion` (threaded code).
pub trait TierBackend: Send + Sync {
    /// Execute one invocation of the version's entry function.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        args: &[Value],
        mem: &mut MemoryImage,
        amap: &AddressMap,
        state: &mut MachineState,
        opts: &ExecOptions,
        scratch: &mut ExecScratch,
    ) -> Result<ExecResult, ExecError>;

    /// The tier this engine implements (what an invocation is counted
    /// against).
    fn tier(&self) -> ExecTier;

    /// The prepared version this engine interprets. `None` for lowered
    /// code, which carries no interpretive body.
    fn prepared(&self) -> Option<&PreparedVersion>;

    /// The memory this engine's timing depends on, analysed once when
    /// the version was prepared; `None` where the analysis cannot bound
    /// it.
    fn timing_inputs(&self) -> Option<&TimingInputs>;
}

/// What a version's invocations read and write in memory that matters
/// for repeating one: the regions whose loaded values can reach its
/// timing ([`peak_ir::timing_inputs`] on the compiled entry function)
/// and the regions it may write ([`peak_ir::mem_effects`]). Both sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingInputs {
    /// Regions whose contents can change the version's timing.
    pub reads: Box<[MemId]>,
    /// Regions the version may write.
    pub writes: Box<[MemId]>,
}

impl TimingInputs {
    /// Analyse `version`'s entry function; `None` where the timing
    /// inputs cannot be bounded (calls, imprecise pointers).
    pub fn of(version: &CompiledVersion) -> Option<TimingInputs> {
        let reads = peak_ir::timing_inputs(version.program.func(version.func))?;
        let writes = peak_ir::mem_effects(&version.program, version.func).writes;
        Some(TimingInputs { reads: reads.into(), writes: writes.into() })
    }

    /// Whether the timing inputs stay put across invocations: the
    /// version writes none of them, and neither does whoever writes
    /// `others` between invocations. Then two invocations with equal
    /// arguments read equal timing inputs.
    pub fn held_against(&self, others: &[MemId]) -> bool {
        self.reads.iter().all(|m| !self.writes.contains(m) && !others.contains(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_inputs_hold_only_when_nobody_writes_them() {
        let t =
            TimingInputs { reads: vec![MemId(1), MemId(2)].into(), writes: vec![MemId(3)].into() };
        assert!(t.held_against(&[]));
        assert!(t.held_against(&[MemId(0), MemId(3)]));
        assert!(!t.held_against(&[MemId(2)]), "another writer of a timing input");
        let own = TimingInputs { reads: vec![MemId(1)].into(), writes: vec![MemId(1)].into() };
        assert!(!own.held_against(&[]), "the version writes its own timing input");
    }

    #[test]
    fn tier_names_round_trip() {
        for t in ExecTier::ALL {
            assert_eq!(ExecTier::parse(t.name()), Some(t));
        }
        assert_eq!(ExecTier::parse("native"), Some(ExecTier::Jit));
        assert_eq!(ExecTier::parse("bogus"), None);
        assert_eq!(ExecTier::default(), ExecTier::Jit);
        // The alias follows the one default.
        assert_eq!(ExecTier::parse("default"), Some(ExecTier::default()));
    }
}
