//! Translation validation for the optimization pipeline.
//!
//! Every pass invocation in [`crate::pipeline`] reports to a
//! [`Validator`], which — depending on the [`ValidationLevel`] — does
//! nothing, re-verifies the structural IR invariants
//! ([`peak_ir::verify_function`]), or additionally runs the *semantic
//! oracle*: it executes the pre-pass and post-pass IR on the reference
//! interpreter over a deterministic input battery and compares the two
//! [`Observation`]s. The first diverging observable is reported together
//! with the responsible pass ([`ValidationFailure`]), turning "some flag
//! combination miscompiles" into "this pass broke this invariant on this
//! input".
//!
//! Every invocation also records what the compile depended on (its
//! [`Footprint`]), and from [`ValidationLevel::Structural`] up the
//! validator holds a pass that reports no change to leaving the program
//! bit-identical, the premise footprint reuse rests on.
//!
//! Not every pass preserves the full observation: dead-store elimination
//! deletes store events, inlining deletes call events, scheduling may
//! reorder stores to provably-disjoint regions. Each [`PassId`] therefore
//! carries the [`ObsLevel`] it is *specified* to preserve, and the oracle
//! compares exactly that much. Return value, instrumentation counters,
//! final memory, and trap behavior are compared for every pass at every
//! level — that is the floor no transformation may sink below.

use crate::config::{Flag, OptConfig};
use crate::pipeline::Footprint;
use peak_ir::{
    compare_observations, observe, verify_function, FuncId, Interp, MemoryImage, ObsLevel,
    Observation, Program, Type, Value, VerifyError, VerifyOptions,
};

/// How much checking each compile performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ValidationLevel {
    /// No validation (release rating paths; the pipeline's own
    /// `debug_assert` well-formedness check still runs in debug builds).
    Off,
    /// Structural verification after every pass that changed the IR.
    Structural,
    /// Structural verification plus the per-pass semantic oracle.
    Full,
}

/// Environment variable overriding the default validation level
/// (`off`, `structural`, or `full`).
pub const VALIDATE_ENV: &str = "PEAK_VALIDATE";

impl ValidationLevel {
    /// Parse `"off"` / `"structural"` / `"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<ValidationLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ValidationLevel::Off),
            "structural" | "1" => Some(ValidationLevel::Structural),
            "full" | "2" => Some(ValidationLevel::Full),
            _ => None,
        }
    }

    /// The level selected by [`VALIDATE_ENV`], if set and valid.
    pub fn from_env() -> Option<ValidationLevel> {
        let v = std::env::var(VALIDATE_ENV).ok()?;
        let parsed = ValidationLevel::parse(&v);
        if parsed.is_none() {
            eprintln!(
                "warning: ignoring invalid {VALIDATE_ENV}={v:?} (want off|structural|full)"
            );
        }
        parsed
    }
}

/// The default level for tuner-driven compiles: the [`VALIDATE_ENV`]
/// override when present, otherwise [`ValidationLevel::Structural`] in
/// debug builds and [`ValidationLevel::Off`] in release builds (rating
/// throughput is the product in release; correctness tooling is the
/// product in debug/CI).
pub fn default_level() -> ValidationLevel {
    ValidationLevel::from_env().unwrap_or(if cfg!(debug_assertions) {
        ValidationLevel::Structural
    } else {
        ValidationLevel::Off
    })
}

/// Identity of one pass invocation in the pipeline — the unit of blame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names mirror the pass modules
pub enum PassId {
    /// The untransformed input program (blamed when the *workload* is
    /// already malformed, before any pass ran).
    Input,
    InlineSmall,
    InlineAggressive,
    Fold,
    CPropConst,
    CPropCopy,
    Algebraic,
    Reassoc,
    Peephole,
    CseLocal,
    Gcse,
    StoreForward,
    JumpThread,
    Reciprocal,
    Licm,
    RegPromote,
    Unswitch,
    Fusion,
    Prefetch,
    Peel,
    UnrollSmall,
    Unroll,
    Strength,
    StrengthIve,
    IfConv,
    TailDup,
    BranchReorder,
    Dse,
    Dce,
    Schedule,
    AlignLoops,
    AlignJumps,
}

impl PassId {
    /// Human-readable pass name (matches the module/flag naming).
    pub fn name(self) -> &'static str {
        match self {
            PassId::Input => "input",
            PassId::InlineSmall => "inline-small",
            PassId::InlineAggressive => "inline-aggressive",
            PassId::Fold => "constant-folding",
            PassId::CPropConst => "constant-propagation",
            PassId::CPropCopy => "copy-propagation",
            PassId::Algebraic => "algebraic-simplification",
            PassId::Reassoc => "reassociation",
            PassId::Peephole => "peephole",
            PassId::CseLocal => "cse-local",
            PassId::Gcse => "gcse",
            PassId::StoreForward => "store-forwarding",
            PassId::JumpThread => "jump-threading",
            PassId::Reciprocal => "reciprocal-math",
            PassId::Licm => "licm",
            PassId::RegPromote => "register-promotion",
            PassId::Unswitch => "loop-unswitch",
            PassId::Fusion => "loop-fusion",
            PassId::Prefetch => "prefetch",
            PassId::Peel => "loop-peel",
            PassId::UnrollSmall => "loop-unroll-small",
            PassId::Unroll => "loop-unroll",
            PassId::Strength => "strength-reduction",
            PassId::StrengthIve => "induction-variable-elimination",
            PassId::IfConv => "if-conversion",
            PassId::TailDup => "tail-duplication",
            PassId::BranchReorder => "branch-reorder",
            PassId::Dse => "dead-store-elimination",
            PassId::Dce => "dead-code-elimination",
            PassId::Schedule => "schedule-insns",
            PassId::AlignLoops => "align-loops",
            PassId::AlignJumps => "align-jumps",
        }
    }

    /// The flag that enables this pass (`None` for [`PassId::Input`]).
    pub fn flag(self) -> Option<Flag> {
        Some(match self {
            PassId::Input => return None,
            PassId::InlineSmall => Flag::InlineSmall,
            PassId::InlineAggressive => Flag::InlineAggressive,
            PassId::Fold => Flag::ConstantFolding,
            PassId::CPropConst => Flag::ConstantPropagation,
            PassId::CPropCopy => Flag::CopyPropagation,
            PassId::Algebraic => Flag::AlgebraicSimplification,
            PassId::Reassoc => Flag::Reassociation,
            PassId::Peephole => Flag::Peephole,
            PassId::CseLocal => Flag::CseLocal,
            PassId::Gcse => Flag::Gcse,
            PassId::StoreForward => Flag::StoreForwarding,
            PassId::JumpThread => Flag::JumpThreading,
            PassId::Reciprocal => Flag::ReciprocalMath,
            PassId::Licm => Flag::LoopInvariantCodeMotion,
            PassId::RegPromote => Flag::RegisterPromotion,
            PassId::Unswitch => Flag::LoopUnswitch,
            PassId::Fusion => Flag::LoopFusion,
            PassId::Prefetch => Flag::PrefetchLoopArrays,
            PassId::Peel => Flag::LoopPeel,
            PassId::UnrollSmall => Flag::LoopUnrollSmall,
            PassId::Unroll => Flag::LoopUnroll,
            PassId::Strength => Flag::StrengthReduction,
            PassId::StrengthIve => Flag::InductionVariableElimination,
            PassId::IfConv => Flag::IfConversion,
            PassId::TailDup => Flag::TailDuplication,
            PassId::BranchReorder => Flag::BranchReorder,
            PassId::Dse => Flag::DeadStoreElimination,
            PassId::Dce => Flag::DeadCodeElimination,
            PassId::Schedule => Flag::ScheduleInsns,
            PassId::AlignLoops => Flag::AlignLoops,
            PassId::AlignJumps => Flag::AlignJumps,
        })
    }

    /// The portion of the observation this pass is specified to preserve.
    ///
    /// * [`ObsLevel::Exact`] — pure rewrites and control-flow
    ///   restructurings that never add, drop, or reorder externally
    ///   visible events.
    /// * [`ObsLevel::StoresExact`] — inlining: call events disappear (the
    ///   callee's body now runs inline), store events are untouched.
    /// * [`ObsLevel::CallsExact`] — passes licensed to delete or reorder
    ///   stores (dead-store elimination, register promotion, scheduling
    ///   across disjoint regions, fused loop bodies) but never calls.
    pub fn preserved(self) -> ObsLevel {
        match self {
            PassId::InlineSmall | PassId::InlineAggressive => ObsLevel::StoresExact,
            PassId::RegPromote
            | PassId::Fusion
            | PassId::Dse
            | PassId::Schedule => ObsLevel::CallsExact,
            _ => ObsLevel::Exact,
        }
    }
}

impl std::fmt::Display for PassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of invariant a pass broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The post-pass IR fails structural verification.
    Structural(VerifyError),
    /// The semantic oracle observed a divergence on battery input
    /// `input`; `detail` names the first diverging observable.
    Semantic {
        /// Index into the validator's input battery.
        input: usize,
        /// First diverging observable, human-readable.
        detail: String,
    },
    /// The pass reported no change but left a program that is not
    /// bit-identical to its input.
    Unreported,
}

/// A translation-validation failure: which pass, compiling what, broke
/// which invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationFailure {
    /// The responsible pass invocation.
    pub pass: PassId,
    /// Function being compiled.
    pub func: String,
    /// Flag configuration of the compile.
    pub config: OptConfig,
    /// The broken invariant.
    pub kind: FailureKind,
}

impl std::fmt::Display for ValidationFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Structural(e) => write!(
                f,
                "pass {} broke structural invariants compiling {} under {}: {e}",
                self.pass, self.func, self.config
            ),
            FailureKind::Semantic { input, detail } => write!(
                f,
                "pass {} changed semantics compiling {} under {} (battery input {input}): {detail}",
                self.pass, self.func, self.config
            ),
            FailureKind::Unreported => write!(
                f,
                "pass {} reported no change compiling {} under {} but altered the program",
                self.pass, self.func, self.config
            ),
        }
    }
}

impl std::error::Error for ValidationFailure {}

/// One semantic-oracle test input: argument values plus the initial
/// memory image.
#[derive(Debug, Clone)]
struct BatteryInput {
    args: Vec<Value>,
    init: MemoryImage,
}

/// Step budget per oracle execution. Large enough for the synthetic
/// workload tuning sections on small inputs, small enough that a pass
/// that breaks a loop exit fails fast (as a trap divergence).
const ORACLE_STEP_LIMIT: u64 = 8_000_000;

/// Per-stream event cap for oracle captures.
const ORACLE_TRACE_LIMIT: usize = 1 << 16;

/// Deterministic splitmix64 step, the standard seed expander.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the deterministic input battery for `func`: two input sets (a
/// "typical" one and a zero/negative one) against pseudo-randomly filled
/// memory. Returns an empty battery when the signature cannot be
/// fabricated safely (pointer parameters in a program with no regions).
fn build_battery(prog: &Program, func: FuncId) -> Vec<BatteryInput> {
    let f = prog.func(func);
    let mut battery = Vec::new();
    for variant in 0..2u64 {
        let mut seed = 0x5EED_0000_0000_0000u64 ^ (variant << 32) ^ func.0 as u64;
        let mut args = Vec::with_capacity(f.params.len());
        let mut ok = true;
        for (pi, p) in f.params.iter().enumerate() {
            let v = match f.var_ty(*p) {
                Type::I64 => {
                    if variant == 0 {
                        Value::I64(3 + 2 * pi as i64)
                    } else {
                        Value::I64(if pi % 2 == 0 { 0 } else { 1 })
                    }
                }
                Type::F64 => {
                    if variant == 0 {
                        Value::F64(1.5 + pi as f64)
                    } else {
                        Value::F64(-0.75 * (pi as f64 + 1.0))
                    }
                }
                Type::Ptr => {
                    if prog.mems.is_empty() || prog.mems[0].len == 0 {
                        ok = false;
                        break;
                    }
                    Value::Ptr(peak_ir::PtrVal { mem: peak_ir::MemId(0), offset: 0 })
                }
            };
            args.push(v);
        }
        if !ok {
            continue;
        }
        let mut init = MemoryImage::new(prog);
        for buf in init.bufs.iter_mut() {
            let n = buf.len();
            for i in 0..n {
                let r = splitmix64(&mut seed);
                match buf {
                    peak_ir::Buffer::I64(v) => v[i] = (r % 201) as i64 - 100,
                    peak_ir::Buffer::F64(v) => v[i] = ((r % 401) as f64 - 200.0) * 0.125,
                    // Pointer regions stay at their zeroed (region 0,
                    // offset 0) default: fabricating random pointers
                    // would mostly produce traps.
                    peak_ir::Buffer::Ptr(_) => break,
                }
            }
        }
        battery.push(BatteryInput { args, init });
    }
    battery
}

/// Per-compile validation state, threaded through the pipeline by
/// [`crate::pipeline::optimize`] and
/// [`crate::pipeline::optimize_checked`]. It accumulates the compile's
/// [`Footprint`] at every level. From [`ValidationLevel::Structural`] up
/// it holds the bit image of the program as the last pass left it, and
/// at [`ValidationLevel::Full`] the running pre-pass observations (the
/// post-pass observation of pass *k* is the pre-pass observation of pass
/// *k+1*, so each pass costs one oracle execution per battery input, not
/// two).
pub struct Validator {
    level: ValidationLevel,
    func: FuncId,
    func_name: String,
    config: OptConfig,
    used: OptConfig,
    image: Vec<u64>,
    battery: Vec<BatteryInput>,
    prev_obs: Vec<Observation>,
    interp: Interp,
}

impl Validator {
    /// A validator that checks nothing (used by the unchecked
    /// [`crate::optimize`] path).
    pub fn off(func: FuncId, config: &OptConfig) -> Validator {
        Validator {
            level: ValidationLevel::Off,
            func,
            func_name: String::new(),
            config: *config,
            used: OptConfig::o0(),
            image: Vec::new(),
            battery: Vec::new(),
            prev_obs: Vec::new(),
            interp: Interp::default(),
        }
    }

    /// Validate the input program and set up the oracle battery.
    /// Fails (blaming [`PassId::Input`]) when the input itself is already
    /// structurally invalid.
    pub fn new(
        prog: &Program,
        func: FuncId,
        config: &OptConfig,
        level: ValidationLevel,
    ) -> Result<Validator, ValidationFailure> {
        let mut v = Validator {
            level,
            func,
            func_name: prog.func(func).name.clone(),
            config: *config,
            used: OptConfig::o0(),
            image: Vec::new(),
            battery: Vec::new(),
            prev_obs: Vec::new(),
            interp: Interp {
                step_limit: ORACLE_STEP_LIMIT,
                ..Interp::default()
            },
        };
        if level == ValidationLevel::Off {
            return Ok(v);
        }
        v.verify_structure(prog, PassId::Input)?;
        v.image = prog.bit_image();
        if level == ValidationLevel::Full {
            let battery = build_battery(prog, func);
            for input in battery {
                let obs =
                    observe(&v.interp, prog, func, &input.args, &input.init, ORACLE_TRACE_LIMIT);
                // Inputs on which the *original* program traps are
                // dropped: passes are only required to preserve the
                // behavior of well-defined executions.
                if obs.trap.is_none() {
                    v.battery.push(input);
                    v.prev_obs.push(obs);
                }
            }
        }
        Ok(v)
    }

    fn verify_structure(&self, prog: &Program, pass: PassId) -> Result<(), ValidationFailure> {
        verify_function(prog, self.func, &VerifyOptions::default())
            .map_err(|e| self.failure(pass, FailureKind::Structural(e)))
    }

    /// What the compile has depended on so far: the pipeline flags of
    /// every pass that changed the IR, `StrictAliasing` (when enabled)
    /// once store forwarding or register promotion ran (both take it as
    /// a parameter), and `StrengthReduction` once induction-variable
    /// elimination changed the IR (it runs only under that flag).
    pub fn footprint(&self) -> Footprint {
        Footprint { used: self.used, ran: self.config.pipeline() }
    }

    fn failure(&self, pass: PassId, kind: FailureKind) -> ValidationFailure {
        ValidationFailure { pass, func: self.func_name.clone(), config: self.config, kind }
    }

    /// Report one pass invocation. `changed` is the pass's own "did
    /// anything" return value: a changed program is re-checked, and an
    /// unchanged one must be bit-identical to what the pass was given.
    pub fn after_pass(
        &mut self,
        prog: &Program,
        pass: PassId,
        changed: bool,
    ) -> Result<(), ValidationFailure> {
        if changed {
            if let Some(flag) = pass.flag() {
                self.used = self.used.with(flag, true);
            }
            if pass == PassId::StrengthIve {
                self.used = self.used.with(Flag::StrengthReduction, true);
            }
        }
        if matches!(pass, PassId::StoreForward | PassId::RegPromote)
            && self.config.enabled(Flag::StrictAliasing)
        {
            self.used = self.used.with(Flag::StrictAliasing, true);
        }
        if self.level == ValidationLevel::Off {
            return Ok(());
        }
        let image = prog.bit_image();
        if !changed {
            return if image == self.image {
                Ok(())
            } else {
                Err(self.failure(pass, FailureKind::Unreported))
            };
        }
        self.image = image;
        self.verify_structure(prog, pass)?;
        if self.level < ValidationLevel::Full {
            return Ok(());
        }
        let level = pass.preserved();
        for i in 0..self.battery.len() {
            let input = &self.battery[i];
            let obs = observe(
                &self.interp,
                prog,
                self.func,
                &input.args,
                &input.init,
                ORACLE_TRACE_LIMIT,
            );
            compare_observations(&self.prev_obs[i], &obs, level)
                .map_err(|detail| self.failure(pass, FailureKind::Semantic { input: i, detail }))?;
            self.prev_obs[i] = obs;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From `Structural` up, a pass that reports no change must leave the
    /// program bit-identical: turning a `0.0` constant into `-0.0`, which
    /// the derived `==` cannot see, is blamed on the pass.
    #[test]
    fn unchanged_pass_must_leave_the_program_bit_identical() {
        use peak_ir::{FunctionBuilder, Operand, Rvalue, Stmt};
        let mut prog = Program::new();
        let mut b = FunctionBuilder::new("f", Some(Type::F64));
        let x = b.param("x", Type::F64);
        let y = b.binary(peak_ir::BinOp::FAdd, x, 0.0f64);
        b.ret(Some(y.into()));
        let f = prog.add_func(b.finish());
        let negate_zero = |prog: &mut Program| {
            for block in &mut prog.func_mut(f).blocks {
                for s in &mut block.stmts {
                    if let Stmt::Assign { rv: Rvalue::Binary(_, _, c), .. } = s {
                        *c = Operand::Const(Value::F64(-0.0));
                    }
                }
            }
        };
        let cfg = OptConfig::o3();
        let mut v = Validator::new(&prog, f, &cfg, ValidationLevel::Structural).unwrap();
        v.after_pass(&prog, PassId::Algebraic, false).expect("an untouched program passes");
        let before = prog.clone();
        negate_zero(&mut prog);
        assert_eq!(before, prog, "the derived == cannot see the sign of zero");
        let err = v.after_pass(&prog, PassId::Algebraic, false).unwrap_err();
        assert_eq!((err.pass, err.kind), (PassId::Algebraic, FailureKind::Unreported));
        v.after_pass(&prog, PassId::Algebraic, true).expect("a reported change is verified");
        v.after_pass(&prog, PassId::Peephole, false).expect("compared with the changed program");
        let mut off = Validator::off(f, &cfg);
        negate_zero(&mut prog);
        off.after_pass(&prog, PassId::Algebraic, false).expect("Off checks nothing");
    }

    #[test]
    fn level_parsing() {
        assert_eq!(ValidationLevel::parse("off"), Some(ValidationLevel::Off));
        assert_eq!(ValidationLevel::parse("Structural"), Some(ValidationLevel::Structural));
        assert_eq!(ValidationLevel::parse("FULL"), Some(ValidationLevel::Full));
        assert_eq!(ValidationLevel::parse("bogus"), None);
        assert!(ValidationLevel::Off < ValidationLevel::Structural);
        assert!(ValidationLevel::Structural < ValidationLevel::Full);
    }

    #[test]
    fn pass_metadata_is_total() {
        // Every pass has a stable name and a defined observation level.
        let all = [
            PassId::Input,
            PassId::InlineSmall,
            PassId::InlineAggressive,
            PassId::Fold,
            PassId::CPropConst,
            PassId::CPropCopy,
            PassId::Algebraic,
            PassId::Reassoc,
            PassId::Peephole,
            PassId::CseLocal,
            PassId::Gcse,
            PassId::StoreForward,
            PassId::JumpThread,
            PassId::Reciprocal,
            PassId::Licm,
            PassId::RegPromote,
            PassId::Unswitch,
            PassId::Fusion,
            PassId::Prefetch,
            PassId::Peel,
            PassId::UnrollSmall,
            PassId::Unroll,
            PassId::Strength,
            PassId::StrengthIve,
            PassId::IfConv,
            PassId::TailDup,
            PassId::BranchReorder,
            PassId::Dse,
            PassId::Dce,
            PassId::Schedule,
            PassId::AlignLoops,
            PassId::AlignJumps,
        ];
        let mut names = std::collections::HashSet::new();
        let mut flags = std::collections::HashSet::new();
        for p in all {
            assert!(!p.name().is_empty());
            assert!(names.insert(p.name()), "duplicate pass name {}", p.name());
            let _ = p.preserved();
            match p.flag() {
                None => assert_eq!(p, PassId::Input),
                Some(f) => {
                    assert!(flags.insert(f), "{f} enables two passes");
                    assert!(OptConfig::o3().pipeline().enabled(f), "{f} is a pipeline flag");
                }
            }
        }
        // Every pipeline flag but StrictAliasing, a parameter of two
        // passes, enables a pass of its own.
        assert_eq!(flags.len(), 31);
        assert_eq!(PassId::Dse.preserved(), ObsLevel::CallsExact);
        assert_eq!(PassId::InlineSmall.preserved(), ObsLevel::StoresExact);
        assert_eq!(PassId::Fold.preserved(), ObsLevel::Exact);
    }
}
