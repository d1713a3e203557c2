//! # peak-jit — the threaded-code execution tier (the default)
//!
//! Lowers a [`PreparedVersion`] into **threaded code**: every basic
//! block becomes a flat array of monomorphized op thunks (plain Rust
//! function pointers — no `unsafe`, no mmap) over a *unified slot
//! frame* in which variables and constants share one `Vec<Value>`, so
//! every operand is a bare index and the per-statement `Stmt`/`Rvalue`/
//! `Operand` match cascade of the interpreting tiers disappears
//! entirely.
//!
//! ## Cycle-exactness
//!
//! The lowering charges costs from the *same* pre-decoded artifact the
//! predecoded tier executes ([`PreparedVersion::decoded_blocks`]): each
//! block's folded constant cost is charged in one add, and the only
//! cost-model work left in the op stream is the *stateful* accessors —
//! data-cache lines, branch-predictor entries, spill-slot traffic —
//! compiled in as thunks at exactly their original positions. Constant
//! cycle charges commute (only their sum enters `true_cycles`), and the
//! stateful access order is preserved, so results are bit-identical to
//! both interpreting tiers. The differential goldens in `peak-core`
//! byte-compare all three tiers over the full 42-scenario grid plus the
//! passfuzz corpus.
//!
//! Notable lowering decisions, all parity-preserving:
//!
//! * **Spill ops**: the predecoded tier walks a sorted spill-event
//!   stream with a cursor per statement; here each event is its own
//!   thunk emitted at its exact position, removing the cursor from the
//!   hot loop.
//! * **Compare-and-branch fusion**: when a block ends with a
//!   comparison feeding its own conditional branch and the comparison
//!   carries no spill events, the compare runs inside the terminator
//!   (one dispatch less per loop iteration). The 0/1 result is still
//!   written to its destination slot, so later reads are unaffected.
//! * **Monomorphized operators**: one thunk per `BinOp`/`UnOp` variant,
//!   each calling the canonical `eval_binop`/`eval_unop` with a
//!   *constant* operator — the compiler folds the operator match away
//!   while the semantics stay defined in exactly one place (`peak-ir`).
//!
//! ## Coverage and deopt
//!
//! The lowering covers the complete IR. It *declines* (returns a
//! [`DeoptReason`]) only on resource budgets — `PEAK_JIT_MAX_STMTS`
//! caps the lowered statement count — and `peak-core`'s version cache
//! then keeps the predecoded engine for that version (`jit.deopt`
//! trace event, `core.jit.deopts` metric). Declining is always safe:
//! tiers are execution engines, never semantics.
//!
//! A [`JitVersion`] is self-contained: once lowered, the version cache
//! drops the [`PreparedVersion`] (IR and decoded blocks) it came from.
//! The one analysis result it keeps from it is the version's
//! [`TimingInputs`], which the run harness's repeat fast path reads.

#![warn(missing_docs)]

mod lower;
mod ops;

pub use lower::{lower, DeoptReason, JitOptions};

use peak_ir::{MemoryImage, Value};
use peak_sim::{
    AddressMap, ExecError, ExecOptions, ExecResult, ExecScratch, ExecTier, MachineState,
    PreparedVersion, TierBackend, TimingInputs,
};

/// One function lowered to threaded code.
pub(crate) struct JitFunc {
    /// Frame size: variables first, then the constant pool image.
    pub(crate) num_slots: u32,
    /// First constant slot (== the function's variable count).
    pub(crate) const_base: u32,
    /// Constant pool image copied into the frame tail on entry.
    pub(crate) consts: Box<[Value]>,
    /// Variable slot of each parameter, in order.
    pub(crate) param_slots: Box<[u32]>,
    /// Entry block index.
    pub(crate) entry: u32,
    pub(crate) blocks: Box<[JitBlock]>,
}

/// One basic block: folded constants plus the stateful op stream.
pub(crate) struct JitBlock {
    /// All data-independent cycles of one execution, in one add
    /// (mirrors `DecodedBlock::const_cost` verbatim).
    pub(crate) const_cost: u64,
    /// Step-budget charge per execution (`stmts.len() + 1`).
    pub(crate) steps: u64,
    pub(crate) ops: Box<[ops::Op]>,
    pub(crate) term: Term,
}

/// Block terminator in threaded form.
pub(crate) enum Term {
    Jump(u32),
    Branch { cond: u32, on_true: u32, on_false: u32, site_idx: u32, taken_extra: u64 },
    /// Fused comparison + conditional branch; still writes the 0/1
    /// result to `dst`. The comparison is a [`ops::CmpTag`] evaluated
    /// inline — no call on the loop back-edge.
    CmpBranch {
        cmp: ops::CmpTag,
        a: u32,
        b: u32,
        dst: u32,
        on_true: u32,
        on_false: u32,
        site_idx: u32,
        taken_extra: u64,
    },
    /// Return; `u32::MAX` = no value.
    Ret(u32),
}

/// A version lowered to threaded code, executed through
/// [`TierBackend`]. Holds no reference to the [`PreparedVersion`] it was
/// lowered from. Immutable once built; shared across harnesses via the
/// version cache.
pub struct JitVersion {
    pub(crate) funcs: Box<[JitFunc]>,
    pub(crate) entry: u32,
    /// Shared argument-slot pool for all call sites (offset/len per op).
    pub(crate) args_pool: Box<[u32]>,
    pub(crate) spill_extra: u64,
    pub(crate) spill_sub: u64,
    pub(crate) mispredict_penalty: u64,
    pub(crate) n_blocks: usize,
    pub(crate) n_ops: usize,
    /// The prepared version's timing inputs, carried over because the
    /// prepared version itself is dropped once lowered.
    pub(crate) timing: Option<TimingInputs>,
}

impl JitVersion {
    /// Basic blocks lowered.
    pub fn blocks(&self) -> usize {
        self.n_blocks
    }
}

impl std::fmt::Debug for JitVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitVersion")
            .field("funcs", &self.funcs.len())
            .field("blocks", &self.n_blocks)
            .field("ops", &self.n_ops)
            .finish()
    }
}

impl TierBackend for JitVersion {
    fn execute(
        &self,
        args: &[Value],
        mem: &mut MemoryImage,
        amap: &AddressMap,
        state: &mut MachineState,
        opts: &ExecOptions,
        scratch: &mut ExecScratch,
    ) -> Result<ExecResult, ExecError> {
        peak_sim::fault_preamble(state)?;
        if opts.record_writes {
            scratch.begin_write_log();
        }
        let mut ctx = ops::JitCtx {
            jv: self,
            mem,
            amap,
            state,
            scratch,
            counters: vec![0; opts.num_counters],
            writes: Vec::new(),
            record_writes: opts.record_writes,
            steps: 0,
            cycles: 0,
            depth: 0,
        };
        let ret = ops::run_func(&mut ctx, self.entry, args)?;
        ctx.state.cycles += ctx.cycles;
        ctx.state.instructions += ctx.steps;
        Ok(ExecResult {
            ret,
            true_cycles: ctx.cycles,
            counters: ctx.counters,
            writes: ctx.writes,
        })
    }

    fn tier(&self) -> ExecTier {
        ExecTier::Jit
    }

    fn prepared(&self) -> Option<&PreparedVersion> {
        None
    }

    fn timing_inputs(&self) -> Option<&TimingInputs> {
        self.timing.as_ref()
    }
}
