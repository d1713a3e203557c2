//! The op thunks and the threaded dispatch loop.
//!
//! Every op carries two dispatch routes: a `tag` taken by the inline
//! fast path (a jump table in [`run_func`] whose arms the compiler
//! inlines — no call, no prologue, operands stay in registers) and a
//! plain `fn` pointer thunk used by the [`Tag::Ext`] arm for the long
//! tail (calls, prefetch, counters, rare operators). Both routes share
//! one implementation per op — the `*_impl` helpers — so semantics are
//! defined once. Stateful ops (loads, stores, spills, prefetch)
//! replicate the predecoded executor's access order verbatim — that
//! order is the cycle-exactness contract.

use crate::{JitVersion, Term};
use peak_ir::interp::{eval_binop, eval_unop};
use peak_ir::{BinOp, ExecError as InterpError, MemId, MemoryImage, PtrVal, UnOp, Value};
use peak_sim::{AddressMap, ExecScratch, MachineState, RECURSION_LIMIT, STEP_LIMIT};

/// One threaded-code instruction: a fast-path tag, a thunk for the
/// generic route, and compact operands. `dst`, `a`, `b`, `c` are slot
/// indexes (or raw ids, per op); `imm` holds a callee function index
/// where needed.
pub(crate) struct Op {
    pub(crate) f: OpFn,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    pub(crate) imm: u32,
    pub(crate) tag: Tag,
}

pub(crate) type OpFn = fn(&Op, &mut [Value], &mut JitCtx) -> Result<(), InterpError>;

/// Fast-path selector. Everything not listed here dispatches through
/// the op's thunk pointer ([`Tag::Ext`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Tag {
    Mov,
    IAdd,
    ISub,
    IMul,
    IAnd,
    IOr,
    IXor,
    IShl,
    IShr,
    IMin,
    IMax,
    FAdd,
    FSub,
    FMul,
    FDiv,
    IEq,
    INe,
    ILt,
    ILe,
    IGt,
    IGe,
    FcEq,
    FcNe,
    FcLt,
    FcLe,
    FcGt,
    FcGe,
    PtrAdd,
    Select,
    AddrOf,
    LoadG,
    LoadP,
    StoreG,
    StoreP,
    Spill,
    PrefG,
    PrefP,
    Neg,
    Not,
    FNeg,
    IntToF,
    FToInt,
    FAbs,
    FSqrt,
    Ext,
}

/// The fast-path tag for a unary operator.
pub(crate) fn unop_tag(u: UnOp) -> Tag {
    match u {
        UnOp::Neg => Tag::Neg,
        UnOp::Not => Tag::Not,
        UnOp::FNeg => Tag::FNeg,
        UnOp::IntToF => Tag::IntToF,
        UnOp::FToInt => Tag::FToInt,
        UnOp::FAbs => Tag::FAbs,
        UnOp::FSqrt => Tag::FSqrt,
    }
}

/// The fast-path tag for a binary operator, if it has one.
pub(crate) fn binop_tag(b: BinOp) -> Tag {
    match b {
        BinOp::Add => Tag::IAdd,
        BinOp::Sub => Tag::ISub,
        BinOp::Mul => Tag::IMul,
        BinOp::And => Tag::IAnd,
        BinOp::Or => Tag::IOr,
        BinOp::Xor => Tag::IXor,
        BinOp::Shl => Tag::IShl,
        BinOp::Shr => Tag::IShr,
        BinOp::Min => Tag::IMin,
        BinOp::Max => Tag::IMax,
        BinOp::FAdd => Tag::FAdd,
        BinOp::FSub => Tag::FSub,
        BinOp::FMul => Tag::FMul,
        BinOp::FDiv => Tag::FDiv,
        BinOp::Eq => Tag::IEq,
        BinOp::Ne => Tag::INe,
        BinOp::Lt => Tag::ILt,
        BinOp::Le => Tag::ILe,
        BinOp::Gt => Tag::IGt,
        BinOp::Ge => Tag::IGe,
        BinOp::FEq => Tag::FcEq,
        BinOp::FNe => Tag::FcNe,
        BinOp::FLt => Tag::FcLt,
        BinOp::FLe => Tag::FcLe,
        BinOp::FGt => Tag::FcGt,
        BinOp::FGe => Tag::FcGe,
        BinOp::PtrAdd => Tag::PtrAdd,
        // Fallible (Div/Rem) and rare pointer operators take the
        // generic thunk route.
        BinOp::Div | BinOp::Rem | BinOp::PtrEq | BinOp::PtrDiff => Tag::Ext,
    }
}

/// A fused terminator comparison (the compare half of
/// [`Term::CmpBranch`]), evaluated inline — no call on the loop
/// back-edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CmpTag {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
    PtrEq,
}

/// The fusible terminator comparison for `b`, when it is one.
pub(crate) fn cmp_tag(b: BinOp) -> Option<CmpTag> {
    match b {
        BinOp::Eq => Some(CmpTag::Eq),
        BinOp::Ne => Some(CmpTag::Ne),
        BinOp::Lt => Some(CmpTag::Lt),
        BinOp::Le => Some(CmpTag::Le),
        BinOp::Gt => Some(CmpTag::Gt),
        BinOp::Ge => Some(CmpTag::Ge),
        BinOp::FEq => Some(CmpTag::FEq),
        BinOp::FNe => Some(CmpTag::FNe),
        BinOp::FLt => Some(CmpTag::FLt),
        BinOp::FLe => Some(CmpTag::FLe),
        BinOp::FGt => Some(CmpTag::FGt),
        BinOp::FGe => Some(CmpTag::FGe),
        BinOp::PtrEq => Some(CmpTag::PtrEq),
        _ => None,
    }
}

/// Evaluate a fused comparison. Each arm mirrors the corresponding
/// `eval_binop` comparison (which produces `I64(0/1)`, then tested with
/// `is_true` — equivalent to the bool for every comparison operator).
#[inline(always)]
pub(crate) fn cmp_eval(t: CmpTag, a: Value, b: Value) -> bool {
    match t {
        CmpTag::Eq => a.as_i64() == b.as_i64(),
        CmpTag::Ne => a.as_i64() != b.as_i64(),
        CmpTag::Lt => a.as_i64() < b.as_i64(),
        CmpTag::Le => a.as_i64() <= b.as_i64(),
        CmpTag::Gt => a.as_i64() > b.as_i64(),
        CmpTag::Ge => a.as_i64() >= b.as_i64(),
        CmpTag::FEq => a.as_f64() == b.as_f64(),
        CmpTag::FNe => a.as_f64() != b.as_f64(),
        CmpTag::FLt => a.as_f64() < b.as_f64(),
        CmpTag::FLe => a.as_f64() <= b.as_f64(),
        CmpTag::FGt => a.as_f64() > b.as_f64(),
        CmpTag::FGe => a.as_f64() >= b.as_f64(),
        CmpTag::PtrEq => a.as_ptr() == b.as_ptr(),
    }
}

/// Mutable execution state threaded through every thunk.
///
/// Predictor updates happen directly at each branch terminator against
/// the *prepare-time* table index ([`Term::Branch::site_idx`]) — the
/// per-branch site hash is gone from the hot loop. Staging updates and
/// committing them in batches was tried and dropped: the staging stores
/// cost more per branch than the hash they amortise once indices are
/// precomputed.
pub(crate) struct JitCtx<'a> {
    pub(crate) jv: &'a JitVersion,
    pub(crate) mem: &'a mut MemoryImage,
    pub(crate) amap: &'a AddressMap,
    pub(crate) state: &'a mut MachineState,
    pub(crate) scratch: &'a mut ExecScratch,
    pub(crate) counters: Vec<u64>,
    pub(crate) writes: Vec<(MemId, i64, Value)>,
    pub(crate) record_writes: bool,
    pub(crate) steps: u64,
    pub(crate) cycles: u64,
    pub(crate) depth: usize,
}

/// Execute one op. `#[inline(always)]` so the `run_func` dispatch loop
/// compiles to a single jump table with the arm bodies inlined; only
/// [`Tag::Ext`] pays an indirect call.
#[inline(always)]
fn exec_op(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    macro_rules! ibin {
        ($x:ident, $y:ident, $e:expr) => {{
            let $x = slots[op.a as usize].as_i64();
            let $y = slots[op.b as usize].as_i64();
            slots[op.dst as usize] = Value::I64($e);
        }};
    }
    macro_rules! fbin {
        ($x:ident, $y:ident, $e:expr) => {{
            let $x = slots[op.a as usize].as_f64();
            let $y = slots[op.b as usize].as_f64();
            slots[op.dst as usize] = Value::F64($e);
        }};
    }
    macro_rules! icmp {
        ($x:ident, $y:ident, $e:expr) => {{
            let $x = slots[op.a as usize].as_i64();
            let $y = slots[op.b as usize].as_i64();
            slots[op.dst as usize] = Value::I64($e as i64);
        }};
    }
    macro_rules! fcmp {
        ($x:ident, $y:ident, $e:expr) => {{
            let $x = slots[op.a as usize].as_f64();
            let $y = slots[op.b as usize].as_f64();
            slots[op.dst as usize] = Value::I64($e as i64);
        }};
    }
    // Every arm mirrors the corresponding `eval_binop` arm exactly
    // (wrapping integer arithmetic, bit-pattern float semantics); the
    // differential suites in `tests/parity.rs` pin the equivalence.
    match op.tag {
        Tag::Mov => slots[op.dst as usize] = slots[op.a as usize],
        Tag::IAdd => ibin!(x, y, x.wrapping_add(y)),
        Tag::ISub => ibin!(x, y, x.wrapping_sub(y)),
        Tag::IMul => ibin!(x, y, x.wrapping_mul(y)),
        Tag::IAnd => ibin!(x, y, x & y),
        Tag::IOr => ibin!(x, y, x | y),
        Tag::IXor => ibin!(x, y, x ^ y),
        Tag::IShl => ibin!(x, y, x.wrapping_shl(y as u32 & 63)),
        Tag::IShr => ibin!(x, y, x.wrapping_shr(y as u32 & 63)),
        Tag::IMin => ibin!(x, y, x.min(y)),
        Tag::IMax => ibin!(x, y, x.max(y)),
        Tag::FAdd => fbin!(x, y, x + y),
        Tag::FSub => fbin!(x, y, x - y),
        Tag::FMul => fbin!(x, y, x * y),
        Tag::FDiv => fbin!(x, y, x / y),
        Tag::IEq => icmp!(x, y, x == y),
        Tag::INe => icmp!(x, y, x != y),
        Tag::ILt => icmp!(x, y, x < y),
        Tag::ILe => icmp!(x, y, x <= y),
        Tag::IGt => icmp!(x, y, x > y),
        Tag::IGe => icmp!(x, y, x >= y),
        Tag::FcEq => fcmp!(x, y, x == y),
        Tag::FcNe => fcmp!(x, y, x != y),
        Tag::FcLt => fcmp!(x, y, x < y),
        Tag::FcLe => fcmp!(x, y, x <= y),
        Tag::FcGt => fcmp!(x, y, x > y),
        Tag::FcGe => fcmp!(x, y, x >= y),
        Tag::PtrAdd => {
            let p = slots[op.a as usize].as_ptr();
            let off = slots[op.b as usize].as_i64();
            slots[op.dst as usize] = Value::Ptr(PtrVal { mem: p.mem, offset: p.offset + off });
        }
        Tag::Select => select_impl(op, slots),
        Tag::AddrOf => addr_of_impl(op, slots),
        Tag::LoadG => return load_global_impl(op, slots, ctx),
        Tag::LoadP => return load_ptr_impl(op, slots, ctx),
        Tag::StoreG => return store_global_impl(op, slots, ctx),
        Tag::StoreP => return store_ptr_impl(op, slots, ctx),
        Tag::Spill => spill_impl(op, ctx),
        Tag::PrefG => prefetch_global_impl(op, slots, ctx),
        Tag::PrefP => prefetch_ptr_impl(op, slots, ctx),
        // Unary arms mirror `eval_unop` arm for arm.
        Tag::Neg => {
            slots[op.dst as usize] = Value::I64(slots[op.a as usize].as_i64().wrapping_neg())
        }
        Tag::Not => slots[op.dst as usize] = Value::I64(!slots[op.a as usize].as_i64()),
        Tag::FNeg => slots[op.dst as usize] = Value::F64(-slots[op.a as usize].as_f64()),
        Tag::IntToF => {
            slots[op.dst as usize] = Value::F64(slots[op.a as usize].as_i64() as f64)
        }
        Tag::FToInt => {
            slots[op.dst as usize] = Value::I64(slots[op.a as usize].as_f64() as i64)
        }
        Tag::FAbs => slots[op.dst as usize] = Value::F64(slots[op.a as usize].as_f64().abs()),
        Tag::FSqrt => {
            slots[op.dst as usize] = Value::F64(slots[op.a as usize].as_f64().sqrt())
        }
        Tag::Ext => return (op.f)(op, slots, ctx),
    }
    Ok(())
}

/// Execute one call of function `fidx` (the threaded analogue of the
/// predecoded executor's `Ctx::call`).
pub(crate) fn run_func(
    ctx: &mut JitCtx<'_>,
    fidx: u32,
    args: &[Value],
) -> Result<Option<Value>, InterpError> {
    if ctx.depth > RECURSION_LIMIT {
        return Err(InterpError::RecursionLimit);
    }
    ctx.depth += 1;
    let jv = ctx.jv;
    let jf = &jv.funcs[fidx as usize];
    let mut slots = ctx.scratch.take_regs(jf.num_slots as usize);
    slots[jf.const_base as usize..].copy_from_slice(&jf.consts);
    for (&p, a) in jf.param_slots.iter().zip(args) {
        slots[p as usize] = *a;
    }
    let mut bb = jf.entry;
    loop {
        let blk = &jf.blocks[bb as usize];
        // All data-independent costs of this block, in one add.
        ctx.cycles += blk.const_cost;
        ctx.steps += blk.steps;
        if ctx.steps > STEP_LIMIT {
            return Err(InterpError::StepLimit);
        }
        for op in blk.ops.iter() {
            exec_op(op, &mut slots, ctx)?;
        }
        match blk.term {
            Term::Jump(t) => bb = t,
            Term::Branch { cond, on_true, on_false, site_idx, taken_extra } => {
                let taken = slots[cond as usize].is_true();
                if ctx.state.predictor.mispredicted_at(site_idx as usize, taken) {
                    ctx.cycles += ctx.jv.mispredict_penalty;
                }
                if taken {
                    ctx.cycles += taken_extra;
                }
                bb = if taken { on_true } else { on_false };
            }
            Term::CmpBranch { cmp, a, b, dst, on_true, on_false, site_idx, taken_extra } => {
                let taken = cmp_eval(cmp, slots[a as usize], slots[b as usize]);
                // The comparison still defines its variable (0/1), so
                // any later read of it sees the same value as unfused.
                slots[dst as usize] = Value::I64(taken as i64);
                if ctx.state.predictor.mispredicted_at(site_idx as usize, taken) {
                    ctx.cycles += ctx.jv.mispredict_penalty;
                }
                if taken {
                    ctx.cycles += taken_extra;
                }
                bb = if taken { on_true } else { on_false };
            }
            Term::Ret(slot) => {
                let ret =
                    if slot == u32::MAX { None } else { Some(slots[slot as usize]) };
                ctx.scratch.put_regs(slots);
                ctx.depth -= 1;
                return Ok(ret);
            }
        }
    }
}

// ---- operator thunks (monomorphized per variant) ----
//
// The tagged operators keep a thunk too (the `f` field is always
// valid), but only `Tag::Ext` ops are ever dispatched through it.

macro_rules! unop_thunks {
    ($($name:ident => $v:ident),+ $(,)?) => {
        $(fn $name(op: &Op, slots: &mut [Value], _ctx: &mut JitCtx) -> Result<(), InterpError> {
            slots[op.dst as usize] = eval_unop(UnOp::$v, slots[op.a as usize]);
            Ok(())
        })+
        pub(crate) fn unop_fn(u: UnOp) -> OpFn {
            match u { $(UnOp::$v => $name,)+ }
        }
    };
}

unop_thunks! {
    un_neg => Neg, un_not => Not, un_fneg => FNeg, un_int_to_f => IntToF,
    un_f_to_int => FToInt, un_fabs => FAbs, un_fsqrt => FSqrt,
}

macro_rules! binop_thunks {
    ($($name:ident => $v:ident),+ $(,)?) => {
        $(fn $name(op: &Op, slots: &mut [Value], _ctx: &mut JitCtx) -> Result<(), InterpError> {
            slots[op.dst as usize] =
                eval_binop(BinOp::$v, slots[op.a as usize], slots[op.b as usize])?;
            Ok(())
        })+
        pub(crate) fn binop_fn(b: BinOp) -> OpFn {
            match b { $(BinOp::$v => $name,)+ }
        }
    };
}

binop_thunks! {
    bin_add => Add, bin_sub => Sub, bin_mul => Mul, bin_div => Div, bin_rem => Rem,
    bin_and => And, bin_or => Or, bin_xor => Xor, bin_shl => Shl, bin_shr => Shr,
    bin_min => Min, bin_max => Max,
    bin_fadd => FAdd, bin_fsub => FSub, bin_fmul => FMul, bin_fdiv => FDiv,
    bin_eq => Eq, bin_ne => Ne, bin_lt => Lt, bin_le => Le, bin_gt => Gt, bin_ge => Ge,
    bin_feq => FEq, bin_fne => FNe, bin_flt => FLt, bin_fle => FLe, bin_fgt => FGt,
    bin_fge => FGe,
    bin_ptr_add => PtrAdd, bin_ptr_eq => PtrEq, bin_ptr_diff => PtrDiff,
}

// ---- data-movement and memory ops (shared impls) ----

pub(crate) fn mov(op: &Op, slots: &mut [Value], _ctx: &mut JitCtx) -> Result<(), InterpError> {
    slots[op.dst as usize] = slots[op.a as usize];
    Ok(())
}

#[inline(always)]
fn select_impl(op: &Op, slots: &mut [Value]) {
    slots[op.dst as usize] = if slots[op.a as usize].is_true() {
        slots[op.b as usize]
    } else {
        slots[op.c as usize]
    };
}

pub(crate) fn select(op: &Op, slots: &mut [Value], _ctx: &mut JitCtx) -> Result<(), InterpError> {
    select_impl(op, slots);
    Ok(())
}

#[inline(always)]
fn addr_of_impl(op: &Op, slots: &mut [Value]) {
    slots[op.dst as usize] =
        Value::Ptr(PtrVal { mem: MemId(op.c), offset: slots[op.a as usize].as_i64() });
}

pub(crate) fn addr_of(op: &Op, slots: &mut [Value], _ctx: &mut JitCtx) -> Result<(), InterpError> {
    addr_of_impl(op, slots);
    Ok(())
}

#[inline(always)]
fn load_global_impl(
    op: &Op,
    slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    let m = MemId(op.c);
    let idx = slots[op.a as usize].as_i64();
    let len = ctx.mem.buf(m).len();
    if idx < 0 || idx as usize >= len {
        return Err(InterpError::OutOfBounds { mem: m.0, index: idx, len });
    }
    ctx.cycles += ctx.state.caches.access(ctx.amap.addr(m, idx));
    slots[op.dst as usize] = ctx.mem.load(m, idx);
    Ok(())
}

pub(crate) fn load_global(
    op: &Op,
    slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    load_global_impl(op, slots, ctx)
}

#[inline(always)]
fn load_ptr_impl(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    let p = slots[op.c as usize].as_ptr();
    let (m, idx) = (p.mem, p.offset + slots[op.a as usize].as_i64());
    let len = ctx.mem.buf(m).len();
    if idx < 0 || idx as usize >= len {
        return Err(InterpError::OutOfBounds { mem: m.0, index: idx, len });
    }
    ctx.cycles += ctx.state.caches.access(ctx.amap.addr(m, idx));
    slots[op.dst as usize] = ctx.mem.load(m, idx);
    Ok(())
}

pub(crate) fn load_ptr(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    load_ptr_impl(op, slots, ctx)
}

#[inline(always)]
fn store_at(
    m: MemId,
    idx: i64,
    src: Value,
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    let len = ctx.mem.buf(m).len();
    if idx < 0 || idx as usize >= len {
        return Err(InterpError::OutOfBounds { mem: m.0, index: idx, len });
    }
    ctx.cycles += ctx.state.caches.access(ctx.amap.addr(m, idx));
    if ctx.record_writes && ctx.scratch.first_write(m.0, idx) {
        // Inspector: log the pre-write value (undo log); the inspector
        // code itself costs cycles.
        ctx.writes.push((m, idx, ctx.mem.load(m, idx)));
        ctx.cycles += 3;
    }
    ctx.mem.store(m, idx, src);
    Ok(())
}

#[inline(always)]
fn store_global_impl(
    op: &Op,
    slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    let idx = slots[op.a as usize].as_i64();
    store_at(MemId(op.c), idx, slots[op.b as usize], ctx)
}

pub(crate) fn store_global(
    op: &Op,
    slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    store_global_impl(op, slots, ctx)
}

#[inline(always)]
fn store_ptr_impl(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    let p = slots[op.c as usize].as_ptr();
    let idx = p.offset + slots[op.a as usize].as_i64();
    store_at(p.mem, idx, slots[op.b as usize], ctx)
}

pub(crate) fn store_ptr(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    store_ptr_impl(op, slots, ctx)
}

#[inline(always)]
fn prefetch_global_impl(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) {
    // Best-effort: ignore out-of-bounds addresses.
    let m = MemId(op.c);
    let idx = slots[op.a as usize].as_i64();
    let len = ctx.mem.buf(m).len() as i64;
    if idx >= 0 && idx < len {
        ctx.state.caches.prefetch(ctx.amap.addr(m, idx));
    }
}

pub(crate) fn prefetch_global(
    op: &Op,
    slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    prefetch_global_impl(op, slots, ctx);
    Ok(())
}

#[inline(always)]
fn prefetch_ptr_impl(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) {
    let p = slots[op.c as usize].as_ptr();
    let (m, idx) = (p.mem, p.offset + slots[op.a as usize].as_i64());
    let len = ctx.mem.buf(m).len() as i64;
    if idx >= 0 && idx < len {
        ctx.state.caches.prefetch(ctx.amap.addr(m, idx));
    }
}

pub(crate) fn prefetch_ptr(
    op: &Op,
    slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    prefetch_ptr_impl(op, slots, ctx);
    Ok(())
}

pub(crate) fn counter_inc(
    op: &Op,
    _slots: &mut [Value],
    ctx: &mut JitCtx,
) -> Result<(), InterpError> {
    let i = op.a as usize;
    if i >= ctx.counters.len() {
        ctx.counters.resize(i + 1, 0);
    }
    ctx.counters[i] += 1;
    Ok(())
}

/// Spill-slot access (load or store — the cost model treats them
/// identically): through the cache, plus the machine's spill overhead,
/// minus what post-RA scheduling hides; at least 1 cycle.
#[inline(always)]
fn spill_impl(op: &Op, ctx: &mut JitCtx) {
    let addr = ctx.amap.spill_addr(op.a);
    let mut c = ctx.state.caches.access(addr) + ctx.jv.spill_extra;
    c = c.saturating_sub(ctx.jv.spill_sub);
    ctx.cycles += c.max(1);
}

pub(crate) fn spill(op: &Op, _slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    spill_impl(op, ctx);
    Ok(())
}

pub(crate) fn call_val(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    let (off, len) = (op.a as usize, op.b as usize);
    let mut vals = ctx.scratch.take_vals();
    for &s in &ctx.jv.args_pool[off..off + len] {
        vals.push(slots[s as usize]);
    }
    let r = run_func(ctx, op.imm, &vals)?;
    ctx.scratch.put_vals(vals);
    slots[op.dst as usize] = r.expect("value call of void function");
    Ok(())
}

pub(crate) fn call_void(op: &Op, slots: &mut [Value], ctx: &mut JitCtx) -> Result<(), InterpError> {
    let (off, len) = (op.a as usize, op.b as usize);
    let mut vals = ctx.scratch.take_vals();
    for &s in &ctx.jv.args_pool[off..off + len] {
        vals.push(slots[s as usize]);
    }
    run_func(ctx, op.imm, &vals)?;
    ctx.scratch.put_vals(vals);
    Ok(())
}
