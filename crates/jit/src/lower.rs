//! Lowering: [`PreparedVersion`] → [`JitVersion`].
//!
//! Walks every function of the compiled program once, building a
//! unified slot frame (variables first, then the function's deduped
//! constant pool), then emits one threaded op per statement plus a
//! standalone spill op at the exact position of every spill event of
//! the pre-decoded stream. Per-block constant costs are taken verbatim
//! from [`PreparedVersion::decoded_blocks`] — the lowering never
//! recomputes costs, it only changes how they are *charged*.

use std::collections::HashMap;

use crate::ops::{self, Op, OpFn, Tag};
use crate::{JitBlock, JitFunc, JitVersion, Term};
use peak_ir::{MemBase, Operand, Rvalue, Stmt, Terminator, Value};
use peak_sim::{PreparedVersion, TierBackend};

/// Lowering budgets. The JIT covers the complete IR, so these are the
/// only sources of [`DeoptReason`].
#[derive(Debug, Clone, Copy)]
pub struct JitOptions {
    /// Maximum total statement count lowered per version; larger
    /// versions decline and stay on the predecoded tier.
    pub max_stmts: usize,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions { max_stmts: 1_000_000 }
    }
}

impl JitOptions {
    /// Defaults overridden from the environment
    /// (`PEAK_JIT_MAX_STMTS`). Panics on an unparsable value — a silent
    /// fallback would hide a config typo as a perf regression.
    pub fn from_env() -> Self {
        let mut o = JitOptions::default();
        if let Ok(s) = std::env::var("PEAK_JIT_MAX_STMTS") {
            o.max_stmts = s
                .parse()
                .unwrap_or_else(|_| panic!("PEAK_JIT_MAX_STMTS: not a count: {s:?}"));
        }
        o
    }
}

/// Why a version was not lowered. Declining is always safe — the
/// version cache keeps the predecoded engine for that version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeoptReason {
    /// The version exceeds the lowered-statement budget.
    StmtBudget {
        /// Statements in the version.
        stmts: usize,
        /// Budget it exceeded ([`JitOptions::max_stmts`]).
        max: usize,
    },
}

impl std::fmt::Display for DeoptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeoptReason::StmtBudget { stmts, max } => {
                write!(f, "statement budget: {stmts} stmts > max {max}")
            }
        }
    }
}

/// Hashable identity of a constant operand (F64 by bit pattern, so
/// e.g. two NaN payloads stay distinct and 0.0/-0.0 dedup separately).
#[derive(PartialEq, Eq, Hash)]
enum CKey {
    I(i64),
    F(u64),
    P(u32, i64),
}

impl CKey {
    fn of(v: Value) -> CKey {
        match v {
            Value::I64(x) => CKey::I(x),
            Value::F64(x) => CKey::F(x.to_bits()),
            Value::Ptr(p) => CKey::P(p.mem.0, p.offset),
        }
    }
}

/// Per-function frame layout under construction.
struct Frame {
    num_vars: u32,
    consts: Vec<Value>,
    index: HashMap<CKey, u32>,
}

impl Frame {
    fn new(num_vars: usize) -> Self {
        Frame { num_vars: num_vars as u32, consts: Vec::new(), index: HashMap::new() }
    }

    /// Slot of an operand: variables map to their own index, constants
    /// to a deduped pool slot after the variables.
    fn slot(&mut self, op: &Operand) -> u32 {
        match op {
            Operand::Var(v) => v.0,
            Operand::Const(c) => {
                let (nv, consts) = (self.num_vars, &mut self.consts);
                *self.index.entry(CKey::of(*c)).or_insert_with(|| {
                    consts.push(*c);
                    nv + (consts.len() - 1) as u32
                })
            }
        }
    }
}

/// Lower a prepared version to threaded code, or decline with the
/// reason. Pure function of `pv` and `opts` — the same version always
/// lowers to the same artifact.
pub fn lower(pv: &PreparedVersion, opts: &JitOptions) -> Result<JitVersion, DeoptReason> {
    let prog = &pv.version.program;
    let total: usize =
        prog.funcs.iter().flat_map(|f| f.blocks.iter()).map(|b| b.stmts.len()).sum();
    if total > opts.max_stmts {
        return Err(DeoptReason::StmtBudget { stmts: total, max: opts.max_stmts });
    }

    let mut args_pool: Vec<u32> = Vec::new();
    let mut funcs = Vec::with_capacity(prog.funcs.len());
    let mut n_blocks = 0usize;
    let mut n_ops = 0usize;

    for (fi, f) in prog.funcs.iter().enumerate() {
        let mut fr = Frame::new(f.num_vars());
        let decoded = pv.decoded_blocks(fi);
        let mut blocks = Vec::with_capacity(f.blocks.len());

        for (bi, b) in f.blocks.iter().enumerate() {
            let d = &decoded[bi];
            let mut body: Vec<Op> = Vec::new();
            // Cursor over the block's spill events: each becomes its
            // own op at its exact position (use-spills before the
            // statement body, the def-spill after it).
            let mut evs = d.spills().iter();
            let mut next_ev = evs.next();

            for (si, s) in b.stmts.iter().enumerate() {
                let key = (si as u32) << 1;
                while let Some(e) = next_ev {
                    if e.key() != key {
                        break;
                    }
                    body.push(op1(ops::spill, Tag::Spill, e.slot()));
                    next_ev = evs.next();
                }
                body.push(lower_stmt(s, &mut fr, &mut args_pool));
                let key = key | 1;
                while let Some(e) = next_ev {
                    if e.key() != key {
                        break;
                    }
                    body.push(op1(ops::spill, Tag::Spill, e.slot()));
                    next_ev = evs.next();
                }
            }

            let term = match &b.term {
                Terminator::Jump(t) => Term::Jump(t.0),
                Terminator::Return(v) => {
                    Term::Ret(v.as_ref().map_or(u32::MAX, |op| fr.slot(op)))
                }
                Terminator::Branch { cond, on_true, on_false } => {
                    match fuse_cmp(cond, b.stmts.last(), d.spills(), b.stmts.len()) {
                        Some((cmp, a2, b2, dst)) => {
                            // The popped op is the comparison itself —
                            // `fuse_cmp` verified the last statement is
                            // the fusible compare and carries no spill
                            // events, so nothing was emitted after it.
                            body.pop();
                            Term::CmpBranch {
                                cmp,
                                a: fr.slot(a2),
                                b: fr.slot(b2),
                                dst,
                                on_true: on_true.0,
                                on_false: on_false.0,
                                site_idx: d.site_idx(),
                                taken_extra: d.taken_extra(),
                            }
                        }
                        None => Term::Branch {
                            cond: fr.slot(cond),
                            on_true: on_true.0,
                            on_false: on_false.0,
                            site_idx: d.site_idx(),
                            taken_extra: d.taken_extra(),
                        },
                    }
                }
            };

            n_ops += body.len();
            blocks.push(JitBlock {
                const_cost: d.const_cost(),
                steps: b.stmts.len() as u64 + 1,
                ops: body.into_boxed_slice(),
                term,
            });
        }

        n_blocks += blocks.len();
        let num_vars = f.num_vars() as u32;
        funcs.push(JitFunc {
            num_slots: num_vars + fr.consts.len() as u32,
            const_base: num_vars,
            consts: fr.consts.into_boxed_slice(),
            param_slots: f.params.iter().map(|p| p.0).collect(),
            entry: f.entry.0,
            blocks: blocks.into_boxed_slice(),
        });
    }

    let p = pv.exec_params();
    Ok(JitVersion {
        funcs: funcs.into_boxed_slice(),
        entry: pv.version.func.0,
        args_pool: args_pool.into_boxed_slice(),
        spill_extra: p.spill_extra(),
        spill_sub: p.spill_sub(),
        mispredict_penalty: p.mispredict_penalty(),
        n_blocks,
        n_ops,
        timing: pv.timing_inputs().cloned(),
    })
}

/// A fusible terminator comparison: the predicate plus its operands
/// and the condition variable it must still define.
type FusedCmp<'a> = (ops::CmpTag, &'a Operand, &'a Operand, u32);

/// Compare-and-branch fusion check: the branch condition must be a
/// variable defined by the block's last statement, that statement must
/// be a pure comparison, and it must carry no spill events (a spill op
/// between compare and branch would change the access order).
fn fuse_cmp<'a>(
    cond: &Operand,
    last: Option<&'a Stmt>,
    spills: &[peak_sim::SpillEv],
    n_stmts: usize,
) -> Option<FusedCmp<'a>> {
    let cv = cond.as_var()?;
    let Some(Stmt::Assign { dst, rv: Rvalue::Binary(bop, a, b) }) = last else {
        return None;
    };
    if *dst != cv {
        return None;
    }
    let cmp = ops::cmp_tag(*bop)?;
    let last_si = (n_stmts - 1) as u32;
    if spills.iter().any(|e| e.key() >> 1 == last_si) {
        return None;
    }
    Some((cmp, a, b, cv.0))
}

fn op1(f: OpFn, tag: Tag, a: u32) -> Op {
    Op { f, dst: 0, a, b: 0, c: 0, imm: 0, tag }
}

/// Lower one statement to one op. Call arguments go into the shared
/// `args_pool`; the op records its slice as (offset, len).
fn lower_stmt(s: &Stmt, fr: &mut Frame, args_pool: &mut Vec<u32>) -> Op {
    let mut op = Op { f: ops::mov, dst: 0, a: 0, b: 0, c: 0, imm: 0, tag: Tag::Mov };
    match s {
        Stmt::Assign { dst, rv } => {
            op.dst = dst.0;
            match rv {
                Rvalue::Use(a) => {
                    op.f = ops::mov;
                    op.a = fr.slot(a);
                }
                Rvalue::Unary(u, a) => {
                    op.f = ops::unop_fn(*u);
                    op.tag = ops::unop_tag(*u);
                    op.a = fr.slot(a);
                }
                Rvalue::Binary(b, a, b2) => {
                    op.f = ops::binop_fn(*b);
                    op.tag = ops::binop_tag(*b);
                    op.a = fr.slot(a);
                    op.b = fr.slot(b2);
                }
                Rvalue::Load(mr) => {
                    op.a = fr.slot(&mr.index);
                    match mr.base {
                        MemBase::Global(m) => {
                            op.f = ops::load_global;
                            op.tag = Tag::LoadG;
                            op.c = m.0;
                        }
                        MemBase::Ptr(p) => {
                            op.f = ops::load_ptr;
                            op.tag = Tag::LoadP;
                            op.c = p.0;
                        }
                    }
                }
                Rvalue::AddrOf(m, idx) => {
                    op.f = ops::addr_of;
                    op.tag = Tag::AddrOf;
                    op.a = fr.slot(idx);
                    op.c = m.0;
                }
                Rvalue::Select { cond, on_true, on_false } => {
                    op.f = ops::select;
                    op.tag = Tag::Select;
                    op.a = fr.slot(cond);
                    op.b = fr.slot(on_true);
                    op.c = fr.slot(on_false);
                }
                Rvalue::Call { func, args } => {
                    op.f = ops::call_val;
                    op.tag = Tag::Ext;
                    op.a = args_pool.len() as u32;
                    op.b = args.len() as u32;
                    op.imm = func.0;
                    for a in args {
                        let s = fr.slot(a);
                        args_pool.push(s);
                    }
                }
            }
        }
        Stmt::Store { dst, src } => {
            op.a = fr.slot(&dst.index);
            op.b = fr.slot(src);
            match dst.base {
                MemBase::Global(m) => {
                    op.f = ops::store_global;
                    op.tag = Tag::StoreG;
                    op.c = m.0;
                }
                MemBase::Ptr(p) => {
                    op.f = ops::store_ptr;
                    op.tag = Tag::StoreP;
                    op.c = p.0;
                }
            }
        }
        Stmt::CallVoid { func, args } => {
            op.f = ops::call_void;
            op.tag = Tag::Ext;
            op.a = args_pool.len() as u32;
            op.b = args.len() as u32;
            op.imm = func.0;
            for a in args {
                let s = fr.slot(a);
                args_pool.push(s);
            }
        }
        Stmt::Prefetch { addr } => {
            op.a = fr.slot(&addr.index);
            match addr.base {
                MemBase::Global(m) => {
                    op.f = ops::prefetch_global;
                    op.tag = Tag::PrefG;
                    op.c = m.0;
                }
                MemBase::Ptr(p) => {
                    op.f = ops::prefetch_ptr;
                    op.tag = Tag::PrefP;
                    op.c = p.0;
                }
            }
        }
        Stmt::CounterInc { counter } => {
            op.f = ops::counter_inc;
            op.tag = Tag::Ext;
            op.a = counter.0;
        }
    }
    op
}
