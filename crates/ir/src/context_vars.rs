//! Context-variable analysis (paper Figure 1).
//!
//! Context-based rating groups TS invocations by *context*: the values of
//! all program variables that influence execution time. The paper finds
//! these by traversing every control statement and recursively following
//! UD chains of the variables it uses back to the entry of the TS. The
//! inputs reached are the context variables; if any of them is not a
//! scalar, CBR is not applied.
//!
//! Three kinds of references count as scalars (paper §2.2):
//! 1. plain scalar variables (here: TS parameters of any type),
//! 2. array references with constant subscripts (`Load(Global(m), Const)`),
//! 3. references through pointers not changed within the TS, again with
//!    constant subscripts (verified via the simple points-to analysis).
//!
//! The same walk, started from every use that steers the cost model,
//! gives [`timing_inputs`]: the memory regions an invocation's timing
//! can depend on. The run harness in `peak-core` uses it to prove that
//! a repeated invocation takes exactly the time of the one before.

use crate::cfg::Cfg;
use crate::func::Function;
use crate::points_to::PointsTo;
use crate::reaching::{DefSite, ReachingDefs, UseSite};
use crate::stmt::{MemBase, MemRef, Rvalue, Stmt, Terminator};
use crate::types::{BinOp, BlockId, MemId, Operand, VarId};
use std::collections::{BTreeSet, HashSet};

/// One member of the context set: where the rating runtime must read the
/// value at each TS invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContextSource {
    /// A TS parameter (index into `Function::params`).
    Param(usize),
    /// A global scalar: `mem[index]` with a constant subscript.
    GlobalScalar {
        /// Region holding the scalar.
        mem: MemId,
        /// Constant element index.
        index: i64,
    },
}

/// Result of the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextAnalysis {
    /// CBR is applicable; these are the context variables, sorted and
    /// deduplicated. (Run-time constants among them are removed later
    /// using a profile, see `peak-core`.)
    Applicable(Vec<ContextSource>),
    /// CBR is not applicable; the offending reason for diagnostics.
    NotApplicable(String),
}

impl ContextAnalysis {
    /// Context sources if applicable.
    pub fn sources(&self) -> Option<&[ContextSource]> {
        match self {
            ContextAnalysis::Applicable(v) => Some(v),
            ContextAnalysis::NotApplicable(_) => None,
        }
    }
}

/// The paper's `GetContextSet(TS)` (Figure 1): returns the context set, or
/// `NotApplicable` if a non-scalar context variable exists.
pub fn context_set(f: &Function) -> ContextAnalysis {
    let cfg = Cfg::build(f);
    let rd = ReachingDefs::build(f, &cfg);
    let pts = PointsTo::build(f);
    let mut ctx: HashSet<ContextSource> = HashSet::new();
    // "Set the state of each statement as undone": done-set over def sites
    // prevents infinite recursion around loops.
    let mut done: HashSet<DefSite> = HashSet::new();
    let mut leaf = |l: Leaf<'_>| context_leaf(f, &pts, l, &mut ctx);
    let mut uses = Vec::new();
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        // "For each control statement s in TS": branches are the control
        // statements in this IR.
        if !matches!(f.block(b).term, Terminator::Branch { .. }) {
            continue;
        }
        uses.clear();
        f.block(b).term.uses(&mut uses);
        for &v in &uses {
            if let Err(why) = walk(f, &rd, v, UseSite::Term { block: b }, &mut done, &mut leaf) {
                return ContextAnalysis::NotApplicable(why);
            }
        }
    }
    let mut out: Vec<ContextSource> = ctx.into_iter().collect();
    out.sort();
    ContextAnalysis::Applicable(out)
}

/// The memory regions whose loaded values can reach `f`'s *timing*: a
/// branch condition, a load, store or prefetch subscript or pointer, or
/// an integer divisor. Everything the cost model charges — statements
/// executed, cache lines touched, predictor entries updated — and every
/// failure an execution can hit follows from those values, the
/// arguments, and the machine state. Two invocations with equal
/// arguments that see equal contents in these regions, started from
/// equal machine state, take the same time.
///
/// Found with Figure 1's UD-chain walk, started from every one of those
/// uses instead of only the branches: a load the walk reaches adds the
/// region it reads, a parameter or a zero-initialized local adds
/// nothing. Sorted and deduplicated.
///
/// `None` where the walk cannot bound the set: `f` calls a function
/// (the callee's timing is outside this walk), or a value that reaches
/// the timing is loaded through a pointer the points-to analysis cannot
/// pin to a set of regions.
pub fn timing_inputs(f: &Function) -> Option<Vec<MemId>> {
    let cfg = Cfg::build(f);
    let rd = ReachingDefs::build(f, &cfg);
    let pts = PointsTo::build(f);
    let mut regions: BTreeSet<MemId> = BTreeSet::new();
    let mut done: HashSet<DefSite> = HashSet::new();
    let mut leaf = |l: Leaf<'_>| -> Result<(), ()> {
        match l {
            Leaf::Entry(_) => Ok(()),
            Leaf::Load { mr, .. } => match mr.base {
                MemBase::Global(m) => {
                    regions.insert(m);
                    Ok(())
                }
                MemBase::Ptr(p) if pts.is_precise(p) => {
                    regions.extend(pts.may_point_to(p, pts.discovered_regions()));
                    Ok(())
                }
                MemBase::Ptr(_) => Err(()),
            },
            Leaf::Call => Err(()),
        }
    };
    let mut uses = Vec::new();
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let block = f.block(b);
        for (si, s) in block.stmts.iter().enumerate() {
            uses.clear();
            match s {
                Stmt::Assign { rv: Rvalue::Call { .. }, .. } | Stmt::CallVoid { .. } => return None,
                Stmt::Assign { rv: Rvalue::Load(mr), .. } => mr.address_vars(&mut uses),
                Stmt::Assign {
                    rv: Rvalue::Binary(BinOp::Div | BinOp::Rem, _, Operand::Var(d)), ..
                } => uses.push(*d),
                Stmt::Store { dst, .. } => dst.address_vars(&mut uses),
                Stmt::Prefetch { addr } => addr.address_vars(&mut uses),
                _ => {}
            }
            for &v in &uses {
                let site = UseSite::Stmt { block: b, stmt: si };
                walk(f, &rd, v, site, &mut done, &mut leaf).ok()?;
            }
        }
        if matches!(block.term, Terminator::Branch { .. }) {
            uses.clear();
            block.term.uses(&mut uses);
            for &v in &uses {
                walk(f, &rd, v, UseSite::Term { block: b }, &mut done, &mut leaf).ok()?;
            }
        }
    }
    Some(regions.into_iter().collect())
}

/// A definition the UD-chain walk stops at.
enum Leaf<'f> {
    /// The variable's value at function entry.
    Entry(VarId),
    /// A load, at `block.stmts[stmt]`.
    Load {
        /// Defining block.
        block: BlockId,
        /// Statement index within the block.
        stmt: usize,
        /// The memory reference loaded.
        mr: &'f MemRef,
    },
    /// A call's return value.
    Call,
}

/// The paper's `GetStmtContextSet(v, s)`: the recursive UD-chain walk
/// from the use of `v` at `site`. Every definition reaching it is either
/// a leaf — judged by `leaf`, whose error stops the walk — or an
/// operation whose operands are walked in turn. `done` holds the
/// definitions already walked ("if m is done: continue (avoid loop)").
fn walk<'f, E>(
    f: &'f Function,
    rd: &ReachingDefs,
    v: VarId,
    site: UseSite,
    done: &mut HashSet<DefSite>,
    leaf: &mut impl FnMut(Leaf<'f>) -> Result<(), E>,
) -> Result<(), E> {
    for def in rd.ud_chain(f, v, site) {
        if !done.insert(def) {
            continue;
        }
        match def {
            DefSite::Entry(ev) => leaf(Leaf::Entry(ev))?,
            DefSite::Stmt { block, stmt } => {
                let s = &f.block(block).stmts[stmt];
                let Stmt::Assign { rv, .. } = s else { unreachable!("def site is an assign") };
                match rv {
                    Rvalue::Load(mr) => leaf(Leaf::Load { block, stmt, mr })?,
                    Rvalue::Call { .. } => leaf(Leaf::Call)?,
                    _ => {
                        // "For each variable r used in m: recurse."
                        let mut inner = Vec::new();
                        rv.uses(&mut inner);
                        for r in inner {
                            walk(f, rd, r, UseSite::Stmt { block, stmt }, done, leaf)?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Figure 1's judgement of a leaf: a parameter or a scalar load joins
/// the context set; anything else makes CBR inapplicable.
fn context_leaf(
    f: &Function,
    pts: &PointsTo,
    leaf: Leaf<'_>,
    ctx: &mut HashSet<ContextSource>,
) -> Result<(), String> {
    match leaf {
        Leaf::Entry(ev) => {
            // "if m is the entry statement: v is in Input(TS)".
            // Parameters are scalars; a live-in non-parameter would be
            // an uninitialized local, which the validator rejects.
            match f.params.iter().position(|&p| p == ev) {
                Some(pi) => {
                    ctx.insert(ContextSource::Param(pi));
                }
                None => {
                    return Err(format!(
                        "variable {} used before definition",
                        f.vars[ev.index()].name
                    ))
                }
            }
        }
        Leaf::Load { block, stmt, mr } => {
            // Scalar cases 2 and 3; anything else is non-scalar.
            let Some(cidx) = mr.index.as_const() else {
                return Err(format!(
                    "control value loaded through varying subscript at b{}[{}]",
                    block.0, stmt
                ));
            };
            let idx = cidx.as_i64();
            match mr.base {
                MemBase::Global(m) => {
                    ctx.insert(ContextSource::GlobalScalar { mem: m, index: idx });
                }
                MemBase::Ptr(p) => {
                    // Pointer must be unchanged within the TS
                    // and point to exactly one region.
                    if !pts.is_single_def(p) {
                        return Err(format!(
                            "control value loaded via reassigned pointer v{}",
                            p.0
                        ));
                    }
                    let regions = pts.may_point_to(p, pts.discovered_regions().max(1));
                    if !pts.is_precise(p) || regions.len() != 1 {
                        return Err(format!(
                            "control value loaded via imprecise pointer v{}",
                            p.0
                        ));
                    }
                    // Resolve the pointer's constant offset.
                    let off = pointer_const_offset(f, p)
                        .ok_or_else(|| format!("pointer v{} has non-constant offset", p.0))?;
                    ctx.insert(ContextSource::GlobalScalar { mem: regions[0], index: off + idx });
                }
            }
        }
        Leaf::Call => return Err("control value produced by a call".to_string()),
    }
    Ok(())
}

/// Constant offset of a single-def pointer created by `AddrOf(m, Const)`.
fn pointer_const_offset(f: &Function, p: VarId) -> Option<i64> {
    for b in f.block_ids() {
        for s in &f.block(b).stmts {
            if let Stmt::Assign { dst, rv } = s {
                if *dst == p {
                    return match rv {
                        Rvalue::AddrOf(_, Operand::Const(c)) => Some(c.as_i64()),
                        _ => None,
                    };
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::stmt::MemRef;
    use crate::types::{BinOp, Type};

    #[test]
    fn loop_bound_param_is_context_var() {
        let mut b = FunctionBuilder::new("f", None);
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        b.for_loop(i, 0i64, n, 1, |_| {});
        b.ret(None);
        let f = b.finish();
        let ca = context_set(&f);
        assert_eq!(
            ca,
            ContextAnalysis::Applicable(vec![ContextSource::Param(0)]),
            "n drives the loop exit"
        );
        let _ = n;
    }

    #[test]
    fn derived_bound_traces_to_params() {
        // bound = n * m; both params end up in the context set.
        let mut b = FunctionBuilder::new("f", None);
        let n = b.param("n", Type::I64);
        let m = b.param("m", Type::I64);
        let i = b.var("i", Type::I64);
        let bound = b.binary(BinOp::Mul, n, m);
        b.for_loop(i, 0i64, bound, 1, |_| {});
        b.ret(None);
        let f = b.finish();
        assert_eq!(
            context_set(&f),
            ContextAnalysis::Applicable(vec![ContextSource::Param(0), ContextSource::Param(1)])
        );
    }

    #[test]
    fn global_scalar_with_const_subscript_ok() {
        let mut b = FunctionBuilder::new("f", None);
        let g = MemId(0);
        let i = b.var("i", Type::I64);
        let n = b.load(Type::I64, MemRef::global(g, 3i64));
        b.for_loop(i, 0i64, n, 1, |_| {});
        b.ret(None);
        let f = b.finish();
        assert_eq!(
            context_set(&f),
            ContextAnalysis::Applicable(vec![ContextSource::GlobalScalar { mem: g, index: 3 }])
        );
    }

    #[test]
    fn varying_subscript_disqualifies() {
        // Branch condition loaded from a[i] — a non-scalar context variable.
        let mut b = FunctionBuilder::new("f", None);
        let n = b.param("n", Type::I64);
        let a = MemId(0);
        let i = b.var("i", Type::I64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::I64, MemRef::global(a, i));
            b.if_then(x, |_| {});
        });
        b.ret(None);
        let f = b.finish();
        assert!(matches!(context_set(&f), ContextAnalysis::NotApplicable(_)));
    }

    #[test]
    fn unchanged_pointer_with_const_subscript_ok() {
        // p = &g[5]; branch on *p — scalar case (3).
        let mut b = FunctionBuilder::new("f", None);
        let g = MemId(0);
        let p = b.addr_of(g, 5i64);
        let x = b.load(Type::I64, MemRef::ptr(p, 2i64));
        b.if_then(x, |_| {});
        b.ret(None);
        let f = b.finish();
        assert_eq!(
            context_set(&f),
            ContextAnalysis::Applicable(vec![ContextSource::GlobalScalar { mem: g, index: 7 }])
        );
    }

    #[test]
    fn pointer_param_load_disqualifies() {
        let mut b = FunctionBuilder::new("f", None);
        let p = b.param("p", Type::Ptr);
        let x = b.load(Type::I64, MemRef::ptr(p, 0i64));
        b.if_then(x, |_| {});
        b.ret(None);
        let f = b.finish();
        assert!(matches!(context_set(&f), ContextAnalysis::NotApplicable(_)));
    }

    #[test]
    fn no_branches_means_empty_context() {
        let mut b = FunctionBuilder::new("f", Some(Type::I64));
        let x = b.param("x", Type::I64);
        let y = b.binary(BinOp::Add, x, 1i64);
        b.ret(Some(y.into()));
        let f = b.finish();
        assert_eq!(context_set(&f), ContextAnalysis::Applicable(vec![]));
    }

    /// `timing_inputs` of `f` as region indices.
    fn timing(f: &Function) -> Option<Vec<u32>> {
        timing_inputs(f).map(|ms| ms.into_iter().map(|m| m.0).collect())
    }

    #[test]
    fn gather_indices_are_timing_inputs_values_are_not() {
        // for e in 0..n: r = idx[e]; acc += val[r]; out[e] = acc — the
        // loaded index steers an address, the loaded value only data.
        let (idx, val, out) = (MemId(0), MemId(1), MemId(2));
        let mut b = FunctionBuilder::new("f", None);
        let n = b.param("n", Type::I64);
        let e = b.var("e", Type::I64);
        let acc = b.var("acc", Type::F64);
        b.copy(acc, 0.0f64);
        b.for_loop(e, 0i64, n, 1, |b| {
            let r = b.load(Type::I64, MemRef::global(idx, e));
            let x = b.load(Type::F64, MemRef::global(val, r));
            b.binary_into(acc, BinOp::FAdd, acc, x);
            b.store(MemRef::global(out, e), acc);
        });
        b.ret(None);
        assert_eq!(timing(&b.finish()), Some(vec![0]));
    }

    #[test]
    fn branch_and_divisor_loads_are_timing_inputs() {
        // if g[3] { } ; q = n / h[0] — both regions steer the timing
        // (the divisor can fault); the dividend's region does not.
        let (g, h, d) = (MemId(0), MemId(1), MemId(2));
        let mut b = FunctionBuilder::new("f", Some(Type::I64));
        let x = b.load(Type::I64, MemRef::global(g, 3i64));
        b.if_then(x, |_| {});
        let num = b.load(Type::I64, MemRef::global(d, 0i64));
        let den = b.load(Type::I64, MemRef::global(h, 0i64));
        let q = b.binary(BinOp::Div, num, den);
        b.ret(Some(q.into()));
        assert_eq!(timing(&b.finish()), Some(vec![0, 1]));
    }

    #[test]
    fn straight_line_float_code_has_no_timing_inputs() {
        let a = MemId(0);
        let mut b = FunctionBuilder::new("f", None);
        let x = b.load(Type::F64, MemRef::global(a, 0i64));
        let y = b.binary(BinOp::FMul, x, x);
        b.store(MemRef::global(a, 1i64), y);
        b.ret(None);
        assert_eq!(timing(&b.finish()), Some(vec![]));
    }

    #[test]
    fn precise_pointer_loads_name_their_region() {
        // p = &g[5]; if p[2] { } — the pointer pins the region.
        let g = MemId(4);
        let mut b = FunctionBuilder::new("f", None);
        let p = b.addr_of(g, 5i64);
        let x = b.load(Type::I64, MemRef::ptr(p, 2i64));
        b.if_then(x, |_| {});
        b.ret(None);
        assert_eq!(timing(&b.finish()), Some(vec![4]));
    }

    #[test]
    fn imprecise_pointer_makes_timing_unbounded() {
        // The caller's pointer may point anywhere: a branch on a value
        // loaded through it has no bounded region set.
        let mut b = FunctionBuilder::new("f", None);
        let p = b.param("p", Type::Ptr);
        let x = b.load(Type::I64, MemRef::ptr(p, 0i64));
        b.if_then(x, |_| {});
        b.ret(None);
        assert_eq!(timing(&b.finish()), None);
        // Loads through it that reach no timing use are fine.
        let mut b = FunctionBuilder::new("g", None);
        let p = b.param("p", Type::Ptr);
        let x = b.load(Type::F64, MemRef::ptr(p, 0i64));
        b.store(MemRef::ptr(p, 1i64), x);
        b.ret(None);
        assert_eq!(timing(&b.finish()), Some(vec![]));
    }

    #[test]
    fn calls_make_timing_unbounded() {
        let mut b = FunctionBuilder::new("f", None);
        b.call_void(crate::types::FuncId(1), vec![]);
        b.ret(None);
        assert_eq!(timing(&b.finish()), None);
    }

    #[test]
    fn data_dependent_loop_on_param_is_still_scalar() {
        // while (x > 0) x >>= 1 — x is a param: scalar context var, CBR ok
        // (workload-wise this has many contexts; the *consultant* rejects
        // it on context-count grounds, not this analysis).
        let mut b = FunctionBuilder::new("f", None);
        let x = b.param("x", Type::I64);
        b.while_loop(
            |b| b.binary(BinOp::Gt, x, 0i64).into(),
            |b| {
                b.binary_into(x, BinOp::Shr, x, 1i64);
            },
        );
        b.ret(None);
        let f = b.finish();
        assert_eq!(
            context_set(&f),
            ContextAnalysis::Applicable(vec![ContextSource::Param(0)])
        );
    }
}
