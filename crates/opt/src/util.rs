//! Shared helpers for optimizer passes: operand substitution, single-def
//! queries, expression keys for CSE, and block-subgraph cloning used by the
//! loop-restructuring and inlining passes.

use peak_ir::{
    BinOp, BlockId, Function, MemBase, MemRef, Operand, Rvalue, Stmt, Terminator, Value, VarId,
};
use std::collections::HashMap;

/// Apply `f` to every operand read by `rv`.
pub fn map_rvalue_operands(rv: &mut Rvalue, f: &mut impl FnMut(&mut Operand)) {
    match rv {
        Rvalue::Use(a) | Rvalue::Unary(_, a) => f(a),
        Rvalue::Binary(_, a, b) => {
            f(a);
            f(b);
        }
        Rvalue::Load(mr) => f(&mut mr.index),
        Rvalue::AddrOf(_, i) => f(i),
        Rvalue::Select { cond, on_true, on_false } => {
            f(cond);
            f(on_true);
            f(on_false);
        }
        Rvalue::Call { args, .. } => {
            for a in args {
                f(a);
            }
        }
    }
}

/// Apply `f` to every operand read by `s` (not the defined variable).
pub fn map_stmt_operands(s: &mut Stmt, f: &mut impl FnMut(&mut Operand)) {
    match s {
        Stmt::Assign { rv, .. } => map_rvalue_operands(rv, f),
        Stmt::Store { dst, src } => {
            f(&mut dst.index);
            f(src);
        }
        Stmt::CallVoid { args, .. } => {
            for a in args {
                f(a);
            }
        }
        Stmt::Prefetch { addr } => f(&mut addr.index),
        Stmt::CounterInc { .. } => {}
    }
}

/// Apply `f` to the operand of a terminator, if any.
pub fn map_term_operands(t: &mut Terminator, f: &mut impl FnMut(&mut Operand)) {
    match t {
        Terminator::Branch { cond, .. } => f(cond),
        Terminator::Return(Some(v)) => f(v),
        _ => {}
    }
}

/// Number of defining assignments of each variable (params excluded; a
/// parameter counts as having an implicit entry definition, recorded
/// separately by callers when it matters).
pub fn def_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.num_vars()];
    for b in f.block_ids() {
        for s in &f.block(b).stmts {
            if let Some(d) = s.def() {
                counts[d.index()] += 1;
            }
        }
    }
    counts
}

/// The unique defining site `(block, stmt)` of each single-def variable.
pub fn single_def_sites(f: &Function) -> HashMap<VarId, (BlockId, usize)> {
    let counts = def_counts(f);
    let mut sites = HashMap::new();
    for b in f.block_ids() {
        for (si, s) in f.block(b).stmts.iter().enumerate() {
            if let Some(d) = s.def() {
                if counts[d.index()] == 1 && !f.params.contains(&d) {
                    sites.insert(d, (b, si));
                }
            }
        }
    }
    sites
}

/// A hashable key identifying a value-numbered operand: constants by value
/// bits, variables by id (callers ensure single-def).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKey {
    /// Constant by type tag + bits.
    Const(u8, u64),
    /// Variable by id.
    Var(u32),
}

/// Key for an operand.
pub fn op_key(op: &Operand) -> OpKey {
    match op {
        Operand::Var(v) => OpKey::Var(v.0),
        Operand::Const(c) => {
            let (tag, bits) = match c {
                Value::I64(x) => (0u8, *x as u64),
                Value::F64(x) => (1u8, x.to_bits()),
                Value::Ptr(p) => (2u8, ((p.mem.0 as u64) << 40) ^ (p.offset as u64)),
            };
            OpKey::Const(tag, bits)
        }
    }
}

/// A hashable key for a pure rvalue, canonicalizing commutative operand
/// order. `None` for impure rvalues (loads, calls) — CSE handles those
/// separately with invalidation tracking.
pub fn pure_expr_key(rv: &Rvalue) -> Option<(u32, OpKey, OpKey, OpKey)> {
    const NONE: OpKey = OpKey::Const(255, 0);
    Some(match rv {
        Rvalue::Unary(op, a) => (0x100 + *op as u32, op_key(a), NONE, NONE),
        Rvalue::Binary(op, a, b) => {
            let (mut ka, mut kb) = (op_key(a), op_key(b));
            if op.is_commutative() && kb < ka {
                std::mem::swap(&mut ka, &mut kb);
            }
            (0x200 + *op as u32, ka, kb, NONE)
        }
        Rvalue::AddrOf(m, i) => (0x300 + m.0, op_key(i), NONE, NONE),
        Rvalue::Select { cond, on_true, on_false } => {
            (0x400, op_key(cond), op_key(on_true), op_key(on_false))
        }
        _ => return None,
    })
}

/// Whether an rvalue can be speculated (moved to where it may execute more
/// often / earlier) without changing semantics: pure and non-trapping.
pub fn is_speculatable(rv: &Rvalue) -> bool {
    match rv {
        Rvalue::Binary(BinOp::Div | BinOp::Rem, _, b) => {
            // Trapping unless the divisor is a nonzero constant.
            matches!(b, Operand::Const(Value::I64(k)) if *k != 0)
        }
        Rvalue::Use(_) | Rvalue::Unary(..) | Rvalue::Binary(..) | Rvalue::AddrOf(..)
        | Rvalue::Select { .. } => true,
        Rvalue::Load(_) | Rvalue::Call { .. } => false,
    }
}

/// Clone the blocks in `body` (a set of block ids) into fresh blocks of
/// `f`, remapping internal edges. Edges leaving `body` are redirected via
/// `exit_map` (old target → new target); unmapped external targets keep
/// their original target. Returns old→new block mapping.
pub fn clone_subgraph(
    f: &mut Function,
    body: &[BlockId],
    exit_map: &HashMap<BlockId, BlockId>,
) -> HashMap<BlockId, BlockId> {
    let mut map = HashMap::new();
    for &b in body {
        let nb = f.add_block();
        map.insert(b, nb);
    }
    for &b in body {
        let nb = map[&b];
        let mut blk = f.block(b).clone();
        let remap = |t: BlockId| -> BlockId {
            if let Some(&n) = map.get(&t) {
                n
            } else if let Some(&n) = exit_map.get(&t) {
                n
            } else {
                t
            }
        };
        match &mut blk.term {
            Terminator::Jump(t) => *t = remap(*t),
            Terminator::Branch { on_true, on_false, .. } => {
                *on_true = remap(*on_true);
                *on_false = remap(*on_false);
            }
            Terminator::Return(_) => {}
        }
        *f.block_mut(nb) = blk;
    }
    map
}

/// Whether a memory reference has a statically known address:
/// `(region, element)` for `Global(m)[const]`.
pub fn static_address(f: &Function, mr: &MemRef) -> Option<(peak_ir::MemId, i64)> {
    let _ = f;
    match (mr.base, mr.index) {
        (MemBase::Global(m), Operand::Const(Value::I64(i))) => Some((m, i)),
        _ => None,
    }
}

/// Count reachable statements (code-size proxy used by size heuristics and
/// the I-cache footprint model).
pub fn reachable_size(f: &Function) -> usize {
    let cfg = peak_ir::Cfg::build(f);
    cfg.rpo.iter().map(|&b| f.block(b).stmts.len() + 1).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_ir::{FunctionBuilder, Type};

    #[test]
    fn pure_expr_key_canonicalizes_commutative() {
        let a = Operand::Var(VarId(1));
        let b = Operand::Var(VarId(2));
        let k1 = pure_expr_key(&Rvalue::Binary(BinOp::Add, a, b));
        let k2 = pure_expr_key(&Rvalue::Binary(BinOp::Add, b, a));
        assert_eq!(k1, k2);
        let k3 = pure_expr_key(&Rvalue::Binary(BinOp::Sub, a, b));
        let k4 = pure_expr_key(&Rvalue::Binary(BinOp::Sub, b, a));
        assert_ne!(k3, k4, "sub is not commutative");
        assert_eq!(pure_expr_key(&Rvalue::Load(MemRef::global(peak_ir::MemId(0), 0i64))), None);
    }

    #[test]
    fn speculation_safety() {
        let v = Operand::Var(VarId(0));
        assert!(is_speculatable(&Rvalue::Binary(BinOp::Add, v, v)));
        assert!(!is_speculatable(&Rvalue::Binary(BinOp::Div, v, v)));
        assert!(is_speculatable(&Rvalue::Binary(BinOp::Div, v, Operand::const_i64(4))));
        assert!(!is_speculatable(&Rvalue::Binary(BinOp::Div, v, Operand::const_i64(0))));
        assert!(!is_speculatable(&Rvalue::Load(MemRef::global(peak_ir::MemId(0), 0i64))));
    }

    #[test]
    fn def_counts_and_single_sites() {
        let mut b = FunctionBuilder::new("f", None);
        let x = b.var("x", Type::I64);
        let y = b.var("y", Type::I64);
        b.copy(x, 1i64);
        b.copy(x, 2i64);
        b.copy(y, 3i64);
        b.ret(None);
        let f = b.finish();
        let counts = def_counts(&f);
        assert_eq!(counts[x.index()], 2);
        assert_eq!(counts[y.index()], 1);
        let sites = single_def_sites(&f);
        assert!(!sites.contains_key(&x));
        assert_eq!(sites[&y], (BlockId(0), 2));
    }

    #[test]
    fn clone_subgraph_remaps_edges() {
        let mut b = FunctionBuilder::new("f", None);
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        b.for_loop(i, 0i64, n, 1, |_| {});
        b.ret(None);
        let mut f = b.finish();
        // Clone header(1), body(2), latch(3); redirect exits to block 0 for
        // the test.
        let mut exit_map = HashMap::new();
        exit_map.insert(BlockId(4), BlockId(0));
        let body = [BlockId(1), BlockId(2), BlockId(3)];
        let map = clone_subgraph(&mut f, &body, &exit_map);
        let nh = map[&BlockId(1)];
        // New header branches to new body / redirected exit.
        match &f.block(nh).term {
            Terminator::Branch { on_true, on_false, .. } => {
                assert_eq!(*on_true, map[&BlockId(2)]);
                assert_eq!(*on_false, BlockId(0));
            }
            t => panic!("unexpected terminator {t:?}"),
        }
        // New latch jumps back to new header.
        assert_eq!(f.block(map[&BlockId(3)]).term, Terminator::Jump(nh));
    }
}
