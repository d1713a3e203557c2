//! Loop unswitching: hoist a loop-invariant branch out of the loop by
//! cloning the loop, specializing each copy to one arm of the branch.

use crate::util::clone_subgraph;
use peak_ir::{
    Cfg, Dominators, Function, LoopForest, Operand, Terminator, Type,
};
use std::collections::HashMap;

/// Maximum statements in a loop eligible for unswitching (the loop is
/// duplicated wholesale).
pub const UNSWITCH_MAX_SIZE: usize = 30;

/// Run loop unswitching (one loop per call; pipeline iterates to
/// fixpoint). Returns true if a loop was unswitched.
pub fn run(f: &mut Function) -> bool {
    let cfg = Cfg::build(f);
    let dom = Dominators::build(f, &cfg);
    let forest = LoopForest::build(f, &cfg, &dom);
    for l in &forest.loops {
        let size: usize = l.body.iter().map(|&b| f.block(b).stmts.len() + 1).sum();
        if size > UNSWITCH_MAX_SIZE {
            continue;
        }
        // Marker to avoid unswitching the same loop (or its clones) again.
        if f.vars.iter().any(|v| v.name == format!("unsw_{}", l.header.0)) {
            continue;
        }
        // Variables defined in the loop.
        let defined: Vec<peak_ir::VarId> = l
            .body
            .iter()
            .flat_map(|&b| f.block(b).stmts.iter().filter_map(|s| s.def()))
            .collect();
        // Find an invariant branch strictly inside the loop (not the
        // header: that's the loop test).
        let mut found: Option<(peak_ir::BlockId, Operand)> = None;
        for &b in &l.body {
            if b == l.header {
                continue;
            }
            if let Terminator::Branch { cond, on_true, on_false } = &f.block(b).term {
                // Both arms must stay inside the loop (not a break).
                if !l.contains(*on_true) || !l.contains(*on_false) {
                    continue;
                }
                let invariant = match cond {
                    Operand::Const(_) => true,
                    Operand::Var(v) => !defined.contains(v),
                };
                if invariant {
                    found = Some((b, *cond));
                    break;
                }
            }
        }
        let Some((branch_block, cond)) = found else { continue };
        // Preheader: it must end in a plain jump to the header, which
        // becomes the dispatch on the invariant condition. Checked before
        // anything is cloned, so a skipped loop leaves the function as it
        // was.
        let pre = cfg.preds[l.header.index()]
            .iter()
            .copied()
            .find(|p| !l.contains(*p));
        let Some(pre) = pre else { continue };
        if !matches!(f.block(pre).term, Terminator::Jump(t) if t == l.header) {
            continue;
        }
        // Clone the whole loop twice and specialize.
        let make_copy = |f: &mut Function, take_true: bool| -> peak_ir::BlockId {
            let map = clone_subgraph(f, &l.body, &HashMap::new());
            let nb = map[&branch_block];
            if let Terminator::Branch { on_true, on_false, .. } = f.block(nb).term.clone() {
                f.block_mut(nb).term =
                    Terminator::Jump(if take_true { on_true } else { on_false });
            }
            map[&l.header]
        };
        let h_true = make_copy(f, true);
        let h_false = make_copy(f, false);
        f.block_mut(pre).term = Terminator::Branch { cond, on_true: h_true, on_false: h_false };
        let _marker = f.add_var(format!("unsw_{}", l.header.0), Type::I64);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_ir::{BinOp, FunctionBuilder, Interp, MemRef, MemoryImage, Program, Type, Value};

    fn build(prog: &mut Program) -> peak_ir::FuncId {
        let a = prog.mem_by_name("a").unwrap();
        let mut b = FunctionBuilder::new("f", Some(Type::I64));
        let n = b.param("n", Type::I64);
        let mode = b.param("mode", Type::I64);
        let i = b.var("i", Type::I64);
        let acc = b.var("acc", Type::I64);
        b.copy(acc, 0i64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::I64, MemRef::global(a, i));
            // Invariant branch on `mode` inside the loop.
            b.if_then_else(
                mode,
                |b| b.binary_into(acc, BinOp::Add, acc, x),
                |b| b.binary_into(acc, BinOp::Sub, acc, x),
            );
        });
        b.ret(Some(acc.into()));
        prog.add_func(b.finish())
    }

    fn eval(prog: &Program, fid: peak_ir::FuncId, n: i64, mode: i64) -> Option<Value> {
        let mut mem = MemoryImage::new(prog);
        let a = prog.mem_by_name("a").unwrap();
        for i in 0..16 {
            mem.store(a, i, Value::I64(i + 1));
        }
        Interp::default()
            .run(prog, fid, &[Value::I64(n), Value::I64(mode)], &mut mem)
            .unwrap()
            .ret
    }

    #[test]
    fn unswitch_preserves_semantics() {
        let mut prog = Program::new();
        prog.add_mem("a", Type::I64, 16);
        let fid = build(&mut prog);
        let orig = prog.clone();
        assert!(run(prog.func_mut(fid)));
        for n in [0i64, 1, 7] {
            for mode in [0i64, 1] {
                assert_eq!(
                    eval(&orig, fid, n, mode),
                    eval(&prog, fid, n, mode),
                    "n={n} mode={mode}"
                );
            }
        }
    }

    #[test]
    fn unswitched_copies_have_no_inner_branch() {
        let mut prog = Program::new();
        prog.add_mem("a", Type::I64, 16);
        let fid = build(&mut prog);
        let before_blocks = prog.func(fid).num_blocks();
        assert!(run(prog.func_mut(fid)));
        let f = prog.func(fid);
        assert!(f.num_blocks() > before_blocks, "loop duplicated");
        assert!(!run(prog.func_mut(fid)), "marker prevents re-unswitching");
    }

    #[test]
    fn variant_branch_not_unswitched() {
        let mut prog = Program::new();
        prog.add_mem("a", Type::I64, 16);
        let a = prog.mem_by_name("a").unwrap();
        let mut b = FunctionBuilder::new("f", Some(Type::I64));
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        let acc = b.var("acc", Type::I64);
        b.copy(acc, 0i64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::I64, MemRef::global(a, i));
            b.if_then(x, |b| b.binary_into(acc, BinOp::Add, acc, 1i64)); // data-dependent
        });
        b.ret(Some(acc.into()));
        let fid = prog.add_func(b.finish());
        assert!(!run(prog.func_mut(fid)));
    }
}
