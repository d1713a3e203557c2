//! Basic-block counter instrumentation for model-based rating.
//!
//! MBR needs per-invocation entry counts for selected basic blocks (paper
//! §2.3). For regular blocks the counts come from [`crate::trip_count`]
//! expressions; the rest get a [`crate::stmt::Stmt::CounterInc`] prepended.
//! The counters "do not add control dependences or data dependences to the
//! original codes" — `CounterInc` reads and writes no IR variable — but the
//! simulator charges them cycles, modelling the paper's counter side
//! effect.

use crate::cfg::{Cfg, Dominators};
use crate::func::Function;
use crate::loops::LoopForest;
use crate::stmt::Stmt;
use crate::trip_count::{block_count_expr, recognize_all, CountExpr};
use crate::types::{BlockId, CounterId};

/// How the per-invocation entry count of one block is obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum CountSource {
    /// Computed from TS-entry values — no instrumentation needed.
    Expr(CountExpr),
    /// Read from a runtime counter.
    Counter(CounterId),
}

/// Instrumentation plan for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterPlan {
    /// Per requested block: how its count is obtained.
    pub sources: Vec<(BlockId, CountSource)>,
    /// Number of counters inserted.
    pub num_counters: usize,
}

/// Instrument `f` so each block in `blocks` has an obtainable entry count.
/// Regular blocks get symbolic expressions; irregular blocks get counters
/// inserted at the top of the block. Returns the plan.
pub fn instrument_block_counts(f: &mut Function, blocks: &[BlockId]) -> CounterPlan {
    let cfg = Cfg::build(f);
    let dom = Dominators::build(f, &cfg);
    let forest = LoopForest::build(f, &cfg, &dom);
    let counted = recognize_all(f, &cfg, &forest);
    let mut sources = Vec::with_capacity(blocks.len());
    let mut next = 0u32;
    for &b in blocks {
        match block_count_expr(f, &dom, &forest, &counted, b) {
            Some(expr) => sources.push((b, CountSource::Expr(expr))),
            None => {
                let c = CounterId(next);
                next += 1;
                f.block_mut(b)
                    .stmts
                    .insert(0, Stmt::CounterInc { counter: c });
                sources.push((b, CountSource::Counter(c)));
            }
        }
    }
    CounterPlan { sources, num_counters: next as usize }
}

/// Remove every `CounterInc` from `f` (the paper removes "unnecessary
/// instrumentation code for the merged blocks" after the profile run; the
/// tuned production version carries none at all).
pub fn strip_counters(f: &mut Function) {
    for b in f.block_ids().collect::<Vec<_>>() {
        f.block_mut(b)
            .stmts
            .retain(|s| !matches!(s, Stmt::CounterInc { .. }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::Interp;
    use crate::program::{MemoryImage, Program};
    use crate::stmt::MemRef;
    use crate::types::{Type, Value};

    /// A function with one counted loop and one data-dependent branch
    /// inside it.
    fn mixed_function(prog: &mut Program) -> crate::types::FuncId {
        let a = prog.add_mem("a", Type::I64, 64);
        let mut b = FunctionBuilder::new("mixed", None);
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::I64, MemRef::global(a, i));
            b.if_then(x, |b| {
                b.store(MemRef::global(a, i), 0i64);
            });
        });
        b.ret(None);
        prog.add_func(b.finish())
    }

    #[test]
    fn regular_block_gets_expression_irregular_gets_counter() {
        let mut prog = Program::new();
        let fid = mixed_function(&mut prog);
        let f = prog.func_mut(fid);
        // Body block of the for loop is b2; the guarded then-block is b5.
        let body = BlockId(2);
        let guarded = BlockId(5);
        let plan = instrument_block_counts(f, &[body, guarded]);
        assert!(matches!(plan.sources[0], (b, CountSource::Expr(_)) if b == body));
        assert!(matches!(plan.sources[1], (b, CountSource::Counter(_)) if b == guarded));
        assert_eq!(plan.num_counters, 1);
    }

    #[test]
    fn counter_matches_actual_entries() {
        let mut prog = Program::new();
        let fid = mixed_function(&mut prog);
        let guarded = BlockId(5);
        let plan = instrument_block_counts(prog.func_mut(fid), &[guarded]);
        let CountSource::Counter(c) = plan.sources[0].1.clone() else {
            panic!("expected counter")
        };
        let mut mem = MemoryImage::new(&prog);
        let am = prog.mem_by_name("a").unwrap();
        // Make elements 0,2,4 nonzero → 3 guarded entries for n=6.
        for i in [0, 2, 4] {
            mem.store(am, i, Value::I64(1));
        }
        let interp = Interp { num_counters: plan.num_counters, ..Default::default() };
        let out = interp.run(&prog, fid, &[Value::I64(6)], &mut mem).unwrap();
        assert_eq!(out.counters[c.index()], 3);
        assert_eq!(out.block_entries[guarded.index()], 3, "sanity: matches block entries");
    }

    #[test]
    fn strip_counters_removes_all() {
        let mut prog = Program::new();
        let fid = mixed_function(&mut prog);
        let plan = instrument_block_counts(prog.func_mut(fid), &[BlockId(5)]);
        assert_eq!(plan.num_counters, 1);
        strip_counters(prog.func_mut(fid));
        let f = prog.func(fid);
        for b in f.block_ids() {
            assert!(f
                .block(b)
                .stmts
                .iter()
                .all(|s| !matches!(s, Stmt::CounterInc { .. })));
        }
    }

    #[test]
    fn expression_source_needs_no_instrumentation() {
        let mut prog = Program::new();
        let fid = mixed_function(&mut prog);
        let before = prog.func(fid).num_stmts();
        let plan = instrument_block_counts(prog.func_mut(fid), &[BlockId(2)]);
        assert_eq!(plan.num_counters, 0);
        assert_eq!(prog.func(fid).num_stmts(), before, "no statements added");
        // And the expression evaluates to n.
        let CountSource::Expr(e) = &plan.sources[0].1 else { panic!() };
        assert_eq!(e.eval(&|_| Some(Value::I64(9))), Some(9));
    }
}
