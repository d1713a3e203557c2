//! Statements, right-hand sides, memory references, and terminators.

use crate::types::{BinOp, BlockId, CounterId, FuncId, MemId, Operand, UnOp, Value, VarId};
use std::fmt;

/// Base of a memory reference: a named global region or a pointer variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemBase {
    /// Direct reference to a program-level region.
    Global(MemId),
    /// Indirect reference through a pointer-typed variable.
    Ptr(VarId),
}

/// A memory reference `base[index]` (element-granular addressing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRef {
    /// Region or pointer being indexed.
    pub base: MemBase,
    /// Element index, added to the base offset.
    pub index: Operand,
}

impl MemRef {
    /// Direct reference `mem[index]`.
    pub fn global(mem: MemId, index: impl Into<Operand>) -> Self {
        MemRef { base: MemBase::Global(mem), index: index.into() }
    }

    /// Indirect reference `ptr[index]`.
    pub fn ptr(ptr: VarId, index: impl Into<Operand>) -> Self {
        MemRef { base: MemBase::Ptr(ptr), index: index.into() }
    }

    /// Variables read when computing this reference's address.
    pub fn address_vars(&self, out: &mut Vec<VarId>) {
        if let MemBase::Ptr(p) = self.base {
            out.push(p);
        }
        if let Operand::Var(v) = self.index {
            out.push(v);
        }
    }
}

/// Right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Rvalue {
    /// Copy of an operand.
    Use(Operand),
    /// Unary operation.
    Unary(UnOp, Operand),
    /// Binary operation.
    Binary(BinOp, Operand, Operand),
    /// Load from memory.
    Load(MemRef),
    /// Address-of: `&mem[index]`, producing a pointer value.
    AddrOf(MemId, Operand),
    /// Conditional select `cond ? t : f` (no control dependence; produced by
    /// if-conversion, executable on both machine models as cmov/movr).
    Select {
        /// Condition (nonzero = true).
        cond: Operand,
        /// Value if true.
        on_true: Operand,
        /// Value if false.
        on_false: Operand,
    },
    /// Call of another function in the program. Returns the callee's return
    /// value (unit-returning callees may only appear in [`Stmt::CallVoid`]).
    Call {
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<Operand>,
    },
}

impl Rvalue {
    /// Collect all variables read by this rvalue.
    pub fn uses(&self, out: &mut Vec<VarId>) {
        let mut push = |op: &Operand| {
            if let Operand::Var(v) = op {
                out.push(*v);
            }
        };
        match self {
            Rvalue::Use(a) | Rvalue::Unary(_, a) => push(a),
            Rvalue::Binary(_, a, b) => {
                push(a);
                push(b);
            }
            Rvalue::Load(mr) => mr.address_vars(out),
            Rvalue::AddrOf(_, idx) => push(idx),
            Rvalue::Select { cond, on_true, on_false } => {
                push(cond);
                push(on_true);
                push(on_false);
            }
            Rvalue::Call { args, .. } => {
                for a in args {
                    push(a);
                }
            }
        }
    }

    /// Whether this rvalue is pure (no memory read, no call): safe to remove
    /// when dead and safe to move without memory-dependence checking.
    pub fn is_pure(&self) -> bool {
        !matches!(self, Rvalue::Load(_) | Rvalue::Call { .. })
    }
}

/// A statement inside a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = rv`.
    Assign {
        /// Destination register.
        dst: VarId,
        /// Right-hand side.
        rv: Rvalue,
    },
    /// `mem := src`.
    Store {
        /// Destination memory reference.
        dst: MemRef,
        /// Value stored.
        src: Operand,
    },
    /// Void call (callee's return value discarded or absent).
    CallVoid {
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// Software prefetch of an address; inserted by the
    /// `prefetch-loop-arrays` flag. Touches the cache without reading data.
    Prefetch {
        /// Address to warm.
        addr: MemRef,
    },
    /// Instrumentation counter increment (model-based rating, paper §2.3).
    /// Adds no control or data dependence to surrounding code but costs a
    /// couple of cycles, exactly the perturbation the paper calls
    /// "the side effect of the inserted counters".
    CounterInc {
        /// Counter bumped by one.
        counter: CounterId,
    },
}

impl Stmt {
    /// Variables read by this statement.
    pub fn uses(&self, out: &mut Vec<VarId>) {
        match self {
            Stmt::Assign { rv, .. } => rv.uses(out),
            Stmt::Store { dst, src } => {
                dst.address_vars(out);
                if let Operand::Var(v) = src {
                    out.push(*v);
                }
            }
            Stmt::CallVoid { args, .. } => {
                for a in args {
                    if let Operand::Var(v) = a {
                        out.push(*v);
                    }
                }
            }
            Stmt::Prefetch { addr } => addr.address_vars(out),
            Stmt::CounterInc { .. } => {}
        }
    }

    /// Variable written by this statement, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Stmt::Assign { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Whether this statement has side effects beyond its register def
    /// (memory write, call, instrumentation) and so must not be removed by
    /// dead-code elimination.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Stmt::Assign { rv, .. } => matches!(rv, Rvalue::Call { .. }),
            Stmt::Store { .. } | Stmt::CallVoid { .. } | Stmt::CounterInc { .. } => true,
            // Dropping a prefetch never changes semantics, but it does
            // change performance; DCE keeps them and only the prefetch flag
            // controls their existence.
            Stmt::Prefetch { .. } => true,
        }
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// Condition operand (nonzero = taken).
        cond: Operand,
        /// Successor when true.
        on_true: BlockId,
        /// Successor when false.
        on_false: BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Terminator::Jump(t) => (Some(*t), None),
            Terminator::Branch { on_true, on_false, .. } => (Some(*on_true), Some(*on_false)),
            Terminator::Return(_) => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Variables read by this terminator.
    pub fn uses(&self, out: &mut Vec<VarId>) {
        match self {
            Terminator::Branch { cond: Operand::Var(v), .. } => out.push(*v),
            Terminator::Return(Some(Operand::Var(v))) => out.push(*v),
            _ => {}
        }
    }

    /// Rewrite a successor edge (used by jump threading / block cleanup).
    pub fn replace_successor(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Jump(t) => {
                if *t == from {
                    *t = to;
                }
            }
            Terminator::Branch { on_true, on_false, .. } => {
                if *on_true == from {
                    *on_true = to;
                }
                if *on_false == from {
                    *on_false = to;
                }
            }
            Terminator::Return(_) => {}
        }
    }
}

/// A constant-condition branch can be folded to a jump.
pub fn fold_branch(cond: Value, on_true: BlockId, on_false: BlockId) -> Terminator {
    if cond.is_true() {
        Terminator::Jump(on_true)
    } else {
        Terminator::Jump(on_false)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            MemBase::Global(m) => write!(f, "m{}[{}]", m.0, self.index),
            MemBase::Ptr(p) => write!(f, "v{}[{}]", p.0, self.index),
        }
    }
}

impl fmt::Display for Rvalue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rvalue::Use(a) => write!(f, "{a}"),
            Rvalue::Unary(op, a) => write!(f, "{op} {a}"),
            Rvalue::Binary(op, a, b) => write!(f, "{op} {a}, {b}"),
            Rvalue::Load(mr) => write!(f, "load {mr}"),
            Rvalue::AddrOf(m, idx) => write!(f, "addr m{}[{}]", m.0, idx),
            Rvalue::Select { cond, on_true, on_false } => {
                write!(f, "select {cond} ? {on_true} : {on_false}")
            }
            Rvalue::Call { func, args } => {
                write!(f, "call f{}(", func.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Assign { dst, rv } => write!(f, "v{} = {rv}", dst.0),
            Stmt::Store { dst, src } => write!(f, "store {dst} = {src}"),
            Stmt::CallVoid { func, args } => {
                write!(f, "call f{}(", func.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Stmt::Prefetch { addr } => write!(f, "prefetch {addr}"),
            Stmt::CounterInc { counter } => write!(f, "ctr c{} += 1", counter.0),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(t) => write!(f, "jump b{}", t.0),
            Terminator::Branch { cond, on_true, on_false } => {
                write!(f, "br {cond} ? b{} : b{}", on_true.0, on_false.0)
            }
            Terminator::Return(None) => write!(f, "ret"),
            Terminator::Return(Some(v)) => write!(f, "ret {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_address_vars() {
        let mut vars = Vec::new();
        MemRef::global(MemId(0), VarId(3)).address_vars(&mut vars);
        assert_eq!(vars, vec![VarId(3)]);
        vars.clear();
        MemRef::ptr(VarId(1), 0i64).address_vars(&mut vars);
        assert_eq!(vars, vec![VarId(1)]);
    }

    #[test]
    fn rvalue_uses_and_purity() {
        let mut vars = Vec::new();
        let rv = Rvalue::Binary(BinOp::Add, Operand::Var(VarId(1)), Operand::Var(VarId(2)));
        rv.uses(&mut vars);
        assert_eq!(vars, vec![VarId(1), VarId(2)]);
        assert!(rv.is_pure());
        assert!(!Rvalue::Load(MemRef::global(MemId(0), 0i64)).is_pure());
    }

    #[test]
    fn stmt_side_effects() {
        let store = Stmt::Store {
            dst: MemRef::global(MemId(0), 0i64),
            src: Operand::const_i64(1),
        };
        assert!(store.has_side_effect());
        let assign = Stmt::Assign { dst: VarId(0), rv: Rvalue::Use(Operand::const_i64(1)) };
        assert!(!assign.has_side_effect());
        assert_eq!(assign.def(), Some(VarId(0)));
        assert_eq!(store.def(), None);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::const_i64(1),
            on_true: BlockId(1),
            on_false: BlockId(2),
        };
        let succ: Vec<_> = t.successors().collect();
        assert_eq!(succ, vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Return(None).successors().count(), 0);
    }

    #[test]
    fn terminator_edge_rewrite() {
        let mut t = Terminator::Jump(BlockId(5));
        t.replace_successor(BlockId(5), BlockId(9));
        assert_eq!(t, Terminator::Jump(BlockId(9)));
    }

    #[test]
    fn branch_folding() {
        assert_eq!(
            fold_branch(Value::I64(1), BlockId(1), BlockId(2)),
            Terminator::Jump(BlockId(1))
        );
        assert_eq!(
            fold_branch(Value::I64(0), BlockId(1), BlockId(2)),
            Terminator::Jump(BlockId(2))
        );
    }
}
