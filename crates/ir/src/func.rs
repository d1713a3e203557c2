//! Functions and basic blocks.

use crate::stmt::{Stmt, Terminator};
use crate::types::{BlockId, Type, VarId};
use std::fmt;

/// Metadata for one variable of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name (workload sources name their variables).
    pub name: String,
    /// Scalar type.
    pub ty: Type,
}

/// A basic block: straight-line statements plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in execution order.
    pub stmts: Vec<Stmt>,
    /// Control transfer out of the block.
    pub term: Terminator,
    /// Codegen hint set by the `align-loops` / `align-jumps` flags; the
    /// machine simulator charges a reduced front-end penalty for entering an
    /// aligned block from a taken branch.
    pub aligned: bool,
}

/// A function: parameter list, variable table, and a CFG of basic blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within a program).
    pub name: String,
    /// Parameter variables, in call order. A prefix of the variable table.
    pub params: Vec<VarId>,
    /// Return type, `None` for void functions.
    pub ret: Option<Type>,
    /// Variable table; `VarId(i)` indexes entry `i`.
    pub vars: Vec<VarInfo>,
    /// Basic blocks; `BlockId(i)` indexes entry `i`.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
}

impl Function {
    /// Create an empty function with an entry block that returns.
    pub fn new(name: impl Into<String>, ret: Option<Type>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            ret,
            vars: Vec::new(),
            blocks: vec![Block {
                stmts: Vec::new(),
                term: Terminator::Return(None),
                aligned: false,
            }],
            entry: BlockId(0),
        }
    }

    /// Add a variable and return its id.
    pub fn add_var(&mut self, name: impl Into<String>, ty: Type) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo { name: name.into(), ty });
        id
    }

    /// Add a fresh anonymous temporary.
    pub fn add_temp(&mut self, ty: Type) -> VarId {
        let n = self.vars.len();
        self.add_var(format!("t{n}"), ty)
    }

    /// Add a new empty block (terminated by `ret` until sealed).
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { stmts: Vec::new(), term: Terminator::Return(None), aligned: false });
        id
    }

    /// Access a block.
    #[inline]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to a block.
    #[inline]
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Type of a variable.
    #[inline]
    pub fn var_ty(&self, v: VarId) -> Type {
        self.vars[v.index()].ty
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total statement count (a cheap code-size proxy used by inlining and
    /// unrolling heuristics, and by the I-cache footprint model).
    pub fn num_stmts(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).sum()
    }

    /// Iterate over block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Find a variable by name (builder/test convenience).
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "v{}: {}", p.0, self.var_ty(*p))?;
        }
        write!(f, ")")?;
        if let Some(t) = self.ret {
            write!(f, " -> {t}")?;
        }
        writeln!(f, " {{")?;
        // Local declarations (needed by the textual parser for types).
        let locals: Vec<String> = self
            .vars
            .iter()
            .enumerate()
            .skip(self.params.len())
            .map(|(i, v)| format!("v{i}: {}", v.ty))
            .collect();
        if !locals.is_empty() {
            writeln!(f, "  locals {}", locals.join(", "))?;
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let mut marks = Vec::new();
            if BlockId(i as u32) == self.entry {
                marks.push("entry");
            }
            if b.aligned {
                marks.push("aligned");
            }
            let marker = if marks.is_empty() {
                String::new()
            } else {
                format!(" ({})", marks.join(", "))
            };
            writeln!(f, "b{i}:{marker}")?;
            for s in &b.stmts {
                writeln!(f, "  {s}")?;
            }
            writeln!(f, "  {}", b.term)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Rvalue;
    use crate::types::Operand;

    #[test]
    fn build_function_skeleton() {
        let mut f = Function::new("f", Some(Type::I64));
        let x = f.add_var("x", Type::I64);
        f.params.push(x);
        let b = f.add_block();
        assert_eq!(b, BlockId(1));
        f.block_mut(f.entry).term = Terminator::Jump(b);
        f.block_mut(b).stmts.push(Stmt::Assign {
            dst: x,
            rv: Rvalue::Use(Operand::const_i64(1)),
        });
        f.block_mut(b).term = Terminator::Return(Some(Operand::Var(x)));
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.num_stmts(), 1);
        assert_eq!(f.var_by_name("x"), Some(x));
        assert_eq!(f.var_ty(x), Type::I64);
    }

    #[test]
    fn display_smoke() {
        let mut f = Function::new("g", None);
        let v = f.add_temp(Type::F64);
        f.block_mut(f.entry).stmts.push(Stmt::Assign {
            dst: v,
            rv: Rvalue::Use(Operand::const_f64(2.5)),
        });
        let s = format!("{f}");
        assert!(s.contains("fn g("));
        assert!(s.contains("2.5"));
    }
}
