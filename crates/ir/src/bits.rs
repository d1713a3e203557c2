//! Bit-exact program images.
//!
//! The derived `==` on the IR compares f64 constants by value: `0.0 ==
//! -0.0`, and a NaN constant makes a program unequal to itself. Rating
//! needs the stricter notion — two compiles are interchangeable only
//! when they are the same bits — so [`Program::bit_image`] writes a
//! program as a word sequence in which every field appears and every
//! f64 constant enters by its bit pattern. Two programs are bit-identical
//! exactly when their images are equal.

use crate::func::Function;
use crate::program::Program;
use crate::stmt::{MemBase, MemRef, Rvalue, Stmt, Terminator};
use crate::types::{Operand, Value};

impl Program {
    /// The program as words: equal for two programs exactly when they are
    /// bit-identical (names, variable tables, blocks, statements,
    /// alignment marks and region declarations; f64 constants by bit
    /// pattern).
    pub fn bit_image(&self) -> Vec<u64> {
        let mut img = Image(Vec::new());
        img.len(self.funcs.len());
        for f in &self.funcs {
            img.func(f);
        }
        img.len(self.mems.len());
        for m in &self.mems {
            img.str(&m.name);
            img.word(m.elem as u64);
            img.len(m.len);
        }
        img.0
    }
}

struct Image(Vec<u64>);

impl Image {
    fn word(&mut self, w: u64) {
        self.0.push(w);
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        for chunk in s.as_bytes().chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(bytes));
        }
    }

    fn func(&mut self, f: &Function) {
        self.str(&f.name);
        self.len(f.params.len());
        for p in &f.params {
            self.word(p.0 as u64);
        }
        self.word(f.ret.map_or(u64::MAX, |t| t as u64));
        self.len(f.vars.len());
        for v in &f.vars {
            self.str(&v.name);
            self.word(v.ty as u64);
        }
        self.word(f.entry.0 as u64);
        self.len(f.blocks.len());
        for b in &f.blocks {
            self.word(b.aligned as u64);
            self.len(b.stmts.len());
            for s in &b.stmts {
                self.stmt(s);
            }
            self.term(&b.term);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::I64(x) => {
                self.word(0);
                self.word(*x as u64);
            }
            Value::F64(x) => {
                self.word(1);
                self.word(x.to_bits());
            }
            Value::Ptr(p) => {
                self.word(2);
                self.word(p.mem.0 as u64);
                self.word(p.offset as u64);
            }
        }
    }

    fn operand(&mut self, op: &Operand) {
        match op {
            Operand::Var(v) => {
                self.word(0);
                self.word(v.0 as u64);
            }
            Operand::Const(c) => {
                self.word(1);
                self.value(c);
            }
        }
    }

    fn operands(&mut self, ops: &[Operand]) {
        self.len(ops.len());
        for op in ops {
            self.operand(op);
        }
    }

    fn mem_ref(&mut self, m: &MemRef) {
        match m.base {
            MemBase::Global(mem) => {
                self.word(0);
                self.word(mem.0 as u64);
            }
            MemBase::Ptr(v) => {
                self.word(1);
                self.word(v.0 as u64);
            }
        }
        self.operand(&m.index);
    }

    fn rvalue(&mut self, rv: &Rvalue) {
        match rv {
            Rvalue::Use(a) => {
                self.word(0);
                self.operand(a);
            }
            Rvalue::Unary(op, a) => {
                self.word(1);
                self.word(*op as u64);
                self.operand(a);
            }
            Rvalue::Binary(op, a, b) => {
                self.word(2);
                self.word(*op as u64);
                self.operand(a);
                self.operand(b);
            }
            Rvalue::Load(m) => {
                self.word(3);
                self.mem_ref(m);
            }
            Rvalue::AddrOf(mem, idx) => {
                self.word(4);
                self.word(mem.0 as u64);
                self.operand(idx);
            }
            Rvalue::Select { cond, on_true, on_false } => {
                self.word(5);
                self.operand(cond);
                self.operand(on_true);
                self.operand(on_false);
            }
            Rvalue::Call { func, args } => {
                self.word(6);
                self.word(func.0 as u64);
                self.operands(args);
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { dst, rv } => {
                self.word(0);
                self.word(dst.0 as u64);
                self.rvalue(rv);
            }
            Stmt::Store { dst, src } => {
                self.word(1);
                self.mem_ref(dst);
                self.operand(src);
            }
            Stmt::CallVoid { func, args } => {
                self.word(2);
                self.word(func.0 as u64);
                self.operands(args);
            }
            Stmt::Prefetch { addr } => {
                self.word(3);
                self.mem_ref(addr);
            }
            Stmt::CounterInc { counter } => {
                self.word(4);
                self.word(counter.0 as u64);
            }
        }
    }

    fn term(&mut self, t: &Terminator) {
        match t {
            Terminator::Jump(b) => {
                self.word(0);
                self.word(b.0 as u64);
            }
            Terminator::Branch { cond, on_true, on_false } => {
                self.word(1);
                self.operand(cond);
                self.word(on_true.0 as u64);
                self.word(on_false.0 as u64);
            }
            Terminator::Return(v) => {
                self.word(2);
                match v {
                    Some(op) => self.operand(op),
                    None => self.word(u64::MAX),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FunctionBuilder, Program, Type};

    fn returning(c: f64) -> Program {
        let mut prog = Program::new();
        prog.add_mem("a", Type::F64, 4);
        let mut b = FunctionBuilder::new("f", Some(Type::F64));
        let x = b.param("x", Type::F64);
        let y = b.binary(crate::BinOp::FAdd, x, c);
        b.ret(Some(y.into()));
        prog.add_func(b.finish());
        prog
    }

    #[test]
    fn images_compare_constants_by_bit_pattern() {
        let (pos, neg) = (returning(0.0), returning(-0.0));
        assert_eq!(pos, neg, "the derived == identifies 0.0 and -0.0");
        assert_ne!(pos.bit_image(), neg.bit_image());
        let nan = returning(f64::NAN);
        assert_ne!(nan, nan.clone(), "the derived == never equates NaN");
        assert_eq!(nan.bit_image(), nan.clone().bit_image());
        assert_eq!(pos.bit_image(), returning(0.0).bit_image());
    }

    #[test]
    fn images_see_names_and_alignment() {
        let base = returning(1.0);
        let mut renamed = base.clone();
        renamed.funcs[0].vars[0].name.push('_');
        assert_ne!(base.bit_image(), renamed.bit_image());
        let mut aligned = base.clone();
        aligned.funcs[0].blocks[0].aligned = true;
        assert_ne!(base.bit_image(), aligned.bit_image());
        let mut resized = base.clone();
        resized.mems[0].len += 1;
        assert_ne!(base.bit_image(), resized.bit_image());
    }
}
