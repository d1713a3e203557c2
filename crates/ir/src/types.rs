//! Core identifier and value types of the PEAK intermediate representation.
//!
//! The IR is a conventional three-address, basic-block form. Scalar values
//! live in virtual registers ([`VarId`]); aggregate data lives in named
//! memory regions ([`MemId`]) accessed through explicit `Load`/`Store`
//! statements. This split mirrors what the paper's analyses need: context
//! variables are scalars (paper §2.2), memory regions form the `Input(TS)`
//! and `Def(TS)` sets used by re-execution-based rating (paper §2.4).

use std::fmt;

/// A virtual register holding a scalar ([`Type::I64`], [`Type::F64`]) or a
/// pointer ([`Type::Ptr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A basic block within a [`crate::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A named memory region (array) declared at program scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// A function within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// An instrumentation counter inserted by [`crate::instrument`]; used by
/// model-based rating to collect per-invocation component counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterId(pub u32);

impl VarId {
    /// Index into per-function variable tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// Index into the function's block vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MemId {
    /// Index into the program's memory-region table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FuncId {
    /// Index into the program's function table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CounterId {
    /// Index into the execution engine's counter array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Scalar type of a variable or memory region element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    I64,
    /// 64-bit IEEE float.
    F64,
    /// Pointer into a memory region (region id + element offset).
    Ptr,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I64 => write!(f, "i64"),
            Type::F64 => write!(f, "f64"),
            Type::Ptr => write!(f, "ptr"),
        }
    }
}

/// A pointer value: a memory region plus an element offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PtrVal {
    /// Region the pointer points into.
    pub mem: MemId,
    /// Element offset within the region.
    pub offset: i64,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// Pointer (region, offset).
    Ptr(PtrVal),
}

impl Value {
    /// The type of this value.
    pub fn ty(&self) -> Type {
        match self {
            Value::I64(_) => Type::I64,
            Value::F64(_) => Type::F64,
            Value::Ptr(_) => Type::Ptr,
        }
    }

    /// Interpret as integer; panics on wrong type (IR is type-checked by
    /// [`crate::validate`] before execution).
    #[inline]
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            other => panic!("expected i64 value, found {other:?}"),
        }
    }

    /// Interpret as float; panics on wrong type.
    #[inline]
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            other => panic!("expected f64 value, found {other:?}"),
        }
    }

    /// Interpret as pointer; panics on wrong type.
    #[inline]
    pub fn as_ptr(&self) -> PtrVal {
        match self {
            Value::Ptr(p) => *p,
            other => panic!("expected ptr value, found {other:?}"),
        }
    }

    /// Truthiness used by `Branch` terminators: nonzero integers are true.
    #[inline]
    pub fn is_true(&self) -> bool {
        match self {
            Value::I64(v) => *v != 0,
            Value::F64(v) => *v != 0.0,
            Value::Ptr(_) => true,
        }
    }

    /// A stable bit-pattern key so values can participate in hash-based
    /// context keys (CBR groups invocations by context-variable values).
    pub fn context_key(&self) -> u64 {
        match self {
            Value::I64(v) => *v as u64,
            Value::F64(v) => v.to_bits(),
            Value::Ptr(p) => ((p.mem.0 as u64) << 48) ^ (p.offset as u64),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:?}"),
            Value::Ptr(p) => write!(f, "&m{}[{}]", p.mem.0, p.offset),
        }
    }
}

/// An operand of an instruction: a variable or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read of a virtual register.
    Var(VarId),
    /// Immediate.
    Const(Value),
}

impl Operand {
    /// The variable read by this operand, if any.
    #[inline]
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }

    /// The constant carried by this operand, if any.
    #[inline]
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Operand::Var(_) => None,
            Operand::Const(c) => Some(*c),
        }
    }

    /// Integer-constant shortcut.
    pub fn const_i64(v: i64) -> Operand {
        Operand::Const(Value::I64(v))
    }

    /// Float-constant shortcut.
    pub fn const_f64(v: f64) -> Operand {
        Operand::Const(Value::F64(v))
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Const(Value::I64(v))
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::Const(Value::F64(v))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "v{}", v.0),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Bitwise/logical not (integer).
    Not,
    /// Float negation.
    FNeg,
    /// i64 → f64 conversion.
    IntToF,
    /// f64 → i64 conversion (truncating).
    FToInt,
    /// Float absolute value.
    FAbs,
    /// Float square root (a real machine instruction on both target models).
    FSqrt,
}

/// Binary operators. Comparison operators produce `I64` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (traps on zero in interp; simulator saturates).
    Div,
    /// Integer remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Integer minimum (select-friendly; used by if-conversion).
    Min,
    /// Integer maximum.
    Max,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
    /// Integer equality.
    Eq,
    /// Integer inequality.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,
    /// Float equality.
    FEq,
    /// Float inequality.
    FNe,
    /// Float less-than.
    FLt,
    /// Float less-or-equal.
    FLe,
    /// Float greater-than.
    FGt,
    /// Float greater-or-equal.
    FGe,
    /// Pointer add: `ptr + i64` yields a pointer with bumped offset.
    PtrAdd,
    /// Pointer equality.
    PtrEq,
    /// Pointer difference (same region): yields i64 element distance.
    PtrDiff,
}

impl BinOp {
    /// True for comparison operators (result is a 0/1 integer).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::FEq
                | BinOp::FNe
                | BinOp::FLt
                | BinOp::FLe
                | BinOp::FGt
                | BinOp::FGe
                | BinOp::PtrEq
        )
    }

    /// True for float-typed arithmetic.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd
                | BinOp::FSub
                | BinOp::FMul
                | BinOp::FDiv
                | BinOp::FEq
                | BinOp::FNe
                | BinOp::FLt
                | BinOp::FLe
                | BinOp::FGt
                | BinOp::FGe
        )
    }

    /// Commutative operators (used by reassociation and CSE canonicalization).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Min
                | BinOp::Max
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::FEq
                | BinOp::FNe
                | BinOp::PtrEq
        )
    }

    /// Associative operators over which reassociation may rebalance.
    /// Float ops are only associative under the `reassociation` flag's
    /// fast-math license, so they are excluded here.
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Min | BinOp::Max
        )
    }

    /// The comparison with swapped operand order (`a < b` ⇒ `b > a`).
    pub fn swapped(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            BinOp::FLt => BinOp::FGt,
            BinOp::FLe => BinOp::FGe,
            BinOp::FGt => BinOp::FLt,
            BinOp::FGe => BinOp::FLe,
            _ => return None,
        })
    }

    /// The logically negated comparison (`a < b` ⇒ `a >= b`), used by
    /// branch-reordering and jump-threading.
    pub fn negated(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            BinOp::FEq => BinOp::FNe,
            BinOp::FNe => BinOp::FEq,
            // Negating ordered float comparisons is not NaN-safe; the
            // optimizer only negates integer comparisons.
            _ => return None,
        })
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::FNeg => "fneg",
            UnOp::IntToF => "i2f",
            UnOp::FToInt => "f2i",
            UnOp::FAbs => "fabs",
            UnOp::FSqrt => "fsqrt",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
            BinOp::FEq => "feq",
            BinOp::FNe => "fne",
            BinOp::FLt => "flt",
            BinOp::FLe => "fle",
            BinOp::FGt => "fgt",
            BinOp::FGe => "fge",
            BinOp::PtrAdd => "padd",
            BinOp::PtrEq => "peq",
            BinOp::PtrDiff => "pdiff",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_type_tags() {
        assert_eq!(Value::I64(3).ty(), Type::I64);
        assert_eq!(Value::F64(3.0).ty(), Type::F64);
        let p = Value::Ptr(PtrVal { mem: MemId(1), offset: 4 });
        assert_eq!(p.ty(), Type::Ptr);
    }

    #[test]
    fn value_truthiness() {
        assert!(Value::I64(1).is_true());
        assert!(!Value::I64(0).is_true());
        assert!(!Value::F64(0.0).is_true());
        assert!(Value::F64(-2.5).is_true());
    }

    #[test]
    fn context_key_distinguishes_values() {
        assert_ne!(Value::I64(1).context_key(), Value::I64(2).context_key());
        assert_ne!(Value::F64(1.0).context_key(), Value::F64(1.5).context_key());
        // Same numeric value, different type, may collide or not; only
        // same-variable comparisons occur in practice, so this is fine.
    }

    #[test]
    fn operand_conversions() {
        let v = VarId(7);
        assert_eq!(Operand::from(v).as_var(), Some(v));
        assert_eq!(Operand::from(42i64).as_const(), Some(Value::I64(42)));
        assert_eq!(Operand::from(1.5f64).as_const(), Some(Value::F64(1.5)));
        assert_eq!(Operand::Var(v).as_const(), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::FMul.is_float());
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(BinOp::Add.is_associative());
        assert!(!BinOp::FAdd.is_associative());
    }

    #[test]
    fn comparison_swapping_and_negation() {
        assert_eq!(BinOp::Lt.swapped(), Some(BinOp::Gt));
        assert_eq!(BinOp::Lt.negated(), Some(BinOp::Ge));
        assert_eq!(BinOp::FLt.negated(), None, "float negation is not NaN-safe");
        assert_eq!(BinOp::Add.swapped(), None);
    }
}
