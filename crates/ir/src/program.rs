//! Programs, memory-region declarations, and runtime memory buffers.

use crate::func::Function;
use crate::types::{FuncId, MemId, PtrVal, Type, Value};

/// Declaration of a memory region (a one-dimensional array of one element
/// type). Multi-dimensional workload arrays are linearized by the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemDecl {
    /// Region name.
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Element count.
    pub len: usize,
}

/// A whole program: functions plus region declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Function table; `FuncId(i)` indexes entry `i`.
    pub funcs: Vec<Function>,
    /// Region table; `MemId(i)` indexes entry `i`.
    pub mems: Vec<MemDecl>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Declare a memory region, returning its id.
    pub fn add_mem(&mut self, name: impl Into<String>, elem: Type, len: usize) -> MemId {
        let id = MemId(self.mems.len() as u32);
        self.mems.push(MemDecl { name: name.into(), elem, len });
        id
    }

    /// Access a function.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to a function.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Look up a region by name.
    pub fn mem_by_name(&self, name: &str) -> Option<MemId> {
        self.mems
            .iter()
            .position(|m| m.name == name)
            .map(|i| MemId(i as u32))
    }
}

/// Runtime storage for one memory region. Typed vectors keep the hot
/// interpreter/simulator loops monomorphic and cache-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// Integer array.
    I64(Vec<i64>),
    /// Float array.
    F64(Vec<f64>),
    /// Pointer array (used by the indirection-heavy integer workloads).
    Ptr(Vec<PtrVal>),
}

impl Buffer {
    /// Zero-initialized buffer of the declared type and length.
    pub fn zeroed(decl: &MemDecl) -> Self {
        match decl.elem {
            Type::I64 => Buffer::I64(vec![0; decl.len]),
            Type::F64 => Buffer::F64(vec![0.0; decl.len]),
            Type::Ptr => Buffer::Ptr(vec![PtrVal { mem: MemId(0), offset: 0 }; decl.len]),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Buffer::I64(v) => v.len(),
            Buffer::F64(v) => v.len(),
            Buffer::Ptr(v) => v.len(),
        }
    }

    /// Whether the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read element `i` as a [`Value`]. Panics on out-of-bounds, which the
    /// validator and interpreter surface as workload bugs.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Buffer::I64(v) => Value::I64(v[i]),
            Buffer::F64(v) => Value::F64(v[i]),
            Buffer::Ptr(v) => Value::Ptr(v[i]),
        }
    }

    /// Write element `i`.
    #[inline]
    pub fn set(&mut self, i: usize, val: Value) {
        match (self, val) {
            (Buffer::I64(v), Value::I64(x)) => v[i] = x,
            (Buffer::F64(v), Value::F64(x)) => v[i] = x,
            (Buffer::Ptr(v), Value::Ptr(x)) => v[i] = x,
            (buf, val) => panic!("type mismatch storing {val:?} into {:?} buffer", buf.tag()),
        }
    }

    fn tag(&self) -> Type {
        match self {
            Buffer::I64(_) => Type::I64,
            Buffer::F64(_) => Type::F64,
            Buffer::Ptr(_) => Type::Ptr,
        }
    }
}

/// The runtime memory image of a program: one buffer per region.
///
/// Both the reference interpreter and the machine simulator execute against
/// a `MemoryImage`; re-execution-based rating snapshots and restores parts
/// of it (the `Modified_Input(TS)` set, paper §2.4.2).
#[derive(Debug, Clone)]
pub struct MemoryImage {
    /// One buffer per declared region.
    pub bufs: Vec<Buffer>,
    /// When armed ([`MemoryImage::begin_journal`]), every [`store`]
    /// is also appended here in order. Used to *record* deterministic
    /// write streams (workload argument generation) once so they can be
    /// replayed verbatim later without re-running the generator. `None`
    /// (the default, and the state after [`end_journal`]) costs the hot
    /// store path one predictable branch.
    ///
    /// [`store`]: MemoryImage::store
    /// [`end_journal`]: MemoryImage::end_journal
    journal: Option<Vec<(MemId, i64, Value)>>,
}

/// Journals are recording plumbing, not memory content: two images are
/// equal iff their buffers are.
impl PartialEq for MemoryImage {
    fn eq(&self, other: &Self) -> bool {
        self.bufs == other.bufs
    }
}

impl MemoryImage {
    /// Zero-initialized image matching the program's declarations.
    pub fn new(prog: &Program) -> Self {
        MemoryImage {
            bufs: prog.mems.iter().map(Buffer::zeroed).collect(),
            journal: None,
        }
    }

    /// Image with no regions at all (placeholder uses).
    pub fn empty() -> Self {
        MemoryImage { bufs: Vec::new(), journal: None }
    }

    /// Read `mem[idx]`.
    #[inline]
    pub fn load(&self, mem: MemId, idx: i64) -> Value {
        self.bufs[mem.index()].get(idx as usize)
    }

    /// Write `mem[idx]`. `inline(always)` with the journal append kept
    /// out-of-line: simulated stores run this once per executed store
    /// op, and journalling is only ever armed during argument-stream
    /// recording — the hot path must stay one predictable branch.
    #[inline(always)]
    pub fn store(&mut self, mem: MemId, idx: i64, val: Value) {
        if self.journal.is_some() {
            self.journal_push(mem, idx, val);
        }
        self.bufs[mem.index()].set(idx as usize, val);
    }

    #[cold]
    fn journal_push(&mut self, mem: MemId, idx: i64, val: Value) {
        self.journal
            .as_mut()
            .expect("journal armed")
            .push((mem, idx, val));
    }

    /// Start journalling: subsequent [`MemoryImage::store`] calls are
    /// recorded in order until [`MemoryImage::end_journal`].
    pub fn begin_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Stop journalling and take the recorded write stream (empty if
    /// journalling was never started).
    pub fn end_journal(&mut self) -> Vec<(MemId, i64, Value)> {
        self.journal.take().unwrap_or_default()
    }

    /// Replay a write stream recorded via the journal.
    pub fn replay(&mut self, writes: &[(MemId, i64, Value)]) {
        for &(m, idx, v) in writes {
            self.bufs[m.index()].set(idx as usize, v);
        }
    }

    /// Buffer for a region.
    #[inline]
    pub fn buf(&self, mem: MemId) -> &Buffer {
        &self.bufs[mem.index()]
    }

    /// Snapshot selected regions (the save step of RBR).
    pub fn snapshot(&self, regions: &[MemId]) -> Vec<(MemId, Buffer)> {
        regions.iter().map(|&m| (m, self.bufs[m.index()].clone())).collect()
    }

    /// Restore a snapshot taken with [`MemoryImage::snapshot`].
    pub fn restore(&mut self, snap: &[(MemId, Buffer)]) {
        for (m, buf) in snap {
            self.bufs[m.index()] = buf.clone();
        }
    }

    /// Total element count across selected regions (cost model for RBR's
    /// save/restore overhead).
    pub fn region_elems(&self, regions: &[MemId]) -> usize {
        regions.iter().map(|&m| self.bufs[m.index()].len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_tables() {
        let mut p = Program::new();
        let m = p.add_mem("a", Type::F64, 8);
        let f = p.add_func(Function::new("main", None));
        assert_eq!(p.mem_by_name("a"), Some(m));
        assert_eq!(p.func_by_name("main"), Some(f));
        assert_eq!(p.func_by_name("nope"), None);
    }

    #[test]
    fn buffer_roundtrip() {
        let decl = MemDecl { name: "x".into(), elem: Type::I64, len: 4 };
        let mut b = Buffer::zeroed(&decl);
        assert_eq!(b.len(), 4);
        b.set(2, Value::I64(7));
        assert_eq!(b.get(2), Value::I64(7));
        assert_eq!(b.get(0), Value::I64(0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn buffer_type_mismatch_panics() {
        let decl = MemDecl { name: "x".into(), elem: Type::I64, len: 1 };
        let mut b = Buffer::zeroed(&decl);
        b.set(0, Value::F64(1.0));
    }

    #[test]
    fn image_snapshot_restore() {
        let mut p = Program::new();
        let a = p.add_mem("a", Type::I64, 4);
        let b = p.add_mem("b", Type::I64, 4);
        let mut img = MemoryImage::new(&p);
        img.store(a, 0, Value::I64(1));
        img.store(b, 0, Value::I64(2));
        let snap = img.snapshot(&[a]);
        img.store(a, 0, Value::I64(99));
        img.store(b, 0, Value::I64(99));
        img.restore(&snap);
        assert_eq!(img.load(a, 0), Value::I64(1), "saved region restored");
        assert_eq!(img.load(b, 0), Value::I64(99), "unsaved region untouched");
        assert_eq!(img.region_elems(&[a, b]), 8);
    }
}
