//! Tune a user-defined kernel: shows how to write your own tuning section
//! in the PEAK IR, wrap it as a [`Workload`], and run the full pipeline.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```
//!
//! The kernel is a dot product with a data-dependent clamp — regular
//! enough for CBR to apply, and with a strided load the prefetch and
//! unroll flags genuinely affect.

use peak_ir::{BinOp, FuncId, FunctionBuilder, MemRef, MemoryImage, Program, Type, Value};
use peak_sim::MachineSpec;
use peak_workloads::{Dataset, PaperRow, Workload};
use rand::rngs::StdRng;
use rand::Rng;

const LEN: usize = 4096;

/// A user-defined workload: `clamped_dot(n, lo)`.
struct ClampedDot {
    program: Program,
    ts: FuncId,
}

impl ClampedDot {
    fn new() -> Self {
        let mut program = Program::new();
        let xs = program.add_mem("xs", Type::F64, LEN);
        let ys = program.add_mem("ys", Type::F64, LEN);
        let out = program.add_mem("out", Type::F64, 1);
        let mut b = FunctionBuilder::new("clamped_dot", None);
        let n = b.param("n", Type::I64);
        let lo = b.param("lo", Type::F64);
        let i = b.var("i", Type::I64);
        let acc = b.var("acc", Type::F64);
        b.copy(acc, 0.0f64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::F64, MemRef::global(xs, i));
            let y = b.load(Type::F64, MemRef::global(ys, i));
            let p = b.binary(BinOp::FMul, x, y);
            // Clamp negative contributions to `lo` — a branch the
            // if-conversion flag will happily turn into a select.
            let neg = b.binary(BinOp::FLt, p, 0.0f64);
            let clamped = b.var("clamped", Type::F64);
            b.copy(clamped, p);
            b.if_then(neg, |b| b.copy(clamped, lo));
            b.binary_into(acc, BinOp::FAdd, acc, clamped);
        });
        b.store(MemRef::global(out, 0i64), peak_ir::Operand::Var(acc));
        b.ret(None);
        let ts = program.add_func(b.finish());
        ClampedDot { program, ts }
    }
}

impl Workload for ClampedDot {
    fn name(&self) -> &'static str {
        "CUSTOM"
    }
    fn ts_name(&self) -> &'static str {
        "clamped_dot"
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn ts(&self) -> FuncId {
        self.ts
    }
    fn invocations(&self, ds: Dataset) -> usize {
        match ds {
            Dataset::Train => 600,
            Dataset::Ref => 1800,
        }
    }
    fn setup(&self, _ds: Dataset, mem: &mut MemoryImage, rng: &mut StdRng) {
        for name in ["xs", "ys"] {
            let m = self.program.mem_by_name(name).unwrap();
            for i in 0..LEN as i64 {
                mem.store(m, i, Value::F64(rng.gen_range(-1.0..1.0)));
            }
        }
    }
    fn args(
        &self,
        ds: Dataset,
        _inv: usize,
        mem: &mut MemoryImage,
        rng: &mut StdRng,
    ) -> Vec<Value> {
        // Refresh part of one vector between calls.
        let m = self.program.mem_by_name("xs").unwrap();
        for _ in 0..16 {
            let i = rng.gen_range(0..LEN as i64);
            mem.store(m, i, Value::F64(rng.gen_range(-1.0..1.0)));
        }
        let n = match ds {
            Dataset::Train => 2000,
            Dataset::Ref => 4000,
        };
        vec![Value::I64(n), Value::F64(0.0)]
    }
    fn other_cycles(&self, _ds: Dataset) -> u64 {
        8_000
    }
    fn paper_row(&self) -> PaperRow {
        PaperRow { method: "CBR", invocations_paper: 0, contexts: 1 }
    }
}

fn main() {
    let w = ClampedDot::new();
    peak_ir::validate_program(w.program()).expect("well-formed IR");
    println!("== Tuning a custom kernel: {} ==", w.ts_name());
    println!("\nIR of the tuning section:\n{}", w.program().func(w.ts()));

    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        let consultation = peak_core::consult(&w, &spec);
        let method = consultation.order[0];
        let report =
            peak_core::tune(&w, &spec, method, Dataset::Train, &peak_core::TuneOptions::default());
        println!(
            "{}: method={}, improvement {:+.2}%, flags off: {:?}",
            spec.kind.name(),
            method.name(),
            report.improvement_pct,
            report.search.disabled_flags
        );
    }
}
