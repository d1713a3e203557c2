//! Write a kernel as *text*, parse it, and run the PEAK pipeline on it —
//! the quickest route from "I have a loop" to "which -O3 flags hurt it".
//!
//! ```text
//! cargo run --release --example parse_and_tune
//! ```

use peak_ir::{parse_program, FuncId, MemoryImage, Program, Value};
use peak_sim::MachineSpec;
use peak_workloads::{Dataset, PaperRow, Workload};
use rand::rngs::StdRng;
use rand::Rng;

/// A blocked moving-average kernel, in textual IR.
const KERNEL: &str = r#"
mem signal: f64[4096]
mem smooth: f64[4096]

fn moving_avg(v0: i64) -> f64 {
  locals v1: i64, v2: f64, v3: i64, v4: f64, v5: f64, v6: f64, v7: f64, v8: i64, v9: i64
b0: (entry)
  v2 = 0.0
  v1 = 1
  jump b1
b1:
  v3 = lt v1, v0
  br v3 ? b2 : b3
b2:
  v8 = sub v1, 1
  v9 = add v1, 1
  v4 = load signal[v8]
  v5 = load signal[v1]
  v6 = load signal[v9]
  v7 = fadd v4, v5
  v7 = fadd v7, v6
  v7 = fdiv v7, 4.0
  store smooth[v1] = v7
  v2 = fadd v2, v7
  v1 = add v1, 1
  jump b1
b3:
  ret v2
}
"#;

struct ParsedWorkload {
    program: Program,
    ts: FuncId,
}

impl Workload for ParsedWorkload {
    fn name(&self) -> &'static str {
        "PARSED"
    }
    fn ts_name(&self) -> &'static str {
        "moving_avg"
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn ts(&self) -> FuncId {
        self.ts
    }
    fn invocations(&self, ds: Dataset) -> usize {
        match ds {
            Dataset::Train => 400,
            Dataset::Ref => 1200,
        }
    }
    fn setup(&self, _ds: Dataset, mem: &mut MemoryImage, rng: &mut StdRng) {
        let signal = self.program.mem_by_name("signal").unwrap();
        for i in 0..4096 {
            mem.store(signal, i, Value::F64(rng.gen_range(-1.0..1.0)));
        }
    }
    fn args(
        &self,
        ds: Dataset,
        _inv: usize,
        mem: &mut MemoryImage,
        rng: &mut StdRng,
    ) -> Vec<Value> {
        let signal = self.program.mem_by_name("signal").unwrap();
        for _ in 0..32 {
            let i = rng.gen_range(0..4096i64);
            mem.store(signal, i, Value::F64(rng.gen_range(-1.0..1.0)));
        }
        let n = match ds {
            Dataset::Train => 2000,
            Dataset::Ref => 4095,
        };
        vec![Value::I64(n)]
    }
    fn other_cycles(&self, _ds: Dataset) -> u64 {
        12_000
    }
    fn paper_row(&self) -> PaperRow {
        PaperRow { method: "CBR", invocations_paper: 0, contexts: 1 }
    }
}

fn main() {
    let program = parse_program(KERNEL).expect("kernel parses");
    peak_ir::validate_program(&program).expect("kernel validates");
    let ts = program.func_by_name("moving_avg").expect("function present");
    let w = ParsedWorkload { program, ts };
    println!("parsed kernel:\n{}", w.program.func(ts));
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
