//! Bit-identity of the jit tier against the predecoded executor: same
//! results, same cycle counts, same persistent machine state, across
//! the real workload suite, hand-built edge-case kernels, and a
//! generated-program sweep.

use peak_ir::{BinOp, FunctionBuilder, MemRef, MemoryImage, Program, Type, Value};
use peak_jit::{lower, JitOptions};
use peak_opt::OptConfig;
use peak_sim::{
    AddressMap, ExecOptions, ExecResult, ExecScratch, MachineSpec, MachineState, PreparedVersion,
    TierBackend,
};
use peak_workloads::{fuzzgen, Dataset, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn amap_for(prog: &Program) -> AddressMap {
    AddressMap::new(&prog.mems.iter().map(|m| m.len).collect::<Vec<_>>())
}

fn assert_same(p: &ExecResult, j: &ExecResult, what: &str) {
    assert_eq!(p.ret, j.ret, "{what}: return value");
    assert_eq!(p.true_cycles, j.true_cycles, "{what}: true cycles");
    assert_eq!(p.counters, j.counters, "{what}: counters");
    assert_eq!(p.writes, j.writes, "{what}: write log");
}

/// Drive one workload for a few invocations under both tiers with
/// identically-seeded state streams and compare everything bitwise.
fn workload_parity(w: &dyn Workload, config: OptConfig, spec: MachineSpec, invocations: usize) {
    let cv = peak_opt::optimize(w.program(), w.ts(), &config);
    let amap = amap_for(&cv.program);
    let pv = PreparedVersion::prepare(cv, &spec);
    let jv = lower(&pv, &JitOptions::default()).expect("workloads fit the default budget");
    let opts = ExecOptions { record_writes: true, num_counters: 0 };

    let run = |jit: bool| -> (Vec<ExecResult>, u64, u64) {
        let mut mem = MemoryImage::new(&pv.version.program);
        let mut rng = StdRng::seed_from_u64(7);
        w.setup(Dataset::Train, &mut mem, &mut rng);
        let mut state = MachineState::noiseless(spec.clone());
        let mut scratch = ExecScratch::new();
        let mut out = Vec::new();
        for inv in 0..invocations {
            let args = w.args(Dataset::Train, inv, &mut mem, &mut rng);
            let r = if jit {
                jv.execute(&args, &mut mem, &amap, &mut state, &opts, &mut scratch)
            } else {
                peak_sim::execute_with_scratch(
                    &pv,
                    &args,
                    &mut mem,
                    &amap,
                    &mut state,
                    &opts,
                    &mut scratch,
                )
            };
            out.push(r.expect("workload invocations do not trap"));
        }
        (out, state.cycles, state.instructions)
    };

    let (pr, pc, pi) = run(false);
    let (jr, jc, ji) = run(true);
    let what = format!("{} / {:?}", w.name(), spec.kind);
    for (p, j) in pr.iter().zip(&jr) {
        assert_same(p, j, &what);
    }
    assert_eq!(pc, jc, "{what}: accumulated state cycles");
    assert_eq!(pi, ji, "{what}: accumulated instructions");
}

#[test]
fn workloads_bit_identical_across_machines_and_configs() {
    let configs = [OptConfig::o0(), OptConfig::o3(), OptConfig::from_bits(0x5555_5555)];
    for w in peak_workloads::all_workloads() {
        for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
            for config in &configs {
                workload_parity(w.as_ref(), *config, spec.clone(), 4);
            }
        }
    }
}

/// The fused compare-and-branch must still define the condition
/// variable: both successors here read it after the branch.
#[test]
fn cmp_branch_fusion_still_defines_condition() {
    let mut prog = Program::new();
    let mut b = FunctionBuilder::new("fused", Some(Type::I64));
    let n = b.param("n", Type::I64);
    let c = b.var("c", Type::I64);
    let t = b.new_block();
    let f = b.new_block();
    b.assign(c, peak_ir::Rvalue::Binary(BinOp::Lt, n.into(), peak_ir::Operand::const_i64(10)));
    b.branch(c, t, f);
    b.switch_to(t);
    let x = b.binary(BinOp::Add, c, 100i64);
    b.ret(Some(x.into()));
    b.switch_to(f);
    let y = b.binary(BinOp::Add, c, 200i64);
    b.ret(Some(y.into()));
    let func = prog.add_func(b.finish());

    for config in [OptConfig::o0(), OptConfig::o3()] {
        let cv = peak_opt::optimize(&prog, func, &config);
        let amap = amap_for(&cv.program);
        let spec = MachineSpec::sparc_ii();
        let pv = PreparedVersion::prepare(cv, &spec);
        let jv = lower(&pv, &JitOptions::default()).unwrap();
        for nv in [3i64, 10, 50] {
            let args = [Value::I64(nv)];
            let opts = ExecOptions::default();
            let mut scratch = ExecScratch::new();
            let mut mem_p = MemoryImage::new(&pv.version.program);
            let mut st_p = MachineState::noiseless(spec.clone());
            let p = peak_sim::execute_with_scratch(
                &pv, &args, &mut mem_p, &amap, &mut st_p, &opts, &mut scratch,
            )
            .unwrap();
            let mut mem_j = MemoryImage::new(&pv.version.program);
            let mut st_j = MachineState::noiseless(spec.clone());
            let j = jv
                .execute(&args, &mut mem_j, &amap, &mut st_j, &opts, &mut scratch)
                .unwrap();
            assert_same(&p, &j, "fused cmp-branch");
            // The expected value also pins the semantics directly.
            let want = if nv < 10 { 101 } else { 200 };
            assert_eq!(j.ret, Some(Value::I64(want)));
        }
    }
}

/// A comparison that overwrites one of its own operands (`c = c < n`)
/// must read the pre-write value in the fused form too.
#[test]
fn cmp_branch_fusion_self_overwrite() {
    let mut prog = Program::new();
    let m = prog.add_mem("m", Type::I64, 8);
    let mut b = FunctionBuilder::new("selfcmp", Some(Type::I64));
    let n = b.param("n", Type::I64);
    let c = b.var("c", Type::I64);
    let t = b.new_block();
    let f = b.new_block();
    b.copy(c, 5i64);
    b.assign(c, peak_ir::Rvalue::Binary(BinOp::Lt, c.into(), n.into()));
    b.branch(c, t, f);
    b.switch_to(t);
    b.store(MemRef::global(m, 0i64), c);
    b.ret(Some(c.into()));
    b.switch_to(f);
    b.ret(Some(c.into()));
    let func = prog.add_func(b.finish());

    let cv = peak_opt::optimize(&prog, func, &OptConfig::o3());
    let amap = amap_for(&cv.program);
    let spec = MachineSpec::pentium_iv();
    let pv = PreparedVersion::prepare(cv, &spec);
    let jv = lower(&pv, &JitOptions::default()).unwrap();
    let mut scratch = ExecScratch::new();
    for nv in [0i64, 6] {
        let args = [Value::I64(nv)];
        let opts = ExecOptions::default();
        let mut mem = MemoryImage::new(&pv.version.program);
        let mut st = MachineState::noiseless(spec.clone());
        let p = peak_sim::execute_with_scratch(
            &pv, &args, &mut mem, &amap, &mut st, &opts, &mut scratch,
        )
        .unwrap();
        let mut mem = MemoryImage::new(&pv.version.program);
        let mut st = MachineState::noiseless(spec.clone());
        let j = jv.execute(&args, &mut mem, &amap, &mut st, &opts, &mut scratch).unwrap();
        assert_same(&p, &j, "self-overwrite cmp");
        assert_eq!(j.ret, Some(Value::I64((5 < nv) as i64)));
    }
}

#[test]
fn generated_programs_parity_sweep() {
    let spec = MachineSpec::sparc_ii();
    let opts = ExecOptions::default();
    let mut scratch = ExecScratch::new();
    for seed in 0..300u64 {
        let stmts = fuzzgen::gen_stmts(seed);
        let (prog, func) = fuzzgen::build_program(&stmts);
        let args = fuzzgen::gen_args(seed);
        let (want, _) = fuzzgen::run_reference(&prog, func, &args);
        for config in [OptConfig::o0(), OptConfig::o3()] {
            let cv = peak_opt::optimize(&prog, func, &config);
            let amap = amap_for(&cv.program);
            let pv = PreparedVersion::prepare(cv, &spec);
            let jv = lower(&pv, &JitOptions::default()).unwrap();
            let mut mem = fuzzgen::init_memory(&pv.version.program);
            let mut st = MachineState::noiseless(spec.clone());
            let p = peak_sim::execute_with_scratch(
                &pv, &args, &mut mem, &amap, &mut st, &opts, &mut scratch,
            )
            .unwrap();
            let mut mem = fuzzgen::init_memory(&pv.version.program);
            let mut st = MachineState::noiseless(spec.clone());
            let j =
                jv.execute(&args, &mut mem, &amap, &mut st, &opts, &mut scratch).unwrap();
            assert_same(&p, &j, &format!("fuzz seed {seed}"));
            assert_eq!(j.ret, want, "fuzz seed {seed}: vs reference interpreter");
        }
    }
}

/// Lowering is a pure function of the prepared version and the budget:
/// over budget it declines with a reason, within budget the same version
/// lowers. (Remembering a refusal is the version cache's job: the
/// declined entry keeps its predecoded engine; see `peak-core`'s
/// `jit_fallback` suite.)
#[test]
fn stmt_budget_declines_with_a_reason() {
    let w = peak_workloads::workload_by_name("SWIM").unwrap();
    let cv = peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3());
    let spec = MachineSpec::sparc_ii();
    let pv = PreparedVersion::prepare(cv, &spec);

    let err = lower(&pv, &JitOptions { max_stmts: 1 }).unwrap_err();
    assert!(err.to_string().contains("budget"), "reason names the budget: {err}");
    let jv = lower(&pv, &JitOptions::default()).expect("within budget the version lowers");
    assert_eq!(jv.tier(), peak_sim::ExecTier::Jit);
    assert!(jv.prepared().is_none(), "lowered code carries no interpretive body");
}
