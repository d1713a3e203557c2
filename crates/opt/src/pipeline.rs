//! The optimization pipeline: runs the passes enabled by an [`OptConfig`]
//! in a GCC-3.3-like order and produces a [`CompiledVersion`].
//!
//! Every pass invocation reports to a [`Validator`]; [`optimize`] runs
//! with validation off (the release rating path), while
//! [`optimize_checked`] verifies structural invariants — and, at
//! [`ValidationLevel::Full`], semantic equivalence on the reference
//! interpreter — after each pass, blaming the exact invocation that broke
//! the program.

use crate::config::{Flag, OptConfig};
use crate::passes;
use crate::util::reachable_size;
use crate::validate::{PassId, ValidationFailure, ValidationLevel, Validator};
use peak_ir::{FuncId, Program};

/// One compiled version of a tuning section: the transformed program, the
/// configuration that produced it, what the compile depended on, and
/// code-size stats consumed by the machine model (I-cache footprint,
/// alignment padding).
#[derive(Debug, Clone)]
pub struct CompiledVersion {
    /// Program with the target function optimized.
    pub program: Program,
    /// The optimized function.
    pub func: FuncId,
    /// Flags used.
    pub config: OptConfig,
    /// The configurations whose compile this is.
    pub footprint: Footprint,
    /// Reachable statement count of the optimized function (code size
    /// proxy; alignment padding included).
    pub code_size: usize,
}

/// The pipeline flags a compile depended on, and the ones it ran with.
///
/// A pass that reports no change leaves the program bit-identical (the
/// [`Validator`] holds every pass to that from
/// [`ValidationLevel::Structural`] up), and whether a later pass runs,
/// or a fixpoint loop repeats, depends only on flags and on earlier
/// passes' change bits. So a configuration that keeps every `used` flag
/// and adds no pipeline flag beyond `ran` runs the same passes minus
/// some that changed nothing, sees the same IR at every step, and
/// compiles to the same program ([`Footprint::covers`]). The six codegen
/// flags never reach the pipeline, so they are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Pipeline flags whose passes changed the IR, plus
    /// `StrictAliasing` when store forwarding or register promotion ran
    /// and `StrengthReduction` when induction-variable elimination
    /// changed the IR ([`Validator::footprint`]).
    pub used: OptConfig,
    /// The pipeline flags the compile ran with.
    pub ran: OptConfig,
}

impl Footprint {
    /// A footprint that covers only configurations with the pipeline
    /// flags of `cfg`: for a program that running `cfg`'s passes did not
    /// produce (a compile degraded to `-O0`).
    pub fn exact(cfg: OptConfig) -> Footprint {
        Footprint { used: cfg.pipeline(), ran: cfg.pipeline() }
    }

    /// Whether compiling `cfg` yields exactly the program of the compile
    /// this footprint belongs to: `cfg` enables every `used` flag and no
    /// pipeline flag outside `ran`.
    pub fn covers(self, cfg: OptConfig) -> bool {
        let want = cfg.pipeline().bits();
        self.used.bits() & !want == 0 && want & !self.ran.bits() == 0
    }
}

/// Bound on fixpoint iterations for self-limiting passes.
const FIXPOINT_LIMIT: usize = 12;

/// Compile `func` under `config`, returning the compiled version.
/// The input program is cloned; callees are left as-is (each TS is
/// compiled separately, like the paper's per-TS compilation).
pub fn optimize(prog: &Program, func: FuncId, config: &OptConfig) -> CompiledVersion {
    let mut p = prog.clone();
    let mut v = Validator::off(func, config);
    run_pipeline(&mut p, func, config, &mut v)
        .expect("validation is off; the pipeline cannot fail");
    debug_assert_eq!(
        peak_ir::validate_program(&p).map_err(|e| e.to_string()),
        Ok(()),
        "pipeline produced invalid IR under {config}"
    );
    finish(p, func, config, v.footprint())
}

/// [`optimize`] with translation validation at `level`: after every pass
/// that changed the IR, structural invariants are re-verified and (at
/// [`ValidationLevel::Full`]) the semantic oracle compares pre- and
/// post-pass observations. On failure the partially-optimized program is
/// discarded and the offending pass reported.
pub fn optimize_checked(
    prog: &Program,
    func: FuncId,
    config: &OptConfig,
    level: ValidationLevel,
) -> Result<CompiledVersion, ValidationFailure> {
    let mut p = prog.clone();
    let mut v = Validator::new(&p, func, config, level)?;
    run_pipeline(&mut p, func, config, &mut v)?;
    Ok(finish(p, func, config, v.footprint()))
}

fn finish(p: Program, func: FuncId, config: &OptConfig, footprint: Footprint) -> CompiledVersion {
    let mut code_size = reachable_size(p.func(func));
    // Alignment padding: aligned blocks cost a few padding slots.
    let aligned = p
        .func(func)
        .block_ids()
        .filter(|&b| p.func(func).block(b).aligned)
        .count();
    code_size += aligned * 2;
    CompiledVersion { program: p, func, config: *config, footprint, code_size }
}

fn scalar_cleanup_round(
    p: &mut Program,
    func: FuncId,
    config: &OptConfig,
    v: &mut Validator,
) -> Result<bool, ValidationFailure> {
    let mut changed = false;
    let strict = config.enabled(Flag::StrictAliasing);
    if config.enabled(Flag::ConstantFolding) {
        let ch = passes::fold::run(p.func_mut(func));
        v.after_pass(p, PassId::Fold, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::ConstantPropagation) {
        let ch = passes::cprop::run_const(p.func_mut(func));
        v.after_pass(p, PassId::CPropConst, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::CopyPropagation) {
        let ch = passes::cprop::run_copy(p.func_mut(func));
        v.after_pass(p, PassId::CPropCopy, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::AlgebraicSimplification) {
        let ch = passes::algebraic::run(p.func_mut(func));
        v.after_pass(p, PassId::Algebraic, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::Reassociation) {
        let ch = passes::reassoc::run(p.func_mut(func));
        v.after_pass(p, PassId::Reassoc, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::Peephole) {
        let ch = passes::peephole::run(p.func_mut(func));
        v.after_pass(p, PassId::Peephole, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::CseLocal) {
        let snapshot = p.clone();
        let ch = passes::cse::run(p.func_mut(func), &snapshot);
        v.after_pass(p, PassId::CseLocal, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::Gcse) {
        let ch = passes::gcse::run(p.func_mut(func));
        v.after_pass(p, PassId::Gcse, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::StoreForwarding) {
        let snapshot = p.clone();
        let ch = passes::store_forward::run(p.func_mut(func), &snapshot, strict);
        v.after_pass(p, PassId::StoreForward, ch)?;
        changed |= ch;
    }
    if config.enabled(Flag::JumpThreading) {
        let ch = passes::jumpthread::run(p.func_mut(func));
        v.after_pass(p, PassId::JumpThread, ch)?;
        changed |= ch;
    }
    Ok(changed)
}

fn run_pipeline(
    p: &mut Program,
    func: FuncId,
    config: &OptConfig,
    v: &mut Validator,
) -> Result<(), ValidationFailure> {
    let strict = config.enabled(Flag::StrictAliasing);
    // 1. Inlining first: exposes everything downstream.
    if config.enabled(Flag::InlineSmall) {
        let ch = passes::inline::run(p, func, passes::inline::SMALL_THRESHOLD);
        v.after_pass(p, PassId::InlineSmall, ch)?;
    }
    if config.enabled(Flag::InlineAggressive) {
        let ch = passes::inline::run(p, func, passes::inline::AGGRESSIVE_THRESHOLD);
        v.after_pass(p, PassId::InlineAggressive, ch)?;
    }
    // 2. Scalar cleanup to fixpoint.
    for _ in 0..3 {
        if !scalar_cleanup_round(p, func, config, v)? {
            break;
        }
    }
    if config.enabled(Flag::ReciprocalMath) {
        let ch = passes::reciprocal::run(p.func_mut(func));
        v.after_pass(p, PassId::Reciprocal, ch)?;
    }
    // 3. Loop optimizations.
    if config.enabled(Flag::LoopInvariantCodeMotion) {
        let snapshot = p.clone();
        let ch = passes::licm::run(p.func_mut(func), &snapshot);
        v.after_pass(p, PassId::Licm, ch)?;
    }
    if config.enabled(Flag::RegisterPromotion) {
        for _ in 0..FIXPOINT_LIMIT {
            let snapshot = p.clone();
            let ch = passes::regpromote::run(p.func_mut(func), &snapshot, strict);
            v.after_pass(p, PassId::RegPromote, ch)?;
            if !ch {
                break;
            }
        }
    }
    if config.enabled(Flag::LoopUnswitch) {
        for _ in 0..FIXPOINT_LIMIT {
            let ch = passes::unswitch::run(p.func_mut(func));
            v.after_pass(p, PassId::Unswitch, ch)?;
            if !ch {
                break;
            }
        }
    }
    if config.enabled(Flag::LoopFusion) {
        for _ in 0..FIXPOINT_LIMIT {
            let ch = passes::fusion::run(p.func_mut(func));
            v.after_pass(p, PassId::Fusion, ch)?;
            if !ch {
                break;
            }
        }
    }
    // Prefetch insertion must precede the unrolling family: those passes
    // destroy the canonical counted-loop shape it recognizes (the cloned
    // units carry the inserted prefetches along).
    if config.enabled(Flag::PrefetchLoopArrays) {
        let ch = passes::prefetch::run(p.func_mut(func));
        v.after_pass(p, PassId::Prefetch, ch)?;
    }
    if config.enabled(Flag::LoopPeel) {
        for _ in 0..FIXPOINT_LIMIT {
            let ch = passes::unroll::run_peel(p.func_mut(func));
            v.after_pass(p, PassId::Peel, ch)?;
            if !ch {
                break;
            }
        }
    }
    if config.enabled(Flag::LoopUnrollSmall) {
        for _ in 0..FIXPOINT_LIMIT {
            let ch = passes::unroll::run_full(p.func_mut(func));
            v.after_pass(p, PassId::UnrollSmall, ch)?;
            if !ch {
                break;
            }
        }
    }
    if config.enabled(Flag::LoopUnroll) {
        for _ in 0..FIXPOINT_LIMIT {
            let ch = passes::unroll::run(p.func_mut(func));
            v.after_pass(p, PassId::Unroll, ch)?;
            if !ch {
                break;
            }
        }
    }
    if config.enabled(Flag::StrengthReduction) {
        let ch = passes::strength::run(p.func_mut(func));
        v.after_pass(p, PassId::Strength, ch)?;
        if config.enabled(Flag::InductionVariableElimination) {
            let ch = passes::strength::run_ive(p.func_mut(func));
            v.after_pass(p, PassId::StrengthIve, ch)?;
        }
    }
    // 4. Second scalar cleanup (loop passes expose new redundancy).
    for _ in 0..2 {
        if !scalar_cleanup_round(p, func, config, v)? {
            break;
        }
    }
    // 5. Control-flow shaping.
    if config.enabled(Flag::IfConversion) {
        let ch = passes::ifconv::run(p.func_mut(func));
        v.after_pass(p, PassId::IfConv, ch)?;
    }
    if config.enabled(Flag::TailDuplication) {
        let ch = passes::taildup::run(p.func_mut(func));
        v.after_pass(p, PassId::TailDup, ch)?;
    }
    if config.enabled(Flag::BranchReorder) {
        let ch = passes::branch_reorder::run(p.func_mut(func));
        v.after_pass(p, PassId::BranchReorder, ch)?;
    }
    // 6. Cleanups.
    if config.enabled(Flag::DeadStoreElimination) {
        let ch = passes::dse::run(p.func_mut(func));
        v.after_pass(p, PassId::Dse, ch)?;
    }
    if config.enabled(Flag::DeadCodeElimination) {
        let ch = passes::dce::run(p.func_mut(func));
        v.after_pass(p, PassId::Dce, ch)?;
    }
    // 7. Scheduling and layout.
    if config.enabled(Flag::ScheduleInsns) {
        let ch = passes::schedule::run(p.func_mut(func));
        v.after_pass(p, PassId::Schedule, ch)?;
    }
    if config.enabled(Flag::AlignLoops) {
        let ch = passes::align::run_align_loops(p.func_mut(func));
        v.after_pass(p, PassId::AlignLoops, ch)?;
    }
    if config.enabled(Flag::AlignJumps) {
        let ch = passes::align::run_align_jumps(p.func_mut(func));
        v.after_pass(p, PassId::AlignJumps, ch)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_ir::{
        BinOp, FunctionBuilder, Interp, MemRef, MemoryImage, Type, Value,
    };

    /// A kernel exercising many passes at once.
    fn kernel() -> (Program, FuncId) {
        let mut prog = Program::new();
        let a = prog.add_mem("a", Type::F64, 128);
        let g = prog.add_mem("g", Type::F64, 4);
        let mut b = FunctionBuilder::new("kernel", Some(Type::F64));
        let n = b.param("n", Type::I64);
        let scale = b.param("scale", Type::F64);
        let i = b.var("i", Type::I64);
        let acc = b.var("acc", Type::F64);
        b.copy(acc, 0.0f64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::F64, MemRef::global(a, i));
            let inv = b.binary(BinOp::FMul, scale, scale); // invariant
            let t = b.binary(BinOp::FMul, x, inv);
            let t2 = b.binary(BinOp::FDiv, t, 2.0f64); // reciprocal target
            let s = b.load(Type::F64, MemRef::global(g, 0i64)); // promotable
            let s2 = b.binary(BinOp::FAdd, s, t2);
            b.store(MemRef::global(g, 0i64), s2);
            b.binary_into(acc, BinOp::FAdd, acc, t2);
        });
        b.ret(Some(acc.into()));
        let f = prog.add_func(b.finish());
        (prog, f)
    }

    fn run_kernel(prog: &Program, f: FuncId, n: i64) -> (Option<Value>, Value) {
        let mut mem = MemoryImage::new(prog);
        let a = prog.mem_by_name("a").unwrap();
        let g = prog.mem_by_name("g").unwrap();
        for i in 0..128 {
            mem.store(a, i, Value::F64(i as f64 * 0.5));
        }
        mem.store(g, 0, Value::F64(10.0));
        let out = Interp::default()
            .run(prog, f, &[Value::I64(n), Value::F64(1.5)], &mut mem)
            .unwrap();
        (out.ret, mem.load(g, 0))
    }

    #[test]
    fn o3_preserves_semantics() {
        let (prog, f) = kernel();
        let v = optimize(&prog, f, &OptConfig::o3());
        peak_ir::validate_program(&v.program).unwrap();
        for n in [0i64, 1, 4, 17, 128] {
            assert_eq!(run_kernel(&prog, f, n), run_kernel(&v.program, v.func, n), "n={n}");
        }
    }

    #[test]
    fn o0_is_identity_modulo_nothing() {
        let (prog, f) = kernel();
        let v = optimize(&prog, f, &OptConfig::o0());
        assert_eq!(v.program.func(f), prog.func(f), "-O0 must not touch the IR");
    }

    #[test]
    fn every_single_flag_off_preserves_semantics() {
        let (prog, f) = kernel();
        for flag in crate::config::ALL_FLAGS {
            let cfg = OptConfig::o3().without(flag);
            let v = optimize(&prog, f, &cfg);
            for n in [0i64, 3, 31] {
                assert_eq!(
                    run_kernel(&prog, f, n),
                    run_kernel(&v.program, v.func, n),
                    "flag off: {flag}, n={n}"
                );
            }
        }
    }

    #[test]
    fn every_single_flag_alone_preserves_semantics() {
        let (prog, f) = kernel();
        for flag in crate::config::ALL_FLAGS {
            let cfg = OptConfig::o0().with(flag, true);
            let v = optimize(&prog, f, &cfg);
            for n in [0i64, 3, 31] {
                assert_eq!(
                    run_kernel(&prog, f, n),
                    run_kernel(&v.program, v.func, n),
                    "only flag: {flag}, n={n}"
                );
            }
        }
    }

    #[test]
    fn o3_shrinks_dynamic_step_count() {
        let (prog, f) = kernel();
        // Prefetch trades extra statements for cache locality, which the
        // reference interpreter does not model — exclude it here.
        let v = optimize(&prog, f, &OptConfig::o3().without(Flag::PrefetchLoopArrays));
        let steps = |p: &Program, fid: FuncId| {
            let mut mem = MemoryImage::new(p);
            let a = p.mem_by_name("a").unwrap();
            for i in 0..128 {
                mem.store(a, i, Value::F64(1.0));
            }
            Interp::default()
                .run(p, fid, &[Value::I64(100), Value::F64(1.5)], &mut mem)
                .unwrap()
                .steps
        };
        let s0 = steps(&prog, f);
        let s3 = steps(&v.program, v.func);
        assert!(s3 < s0, "O3 {s3} should execute fewer statements than O0 {s0}");
    }

    #[test]
    fn code_size_grows_with_unrolling() {
        let (prog, f) = kernel();
        let with = optimize(&prog, f, &OptConfig::o3());
        let without = optimize(
            &prog,
            f,
            &OptConfig::o3().without(Flag::LoopUnroll).without(Flag::LoopPeel),
        );
        assert!(with.code_size > without.code_size);
    }

    #[test]
    fn checked_o3_passes_full_validation() {
        let (prog, f) = kernel();
        let v = optimize_checked(&prog, f, &OptConfig::o3(), ValidationLevel::Full)
            .expect("O3 on the kernel must validate cleanly");
        // The checked compile must produce the identical artifact.
        let plain = optimize(&prog, f, &OptConfig::o3());
        assert_eq!(v.program.func(v.func), plain.program.func(plain.func));
        assert_eq!(v.code_size, plain.code_size);
    }

    #[test]
    fn checked_every_single_flag_passes_full_validation() {
        let (prog, f) = kernel();
        for flag in crate::config::ALL_FLAGS {
            optimize_checked(&prog, f, &OptConfig::o0().with(flag, true), ValidationLevel::Full)
                .unwrap_or_else(|e| panic!("flag {flag}: {e}"));
        }
    }
}
