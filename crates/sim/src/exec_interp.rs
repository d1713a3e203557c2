//! The slow execution tier: a recompute-everything IR walker.
//!
//! This is the shape of the executor *before* pre-decoding existed —
//! every flag-dependent base cost, dependence stall, spill lookup and
//! terminator charge is rederived per statement from `OptConfig` bits
//! and the machine spec. It exists as the bottom rung of the tier
//! ladder (`interp → predecoded → jit`) so the A/B benches measure real
//! engine deltas, and as a third independent derivation of the cost
//! model for the differential tests. Its engine is [`InterpVersion`], a
//! thin wrapper that runs a [`PreparedVersion`]'s IR through this walker.
//!
//! Cost equivalence with the pre-decoded tier is by construction:
//! constant cycle charges commute (only their sum enters
//! `true_cycles`), and every stateful access — data cache lines, branch
//! predictor entries, spill-slot traffic — happens at the same point in
//! the same order. The tier goldens in `peak-core` byte-compare all
//! three tiers over the full 42-scenario grid.

use crate::cache::AddressMap;
use crate::exec::{
    call_save_cost, fault_preamble, taken_cost, ExecError, ExecOptions, ExecResult, ExecScratch,
    MachineState, PreparedVersion, RECURSION_LIMIT, STEP_LIMIT,
};
use crate::tier::{ExecTier, TierBackend};
use peak_ir::ExecError as InterpError;
use peak_ir::{MemBase, MemId, MemRef, MemoryImage, Operand, PtrVal, Rvalue, Stmt, Terminator, Value, VarId};
use peak_opt::Flag;

/// The slow tier's engine: the prepared version's IR, walked by the
/// recompute-everything executor (only the version's IR, spill slots
/// and call-crossing counts are read; its decoded blocks are not).
#[derive(Debug)]
pub struct InterpVersion(pub PreparedVersion);

impl TierBackend for InterpVersion {
    fn execute(
        &self,
        args: &[Value],
        mem: &mut MemoryImage,
        amap: &AddressMap,
        state: &mut MachineState,
        opts: &ExecOptions,
        scratch: &mut ExecScratch,
    ) -> Result<ExecResult, ExecError> {
        execute_interp_with_scratch(&self.0, args, mem, amap, state, opts, scratch)
    }

    fn tier(&self) -> ExecTier {
        ExecTier::Interp
    }

    fn prepared(&self) -> Option<&PreparedVersion> {
        Some(&self.0)
    }

    fn timing_inputs(&self) -> Option<&crate::tier::TimingInputs> {
        self.0.timing_inputs()
    }
}

/// Execute one invocation on the slow tier. Same contract (and same
/// results, bit for bit) as
/// [`execute_with_scratch`](crate::execute_with_scratch).
#[allow(clippy::too_many_arguments)]
fn execute_interp_with_scratch(
    pv: &PreparedVersion,
    args: &[Value],
    mem: &mut MemoryImage,
    amap: &AddressMap,
    state: &mut MachineState,
    opts: &ExecOptions,
    scratch: &mut ExecScratch,
) -> Result<ExecResult, ExecError> {
    fault_preamble(state)?;
    if opts.record_writes {
        scratch.begin_write_log();
    }
    let codegen = PreparedVersion::codegen_flags(pv.version.config, &state.spec);
    let mut ctx = SlowCtx {
        pv,
        amap,
        state,
        counters: vec![0; opts.num_counters],
        writes: Vec::new(),
        record_writes: opts.record_writes,
        steps: 0,
        scratch,
        coalesce: codegen.enabled(Flag::RegAllocCoalesce),
        rename: codegen.enabled(Flag::RenameRegisters),
        caller_saves: codegen.enabled(Flag::CallerSaves),
        delay: codegen.enabled(Flag::DelayedBranch),
        spill_extra: 0,
        spill_sub: if codegen.enabled(Flag::ScheduleInsns2) { 2 } else { 0 },
    };
    ctx.spill_extra = ctx.state.spec.spill_extra_cycles;
    let mut cycles = 0u64;
    let ret = ctx.call(pv.version.func, args, mem, &mut cycles, 0)?;
    ctx.state.cycles += cycles;
    let steps = ctx.steps;
    ctx.state.instructions += steps;
    Ok(ExecResult { ret, true_cycles: cycles, counters: ctx.counters, writes: ctx.writes })
}

struct SlowCtx<'a> {
    pv: &'a PreparedVersion,
    amap: &'a AddressMap,
    state: &'a mut MachineState,
    counters: Vec<u64>,
    writes: Vec<(MemId, i64, Value)>,
    record_writes: bool,
    steps: u64,
    scratch: &'a mut ExecScratch,
    coalesce: bool,
    rename: bool,
    caller_saves: bool,
    delay: bool,
    spill_extra: u64,
    spill_sub: u64,
}

impl SlowCtx<'_> {
    fn call(
        &mut self,
        func: peak_ir::FuncId,
        args: &[Value],
        mem: &mut MemoryImage,
        cycles: &mut u64,
        depth: usize,
    ) -> Result<Option<Value>, InterpError> {
        if depth > RECURSION_LIMIT {
            return Err(InterpError::RecursionLimit);
        }
        let pv = self.pv;
        let fi = func.index();
        let f = pv.version.program.func(func);
        let spills = &pv.spill_slot[fi];
        let base = pv.slot_base[fi];
        let spec = self.state.spec.clone();
        let exposure = spec.stall_exposure_permille;
        let icache_pen = if pv.over_icache { spec.icache_penalty } else { 0 };
        let call_cost =
            spec.call_overhead + call_save_cost(self.caller_saves, pv.live_across_calls[fi]);

        let mut regs = self.scratch.take_regs(f.num_vars());
        for (prm, a) in f.params.iter().zip(args) {
            regs[prm.index()] = *a;
        }

        let mut uses_buf: Vec<VarId> = Vec::new();
        let mut prev_uses: Vec<VarId> = Vec::new();
        let mut bb = f.entry;
        loop {
            let block = f.block(bb);
            *cycles += icache_pen;
            self.steps += block.stmts.len() as u64 + 1;
            if self.steps > STEP_LIMIT {
                return Err(InterpError::StepLimit);
            }
            // Dependence-stall window: (def, latency) and uses of the
            // previous statement; opens fresh at every block entry.
            let mut prev_def: Option<(VarId, u64)> = None;
            prev_uses.clear();
            for s in block.stmts.iter() {
                uses_buf.clear();
                s.uses(&mut uses_buf);
                let def = s.def();
                if let Some((pd, lat)) = prev_def {
                    if lat > 1 && uses_buf.contains(&pd) {
                        *cycles += (lat - 1) * exposure / 1000;
                    }
                }
                if !self.rename {
                    if let Some(d) = def {
                        if prev_uses.contains(&d) || prev_def.is_some_and(|(p, _)| p == d) {
                            *cycles += 1;
                        }
                    }
                }
                // Spill loads for used variables, before the body.
                for u in &uses_buf {
                    if let Some(slot) = spills[u.index()] {
                        self.spill_access(base + slot, cycles);
                    }
                }
                match s {
                    Stmt::Assign { dst, rv } => {
                        let v = match rv {
                            Rvalue::Use(op) => {
                                let free = self.coalesce
                                    && spills[dst.index()].is_none()
                                    && op.as_var().is_none_or(|v| spills[v.index()].is_none());
                                if !free {
                                    *cycles += 1;
                                }
                                self.operand(op, &regs)
                            }
                            Rvalue::Unary(op, a) => {
                                *cycles += spec.unop_cost(*op);
                                peak_ir::interp::eval_unop(*op, self.operand(a, &regs))
                            }
                            Rvalue::Binary(op, a, b) => {
                                *cycles += spec.binop_cost(*op);
                                peak_ir::interp::eval_binop(
                                    *op,
                                    self.operand(a, &regs),
                                    self.operand(b, &regs),
                                )?
                            }
                            Rvalue::Load(mr) => {
                                *cycles += 1;
                                let (m, idx) = self.resolve(mr, &regs, mem)?;
                                *cycles += self.state.caches.access(self.amap.addr(m, idx));
                                mem.load(m, idx)
                            }
                            Rvalue::AddrOf(m, idx) => {
                                *cycles += 1;
                                Value::Ptr(PtrVal {
                                    mem: *m,
                                    offset: self.operand(idx, &regs).as_i64(),
                                })
                            }
                            Rvalue::Select { cond, on_true, on_false } => {
                                *cycles += 2;
                                if self.operand(cond, &regs).is_true() {
                                    self.operand(on_true, &regs)
                                } else {
                                    self.operand(on_false, &regs)
                                }
                            }
                            Rvalue::Call { func: callee, args } => {
                                *cycles += call_cost;
                                let mut vals = self.scratch.take_vals();
                                for a in args {
                                    vals.push(self.operand(a, &regs));
                                }
                                let r = self.call(*callee, &vals, mem, cycles, depth + 1)?;
                                self.scratch.put_vals(vals);
                                r.expect("value call of void function")
                            }
                        };
                        regs[dst.index()] = v;
                        // Spill store of the defined variable, after the
                        // body.
                        if let Some(slot) = spills[dst.index()] {
                            self.spill_access(base + slot, cycles);
                        }
                    }
                    Stmt::Store { dst, src } => {
                        *cycles += 1;
                        let (m, idx) = self.resolve(dst, &regs, mem)?;
                        *cycles += self.state.caches.access(self.amap.addr(m, idx));
                        if self.record_writes && self.scratch.first_write(m.0, idx) {
                            self.writes.push((m, idx, mem.load(m, idx)));
                            *cycles += 3;
                        }
                        let v = self.operand(src, &regs);
                        mem.store(m, idx, v);
                    }
                    Stmt::CallVoid { func: callee, args } => {
                        *cycles += call_cost;
                        let mut vals = self.scratch.take_vals();
                        for a in args {
                            vals.push(self.operand(a, &regs));
                        }
                        self.call(*callee, &vals, mem, cycles, depth + 1)?;
                        self.scratch.put_vals(vals);
                    }
                    Stmt::Prefetch { addr } => {
                        *cycles += 1;
                        if let Ok((m, idx)) = self.resolve_unchecked(addr, &regs) {
                            let len = mem.buf(m).len() as i64;
                            if idx >= 0 && idx < len {
                                self.state.caches.prefetch(self.amap.addr(m, idx));
                            }
                        }
                    }
                    Stmt::CounterInc { counter } => {
                        *cycles += spec.counter_cost;
                        if counter.index() >= self.counters.len() {
                            self.counters.resize(counter.index() + 1, 0);
                        }
                        self.counters[counter.index()] += 1;
                    }
                }
                prev_def = def.map(|d| (d, spec.result_latency(s)));
                std::mem::swap(&mut prev_uses, &mut uses_buf);
            }
            let fillable = self.delay && !block.stmts.is_empty();
            match &block.term {
                Terminator::Jump(t) => {
                    *cycles += 1 + taken_cost(&spec, f, *t, fillable);
                    bb = *t;
                }
                Terminator::Branch { cond, on_true, on_false } => {
                    *cycles += 1;
                    let taken = self.operand(cond, &regs).is_true();
                    let site = ((fi as u64) << 32) ^ (bb.index() as u64);
                    if self.state.predictor.mispredicted(site, taken) {
                        *cycles += spec.mispredict_penalty;
                    }
                    if taken {
                        *cycles += taken_cost(&spec, f, *on_true, fillable);
                    }
                    bb = if taken { *on_true } else { *on_false };
                }
                Terminator::Return(v) => {
                    *cycles += 1;
                    let ret = v.as_ref().map(|op| self.operand(op, &regs));
                    self.scratch.put_regs(regs);
                    return Ok(ret);
                }
            }
        }
    }

    #[inline]
    fn spill_access(&mut self, slot: u32, cycles: &mut u64) {
        let addr = self.amap.spill_addr(slot);
        let mut c = self.state.caches.access(addr) + self.spill_extra;
        c = c.saturating_sub(self.spill_sub);
        *cycles += c.max(1);
    }

    #[inline]
    fn operand(&self, op: &Operand, regs: &[Value]) -> Value {
        match op {
            Operand::Var(v) => regs[v.index()],
            Operand::Const(c) => *c,
        }
    }

    fn resolve(
        &self,
        mr: &MemRef,
        regs: &[Value],
        mem: &MemoryImage,
    ) -> Result<(MemId, i64), InterpError> {
        let (m, i) = self.resolve_unchecked(mr, regs)?;
        let len = mem.buf(m).len();
        if i < 0 || i as usize >= len {
            return Err(InterpError::OutOfBounds { mem: m.0, index: i, len });
        }
        Ok((m, i))
    }

    fn resolve_unchecked(&self, mr: &MemRef, regs: &[Value]) -> Result<(MemId, i64), InterpError> {
        let idx = self.operand(&mr.index, regs).as_i64();
        Ok(match mr.base {
            MemBase::Global(m) => (m, idx),
            MemBase::Ptr(p) => {
                let pv = regs[p.index()].as_ptr();
                (pv.mem, pv.offset + idx)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with_scratch;
    use crate::machine::MachineSpec;
    use peak_ir::{BinOp, FunctionBuilder, Program, Type};
    use peak_opt::OptConfig;

    fn sum_kernel() -> (Program, peak_ir::FuncId) {
        let mut prog = Program::new();
        let a = prog.add_mem("a", Type::F64, 4096);
        let mut b = FunctionBuilder::new("sum", Some(Type::F64));
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        let acc = b.var("acc", Type::F64);
        b.copy(acc, 0.0f64);
        b.for_loop(i, 0i64, n, 1, |b| {
            let x = b.load(Type::F64, peak_ir::MemRef::global(a, i));
            b.binary_into(acc, BinOp::FAdd, acc, x);
        });
        b.ret(Some(acc.into()));
        let f = prog.add_func(b.finish());
        (prog, f)
    }

    /// The slow tier and the predecoded tier agree bit-for-bit on
    /// results, cycles, and the evolution of cache/predictor state
    /// across several configs and both machines.
    #[test]
    fn slow_tier_bit_identical_to_predecoded() {
        let (prog, f) = sum_kernel();
        for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
            for cfg in [
                OptConfig::o3(),
                OptConfig::o0(),
                OptConfig::o3().without(Flag::RegAllocCoalesce),
                OptConfig::o3().without(Flag::ScheduleInsns2),
            ] {
                let cv = peak_opt::optimize(&prog, f, &cfg);
                let amap = AddressMap::new(
                    &cv.program.mems.iter().map(|m| m.len).collect::<Vec<_>>(),
                );
                let pv = PreparedVersion::prepare(cv, &spec);
                let mut s1 = MachineState::noiseless(spec.clone());
                let mut s2 = MachineState::noiseless(spec.clone());
                let mut m1 = MemoryImage::new(&pv.version.program);
                let mut m2 = MemoryImage::new(&pv.version.program);
                let a = pv.version.program.mem_by_name("a").unwrap();
                for i in 0..4096 {
                    m1.store(a, i, Value::F64(0.5));
                    m2.store(a, i, Value::F64(0.5));
                }
                let mut sc1 = ExecScratch::new();
                let mut sc2 = ExecScratch::new();
                let opts = ExecOptions::default();
                for n in [7i64, 900, 40] {
                    let r1 = execute_with_scratch(
                        &pv, &[Value::I64(n)], &mut m1, &amap, &mut s1, &opts, &mut sc1,
                    )
                    .unwrap();
                    let r2 = execute_interp_with_scratch(
                        &pv, &[Value::I64(n)], &mut m2, &amap, &mut s2, &opts, &mut sc2,
                    )
                    .unwrap();
                    assert_eq!(r1.ret, r2.ret);
                    assert_eq!(r1.true_cycles, r2.true_cycles, "cfg {cfg:?} n={n}");
                    assert_eq!(r1.counters, r2.counters);
                }
                assert_eq!(s1.cycles, s2.cycles);
                assert_eq!(s1.instructions, s2.instructions);
            }
        }
    }
}
