//! The cycle-charging executor: runs a [`CompiledVersion`] against a
//! [`MemoryImage`] and persistent machine state (caches, branch
//! predictor), returning exact simulated cycles. The noisy timer wraps
//! these into *measured* times at the driver level.
//!
//! The executor is pre-decoded: [`PreparedVersion::prepare`] flattens
//! every function into a parallel statement stream carrying the
//! use/def lists, resolved spill slots, producer latencies and all
//! flag-/machine-dependent constant costs, so the per-invocation
//! interpreter loop touches no `OptConfig` bits, recomputes no use
//! lists, and scans no spill tables. The decode is cost-preserving by
//! construction: constant cycle charges commute (only their sum enters
//! `true_cycles`), and every *stateful* access — cache lines, branch
//! predictor entries — happens at exactly the same point in exactly the
//! same order as the pre-decode executor did, so results are
//! bit-identical (see the differential goldens in `peak-core`).

use crate::branch::BranchPredictor;
use crate::cache::{AddressMap, Hierarchy};
use crate::faults::FaultPlan;
use crate::machine::MachineSpec;
use crate::tier::TimingInputs;
use crate::timer::NoisyTimer;
use peak_ir::{
    MemBase, MemId, MemRef, MemoryImage, Operand, PtrVal, Rvalue, Stmt, Terminator, Value, VarId,
};
use peak_ir::ExecError as InterpError;
use peak_opt::{CompiledVersion, Flag, OptConfig, SpillInfo};

/// Mutable per-run machine state, persisting across TS invocations.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Machine description.
    pub spec: MachineSpec,
    /// Data caches.
    pub caches: Hierarchy,
    /// Branch predictor.
    pub predictor: BranchPredictor,
    /// Measured-time generator.
    pub timer: NoisyTimer,
    /// True cycles accumulated this run (all code, tuning overheads
    /// included by the driver).
    pub cycles: u64,
    /// IR statements executed this run (telemetry counter; charged
    /// nothing — costs come from the cycle model).
    pub instructions: u64,
    /// Injected-fault state for this run; `None` (the default) leaves
    /// every execution and measurement path bit-identical to a fault-free
    /// build.
    pub faults: Option<FaultPlan>,
}

impl MachineState {
    /// Fresh cold state.
    pub fn new(spec: MachineSpec, seed: u64) -> Self {
        let caches = Hierarchy::new(&spec);
        let predictor = BranchPredictor::new(spec.predictor_entries);
        let timer = NoisyTimer::new(&spec, seed);
        MachineState { spec, caches, predictor, timer, cycles: 0, instructions: 0, faults: None }
    }

    /// Fresh state with a noiseless timer (tests, calibration).
    pub fn noiseless(spec: MachineSpec) -> Self {
        let caches = Hierarchy::new(&spec);
        let predictor = BranchPredictor::new(spec.predictor_entries);
        MachineState {
            spec,
            caches,
            predictor,
            timer: NoisyTimer::noiseless(),
            cycles: 0,
            instructions: 0,
            faults: None,
        }
    }

    /// Install a fault plan for this run.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Measure `true_cycles` through the timer and any installed
    /// measurement faults. `None` = the reading was dropped. Without a
    /// fault plan this is exactly [`NoisyTimer::measure`].
    pub fn measure(&mut self, true_cycles: u64) -> Option<u64> {
        self.timer.measure_with(true_cycles, self.faults.as_mut())
    }
}

/// Flag- and machine-dependent constants the interpreter loop needs at
/// run time, resolved once in [`PreparedVersion::prepare`] instead of on
/// every `call`. Everything else flag-dependent is folded into the
/// per-block constants of the decoded stream. Public read-only: native
/// tier backends replicate the same spill/branch charges.
#[derive(Debug, Clone, Copy)]
pub struct ExecParams {
    /// Extra cycles per spill-slot access beyond the cache latency.
    spill_extra: u64,
    /// Cycles post-RA scheduling hides per spill access (`schedule-insns2`).
    spill_sub: u64,
    /// Branch misprediction penalty.
    mispredict_penalty: u64,
}

impl ExecParams {
    /// Extra cycles per spill-slot access beyond the cache latency.
    pub fn spill_extra(&self) -> u64 {
        self.spill_extra
    }
    /// Cycles post-RA scheduling hides per spill access.
    pub fn spill_sub(&self) -> u64 {
        self.spill_sub
    }
    /// Branch misprediction penalty.
    pub fn mispredict_penalty(&self) -> u64 {
        self.mispredict_penalty
    }
}

/// One spill access of a block, in execution order. `key` is
/// `(stmt_index << 1) | is_def`: use-spills (loads) fire before the
/// statement body, the def-spill (store) after it — a single sorted
/// stream the executor walks with one cursor.
#[derive(Debug, Clone, Copy)]
pub struct SpillEv {
    key: u32,
    /// Absolute spill slot (function base pre-added).
    slot: u32,
}

impl SpillEv {
    /// `(stmt_index << 1) | is_def` ordering key.
    pub fn key(&self) -> u32 {
        self.key
    }
    /// Absolute spill slot (function base pre-added).
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

/// Pre-decoded per-block data. Everything the cost model charges that
/// does not depend on run-time data — opcode costs, copy-coalescing,
/// call overheads, dependence and false-dependence stalls (both are
/// functions of *adjacent statements only*, and the window resets at
/// block boundaries), I-cache pressure, base terminator cost — is one
/// precomputed constant. Constant cycle charges commute, so folding them
/// per block is exact; only stateful accesses (data cache, branch
/// predictor, spill slots) remain in the loop, in their original order.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    /// Constant cycles per execution of this block: fetch penalty +
    /// every statement's data-independent cost + base terminator cost
    /// (`1 + taken_cost(target)` for jumps, `1` for branches/returns).
    const_cost: u64,
    /// Extra cost when a conditional branch is taken (front-end
    /// redirect, alignment and delay-slot discounts applied).
    taken_extra: u64,
    /// Branch-predictor site key of this block's terminator.
    site: u64,
    /// Predictor-table index of `site` for this machine's table size,
    /// hashed once at prepare time ([`BranchPredictor::index_for`]) so
    /// the execution loops never hash per branch.
    site_idx: u32,
    /// Spill accesses in execution order (empty for most blocks).
    spills: Box<[SpillEv]>,
}

impl DecodedBlock {
    /// Folded constant cycles per execution of this block.
    pub fn const_cost(&self) -> u64 {
        self.const_cost
    }
    /// Extra cycles when the block's conditional branch is taken.
    pub fn taken_extra(&self) -> u64 {
        self.taken_extra
    }
    /// Branch-predictor site key of this block's terminator.
    pub fn site(&self) -> u64 {
        self.site
    }
    /// Precomputed predictor-table index of [`DecodedBlock::site`] for
    /// the machine this version was prepared on.
    pub fn site_idx(&self) -> u32 {
        self.site_idx
    }
    /// Spill accesses in execution order.
    pub fn spills(&self) -> &[SpillEv] {
        &self.spills
    }
}

#[derive(Debug, Clone)]
struct DecodedFunc {
    blocks: Box<[DecodedBlock]>,
}

/// A version prepared for one machine: register allocation done for every
/// function, I-cache pressure precomputed, and the statement stream
/// pre-decoded for the executor.
#[derive(Debug, Clone)]
pub struct PreparedVersion {
    /// The compiled version.
    pub version: CompiledVersion,
    /// Per-function spill slot of each variable (`None` = in register).
    pub spill_slot: Vec<Vec<Option<u32>>>,
    /// Per-function count of values live across calls.
    pub live_across_calls: Vec<u32>,
    /// Whether the version overflows the I-cache/trace-cache budget.
    pub over_icache: bool,
    /// Stack-slot base offset per function (slots are function-private).
    pub slot_base: Vec<u32>,
    decoded: Vec<DecodedFunc>,
    params: ExecParams,
    timing: Option<TimingInputs>,
}

impl PreparedVersion {
    /// The flags of `config` that [`PreparedVersion::prepare`] reads on
    /// `spec`: its codegen flags ([`peak_opt::CODEGEN_FLAGS`]), without
    /// `DelayedBranch` on a machine that has no delay slot. Two versions
    /// with bit-identical programs whose configurations agree here
    /// prepare to the same version.
    pub fn codegen_flags(config: OptConfig, spec: &MachineSpec) -> OptConfig {
        let codegen = config.codegen();
        if spec.has_delay_slot {
            codegen
        } else {
            codegen.without(Flag::DelayedBranch)
        }
    }

    /// Allocate registers for every function of the version on `spec` and
    /// pre-decode the statement streams. A `PreparedVersion` is only
    /// meaningful on machine states built from the same `spec` (register
    /// allocation already depends on it), so flag/spec-dependent costs are
    /// resolved here once.
    pub fn prepare(version: CompiledVersion, spec: &MachineSpec) -> Self {
        let codegen = Self::codegen_flags(version.config, spec);
        let omit_fp = codegen.enabled(Flag::OmitFramePointer);
        let mut spill_slot = Vec::with_capacity(version.program.funcs.len());
        let mut live_across_calls = Vec::new();
        let mut slot_base = Vec::new();
        let mut next_base = 0u32;
        for f in &version.program.funcs {
            let info: SpillInfo = peak_opt::allocate(f, spec.reg_budget(), omit_fp);
            let mut slots = vec![None; f.num_vars()];
            for (v, s) in &info.spilled {
                slots[v.index()] = Some(*s);
            }
            slot_base.push(next_base);
            next_base += info.spilled.len() as u32 + 4;
            live_across_calls.push(info.live_across_calls);
            spill_slot.push(slots);
        }
        let over_icache = version.code_size > spec.icache_stmt_capacity;

        let coalesce = codegen.enabled(Flag::RegAllocCoalesce);
        let sched2 = codegen.enabled(Flag::ScheduleInsns2);
        let rename = codegen.enabled(Flag::RenameRegisters);
        let delay = codegen.enabled(Flag::DelayedBranch);
        let caller_saves = codegen.enabled(Flag::CallerSaves);
        let exposure = spec.stall_exposure_permille;
        let icache_pen = if over_icache { spec.icache_penalty } else { 0 };
        let params = ExecParams {
            spill_extra: spec.spill_extra_cycles,
            spill_sub: if sched2 { 2 } else { 0 },
            mispredict_penalty: spec.mispredict_penalty,
        };

        let mut decoded = Vec::with_capacity(version.program.funcs.len());
        let mut uses_buf: Vec<VarId> = Vec::new();
        let mut prev_uses: Vec<VarId> = Vec::new();
        let mut evs: Vec<SpillEv> = Vec::new();
        for (fi, f) in version.program.funcs.iter().enumerate() {
            let spills = &spill_slot[fi];
            let base = slot_base[fi];
            // Constant cost of one call *from* this function: overhead
            // plus saving the caller's call-crossing values.
            let call_cost =
                spec.call_overhead + call_save_cost(caller_saves, live_across_calls[fi]);
            let blocks = f
                .blocks
                .iter()
                .enumerate()
                .map(|(bi, block)| {
                    let mut const_cost = icache_pen;
                    evs.clear();
                    // Dependence-stall window: (def, latency) and uses of
                    // the previous statement. Static per adjacent pair —
                    // the window opens fresh at every block entry.
                    let mut prev_def: Option<(VarId, u64)> = None;
                    prev_uses.clear();
                    for (si, s) in block.stmts.iter().enumerate() {
                        uses_buf.clear();
                        s.uses(&mut uses_buf);
                        let def = s.def();
                        if let Some((pd, lat)) = prev_def {
                            if lat > 1 && uses_buf.contains(&pd) {
                                const_cost += (lat - 1) * exposure / 1000;
                            }
                        }
                        if !rename {
                            // False dependence (WAW/WAR): a small stall on
                            // machines without register renaming help.
                            if let Some(d) = def {
                                if prev_uses.contains(&d) || prev_def.is_some_and(|(p, _)| p == d)
                                {
                                    const_cost += 1;
                                }
                            }
                        }
                        // Spill loads for used variables, then the def
                        // store — the executor replays these in order.
                        let key = (si as u32) << 1;
                        for u in &uses_buf {
                            if let Some(slot) = spills[u.index()] {
                                evs.push(SpillEv { key, slot: base + slot });
                            }
                        }
                        if let Some(slot) = def.and_then(|d| spills[d.index()]) {
                            evs.push(SpillEv { key: key | 1, slot: base + slot });
                        }
                        const_cost += match s {
                            Stmt::Assign { dst, rv } => match rv {
                                Rvalue::Use(op) => {
                                    // Copy: coalescing makes register-to-
                                    // register moves free.
                                    let free = coalesce
                                        && spills[dst.index()].is_none()
                                        && op.as_var().is_none_or(|v| spills[v.index()].is_none());
                                    if free { 0 } else { 1 }
                                }
                                Rvalue::Unary(op, _) => spec.unop_cost(*op),
                                Rvalue::Binary(op, ..) => spec.binop_cost(*op),
                                Rvalue::Load(_) => 1,
                                Rvalue::AddrOf(..) => 1,
                                // cmov-style: fixed 2 cycles, no branch.
                                Rvalue::Select { .. } => 2,
                                Rvalue::Call { .. } => call_cost,
                            },
                            Stmt::Store { .. } => 1,
                            Stmt::CallVoid { .. } => call_cost,
                            Stmt::Prefetch { .. } => 1,
                            Stmt::CounterInc { .. } => spec.counter_cost,
                        };
                        prev_def = def.map(|d| (d, spec.result_latency(s)));
                        std::mem::swap(&mut prev_uses, &mut uses_buf);
                    }
                    // A delay slot is fillable when the block has any
                    // statement to hoist into it.
                    let fillable = delay && !block.stmts.is_empty();
                    let taken_extra = match &block.term {
                        Terminator::Jump(t) => {
                            const_cost += 1 + taken_cost(spec, f, *t, fillable);
                            0
                        }
                        Terminator::Branch { on_true, .. } => {
                            const_cost += 1;
                            taken_cost(spec, f, *on_true, fillable)
                        }
                        Terminator::Return(_) => {
                            const_cost += 1;
                            0
                        }
                    };
                    let site = ((fi as u64) << 32) ^ (bi as u64);
                    DecodedBlock {
                        const_cost,
                        taken_extra,
                        site,
                        site_idx: BranchPredictor::index_for(spec.predictor_entries, site)
                            as u32,
                        spills: evs.as_slice().into(),
                    }
                })
                .collect::<Box<[_]>>();
            decoded.push(DecodedFunc { blocks });
        }
        let timing = TimingInputs::of(&version);
        PreparedVersion {
            version,
            spill_slot,
            live_across_calls,
            over_icache,
            slot_base,
            decoded,
            params,
            timing,
        }
    }

    /// Total spill slots of the entry function (diagnostics).
    pub fn entry_spills(&self) -> usize {
        self.spill_slot[self.version.func.index()]
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Pre-decoded blocks of function `func` (index into
    /// `version.program.funcs`). Native-tier lowerings read the folded
    /// costs, sites and spill streams from here so both tiers charge
    /// from one artifact by construction.
    pub fn decoded_blocks(&self, func: usize) -> &[DecodedBlock] {
        &self.decoded[func].blocks
    }

    /// The resolved flag-/machine-dependent runtime constants.
    pub fn exec_params(&self) -> ExecParams {
        self.params
    }
}

/// The predecoded tier's engine is the prepared version itself.
impl crate::tier::TierBackend for PreparedVersion {
    fn execute(
        &self,
        args: &[Value],
        mem: &mut MemoryImage,
        amap: &AddressMap,
        state: &mut MachineState,
        opts: &ExecOptions,
        scratch: &mut ExecScratch,
    ) -> Result<ExecResult, ExecError> {
        execute_with_scratch(self, args, mem, amap, state, opts, scratch)
    }

    fn tier(&self) -> crate::tier::ExecTier {
        crate::tier::ExecTier::Predecoded
    }

    fn prepared(&self) -> Option<&PreparedVersion> {
        Some(self)
    }

    fn timing_inputs(&self) -> Option<&TimingInputs> {
        self.timing.as_ref()
    }
}

/// Front-end cost of redirecting fetch to `target`.
pub(crate) fn taken_cost(
    spec: &MachineSpec,
    f: &peak_ir::Function,
    target: peak_ir::BlockId,
    fillable: bool,
) -> u64 {
    let mut c = spec.taken_branch_cost;
    if f.block(target).aligned {
        c = c.saturating_sub(spec.aligned_discount);
    }
    if fillable {
        c = c.saturating_sub(1);
    }
    c
}

/// Result of one simulated invocation.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Return value.
    pub ret: Option<Value>,
    /// Exact simulated cycles of the invocation.
    pub true_cycles: u64,
    /// Instrumentation counter values (CounterInc).
    pub counters: Vec<u64>,
    /// Write log when recording was requested (RBR inspector, paper
    /// §2.4.2): `(region, index, value before the first write)` — an undo
    /// log sufficient to roll the invocation back.
    pub writes: Vec<(MemId, i64, Value)>,
}

/// Execution error: either a genuine interpreter failure or an injected
/// version crash from the fault layer (surfaced as data, not a panic, so
/// the tuning driver can abandon the run and degrade).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A real failure mode shared with the reference interpreter.
    Interp(InterpError),
    /// The fault plan crashed this execution (1-based count within the
    /// run).
    InjectedCrash {
        /// Which execution of the run faulted.
        invocation: u64,
    },
}

impl From<InterpError> for ExecError {
    fn from(e: InterpError) -> Self {
        ExecError::Interp(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Interp(e) => write!(f, "{e}"),
            ExecError::InjectedCrash { invocation } => {
                write!(f, "injected crash on execution {invocation}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Options for one invocation.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Record written addresses (improved-RBR inspector, paper §2.4.2).
    pub record_writes: bool,
    /// Number of counters to size the counter vector for.
    pub num_counters: usize,
}

/// Reusable execution buffers. One lives in each run harness so the
/// steady-state invocation path allocates nothing: register files and
/// call-argument vectors are pooled across invocations (and across the
/// call tree within one), and the write-dedup set keeps its capacity.
/// An invocation that fails mid-call drops the frames it held — error
/// paths abandon the run anyway, and the pool simply refills.
#[derive(Debug, Default)]
pub struct ExecScratch {
    regs_pool: Vec<Vec<Value>>,
    vals_pool: Vec<Vec<Value>>,
    written: std::collections::HashSet<(u32, i64)>,
}

impl ExecScratch {
    /// Fresh scratch (nothing allocated yet).
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// A zeroed register file of `n` slots, reusing pooled capacity.
    pub fn take_regs(&mut self, n: usize) -> Vec<Value> {
        let mut v = self.regs_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(n, Value::I64(0));
        v
    }

    /// Return a register file to the pool.
    pub fn put_regs(&mut self, v: Vec<Value>) {
        self.regs_pool.push(v);
    }

    /// An empty call-argument buffer, reusing pooled capacity.
    pub fn take_vals(&mut self) -> Vec<Value> {
        let mut v = self.vals_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Return a call-argument buffer to the pool.
    pub fn put_vals(&mut self, v: Vec<Value>) {
        self.vals_pool.push(v);
    }

    /// Reset the write-dedup set for a new recording invocation.
    pub fn begin_write_log(&mut self) {
        self.written.clear();
    }

    /// Record a write to `(mem, idx)`; true when it is this
    /// invocation's first write to that cell (undo-log dedup).
    pub fn first_write(&mut self, mem: u32, idx: i64) -> bool {
        self.written.insert((mem, idx))
    }
}

/// The fault hooks every execution tier runs before touching program
/// state: a crash aborts before any work; a perturbation episode
/// pollutes caches/predictor like a co-tenant time slice (no cycles
/// charged to the program).
pub fn fault_preamble(state: &mut MachineState) -> Result<(), ExecError> {
    let MachineState { faults, caches, predictor, .. } = state;
    if let Some(plan) = faults.as_mut() {
        if let Some(invocation) = plan.pre_execute_crash() {
            return Err(ExecError::InjectedCrash { invocation });
        }
        plan.maybe_perturb(caches, predictor);
    }
    Ok(())
}

/// Execute one invocation of the prepared version's entry function.
///
/// Allocates its own transient [`ExecScratch`]; hot paths that execute
/// many invocations should hold one and call [`execute_with_scratch`].
pub fn execute(
    pv: &PreparedVersion,
    args: &[Value],
    mem: &mut MemoryImage,
    amap: &AddressMap,
    state: &mut MachineState,
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
    let mut scratch = ExecScratch::new();
    execute_with_scratch(pv, args, mem, amap, state, opts, &mut scratch)
}

/// [`execute`] with caller-owned scratch buffers (allocation-free in
/// steady state).
pub fn execute_with_scratch(
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
        scratch.written.clear();
    }
    let mut ctx = Ctx {
        pv,
        amap,
        state,
        counters: vec![0; opts.num_counters],
        writes: Vec::new(),
        record_writes: opts.record_writes,
        steps: 0,
        scratch,
    };
    let mut cycles = 0u64;
    let ret = ctx.call(pv.version.func, args, mem, &mut cycles, 0)?;
    ctx.state.cycles += cycles;
    let steps = ctx.steps;
    ctx.state.instructions += steps;
    Ok(ExecResult { ret, true_cycles: cycles, counters: ctx.counters, writes: ctx.writes })
}

/// Statement budget per invocation before [`InterpError::StepLimit`]
/// (shared by every execution tier).
pub const STEP_LIMIT: u64 = 2_000_000_000;
/// Call-depth budget before [`InterpError::RecursionLimit`] (shared by
/// every execution tier).
pub const RECURSION_LIMIT: usize = 64;

struct Ctx<'a> {
    pv: &'a PreparedVersion,
    amap: &'a AddressMap,
    state: &'a mut MachineState,
    counters: Vec<u64>,
    writes: Vec<(MemId, i64, Value)>,
    record_writes: bool,
    steps: u64,
    scratch: &'a mut ExecScratch,
}

impl<'a> Ctx<'a> {
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
        let f = pv.version.program.func(func);
        let df = &pv.decoded[func.index()];
        let p = pv.params;

        let mut regs = self.scratch.take_regs(f.num_vars());
        for (prm, a) in f.params.iter().zip(args) {
            regs[prm.index()] = *a;
        }

        let mut bb = f.entry;
        loop {
            let block = f.block(bb);
            let dblock = &df.blocks[bb.index()];
            // All data-independent costs of this block, in one add.
            *cycles += dblock.const_cost;
            self.steps += block.stmts.len() as u64 + 1;
            if self.steps > STEP_LIMIT {
                return Err(InterpError::StepLimit);
            }
            // Cursor over the block's spill accesses (usually empty).
            let mut evs = dblock.spills.iter();
            let mut next_ev = evs.next();
            for (si, s) in block.stmts.iter().enumerate() {
                // Spill loads for used variables, before the body.
                let key = (si as u32) << 1;
                while let Some(e) = next_ev {
                    if e.key != key {
                        break;
                    }
                    self.spill_access(e.slot, cycles);
                    next_ev = evs.next();
                }
                match s {
                    Stmt::Assign { dst, rv } => {
                        let v = match rv {
                            Rvalue::Use(op) => self.operand(op, &regs),
                            Rvalue::Unary(op, a) => {
                                peak_ir::interp::eval_unop(*op, self.operand(a, &regs))
                            }
                            Rvalue::Binary(op, a, b) => peak_ir::interp::eval_binop(
                                *op,
                                self.operand(a, &regs),
                                self.operand(b, &regs),
                            )?,
                            Rvalue::Load(mr) => {
                                let (m, idx) = self.resolve(mr, &regs, mem)?;
                                *cycles += self.state.caches.access(self.amap.addr(m, idx));
                                mem.load(m, idx)
                            }
                            Rvalue::AddrOf(m, idx) => Value::Ptr(PtrVal {
                                mem: *m,
                                offset: self.operand(idx, &regs).as_i64(),
                            }),
                            Rvalue::Select { cond, on_true, on_false } => {
                                if self.operand(cond, &regs).is_true() {
                                    self.operand(on_true, &regs)
                                } else {
                                    self.operand(on_false, &regs)
                                }
                            }
                            Rvalue::Call { func: callee, args } => {
                                let mut vals = self.scratch.take_vals();
                                for a in args {
                                    vals.push(self.operand(a, &regs));
                                }
                                let r = self.call(*callee, &vals, mem, cycles, depth + 1)?;
                                self.scratch.vals_pool.push(vals);
                                r.expect("value call of void function")
                            }
                        };
                        regs[dst.index()] = v;
                        // Spill store of the defined variable, after the
                        // body (only when the def is spilled).
                        let key = key | 1;
                        while let Some(e) = next_ev {
                            if e.key != key {
                                break;
                            }
                            self.spill_access(e.slot, cycles);
                            next_ev = evs.next();
                        }
                    }
                    Stmt::Store { dst, src } => {
                        let (m, idx) = self.resolve(dst, &regs, mem)?;
                        *cycles += self.state.caches.access(self.amap.addr(m, idx));
                        if self.record_writes && self.scratch.written.insert((m.0, idx)) {
                            // Inspector: log the pre-write value (undo log);
                            // the inspector code itself costs cycles.
                            self.writes.push((m, idx, mem.load(m, idx)));
                            *cycles += 3;
                        }
                        let v = self.operand(src, &regs);
                        mem.store(m, idx, v);
                    }
                    Stmt::CallVoid { func: callee, args } => {
                        let mut vals = self.scratch.take_vals();
                        for a in args {
                            vals.push(self.operand(a, &regs));
                        }
                        self.call(*callee, &vals, mem, cycles, depth + 1)?;
                        self.scratch.vals_pool.push(vals);
                    }
                    Stmt::Prefetch { addr } => {
                        // Best-effort: ignore unresolvable/OOB addresses.
                        if let Ok((m, idx)) = self.resolve_unchecked(addr, &regs) {
                            let len = mem.buf(m).len() as i64;
                            if idx >= 0 && idx < len {
                                self.state.caches.prefetch(self.amap.addr(m, idx));
                            }
                        }
                    }
                    Stmt::CounterInc { counter } => {
                        if counter.index() >= self.counters.len() {
                            self.counters.resize(counter.index() + 1, 0);
                        }
                        self.counters[counter.index()] += 1;
                    }
                }
            }
            // Terminators (base cost already in `const_cost`).
            match &block.term {
                Terminator::Jump(t) => {
                    bb = *t;
                }
                Terminator::Branch { cond, on_true, on_false } => {
                    let taken = self.operand(cond, &regs).is_true();
                    if self.state.predictor.mispredicted_at(dblock.site_idx as usize, taken) {
                        *cycles += p.mispredict_penalty;
                    }
                    if taken {
                        *cycles += dblock.taken_extra;
                    }
                    bb = if taken { *on_true } else { *on_false };
                }
                Terminator::Return(v) => {
                    let ret = v.as_ref().map(|op| self.operand(op, &regs));
                    self.scratch.regs_pool.push(regs);
                    return Ok(ret);
                }
            }
        }
    }

    /// Spill-slot access: through the cache, plus the machine's spill
    /// overhead, minus what post-RA scheduling hides; at least 1 cycle.
    #[inline]
    fn spill_access(&mut self, slot: u32, cycles: &mut u64) {
        let addr = self.amap.spill_addr(slot);
        let mut c = self.state.caches.access(addr) + self.pv.params.spill_extra;
        c = c.saturating_sub(self.pv.params.spill_sub);
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

pub(crate) fn call_save_cost(caller_saves: bool, live_across: u32) -> u64 {
    let per_value = if caller_saves { 2 } else { 4 };
    (live_across.min(12) as u64) * per_value
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn prep(config: OptConfig, spec: &MachineSpec) -> (PreparedVersion, AddressMap) {
        let (prog, f) = sum_kernel();
        let cv = peak_opt::optimize(&prog, f, &config);
        let amap = AddressMap::new(&cv.program.mems.iter().map(|m| m.len).collect::<Vec<_>>());
        (PreparedVersion::prepare(cv, spec), amap)
    }

    fn run_once(
        pv: &PreparedVersion,
        amap: &AddressMap,
        state: &mut MachineState,
        n: i64,
    ) -> ExecResult {
        let mut mem = MemoryImage::new(&pv.version.program);
        let a = pv.version.program.mem_by_name("a").unwrap();
        for i in 0..4096 {
            mem.store(a, i, Value::F64(1.0));
        }
        execute(pv, &[Value::I64(n)], &mut mem, amap, state, &ExecOptions::default()).unwrap()
    }

    #[test]
    fn result_matches_reference_interpreter() {
        let spec = MachineSpec::sparc_ii();
        let (pv, amap) = prep(OptConfig::o3(), &spec);
        let mut state = MachineState::noiseless(spec);
        let out = run_once(&pv, &amap, &mut state, 100);
        assert_eq!(out.ret, Some(Value::F64(100.0)));
        assert!(out.true_cycles > 100, "loads alone cost cycles");
    }

    #[test]
    fn o3_beats_o0_in_cycles() {
        let spec = MachineSpec::sparc_ii();
        let (pv3, amap) = prep(OptConfig::o3(), &spec);
        let (pv0, _) = prep(OptConfig::o0(), &spec);
        let mut s1 = MachineState::noiseless(spec.clone());
        let mut s2 = MachineState::noiseless(spec);
        // Warm up both, then measure.
        run_once(&pv3, &amap, &mut s1, 1000);
        run_once(&pv0, &amap, &mut s2, 1000);
        let c3 = run_once(&pv3, &amap, &mut s1, 1000).true_cycles;
        let c0 = run_once(&pv0, &amap, &mut s2, 1000).true_cycles;
        assert!(c3 < c0, "O3 {c3} should beat O0 {c0}");
    }

    #[test]
    fn cache_warmup_shows() {
        let spec = MachineSpec::pentium_iv();
        let (pv, amap) = prep(OptConfig::o3().without(Flag::PrefetchLoopArrays), &spec);
        let mut state = MachineState::noiseless(spec);
        let cold = run_once(&pv, &amap, &mut state, 1500).true_cycles;
        let warm = run_once(&pv, &amap, &mut state, 1500).true_cycles;
        assert!(
            warm * 11 / 10 < cold,
            "second run should be visibly faster: cold={cold} warm={warm}"
        );
    }

    #[test]
    fn prefetch_helps_streaming_misses() {
        let spec = MachineSpec::pentium_iv();
        let (with, amap) = prep(OptConfig::o3(), &spec);
        let (without, _) = prep(OptConfig::o3().without(Flag::PrefetchLoopArrays), &spec);
        // Cold caches each time: stream 4096 elements (beyond L1).
        let mut s1 = MachineState::noiseless(spec.clone());
        let mut s2 = MachineState::noiseless(spec);
        let c_with = run_once(&with, &amap, &mut s1, 4000).true_cycles;
        let c_without = run_once(&without, &amap, &mut s2, 4000).true_cycles;
        assert!(
            c_with < c_without,
            "prefetch should pay on a cold stream: with={c_with} without={c_without}"
        );
    }

    #[test]
    fn writes_recorded_when_requested() {
        let mut prog = Program::new();
        let a = prog.add_mem("a", Type::I64, 16);
        let mut b = FunctionBuilder::new("w", None);
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        b.for_loop(i, 0i64, n, 1, |b| {
            b.store(peak_ir::MemRef::global(a, i), i);
        });
        b.ret(None);
        let f = prog.add_func(b.finish());
        let cv = peak_opt::optimize(&prog, f, &OptConfig::o0());
        let spec = MachineSpec::sparc_ii();
        let amap = AddressMap::new(&[16]);
        let pv = PreparedVersion::prepare(cv, &spec);
        let mut state = MachineState::noiseless(spec);
        let mut mem = MemoryImage::new(&pv.version.program);
        let out = execute(
            &pv,
            &[Value::I64(5)],
            &mut mem,
            &amap,
            &mut state,
            &ExecOptions { record_writes: true, num_counters: 0 },
        )
        .unwrap();
        assert_eq!(out.writes.len(), 5);
        assert_eq!(out.writes[0], (a, 0, Value::I64(0)), "old value logged");
    }

    #[test]
    fn spills_cost_cycles_on_tight_register_machines() {
        // Wide straight-line code: many live values.
        let mut prog = Program::new();
        let mut b = FunctionBuilder::new("wide", Some(Type::I64));
        let p = b.param("p", Type::I64);
        let vars: Vec<_> = (0..14)
            .map(|j| {
                let v = b.var(format!("w{j}"), Type::I64);
                b.binary_into(v, BinOp::Add, p, j as i64);
                v
            })
            .collect();
        let mut acc = b.var("acc", Type::I64);
        b.copy(acc, 0i64);
        for v in vars {
            let t = b.binary(BinOp::Add, acc, v);
            acc = t;
        }
        b.ret(Some(acc.into()));
        let f = prog.add_func(b.finish());
        let cv = peak_opt::optimize(&prog, f, &OptConfig::o0());
        let amap = AddressMap::new(&[]);
        let p4 = PreparedVersion::prepare(cv.clone(), &MachineSpec::pentium_iv());
        let sparc = PreparedVersion::prepare(cv, &MachineSpec::sparc_ii());
        assert!(p4.entry_spills() > 0, "P4 must spill");
        assert_eq!(sparc.entry_spills(), 0, "SPARC II has registers to spare");
        let mut sp4 = MachineState::noiseless(MachineSpec::pentium_iv());
        let mut ssp = MachineState::noiseless(MachineSpec::sparc_ii());
        let mut mem = MemoryImage::new(&p4.version.program);
        let c_p4 = execute(&p4, &[Value::I64(1)], &mut mem, &amap, &mut sp4, &ExecOptions::default())
            .unwrap()
            .true_cycles;
        let mut mem2 = MemoryImage::new(&sparc.version.program);
        let c_sp =
            execute(&sparc, &[Value::I64(1)], &mut mem2, &amap, &mut ssp, &ExecOptions::default())
                .unwrap()
                .true_cycles;
        assert!(c_p4 > c_sp, "spill traffic shows: p4={c_p4} sparc={c_sp}");
    }

    /// Scratch reuse must not change results: same kernel, same state
    /// evolution, shared scratch across invocations.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let spec = MachineSpec::pentium_iv();
        let (pv, amap) = prep(OptConfig::o3(), &spec);
        let mut s_fresh = MachineState::noiseless(spec.clone());
        let mut s_shared = MachineState::noiseless(spec);
        let mut scratch = ExecScratch::new();
        for n in [10i64, 200, 1000, 200, 10] {
            let mut mem1 = MemoryImage::new(&pv.version.program);
            let mut mem2 = MemoryImage::new(&pv.version.program);
            let a = pv.version.program.mem_by_name("a").unwrap();
            for i in 0..4096 {
                mem1.store(a, i, Value::F64(2.0));
                mem2.store(a, i, Value::F64(2.0));
            }
            let r1 = execute(
                &pv,
                &[Value::I64(n)],
                &mut mem1,
                &amap,
                &mut s_fresh,
                &ExecOptions::default(),
            )
            .unwrap();
            let r2 = execute_with_scratch(
                &pv,
                &[Value::I64(n)],
                &mut mem2,
                &amap,
                &mut s_shared,
                &ExecOptions::default(),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(r1.ret, r2.ret);
            assert_eq!(r1.true_cycles, r2.true_cycles);
        }
    }

    /// The write-undo log is scoped to one invocation even when the
    /// dedup set is reused via scratch.
    #[test]
    fn record_writes_dedup_resets_per_invocation() {
        let mut prog = Program::new();
        let a = prog.add_mem("a", Type::I64, 16);
        let mut b = FunctionBuilder::new("w", None);
        let n = b.param("n", Type::I64);
        let i = b.var("i", Type::I64);
        b.for_loop(i, 0i64, n, 1, |b| {
            b.store(peak_ir::MemRef::global(a, i), i);
        });
        b.ret(None);
        let f = prog.add_func(b.finish());
        let cv = peak_opt::optimize(&prog, f, &OptConfig::o0());
        let spec = MachineSpec::sparc_ii();
        let amap = AddressMap::new(&[16]);
        let pv = PreparedVersion::prepare(cv, &spec);
        let mut state = MachineState::noiseless(spec);
        let mut mem = MemoryImage::new(&pv.version.program);
        let mut scratch = ExecScratch::new();
        let opts = ExecOptions { record_writes: true, num_counters: 0 };
        for _ in 0..3 {
            let out = execute_with_scratch(
                &pv,
                &[Value::I64(4)],
                &mut mem,
                &amap,
                &mut state,
                &opts,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(out.writes.len(), 4, "each invocation logs its own first-writes");
        }
    }
}
