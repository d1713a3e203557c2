//! Differential gate for the run harness's repeat fast path
//! (`RunHarness::run_engine`, DESIGN.md §16).
//!
//! The oracle is the per-invocation loop every other driver runs:
//! `next_args` then `try_execute`, simulating each invocation. The fast
//! path charges a repeat of a proven invocation from its record instead.
//! For every workload × both machines × both datasets, and for the -O3
//! engine, the -O0 predecoded engine, an -O3 variant with prefetching and
//! without if-conversion, and the MBR-instrumented -O3 engine where an MBR
//! model exists, both loops must hand out the same true cycles and
//! counters for every invocation and leave the same final `SimMetrics`
//! (instructions, cycles, hits and misses per cache level, branches
//! correct and wrong).
//!
//! A release build runs the -O3 and instrumented runs whole and the other
//! two configurations for their first `PREFIX_OTHER` invocations; a debug
//! build (tier-1 `cargo test`) runs every configuration for its first
//! `PREFIX_DEBUG` invocations, past the fixed point SWIM, EQUAKE and APPLU
//! reach at their second invocation and prove at their third.
//!
//! The workloads' steady states fit in L2, so their repeats miss it
//! nowhere; a synthetic section that sweeps more than either L2 holds
//! makes every repeat charge L2 misses. Beside the gate: the timing
//! inputs the fast path relies on (EQUAKE times by its index arrays,
//! SWIM by nothing), and the same section with an argument stream that
//! writes the region it branches on, which the loop must simulate whole.

use peak_core::{build_engine, mbr, RunHarness};
use peak_ir::{BinOp, FuncId, FunctionBuilder, MemRef, MemoryImage, Program, Type, Value};
use peak_obs::metrics::MetricsRegistry;
use peak_obs::Tracer;
use peak_opt::{Flag, OptConfig};
use peak_sim::{ExecOptions, ExecTier, MachineSpec, PreparedVersion, SimMetrics, TierBackend};
use peak_workloads::{all_workloads, Dataset, PaperRow, Workload};
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex};

const PREFIX_DEBUG: usize = 12;
const PREFIX_OTHER: usize = 600;

/// Per invocation (true cycles, counters), and the run's final counters.
type Observed = (Vec<(u64, Vec<u64>)>, SimMetrics);

/// The oracle: simulate every invocation.
fn simulate_all(
    w: &dyn Workload,
    ds: Dataset,
    spec: &MachineSpec,
    engine: &dyn TierBackend,
    opts: &ExecOptions,
    limit: usize,
) -> Observed {
    let mut h = RunHarness::new(w, ds, spec, 5);
    let mut invs = Vec::new();
    while invs.len() < limit {
        let Some(args) = h.next_args() else { break };
        let r = h.try_execute(engine, &args, opts).expect("fault-free run");
        invs.push((r.true_cycles, r.counters));
    }
    (invs, SimMetrics::snapshot(&h.machine))
}

/// The loop under test.
fn run_engine(
    w: &dyn Workload,
    ds: Dataset,
    spec: &MachineSpec,
    engine: &dyn TierBackend,
    opts: &ExecOptions,
    limit: usize,
) -> Observed {
    let mut h = RunHarness::new(w, ds, spec, 5);
    let mut invs = Vec::new();
    h.run_engine(engine, opts, &[], |_, inv| {
        invs.push((inv.true_cycles, inv.counters.to_vec()));
        invs.len() < limit
    })
    .expect("fault-free run");
    (invs, SimMetrics::snapshot(&h.machine))
}

/// `run_engine` under test, with how many invocations it fast-forwarded
/// (`core.harness.fast_forwarded`; the tests of this file take turns
/// reading the process-wide counter).
fn run_engine_counted(
    w: &dyn Workload,
    ds: Dataset,
    spec: &MachineSpec,
    engine: &dyn TierBackend,
    opts: &ExecOptions,
    limit: usize,
) -> (Observed, u64) {
    static COUNTER: Mutex<()> = Mutex::new(());
    let counter = || {
        MetricsRegistry::global()
            .snapshot()
            .counter("core.harness.fast_forwarded")
            .unwrap_or(0)
    };
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let before = counter();
    let observed = run_engine(w, ds, spec, engine, opts, limit);
    (observed, counter() - before)
}

fn engine(
    program: &peak_ir::Program,
    ts: peak_ir::FuncId,
    cfg: OptConfig,
    spec: &MachineSpec,
    tier: ExecTier,
) -> Arc<dyn TierBackend> {
    let pv = PreparedVersion::prepare(peak_opt::optimize(program, ts, &cfg), spec);
    build_engine(pv, tier, &Tracer::disabled())
}

fn check_machine(spec: MachineSpec) {
    let full = if cfg!(debug_assertions) {
        PREFIX_DEBUG
    } else {
        usize::MAX
    };
    let other = if cfg!(debug_assertions) {
        PREFIX_DEBUG
    } else {
        PREFIX_OTHER
    };
    let variant = OptConfig::o3()
        .without(Flag::IfConversion)
        .with(Flag::PrefetchLoopArrays, true);
    for w in all_workloads() {
        let w = w.as_ref();
        let plain = ExecOptions::default();
        let build = |cfg, tier| engine(w.program(), w.ts(), cfg, &spec, tier);
        let mut runs: Vec<(&str, Arc<dyn TierBackend>, ExecOptions, usize)> = vec![
            (
                "-O3",
                build(OptConfig::o3(), ExecTier::Jit),
                plain.clone(),
                full,
            ),
            (
                "-O0",
                build(OptConfig::o0(), ExecTier::Predecoded),
                plain.clone(),
                other,
            ),
            (
                "-O3 variant",
                build(variant, ExecTier::Jit),
                plain.clone(),
                other,
            ),
        ];
        if let Some(model) = mbr::discover(w) {
            let opts = ExecOptions {
                record_writes: false,
                num_counters: model.num_counters,
            };
            let e = engine(
                &model.instrumented,
                model.ts,
                OptConfig::o3(),
                &spec,
                ExecTier::Jit,
            );
            runs.push(("-O3 instrumented", e, opts, full));
        }
        for ds in [Dataset::Train, Dataset::Ref] {
            for (name, e, opts, limit) in &runs {
                let id = format!("{} {} {ds:?} {name}", w.name(), spec.kind.name());
                let ((fast, fast_m), skipped) =
                    run_engine_counted(w, ds, &spec, &**e, opts, *limit);
                let (slow, slow_m) = simulate_all(w, ds, &spec, &**e, opts, *limit);
                assert_eq!(fast.len(), slow.len(), "{id}: invocations");
                for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                    assert_eq!(f, s, "{id}: invocation {i} (true cycles, counters)");
                }
                assert_eq!(fast_m, slow_m, "{id}: final machine counters");
                let steady = matches!(w.name(), "SWIM" | "EQUAKE" | "APPLU");
                if *name == "-O3" && steady && peak_obs::metrics::enabled() {
                    assert!(
                        skipped > 0,
                        "{id}: the steady-state repeats were fast-forwarded"
                    );
                }
            }
        }
    }
}

#[test]
fn run_engine_matches_per_invocation_simulation_sparc() {
    check_machine(MachineSpec::sparc_ii());
}

#[test]
fn run_engine_matches_per_invocation_simulation_p4() {
    check_machine(MachineSpec::pentium_iv());
}

/// `w`'s -O3 timing inputs on SPARC-II, by region name.
fn timing_input_names(w: &dyn Workload) -> Option<Vec<String>> {
    let spec = MachineSpec::sparc_ii();
    let pv = PreparedVersion::prepare(
        peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()),
        &spec,
    );
    let names = pv
        .timing_inputs()?
        .reads
        .iter()
        .map(|m| w.program().mems[m.index()].name.clone());
    Some(names.collect())
}

#[test]
fn equake_times_by_its_index_arrays_and_swim_by_nothing() {
    let equake = peak_workloads::equake::EquakeSmvp::new();
    assert_eq!(
        timing_input_names(&equake),
        Some(vec!["arow".to_owned(), "acol".to_owned()])
    );
    let swim = peak_workloads::swim::SwimCalc3::new();
    assert_eq!(timing_input_names(&swim), Some(vec![]));
}

/// Elements of `out` a `Sweep` section walks: more than either
/// machine's L2 holds (64 Ki elements on SPARC-II, 128 Ki on
/// Pentium-IV), so every invocation misses L2 on every line it touches.
const SWEEP_ELEMS: i64 = 160 * 1024;
/// Elements between two touched ones: one per SPARC-II L2 line.
const SWEEP_STRIDE: i64 = 8;
/// Invocations per run.
const SWEEP_INVOCATIONS: usize = 16;

/// A synthetic section that halves every `SWEEP_STRIDE`th element of
/// `out` and, while `flag[0]` is set, also stores to `extra` on each
/// step. Its arguments never change. Between invocations its stream
/// either flips `flag[0]` every fourth invocation (`TOGGLE`: equal
/// arguments no longer mean equal time) or writes `noise`, a region
/// outside the timing inputs (`SWEEP`).
struct Sweep {
    name: &'static str,
    program: Program,
    ts: FuncId,
}

impl Sweep {
    fn new(name: &'static str) -> Self {
        let mut program = Program::new();
        let flag = program.add_mem("flag", Type::I64, 1);
        let out = program.add_mem("out", Type::F64, SWEEP_ELEMS as usize);
        let extra = program.add_mem("extra", Type::F64, 1);
        program.add_mem("noise", Type::I64, 1);
        let mut b = FunctionBuilder::new("sweep", None);
        let n = b.param("n", Type::I64);
        let e = b.var("e", Type::I64);
        b.for_loop(e, 0i64, n, SWEEP_STRIDE, |b| {
            let x = b.load(Type::F64, MemRef::global(out, e));
            let y = b.binary(BinOp::FMul, x, 0.5f64);
            b.store(MemRef::global(out, e), y);
            let on = b.load(Type::I64, MemRef::global(flag, 0i64));
            b.if_then(on, |b| b.store(MemRef::global(extra, 0i64), y));
        });
        b.ret(None);
        let ts = program.add_func(b.finish());
        Sweep { name, program, ts }
    }
}

impl Workload for Sweep {
    fn name(&self) -> &'static str {
        self.name
    }
    fn ts_name(&self) -> &'static str {
        "sweep"
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn ts(&self) -> FuncId {
        self.ts
    }
    fn invocations(&self, _ds: Dataset) -> usize {
        SWEEP_INVOCATIONS
    }
    fn setup(&self, _ds: Dataset, _mem: &mut MemoryImage, _rng: &mut StdRng) {}
    fn args(
        &self,
        _ds: Dataset,
        inv: usize,
        mem: &mut MemoryImage,
        _rng: &mut StdRng,
    ) -> Vec<Value> {
        let written = if self.name == "TOGGLE" {
            "flag"
        } else {
            "noise"
        };
        let region = self.program.mem_by_name(written).unwrap();
        mem.store(region, 0, Value::I64((inv / 4 % 2) as i64));
        vec![Value::I64(SWEEP_ELEMS)]
    }
    fn other_cycles(&self, _ds: Dataset) -> u64 {
        0
    }
    fn paper_row(&self) -> PaperRow {
        PaperRow {
            method: "CBR",
            invocations_paper: SWEEP_INVOCATIONS as u64,
            contexts: 1,
        }
    }
}

/// Both loops over `w`'s train run of -O3 on `spec`: the oracle's
/// observations and how many invocations the fast path skipped.
fn sweep_runs(w: &Sweep, spec: &MachineSpec) -> (Observed, u64) {
    let e = engine(w.program(), w.ts(), OptConfig::o3(), spec, ExecTier::Jit);
    let opts = ExecOptions::default();
    let slow = simulate_all(w, Dataset::Train, spec, &*e, &opts, usize::MAX);
    let (fast, skipped) = run_engine_counted(w, Dataset::Train, spec, &*e, &opts, usize::MAX);
    assert_eq!(fast.0, slow.0, "{} {:?}: per invocation", w.name, spec.kind);
    assert_eq!(
        fast.1, slow.1,
        "{} {:?}: final machine counters",
        w.name, spec.kind
    );
    (slow, skipped)
}

#[test]
fn a_steady_state_that_misses_l2_is_fast_forwarded_exactly() {
    let w = Sweep::new("SWEEP");
    let flag = w.program().mem_by_name("flag").unwrap();
    let stream = peak_core::stream_cache::arg_stream(&w, Dataset::Train);
    assert_eq!(
        stream.written_regions,
        vec![w.program().mem_by_name("noise").unwrap()]
    );
    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        let e = engine(w.program(), w.ts(), OptConfig::o3(), &spec, ExecTier::Jit);
        let timing = e.timing_inputs().expect("bounded timing inputs");
        assert_eq!(&*timing.reads, &[flag], "the branch's region");
        assert!(timing.held_against(&stream.written_regions));
        let ((invs, metrics), skipped) = sweep_runs(&w, &spec);
        // The fixed point: every line of `out` misses L2 again in every
        // invocation, so the repeats charge L2 misses.
        let lines = (SWEEP_ELEMS / SWEEP_STRIDE.max(spec.l2.line_elems as i64)) as u64;
        assert!(
            metrics.l2_misses >= lines * SWEEP_INVOCATIONS as u64,
            "{:?}",
            spec.kind
        );
        assert!(
            invs.windows(2).skip(2).all(|p| p[0] == p[1]),
            "{:?}: steady",
            spec.kind
        );
        if peak_obs::metrics::enabled() {
            assert_eq!(skipped, SWEEP_INVOCATIONS as u64 - 3, "{:?}", spec.kind);
        }
    }
}

#[test]
fn a_branch_on_a_region_the_stream_writes_is_simulated_whole() {
    let w = Sweep::new("TOGGLE");
    let flag = w.program().mem_by_name("flag").unwrap();
    let stream = peak_core::stream_cache::arg_stream(&w, Dataset::Train);
    assert_eq!(stream.written_regions, vec![flag]);
    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        let e = engine(w.program(), w.ts(), OptConfig::o3(), &spec, ExecTier::Jit);
        let timing = e.timing_inputs().expect("bounded timing inputs");
        assert_eq!(&*timing.reads, &[flag], "the branch's region");
        assert!(
            !timing.held_against(&stream.written_regions),
            "the stream writes it"
        );
        let ((invs, _), skipped) = sweep_runs(&w, &spec);
        // Equal arguments, different time: a repeat charged from its
        // predecessor would be wrong at every flip.
        assert_eq!(
            invs[2].0, invs[3].0,
            "{:?}: a steady state between flips",
            spec.kind
        );
        assert_ne!(
            invs[3].0, invs[4].0,
            "{:?}: the flip changes the time",
            spec.kind
        );
        assert_eq!(skipped, 0, "{:?}: nothing fast-forwarded", spec.kind);
    }
}
