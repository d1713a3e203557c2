//! Per-version engine build through the version cache: an entry is
//! lowered when it is built and runs lowered code from its first
//! invocation; when lowering declines, the entry keeps its predecoded
//! engine for good — the version a fresh compile prepares, with
//! bit-identical results, one `jit.deopt` trace event, and the right
//! metric deltas.
//!
//! This lives in its own test binary because it manipulates
//! process-global state (the `PEAK_JIT_MAX_STMTS` env knob and the
//! metrics registry); the tests below serialize on one lock so neither
//! sees the other's counter deltas.

use peak_core::{Pool, RunHarness, VersionCache, VersionKey};
use peak_obs::metrics::{self, MetricsRegistry};
use peak_obs::{BufferSink, Tracer};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, ExecResult, ExecTier, MachineSpec, PreparedVersion, TierBackend};
use peak_workloads::{workload_by_name, Dataset, Workload};
use std::sync::{Arc, Mutex, MutexGuard};

const INVOCATIONS: usize = 4;

fn global_state() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    metrics::set_enabled(true);
    peak_core::register_jit_metrics();
    guard
}

fn counter(name: &str) -> u64 {
    MetricsRegistry::global().snapshot().counter(name).unwrap_or(0)
}

fn jit_key(w: &dyn Workload, spec: &MachineSpec) -> VersionKey {
    VersionKey::plain(w, OptConfig::o3(), spec.kind)
}

fn compile(w: &dyn Workload) -> peak_opt::CompiledVersion {
    peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3())
}

/// `INVOCATIONS` invocations of `engine` on a fresh seed-7 run: the
/// results and the run's total cycles.
fn run(w: &dyn Workload, spec: &MachineSpec, engine: &dyn TierBackend) -> (Vec<ExecResult>, u64) {
    let mut h = RunHarness::new(w, Dataset::Train, spec, 7);
    let mut results = Vec::new();
    for _ in 0..INVOCATIONS {
        let args = h.next_args().expect("budget");
        results.push(h.execute(engine, &args, &ExecOptions::default()));
    }
    (results, h.cycles())
}

fn assert_identical(want: &(Vec<ExecResult>, u64), got: &(Vec<ExecResult>, u64), what: &str) {
    for (w_r, g_r) in want.0.iter().zip(&got.0) {
        assert_eq!(w_r.ret, g_r.ret, "{what} changed results");
        assert_eq!(w_r.true_cycles, g_r.true_cycles, "{what} changed cycles");
    }
    assert_eq!(want.1, got.1, "{what} changed accumulated machine state");
}

#[test]
fn declined_lowering_falls_back_to_predecoded_with_identical_results() {
    let _state = global_state();
    // A one-statement budget: every real workload declines to lower.
    std::env::set_var("PEAK_JIT_MAX_STMTS", "1");

    let w = workload_by_name("swim").expect("known workload");
    let spec = MachineSpec::sparc_ii();

    // Reference: the predecoded engine, same seed and argument stream.
    let direct = PreparedVersion::prepare(compile(w.as_ref()), &spec);
    let want = run(w.as_ref(), &spec, &direct);

    // Jit-tier entry against the throttled budget: lowering declines
    // once, at build, and the entry keeps its predecoded engine.
    let before_deopts = counter("core.jit.deopts");
    let before_pre = counter("core.jit.tier_invocations.predecoded");
    let before_jit = counter("core.jit.tier_invocations.jit");
    let before_blocks = counter("core.jit.blocks_compiled");

    let sink = Arc::new(BufferSink::new());
    let tracer = Tracer::to_sink(sink.clone());
    let cache = VersionCache::new();
    let engine =
        cache.get_or_prepare(jit_key(w.as_ref(), &spec), &spec, &tracer, || compile(w.as_ref()));
    assert_eq!(engine.tier(), ExecTier::Predecoded, "declined version keeps its predecoded engine");
    // The only entry that keeps a prepared version equals an uncached
    // compile field by field.
    let cached = engine.prepared().expect("a declined entry keeps its prepared version");
    assert_eq!(cached.spill_slot, direct.spill_slot);
    assert_eq!(cached.slot_base, direct.slot_base);
    assert_eq!(cached.live_across_calls, direct.live_across_calls);
    assert_eq!(cached.over_icache, direct.over_icache);
    assert_eq!(cached.version.code_size, direct.version.code_size);
    assert_eq!(cached.version.config.bits(), direct.version.config.bits());
    let again = cache.get_or_prepare(jit_key(w.as_ref(), &spec), &spec, &tracer, || {
        unreachable!("the declined entry is cached, not rebuilt")
    });
    assert!(Arc::ptr_eq(&engine, &again));
    let got = run(w.as_ref(), &spec, &*engine);
    assert_identical(&want, &got, "fallback");

    // Telemetry: one deopt, all invocations charged to the predecoded
    // tier, nothing charged to jit, nothing compiled.
    assert_eq!(counter("core.jit.deopts") - before_deopts, 1, "exactly one deopt");
    assert_eq!(
        counter("core.jit.tier_invocations.predecoded") - before_pre,
        INVOCATIONS as u64,
        "fallback invocations count against the predecoded tier"
    );
    assert_eq!(counter("core.jit.tier_invocations.jit"), before_jit, "no jit-tier executions");
    assert_eq!(counter("core.jit.blocks_compiled"), before_blocks, "nothing lowered");

    // The decline is traced exactly once (the entry is built once).
    let deopt_lines: Vec<String> =
        sink.lines().into_iter().filter(|l| l.contains("jit.deopt")).collect();
    assert_eq!(deopt_lines.len(), 1, "one jit.deopt event, not one per invocation");
    assert!(
        deopt_lines[0].contains("budget"),
        "deopt reason names the statement budget: {}",
        deopt_lines[0]
    );

    // With the budget lifted, a fresh entry lowers at build and runs on
    // the jit tier — still bit-identical to the reference.
    std::env::remove_var("PEAK_JIT_MAX_STMTS");
    let engine = VersionCache::new().get_or_prepare(
        jit_key(w.as_ref(), &spec),
        &spec,
        &Tracer::disabled(),
        || compile(w.as_ref()),
    );
    assert_eq!(engine.tier(), ExecTier::Jit);
    let lowered_blocks = counter("core.jit.blocks_compiled");
    assert!(lowered_blocks > before_blocks, "lowering counted its blocks at build");
    let got = run(w.as_ref(), &spec, &*engine);
    assert_identical(&want, &got, "jit");
    assert_eq!(
        counter("core.jit.tier_invocations.jit") - before_jit,
        INVOCATIONS as u64,
        "unthrottled entry executes on the jit tier"
    );
    assert_eq!(counter("core.jit.blocks_compiled"), lowered_blocks, "execution lowers nothing");
}

/// The cache contract for jit-tier entries: whether built by
/// `get_or_prepare` or on the pool by `warm`, an entry is already lowered
/// when it is handed out — executing it advances
/// `core.jit.tier_invocations.jit` and leaves `core.jit.blocks_compiled`
/// unchanged.
#[test]
fn jit_entries_are_lowered_before_first_use() {
    let _state = global_state();
    let w = workload_by_name("mgrid").expect("known workload");
    let spec = MachineSpec::pentium_iv();
    let prog = w.program();
    let ts = w.ts();

    let built = VersionCache::new();
    let direct =
        built.get_or_prepare(jit_key(w.as_ref(), &spec), &spec, &Tracer::disabled(), || {
            compile(w.as_ref())
        });
    let warmed = VersionCache::new();
    let requests =
        vec![(jit_key(w.as_ref(), &spec), move || peak_opt::optimize(prog, ts, &OptConfig::o3()))];
    warmed.warm(&Pool::with_threads(2), &spec, &Tracer::disabled(), requests);
    let hit = warmed.get_or_prepare(jit_key(w.as_ref(), &spec), &spec, &Tracer::disabled(), || {
        unreachable!("a warmed key hits")
    });
    assert_eq!(warmed.stats().hits, 1);

    for (what, engine) in [("get_or_prepare", direct), ("warm", hit)] {
        let blocks = counter("core.jit.blocks_compiled");
        let jit = counter("core.jit.tier_invocations.jit");
        let _ = run(w.as_ref(), &spec, &*engine);
        assert_eq!(
            counter("core.jit.tier_invocations.jit") - jit,
            INVOCATIONS as u64,
            "{what}: entry runs lowered code"
        );
        assert_eq!(counter("core.jit.blocks_compiled"), blocks, "{what}: already lowered");
    }
}
