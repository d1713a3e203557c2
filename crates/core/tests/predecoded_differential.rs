//! Differential suite for the pre-decoded executor.
//!
//! Two independent oracles pin the executor down:
//!
//! 1. **Semantics** — the cycle-charging executor must compute exactly
//!    what the reference interpreter ([`peak_ir::interp::Interp`])
//!    computes on the same optimized program: same return values, same
//!    instrumentation counters, same memory side effects. The performance
//!    model may only *charge*, never *change*.
//! 2. **Cycles** — `true_cycles` and total run cycles must stay
//!    bit-identical across executor rewrites. The checked-in golden
//!    (`tests/goldens/exec_cycles.json`) was generated by the
//!    pre-pre-decode executor; any drift means the performance model
//!    changed, which invalidates every number in the paper tables.
//!
//! Both oracles check every engine — interp, predecoded (the jit
//! tier's fallback) and jit — each built by `build_engine` for its tier,
//! so the suite is one golden for every engine.
//!
//! Regenerate the golden (only when the cycle model changes
//! *intentionally*) with:
//!
//! ```text
//! cargo test -p peak-core --test predecoded_differential \
//!     -- --ignored regenerate_exec_cycles_golden
//! ```

use peak_core::RunHarness;
use peak_obs::Tracer;
use peak_opt::{Flag, OptConfig};
use peak_sim::{ExecOptions, ExecTier, MachineKind, MachineSpec, PreparedVersion, TierBackend};
use peak_util::Json;
use peak_workloads::{workload_by_name, Dataset, Workload};
use std::sync::Arc;

/// Invocations recorded per scenario (kept small: this runs under the
/// debug profile in CI).
const INVOCATIONS: usize = 6;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/exec_cycles.json");

/// Configs that exercise every flag-dependent path the executor
/// specializes at prepare time (coalescing, post-RA scheduling, register
/// renaming, delay slots, caller-saves) plus the O0/O3 extremes.
fn scenario_configs() -> Vec<(&'static str, OptConfig)> {
    vec![
        ("o3", OptConfig::o3()),
        ("o0", OptConfig::o0()),
        ("o3-no-coalesce", OptConfig::o3().without(Flag::RegAllocCoalesce)),
        ("o3-no-sched2", OptConfig::o3().without(Flag::ScheduleInsns2)),
        ("o3-no-rename", OptConfig::o3().without(Flag::RenameRegisters)),
        ("o3-no-delay", OptConfig::o3().without(Flag::DelayedBranch)),
        ("o3-no-csave", OptConfig::o3().without(Flag::CallerSaves)),
    ]
}

fn scenario_workloads() -> Vec<Box<dyn Workload>> {
    // One FP/loop TS (CBR), one pointer-chasing TS rated by the RBR
    // inspector (exercises record_writes), one integer TS.
    ["swim", "vortex", "gzip"]
        .iter()
        .map(|n| workload_by_name(n).expect("known workload"))
        .collect()
}

fn machines() -> [MachineSpec; 2] {
    [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()]
}

fn prepare(w: &dyn Workload, cfg: &OptConfig, spec: &MachineSpec) -> PreparedVersion {
    PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), cfg), spec)
}

/// `tier`'s engine for `pv`; every scenario lowers, so none falls back.
fn engine(pv: PreparedVersion, tier: ExecTier) -> Arc<dyn TierBackend> {
    let engine = peak_core::build_engine(pv, tier, &Tracer::disabled());
    assert_eq!(engine.tier(), tier, "the scenario runs on the engine it names");
    engine
}

/// One scenario's observed numbers: per-invocation true cycles (with
/// `record_writes` off and on) and the run-total cycles.
struct Observed {
    workload: &'static str,
    machine: &'static str,
    config: &'static str,
    config_bits: u64,
    cycles: Vec<u64>,
    recorded_cycles: Vec<u64>,
    writes_len: Vec<u64>,
    total_cycles: u64,
}

fn observe_all(tier: ExecTier) -> Vec<Observed> {
    let mut out = Vec::new();
    for w in scenario_workloads() {
        for spec in machines() {
            for (cname, cfg) in scenario_configs() {
                let engine = engine(prepare(w.as_ref(), &cfg, &spec), tier);
                let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 7);
                let plain = ExecOptions::default();
                let record = ExecOptions { record_writes: true, num_counters: 0 };
                let mut cycles = Vec::new();
                let mut recorded_cycles = Vec::new();
                let mut writes_len = Vec::new();
                for i in 0..INVOCATIONS {
                    let args = h.next_args().expect("invocation budget");
                    // Alternate recording so the golden pins both paths
                    // against the same cache/predictor history.
                    if i % 2 == 0 {
                        let r = h.execute(&*engine, &args, &plain);
                        cycles.push(r.true_cycles);
                    } else {
                        let r = h.execute(&*engine, &args, &record);
                        recorded_cycles.push(r.true_cycles);
                        writes_len.push(r.writes.len() as u64);
                    }
                }
                out.push(Observed {
                    workload: w.name(),
                    machine: spec.kind.name(),
                    config: cname,
                    config_bits: cfg.bits(),
                    cycles,
                    recorded_cycles,
                    writes_len,
                    total_cycles: h.cycles(),
                });
            }
        }
    }
    out
}

fn u64s(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::U(x)).collect())
}

fn observed_to_json(rows: &[Observed]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::Str(r.workload.to_owned())),
                    ("machine", Json::Str(r.machine.to_owned())),
                    ("config", Json::Str(r.config.to_owned())),
                    ("config_bits", Json::U(r.config_bits)),
                    ("cycles", u64s(&r.cycles)),
                    ("recorded_cycles", u64s(&r.recorded_cycles)),
                    ("writes_len", u64s(&r.writes_len)),
                    ("total_cycles", Json::U(r.total_cycles)),
                ])
            })
            .collect(),
    )
}

/// Regenerates the checked-in golden. Run explicitly (`--ignored`) and
/// only when a cycle-model change is intended.
#[test]
#[ignore]
fn regenerate_exec_cycles_golden() {
    let rows = observe_all(ExecTier::default());
    let json = peak_util::to_string_pretty(&observed_to_json(&rows));
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, json + "\n").unwrap();
    eprintln!("wrote {} scenarios to {GOLDEN}", rows.len());
}

#[test]
fn true_cycles_bit_identical_to_golden() {
    let text = std::fs::read_to_string(GOLDEN)
        .expect("golden missing: run the ignored regenerate_exec_cycles_golden test");
    let golden = peak_util::from_str(&text).expect("golden parses");
    let golden = golden.as_arr().expect("golden is an array");
    for tier in ExecTier::ALL {
        let rows = observe_all(tier);
        assert_eq!(golden.len(), rows.len(), "scenario list drifted; regenerate the golden");
        for (g, r) in golden.iter().zip(&rows) {
            let id = format!("{} / {} / {} [{tier}]", r.workload, r.machine, r.config);
            assert_eq!(g.get("workload").and_then(Json::as_str), Some(r.workload), "{id}");
            assert_eq!(g.get("machine").and_then(Json::as_str), Some(r.machine), "{id}");
            assert_eq!(g.get("config_bits").and_then(Json::as_u64), Some(r.config_bits), "{id}");
            let gold_u64s = |key: &str| -> Vec<u64> {
                g.get(key)
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_u64).collect())
                    .unwrap_or_default()
            };
            assert_eq!(gold_u64s("cycles"), r.cycles, "true_cycles drifted: {id}");
            assert_eq!(
                gold_u64s("recorded_cycles"),
                r.recorded_cycles,
                "record_writes true_cycles drifted: {id}"
            );
            assert_eq!(gold_u64s("writes_len"), r.writes_len, "write log drifted: {id}");
            assert_eq!(
                g.get("total_cycles").and_then(Json::as_u64),
                Some(r.total_cycles),
                "run-total cycles drifted: {id}"
            );
        }
    }
}

/// Every engine and the reference interpreter, fed the same optimized
/// program and the same deterministic invocation stream, must agree on
/// return values, counters, and memory side effects — the cycle model is
/// observation-only.
#[test]
fn executor_matches_reference_interpreter() {
    for tier in ExecTier::ALL {
        for w in scenario_workloads() {
            for (cname, cfg) in [("o3", OptConfig::o3()), ("o0", OptConfig::o0())] {
                let spec = MachineSpec::sparc_ii();
                let pv = prepare(w.as_ref(), &cfg, &spec);
                let engine = engine(pv.clone(), tier);
                let interp = peak_ir::interp::Interp::default();
                // Two harnesses, same dataset: identical args + memory streams.
                let mut h_exec = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 1);
                let mut h_ref = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 2);
                let opts = ExecOptions { record_writes: true, num_counters: 0 };
                for _ in 0..INVOCATIONS {
                    let args_e = h_exec.next_args().expect("budget");
                    let args_r = h_ref.next_args().expect("budget");
                    assert_eq!(args_e, args_r, "{}: invocation streams diverged", w.name());
                    let got = h_exec.execute(&*engine, &args_e, &opts);
                    let want = interp
                        .run(&pv.version.program, pv.version.func, &args_r, &mut h_ref.mem)
                        .expect("reference interpreter succeeds");
                    let id = format!("{} / {cname} [{tier}]", w.name());
                    assert_eq!(got.ret, want.ret, "return value diverged: {id}");
                    assert_eq!(got.counters, want.counters, "counters diverged: {id}");
                }
                // Memory side effects identical across the whole run.
                for m in 0..pv.version.program.mems.len() {
                    let m = peak_ir::MemId(m as u32);
                    assert_eq!(
                        h_exec.mem.buf(m),
                        h_ref.mem.buf(m),
                        "{} [{tier}]: memory region {m:?} diverged",
                        w.name()
                    );
                }
            }
        }
    }
}

#[test]
fn machine_kind_names_are_stable_golden_keys() {
    assert_eq!(MachineKind::SparcII.name(), machines()[0].kind.name());
    assert_eq!(MachineKind::PentiumIV.name(), machines()[1].kind.name());
}
