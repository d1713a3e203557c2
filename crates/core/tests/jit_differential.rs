//! Differential suite for the threaded-code (jit) execution tier.
//!
//! The tier ladder's contract is *bit-identical observables*: results,
//! instrumentation counters, write logs, per-invocation `true_cycles`,
//! and accumulated machine state may not differ between tiers. Three
//! oracles pin the jit tier down:
//!
//! 1. **The predecoded cycle golden** — the exact same 42-scenario
//!    golden that gates the predecoded executor
//!    (`tests/goldens/exec_cycles.json`) must reproduce byte-for-byte
//!    with the harness running lowered code. One golden, every tier.
//! 2. **The passfuzz regression corpus** — every shrunk divergence the
//!    differential-fuzz fleet ever found (`peak-opt`'s
//!    `tests/corpus/*.ir`) replays through the jit backend and must
//!    match the reference interpreter and the predecoded executor.
//! 3. **Fresh generative programs** — `PEAK_JIT_FUZZ_SEEDS` seeds
//!    (default 300; CI cranks this up) of `fuzzgen` programs, each
//!    compiled at O0 and O3 and compared against both oracles.

use peak_core::RunHarness;
use peak_jit::JitOptions;
use peak_obs::Tracer;
use peak_opt::{Flag, OptConfig};
use peak_sim::{
    AddressMap, ExecOptions, ExecTier, MachineSpec, MachineState, PreparedVersion, TierBackend,
};
use peak_util::Json;
use peak_workloads::{fuzzgen, workload_by_name, Dataset, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const INVOCATIONS: usize = 6;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/exec_cycles.json");

/// Same scenario grid as `predecoded_differential.rs` — the golden is
/// shared, so the grids must stay in lockstep.
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
    ["swim", "vortex", "gzip"]
        .iter()
        .map(|n| workload_by_name(n).expect("known workload"))
        .collect()
}

fn prepare(w: &dyn Workload, cfg: &OptConfig, spec: &MachineSpec) -> PreparedVersion {
    PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), cfg), spec)
}

/// The predecoded differential's observation loop, on jit-tier engines.
#[test]
fn jit_tier_reproduces_exec_cycles_golden() {
    let text = std::fs::read_to_string(GOLDEN)
        .expect("golden missing: run predecoded_differential's regenerate test");
    let golden = peak_util::from_str(&text).expect("golden parses");
    let golden = golden.as_arr().expect("golden is an array");

    let mut row = 0;
    for w in scenario_workloads() {
        for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
            for (cname, cfg) in scenario_configs() {
                let engine = peak_core::build_engine(
                    prepare(w.as_ref(), &cfg, &spec),
                    ExecTier::Jit,
                    &Tracer::disabled(),
                );
                assert_eq!(engine.tier(), ExecTier::Jit, "scenario lowers");
                let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, 7);
                let plain = ExecOptions::default();
                let record = ExecOptions { record_writes: true, num_counters: 0 };
                let mut cycles = Vec::new();
                let mut recorded_cycles = Vec::new();
                let mut writes_len = Vec::new();
                for i in 0..INVOCATIONS {
                    let args = h.next_args().expect("invocation budget");
                    if i % 2 == 0 {
                        let r = h.execute(&*engine, &args, &plain);
                        cycles.push(r.true_cycles);
                    } else {
                        let r = h.execute(&*engine, &args, &record);
                        recorded_cycles.push(r.true_cycles);
                        writes_len.push(r.writes.len() as u64);
                    }
                }
                let g = &golden[row];
                row += 1;
                let id = format!("{} / {} / {cname} [jit]", w.name(), spec.kind.name());
                let gold_u64s = |key: &str| -> Vec<u64> {
                    g.get(key)
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default()
                };
                assert_eq!(
                    g.get("workload").and_then(Json::as_str),
                    Some(w.name()),
                    "scenario order drifted: {id}"
                );
                assert_eq!(gold_u64s("cycles"), cycles, "true_cycles drifted: {id}");
                assert_eq!(
                    gold_u64s("recorded_cycles"),
                    recorded_cycles,
                    "record_writes true_cycles drifted: {id}"
                );
                assert_eq!(gold_u64s("writes_len"), writes_len, "write log drifted: {id}");
                assert_eq!(
                    g.get("total_cycles").and_then(Json::as_u64),
                    Some(h.cycles()),
                    "run-total cycles drifted: {id}"
                );
            }
        }
    }
    assert_eq!(row, golden.len(), "scenario grid out of lockstep with the golden");
}

// ---- passfuzz corpus replay through the jit backend ----

struct Entry {
    name: String,
    prog: peak_ir::Program,
    func: peak_ir::FuncId,
    cfg: OptConfig,
    machine: MachineSpec,
    args: [peak_ir::Value; 3],
}

fn parse_hex_u64(s: &str) -> u64 {
    let t = s.trim().trim_start_matches("0x");
    u64::from_str_radix(t, 16).unwrap_or_else(|e| panic!("bad hex {s:?}: {e}"))
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../opt/tests/corpus")
}

fn parse_entry(path: &Path) -> Entry {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut headers: HashMap<String, String> = HashMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix('#') else { continue };
        if let Some((k, v)) = rest.split_once(':') {
            headers.entry(k.trim().to_string()).or_insert_with(|| v.trim().to_string());
        }
    }
    let bits = parse_hex_u64(headers.get("config_bits").expect("config_bits header"));
    let machine = match headers.get("machine").map(String::as_str) {
        Some("p4") => MachineSpec::pentium_iv(),
        _ => MachineSpec::sparc_ii(),
    };
    let parts: Vec<&str> =
        headers.get("args").expect("args header").split_whitespace().collect();
    let args = [
        peak_ir::Value::I64(parts[0].parse().unwrap()),
        peak_ir::Value::I64(parts[1].parse().unwrap()),
        peak_ir::Value::F64(f64::from_bits(parse_hex_u64(parts[2]))),
    ];
    let prog = peak_ir::parse_program(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let func = prog.func_by_name("gen").expect("corpus function 'gen'");
    Entry { name, prog, func, cfg: OptConfig::from_bits(bits), machine, args }
}

/// Run `pv` once on a fresh noiseless machine through the given tier's
/// executor; returns (result, final memory).
fn run_once(
    pv: &PreparedVersion,
    prog: &peak_ir::Program,
    machine: &MachineSpec,
    args: &[peak_ir::Value],
    jit: bool,
) -> (peak_sim::ExecResult, peak_ir::MemoryImage) {
    let mem_lens: Vec<usize> = prog.mems.iter().map(|m| m.len).collect();
    let amap = AddressMap::new(&mem_lens);
    let mut mem = fuzzgen::init_memory(prog);
    let mut state = MachineState::noiseless(machine.clone());
    let opts = ExecOptions::default();
    let res = if jit {
        let jv = peak_jit::lower(pv, &JitOptions::from_env()).expect("corpus entry lowers");
        let mut scratch = peak_sim::ExecScratch::new();
        jv.execute(args, &mut mem, &amap, &mut state, &opts, &mut scratch)
    } else {
        peak_sim::execute(pv, args, &mut mem, &amap, &mut state, &opts)
    }
    .expect("execution succeeds");
    (res, mem)
}

/// Every corpus entry must replay identically on the jit backend: same
/// return as the reference interpreter, same final memory, and
/// bit-identical `true_cycles` with the predecoded executor.
#[test]
fn jit_replays_passfuzz_corpus() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|d| d.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "regression corpus is empty");
    for p in &paths {
        let e = parse_entry(p);
        let cv = peak_opt::optimize(&e.prog, e.func, &e.cfg);
        let pv = PreparedVersion::prepare(cv, &e.machine);
        let (want_ret, want_mem) = fuzzgen::run_reference(&pv.version.program, pv.version.func, &e.args);
        let (pre, pre_mem) = run_once(&pv, &e.prog, &e.machine, &e.args, false);
        let (jit, jit_mem) = run_once(&pv, &e.prog, &e.machine, &e.args, true);
        let id = &e.name;
        match (&want_ret, &jit.ret) {
            (Some(a), Some(b)) if peak_ir::values_eq(a, b) => {}
            (None, None) => {}
            _ => panic!("{id}: jit return {:?} vs interpreter {want_ret:?}", jit.ret),
        }
        assert_eq!(jit_mem, want_mem, "{id}: jit final memory diverged from interpreter");
        assert_eq!(jit.true_cycles, pre.true_cycles, "{id}: jit cycles diverged");
        assert_eq!(jit_mem, pre_mem, "{id}: jit memory diverged from predecoded");
    }
    println!("corpus: {} entries replayed clean under jit", paths.len());
}

/// Fresh generative programs: jit vs reference interpreter (semantics)
/// and jit vs predecoded (cycles), across O0 and O3 on both machines.
#[test]
fn jit_matches_interpreter_on_fresh_seeds() {
    let seeds: u64 = std::env::var("PEAK_JIT_FUZZ_SEEDS")
        .ok()
        .map(|s| s.parse().expect("PEAK_JIT_FUZZ_SEEDS: not a count"))
        .unwrap_or(300);
    let machines = [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()];
    let mut lowered = 0u64;
    for seed in 0..seeds {
        let stmts = fuzzgen::gen_stmts(seed);
        let (prog, func) = fuzzgen::build_program(&stmts);
        let args = fuzzgen::gen_args(seed);
        let (want_ret, want_mem) = fuzzgen::run_reference(&prog, func, &args);
        for cfg in [OptConfig::o0(), OptConfig::o3()] {
            let machine = &machines[(seed % 2) as usize];
            let cv = peak_opt::optimize(&prog, func, &cfg);
            let pv = PreparedVersion::prepare(cv, machine);
            let (opt_ret, opt_mem) =
                fuzzgen::run_reference(&pv.version.program, pv.version.func, &args);
            // The optimizer itself is gated elsewhere; skip seeds where
            // the pipeline already changed observables (none known).
            match (&want_ret, &opt_ret) {
                (Some(a), Some(b)) if peak_ir::values_eq(a, b) => {}
                (None, None) => {}
                _ => panic!("seed {seed}: optimizer broke semantics"),
            }
            assert_eq!(want_mem, opt_mem, "seed {seed}: optimizer broke memory");
            let (pre, pre_mem) = run_once(&pv, &prog, machine, &args, false);
            let (jit, jit_mem) = run_once(&pv, &prog, machine, &args, true);
            lowered += 1;
            let id = format!("seed {seed} / {:?}", machine.kind);
            match (&want_ret, &jit.ret) {
                (Some(a), Some(b)) if peak_ir::values_eq(a, b) => {}
                (None, None) => {}
                _ => panic!("{id}: jit return {:?} vs interpreter {want_ret:?}", jit.ret),
            }
            assert_eq!(jit_mem, want_mem, "{id}: jit final memory diverged");
            assert_eq!(jit.true_cycles, pre.true_cycles, "{id}: cycles diverged");
            assert_eq!(jit.ret, pre.ret, "{id}: returns diverged across tiers");
            assert_eq!(jit_mem, pre_mem, "{id}: memory diverged across tiers");
        }
    }
    println!("fuzz: {lowered} program×config pairs bit-identical under jit");
}
