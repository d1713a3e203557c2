//! Differential suite for the threaded-code (jit) execution tier.
//!
//! The tier ladder's contract is *bit-identical observables*: results,
//! instrumentation counters, write logs, per-invocation `true_cycles`,
//! and accumulated machine state may not differ between tiers. The
//! 42-scenario cycle golden checks the jit engine beside the others
//! (`predecoded_differential`); two more oracles pin it down here:
//!
//! 1. **The passfuzz regression corpus** — every shrunk divergence the
//!    differential-fuzz fleet ever found (`peak-opt`'s
//!    `tests/corpus/*.ir`) replays through the jit backend and must
//!    match the reference interpreter and the predecoded executor.
//! 2. **Fresh generative programs** — `PEAK_JIT_FUZZ_SEEDS` seeds
//!    (default 300; CI cranks this up) of `fuzzgen` programs, each
//!    compiled at O0 and O3 and compared against both oracles.

use peak_jit::JitOptions;
use peak_opt::OptConfig;
use peak_sim::{AddressMap, ExecOptions, MachineSpec, MachineState, PreparedVersion, TierBackend};
use peak_workloads::fuzzgen;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

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
