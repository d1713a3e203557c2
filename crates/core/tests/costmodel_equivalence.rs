//! End-to-end gates for the cost-model fast paths (DESIGN.md §16).
//!
//! The micro-level differentials live in peak-sim
//! (`costmodel_differential`); this suite pins the *integrated*
//! observables:
//!
//! - **Memoized argument streams** vs the live generator: a harness
//!   replaying the pooled recorded stream must be indistinguishable —
//!   same args, same memory evolution, same per-invocation and
//!   accumulated cycles, same cache/predictor state — across every
//!   workload × dataset.
//! - **Predictor updates across engines**: the jit engine's and the
//!   predecoded engine's updates at prepare-time table indices leave
//!   identical predictor stats and cycles across repeated invocations
//!   with carried machine state, over the passfuzz regression corpus and
//!   fresh generative programs; all three engines agree on a workload
//!   run through `RunHarness`.

use peak_core::RunHarness;
use peak_jit::JitOptions;
use peak_obs::Tracer;
use peak_opt::OptConfig;
use peak_sim::{
    AddressMap, ExecOptions, ExecTier, MachineSpec, MachineState, PreparedVersion, TierBackend,
};
use peak_workloads::{all_workloads, fuzzgen, Dataset, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn prepare(w: &dyn Workload, spec: &MachineSpec) -> PreparedVersion {
    PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()), spec)
}

/// Memoized replay vs live generation, all workloads × datasets: every
/// observable identical invocation by invocation.
#[test]
fn memoized_stream_matches_live_generation() {
    let specs = [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()];
    for (wi, w) in all_workloads().iter().enumerate() {
        let spec = &specs[wi % 2];
        let pv = prepare(w.as_ref(), spec);
        for ds in [Dataset::Train, Dataset::Ref] {
            let mut live =
                RunHarness::with_stream_mode(w.as_ref(), ds, spec, 7, None, false);
            let mut memo =
                RunHarness::with_stream_mode(w.as_ref(), ds, spec, 7, None, true);
            assert!(live.mem == memo.mem, "{} {ds:?}: post-setup memory", w.name());
            let n = w.invocations(ds).min(8);
            let opts = ExecOptions::default();
            for inv in 0..n {
                let la = live.next_args().expect("live stream has invocations");
                let ma = memo.next_args().expect("memoized stream has invocations");
                assert_eq!(la, ma, "{} {ds:?} inv {inv}: args", w.name());
                assert!(
                    live.mem == memo.mem,
                    "{} {ds:?} inv {inv}: pre-exec memory",
                    w.name()
                );
                let lr = live.execute(&pv, &la, &opts);
                let mr = memo.execute(&pv, &ma, &opts);
                assert_eq!(
                    lr.true_cycles, mr.true_cycles,
                    "{} {ds:?} inv {inv}: cycles",
                    w.name()
                );
                assert_eq!(lr.ret.is_some(), mr.ret.is_some());
                assert!(live.mem == memo.mem, "{} {ds:?} inv {inv}: memory", w.name());
            }
            assert_eq!(live.cycles(), memo.cycles(), "{} {ds:?}: total cycles", w.name());
            assert_eq!(
                live.machine.predictor.stats(),
                memo.machine.predictor.stats(),
                "{} {ds:?}: predictor state",
                w.name()
            );
            assert_eq!(
                live.machine.caches.l1.stats(),
                memo.machine.caches.l1.stats(),
                "{} {ds:?}: L1 state",
                w.name()
            );
        }
    }
}

// ---- predictor updates across tiers ----

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

/// Execute `engine` `reps` times against ONE carried machine state;
/// returns per-invocation cycles plus final predictor stats. Carried
/// state matters: the engines must stay in step while the predictor
/// table warms across invocations.
fn run_carried(
    engine: &dyn TierBackend,
    prog: &peak_ir::Program,
    machine: &MachineSpec,
    args: &[peak_ir::Value],
    reps: usize,
) -> (Vec<u64>, (u64, u64)) {
    let mem_lens: Vec<usize> = prog.mems.iter().map(|m| m.len).collect();
    let amap = AddressMap::new(&mem_lens);
    let mut state = MachineState::noiseless(machine.clone());
    let mut scratch = peak_sim::ExecScratch::new();
    let opts = ExecOptions::default();
    let mut cycles = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut mem = fuzzgen::init_memory(prog);
        let res = engine
            .execute(args, &mut mem, &amap, &mut state, &opts, &mut scratch)
            .expect("execution succeeds");
        cycles.push(res.true_cycles);
    }
    (cycles, state.predictor.stats())
}

/// The jit engine's predictor updates vs the predecoded engine's, over
/// the passfuzz corpus with carried state.
#[test]
fn jit_predictor_matches_predecoded_on_corpus() {
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
        let jv = peak_jit::lower(&pv, &JitOptions::from_env()).expect("entry lowers");
        let (pre_cycles, pre_stats) = run_carried(&pv, &e.prog, &e.machine, &e.args, 5);
        let (jit_cycles, jit_stats) = run_carried(&jv, &e.prog, &e.machine, &e.args, 5);
        assert_eq!(pre_cycles, jit_cycles, "{}: per-invocation cycles", e.name);
        assert_eq!(pre_stats, jit_stats, "{}: predictor stats", e.name);
    }
}

/// Same comparison over fresh generative programs
/// (`PEAK_COSTMODEL_SEEDS` scales it).
#[test]
fn jit_predictor_matches_predecoded_on_fresh_seeds() {
    let seeds: u64 = std::env::var("PEAK_COSTMODEL_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let machines = [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()];
    for seed in 0..seeds {
        let stmts = fuzzgen::gen_stmts(seed);
        let (prog, func) = fuzzgen::build_program(&stmts);
        let args = fuzzgen::gen_args(seed);
        let machine = &machines[(seed % 2) as usize];
        let cv = peak_opt::optimize(&prog, func, &OptConfig::o3());
        let pv = PreparedVersion::prepare(cv, machine);
        let Ok(jv) = peak_jit::lower(&pv, &JitOptions::from_env()) else {
            continue; // version declined lowering; nothing to compare
        };
        let (pre_cycles, pre_stats) = run_carried(&pv, &prog, machine, &args, 3);
        let (jit_cycles, jit_stats) = run_carried(&jv, &prog, machine, &args, 3);
        assert_eq!(pre_cycles, jit_cycles, "seed {seed}: cycles");
        assert_eq!(pre_stats, jit_stats, "seed {seed}: predictor stats");
    }
}

/// Each tier's engine run through `RunHarness` (the production path)
/// with memoized streams on: all three tiers produce identical cycles
/// and predictor evolution on a real workload.
#[test]
fn tiers_agree_under_memoized_streams() {
    let w = peak_workloads::swim::SwimCalc3::new();
    let spec = MachineSpec::sparc_ii();
    let pv = prepare(&w, &spec);
    let mut per_tier = Vec::new();
    for tier in ExecTier::ALL {
        let engine = peak_core::build_engine(pv.clone(), tier, &Tracer::disabled());
        assert_eq!(engine.tier(), tier);
        let mut h =
            RunHarness::with_stream_mode(&w, Dataset::Train, &spec, 7, None, true);
        let mut cycles = Vec::new();
        for _ in 0..6 {
            let args = h.next_args().unwrap();
            let r = h.execute(&*engine, &args, &ExecOptions::default());
            cycles.push(r.true_cycles);
        }
        per_tier.push((cycles, h.machine.predictor.stats(), h.cycles()));
    }
    assert_eq!(per_tier[0], per_tier[1], "interp vs predecoded");
    assert_eq!(per_tier[1], per_tier[2], "predecoded vs jit");
}
