//! passfuzz — deterministic differential-fuzz fleet for the optimizer.
//!
//! Each seed pins one scenario: a random generated program
//! (`peak_workloads::fuzzgen`), a random 38-flag configuration, a fixed
//! argument vector, and one of the two machine models. Every scenario is
//! pushed through four independent checks:
//!
//! 1. **oracle** — `peak_opt::optimize_checked` at
//!    [`ValidationLevel::Full`]: structural IR verification, the
//!    per-pass semantic observation diff over the validation battery,
//!    and bit-identity after every pass that reports no change;
//! 2. **alias** — the footprint reuse rule: every single removal of a
//!    flag the compile did not use, and two random subsets of those
//!    flags removed at once, each with random codegen flags, compile to
//!    a bit-identical program (`Program::bit_image`);
//! 3. **interp-diff** — end-to-end reference-interpreter equivalence of
//!    the original vs. fully optimized program on the seed's arguments
//!    (return value and final memory image);
//! 4. **machine-diff** — the optimized version executed on the cycle
//!    simulator (`peak_sim`) must produce the same return value and final
//!    memory as the reference interpreter run of the *original* program.
//!
//! Failures are shrunk greedily at the `GStmt` level to a minimal
//! statement list that still fails, then written to the regression corpus
//! (`crates/opt/tests/corpus/*.ir`) in the textual IR format with `#`
//! metadata headers; `corpus_replay.rs` re-runs every entry on each
//! `cargo test`. Exit status is non-zero iff any seed failed.
//!
//! ```text
//! cargo run --release -p peak-bench --bin passfuzz -- \
//!     [--start S] [--count N] [--corpus DIR] [--no-write] [--quiet]
//! ```

use peak_ir::{values_eq, Value};
use peak_opt::{CompiledVersion, OptConfig, ValidationLevel, CODEGEN_FLAGS};
use peak_sim::{AddressMap, ExecOptions, MachineSpec, MachineState, PreparedVersion};
use peak_workloads::fuzzgen::{
    build_program, gen_args, gen_stmts, node_count, render_program, run_reference,
    shrink_candidates, GStmt, SplitMix64,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Salt separating the config-bits stream from the program stream so the
/// same program shape is explored under many configurations as seeds
/// advance.
const CONFIG_SALT: u64 = 0xC0F1_6000_0000_0001;

/// Cap on candidate evaluations during shrinking (each evaluation re-runs
/// all four checks).
const SHRINK_BUDGET: usize = 600;

/// One check failure.
struct Failure {
    check: &'static str,
    detail: String,
}

fn machine_for(seed: u64) -> (&'static str, MachineSpec) {
    if seed.is_multiple_of(2) {
        ("sparc", MachineSpec::sparc_ii())
    } else {
        ("p4", MachineSpec::pentium_iv())
    }
}

/// The configs the footprint of `cv` claims compile like it: each single
/// removal of a flag it ran but did not use, and two random subsets of
/// those removed at once, each with random codegen flags.
fn covered_configs(cv: &CompiledVersion) -> Vec<OptConfig> {
    let fp = cv.footprint;
    let unused: Vec<_> =
        fp.ran.enabled_flags().into_iter().filter(|&f| !fp.used.enabled(f)).collect();
    let mut rng = SplitMix64::new(cv.config.bits() ^ CONFIG_SALT);
    let mut dropped: Vec<OptConfig> = unused.iter().map(|&f| cv.config.without(f)).collect();
    for _ in 0..2 {
        let r = rng.next_u64();
        let subset = unused.iter().enumerate().filter(|(i, _)| r >> i & 1 == 1);
        dropped.push(subset.fold(cv.config, |c, (_, &f)| c.without(f)));
    }
    dropped
        .into_iter()
        .map(|cfg| {
            let r = rng.next_u64();
            CODEGEN_FLAGS.iter().enumerate().fold(cfg, |c, (i, &f)| c.with(f, r >> i & 1 == 1))
        })
        .collect()
}

/// Run every check for one scenario.
fn check_scenario(
    stmts: &[GStmt],
    bits: u64,
    args: &[Value; 3],
    spec: &MachineSpec,
) -> Result<(), Failure> {
    let (prog, f) = build_program(stmts);
    let cfg = OptConfig::from_bits(bits);

    // Check 1: per-pass translation validation (structural + semantic).
    let cv = peak_opt::optimize_checked(&prog, f, &cfg, ValidationLevel::Full).map_err(|e| {
        Failure { check: "oracle", detail: e.to_string() }
    })?;

    // Check 2: every config the compile's footprint covers compiles to
    // the same bits.
    let image = cv.program.bit_image();
    for other in covered_configs(&cv) {
        if peak_opt::optimize(&prog, f, &other).program.bit_image() != image {
            return Err(Failure {
                check: "alias",
                detail: format!("{other} compiles unlike {cfg}, whose footprint it keeps"),
            });
        }
    }

    // Check 3: end-to-end interpreter equivalence on the seed arguments.
    let (r1, m1) = run_reference(&prog, f, args);
    let (r2, m2) = run_reference(&cv.program, cv.func, args);
    let rets_match = match (&r1, &r2) {
        (Some(a), Some(b)) => values_eq(a, b),
        (None, None) => true,
        _ => false,
    };
    if !rets_match {
        return Err(Failure {
            check: "interp-diff",
            detail: format!("return value {r1:?} vs {r2:?} (config {cfg})"),
        });
    }
    if m1 != m2 {
        return Err(Failure {
            check: "interp-diff",
            detail: format!("final memory images differ (config {cfg})"),
        });
    }

    // Check 4: the cycle simulator agrees with the reference interpreter.
    let pv = PreparedVersion::prepare(cv, spec);
    let mem_lens: Vec<usize> = prog.mems.iter().map(|m| m.len).collect();
    let amap = AddressMap::new(&mem_lens);
    let mut mem = peak_workloads::fuzzgen::init_memory(&prog);
    let mut state = MachineState::noiseless(spec.clone());
    let res = peak_sim::execute(&pv, args, &mut mem, &amap, &mut state, &ExecOptions::default())
        .map_err(|e| Failure {
            check: "machine-diff",
            detail: format!("simulator trapped: {e} (config {cfg})"),
        })?;
    let rets_match = match (&r1, &res.ret) {
        (Some(a), Some(b)) => values_eq(a, b),
        (None, None) => true,
        _ => false,
    };
    if !rets_match {
        return Err(Failure {
            check: "machine-diff",
            detail: format!("return value interp {r1:?} vs machine {:?} (config {cfg})", res.ret),
        });
    }
    if m1 != mem {
        return Err(Failure {
            check: "machine-diff",
            detail: format!("final memory interp vs machine differ (config {cfg})"),
        });
    }
    Ok(())
}

/// Greedy shrink: repeatedly take the first one-edit-smaller candidate
/// that still fails any check, until no candidate fails or the budget is
/// exhausted.
fn shrink(
    stmts: Vec<GStmt>,
    bits: u64,
    args: &[Value; 3],
    spec: &MachineSpec,
    mut fail: Failure,
) -> (Vec<GStmt>, Failure) {
    let mut cur = stmts;
    let mut budget = SHRINK_BUDGET;
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&cur) {
            if budget == 0 {
                return (cur, fail);
            }
            budget -= 1;
            if let Err(f) = check_scenario(&cand, bits, args, spec) {
                cur = cand;
                fail = f;
                improved = true;
                break;
            }
        }
        if !improved {
            return (cur, fail);
        }
    }
}

/// Write a corpus entry: `#` metadata headers (skipped by the IR parser)
/// followed by the program text, so `parse_program` on the whole file
/// yields the shrunk program.
fn write_corpus_entry(
    dir: &Path,
    seed: u64,
    bits: u64,
    machine: &str,
    args: &[Value; 3],
    fail: &Failure,
    stmts: &[GStmt],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let (prog, _) = build_program(stmts);
    let (Value::I64(a), Value::I64(b), Value::F64(x)) = (&args[0], &args[1], &args[2]) else {
        unreachable!("fuzz args are always (i64, i64, f64)");
    };
    let mut text = String::new();
    text.push_str("# passfuzz counterexample (autogenerated; replayed by corpus_replay.rs)\n");
    text.push_str(&format!("# seed: {seed}\n"));
    text.push_str(&format!("# config_bits: {bits:#018x}\n"));
    text.push_str(&format!("# machine: {machine}\n"));
    text.push_str(&format!("# args: {a} {b} {:#018x}\n", x.to_bits()));
    text.push_str(&format!("# check: {}\n", fail.check));
    for line in fail.detail.lines() {
        text.push_str(&format!("# detail: {line}\n"));
    }
    text.push_str(&format!("# nodes: {}\n", node_count(stmts)));
    text.push_str(&render_program(&prog));
    let path = dir.join(format!("fuzz_{seed:016x}.ir"));
    std::fs::write(&path, text)?;
    Ok(path)
}

struct Options {
    start: u64,
    count: u64,
    corpus: PathBuf,
    write: bool,
    quiet: bool,
}

fn parse_args() -> Options {
    let default_corpus =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../opt/tests/corpus"));
    let mut opts = Options {
        start: 0,
        count: 1000,
        corpus: default_corpus,
        write: true,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("passfuzz: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--start" => opts.start = val("--start").parse().expect("--start: u64"),
            "--count" => opts.count = val("--count").parse().expect("--count: u64"),
            "--corpus" => opts.corpus = PathBuf::from(val("--corpus")),
            "--no-write" => opts.write = false,
            "--quiet" => opts.quiet = true,
            other => {
                eprintln!(
                    "passfuzz: unknown argument {other}\n\
                     usage: passfuzz [--start S] [--count N] [--corpus DIR] [--no-write] [--quiet]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut failures = 0u64;
    let started = std::time::Instant::now();
    for seed in opts.start..opts.start + opts.count {
        let stmts = gen_stmts(seed);
        let bits = SplitMix64::new(seed ^ CONFIG_SALT).next_u64();
        let args = gen_args(seed);
        let (mname, spec) = machine_for(seed);
        if let Err(fail) = check_scenario(&stmts, bits, &args, &spec) {
            failures += 1;
            eprintln!(
                "passfuzz: seed {seed} FAILED [{}] {} — shrinking…",
                fail.check, fail.detail
            );
            let (small, fail) = shrink(stmts, bits, &args, &spec, fail);
            eprintln!(
                "passfuzz: seed {seed} shrunk to {} nodes [{}] {}",
                node_count(&small),
                fail.check,
                fail.detail
            );
            if opts.write {
                match write_corpus_entry(
                    &opts.corpus, seed, bits, mname, &args, &fail, &small,
                ) {
                    Ok(p) => eprintln!("passfuzz: counterexample written to {}", p.display()),
                    Err(e) => eprintln!("passfuzz: could not write corpus entry: {e}"),
                }
            }
        }
        if !opts.quiet && (seed + 1 - opts.start).is_multiple_of(100) {
            println!(
                "passfuzz: {}/{} seeds, {failures} failures, {:.1}s",
                seed + 1 - opts.start,
                opts.count,
                started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "passfuzz: {} seeds [{}..{}), {} failures, {:.1}s",
        opts.count,
        opts.start,
        opts.start + opts.count,
        failures,
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
