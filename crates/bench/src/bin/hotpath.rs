//! Hot-path microbenchmarks and their gates. Each run does one mode and
//! writes that mode's artifact, `--json PATH` or the file named below:
//!
//! ```text
//! cargo run --release -p peak-bench --bin hotpath -- \
//!     [--search | --obs | --jit | --costmodel | --strategies] \
//!     [--machine sparc|p4|both] [--bench NAME] [--min-ms N] \
//!     [--tier interp|predecoded|jit] [--json PATH]
//! ```
//!
//! | mode | artifact | flags it reads besides `--json` | passes when |
//! |---|---|---|---|
//! | (none) rates sweep | `BENCH_hotpath.json` | machine, bench, min-ms, tier | every cache hit rate is 0.5 |
//! | `--search` | `BENCH_search.json` | — | outputs match at every thread count; Table 1 ≥1.2× at ≥2 threads |
//! | `--obs` | `BENCH_obs.json` | min-ms, tier | metrics cost ≤2% |
//! | `--jit` | `BENCH_jit.json` | machine, bench, min-ms | jit slower than predecoded on ≤25% of pairs |
//! | `--costmodel` | `BENCH_costmodel.json` | machine, bench, min-ms | median jit speedup ≤25% below the 1.752x baseline |
//! | `--strategies` | `BENCH_strategies.json` | machine, bench | per pair ≥97% of random, geomean ≥99.5%, thread-identical |
//!
//! Every artifact is one object: the mode's summary fields, `pass`, and
//! `records`, one per workload×machine pair (per thread count for
//! `--search`), keyed by `workload` and `machine`. The run exits 1 when
//! `pass` is false, and 2 with its usage line, before any timing, on two
//! modes, an unknown flag, or a flag its mode does not read. Machines
//! default to both, benchmarks to all, `--min-ms` (the time a timed
//! workload×machine pair should take) to 300 and `--tier` to jit. Rates
//! are wall-clock and machine-dependent; the gates divide host speed out
//! where they can.

use peak_bench::{machine_kinds, select_benchmarks, Flags};
use peak_core::consultant::Method;
use peak_core::{build_engine, Pool, RunHarness, SearchResult, TuningSetup, VersionCache};
use peak_obs::Tracer;
use peak_opt::{Flag, OptConfig, ALL_FLAGS};
use peak_sim::{ExecOptions, ExecTier, MachineKind, MachineSpec, PreparedVersion, TierBackend};
use peak_util::Json;
use peak_workloads::{Dataset, Workload};
use std::time::Instant;

const USAGE: &str = "hotpath [--search | --obs | --jit | --costmodel | --strategies] \
                     [--machine sparc|p4|both] [--bench NAME] [--min-ms N] \
                     [--tier interp|predecoded|jit] [--json PATH]";

/// The rates sweep's cache hit rate: the replayed request stream's
/// second round hits every config its first round compiled.
const CACHE_HIT_RATE: f64 = 0.5;
/// `--obs`: the most the metrics may slow the hot path, in percent.
const OBS_GATE_PCT: f64 = 2.0;
/// `--jit`: the largest share of pairs, in percent, on which jit may run
/// slower than predecoded.
const JIT_GATE_PCT: f64 = 25.0;
/// `--costmodel`: the largest drop, in percent, of the median speedup
/// below [`COSTMODEL_BASELINE`].
const COSTMODEL_TOLERANCE_PCT: f64 = 25.0;
/// `--costmodel`: the median jit-vs-predecoded speedup the gate compares
/// against, measured on the two SWIM pairs (`--bench swim`, 256
/// invocations per slice, 5 rounds): 1.752x on SPARC-II and 1.497x on
/// Pentium-IV, whose median (the upper of two) is the SPARC-II pair's.
/// A constant, so that a regenerated artifact cannot move it.
const COSTMODEL_BASELINE: f64 = 1.752;
/// `--strategies`: per pair, how far GA or clustered IE may fall below
/// random's quality, in percent.
const STRATEGIES_TOLERANCE_PCT: f64 = 3.0;
/// `--strategies`: how far the geomean quality of either may fall below
/// random's across the grid, in percent.
const STRATEGIES_AGG_TOLERANCE_PCT: f64 = 0.5;

/// Distinct configs used for the compile and cache measurements: -O3 plus
/// one-flag-off neighbours — the request stream of an Iterative
/// Elimination first round.
const NEIGHBOUR_FLAGS: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Rates,
    Search,
    Obs,
    Jit,
    Costmodel,
    Strategies,
}

/// Each mode's switch; a run given none sweeps the rates.
const MODES: [(&str, Mode); 5] = [
    ("--search", Mode::Search),
    ("--obs", Mode::Obs),
    ("--jit", Mode::Jit),
    ("--costmodel", Mode::Costmodel),
    ("--strategies", Mode::Strategies),
];

const VALUE_FLAGS: [&str; 5] = ["--machine", "--bench", "--min-ms", "--tier", "--json"];

impl Mode {
    /// The value flags the mode reads.
    fn reads(self) -> &'static [&'static str] {
        match self {
            Mode::Rates => &VALUE_FLAGS,
            Mode::Search => &["--json"],
            Mode::Obs => &["--min-ms", "--tier", "--json"],
            Mode::Jit | Mode::Costmodel => &["--machine", "--bench", "--min-ms", "--json"],
            Mode::Strategies => &["--machine", "--bench", "--json"],
        }
    }

    /// The artifact the mode writes unless `--json` names another.
    fn artifact(self) -> &'static str {
        match self {
            Mode::Rates => "BENCH_hotpath.json",
            Mode::Search => "BENCH_search.json",
            Mode::Obs => "BENCH_obs.json",
            Mode::Jit => "BENCH_jit.json",
            Mode::Costmodel => "BENCH_costmodel.json",
            Mode::Strategies => "BENCH_strategies.json",
        }
    }
}

/// The one mode `flags` asks for, provided it reads every flag given.
fn mode(flags: &Flags) -> Result<Mode, String> {
    let asked: Vec<&(&str, Mode)> = MODES.iter().filter(|(s, _)| flags.has(s)).collect();
    let (switch, mode) = match asked[..] {
        [] => ("the rates sweep", Mode::Rates),
        [&(switch, mode)] => (switch, mode),
        _ => {
            let asked: Vec<&str> = asked.iter().map(|(s, _)| *s).collect();
            return Err(format!("one mode per run, not {}", asked.join(" and ")));
        }
    };
    match flags.names().find(|f| VALUE_FLAGS.contains(f) && !mode.reads().contains(f)) {
        Some(f) => Err(format!("{switch} reads no {f}")),
        None => Ok(mode),
    }
}

fn main() {
    let switches = MODES.map(|(s, _)| s);
    let flags = Flags::from_env(USAGE, &VALUE_FLAGS, &switches, 0);
    let mode = flags.or_exit(mode(&flags));
    let json = flags.value("--json").unwrap_or(mode.artifact());
    let min_ms: u64 = flags.parsed("--min-ms", 300);
    let tier = flags.or_exit(flags.value("--tier").map_or(Ok(ExecTier::default()), |t| {
        ExecTier::parse(t).ok_or(format!("unknown tier `{t}` (expected interp, predecoded or jit)"))
    }));
    let kinds = flags.or_exit(machine_kinds(flags.value("--machine").unwrap_or("both")));
    let workloads = flags.or_exit(select_benchmarks(
        peak_workloads::all_workloads(),
        |w| w.name(),
        flags.value("--bench"),
    ));
    let pass = match mode {
        Mode::Rates => rates_bench(json, &workloads, &kinds, min_ms, tier),
        Mode::Search => search_bench(json, &workloads),
        Mode::Obs => obs_bench(json, min_ms, tier),
        Mode::Jit => jit_bench(json, &workloads, &kinds, min_ms),
        Mode::Costmodel => costmodel_bench(json, &workloads, &kinds, min_ms),
        Mode::Strategies => strategies_bench(json, &workloads, &kinds),
    };
    if !pass {
        eprintln!("error: the gate failed; see `pass` in {json}");
        std::process::exit(1);
    }
}

/// Write one mode's artifact to `path`: its `summary` fields, then
/// `pass`, then `records`. Returns `pass`.
fn write_artifact(
    path: &str,
    mut summary: Vec<(&str, Json)>,
    pass: bool,
    records: Vec<Json>,
) -> bool {
    summary.push(("pass", Json::Bool(pass)));
    summary.push(("records", Json::Arr(records)));
    std::fs::write(path, Json::obj(summary).pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
    pass
}

/// One artifact record: its `workload` and `machine` key, then `fields`.
fn record<const N: usize>(w: &dyn Workload, kind: MachineKind, fields: [(&str, Json); N]) -> Json {
    let mut pairs = vec![
        ("workload", Json::Str(w.name().to_owned())),
        ("machine", Json::Str(kind.name().to_owned())),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// 1, 2 and the default thread count, ascending and without repeats: the
/// thread counts `--search` times and `--strategies` replays.
fn thread_legs() -> Vec<usize> {
    let mut legs = vec![1, 2, peak_core::default_threads()];
    legs.sort_unstable();
    legs.dedup();
    legs
}

fn neighbour_configs() -> Vec<OptConfig> {
    let mut cfgs = vec![OptConfig::o3()];
    cfgs.extend(
        ALL_FLAGS[..NEIGHBOUR_FLAGS]
            .iter()
            .map(|&f: &Flag| OptConfig::o3().without(f)),
    );
    cfgs
}

/// The prepared -O3 version of `w` on `spec`.
fn prepare_o3(w: &dyn Workload, spec: &MachineSpec) -> PreparedVersion {
    PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()), spec)
}

/// Time uncached compile+prepare over the neighbour configs, repeating
/// the sweep until `min_ms` elapsed.
fn time_compiles(w: &dyn Workload, spec: &MachineSpec, min_ms: u64) -> (u64, f64) {
    let cfgs = neighbour_configs();
    let budget = std::time::Duration::from_millis(min_ms);
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        for cfg in &cfgs {
            let pv = PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), cfg), spec);
            std::hint::black_box(&pv);
            n += 1;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    (n, start.elapsed().as_secs_f64())
}

/// Replay an Iterative-Elimination-shaped request stream (two rounds over
/// the neighbour configs) against a fresh cache and return its hit rate.
/// Deterministic: round one misses, round two hits.
fn cache_hit_rate(w: &dyn Workload, spec: &MachineSpec) -> f64 {
    let cache = VersionCache::new();
    for _round in 0..2 {
        for cfg in neighbour_configs() {
            let _ = cache.prepare_workload(w, spec, cfg);
        }
    }
    let s = cache.stats();
    s.hits as f64 / (s.hits + s.misses).max(1) as f64
}

/// The rates sweep, the perf trajectory's base record. Per
/// workload×machine pair: invocations/sec of the -O3 version on `tier`'s
/// engine over a fixed invocation count sized to run about `min_ms`,
/// compiles/sec of uncached compile+prepare over -O3 and its neighbours,
/// and the version cache's hit rate on the replayed request stream,
/// which must be exactly [`CACHE_HIT_RATE`].
fn rates_bench(
    json_path: &str,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
    min_ms: u64,
    tier: ExecTier,
) -> bool {
    println!("hotpath — invocations/sec ({tier} tier) and compiles/sec per workload×machine");
    println!(
        "{:<10} {:>9} | {:>16} {:>14} {:>14}",
        "workload", "machine", "invocations/s", "compiles/s", "cache hit rate"
    );
    let mut records = Vec::new();
    let mut pass = true;
    for w in workloads {
        for &kind in kinds {
            let spec = MachineSpec::of(kind);
            let engine = build_engine(prepare_o3(w.as_ref(), &spec), tier, &Tracer::disabled());
            let invocations = slice_size(w.as_ref(), &spec, &*engine, min_ms, 1).max(1);
            let invoke_secs = timed_fixed_invocations(w.as_ref(), &spec, &*engine, invocations);
            let (compiles, compile_secs) = time_compiles(w.as_ref(), &spec, min_ms.min(150));
            let hit_rate = cache_hit_rate(w.as_ref(), &spec);
            pass &= hit_rate == CACHE_HIT_RATE;
            let invocations_per_sec = invocations as f64 / invoke_secs.max(1e-9);
            let compiles_per_sec = compiles as f64 / compile_secs.max(1e-9);
            println!(
                "{:<10} {:>9} | {invocations_per_sec:>16.0} {compiles_per_sec:>14.0} {hit_rate:>14.2}",
                w.name(),
                kind.name(),
            );
            records.push(record(
                w.as_ref(),
                kind,
                [
                    ("invocations_per_sec", Json::F(invocations_per_sec)),
                    ("compiles_per_sec", Json::F(compiles_per_sec)),
                    ("cache_hit_rate", Json::F(hit_rate)),
                    ("invocations", Json::U(invocations)),
                    ("invoke_secs", Json::F(invoke_secs)),
                    ("compiles", Json::U(compiles)),
                    ("compile_secs", Json::F(compile_secs)),
                ],
            ));
        }
    }
    println!();
    let summary = vec![
        ("tier", Json::Str(tier.name().to_owned())),
        ("pairs", Json::U(records.len() as u64)),
        ("expected_cache_hit_rate", Json::F(CACHE_HIT_RATE)),
    ];
    write_artifact(json_path, summary, pass, records)
}

/// The cost-model no-regression gate behind `--costmodel`. Per
/// workload×machine pair: interleaved fixed-work slices of the
/// predecoded and jit engines, medians, and the jit-vs-predecoded
/// speedup *ratio*. The gate compares the median ratio against
/// [`COSTMODEL_BASELINE`]: ratios divide out host speed, so the baseline
/// is portable across CI machines where absolute wall-clock is not. A
/// run regresses when its median ratio falls more than
/// [`COSTMODEL_TOLERANCE_PCT`] percent below the baseline.
fn costmodel_bench(
    json_path: &str,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
    min_ms: u64,
) -> bool {
    let base = COSTMODEL_BASELINE;
    println!("cost-model gate — jit tier vs predecoded, {AB_ROUNDS} interleaved rounds per pair");
    println!(
        "{:<10} {:>9} | {:>13} {:>13} {:>9}",
        "workload", "machine", "predecoded/s", "tier/s", "speedup"
    );
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for w in workloads {
        for &kind in kinds {
            let spec = MachineSpec::of(kind);
            let tiers = [ExecTier::Predecoded, ExecTier::Jit];
            let (slice, rates) = interleaved_rates(w.as_ref(), &spec, &tiers, min_ms);
            let (pre, fast) = (rates[0], rates[1]);
            let ratio = fast / pre.max(1e-9);
            ratios.push(ratio);
            println!(
                "{:<10} {:>9} | {pre:>13.0} {fast:>13.0} {ratio:>8.2}x",
                w.name(),
                kind.name(),
            );
            rows.push(record(
                w.as_ref(),
                kind,
                [
                    ("invocations_per_slice", Json::U(slice)),
                    ("rounds", Json::U(AB_ROUNDS as u64)),
                    ("predecoded_per_sec", Json::F(pre)),
                    ("tier_per_sec", Json::F(fast)),
                    ("speedup_vs_predecoded", Json::F(ratio)),
                ],
            ));
        }
    }
    let med_ratio = median(&ratios);
    let regression_pct = (base - med_ratio) / base * 100.0;
    let pass = regression_pct <= COSTMODEL_TOLERANCE_PCT;
    println!();
    println!(
        "cost-model gate — median jit speedup {med_ratio:.2}x vs baseline {base:.2}x \
         ({regression_pct:+.1}% regression, tolerance {COSTMODEL_TOLERANCE_PCT}%)"
    );
    let summary = vec![
        ("tier", Json::Str(ExecTier::Jit.name().to_owned())),
        ("pairs", Json::U(rows.len() as u64)),
        ("median_speedup_vs_predecoded", Json::F(med_ratio)),
        ("baseline_median_speedup", Json::F(base)),
        ("regression_pct", Json::F(regression_pct)),
        ("tolerance_pct", Json::F(COSTMODEL_TOLERANCE_PCT)),
    ];
    write_artifact(json_path, summary, pass, rows)
}

/// The tier A/B comparison behind `--jit`. For every workload×machine
/// pair: interleaved fixed-work slices of the three execution tiers
/// (rotating tier order per round cancels thermal/frequency drift),
/// medians per tier, and the jit-vs-predecoded speedup. Passes when the
/// share of pairs where jit is *slower* than predecoded stays at or
/// under [`JIT_GATE_PCT`].
fn jit_bench(
    json_path: &str,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
    min_ms: u64,
) -> bool {
    println!("jit tier A/B — {AB_ROUNDS} interleaved rounds per workload×machine");
    println!(
        "{:<10} {:>9} | {:>13} {:>13} {:>13} {:>9}",
        "workload", "machine", "interp/s", "predecoded/s", "jit/s", "jit/pre"
    );
    let mut rows = Vec::new();
    let mut slower = 0usize;
    let mut fast5 = 0usize;
    for w in workloads {
        for &kind in kinds {
            let spec = MachineSpec::of(kind);
            let (slice, rates) = interleaved_rates(w.as_ref(), &spec, &ExecTier::ALL, min_ms);
            let (interp, pre, jit) = (rates[0], rates[1], rates[2]);
            let speedup = jit / pre.max(1e-9);
            if speedup < 1.0 {
                slower += 1;
            }
            if speedup >= 5.0 {
                fast5 += 1;
            }
            println!(
                "{:<10} {:>9} | {interp:>13.0} {pre:>13.0} {jit:>13.0} {speedup:>8.2}x",
                w.name(),
                kind.name(),
            );
            rows.push(record(
                w.as_ref(),
                kind,
                [
                    ("invocations_per_slice", Json::U(slice)),
                    ("rounds", Json::U(AB_ROUNDS as u64)),
                    ("interp_per_sec", Json::F(interp)),
                    ("predecoded_per_sec", Json::F(pre)),
                    ("jit_per_sec", Json::F(jit)),
                    ("jit_speedup_vs_predecoded", Json::F(speedup)),
                    ("interp_slowdown_vs_predecoded", Json::F(pre / interp.max(1e-9))),
                ],
            ));
        }
    }
    let pairs = rows.len().max(1);
    let slower_pct = slower as f64 / pairs as f64 * 100.0;
    println!();
    println!(
        "jit gate — {slower}/{pairs} pairs slower than predecoded ({slower_pct:.0}%, \
         gate {JIT_GATE_PCT}%); {fast5}/{pairs} pairs at ≥5x"
    );
    let summary = vec![
        ("pairs", Json::U(pairs as u64)),
        ("jit_slower_pairs", Json::U(slower as u64)),
        ("jit_slower_pct", Json::F(slower_pct)),
        ("jit_5x_or_better_pairs", Json::U(fast5 as u64)),
        ("gate_pct", Json::F(JIT_GATE_PCT)),
    ];
    write_artifact(json_path, summary, slower_pct <= JIT_GATE_PCT, rows)
}

/// The search-strategy shoot-out behind `--strategies`. Per
/// workload×machine pair: the serial-reference IE search runs first with
/// no cap, and its unique-configuration spend becomes the pair's
/// `CompilationBudget`; GA, phase-clustered IE, and biased random search
/// then run capped at exactly that budget, so every strategy pays for
/// the same number of distinct configurations. Quality is the
/// train-input production speedup over -O3; the ref-input speedup (the
/// Figure 7 generalization framing) and a shared re-rating of all four
/// winners in one frontier (the searches' own objective under identical
/// windows) ride along in the artifact. Every strategy replays at each
/// of [`thread_legs`]; the runs must be bit-identical — the simulator is
/// deterministic, so any divergence is a seeding or merge-order bug, not
/// noise. The quality gate is two-level. Per pair, GA and clustered IE
/// must each stay within [`STRATEGIES_TOLERANCE_PCT`] of random's
/// quality — a catastrophe guard: no-free-lunch means scatter sampling
/// legitimately wins individual pairs by a couple percent at
/// one-frontier budgets, but a structured strategy losing big anywhere
/// is a real search bug. Across the grid, each must be geomean
/// non-inferior to random within [`STRATEGIES_AGG_TOLERANCE_PCT`] —
/// random may win pairs, it must not win the war.
fn strategies_bench(
    json_path: &str,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
) -> bool {
    use peak_core::{production_time, search_with_strategy_spent, strategy_seed, StrategyKind};

    let threads = thread_legs();
    println!(
        "strategy shoot-out — GA / clustered IE / random at IE's budget, threads {threads:?}"
    );
    println!(
        "{:<10} {:>9} {:>7} | {:>8} {:>8} {:>9} {:>8}",
        "workload", "machine", "budget", "ie", "ga", "clustered", "random"
    );
    let mut rows = Vec::new();
    let mut quality_failures = 0usize;
    let mut identity_failures = 0usize;
    // Σ ln(q_strategy / q_random) across pairs — exp(mean) is the
    // geomean quality ratio the aggregate gate checks.
    let mut log_ga = 0.0f64;
    let mut log_cl = 0.0f64;
    for w in workloads {
        for &kind in kinds {
            let spec = MachineSpec::of(kind);
            let seed = strategy_seed(w.name(), kind.name());
            // One strategy leg, replayed across the thread matrix; the
            // 1-thread run is the reference, and any divergence at 2 or
            // the default count fails the identity gate. The warm global
            // version cache makes the replays nearly free — the budget
            // charges unique configurations, not compiles, so warmth
            // cannot change any result.
            let run_legs =
                |sk: StrategyKind, budget: Option<usize>| -> (SearchResult, usize, bool) {
                    let mut reference: Option<(SearchResult, usize)> = None;
                    let mut identical = true;
                    for &t in &threads {
                        let pool = Pool::with_threads(t);
                        let mut setup =
                            TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
                        let (r, s) = search_with_strategy_spent(
                            &mut setup, &pool, Method::Cbr, sk, budget, seed,
                        );
                        match &reference {
                            None => reference = Some((r, s)),
                            Some((r0, s0)) => {
                                identical &= r.best == r0.best
                                    && r.disabled_flags == r0.disabled_flags
                                    && r.ratings == r0.ratings
                                    && r.switches == r0.switches
                                    && s == *s0;
                            }
                        }
                    }
                    let (r, s) = reference.expect("at least one thread leg");
                    (r, s, identical)
                };
            let (ie, ie_spent, ie_id) = run_legs(StrategyKind::Ie, None);
            let budget = Some(ie_spent);
            let (ga, ga_spent, ga_id) = run_legs(StrategyKind::Ga, budget);
            let (cl, cl_spent, cl_id) = run_legs(StrategyKind::ClusteredIe, budget);
            let (rnd, rnd_spent, rnd_id) = run_legs(StrategyKind::Random, budget);
            let identical = ie_id && ga_id && cl_id && rnd_id;
            if !identical {
                identity_failures += 1;
            }
            // Quality: production-time speedup over -O3 on the train
            // input (the tuning objective's ground truth), with the
            // ref-input speedup and a shared winner re-rating reported
            // alongside. The per-pair gate is a catastrophe band: the
            // searches pick winners by windowed TS ratings whose
            // round-to-round reproducibility is ~1%, and at one-frontier
            // budgets random's scatter sampling can legitimately land a
            // multi-flag combination no structured search at the same
            // budget would rate — so single-pair losses of a couple
            // percent are expected, and the per-pair gate only catches a
            // strategy losing by a margin a user would feel. Systematic
            // inferiority is the aggregate geomean gate's job.
            let o3_train = production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Train);
            let o3_ref = production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Ref);
            let quality = |r: &SearchResult, ds: Dataset, o3: u64| {
                o3 as f64 / (production_time(w.as_ref(), &spec, r.best, ds) as f64).max(1.0)
            };
            let train_q = |r: &SearchResult| quality(r, Dataset::Train, o3_train);
            let ref_q = |r: &SearchResult| quality(r, Dataset::Ref, o3_ref);
            let (q_ie, q_ga, q_cl, q_rnd) =
                (train_q(&ie), train_q(&ga), train_q(&cl), train_q(&rnd));
            let winners = [ie.best, ga.best, cl.best, rnd.best];
            let rated: Vec<f64> = {
                let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
                peak_core::rate(&mut setup, Method::Cbr, OptConfig::o3(), &winners)
                    .map(|o| o.improvements)
                    .unwrap_or_else(|| vec![1.0; winners.len()])
            };
            let floor = q_rnd * (1.0 - STRATEGIES_TOLERANCE_PCT / 100.0);
            let quality_ok = q_ga >= floor && q_cl >= floor;
            if !quality_ok {
                quality_failures += 1;
            }
            log_ga += (q_ga / q_rnd).ln();
            log_cl += (q_cl / q_rnd).ln();
            println!(
                "{:<10} {:>9} {:>7} | {:>8.4} {:>8.4} {:>9.4} {:>8.4}{}",
                w.name(),
                kind.name(),
                ie_spent,
                q_ie,
                q_ga,
                q_cl,
                q_rnd,
                if quality_ok && identical { "" } else { "  FAIL" }
            );
            let strat_json = |name: &str, r: &SearchResult, spent: usize, q: f64, ri: f64| {
                Json::obj(vec![
                    ("strategy", Json::Str(name.to_owned())),
                    ("train_quality_vs_o3", Json::F(q)),
                    ("ref_quality_vs_o3", Json::F(ref_q(r))),
                    ("rerated_improvement", Json::F(ri)),
                    ("budget_spent", Json::U(spent as u64)),
                    ("ratings", Json::U(r.ratings as u64)),
                    (
                        "disabled_flags",
                        Json::Arr(
                            r.disabled_flags.iter().map(|f| Json::Str(f.clone())).collect(),
                        ),
                    ),
                ])
            };
            rows.push(record(
                w.as_ref(),
                kind,
                [
                    ("budget", Json::U(ie_spent as u64)),
                    ("thread_identical", Json::Bool(identical)),
                    ("quality_gate_ok", Json::Bool(quality_ok)),
                    (
                        "strategies",
                        Json::Arr(vec![
                            strat_json("ie", &ie, ie_spent, q_ie, rated[0]),
                            strat_json("ga", &ga, ga_spent, q_ga, rated[1]),
                            strat_json("clustered", &cl, cl_spent, q_cl, rated[2]),
                            strat_json("random", &rnd, rnd_spent, q_rnd, rated[3]),
                        ]),
                    ),
                ],
            ));
        }
    }
    let pairs = rows.len();
    // Aggregate gate: geomean quality ratio vs random across the grid.
    let gm_ga = (log_ga / (pairs.max(1)) as f64).exp();
    let gm_cl = (log_cl / (pairs.max(1)) as f64).exp();
    let agg_floor = 1.0 - STRATEGIES_AGG_TOLERANCE_PCT / 100.0;
    let aggregate_ok = gm_ga >= agg_floor && gm_cl >= agg_floor;
    println!();
    println!(
        "strategy gate — {pairs} pairs: {quality_failures} quality failures, \
         {identity_failures} thread-identity failures; \
         geomean vs random: ga {gm_ga:.4}, clustered {gm_cl:.4} \
         (floor {agg_floor:.4}{})",
        if aggregate_ok { "" } else { ", FAIL" }
    );
    let summary = vec![
        ("pairs", Json::U(pairs as u64)),
        ("threads", Json::Arr(threads.iter().map(|&t| Json::U(t as u64)).collect())),
        ("tolerance_pct", Json::F(STRATEGIES_TOLERANCE_PCT)),
        ("agg_tolerance_pct", Json::F(STRATEGIES_AGG_TOLERANCE_PCT)),
        (
            "geomean_vs_random",
            Json::obj(vec![("ga", Json::F(gm_ga)), ("clustered", Json::F(gm_cl))]),
        ),
        ("aggregate_gate_ok", Json::Bool(aggregate_ok)),
        ("quality_gate_failures", Json::U(quality_failures as u64)),
        ("thread_identity_failures", Json::U(identity_failures as u64)),
    ];
    let pass = quality_failures == 0 && identity_failures == 0 && aggregate_ok;
    write_artifact(json_path, summary, pass, rows)
}

/// Run exactly `count` TS invocations on `engine` and return wall
/// seconds — the fixed-work slice every timed mode measures.
fn timed_fixed_invocations(
    w: &dyn Workload,
    spec: &MachineSpec,
    engine: &dyn TierBackend,
    count: u64,
) -> f64 {
    let opts = ExecOptions::default();
    let mut n = 0u64;
    let mut seed = 7u64;
    let start = Instant::now();
    'outer: loop {
        let mut h = RunHarness::new(w, Dataset::Train, spec, seed);
        seed += 1;
        while let Some(args) = h.next_args() {
            let _ = h.execute(engine, &args, &opts);
            n += 1;
            if n >= count {
                break 'outer;
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// Invocations per slice so that `slices` slices on `engine` run about
/// `min_ms` together: 64 untimed invocations materialize the argument
/// stream, then 512 timed ones set the rate.
fn slice_size(
    w: &dyn Workload,
    spec: &MachineSpec,
    engine: &dyn TierBackend,
    min_ms: u64,
    slices: usize,
) -> u64 {
    let _ = timed_fixed_invocations(w, spec, engine, 64);
    let rate = 512.0 / timed_fixed_invocations(w, spec, engine, 512).max(1e-9);
    (rate * (min_ms as f64 / 1000.0) / slices as f64) as u64
}

/// Rounds of interleaved slices in the `--jit` and `--costmodel` A/B.
const AB_ROUNDS: usize = 5;

/// Invocations/sec of the -O3 version of `w` on the engine of each of
/// `tiers`, all built from one prepared version: `AB_ROUNDS` rounds of
/// one fixed-work slice per engine, rotating which engine goes first
/// each round so drift favours none, and the median per engine. The
/// predecoded engine sizes the slice so each runs roughly
/// `min_ms / AB_ROUNDS`. Returns the slice and the rates in `tiers`
/// order.
fn interleaved_rates(
    w: &dyn Workload,
    spec: &MachineSpec,
    tiers: &[ExecTier],
    min_ms: u64,
) -> (u64, Vec<f64>) {
    let pv = prepare_o3(w, spec);
    let engines: Vec<_> =
        tiers.iter().map(|&t| build_engine(pv.clone(), t, &Tracer::disabled())).collect();
    let pre = tiers
        .iter()
        .position(|&t| t == ExecTier::Predecoded)
        .expect("a predecoded engine to calibrate on");
    let slice = slice_size(w, spec, &*engines[pre], min_ms, AB_ROUNDS).clamp(256, 1 << 20);
    let mut secs = vec![Vec::with_capacity(AB_ROUNDS); engines.len()];
    for round in 0..AB_ROUNDS {
        for k in 0..engines.len() {
            let i = (round + k) % engines.len();
            secs[i].push(timed_fixed_invocations(w, spec, &*engines[i], slice));
        }
    }
    (slice, secs.iter().map(|s| slice as f64 / median(s).max(1e-9)).collect())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// The metrics-overhead gate behind `--obs`, on SWIM/SPARC-II. Runs
/// pairs of back-to-back metrics-on and metrics-off slices of the same
/// fixed invocation count on `tier`'s engine, and passes when the median
/// over pairs of the on/off time ratio exceeds 1 by at most
/// [`OBS_GATE_PCT`] percent. A pair's two slices share whatever the host
/// was doing at the time, so its ratio cancels a host slowdown spanning
/// both, and the median drops the pairs a slowdown split. Slices are
/// short, so that most pairs fall between a noisy host's slow spells,
/// and pairs are many, so that the median has enough of those to stand
/// on.
fn obs_bench(json_path: &str, min_ms: u64, tier: ExecTier) -> bool {
    use peak_obs::metrics;

    const PAIRS: usize = 41;
    let w = peak_workloads::workload_by_name("swim").expect("swim workload");
    let kind = MachineKind::SparcII;
    let spec = MachineSpec::of(kind);
    let engine = build_engine(prepare_o3(w.as_ref(), &spec), tier, &Tracer::disabled());
    // The PAIRS slices of each side run for roughly min_ms together.
    let slice = slice_size(w.as_ref(), &spec, &*engine, min_ms, PAIRS).max(1);
    let restore = metrics::enabled();
    let mut on = Vec::with_capacity(PAIRS);
    let mut off = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        // Alternate which side goes first so slow-start/thermal drift
        // within a pair cannot systematically favour one side.
        let order = if pair % 2 == 0 { [false, true] } else { [true, false] };
        for enabled in order {
            metrics::set_enabled(enabled);
            let secs = timed_fixed_invocations(w.as_ref(), &spec, &*engine, slice);
            if enabled { on.push(secs) } else { off.push(secs) }
        }
    }
    metrics::set_enabled(restore);
    let ratios: Vec<f64> = on.iter().zip(&off).map(|(a, b)| a / b.max(1e-9)).collect();
    let overhead_pct = (median(&ratios) - 1.0) * 100.0;
    println!(
        "obs overhead gate — {slice} invocations/slice × {PAIRS} interleaved pairs: \
         median on/off time ratio → {overhead_pct:+.2}% (gate {OBS_GATE_PCT}%)"
    );
    let slices = record(
        w.as_ref(),
        kind,
        [
            ("tier", Json::Str(engine.tier().name().to_owned())),
            ("invocations_per_slice", Json::U(slice)),
            ("pairs", Json::U(PAIRS as u64)),
            ("on_secs", Json::Arr(on.iter().map(|&s| Json::F(s)).collect())),
            ("off_secs", Json::Arr(off.iter().map(|&s| Json::F(s)).collect())),
            ("overhead_pct", Json::F(overhead_pct)),
        ],
    );
    let summary =
        vec![("overhead_pct", Json::F(overhead_pct)), ("gate_pct", Json::F(OBS_GATE_PCT))];
    write_artifact(json_path, summary, overhead_pct <= OBS_GATE_PCT, vec![slices])
}

/// Scheduler scaling benchmark behind `--search`, on SPARC-II: at each of
/// [`thread_legs`], time the Table 1 sweep over `workloads` (every one:
/// the mode reads no `--bench`) and a 2-round pooled IE search on SWIM,
/// one record per thread count. The
/// global version cache is cleared before every timing so each one pays
/// (and, at >1 threads, parallelizes) the same compile work. Passes when
/// both outputs are identical at every thread count and, with at least
/// two default threads, the sweep runs at least 1.2× faster at the
/// default count than on one thread.
fn search_bench(json_path: &str, workloads: &[Box<dyn Workload>]) -> bool {
    use peak_core::{FrontierRater, IterativeElimination, SearchStrategy};

    const SEARCH_ROUNDS: usize = 2;
    const MIN_TABLE1_SPEEDUP: f64 = 1.2;
    let default_threads = peak_core::default_threads();
    let legs = thread_legs();
    println!("search scaling — thread counts {legs:?} (default {default_threads})");
    let kind = MachineKind::SparcII;
    let spec = MachineSpec::of(kind);
    let swim = peak_workloads::workload_by_name("swim").expect("swim workload");
    let mut records = Vec::new();
    let mut outputs: Vec<(Vec<String>, SearchResult)> = Vec::new();
    let mut secs: Vec<(f64, f64)> = Vec::new();
    for &k in &legs {
        let pool = Pool::with_threads(k);
        VersionCache::global().clear();
        let start = Instant::now();
        let rows: Vec<String> = peak_bench::table1_rows(&pool, workloads, &spec, None)
            .iter()
            .map(peak_bench::render_consistency_row)
            .collect();
        let t1_secs = start.elapsed().as_secs_f64();
        VersionCache::global().clear();
        let mut setup = TuningSetup::new(swim.as_ref(), spec.clone(), Dataset::Train);
        let start = Instant::now();
        let ie = IterativeElimination { max_rounds: SEARCH_ROUNDS, ..Default::default() };
        let result = ie.run(&mut FrontierRater::pooled(&mut setup, pool, Method::Cbr));
        let se_secs = start.elapsed().as_secs_f64();
        println!(
            "  threads={k:<2}  table1 sweep {t1_secs:7.2}s ({} rows)   \
             parallel IE {se_secs:7.2}s ({} ratings, {} runs)",
            rows.len(),
            result.ratings,
            result.runs
        );
        records.push(record(
            swim.as_ref(),
            kind,
            [
                ("threads", Json::U(k as u64)),
                ("table1_secs", Json::F(t1_secs)),
                ("search_secs", Json::F(se_secs)),
                ("search_secs_per_round", Json::F(se_secs / SEARCH_ROUNDS as f64)),
                ("ratings", Json::U(result.ratings as u64)),
                ("runs", Json::U(result.runs as u64)),
            ],
        ));
        outputs.push((rows, result));
        secs.push((t1_secs, se_secs));
    }
    let t1_identical = outputs.windows(2).all(|p| p[0].0 == p[1].0);
    let se_identical = outputs.windows(2).all(|p| {
        let (a, b) = (&p[0].1, &p[1].1);
        a.disabled_flags == b.disabled_flags
            && a.ratings == b.ratings
            && a.tuning_cycles == b.tuning_cycles
            && a.runs == b.runs
            && a.invocations == b.invocations
    });
    let (first, last) = (secs[0], secs[secs.len() - 1]);
    let t1_speedup = first.0 / last.0.max(1e-9);
    let se_speedup = first.1 / last.1.max(1e-9);
    println!(
        "  table1 identical: {t1_identical}, speedup {t1_speedup:.2}x; \
         search identical: {se_identical}, speedup {se_speedup:.2}x"
    );
    let scales = default_threads < 2 || t1_speedup >= MIN_TABLE1_SPEEDUP;
    let summary = vec![
        ("default_threads", Json::U(default_threads as u64)),
        ("search_rounds", Json::U(SEARCH_ROUNDS as u64)),
        ("table1_rows", Json::U(outputs[0].0.len() as u64)),
        ("table1_identical", Json::Bool(t1_identical)),
        ("table1_speedup_default_vs_1", Json::F(t1_speedup)),
        ("min_table1_speedup", Json::F(MIN_TABLE1_SPEEDUP)),
        ("search_identical", Json::Bool(se_identical)),
        ("search_speedup_default_vs_1", Json::F(se_speedup)),
    ];
    write_artifact(json_path, summary, t1_identical && se_identical && scales, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode_of(args: &[&str]) -> Result<Mode, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        mode(&Flags::parse(&args, &VALUE_FLAGS, &MODES.map(|(s, _)| s), 0)?)
    }

    #[test]
    fn one_mode_per_run() {
        assert_eq!(mode_of(&[]), Ok(Mode::Rates));
        assert_eq!(mode_of(&["--jit", "--min-ms", "200"]), Ok(Mode::Jit));
        assert_eq!(mode_of(&["--bench", "swim", "--strategies"]), Ok(Mode::Strategies));
        assert!(mode_of(&["--jit", "--obs"]).is_err());
        assert!(mode_of(&["--costmodle"]).is_err());
    }

    #[test]
    fn a_mode_rejects_flags_it_does_not_read() {
        assert!(mode_of(&["--search", "--bench", "swim"]).is_err());
        assert!(mode_of(&["--obs", "--bench", "swim"]).is_err());
        assert!(mode_of(&["--strategies", "--min-ms", "50"]).is_err());
        assert!(mode_of(&["--jit", "--tier", "jit"]).is_err());
        assert_eq!(mode_of(&["--search", "--json", "x.json"]), Ok(Mode::Search));
    }
}
