//! Hot-path microbenchmark: how fast is one simulated TS invocation, and
//! how fast is one compile+prepare? Seeds the perf trajectory — every
//! executor or cache change reruns this and compares.
//!
//! ```text
//! cargo run --release -p peak-bench --bin hotpath \
//!     [-- --machine sparc|p4] [--bench NAME] [--json PATH] [--min-ms N] [--search]
//! ```
//!
//! Emits `BENCH_hotpath.json` (stable schema, one record per
//! workload×machine): `workload`, `machine`, `invocations_per_sec`,
//! `compiles_per_sec`, `cache_hit_rate`, plus the raw counts/durations
//! behind the rates. Rates are wall-clock and machine-dependent; the
//! *schema* and the cache-hit-rate are what CI pins down.
//!
//! `--search` additionally runs the scheduler scaling benchmark and
//! emits `BENCH_search.json`: the full Table-1 sweep and a capped
//! parallel Iterative-Elimination search, each at 1, 2, and the default
//! thread count, reporting wall seconds per leg, the default-vs-1
//! speedup, and whether the outputs were byte-identical across thread
//! counts (they must be — the pool is deterministic by construction).
//!
//! `--obs` runs the metrics-overhead gate and emits `BENCH_obs.json`:
//! 41 interleaved pairs of short metrics-on/metrics-off slices of the
//! same fixed invocation workload, and the median over pairs of the
//! on/off time ratio as the overhead percentage. Exits non-zero when the
//! overhead exceeds the gate (default 2%) — instrumentation that taxes
//! the hot path gets caught in CI, not in production.
//!
//! `--tier {interp,predecoded,jit}` picks the engine the invocation
//! and `--obs` benchmarks build (default jit),
//! and `--jit` runs the tier A/B comparison: one engine per tier built
//! from the same prepared version, interleaved fixed-work slices of all
//! three per workload×machine pair, medians, and the jit-vs-predecoded
//! speedup, written to `BENCH_jit.json`. Exits non-zero when the jit
//! tier is *slower* than predecoded on more than 25% of pairs (the CI
//! bench-smoke gate; tune with `--jit-gate-pct`).
//!
//! `--strategies` runs the search-strategy shoot-out and emits
//! `BENCH_strategies.json`: per workload×machine pair, serial-reference
//! IE runs first (unlimited) and its unique-configuration spend becomes
//! the pair's `CompilationBudget`; GA, phase-clustered IE, and biased
//! random search then run capped at that budget. Winner quality is the
//! train-input production speedup over -O3 (the ref-input speedup and a
//! shared winner re-rating are reported alongside). Every strategy is
//! replayed at 1, 2, and the default thread count and must be
//! bit-identical across them. The quality gate is two-level: per pair,
//! GA and clustered IE must each stay within a catastrophe band of
//! random's quality (default 3%, `--strategies-tolerance-pct` — at
//! one-frontier budgets scatter sampling legitimately wins single pairs
//! by a couple percent, but a structured strategy losing *big* anywhere
//! is a bug); across the grid, each must be geomean non-inferior to
//! random within a noise band (default 0.5%,
//! `--strategies-agg-tolerance-pct`). Exits non-zero on any gate or
//! thread-identity failure.

use peak_core::{build_engine, RunHarness, VersionCache};
use peak_obs::Tracer;
use peak_opt::{Flag, OptConfig, ALL_FLAGS};
use peak_sim::{ExecOptions, ExecTier, MachineKind, MachineSpec, PreparedVersion, TierBackend};
use peak_util::Json;
use peak_workloads::{Dataset, Workload};
use std::io::Write;
use std::time::Instant;

/// Distinct configs used for the compile and cache measurements: -O3 plus
/// one-flag-off neighbours — the request stream of an Iterative
/// Elimination first round.
const NEIGHBOUR_FLAGS: usize = 7;

struct Record {
    workload: &'static str,
    machine: &'static str,
    invocations: u64,
    invoke_secs: f64,
    compiles: u64,
    compile_secs: f64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Record {
    fn invocations_per_sec(&self) -> f64 {
        self.invocations as f64 / self.invoke_secs.max(1e-9)
    }
    fn compiles_per_sec(&self) -> f64 {
        self.compiles as f64 / self.compile_secs.max(1e-9)
    }
    fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_lookups.max(1)) as f64
    }
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

/// Time `min_ms` worth of TS invocations of the -O3 version on `tier`'s
/// engine (fresh harness per exhausted invocation budget —
/// cache/predictor state warms exactly like a tuning run's).
fn time_invocations(
    w: &dyn Workload,
    spec: &MachineSpec,
    min_ms: u64,
    tier: ExecTier,
) -> (u64, f64) {
    let engine = build_engine(prepare_o3(w, spec), tier, &Tracer::disabled());
    let opts = ExecOptions::default();
    // Warm-up run so one-time costs (lazy allocs, page faults) don't
    // pollute the first timed slice.
    {
        let mut h = RunHarness::new(w, Dataset::Train, spec, 1);
        for _ in 0..8 {
            let Some(args) = h.next_args() else { break };
            let _ = h.execute(&*engine, &args, &opts);
        }
    }
    let budget = std::time::Duration::from_millis(min_ms);
    let start = Instant::now();
    let mut n = 0u64;
    let mut seed = 2u64;
    'outer: loop {
        let mut h = RunHarness::new(w, Dataset::Train, spec, seed);
        seed += 1;
        while let Some(args) = h.next_args() {
            let _ = h.execute(&*engine, &args, &opts);
            n += 1;
            if n.is_multiple_of(64) && start.elapsed() >= budget {
                break 'outer;
            }
        }
    }
    (n, start.elapsed().as_secs_f64())
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
/// the neighbour configs) against a fresh cache and report its hit/miss
/// counters. Deterministic: round one misses, round two hits.
fn cache_profile(w: &dyn Workload, spec: &MachineSpec) -> (u64, u64) {
    let cache = VersionCache::new();
    for _round in 0..2 {
        for cfg in neighbour_configs() {
            let _ = cache.prepare_workload(w, spec, cfg);
        }
    }
    let s = cache.stats();
    (s.hits, s.hits + s.misses)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let machine = arg_value(&args, "--machine");
    let only = arg_value(&args, "--bench");
    let json_path = arg_value(&args, "--json").unwrap_or_else(|| "BENCH_hotpath.json".into());
    let min_ms: u64 = arg_value(&args, "--min-ms").map_or(300, |v| v.parse().expect("--min-ms"));
    let tier = arg_value(&args, "--tier").map_or_else(ExecTier::default, |t| {
        ExecTier::parse(&t).unwrap_or_else(|| {
            eprintln!("error: unknown tier `{t}` (expected interp, predecoded, or jit)");
            std::process::exit(1);
        })
    });
    let kinds: Vec<MachineKind> = match machine.as_deref() {
        None => vec![MachineKind::SparcII, MachineKind::PentiumIV],
        Some("sparc") => vec![MachineKind::SparcII],
        Some("p4" | "pentium" | "pentium4") => vec![MachineKind::PentiumIV],
        Some(other) => {
            eprintln!("error: unknown machine `{other}` (expected sparc or p4)");
            std::process::exit(1);
        }
    };
    if let Some(b) = &only {
        if peak_workloads::workload_by_name(b).is_none() {
            eprintln!("error: unknown benchmark `{b}`");
            std::process::exit(1);
        }
    }
    let workloads: Vec<_> = peak_workloads::all_workloads()
        .into_iter()
        .filter(|w| only.as_deref().is_none_or(|o| w.name().eq_ignore_ascii_case(o)))
        .collect();
    println!(
        "hotpath — invocations/sec ({tier} tier) and compiles/sec per workload×machine"
    );
    println!(
        "{:<10} {:>9} | {:>16} {:>14} {:>14}",
        "workload", "machine", "invocations/s", "compiles/s", "cache hit rate"
    );
    let mut records = Vec::new();
    for w in &workloads {
        for &kind in &kinds {
            let spec = MachineSpec::of(kind);
            let (invocations, invoke_secs) = time_invocations(w.as_ref(), &spec, min_ms, tier);
            let (compiles, compile_secs) = time_compiles(w.as_ref(), &spec, min_ms.min(150));
            let (cache_hits, cache_lookups) = cache_profile(w.as_ref(), &spec);
            let r = Record {
                workload: w.name(),
                machine: kind.name(),
                invocations,
                invoke_secs,
                compiles,
                compile_secs,
                cache_hits,
                cache_lookups,
            };
            println!(
                "{:<10} {:>9} | {:>16.0} {:>14.0} {:>14.2}",
                r.workload,
                r.machine,
                r.invocations_per_sec(),
                r.compiles_per_sec(),
                r.cache_hit_rate()
            );
            records.push(r);
        }
    }
    let json = Json::Arr(
        records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("workload", Json::Str(r.workload.to_owned())),
                    ("machine", Json::Str(r.machine.to_owned())),
                    ("tier", Json::Str(tier.name().to_owned())),
                    ("invocations_per_sec", Json::F(r.invocations_per_sec())),
                    ("compiles_per_sec", Json::F(r.compiles_per_sec())),
                    ("cache_hit_rate", Json::F(r.cache_hit_rate())),
                    ("invocations", Json::U(r.invocations)),
                    ("invoke_secs", Json::F(r.invoke_secs)),
                    ("compiles", Json::U(r.compiles)),
                    ("compile_secs", Json::F(r.compile_secs)),
                ])
            })
            .collect(),
    );
    std::fs::File::create(&json_path)
        .and_then(|mut f| f.write_all((json.pretty() + "\n").as_bytes()))
        .expect("write json");
    println!();
    println!("wrote {json_path}");
    if args.iter().any(|a| a == "--search") {
        let search_json =
            arg_value(&args, "--search-json").unwrap_or_else(|| "BENCH_search.json".into());
        search_bench(&search_json);
    }
    if args.iter().any(|a| a == "--obs") {
        let obs_json = arg_value(&args, "--obs-json").unwrap_or_else(|| "BENCH_obs.json".into());
        let gate_pct: f64 = arg_value(&args, "--obs-gate-pct")
            .map_or(2.0, |v| v.parse().expect("--obs-gate-pct"));
        if !obs_bench(&obs_json, gate_pct, min_ms, tier) {
            std::process::exit(1);
        }
    }
    if args.iter().any(|a| a == "--jit") {
        let jit_json = arg_value(&args, "--jit-json").unwrap_or_else(|| "BENCH_jit.json".into());
        let gate_pct: f64 = arg_value(&args, "--jit-gate-pct")
            .map_or(25.0, |v| v.parse().expect("--jit-gate-pct"));
        if !jit_bench(&jit_json, gate_pct, min_ms, &workloads, &kinds) {
            std::process::exit(1);
        }
    }
    if args.iter().any(|a| a == "--strategies") {
        let s_json = arg_value(&args, "--strategies-json")
            .unwrap_or_else(|| "BENCH_strategies.json".into());
        let tol_pct: f64 = arg_value(&args, "--strategies-tolerance-pct")
            .map_or(3.0, |v| v.parse().expect("--strategies-tolerance-pct"));
        let agg_tol_pct: f64 = arg_value(&args, "--strategies-agg-tolerance-pct")
            .map_or(0.5, |v| v.parse().expect("--strategies-agg-tolerance-pct"));
        if !strategies_bench(&s_json, tol_pct, agg_tol_pct, &workloads, &kinds) {
            std::process::exit(1);
        }
    }
    if args.iter().any(|a| a == "--costmodel") {
        let cm_json =
            arg_value(&args, "--costmodel-json").unwrap_or_else(|| "BENCH_costmodel.json".into());
        let tol_pct: f64 = arg_value(&args, "--costmodel-tolerance-pct")
            .map_or(25.0, |v| v.parse().expect("--costmodel-tolerance-pct"));
        let bench_tier = if tier == ExecTier::Predecoded { ExecTier::Jit } else { tier };
        if !costmodel_bench(&cm_json, tol_pct, min_ms, &workloads, &kinds, bench_tier) {
            std::process::exit(1);
        }
    }
}

/// The cost-model no-regression gate behind `--costmodel`. Per
/// workload×machine pair: interleaved fixed-work slices of the
/// predecoded tier and the target tier (`--tier`, default jit), medians,
/// and the tier-vs-predecoded speedup *ratio*. The gate compares the
/// median ratio against the committed `BENCH_costmodel.json` baseline
/// (read before overwriting): ratios divide out host speed, so the
/// baseline is portable across CI machines where absolute wall-clock is
/// not. A run regresses when its median ratio falls more than
/// `tolerance_pct` percent below the baseline's. First run (no
/// baseline) records and passes.
fn costmodel_bench(
    json_path: &str,
    tolerance_pct: f64,
    min_ms: u64,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
    tier: ExecTier,
) -> bool {
    let baseline_ratio: Option<f64> = std::fs::read_to_string(json_path)
        .ok()
        .and_then(|t| peak_util::from_str(&t).ok())
        .and_then(|j| j.get("median_speedup_vs_predecoded").and_then(Json::as_f64));
    println!();
    println!(
        "cost-model gate — {} tier vs predecoded, {AB_ROUNDS} interleaved rounds per pair",
        tier.name()
    );
    println!(
        "{:<10} {:>9} | {:>13} {:>13} {:>9}",
        "workload", "machine", "predecoded/s", "tier/s", "speedup"
    );
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for w in workloads {
        for &kind in kinds {
            let spec = MachineSpec::of(kind);
            let (slice, rates) =
                interleaved_rates(w.as_ref(), &spec, &[ExecTier::Predecoded, tier], min_ms);
            let (pre, fast) = (rates[0], rates[1]);
            let ratio = fast / pre.max(1e-9);
            ratios.push(ratio);
            println!(
                "{:<10} {:>9} | {:>13.0} {:>13.0} {:>8.2}x",
                w.name(),
                kind.name(),
                pre,
                fast,
                ratio
            );
            rows.push(Json::obj(vec![
                ("workload", Json::Str(w.name().to_owned())),
                ("machine", Json::Str(kind.name().to_owned())),
                ("invocations_per_slice", Json::U(slice)),
                ("rounds", Json::U(AB_ROUNDS as u64)),
                ("predecoded_per_sec", Json::F(pre)),
                ("tier_per_sec", Json::F(fast)),
                ("speedup_vs_predecoded", Json::F(ratio)),
            ]));
        }
    }
    let med_ratio = median(&ratios);
    let (pass, regression_pct) = match baseline_ratio {
        Some(base) if base > 0.0 => {
            let reg = (base - med_ratio) / base * 100.0;
            (reg <= tolerance_pct, reg)
        }
        _ => (true, 0.0),
    };
    let doc = Json::obj(vec![
        ("tier", Json::Str(tier.name().to_owned())),
        ("pairs", Json::U(rows.len() as u64)),
        ("median_speedup_vs_predecoded", Json::F(med_ratio)),
        (
            "baseline_median_speedup",
            baseline_ratio.map_or(Json::Null, Json::F),
        ),
        ("regression_pct", Json::F(regression_pct)),
        ("tolerance_pct", Json::F(tolerance_pct)),
        ("pass", Json::Bool(pass)),
        ("records", Json::Arr(rows)),
    ]);
    std::fs::File::create(json_path)
        .and_then(|mut f| f.write_all((doc.pretty() + "\n").as_bytes()))
        .expect("write costmodel json");
    println!();
    match baseline_ratio {
        Some(base) => println!(
            "cost-model gate — median {} speedup {med_ratio:.2}x vs baseline {base:.2}x \
             ({regression_pct:+.1}% regression, tolerance {tolerance_pct}%)",
            tier.name()
        ),
        None => println!(
            "cost-model gate — median {} speedup {med_ratio:.2}x (no baseline; recorded)",
            tier.name()
        ),
    }
    println!("wrote {json_path}");
    if !pass {
        eprintln!(
            "error: cost-model speedup regressed {regression_pct:.1}% vs baseline \
             (tolerance {tolerance_pct}%)"
        );
    }
    pass
}

/// The tier A/B comparison behind `--jit`. For every workload×machine
/// pair: interleaved fixed-work slices of the three execution tiers
/// (rotating tier order per round cancels thermal/frequency drift),
/// medians per tier, and the jit-vs-predecoded speedup. Writes
/// `json_path` and returns whether the fraction of pairs where jit is
/// *slower* than predecoded stayed at or under `gate_pct`.
fn jit_bench(
    json_path: &str,
    gate_pct: f64,
    min_ms: u64,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
) -> bool {
    println!();
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
                "{:<10} {:>9} | {:>13.0} {:>13.0} {:>13.0} {:>8.2}x",
                w.name(),
                kind.name(),
                interp,
                pre,
                jit,
                speedup
            );
            rows.push(Json::obj(vec![
                ("workload", Json::Str(w.name().to_owned())),
                ("machine", Json::Str(kind.name().to_owned())),
                ("invocations_per_slice", Json::U(slice)),
                ("rounds", Json::U(AB_ROUNDS as u64)),
                ("interp_per_sec", Json::F(interp)),
                ("predecoded_per_sec", Json::F(pre)),
                ("jit_per_sec", Json::F(jit)),
                ("jit_speedup_vs_predecoded", Json::F(speedup)),
                ("interp_slowdown_vs_predecoded", Json::F(pre / interp.max(1e-9))),
            ]));
        }
    }
    let pairs = rows.len().max(1);
    let slower_pct = slower as f64 / pairs as f64 * 100.0;
    let pass = slower_pct <= gate_pct;
    let doc = Json::obj(vec![
        ("pairs", Json::U(pairs as u64)),
        ("jit_slower_pairs", Json::U(slower as u64)),
        ("jit_slower_pct", Json::F(slower_pct)),
        ("jit_5x_or_better_pairs", Json::U(fast5 as u64)),
        ("gate_pct", Json::F(gate_pct)),
        ("pass", Json::Bool(pass)),
        ("records", Json::Arr(rows)),
    ]);
    std::fs::File::create(json_path)
        .and_then(|mut f| f.write_all((doc.pretty() + "\n").as_bytes()))
        .expect("write jit json");
    println!();
    println!(
        "jit gate — {slower}/{pairs} pairs slower than predecoded ({slower_pct:.0}%, \
         gate {gate_pct}%); {fast5}/{pairs} pairs at ≥5x"
    );
    println!("wrote {json_path}");
    if !pass {
        eprintln!(
            "error: jit tier slower than predecoded on {slower_pct:.0}% of pairs \
             (gate {gate_pct}%)"
        );
    }
    pass
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
/// windows) ride along in the artifact. Every strategy replays at 1, 2,
/// and the default thread count; the runs must be bit-identical — the
/// simulator is deterministic, so any divergence is a seeding or
/// merge-order bug, not noise. The quality gate is two-level. Per pair,
/// GA and clustered IE must each stay within `tolerance_pct` of random's
/// quality — a catastrophe guard: no-free-lunch means scatter sampling
/// legitimately wins individual pairs by a couple percent at
/// one-frontier budgets, but a structured strategy losing big anywhere
/// is a real search bug. Across the grid, each must be geomean
/// non-inferior to random within `agg_tolerance_pct` — random may win
/// pairs, it must not win the war.
fn strategies_bench(
    json_path: &str,
    tolerance_pct: f64,
    agg_tolerance_pct: f64,
    workloads: &[Box<dyn Workload>],
    kinds: &[MachineKind],
) -> bool {
    use peak_core::consultant::Method;
    use peak_core::{
        production_time, search_with_strategy_spent, strategy_seed, Pool, SearchResult,
        StrategyKind, TuningSetup,
    };

    let default_threads = peak_core::default_threads();
    let mut threads: Vec<usize> = Vec::new();
    for k in [1, 2, default_threads] {
        if !threads.contains(&k) {
            threads.push(k);
        }
    }
    println!();
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
            // alongside. The per-pair gate tolerates `tolerance_pct` as
            // a catastrophe band: the searches pick winners by windowed
            // TS ratings whose round-to-round reproducibility is ~1%,
            // and at one-frontier budgets random's scatter sampling can
            // legitimately land a multi-flag combination no structured
            // search at the same budget would rate — so single-pair
            // losses of a couple percent are expected, and the per-pair
            // gate only catches a strategy losing by a margin a user
            // would feel. Systematic inferiority is the aggregate
            // geomean gate's job.
            let o3_train = production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Train);
            let o3_ref = production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Ref);
            let quality = |r: &SearchResult, ds: Dataset, o3: u64| {
                o3 as f64 / (production_time(w.as_ref(), &spec, r.best, ds) as f64).max(1.0)
            };
            let train_q =
                |r: &SearchResult| quality(r, Dataset::Train, o3_train);
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
            let (ri_ga, ri_cl, ri_rnd) = (rated[1], rated[2], rated[3]);
            let floor = q_rnd * (1.0 - tolerance_pct / 100.0);
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
            rows.push(Json::obj(vec![
                ("workload", Json::Str(w.name().to_owned())),
                ("machine", Json::Str(kind.name().to_owned())),
                ("budget", Json::U(ie_spent as u64)),
                ("thread_identical", Json::Bool(identical)),
                ("quality_gate_ok", Json::Bool(quality_ok)),
                (
                    "strategies",
                    Json::Arr(vec![
                        strat_json("ie", &ie, ie_spent, q_ie, rated[0]),
                        strat_json("ga", &ga, ga_spent, q_ga, ri_ga),
                        strat_json("clustered", &cl, cl_spent, q_cl, ri_cl),
                        strat_json("random", &rnd, rnd_spent, q_rnd, ri_rnd),
                    ]),
                ),
            ]));
        }
    }
    let pairs = rows.len();
    // Aggregate gate: geomean quality ratio vs random across the grid.
    let gm_ga = (log_ga / (pairs.max(1)) as f64).exp();
    let gm_cl = (log_cl / (pairs.max(1)) as f64).exp();
    let agg_floor = 1.0 - agg_tolerance_pct / 100.0;
    let aggregate_ok = gm_ga >= agg_floor && gm_cl >= agg_floor;
    let pass = quality_failures == 0 && identity_failures == 0 && aggregate_ok;
    let doc = Json::obj(vec![
        ("pairs", Json::U(pairs as u64)),
        (
            "threads",
            Json::Arr(threads.iter().map(|&t| Json::U(t as u64)).collect()),
        ),
        ("tolerance_pct", Json::F(tolerance_pct)),
        ("agg_tolerance_pct", Json::F(agg_tolerance_pct)),
        (
            "geomean_vs_random",
            Json::obj(vec![("ga", Json::F(gm_ga)), ("clustered", Json::F(gm_cl))]),
        ),
        ("aggregate_gate_ok", Json::Bool(aggregate_ok)),
        ("quality_gate_failures", Json::U(quality_failures as u64)),
        ("thread_identity_failures", Json::U(identity_failures as u64)),
        ("pass", Json::Bool(pass)),
        ("records", Json::Arr(rows)),
    ]);
    std::fs::File::create(json_path)
        .and_then(|mut f| f.write_all((doc.pretty() + "\n").as_bytes()))
        .expect("write strategies json");
    println!();
    println!(
        "strategy gate — {pairs} pairs: {quality_failures} quality failures, \
         {identity_failures} thread-identity failures; \
         geomean vs random: ga {gm_ga:.4}, clustered {gm_cl:.4} \
         (floor {agg_floor:.4}{})",
        if aggregate_ok { "" } else { ", FAIL" }
    );
    println!("wrote {json_path}");
    if !pass {
        eprintln!(
            "error: strategy shoot-out failed ({quality_failures} quality, \
             {identity_failures} identity, aggregate_ok {aggregate_ok})"
        );
    }
    pass
}

/// Run exactly `count` TS invocations on `engine` and return wall
/// seconds — the fixed-work slice both sides of an A/B comparison share.
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

/// Rounds of interleaved slices in the `--jit` and `--costmodel` A/B.
const AB_ROUNDS: usize = 5;

/// Invocations/sec of the -O3 version of `w` on the engine of each of
/// `tiers`, all built from one prepared version: `AB_ROUNDS` rounds of
/// one fixed-work slice per engine, rotating which engine goes first
/// each round so drift favours none, and the median per engine. The
/// last tier is the engine under test: 64 untimed invocations on it
/// materialize the argument stream, then 512 on the predecoded engine
/// size the slice so each runs roughly `min_ms / AB_ROUNDS`. Returns the
/// slice and the rates in `tiers` order.
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
    let _ = timed_fixed_invocations(w, spec, &*engines[engines.len() - 1], 64);
    let warm = timed_fixed_invocations(w, spec, &*engines[pre], 512);
    let rate = 512.0 / warm.max(1e-9);
    let slice = ((rate * (min_ms as f64 / 1000.0) / AB_ROUNDS as f64) as u64).clamp(256, 1 << 20);
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

/// The metrics-overhead gate behind `--obs`. Runs pairs of back-to-back
/// metrics-on and metrics-off slices of the same fixed invocation count,
/// writes `json_path`, and returns whether the median over pairs of the
/// on/off time ratio exceeds 1 by at most `gate_pct` percent. A pair's
/// two slices share whatever the host was doing at the time, so its
/// ratio cancels a host slowdown spanning both, and the median drops the
/// pairs a slowdown split. Slices are short, so that most pairs fall
/// between a noisy host's slow spells, and pairs are many, so that the
/// median has enough of those to stand on. Measures `tier`'s engine (the
/// default jit unless `--tier` says otherwise).
fn obs_bench(json_path: &str, gate_pct: f64, min_ms: u64, tier: ExecTier) -> bool {
    use peak_obs::metrics;

    const PAIRS: usize = 41;
    let w = peak_workloads::workload_by_name("swim").expect("swim workload");
    let spec = MachineSpec::sparc_ii();
    let engine = build_engine(prepare_o3(w.as_ref(), &spec), tier, &Tracer::disabled());
    // Calibrate the slice size so the PAIRS slices of each side run for
    // roughly min_ms together.
    let warm_secs = timed_fixed_invocations(w.as_ref(), &spec, &*engine, 512);
    let rate = 512.0 / warm_secs.max(1e-9);
    let slice = ((rate * (min_ms as f64 / 1000.0) / PAIRS as f64) as u64).max(1);
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
    let pass = overhead_pct <= gate_pct;
    let doc = Json::obj(vec![
        ("workload", Json::Str("swim".to_owned())),
        ("machine", Json::Str("SPARC-II".to_owned())),
        ("tier", Json::Str(engine.tier().name().to_owned())),
        ("invocations_per_slice", Json::U(slice)),
        ("pairs", Json::U(PAIRS as u64)),
        ("on_secs", Json::Arr(on.iter().map(|&s| Json::F(s)).collect())),
        ("off_secs", Json::Arr(off.iter().map(|&s| Json::F(s)).collect())),
        ("overhead_pct", Json::F(overhead_pct)),
        ("gate_pct", Json::F(gate_pct)),
        ("pass", Json::Bool(pass)),
    ]);
    std::fs::File::create(json_path)
        .and_then(|mut f| f.write_all((doc.pretty() + "\n").as_bytes()))
        .expect("write obs json");
    println!();
    println!(
        "obs overhead gate — {slice} invocations/slice × {PAIRS} interleaved pairs: \
         median on/off time ratio → {overhead_pct:+.2}% (gate {gate_pct}%)"
    );
    println!("wrote {json_path}");
    if !pass {
        eprintln!("error: metrics overhead {overhead_pct:.2}% exceeds the {gate_pct}% gate");
    }
    pass
}

/// Render the full Table-1 sweep (all workloads, SPARC-II) on `pool` and
/// return the rendered rows — the same per-benchmark fan-out `table1`
/// runs, minus the I/O.
fn table1_rows(pool: &peak_core::Pool) -> Vec<String> {
    let workloads = peak_workloads::all_workloads();
    let spec = MachineSpec::sparc_ii();
    let jobs: Vec<_> = workloads
        .iter()
        .map(|w| {
            let spec = &spec;
            move || {
                peak_core::consistency_rows(w.as_ref(), spec)
                    .iter()
                    .map(peak_bench::render_consistency_row)
                    .collect::<Vec<String>>()
            }
        })
        .collect();
    pool.run(jobs).into_iter().flatten().collect()
}

/// Scheduler scaling benchmark behind `--search`: time the Table-1 sweep
/// and a 2-round parallel IE search at 1, 2, and the default thread
/// count. The global version cache is cleared before every leg so each
/// one pays (and, at >1 threads, parallelizes) the same compile work.
fn search_bench(json_path: &str) {
    use peak_core::consultant::Method;
    use peak_core::{FrontierRater, IterativeElimination, Pool, SearchStrategy, TuningSetup};

    const SEARCH_ROUNDS: usize = 2;
    let default_threads = peak_core::default_threads();
    let mut ks: Vec<usize> = Vec::new();
    for k in [1, 2, default_threads] {
        if !ks.contains(&k) {
            ks.push(k);
        }
    }
    println!();
    println!("search scaling — thread counts {ks:?} (default {default_threads})");

    let mut t1_legs: Vec<(usize, f64)> = Vec::new();
    let mut t1_outputs: Vec<String> = Vec::new();
    for &k in &ks {
        VersionCache::global().clear();
        let pool = peak_core::Pool::with_threads(k);
        let start = Instant::now();
        let rows = table1_rows(&pool);
        let secs = start.elapsed().as_secs_f64();
        println!("  table1 sweep   threads={k:<2}  {secs:7.2}s  ({} rows)", rows.len());
        t1_legs.push((k, secs));
        t1_outputs.push(rows.join("\n"));
    }
    let t1_identical = t1_outputs.windows(2).all(|w| w[0] == w[1]);
    let t1_speedup = t1_legs[0].1 / t1_legs.last().unwrap().1.max(1e-9);

    let spec = MachineSpec::sparc_ii();
    let swim = peak_workloads::workload_by_name("swim").expect("swim workload");
    let mut se_legs: Vec<(usize, f64, peak_core::SearchResult)> = Vec::new();
    for &k in &ks {
        VersionCache::global().clear();
        let pool = Pool::with_threads(k);
        let mut setup = TuningSetup::new(swim.as_ref(), spec.clone(), Dataset::Train);
        let start = Instant::now();
        let ie = IterativeElimination { max_rounds: SEARCH_ROUNDS, ..Default::default() };
        let result = ie.run(&mut FrontierRater::pooled(&mut setup, pool, Method::Cbr));
        let secs = start.elapsed().as_secs_f64();
        println!(
            "  parallel IE    threads={k:<2}  {secs:7.2}s  ({} ratings, {} runs)",
            result.ratings, result.runs
        );
        se_legs.push((k, secs, result));
    }
    let se_identical = se_legs.windows(2).all(|w| {
        let (a, b) = (&w[0].2, &w[1].2);
        a.disabled_flags == b.disabled_flags
            && a.ratings == b.ratings
            && a.tuning_cycles == b.tuning_cycles
            && a.runs == b.runs
            && a.invocations == b.invocations
    });
    let se_speedup = se_legs[0].1 / se_legs.last().unwrap().1.max(1e-9);

    let leg_json = |threads: usize, secs: f64| {
        Json::obj(vec![("threads", Json::U(threads as u64)), ("secs", Json::F(secs))])
    };
    let doc = Json::obj(vec![
        ("default_threads", Json::U(default_threads as u64)),
        (
            "table1_scaling",
            Json::Arr(t1_legs.iter().map(|&(k, s)| leg_json(k, s)).collect()),
        ),
        ("table1_identical", Json::Bool(t1_identical)),
        ("table1_speedup_default_vs_1", Json::F(t1_speedup)),
        ("search_rounds", Json::U(SEARCH_ROUNDS as u64)),
        (
            "search_scaling",
            Json::Arr(
                se_legs
                    .iter()
                    .map(|(k, s, r)| {
                        Json::obj(vec![
                            ("threads", Json::U(*k as u64)),
                            ("secs", Json::F(*s)),
                            ("secs_per_round", Json::F(*s / SEARCH_ROUNDS as f64)),
                            ("ratings", Json::U(r.ratings as u64)),
                            ("runs", Json::U(r.runs as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("search_identical", Json::Bool(se_identical)),
        ("search_speedup_default_vs_1", Json::F(se_speedup)),
    ]);
    std::fs::File::create(json_path)
        .and_then(|mut f| f.write_all((doc.pretty() + "\n").as_bytes()))
        .expect("write search json");
    println!(
        "  table1 identical: {t1_identical}, speedup {t1_speedup:.2}x; \
         search identical: {se_identical}, speedup {se_speedup:.2}x"
    );
    println!("wrote {json_path}");
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}
