//! Regenerate **Figure 7**: performance improvement by PEAK (a, b) and
//! tuning time normalized to the WHL approach (c, d), on both machine
//! models.
//!
//! ```text
//! cargo run --release -p peak-bench --bin figure7 -- [--machine sparc|p4|both] \
//!     [--bench swim|mgrid|art|equake] [--quick] [--json PATH] [--trace PATH]
//! ```
//!
//! `--quick` tunes on the train input only (the left bars); the full run
//! adds ref-input tuning (the right bars of each pair).
//!
//! `--trace PATH` writes a JSONL telemetry trace (tuning rounds, rating
//! outcomes, per-run simulator metrics) readable with the `peak-trace`
//! binary. Each parallel cell buffers its events; buffers are written in
//! job order so the trace is deterministic regardless of scheduling.

use peak_bench::{
    figure7_cell_pooled, figure7_method_list, machine_kinds, normalize_tuning_times, run_cells,
    select_benchmarks, Figure7Cell, Flags,
};
use peak_core::consultant::Method;
use peak_core::VersionCache;
use peak_obs::{JsonlSink, TraceSink, Tracer};
use peak_sim::{MachineKind, MachineSpec};
use peak_workloads::Dataset;
use std::io::Write;

const BENCHMARKS: [&str; 4] = ["SWIM", "MGRID", "ART", "EQUAKE"];
/// Bar order within a benchmark; WHL, the normalizer, ends the list.
const METHODS: [Method; 5] = [Method::Cbr, Method::Mbr, Method::Rbr, Method::Avg, Method::Whl];

const USAGE: &str = "figure7 [--machine sparc|p4|both] [--bench swim|mgrid|art|equake] [--quick] \
                     [--json PATH] [--trace PATH]";

fn main() {
    let flags =
        Flags::from_env(USAGE, &["--machine", "--bench", "--json", "--trace"], &["--quick"], 0);
    let kinds = flags.or_exit(machine_kinds(flags.value("--machine").unwrap_or("both")));
    let benchmarks =
        flags.or_exit(select_benchmarks(BENCHMARKS.to_vec(), |n| n, flags.value("--bench")));
    let datasets: Vec<Dataset> = if flags.has("--quick") {
        vec![Dataset::Train]
    } else {
        vec![Dataset::Train, Dataset::Ref]
    };
    // Build the cell list.
    let mut jobs: Vec<(&str, MachineKind, Method, Dataset)> = Vec::new();
    for &kind in &kinds {
        let spec = MachineSpec::of(kind);
        for &name in &benchmarks {
            let w = peak_workloads::workload_by_name(name).expect("benchmark");
            for m in figure7_method_list(w.as_ref(), &spec) {
                for &ds in &datasets {
                    jobs.push((name, kind, m, ds));
                }
            }
        }
    }
    let trace_path = flags.value("--trace");
    let pool = peak_core::Pool::from_env();
    eprintln!("figure7: {} cells (pool: {} threads)", jobs.len(), pool.threads());
    // Parallel evaluation on the shared work-stealing pool; cells are
    // fully independent jobs whose results and trace buffers come back
    // in job order. Each cell also re-uses the pool (via its shared
    // helper budget) to pre-compile IE candidate frontiers.
    let cell_jobs: Vec<_> = jobs
        .iter()
        .map(|&(name, kind, method, ds)| {
            let pool = pool.clone();
            move |tracer: Tracer| {
                let t0 = std::time::Instant::now();
                let cell = figure7_cell_pooled(name, kind, method, ds, tracer, &pool);
                eprintln!(
                    "  {name:<7} {:<10} {:<4} {:<5}  {:+6.1}%  ({} ratings, {:.1}s)",
                    kind.name(),
                    method.name(),
                    cell.report.tuned_on,
                    cell.report.improvement_pct,
                    cell.report.search.ratings,
                    t0.elapsed().as_secs_f64(),
                );
                cell
            }
        })
        .collect();
    let sink = trace_path
        .map(|path| JsonlSink::create(std::path::Path::new(path)).expect("create trace file"));
    let mut cells = run_cells(&pool, sink.as_ref(), cell_jobs);
    if let (Some(sink), Some(path)) = (&sink, trace_path) {
        sink.flush();
        eprintln!("trace: wrote {path}");
    }
    // Compile-cache effectiveness across the whole run (stderr only:
    // stdout stays byte-stable across cache-layer changes).
    let vc = VersionCache::global();
    eprintln!("{}", vc.stats().render(vc.len()));
    normalize_tuning_times(&mut cells);
    // --- Figure 7 (a)/(b): improvement over -O3 ---
    for &kind in &kinds {
        println!();
        println!(
            "Figure 7 ({}) — performance improvement over -O3 on {} (measured on ref)",
            if kind == MachineKind::SparcII { "a" } else { "b" },
            kind.name()
        );
        print_bars(&cells, kind, &datasets, &METHODS, |c| {
            Some(format!("{:+7.1}%", c.report.improvement_pct))
        });
    }
    // --- Figure 7 (c)/(d): tuning time normalized to WHL ---
    for &kind in &kinds {
        println!();
        println!(
            "Figure 7 ({}) — tuning time normalized to WHL on {}",
            if kind == MachineKind::SparcII { "c" } else { "d" },
            kind.name()
        );
        print_bars(&cells, kind, &datasets, &METHODS[..4], |c| {
            c.tuning_time_vs_whl.map(|t| format!("{t:7.3}"))
        });
    }
    // --- Headline aggregates ---
    println!();
    summarize(&cells);
    if let Some(path) = flags.value("--json") {
        let json = peak_util::to_string_pretty(&cells);
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write json");
        println!("wrote {path}");
    }
}

/// One bar chart as text: a row per benchmark × method in `methods` with
/// a `text` cell on some dataset, one column per dataset.
fn print_bars(
    cells: &[Figure7Cell],
    kind: MachineKind,
    datasets: &[Dataset],
    methods: &[Method],
    text: impl Fn(&Figure7Cell) -> Option<String>,
) {
    let header: Vec<String> = datasets.iter().map(|d| format!("{:>8}", d.name())).collect();
    println!("{:<18} {}", "bar", header.join("  "));
    for name in BENCHMARKS {
        for &method in methods {
            let vals: Vec<String> = datasets
                .iter()
                .map(|ds| {
                    cells
                        .iter()
                        .find(|c| {
                            c.report.benchmark == name
                                && c.report.machine == kind.name()
                                && c.report.method == method
                                && c.report.tuned_on == ds.name()
                        })
                        .and_then(&text)
                        .unwrap_or_else(|| "      —".into())
                })
                .collect();
            if vals.iter().any(|v| !v.contains('—')) {
                println!(
                    "  {:<16} {}",
                    format!("{}_{}", name.to_lowercase(), method.name()),
                    vals.join("  ")
                );
            }
        }
    }
}

fn summarize(cells: &[Figure7Cell]) {
    // Paper headline: "up to 178% performance improvements (26% on
    // average). … reduction in program tuning time of up to 96% (80% on
    // average)" — using the PEAK-suggested method per benchmark.
    let suggested: Vec<&Figure7Cell> = cells
        .iter()
        .filter(|c| {
            c.report.tuned_on == "train"
                && c.report.method != Method::Whl
                && c.report.method != Method::Avg
                && is_suggested(c)
        })
        .collect();
    if suggested.is_empty() {
        return;
    }
    let best = suggested
        .iter()
        .map(|c| c.report.improvement_pct)
        .fold(f64::NEG_INFINITY, f64::max);
    let avg = suggested.iter().map(|c| c.report.improvement_pct).sum::<f64>()
        / suggested.len() as f64;
    let reductions: Vec<f64> = suggested
        .iter()
        .filter_map(|c| c.tuning_time_vs_whl)
        .map(|t| (1.0 - t) * 100.0)
        .collect();
    let max_red = reductions.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let avg_red = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    println!("Headline (PEAK-suggested methods, tuned on train):");
    println!("  performance improvement: up to {best:+.0}%, average {avg:+.0}%  (paper: up to +178%, avg +26%)");
    println!("  tuning-time reduction vs WHL: up to {max_red:.0}%, average {avg_red:.0}%  (paper: up to 96%, avg 80%)");
}

/// The method the PEAK compiler chooses per benchmark (paper §5.2: "MBR
/// for MGRID, CBR for SWIM, CBR for EQUAKE, and RBR for ART").
fn is_suggested(c: &Figure7Cell) -> bool {
    matches!(
        (c.report.benchmark.as_str(), c.report.method),
        ("SWIM", Method::Cbr) | ("MGRID", Method::Mbr) | ("EQUAKE", Method::Cbr) | ("ART", Method::Rbr)
    )
}
