//! Regenerate **Table 1**: consistency of rating approaches for the
//! fourteen selected tuning sections.
//!
//! ```text
//! cargo run --release -p peak-bench --bin table1 \
//!     [-- --machine sparc|p4] [--bench NAME] [--json PATH] [--trace PATH]
//! ```
//!
//! `--trace PATH` writes a JSONL telemetry trace (per-run simulator
//! metrics, window states, Table-1 row provenance) readable with the
//! `peak-trace` binary. Tracing never changes stdout: the confirmation
//! note goes to stderr, and each parallel worker buffers its events so
//! the trace file is written in deterministic benchmark order.
//!
//! For every benchmark, the consultant picks the rating approach (CBR →
//! MBR → RBR); the harness then rates a single `-O3` experimental version
//! against itself, sampling EVALs across windows w ∈ {10,20,40,80,160}
//! and reporting `Mean(StdDev)×100` of the rating error — paper Eq. 7-10.

use peak_bench::{machine_kind, render_consistency_row, select_benchmarks, table1_rows, Flags};
use peak_obs::{JsonlSink, TraceSink};
use peak_sim::MachineSpec;
use std::io::Write;

const USAGE: &str = "table1 [--machine sparc|p4] [--bench NAME] [--json PATH] [--trace PATH]";

fn main() {
    let flags = Flags::from_env(USAGE, &["--machine", "--bench", "--json", "--trace"], &[], 0);
    let kind = flags.or_exit(machine_kind(flags.value("--machine").unwrap_or("sparc")));
    let workloads = flags.or_exit(select_benchmarks(
        peak_workloads::all_workloads(),
        |w| w.name(),
        flags.value("--bench"),
    ));
    let spec = MachineSpec::of(kind);
    println!("Table 1 — Consistency of rating approaches ({})", kind.name());
    println!("Rating error Mean(StdDev)×100 per window size; experimental version = -O3 (self-comparison).");
    println!();
    // Parallel across benchmarks on the shared work-stealing pool
    // (`PEAK_THREADS` overrides the size): rows come back in benchmark
    // order and each cell's trace is spliced in that order, so stdout,
    // JSON, and trace bytes are identical at any thread count.
    let trace_path = flags.value("--trace");
    let sink = trace_path
        .map(|path| JsonlSink::create(std::path::Path::new(path)).expect("create trace file"));
    let flat = table1_rows(&peak_core::Pool::from_env(), &workloads, &spec, sink.as_ref());
    if let (Some(sink), Some(path)) = (&sink, trace_path) {
        sink.flush();
        eprintln!("trace: wrote {path}");
    }
    for row in &flat {
        println!("{}", render_consistency_row(row));
    }
    println!();
    println!("paper shape checks:");
    let shrinking = flat
        .iter()
        .filter(|r| r.cells.last().unwrap().2 < r.cells.first().unwrap().2)
        .count();
    println!(
        "  σ shrinks from w=10 to w=160 in {}/{} rows (paper: 'both metrics decrease with increasing window size')",
        shrinking,
        flat.len()
    );
    if let Some(path) = flags.value("--json") {
        let json = peak_util::to_string_pretty(&flat);
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .expect("write json");
        println!("  wrote {path}");
    }
}
