//! # peak-bench — experiment harness regenerating every table and figure
//!
//! Binaries:
//! * `table1` — the rating-consistency experiment (paper Table 1);
//! * `figure7` — performance improvement and normalized tuning time
//!   (paper Figure 7 a–d);
//!
//! The drivers share one flag reader ([`Flags`]), one machine and
//! benchmark selection ([`machine_kinds`], [`select_benchmarks`]) and one
//! pooled cell runner that splices per-cell traces in job order
//! ([`run_cells`]).
//!
//! Criterion benches under `benches/` cover rating overheads, the RBR
//! basic-vs-improved ablation, and search-algorithm comparisons.

#![warn(missing_docs)]

use peak_core::consistency::consistency_rows_traced;
use peak_core::consultant::Method;
use peak_core::{ConsistencyRow, Pool, TuneReport};
use peak_obs::{BufferSink, JsonlSink, Tracer};
use peak_sim::{MachineKind, MachineSpec};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};
use std::sync::Arc;

/// The flags one run of a bench driver was given, each checked against
/// the flags the driver reads.
#[derive(Debug, Default)]
pub struct Flags {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Flags {
    /// Read `args`, the words after the program name. `values` names the
    /// flags that take a value and `switches` those that take none. Any
    /// other `--` word is an error, as is a value flag with no value
    /// after it; up to `positionals` other words are positional.
    pub fn parse(
        args: &[String],
        values: &[&str],
        switches: &[&str],
        positionals: usize,
    ) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut words = args.iter();
        while let Some(word) = words.next() {
            if values.contains(&word.as_str()) {
                let value = words
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{word} needs a value"))?;
                flags.given.push((word.clone(), Some(value.clone())));
            } else if switches.contains(&word.as_str()) {
                flags.given.push((word.clone(), None));
            } else if word.starts_with("--") || flags.positional.len() == positionals {
                return Err(format!("unknown argument `{word}`"));
            } else {
                flags.positional.push(word.clone());
            }
        }
        Ok(flags)
    }

    /// This process's arguments, read as [`Flags::parse`] does; exits 2
    /// with `usage` when they do not fit.
    pub fn from_env(
        usage: &'static str,
        values: &[&str],
        switches: &[&str],
        positionals: usize,
    ) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Flags::parse(&args, values, switches, positionals) {
            Ok(flags) => Flags { usage, ..flags },
            Err(e) => usage_error(usage, &e),
        }
    }

    /// The value given for `flag`, at its first occurrence.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// True when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// The flags given, in command-line order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.given.iter().map(|(f, _)| f.as_str())
    }

    /// The positional words given.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// `flag`'s value parsed as `T`, or `default` when it is absent;
    /// exits 2 with the usage line when it does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value(flag) {
            None => default,
            Some(v) => self.or_exit(v.parse().map_err(|_| format!("{flag}: cannot read `{v}`"))),
        }
    }

    /// The `Ok` value of a check on these flags; exits 2 with the error
    /// and the usage line otherwise.
    pub fn or_exit<T>(&self, checked: Result<T, String>) -> T {
        checked.unwrap_or_else(|e| usage_error(self.usage, &e))
    }
}

/// Print `error` and a driver's `usage` line to stderr, then exit 2.
fn usage_error(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2)
}

/// The machine `name` spells, in any spelling
/// [`peak_core::machine_spec_by_name`] reads.
pub fn machine_kind(name: &str) -> Result<MachineKind, String> {
    peak_core::machine_spec_by_name(name)
        .map(|spec| spec.kind)
        .ok_or_else(|| format!("unknown machine `{name}` (expected sparc or p4)"))
}

/// The machines `name` selects: both for `both`, else the one
/// [`machine_kind`] reads.
pub fn machine_kinds(name: &str) -> Result<Vec<MachineKind>, String> {
    if name.eq_ignore_ascii_case("both") {
        return Ok(vec![MachineKind::SparcII, MachineKind::PentiumIV]);
    }
    machine_kind(name)
        .map(|kind| vec![kind])
        .map_err(|_| format!("unknown machine `{name}` (expected sparc, p4 or both)"))
}

/// The benchmarks of `all` that `--bench` selects: every one without
/// `only`, else the one whose `name` it spells in any case.
pub fn select_benchmarks<T>(
    all: Vec<T>,
    name: impl Fn(&T) -> &str,
    only: Option<&str>,
) -> Result<Vec<T>, String> {
    let Some(only) = only else { return Ok(all) };
    if !all.iter().any(|t| name(t).eq_ignore_ascii_case(only)) {
        let known: Vec<&str> = all.iter().map(&name).collect();
        return Err(format!("unknown benchmark `{only}` (expected one of {})", known.join(", ")));
    }
    Ok(all.into_iter().filter(|t| name(t).eq_ignore_ascii_case(only)).collect())
}

/// Run `jobs` on `pool` and return their results in job order. With a
/// `sink`, each job's tracer buffers its events and the buffers are
/// appended to `sink` in job order once the pool drains, so the trace is
/// the same at any thread count and the caller may go on writing to
/// `sink` afterwards. Without one, every job's tracer is disabled.
pub fn run_cells<T, F>(pool: &Pool, sink: Option<&JsonlSink>, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce(Tracer) -> T + Send,
{
    let tracing = sink.is_some();
    let jobs: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            move || {
                let buffer = tracing.then(|| Arc::new(BufferSink::new()));
                let tracer =
                    buffer.as_ref().map_or_else(Tracer::disabled, |b| Tracer::to_sink(b.clone()));
                (job(tracer), buffer.map(|b| b.drain()).unwrap_or_default())
            }
        })
        .collect();
    let results: Vec<(T, Vec<String>)> = pool.run(jobs);
    results
        .into_iter()
        .map(|(out, lines)| {
            if let Some(sink) = sink {
                sink.append_lines(lines);
            }
            out
        })
        .collect()
}

/// Table 1's rows for `workloads` on `spec`: one cell per benchmark on
/// [`run_cells`], rows in benchmark order, each cell's events stamped
/// with its benchmark and machine.
pub fn table1_rows(
    pool: &Pool,
    workloads: &[Box<dyn Workload>],
    spec: &MachineSpec,
    sink: Option<&JsonlSink>,
) -> Vec<ConsistencyRow> {
    let jobs: Vec<_> = workloads
        .iter()
        .map(|w| {
            move |tracer: Tracer| {
                let tracer = tracer.with_context(vec![
                    ("benchmark".to_owned(), Json::Str(w.name().to_owned())),
                    ("machine".to_owned(), Json::Str(spec.kind.name().to_owned())),
                ]);
                consistency_rows_traced(w.as_ref(), spec, &tracer)
            }
        })
        .collect();
    run_cells(pool, sink, jobs).into_iter().flatten().collect()
}

/// One Figure-7 cell: benchmark × machine × method × tuning dataset.
#[derive(Debug, Clone)]
pub struct Figure7Cell {
    /// The tuning report (improvement, search stats).
    pub report: TuneReport,
    /// Tuning time normalized to the WHL tuning time of the same
    /// benchmark/machine/dataset (Figure 7 c/d bars). Filled by the
    /// aggregation step.
    pub tuning_time_vs_whl: Option<f64>,
}

impl ToJson for Figure7Cell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("report", self.report.to_json()),
            ("tuning_time_vs_whl", self.tuning_time_vs_whl.to_json()),
        ])
    }
}

/// Methods plotted for a benchmark in Figure 7: every method with a plan
/// (including over-budget CBR — MGRID_CBR is plotted to show the
/// pathology), plus the AVG and WHL baselines.
pub fn figure7_method_list(workload: &dyn Workload, spec: &MachineSpec) -> Vec<Method> {
    let c = peak_core::consult(workload, spec);
    let mut ms = Vec::new();
    if c.cbr.is_some() {
        ms.push(Method::Cbr);
    }
    if c.mbr.is_some() {
        ms.push(Method::Mbr);
    }
    ms.push(Method::Rbr);
    ms.push(Method::Avg);
    ms.push(Method::Whl);
    ms
}

/// Compute one Figure-7 cell. Tuning-loop spans and measurement
/// provenance go to `tracer`, stamped with the cell's
/// benchmark/ts/machine/method/dataset context so trace consumers can
/// attribute every event without reconstructing the job layout. `pool`
/// pre-compiles candidate frontiers; warm-up is pure, so the cell's
/// report and trace are byte-identical at any pool size; the pool only
/// moves compile work off the rating path (and lets an otherwise-idle
/// sibling worker help, via the pool's shared helper budget).
pub fn figure7_cell_pooled(
    name: &str,
    kind: MachineKind,
    method: Method,
    tuned_on: Dataset,
    tracer: Tracer,
    pool: &Pool,
) -> Figure7Cell {
    let workload = peak_workloads::workload_by_name(name).expect("known workload");
    let spec = MachineSpec::of(kind);
    let tracer = if tracer.enabled() {
        tracer.with_context(vec![
            ("benchmark".to_owned(), Json::Str(name.to_owned())),
            ("ts".to_owned(), Json::Str(workload.ts_name().to_owned())),
            ("machine".to_owned(), Json::Str(spec.kind.name().to_owned())),
            ("method".to_owned(), Json::Str(method.name().to_owned())),
            ("tuned_on".to_owned(), Json::Str(tuned_on.name().to_owned())),
        ])
    } else {
        tracer
    };
    let options = peak_core::TuneOptions { tracer, pool: pool.clone(), ..Default::default() };
    let report = peak_core::tune(workload.as_ref(), &spec, method, tuned_on, &options);
    Figure7Cell { report, tuning_time_vs_whl: None }
}

/// Fill `tuning_time_vs_whl` within a group of cells sharing
/// benchmark/machine/dataset.
pub fn normalize_tuning_times(cells: &mut [Figure7Cell]) {
    let whl: std::collections::HashMap<(String, String, String), u64> = cells
        .iter()
        .filter(|c| c.report.method == Method::Whl)
        .map(|c| {
            (
                (
                    c.report.benchmark.clone(),
                    c.report.machine.clone(),
                    c.report.tuned_on.clone(),
                ),
                c.report.search.tuning_cycles,
            )
        })
        .collect();
    for c in cells.iter_mut() {
        let key = (
            c.report.benchmark.clone(),
            c.report.machine.clone(),
            c.report.tuned_on.clone(),
        );
        if let Some(&w) = whl.get(&key) {
            c.tuning_time_vs_whl = Some(c.report.search.tuning_cycles as f64 / w.max(1) as f64);
        }
    }
}

/// Pretty-print a percentage.
pub fn pct(x: f64) -> String {
    format!("{x:+.1}%")
}

/// Render a Table-1 style row string.
pub fn render_consistency_row(row: &ConsistencyRow) -> String {
    let ctx = if row.context > 0 {
        format!("(Context {})", row.context)
    } else {
        String::new()
    };
    let cells: Vec<String> = row
        .cells
        .iter()
        .map(|(w, m, s)| format!("w={w}: {m:.2}({s:.2})"))
        .collect();
    format!(
        "{:<8} {:<18} {:<4} {:>8} | {}",
        row.benchmark,
        format!("{}{}", row.ts, ctx),
        row.method.name(),
        row.invocations,
        cells.join("  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], positionals: usize) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, &["--machine", "--json"], &["--quick"], positionals)
    }

    #[test]
    fn flag_reader_rejects_unknown_flags_and_missing_values() {
        let flags = parse(&["--quick", "--machine", "p4", "--machine", "sparc"], 0).unwrap();
        assert_eq!(flags.value("--machine"), Some("p4"));
        assert!(flags.has("--quick") && !flags.has("--json"));
        assert_eq!(flags.names().collect::<Vec<_>>(), ["--quick", "--machine", "--machine"]);
        assert!(parse(&["--machin", "sparc"], 0).unwrap_err().contains("--machin"));
        assert!(parse(&["--json"], 0).unwrap_err().contains("needs a value"));
        assert!(parse(&["--json", "--quick"], 0).is_err());
        assert!(parse(&["SWIM"], 0).is_err());
        assert_eq!(parse(&["SWIM", "p4"], 2).unwrap().positional(), ["SWIM", "p4"]);
        assert!(parse(&["SWIM", "p4", "x"], 2).is_err());
    }

    #[test]
    fn machine_selection_reads_every_spelling() {
        use MachineKind::{PentiumIV, SparcII};
        assert_eq!(machine_kinds("both"), Ok(vec![SparcII, PentiumIV]));
        assert_eq!(machine_kinds("BOTH"), Ok(vec![SparcII, PentiumIV]));
        for name in ["sparc", "SPARC-II", "sparcii"] {
            assert_eq!(machine_kind(name), Ok(SparcII), "{name}");
        }
        for name in ["p4", "P4", "pentium", "pentium4", "Pentium-IV", "pentiumiv"] {
            assert_eq!(machine_kinds(name), Ok(vec![PentiumIV]), "{name}");
        }
        assert!(machine_kind("vax").is_err());
        assert!(machine_kind("both").is_err(), "a one-machine driver reads no `both`");
        assert!(machine_kinds("vax").unwrap_err().contains("or both"));
    }

    #[test]
    fn benchmark_filter_rejects_unknown_names() {
        let names = vec!["SWIM", "MGRID"];
        assert_eq!(select_benchmarks(names.clone(), |n| n, None), Ok(names.clone()));
        assert_eq!(select_benchmarks(names.clone(), |n| n, Some("mgrid")), Ok(vec!["MGRID"]));
        let err = select_benchmarks(names, |n| n, Some("apsi")).unwrap_err();
        assert!(err.contains("apsi") && err.contains("SWIM, MGRID"), "{err}");
    }

    #[test]
    fn method_lists_match_figure7_labels() {
        let spec = MachineSpec::sparc_ii();
        let mgrid = peak_workloads::workload_by_name("mgrid").unwrap();
        let ms = figure7_method_list(mgrid.as_ref(), &spec);
        assert!(ms.contains(&Method::Cbr), "MGRID_CBR is plotted (the pathology)");
        assert!(ms.contains(&Method::Mbr));
        assert_eq!(ms.last(), Some(&Method::Whl));
        let art = peak_workloads::workload_by_name("art").unwrap();
        let ms = figure7_method_list(art.as_ref(), &spec);
        assert!(!ms.contains(&Method::Cbr), "ART has no CBR plan");
    }

    #[test]
    fn normalization_uses_whl_denominator() {
        let mut cells = vec![
            fake_cell("X", "M", Method::Rbr, 100),
            fake_cell("X", "M", Method::Whl, 1000),
        ];
        normalize_tuning_times(&mut cells);
        assert_eq!(cells[0].tuning_time_vs_whl, Some(0.1));
        assert_eq!(cells[1].tuning_time_vs_whl, Some(1.0));
    }

    fn fake_cell(bench: &str, machine: &str, method: Method, cycles: u64) -> Figure7Cell {
        Figure7Cell {
            report: TuneReport {
                benchmark: bench.into(),
                ts: "ts".into(),
                machine: machine.into(),
                method,
                tuned_on: "train".into(),
                search: peak_core::SearchResult {
                    best: peak_opt::OptConfig::o3(),
                    disabled_flags: vec![],
                    method,
                    switches: 0,
                    ratings: 0,
                    tuning_cycles: cycles,
                    runs: 1,
                    invocations: 0,
                },
                baseline_cycles: 1,
                tuned_cycles: 1,
                improvement_pct: 0.0,
            },
            tuning_time_vs_whl: None,
        }
    }
}
