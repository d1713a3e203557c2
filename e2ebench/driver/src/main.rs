//! In-process side of the end-to-end benchmark (see `../../README.md`).
//!
//! ```text
//! peak-e2ebench table1 [--setup-only]      < cells.jsonl
//! peak-e2ebench replay serve --store DIR   < requests.jsonl
//! peak-e2ebench replay table1              < cells.jsonl
//! peak-e2ebench expected                   < requests.jsonl
//! ```
//!
//! Input lines come from `run.py`: `tune` request lines exactly as the
//! daemon receives them, or Table 1 cells `{"id","benchmark","machine"}`.
//! Every output line is one compact JSON object.
//!
//! * `table1` is the `table1` workload's driver: it builds its workloads,
//!   prints `{"ready":true}` (the end of set-up), then computes each cell
//!   with `consistency_rows` on one thread and prints its rows and time.
//! * `replay` makes, in order and in this process, the public calls the
//!   served job (or the Table 1 cell) makes, wraps each in a span, and
//!   reads the layers' counters at the same boundaries. Spans stay in
//!   memory and are printed at the end.
//! * `expected` runs each request offline with `run_tuning_job`: the
//!   answers the served and replayed jobs are checked against.

use peak_core::stream_cache::arg_stream;
use peak_core::{
    compile_validated, consistency_rows, consult, iterative_elimination_from, machine_spec_by_name,
    method_by_name, production_time, register_jit_metrics, run_tuning_job, search_with_strategy,
    strategy_kind_by_name, strategy_seed, CacheStats, CancelToken, Pool, PoolStats, TuneReport,
    TuningJobSpec, TuningSetup, VersionCache,
};
use peak_obs::{MetricsRegistry, Snapshot, Tracer};
use peak_opt::{OptConfig, ALL_FLAGS};
use peak_serve::{parse_request, FeatureVec, KnowledgeStore, Request, StoreRecord};
use peak_sim::{MachineSpec, PreparedVersion};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// Registry counters the replay reports per job, as deltas.
const REGISTRY_COUNTERS: [&str; 5] = [
    "core.harness.invocations",
    "core.jit.tier_invocations.predecoded",
    "core.jit.tier_invocations.jit",
    "core.jit.deopts",
    "core.rating.calls",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["table1"] => table1(false),
        ["table1", "--setup-only"] => table1(true),
        ["replay", "serve", "--store", dir] => replay_serve(Path::new(dir)),
        ["replay", "table1"] => replay_table1(),
        ["expected"] => expected(),
        _ => {
            eprintln!("usage: peak-e2ebench table1 [--setup-only] < cells.jsonl");
            eprintln!("       peak-e2ebench replay serve --store DIR < requests.jsonl");
            eprintln!("       peak-e2ebench replay table1 < cells.jsonl");
            eprintln!("       peak-e2ebench expected < requests.jsonl");
            std::process::exit(2);
        }
    }
}

fn die(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn input_lines() -> Vec<String> {
    std::io::stdin()
        .lock()
        .lines()
        .map(|l| l.unwrap_or_else(|e| die(format!("cannot read stdin: {e}"))))
        .filter(|l| !l.trim().is_empty())
        .collect()
}

fn emit(j: Json) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", j.compact())
        .and_then(|()| out.flush())
        .unwrap_or_else(|e| die(format!("cannot write stdout: {e}")));
}

/// Peak resident set of this process, in kB (`VmHWM`).
fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn workload_index(workloads: &[Box<dyn Workload>], name: &str) -> usize {
    workloads
        .iter()
        .position(|w| w.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| die(format!("unknown benchmark {name:?}")))
}

fn machine(name: &str) -> MachineSpec {
    machine_spec_by_name(name).unwrap_or_else(|| die(format!("unknown machine {name:?}")))
}

/// One Table 1 cell: a workload (index into `all_workloads`) on a machine.
struct Cell {
    id: String,
    workload: usize,
    spec: MachineSpec,
}

fn parse_cells(lines: &[String], workloads: &[Box<dyn Workload>]) -> Vec<Cell> {
    lines
        .iter()
        .map(|line| {
            let j = peak_util::from_str(line)
                .unwrap_or_else(|e| die(format!("bad cell line {line:?}: {e}")));
            let field = |key: &str| {
                j.get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| die(format!("cell line {line:?} lacks {key:?}")))
                    .to_owned()
            };
            Cell {
                id: field("id"),
                workload: workload_index(workloads, &field("benchmark")),
                spec: machine(&field("machine")),
            }
        })
        .collect()
}

/// A served job, resolved the way the daemon resolves its request.
struct Job {
    id: String,
    spec: TuningJobSpec,
}

fn parse_jobs(lines: &[String]) -> Vec<Job> {
    lines
        .iter()
        .map(|line| {
            let Ok(Request::Tune { id, job }) = parse_request(line) else {
                die(format!("not a tune request: {line:?}"))
            };
            let mut spec = TuningJobSpec::new(&job.benchmark, &job.machine);
            spec.method = job
                .method
                .as_deref()
                .map(|m| method_by_name(m).unwrap_or_else(|| die(format!("unknown method {m:?}"))));
            spec.dataset = job.dataset;
            spec.strategy = job.strategy.clone();
            Job { id, spec }
        })
        .collect()
}

fn table1(setup_only: bool) {
    let lines = input_lines();
    let workloads = peak_workloads::all_workloads();
    let cells = parse_cells(&lines, &workloads);
    emit(Json::obj(vec![("ready", Json::Bool(true))]));
    if setup_only {
        return;
    }
    let started = Instant::now();
    for c in &cells {
        let t = Instant::now();
        let rows = consistency_rows(workloads[c.workload].as_ref(), &c.spec);
        let secs = t.elapsed().as_secs_f64();
        emit(Json::obj(vec![
            ("id", c.id.to_json()),
            ("secs", secs.to_json()),
            ("rows", rows.to_json()),
        ]));
    }
    emit(Json::obj(vec![
        ("done", Json::Bool(true)),
        ("wall_s", started.elapsed().as_secs_f64().to_json()),
        ("vmhwm_kb", vmhwm_kb().to_json()),
    ]));
}

fn expected() {
    let pool = Pool::with_threads(1);
    for job in parse_jobs(&input_lines()) {
        let report = run_tuning_job(&job.spec, Tracer::disabled(), &pool, CancelToken::new())
            .unwrap_or_else(|e| die(format!("job {} failed: {e}", job.id)));
        emit(Json::obj(vec![
            ("id", job.id.to_json()),
            ("best_bits", report.search.best.bits().to_json()),
            ("result", report.to_json()),
        ]));
    }
}

/// Spans kept in memory: name, job id, parent index, start and end in
/// seconds since the replay began.
struct Spans {
    origin: Instant,
    spans: Vec<(&'static str, String, Option<usize>, f64, f64)>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, job: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push((name, job.to_owned(), parent, now, now));
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].4 = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span; returns its result.
    fn time<T>(
        &mut self,
        name: &'static str,
        job: &str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, job, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|(name, job, parent, start, end)| {
                    Json::obj(vec![
                        ("name", name.to_json()),
                        ("job", job.to_json()),
                        ("parent", parent.map(|p| p as u64).to_json()),
                        ("start", start.to_json()),
                        ("end", end.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

/// Layer counters read at a job or cell boundary.
struct Counters {
    cache: CacheStats,
    pool: PoolStats,
    registry: Snapshot,
}

impl Counters {
    fn read(pool: &Pool) -> Counters {
        Counters {
            cache: VersionCache::global().stats(),
            pool: pool.stats(),
            registry: MetricsRegistry::global().snapshot(),
        }
    }

    /// Counts accumulated since `self`.
    fn delta_json(&self, pool: &Pool) -> Json {
        let now = Counters::read(pool);
        let cache = now.cache.delta(&self.cache);
        let registry = now.registry.delta(&self.registry);
        let mut pairs = vec![
            ("version_cache.hits".to_owned(), cache.hits.to_json()),
            ("version_cache.misses".to_owned(), cache.misses.to_json()),
            (
                "version_cache.compiles".to_owned(),
                cache.compiles.to_json(),
            ),
            (
                "version_cache.coalesced".to_owned(),
                cache.coalesced.to_json(),
            ),
            (
                "sched.jobs".to_owned(),
                (now.pool.jobs - self.pool.jobs).to_json(),
            ),
            (
                "sched.stolen".to_owned(),
                (now.pool.stolen - self.pool.stolen).to_json(),
            ),
        ];
        for name in REGISTRY_COUNTERS {
            pairs.push((
                name.to_owned(),
                registry.counter(name).unwrap_or(0).to_json(),
            ));
        }
        Json::Obj(pairs)
    }
}

/// Time `compile_validated`, `PreparedVersion::prepare` and
/// `peak_jit::lower` over `cfgs` for one pair: the version count and the
/// three totals in seconds. Nothing here goes through the version cache.
fn time_versions(w: &dyn Workload, spec: &MachineSpec, cfgs: &[OptConfig]) -> Json {
    let jit = peak_jit::JitOptions::from_env();
    let (mut opt, mut prepare, mut lower) = (0.0, 0.0, 0.0);
    for cfg in cfgs {
        let t = Instant::now();
        let cv = compile_validated(w.program(), w.ts(), cfg);
        opt += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let pv = PreparedVersion::prepare(cv, spec);
        prepare += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let lowered = peak_jit::lower(&pv, &jit);
        lower += t.elapsed().as_secs_f64();
        std::hint::black_box(lowered.is_ok());
    }
    Json::obj(vec![
        ("versions", (cfgs.len() as u64).to_json()),
        ("opt_s", opt.to_json()),
        ("prepare_s", prepare.to_json()),
        ("lower_s", lower.to_json()),
    ])
}

/// Materialize the (workload, dataset) argument streams this process has
/// not built yet, each in its own span.
fn materialize_streams(
    spans: &mut Spans,
    seen: &mut HashSet<(&'static str, Dataset)>,
    w: &dyn Workload,
    datasets: &[Dataset],
    job: &str,
    parent: usize,
) {
    for &ds in datasets {
        if seen.insert((w.name(), ds)) {
            spans.time("harness.args_materialize", job, parent, || {
                arg_stream(w, ds)
            });
        }
    }
}

fn replay_serve(store_dir: &Path) {
    let jobs = parse_jobs(&input_lines());
    let workloads = peak_workloads::all_workloads();
    let pool = Pool::from_env();
    register_jit_metrics();
    let mut store = KnowledgeStore::open(store_dir, Tracer::disabled())
        .unwrap_or_else(|e| die(format!("cannot open store {}: {e}", store_dir.display())));
    let mut spans = Spans::new();
    let mut seen_streams = HashSet::new();
    let mut timed_pairs = HashSet::new();
    let frontier: Vec<OptConfig> = ALL_FLAGS
        .iter()
        .map(|&f| OptConfig::o3().without(f))
        .collect();
    for job in &jobs {
        let w = workloads[workload_index(&workloads, &job.spec.benchmark)].as_ref();
        let spec = machine(&job.spec.machine);
        let before = Counters::read(&pool);
        let id = job.id.as_str();
        let root = spans.open("job", id, None);
        materialize_streams(
            &mut spans,
            &mut seen_streams,
            w,
            &[job.spec.dataset, Dataset::Ref],
            id,
            root,
        );
        // `run_tuning_job` consults when no method is given, and
        // `TuningSetup::new` consults again.
        let method = match job.spec.method {
            Some(m) => m,
            None => spans.time("consultant.consult", id, root, || {
                consult(w, &spec).order[0]
            }),
        };
        let mut setup = spans.time("consultant.setup", id, root, || {
            TuningSetup::new(w, spec.clone(), job.spec.dataset)
        });
        setup.set_pool(pool.clone());
        let search = spans.time("search", id, root, || match &job.spec.strategy {
            None => iterative_elimination_from(&mut setup, method, OptConfig::o3()),
            Some(name) => {
                let kind = strategy_kind_by_name(name)
                    .unwrap_or_else(|| die(format!("unknown strategy {name:?}")));
                let seed = strategy_seed(w.name(), spec.kind.name());
                search_with_strategy(&mut setup, &pool, method, kind, None, seed)
            }
        });
        let baseline_cycles = spans.time("tuner.production", id, root, || {
            production_time(w, &spec, OptConfig::o3(), Dataset::Ref)
        });
        let tuned_cycles = spans.time("tuner.production", id, root, || {
            production_time(w, &spec, search.best, Dataset::Ref)
        });
        let report = TuneReport {
            benchmark: w.name().to_owned(),
            ts: w.ts_name().to_owned(),
            machine: spec.kind.name().to_owned(),
            method,
            tuned_on: match job.spec.dataset {
                Dataset::Train => "train".into(),
                Dataset::Ref => "ref".into(),
            },
            improvement_pct: (baseline_cycles as f64 / tuned_cycles.max(1) as f64 - 1.0) * 100.0,
            search,
            baseline_cycles,
            tuned_cycles,
        };
        let record = StoreRecord {
            benchmark: report.benchmark.clone(),
            machine: report.machine.clone(),
            method: report.method.name().to_owned(),
            features: FeatureVec::of_workload(w),
            best_bits: report.search.best.bits(),
            improvement_pct: report.improvement_pct,
        };
        spans
            .time("serve.store_record", id, root, || store.record(record))
            .unwrap_or_else(|e| die(format!("store record failed: {e}")));
        spans.close(root);
        let counters = before.delta_json(&pool);
        // Outside the job's span and counter window: the pair's frontier.
        let versions = if timed_pairs.insert((w.name(), spec.kind.name())) {
            time_versions(w, &spec, &frontier)
        } else {
            Json::Null
        };
        emit(Json::obj(vec![
            ("id", id.to_json()),
            ("best_bits", report.search.best.bits().to_json()),
            ("result", report.to_json()),
            ("counters", counters),
            ("versions", versions),
        ]));
    }
    emit(Json::obj(vec![
        ("spans", spans.to_json()),
        ("vmhwm_kb", vmhwm_kb().to_json()),
    ]));
}

fn replay_table1() {
    let workloads = peak_workloads::all_workloads();
    let cells = parse_cells(&input_lines(), &workloads);
    let pool = Pool::from_env();
    register_jit_metrics();
    let mut spans = Spans::new();
    let mut seen_streams = HashSet::new();
    for c in &cells {
        let w = workloads[c.workload].as_ref();
        let id = c.id.as_str();
        let before = Counters::read(&pool);
        let root = spans.open("cell", id, None);
        materialize_streams(
            &mut spans,
            &mut seen_streams,
            w,
            &[Dataset::Train],
            id,
            root,
        );
        spans.time("consultant.consult", id, root, || {
            std::hint::black_box(consult(w, &c.spec))
        });
        // `consistency_rows` consults once more inside this span.
        let rows = spans.time("rating.consistency", id, root, || {
            consistency_rows(w, &c.spec)
        });
        spans.close(root);
        let counters = before.delta_json(&pool);
        let versions = time_versions(w, &c.spec, &[OptConfig::o3()]);
        // Execution throughput on the cell's version: one train run.
        let t = Instant::now();
        let cycles = production_time(w, &c.spec, OptConfig::o3(), Dataset::Train);
        let exec_s = t.elapsed().as_secs_f64();
        emit(Json::obj(vec![
            ("id", id.to_json()),
            ("rows", rows.to_json()),
            ("counters", counters),
            ("versions", versions),
            (
                "exec",
                Json::obj(vec![
                    ("cycles", cycles.to_json()),
                    ("secs", exec_s.to_json()),
                ]),
            ),
        ]));
    }
    emit(Json::obj(vec![
        ("spans", spans.to_json()),
        ("vmhwm_kb", vmhwm_kb().to_json()),
    ]));
}
