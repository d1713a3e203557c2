//! The rating engines: produce fair EVALs for a set of candidate
//! optimization configurations using CBR, MBR, RBR, or the WHL/AVG
//! baselines (paper §2, §3, §5.2).
//!
//! All methods report *relative improvement over the base version*
//! (`> 1` = candidate faster), so the search can compare candidates
//! uniformly regardless of how the rating was obtained.

use crate::consultant::{Consultation, Method};
use crate::harness::RunHarness;
use crate::job::CancelToken;
use crate::sched::Pool;
use crate::stats::{least_sampled_open, trimmed_rows, Window};
use crate::version_cache::{VersionCache, VersionKey};
use peak_obs::{event, Tracer};
use peak_opt::{CompiledVersion, OptConfig};
use peak_sim::{
    ExecError, ExecOptions, FaultConfig, FaultPlan, MachineSpec, SimMetrics, TierBackend,
};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};
use std::sync::Arc;

/// Shared tuning state: version cache, run/cycle accounting.
///
/// Split for parallel rating: the *immutable* inputs (workload
/// reference, machine spec, `Arc`'d consultant output, dataset, fault
/// scenario) are cheap to share across rating jobs, while the *scratch*
/// (run-seed cursor, cycle/run/invocation accounting, tracer) is
/// per-job. [`TuningSetup::fork_for_job`] clones the shared part into a
/// fresh scratch with a caller-chosen seed base, and
/// [`TuningSetup::absorb_scratch`] folds a finished job's accounting
/// back in — always in job-index order, so totals are bit-identical at
/// any thread count.
pub struct TuningSetup<'w> {
    /// Workload under tuning.
    pub workload: &'w dyn Workload,
    /// Target machine.
    pub spec: MachineSpec,
    /// Consultant output for this TS (shared across rating jobs).
    pub consult: Arc<Consultation>,
    /// Dataset used for tuning runs.
    pub ds: Dataset,
    next_seed: u64,
    fault_config: Option<FaultConfig>,
    tracer: Tracer,
    pool: Pool,
    cancel: CancelToken,
    /// True cycles consumed by tuning runs so far.
    pub tuning_cycles: u64,
    /// Application runs started so far.
    pub runs_used: usize,
    /// TS invocations consumed so far.
    pub invocations_used: u64,
}

impl<'w> TuningSetup<'w> {
    /// Create a tuning setup (runs the consultant).
    pub fn new(workload: &'w dyn Workload, spec: MachineSpec, ds: Dataset) -> Self {
        let consult = Arc::new(crate::consultant::consult(workload, &spec));
        Self::with_consultation(workload, spec, ds, consult)
    }

    /// Create a tuning setup reusing an existing consultant output
    /// (parallel rating jobs share one [`Consultation`] instead of
    /// re-running the §3 analysis per job).
    pub fn with_consultation(
        workload: &'w dyn Workload,
        spec: MachineSpec,
        ds: Dataset,
        consult: Arc<Consultation>,
    ) -> Self {
        TuningSetup {
            workload,
            spec,
            consult,
            ds,
            next_seed: 1,
            fault_config: None,
            tracer: Tracer::disabled(),
            pool: Pool::with_threads(1),
            cancel: CancelToken::new(),
            tuning_cycles: 0,
            runs_used: 0,
            invocations_used: 0,
        }
    }

    /// The shared consultant output.
    pub fn consultation(&self) -> Arc<Consultation> {
        self.consult.clone()
    }

    /// Install a job pool. The search layer uses it to pre-compile each
    /// round's candidate frontier in parallel ([`TuningSetup::warm_frontier`]);
    /// warm-up is pure (compilation is deterministic and cached), so
    /// installing a pool never changes a single rated cycle. The default
    /// single-thread pool makes warm-up a no-op.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// The installed pool (single-threaded unless [`TuningSetup::set_pool`]
    /// was called).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Clone the shared (immutable) part into a fresh per-job scratch:
    /// zero accounting and a run-seed cursor starting at `seed_base`.
    /// The scratch gets a **disabled** tracer — parallel jobs must not
    /// interleave events into the parent's stream; callers that trace
    /// per-job give the fork its own buffered tracer via
    /// [`TuningSetup::set_tracer`] and splice in job order — and a
    /// single-thread pool (jobs do not re-fan-out).
    pub fn fork_for_job(&self, seed_base: u64) -> TuningSetup<'w> {
        TuningSetup {
            workload: self.workload,
            spec: self.spec.clone(),
            consult: self.consult.clone(),
            ds: self.ds,
            next_seed: seed_base,
            fault_config: self.fault_config.clone(),
            tracer: Tracer::disabled(),
            pool: Pool::with_threads(1),
            // Forked jobs share the parent's cancel token: a deadline
            // firing mid-frontier stops every candidate job cooperatively.
            cancel: self.cancel.clone(),
            tuning_cycles: 0,
            runs_used: 0,
            invocations_used: 0,
        }
    }

    /// Fold a finished job's accounting back into this setup. Call in
    /// job-index order so totals are reproducible at any thread count
    /// (addition over `u64`/`usize` is associative, but keeping one
    /// canonical order keeps the discipline visible and future-proof).
    pub fn absorb_scratch(&mut self, scratch: &TuningSetup<'_>) {
        self.tuning_cycles += scratch.tuning_cycles;
        self.runs_used += scratch.runs_used;
        self.invocations_used += scratch.invocations_used;
    }

    /// Pre-compile every configuration in `cfgs` (the next rating call's
    /// candidate frontier) through the process-wide [`VersionCache`] on
    /// the installed pool. Concurrent warm-ups of the same key compile
    /// once (in-flight de-duplication). No-op on a single-thread pool:
    /// the serial path compiles lazily in the same order anyway.
    pub fn warm_frontier(&self, cfgs: &[OptConfig], instrumented: bool) {
        if self.pool.threads() <= 1 || cfgs.is_empty() {
            return;
        }
        if instrumented && self.consult.mbr.is_none() {
            return;
        }
        let requests =
            cfgs.iter().map(|&cfg| self.version_request(cfg, instrumented)).collect();
        VersionCache::global().warm(&self.pool, &self.spec, &self.tracer, requests);
    }

    /// Install (or clear) a fault scenario: every subsequent run gets a
    /// [`FaultPlan`] derived from the scenario seed and that run's seed,
    /// so fault streams replay exactly per run regardless of history.
    pub fn set_faults(&mut self, config: Option<FaultConfig>) {
        self.fault_config = config;
    }

    /// The installed fault scenario, if any.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault_config.as_ref()
    }

    /// Install a cancellation token. Every subsequent run start (and IE
    /// round boundary) becomes a cooperative cancellation point: when the
    /// token fires, the next check unwinds with the
    /// [`Cancelled`](crate::job::Cancelled) sentinel, to be caught at the
    /// job boundary by [`crate::job::run_tuning_job`]. The default token
    /// never fires, so uncancelled tuning is bit-identical.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Cooperative cancellation point: unwinds with the
    /// [`Cancelled`](crate::job::Cancelled) sentinel when the installed
    /// token has fired, else does nothing.
    pub fn check_cancel(&self) {
        self.cancel.check();
    }

    /// Install a tracer: every subsequent run and rating call emits
    /// telemetry through it. The default disabled tracer leaves the
    /// tuning path bit-identical to an uninstrumented build.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Seed the next run will be derived from (checkpointing).
    pub fn next_seed(&self) -> u64 {
        self.next_seed
    }

    /// Restore run accounting from a checkpoint so a resumed tuner
    /// replays the exact run-seed sequence of the uninterrupted run.
    pub fn restore_accounting(
        &mut self,
        next_seed: u64,
        tuning_cycles: u64,
        runs_used: usize,
        invocations_used: u64,
    ) {
        self.next_seed = next_seed;
        self.tuning_cycles = tuning_cycles;
        self.runs_used = runs_used;
        self.invocations_used = invocations_used;
    }

    /// Compile (and cache, process-wide) a version. `instrumented`
    /// selects the MBR-instrumented TS as the source. Hits in the
    /// [`VersionCache`] are shared across setups, search rounds, rating
    /// retries, the degradation cascade, and checkpoint resume.
    pub fn version(&mut self, cfg: OptConfig, instrumented: bool) -> Arc<dyn TierBackend> {
        let (key, compile) = self.version_request(cfg, instrumented);
        VersionCache::global().get_or_prepare(key, &self.spec, &self.tracer, compile)
    }

    /// The cache key of version `cfg` and the compile that builds it, from
    /// the workload's TS or, when `instrumented`, the MBR-instrumented TS.
    fn version_request(
        &self,
        cfg: OptConfig,
        instrumented: bool,
    ) -> (VersionKey, impl FnOnce() -> CompiledVersion + Send + '_) {
        let key = if instrumented {
            VersionKey::instrumented(self.workload, cfg, self.spec.kind)
        } else {
            VersionKey::plain(self.workload, cfg, self.spec.kind)
        };
        let compile = move || {
            let (prog, ts) = if instrumented {
                let m = self.consult.mbr.as_ref().expect("instrumented version needs MBR model");
                (&m.instrumented, m.ts)
            } else {
                (self.workload.program(), self.workload.ts())
            };
            crate::compile::compile_validated(prog, ts, &cfg)
        };
        (key, compile)
    }

    /// Start a fresh application run (a new process). This is the
    /// fine-grained cancellation point: a rating call starts at most
    /// `MAX_RUNS_PER_RATING` runs, so a fired deadline interrupts tuning
    /// within one application run's worth of work.
    pub fn new_run(&mut self) -> RunHarness<'w> {
        self.cancel.check();
        self.runs_used += 1;
        self.next_seed += 1;
        let faults =
            self.fault_config.as_ref().map(|c| FaultPlan::new(c.clone(), self.next_seed));
        RunHarness::with_faults(self.workload, self.ds, &self.spec, self.next_seed, faults)
    }

    /// Account a finished (or abandoned) run's cycles; when a tracer is
    /// installed, emits a `sim.run` event with the run's machine
    /// counters and fault stats (measurement provenance: this run's
    /// seed links the samples to the exact replayable fault stream).
    pub fn absorb_run(&mut self, h: &RunHarness<'_>) {
        self.tuning_cycles += h.cycles();
        if self.tracer.enabled() {
            let m = SimMetrics::snapshot(&h.machine);
            let mut fields = vec![
                ("run".to_owned(), Json::U(self.runs_used as u64)),
                ("seed".to_owned(), Json::U(self.next_seed)),
            ];
            if let Json::Obj(pairs) = m.to_json() {
                fields.extend(pairs);
            }
            if let Some(plan) = &h.machine.faults {
                fields.push(("faults".to_owned(), plan.stats.to_json()));
                fields.push(("executions".to_owned(), Json::U(plan.executions())));
            }
            self.tracer.emit("sim.run", fields);
        }
    }
}

/// Result of rating a candidate set.
#[derive(Debug, Clone)]
pub struct RateOutcome {
    /// Per-candidate improvement over base (>1 = candidate faster).
    pub improvements: Vec<f64>,
    /// Per-candidate rating variance: the CV of the mean estimate for
    /// window methods (the quantity convergence is judged on — an
    /// exhausted window carries its real CV here), the regression
    /// variance for MBR.
    pub vars: Vec<f64>,
    /// Candidates whose window never converged.
    pub unconverged: usize,
    /// The method that produced these numbers.
    pub method: Method,
    /// Measurements accepted into estimates.
    pub samples: usize,
    /// Samples rejected by the outlier filter across all estimates.
    pub trimmed: usize,
    /// Measurements lost to injected dropout (invocation ran, reading
    /// lost).
    pub dropouts: u64,
    /// Runs abandoned because an execution crashed (injected fault).
    pub crashes: u64,
}

impl RateOutcome {
    /// Fraction of measurements lost to dropout (0 when nothing was
    /// measured).
    pub fn dropout_rate(&self) -> f64 {
        let total = self.samples as f64 + self.dropouts as f64;
        if total <= 0.0 {
            0.0
        } else {
            self.dropouts as f64 / total
        }
    }
}

/// Knobs for one rating call (the supervisor's retry-with-backoff).
#[derive(Debug, Clone, Copy)]
pub struct RateOptions {
    /// Multiplier on each method's maximum window budget (CBR/AVG/RBR
    /// samples, MBR rows). `1.0` (the default) is bit-identical to the
    /// un-optioned path.
    pub window_scale: f64,
}

impl Default for RateOptions {
    fn default() -> Self {
        RateOptions { window_scale: 1.0 }
    }
}

/// Scale a window budget; `scale = 1.0` returns `n` exactly.
fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64) * scale).round() as usize
}

/// Hard cap on runs per rating call.
const MAX_RUNS_PER_RATING: usize = 60;
/// Window bounds per method.
const CBR_WINDOW: (usize, usize, f64) = (12, 160, 0.008);
const AVG_WINDOW: (usize, usize, f64) = (12, 160, 0.008);
const RBR_WINDOW: (usize, usize, f64) = (8, 48, 0.008);
const MBR_MIN_ROWS: usize = 32;
const MBR_MAX_ROWS: usize = 240;
const MBR_VAR_OK: f64 = 0.15;

/// Rate `candidates` against `base` using `method`. Returns `None` when
/// the method is structurally inapplicable (no plan).
pub fn rate(
    setup: &mut TuningSetup<'_>,
    method: Method,
    base: OptConfig,
    candidates: &[OptConfig],
) -> Option<RateOutcome> {
    rate_with(setup, method, base, candidates, &RateOptions::default())
}

/// [`rate`] with explicit options (window widening for the supervisor's
/// retry-with-backoff). Default options are bit-identical to [`rate`].
pub fn rate_with(
    setup: &mut TuningSetup<'_>,
    method: Method,
    base: OptConfig,
    candidates: &[OptConfig],
    opts: &RateOptions,
) -> Option<RateOutcome> {
    if peak_obs::metrics::enabled() {
        use std::sync::OnceLock;
        static CALLS: OnceLock<std::sync::Arc<peak_obs::Counter>> = OnceLock::new();
        CALLS
            .get_or_init(|| {
                peak_obs::MetricsRegistry::global()
                    .counter("core.rating.calls", "Rating invocations (any method)")
            })
            .inc();
    }
    let tracer = setup.tracer.clone();
    let _span = if tracer.enabled() {
        Some(tracer.span(
            "rating",
            vec![
                ("method".to_owned(), Json::Str(method.name().to_owned())),
                ("base".to_owned(), Json::U(base.bits())),
                ("candidates".to_owned(), Json::U(candidates.len() as u64)),
                ("window_scale".to_owned(), Json::F(opts.window_scale)),
            ],
        ))
    } else {
        None
    };
    // Self-profiling baselines: runs/invocations/cycles before the call
    // give the method's exclusive measurement cost; wall-clock only when
    // the tracer opted in (it breaks trace byte-identity).
    let (runs0, inv0, cyc0) = (setup.runs_used, setup.invocations_used, setup.tuning_cycles);
    let wall0 = tracer.wall_ns();
    let out = match method {
        Method::Cbr => {
            setup.consult.cbr.is_some().then(|| rate_cbr(setup, base, candidates, true, opts))
        }
        Method::Avg => Some(rate_cbr(setup, base, candidates, false, opts)),
        Method::Mbr => {
            setup.consult.mbr.is_some().then(|| rate_mbr(setup, base, candidates, opts))
        }
        Method::Rbr => Some(rate_rbr(setup, base, candidates, true, opts)),
        Method::Whl => Some(rate_whl(setup, base, candidates)),
    };
    if tracer.enabled() {
        match &out {
            Some(o) => {
                let mut fields = vec![
                    ("method".to_owned(), Json::Str(o.method.name().to_owned())),
                    ("improvements".to_owned(), o.improvements.to_json()),
                    ("vars".to_owned(), o.vars.to_json()),
                    ("unconverged".to_owned(), Json::U(o.unconverged as u64)),
                    ("samples".to_owned(), Json::U(o.samples as u64)),
                    ("trimmed".to_owned(), Json::U(o.trimmed as u64)),
                    ("dropouts".to_owned(), Json::U(o.dropouts)),
                    ("crashes".to_owned(), Json::U(o.crashes)),
                    ("runs".to_owned(), Json::U((setup.runs_used - runs0) as u64)),
                    (
                        "invocations".to_owned(),
                        Json::U(setup.invocations_used - inv0),
                    ),
                    ("cycles".to_owned(), Json::U(setup.tuning_cycles - cyc0)),
                ];
                if let (Some(w0), Some(w1)) = (wall0, tracer.wall_ns()) {
                    fields.push(("wall_ns".to_owned(), Json::U(w1.saturating_sub(w0))));
                }
                tracer.emit("rating.outcome", fields);
            }
            None => {
                event!(tracer, "rating.inapplicable", method = method.name());
            }
        }
    }
    out
}

/// CBR (and, with `use_context = false`, the AVG baseline): average the
/// measured times of invocations — grouped by the most important context
/// for CBR, indiscriminately for AVG.
fn rate_cbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    use_context: bool,
    ropts: &RateOptions,
) -> RateOutcome {
    let (sources, varying, important) = if use_context {
        let plan = setup.consult.cbr.as_ref().expect("CBR plan");
        (plan.sources.clone(), plan.varying.clone(), plan.important_context().clone())
    } else {
        (Vec::new(), Vec::new(), crate::context::ContextKey(Vec::new()))
    };
    let (wmin, wmax, thr) = if use_context { CBR_WINDOW } else { AVG_WINDOW };
    let wmax = scaled(wmax, ropts.window_scale);
    // Window per version: index 0 = base.
    let mut all: Vec<OptConfig> = vec![base];
    all.extend_from_slice(candidates);
    let mut windows: Vec<Window> = (0..all.len()).map(|_| Window::with(wmin, wmax, thr)).collect();
    let versions: Vec<Arc<dyn TierBackend>> =
        all.iter().map(|c| setup.version(*c, false)).collect();
    let opts = ExecOptions::default();
    let mut dropouts = 0u64;
    let mut crashes = 0u64;
    let mut ctx_matches = 0u64;
    let mut ctx_misses = 0u64;
    'runs: for _ in 0..MAX_RUNS_PER_RATING {
        let mut h = setup.new_run();
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            let matches = if use_context {
                let key = h.context_key(&sources, &args);
                let m = crate::context::reduce_key(&key, &varying) == important;
                if m {
                    ctx_matches += 1;
                } else {
                    ctx_misses += 1;
                }
                m
            } else {
                true
            };
            if !matches {
                // Off-context invocation: run the base version to keep the
                // program advancing; its timing is not comparable.
                match h.try_execute(&*versions[0], &args, &opts) {
                    Ok(_) => {}
                    Err(ExecError::InjectedCrash { .. }) => {
                        crashes += 1;
                        break; // abandon the run: the process died
                    }
                    Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
                }
                continue;
            }
            let Some(i) = least_sampled_open(&windows) else {
                setup.absorb_run(&h);
                break 'runs;
            };
            match h.try_execute_timed(&*versions[i], &args, &opts) {
                Ok((Some(measured), _)) => windows[i].push(measured as f64),
                Ok((None, _)) => dropouts += 1,
                Err(ExecError::InjectedCrash { .. }) => {
                    crashes += 1;
                    break;
                }
                Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
            }
        }
        setup.absorb_run(&h);
        if !windows.iter().any(Window::is_open) {
            break;
        }
    }
    if use_context {
        let t = setup.tracer.clone();
        event!(t, "cbr.context", matches = ctx_matches, misses = ctx_misses);
    }
    if setup.tracer.enabled() {
        let lens: Vec<u64> = windows.iter().map(|w| w.len() as u64).collect();
        let cvs: Vec<f64> = windows.iter().map(Window::mean_cv).collect();
        let t = setup.tracer.clone();
        event!(
            t,
            "window.state",
            method = if use_context { "cbr" } else { "avg" },
            lens = lens.to_json(),
            cvs = cvs.to_json(),
        );
    }
    let base_eval = windows[0].summary().mean.max(1.0);
    let improvements = windows[1..]
        .iter()
        .map(|w| {
            let s = w.summary();
            if s.n == 0 {
                1.0
            } else {
                base_eval / s.mean.max(1.0)
            }
        })
        .collect();
    let vars = windows[1..].iter().map(|w| w.mean_cv()).collect();
    let unconverged = windows.iter().filter(|w| !w.converged()).count();
    let samples = windows.iter().map(|w| w.len()).sum();
    let trimmed = windows.iter().map(|w| w.rejected()).sum();
    RateOutcome {
        improvements,
        vars,
        unconverged,
        method: if use_context { Method::Cbr } else { Method::Avg },
        samples,
        trimmed,
        dropouts,
        crashes,
    }
}

/// MBR: regression of time on component counts per version (paper §2.3).
fn rate_mbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    ropts: &RateOptions,
) -> RateOutcome {
    let model = setup.consult.mbr.as_ref().expect("MBR model").clone();
    let max_rows = scaled(MBR_MAX_ROWS, ropts.window_scale);
    let mut all: Vec<OptConfig> = vec![base];
    all.extend_from_slice(candidates);
    let versions: Vec<Arc<dyn TierBackend>> =
        all.iter().map(|c| setup.version(*c, true)).collect();
    let opts = ExecOptions { record_writes: false, num_counters: model.num_counters };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); all.len()];
    let mut counts: Vec<Vec<Vec<f64>>> = vec![Vec::new(); all.len()];
    let mut evals: Vec<Option<(f64, f64)>> = vec![None; all.len()]; // (eval, var)
    let min_rows = MBR_MIN_ROWS.max(2 * model.num_components());
    let mut dropouts = 0u64;
    let mut crashes = 0u64;
    // Version assignment is randomized, not round-robin: a fixed stride
    // phase-locks with periodic context streams (MGRID's V-cycle), giving
    // different versions systematically different context mixes and
    // biasing the fits against each other.
    let mut pick_rng: u64 = 0x9E3779B97F4A7C15;
    'runs: for _ in 0..MAX_RUNS_PER_RATING {
        let mut h = setup.new_run();
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            pick_rng ^= pick_rng << 13;
            pick_rng ^= pick_rng >> 7;
            pick_rng ^= pick_rng << 17;
            let eligible: Vec<usize> = (0..all.len())
                .filter(|&i| {
                    evals[i].is_none_or(|(_, var)| var > MBR_VAR_OK)
                        && times[i].len() < max_rows
                })
                .collect();
            let pick = if eligible.is_empty() {
                None
            } else {
                Some(eligible[(pick_rng % eligible.len() as u64) as usize])
            };
            let Some(i) = pick else {
                setup.absorb_run(&h);
                break 'runs;
            };
            match h.try_execute_timed(&*versions[i], &args, &opts) {
                Ok((Some(measured), res)) => {
                    times[i].push(measured as f64);
                    counts[i].push(model.count_row(&args, &res.counters));
                }
                Ok((None, _)) => {
                    dropouts += 1;
                    continue;
                }
                Err(ExecError::InjectedCrash { .. }) => {
                    crashes += 1;
                    break;
                }
                Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
            }
            if times[i].len() >= min_rows && times[i].len().is_multiple_of(8) {
                let (t, c) = trimmed_rows(&times[i], &counts[i]);
                if let Some(reg) = crate::linreg::solve(&t, &c) {
                    evals[i] = Some((model.eval_of(&reg), reg.var));
                }
            }
        }
        setup.absorb_run(&h);
        if (0..all.len())
            .all(|i| evals[i].is_some_and(|(_, v)| v <= MBR_VAR_OK) || times[i].len() >= max_rows)
        {
            break;
        }
    }
    // Final fits for stragglers.
    for i in 0..all.len() {
        if evals[i].is_none() {
            let (t, c) = trimmed_rows(&times[i], &counts[i]);
            if let Some(reg) = crate::linreg::solve(&t, &c) {
                evals[i] = Some((model.eval_of(&reg), reg.var));
            }
        }
    }
    if setup.tracer.enabled() {
        let rows: Vec<u64> = times.iter().map(|t| t.len() as u64).collect();
        let res_vars: Vec<f64> =
            evals.iter().map(|e| e.map(|(_, v)| v).unwrap_or(f64::INFINITY)).collect();
        let fitted: Vec<bool> = evals.iter().map(Option::is_some).collect();
        let t = setup.tracer.clone();
        event!(
            t,
            "mbr.fit",
            rows = rows.to_json(),
            residual_vars = res_vars.to_json(),
            fitted = fitted.to_json(),
            min_rows = min_rows as u64,
        );
    }
    let base_eval = evals[0].map(|(e, _)| e).unwrap_or(1.0).max(1e-9);
    let improvements = evals[1..]
        .iter()
        .map(|e| e.map(|(v, _)| base_eval / v.max(1e-9)).unwrap_or(1.0))
        .collect();
    let vars = evals[1..].iter().map(|e| e.map(|(_, v)| v).unwrap_or(f64::INFINITY)).collect();
    let unconverged = evals.iter().filter(|e| e.is_none_or(|(_, v)| v > MBR_VAR_OK)).count();
    let samples = times.iter().map(|t| t.len()).sum();
    let trimmed = times
        .iter()
        .map(|t| t.len() - crate::stats::trim_outliers(t, crate::stats::OUTLIER_K).len())
        .sum();
    RateOutcome {
        improvements,
        vars,
        unconverged,
        method: Method::Mbr,
        samples,
        trimmed,
        dropouts,
        crashes,
    }
}

/// RBR with the improved protocol (paper Fig. 4): per invocation, save
/// the modified input, warm the cache with a precondition pass, then time
/// base and candidate back-to-back under the identical context, swapping
/// their order every invocation.
fn rate_rbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    improved: bool,
    ropts: &RateOptions,
) -> RateOutcome {
    let plan = setup.consult.rbr.clone();
    let base_v = setup.version(base, false);
    let cand_vs: Vec<Arc<dyn TierBackend>> =
        candidates.iter().map(|c| setup.version(*c, false)).collect();
    let (wmin, wmax, thr) = RBR_WINDOW;
    let wmax = scaled(wmax, ropts.window_scale);
    let mut windows: Vec<Window> =
        (0..candidates.len()).map(|_| Window::with(wmin, wmax, thr)).collect();
    let mut flip = false;
    let opts_plain = ExecOptions::default();
    let opts_record = ExecOptions { record_writes: true, num_counters: 0 };
    let mut dropouts = 0u64;
    let mut crashes = 0u64;
    'runs: for _ in 0..MAX_RUNS_PER_RATING {
        let mut h = setup.new_run();
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            let Some(i) = least_sampled_open(&windows) else {
                setup.absorb_run(&h);
                break 'runs;
            };
            let r = if improved {
                rbr_improved_sample(&mut h, &plan, &*base_v, &*cand_vs[i], &args, flip, &opts_plain, &opts_record)
            } else {
                rbr_basic_sample(&mut h, &plan, &*base_v, &*cand_vs[i], &args, &opts_plain)
            };
            flip = !flip;
            match r {
                Ok(Some(sample)) => windows[i].push(sample),
                Ok(None) => dropouts += 1,
                Err(ExecError::InjectedCrash { .. }) => {
                    crashes += 1;
                    break;
                }
                Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
            }
        }
        setup.absorb_run(&h);
        if !windows.iter().any(Window::is_open) {
            break;
        }
    }
    if setup.tracer.enabled() {
        let lens: Vec<u64> = windows.iter().map(|w| w.len() as u64).collect();
        let cvs: Vec<f64> = windows.iter().map(|w| w.mean_cv()).collect();
        let t = setup.tracer.clone();
        event!(t, "window.state", method = "rbr", lens = lens.to_json(), cvs = cvs.to_json());
    }
    let improvements = windows
        .iter()
        .map(|w| {
            let s = w.summary();
            if s.n == 0 {
                1.0
            } else {
                s.mean
            }
        })
        .collect();
    let vars = windows.iter().map(|w| w.mean_cv()).collect();
    let unconverged = windows.iter().filter(|w| !w.converged()).count();
    let samples = windows.iter().map(|w| w.len()).sum();
    let trimmed = windows.iter().map(|w| w.rejected()).sum();
    RateOutcome {
        improvements,
        vars,
        unconverged,
        method: Method::Rbr,
        samples,
        trimmed,
        dropouts,
        crashes,
    }
}

/// One improved-RBR sample: returns `R = T_base / T_candidate`, or
/// `Ok(None)` when either timing was lost to injected dropout (the
/// executions still ran, so program state stays consistent).
#[allow(clippy::too_many_arguments)]
fn rbr_improved_sample(
    h: &mut RunHarness<'_>,
    plan: &crate::consultant::RbrPlan,
    base: &dyn TierBackend,
    cand: &dyn TierBackend,
    args: &[peak_ir::Value],
    flip: bool,
    opts_plain: &ExecOptions,
    opts_record: &ExecOptions,
) -> Result<Option<f64>, ExecError> {
    // 1-4: save the modified input, run the precondition pass (warming the
    // cache), restore.
    let undo: UndoState = if plan.inspector {
        // Inspector: the precondition itself records the undo log.
        let res = h.try_execute(base, args, opts_record)?;
        let cells: Vec<(peak_ir::MemId, i64)> =
            res.writes.iter().map(|(m, i, _)| (*m, *i)).collect();
        let vals: Vec<peak_ir::Value> = res.writes.iter().map(|(_, _, v)| *v).collect();
        // Charge the log maintenance like a save pass.
        h.restore_cells(&cells, &vals);
        UndoState::Cells(cells, vals)
    } else {
        let snap = h.save_regions(&plan.modified_regions);
        let _ = h.try_execute(base, args, opts_plain)?; // precondition pass
        h.restore_regions(&snap);
        UndoState::Regions(snap)
    };
    // 5-7: time the two versions under the same context, order alternating.
    let (first, second) = if flip { (cand, base) } else { (base, cand) };
    let (t_first, _) = h.try_execute_timed(first, args, opts_plain)?;
    match &undo {
        UndoState::Cells(cells, vals) => h.restore_cells(cells, vals),
        UndoState::Regions(snap) => h.restore_regions(snap),
    }
    let (t_second, _) = h.try_execute_timed(second, args, opts_plain)?;
    // Leave the second execution's (correct) results in memory.
    let (Some(t_first), Some(t_second)) = (t_first, t_second) else {
        return Ok(None);
    };
    let (t_base, t_cand) = if flip { (t_second, t_first) } else { (t_first, t_second) };
    Ok(Some(t_base as f64 / t_cand.max(1) as f64))
}

/// One basic-RBR sample (paper Fig. 3): save the full input, time base,
/// restore, time candidate — no precondition pass, no order swap. Biased
/// by cache warm-up; kept for the ablation benchmark.
fn rbr_basic_sample(
    h: &mut RunHarness<'_>,
    plan: &crate::consultant::RbrPlan,
    base: &dyn TierBackend,
    cand: &dyn TierBackend,
    args: &[peak_ir::Value],
    opts: &ExecOptions,
) -> Result<Option<f64>, ExecError> {
    // Basic method saves the whole (written) input set.
    let mut save: Vec<peak_ir::MemId> = plan.modified_regions.clone();
    for m in &plan.input_regions {
        if !save.contains(m) {
            save.push(*m);
        }
    }
    let snap = h.save_regions(&save);
    let (t_base, _) = h.try_execute_timed(base, args, opts)?;
    h.restore_regions(&snap);
    let (t_cand, _) = h.try_execute_timed(cand, args, opts)?;
    let (Some(t_base), Some(t_cand)) = (t_base, t_cand) else {
        return Ok(None);
    };
    Ok(Some(t_base as f64 / t_cand.max(1) as f64))
}

enum UndoState {
    Cells(Vec<(peak_ir::MemId, i64)>, Vec<peak_ir::Value>),
    Regions(Vec<(peak_ir::MemId, peak_ir::Buffer)>),
}

/// Expose the basic protocol for the ablation benchmark.
pub fn rate_rbr_basic(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
) -> RateOutcome {
    rate_rbr(setup, base, candidates, false, &RateOptions::default())
}

/// WHL: one full application run per version; EVAL = whole-program time
/// (the state-of-the-art baseline whose tuning cost Figure 7(c,d)
/// normalizes against).
fn rate_whl(setup: &mut TuningSetup<'_>, base: OptConfig, candidates: &[OptConfig]) -> RateOutcome {
    let mut all: Vec<OptConfig> = vec![base];
    all.extend_from_slice(candidates);
    let opts = ExecOptions::default();
    let mut totals = Vec::with_capacity(all.len());
    let mut samples = 0usize;
    let mut crashes = 0u64;
    for cfg in &all {
        let v = setup.version(*cfg, false);
        let mut h = setup.new_run();
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            match h.try_execute(&*v, &args, &opts) {
                Ok(_) => {}
                Err(ExecError::InjectedCrash { .. }) => {
                    // Best-effort terminal method: score the partial run.
                    crashes += 1;
                    break;
                }
                Err(e) => panic!("workload {} failed: {e}", setup.workload.name()),
            }
        }
        // Whole-program timing is a single wall-clock reading; dropout of
        // per-invocation measurements does not apply, so fall back to the
        // true cycle count if the fault layer eats the reading.
        let total = h.machine.measure(h.cycles()).unwrap_or_else(|| h.cycles());
        setup.absorb_run(&h);
        samples += 1;
        totals.push(total as f64);
    }
    let base_total = totals[0].max(1.0);
    let improvements = totals[1..].iter().map(|t| base_total / t.max(1.0)).collect();
    let vars = vec![0.0; candidates.len()];
    RateOutcome {
        improvements,
        vars,
        unconverged: 0,
        method: Method::Whl,
        samples,
        trimmed: 0,
        dropouts: 0,
        crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::MachineSpec;
    use peak_workloads::{
        bzip2::Bzip2FullGtU, equake::EquakeSmvp, swim::SwimCalc3, vortex::VortexChkGetChunk,
    };

    /// Self-comparison sanity: rating the base against itself must give
    /// improvement ≈ 1 for every method that applies.
    #[test]
    fn self_rating_is_one_swim() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let base = OptConfig::o3();
        for method in [Method::Cbr, Method::Avg, Method::Rbr] {
            let out = rate(&mut setup, method, base, &[base]).expect("applicable");
            assert!(
                (out.improvements[0] - 1.0).abs() < 0.03,
                "{}: {:?}",
                method.name(),
                out.improvements
            );
        }
    }

    #[test]
    fn self_rating_is_one_rbr_bzip2() {
        let w = Bzip2FullGtU::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
        let base = OptConfig::o3();
        let out = rate(&mut setup, Method::Rbr, base, &[base]).unwrap();
        assert!(
            (out.improvements[0] - 1.0).abs() < 0.05,
            "{:?} vars={:?}",
            out.improvements,
            out.vars
        );
    }

    #[test]
    fn o0_rated_slower_than_o3() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let out = rate(&mut setup, Method::Cbr, OptConfig::o3(), &[OptConfig::o0()]).unwrap();
        assert!(
            out.improvements[0] < 0.9,
            "-O0 must rate clearly slower: {:?}",
            out.improvements
        );
    }

    #[test]
    fn whl_expensive_but_consistent() {
        let w = EquakeSmvp::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let runs_before = setup.runs_used;
        let out = rate(&mut setup, Method::Whl, OptConfig::o3(), &[OptConfig::o0()]).unwrap();
        assert_eq!(setup.runs_used - runs_before, 2, "one full run per version");
        assert!(out.improvements[0] < 1.0, "{:?}", out.improvements);
    }

    #[test]
    fn section_methods_use_fewer_cycles_than_whl() {
        let w = EquakeSmvp::new();
        let base = OptConfig::o3();
        let cand = [base.without(peak_opt::Flag::LoopUnroll)];
        let mut s1 = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        rate(&mut s1, Method::Cbr, base, &cand).unwrap();
        let cbr_cycles = s1.tuning_cycles;
        let mut s2 = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        rate(&mut s2, Method::Whl, base, &cand).unwrap();
        let whl_cycles = s2.tuning_cycles;
        assert!(
            cbr_cycles < whl_cycles,
            "CBR {cbr_cycles} should beat WHL {whl_cycles}"
        );
    }

    /// Outliers are trimmed once per sample: rating VORTEX/SPARC-II's
    /// -O3 single-removal frontier with serial RBR computes exactly one
    /// robust summary per accepted sample, however often the pick loop
    /// and the run-end check query the windows.
    #[test]
    fn rbr_summarises_each_sample_once() {
        use crate::stats::ROBUST_SUMMARIES;
        let w = VortexChkGetChunk::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let base = OptConfig::o3();
        let frontier: Vec<OptConfig> =
            base.enabled_flags().into_iter().map(|f| base.without(f)).collect();
        let before = ROBUST_SUMMARIES.with(|n| n.get());
        let out = rate(&mut setup, Method::Rbr, base, &frontier).expect("RBR applies");
        let summaries = ROBUST_SUMMARIES.with(|n| n.get()) - before;
        assert!(out.samples > frontier.len(), "{} samples", out.samples);
        assert_eq!(summaries, out.samples);
    }
}
