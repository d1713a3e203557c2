//! The rating engines: produce fair EVALs for a set of candidate
//! optimization configurations using CBR, MBR, RBR, or the WHL/AVG
//! baselines (paper §2, §3, §5.2).
//!
//! All methods report *relative improvement over the base version*
//! (`> 1` = candidate faster), so the search can compare candidates
//! uniformly regardless of how the rating was obtained.
//!
//! The window methods (CBR and AVG, MBR, RBR) differ only in what they do
//! with one invocation. One driver, `sample_runs`, owns the rest: it
//! starts up to `MAX_RUNS_PER_RATING` application runs, counts every
//! invocation, applies the crash rule (an injected crash abandons the
//! run, any other execution error panics), and ends the rating mid-run
//! when no version wants samples or at a run's end when the method is
//! done. CBR/AVG and RBR turn their windows into a [`RateOutcome`] the
//! same way (`window_outcome`); WHL times one whole run per version. The
//! Table 1 collectors ([`crate::consistency`]) run this layer's context
//! classifier, MBR fit and improved RBR protocol.

use crate::consultant::{CbrPlan, Consultation, Method, RbrPlan};
use crate::harness::RunHarness;
use crate::job::CancelToken;
use crate::mbr::MbrModel;
use crate::sched::Pool;
use crate::stats::{least_sampled_open, Window};
use crate::version_cache::{VersionCache, VersionKey};
use peak_ir::Value;
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

    /// [`TuningSetup::version`] of `base`, then of each candidate in order.
    fn versions(
        &mut self,
        base: OptConfig,
        candidates: &[OptConfig],
        instrumented: bool,
    ) -> Vec<Arc<dyn TierBackend>> {
        std::iter::once(&base).chain(candidates).map(|c| self.version(*c, instrumented)).collect()
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
    let consult = setup.consultation();
    let out = consult.applies(method).then(|| match method {
        Method::Cbr => rate_cbr(setup, base, candidates, consult.cbr.as_ref(), opts),
        Method::Avg => rate_cbr(setup, base, candidates, None, opts),
        Method::Mbr => {
            let model = consult.mbr.as_ref().expect("MBR applies only with a model");
            rate_mbr(setup, base, candidates, model, opts)
        }
        Method::Rbr => rate_rbr(setup, base, candidates, &consult.rbr, true, opts),
        Method::Whl => rate_whl(setup, base, candidates),
    });
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

/// The crash rule: an injected crash abandons the run (the process
/// died); any other execution error is a defect and panics.
fn abandon_run(workload: &dyn Workload, e: ExecError) {
    if !matches!(e, ExecError::InjectedCrash { .. }) {
        panic!("workload {} failed: {e}", workload.name());
    }
}

/// The sampling driver of the window methods (CBR/AVG, MBR, RBR): start
/// up to [`MAX_RUNS_PER_RATING`] runs and hand every invocation, counted,
/// to the method's `step` together with its sampling `state`. The step
/// executes what the invocation needs, or returns `None` when no version
/// wants samples: the run is absorbed and the rating ends mid-run. A
/// failed execution abandons the run under the crash rule. At each run's
/// end the rating stops once `done` holds. Returns the runs abandoned to
/// a crash.
fn sample_runs<S>(
    setup: &mut TuningSetup<'_>,
    state: &mut S,
    mut step: impl FnMut(&mut S, &mut RunHarness<'_>, &[Value]) -> Option<Result<(), ExecError>>,
    done: impl Fn(&S) -> bool,
) -> u64 {
    let mut crashes = 0;
    for _ in 0..MAX_RUNS_PER_RATING {
        let mut h = setup.new_run();
        let mut stop = false;
        while let Some(args) = h.next_args() {
            setup.invocations_used += 1;
            match step(state, &mut h, &args) {
                Some(Ok(())) => {}
                Some(Err(e)) => {
                    abandon_run(setup.workload, e);
                    crashes += 1;
                    break;
                }
                None => {
                    stop = true;
                    break;
                }
            }
        }
        setup.absorb_run(&h);
        if stop || done(state) {
            break;
        }
    }
    crashes
}

/// A window method's outcome, announced by its `window.state` event. CBR
/// and AVG keep the base's own window at index 0 and rate a candidate by
/// base mean / candidate mean; RBR samples are already `T_base / T_cand`.
/// A candidate whose window holds no sample rates 1.
fn window_outcome(
    setup: &TuningSetup<'_>,
    method: Method,
    windows: &[Window],
    dropouts: u64,
    crashes: u64,
) -> RateOutcome {
    if setup.tracer.enabled() {
        let lens: Vec<u64> = windows.iter().map(|w| w.len() as u64).collect();
        let cvs: Vec<f64> = windows.iter().map(Window::mean_cv).collect();
        let t = &setup.tracer;
        let name = method.name().to_ascii_lowercase();
        event!(
            t,
            "window.state",
            method = name.as_str(),
            lens = lens.to_json(),
            cvs = cvs.to_json()
        );
    }
    let (base_eval, rated) = match method {
        Method::Rbr => (None, windows),
        _ => (Some(windows[0].summary().mean.max(1.0)), &windows[1..]),
    };
    let improvements = rated
        .iter()
        .map(|w| match (w.summary(), base_eval) {
            (s, _) if s.n == 0 => 1.0,
            (s, Some(base_eval)) => base_eval / s.mean.max(1.0),
            (s, None) => s.mean,
        })
        .collect();
    RateOutcome {
        improvements,
        vars: rated.iter().map(Window::mean_cv).collect(),
        unconverged: windows.iter().filter(|w| !w.converged()).count(),
        method,
        samples: windows.iter().map(Window::len).sum(),
        trimmed: windows.iter().map(Window::rejected).sum(),
        dropouts,
        crashes,
    }
}

/// CBR, or with no plan the AVG baseline: average the measured times of
/// invocations — those of the most important context for CBR, all of
/// them for AVG.
fn rate_cbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    plan: Option<&CbrPlan>,
    ropts: &RateOptions,
) -> RateOutcome {
    let (wmin, wmax, thr) = if plan.is_some() { CBR_WINDOW } else { AVG_WINDOW };
    let wmax = scaled(wmax, ropts.window_scale);
    // Window per version: index 0 = base.
    let versions = setup.versions(base, candidates, false);
    let mut windows: Vec<Window> = versions.iter().map(|_| Window::with(wmin, wmax, thr)).collect();
    let opts = ExecOptions::default();
    let (mut dropouts, mut ctx_matches, mut ctx_misses) = (0u64, 0u64, 0u64);
    let step = |windows: &mut Vec<Window>, h: &mut RunHarness<'_>, args: &[Value]| {
        if let Some(plan) = plan {
            // Offline tuning rates the most important context,
            // `contexts[0]` (§2.2). Any other invocation runs the base to
            // keep the program advancing; its timing is not comparable.
            if plan.context_of(h, args) != Some(0) {
                ctx_misses += 1;
                return Some(h.try_execute(&*versions[0], args, &opts).map(drop));
            }
            ctx_matches += 1;
        }
        let i = least_sampled_open(windows)?;
        Some(h.try_execute_timed(&*versions[i], args, &opts).map(|(measured, _)| match measured {
            Some(t) => windows[i].push(t as f64),
            None => dropouts += 1,
        }))
    };
    let crashes = sample_runs(setup, &mut windows, step, |w| !w.iter().any(Window::is_open));
    if plan.is_some() {
        let t = setup.tracer.clone();
        event!(t, "cbr.context", matches = ctx_matches, misses = ctx_misses);
    }
    let method = if plan.is_some() { Method::Cbr } else { Method::Avg };
    window_outcome(setup, method, &windows, dropouts, crashes)
}

/// One version's MBR rows and its latest fit.
#[derive(Clone, Default)]
struct MbrRows {
    times: Vec<f64>,
    counts: Vec<Vec<f64>>,
    /// (EVAL, VAR) of the latest successful fit.
    fit: Option<(f64, f64)>,
}

/// MBR: regression of time on component counts per version (paper §2.3).
fn rate_mbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    model: &MbrModel,
    ropts: &RateOptions,
) -> RateOutcome {
    let max_rows = scaled(MBR_MAX_ROWS, ropts.window_scale);
    let versions = setup.versions(base, candidates, true);
    let opts = ExecOptions { record_writes: false, num_counters: model.num_counters };
    let mut rows = vec![MbrRows::default(); versions.len()];
    let min_rows = MBR_MIN_ROWS.max(2 * model.num_components());
    // A version wants rows until its fit converges or it holds `max_rows`.
    let wants =
        |r: &MbrRows| r.fit.is_none_or(|(_, var)| var > MBR_VAR_OK) && r.times.len() < max_rows;
    let mut dropouts = 0u64;
    // Version assignment is randomized, not round-robin: a fixed stride
    // phase-locks with periodic context streams (MGRID's V-cycle), giving
    // different versions systematically different context mixes and
    // biasing the fits against each other.
    let mut pick_rng: u64 = 0x9E3779B97F4A7C15;
    let step = |rows: &mut Vec<MbrRows>, h: &mut RunHarness<'_>, args: &[Value]| {
        pick_rng ^= pick_rng << 13;
        pick_rng ^= pick_rng >> 7;
        pick_rng ^= pick_rng << 17;
        let eligible: Vec<usize> = (0..rows.len()).filter(|&i| wants(&rows[i])).collect();
        if eligible.is_empty() {
            return None;
        }
        let i = eligible[(pick_rng % eligible.len() as u64) as usize];
        Some(h.try_execute_timed(&*versions[i], args, &opts).map(|(measured, res)| {
            let Some(t) = measured else {
                dropouts += 1;
                return;
            };
            let r = &mut rows[i];
            r.times.push(t as f64);
            r.counts.push(model.count_row(args, &res.counters));
            if r.times.len() >= min_rows && r.times.len().is_multiple_of(8) {
                r.fit = model.fit(&r.times, &r.counts).or(r.fit);
            }
        }))
    };
    let crashes = sample_runs(setup, &mut rows, step, |rows| !rows.iter().any(wants));
    // Final fits for stragglers.
    for r in rows.iter_mut().filter(|r| r.fit.is_none()) {
        r.fit = model.fit(&r.times, &r.counts);
    }
    if setup.tracer.enabled() {
        let lens: Vec<u64> = rows.iter().map(|r| r.times.len() as u64).collect();
        let res_vars: Vec<f64> =
            rows.iter().map(|r| r.fit.map(|(_, v)| v).unwrap_or(f64::INFINITY)).collect();
        let fitted: Vec<bool> = rows.iter().map(|r| r.fit.is_some()).collect();
        let t = setup.tracer.clone();
        event!(
            t,
            "mbr.fit",
            rows = lens.to_json(),
            residual_vars = res_vars.to_json(),
            fitted = fitted.to_json(),
            min_rows = min_rows as u64,
        );
    }
    let base_eval = rows[0].fit.map(|(e, _)| e).unwrap_or(1.0).max(1e-9);
    let improvements = rows[1..]
        .iter()
        .map(|r| r.fit.map(|(v, _)| base_eval / v.max(1e-9)).unwrap_or(1.0))
        .collect();
    let vars = rows[1..].iter().map(|r| r.fit.map(|(_, v)| v).unwrap_or(f64::INFINITY)).collect();
    let unconverged = rows.iter().filter(|r| r.fit.is_none_or(|(_, v)| v > MBR_VAR_OK)).count();
    let samples = rows.iter().map(|r| r.times.len()).sum();
    let trimmed = rows
        .iter()
        .map(|r| {
            r.times.len() - crate::stats::trim_outliers(&r.times, crate::stats::OUTLIER_K).len()
        })
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

/// RBR: per invocation, rate one candidate against the base under the
/// identical context — with the improved protocol (paper Fig. 4,
/// [`RunHarness::rbr_improved`]), swapping their order every sample, or
/// with the basic one (Fig. 3) for the ablation.
fn rate_rbr(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
    plan: &RbrPlan,
    improved: bool,
    ropts: &RateOptions,
) -> RateOutcome {
    // Index 0 = base.
    let versions = setup.versions(base, candidates, false);
    let (base_v, cand_vs) = (&*versions[0], &versions[1..]);
    let (wmin, wmax, thr) = RBR_WINDOW;
    let wmax = scaled(wmax, ropts.window_scale);
    let mut windows: Vec<Window> = cand_vs.iter().map(|_| Window::with(wmin, wmax, thr)).collect();
    let mut flip = false;
    let mut dropouts = 0u64;
    let step = |windows: &mut Vec<Window>, h: &mut RunHarness<'_>, args: &[Value]| {
        let i = least_sampled_open(windows)?;
        let cand = &*cand_vs[i];
        let sample = if improved {
            let order = if flip { [cand, base_v] } else { [base_v, cand] };
            h.rbr_improved(plan, base_v, order, args, |m, cycles| m.measure(cycles))
                .map(|[first, second]| Some(rbr_ratio(first?, second?, flip)))
        } else {
            rbr_basic_sample(h, plan, base_v, cand, args)
        };
        flip = !flip;
        Some(sample.map(|s| match s {
            Some(s) => windows[i].push(s),
            None => dropouts += 1,
        }))
    };
    let crashes = sample_runs(setup, &mut windows, step, |w| !w.iter().any(Window::is_open));
    window_outcome(setup, Method::Rbr, &windows, dropouts, crashes)
}

/// An RBR sample `R = T_base / T_candidate` from the two timed readings
/// in execution order; `flip` = the candidate ran first.
pub(crate) fn rbr_ratio(first: u64, second: u64, flip: bool) -> f64 {
    let (t_base, t_cand) = if flip { (second, first) } else { (first, second) };
    t_base as f64 / t_cand.max(1) as f64
}

/// One basic-RBR sample (paper Fig. 3): save the full input, time base,
/// restore, time candidate — no precondition pass, no order swap. Biased
/// by cache warm-up; kept for the ablation benchmark. `Ok(None)` when a
/// reading was lost to injected dropout.
fn rbr_basic_sample(
    h: &mut RunHarness<'_>,
    plan: &RbrPlan,
    base: &dyn TierBackend,
    cand: &dyn TierBackend,
    args: &[Value],
) -> Result<Option<f64>, ExecError> {
    let opts = ExecOptions::default();
    // Basic method saves the whole (written) input set.
    let mut save: Vec<peak_ir::MemId> = plan.modified_regions.clone();
    for m in &plan.input_regions {
        if !save.contains(m) {
            save.push(*m);
        }
    }
    let snap = h.save_regions(&save);
    let (t_base, _) = h.try_execute_timed(base, args, &opts)?;
    h.restore_regions(&snap);
    let (t_cand, _) = h.try_execute_timed(cand, args, &opts)?;
    Ok(t_base.zip(t_cand).map(|(b, c)| rbr_ratio(b, c, false)))
}

/// Expose the basic protocol for the ablation benchmark.
pub fn rate_rbr_basic(
    setup: &mut TuningSetup<'_>,
    base: OptConfig,
    candidates: &[OptConfig],
) -> RateOutcome {
    let consult = setup.consultation();
    rate_rbr(setup, base, candidates, &consult.rbr, false, &RateOptions::default())
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
        let left = h.remaining();
        let ran = h.run_engine(&*v, &opts, &[], |_, _| true);
        // Every invocation started counts, a crashing one too.
        setup.invocations_used += (left - h.remaining()) as u64;
        if let Err(e) = ran {
            // Best-effort terminal method: score the partial run.
            abandon_run(setup.workload, e);
            crashes += 1;
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
        bzip2::Bzip2FullGtU, crafty::CraftyAttacked, equake::EquakeSmvp, swim::SwimCalc3,
        vortex::VortexChkGetChunk,
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

    /// Paper §2.4.2: the basic protocol times the second version on a
    /// cache the first one warmed, which biases a self-rating; the
    /// improved protocol's precondition run and order swap remove the
    /// bias. CRAFTY's branchy, data-dependent control shows it.
    #[test]
    fn improved_rbr_removes_the_warm_up_bias() {
        let w = CraftyAttacked::new();
        let base = OptConfig::o3();
        let bias = |improved: bool| {
            let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
            let out = if improved {
                rate(&mut setup, Method::Rbr, base, &[base]).expect("RBR applies")
            } else {
                rate_rbr_basic(&mut setup, base, &[base])
            };
            out.improvements[0] - 1.0
        };
        let (basic, improved) = (bias(false), bias(true));
        assert!(basic.abs() > 0.02, "basic protocol bias {basic:+.4} should show");
        assert!(improved.abs() < basic.abs(), "improved {improved:+.4} vs basic {basic:+.4}");
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
