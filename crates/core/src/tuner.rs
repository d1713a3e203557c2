//! Top-level offline tuning (the PEAK flow of paper Fig. 5) and the
//! production measurements behind Figure 7.
//!
//! [`tune`] runs a search with a chosen rating method on the tuning
//! dataset; [`production_time`] measures the tuned binary on the
//! (different) production dataset — the train-bar/ref-bar distinction of
//! Figure 7 — simulating each production run once per process.
//! [`Tuner`] is the checkpointing, fault-tolerant driver: the same
//! Iterative Elimination, one resumable round at a time.

use crate::checkpoint::TunerCheckpoint;
use crate::consultant::Method;
use crate::degrade::{DegradeEvent, RatingSupervisor};
use crate::job::CancelToken;
use crate::rating::TuningSetup;
use crate::sched::Pool;
use crate::strategy::{
    build_strategy, iterative_elimination_from, run_pooled, strategy_seed, FrontierRater, IeState,
    IterativeElimination, RaterAccounting, SearchResult, SearchStrategy, StrategyKind,
};
use crate::version_cache::VersionCache;
use peak_obs::{event, span, Tracer};
use peak_opt::{OptConfig, ALL_FLAGS};
use peak_sim::{ExecOptions, FaultConfig, MachineSpec};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};
use std::path::{Path, PathBuf};

/// One tuned result plus its production-side evaluation.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Tuning section.
    pub ts: String,
    /// Machine name.
    pub machine: String,
    /// Rating method requested.
    pub method: Method,
    /// Dataset used for tuning.
    pub tuned_on: String,
    /// The search result.
    pub search: SearchResult,
    /// Whole-program cycles of the -O3 baseline on the ref input.
    pub baseline_cycles: u64,
    /// Whole-program cycles of the tuned version on the ref input.
    pub tuned_cycles: u64,
    /// Performance improvement over -O3, percent (Figure 7a/b bars).
    pub improvement_pct: f64,
}

impl ToJson for TuneReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("ts", self.ts.to_json()),
            ("machine", self.machine.to_json()),
            ("method", self.method.to_json()),
            ("tuned_on", self.tuned_on.to_json()),
            ("search", self.search.to_json()),
            ("baseline_cycles", self.baseline_cycles.to_json()),
            ("tuned_cycles", self.tuned_cycles.to_json()),
            ("improvement_pct", self.improvement_pct.to_json()),
        ])
    }
}

/// Measure a full production run (no instrumentation, no tuning
/// overheads): total true cycles of one application run.
///
/// The run is simulated once per process and engine: its harness has
/// seed 0 and no faults, and only true cycles are summed, so the answer
/// is a pure function of the engine's code and `ds`, and later calls —
/// for `cfg` or for any config the [`VersionCache`] hands the same
/// engine — read it from the cache's production-run memo. Concurrent
/// calls for one engine share a single run; [`VersionCache::clear`]
/// forgets every run.
pub fn production_time(
    workload: &dyn Workload,
    spec: &MachineSpec,
    cfg: OptConfig,
    ds: Dataset,
) -> u64 {
    let cache = VersionCache::global();
    let engine = cache.prepare_workload(workload, spec, cfg);
    cache.production_cycles(&engine, ds, || {
        let mut h = crate::harness::RunHarness::new(workload, ds, spec, 0);
        h.run_engine(&*engine, &ExecOptions::default(), &[], |_, _| true)
            .unwrap_or_else(|e| panic!("workload {} execution failed: {e}", workload.name()));
        h.cycles()
    })
}

/// Knobs for [`tune`]. The default — a disabled tracer, a 1-thread
/// pool, O3 start, a cancel token that never fires, serial IE — is the
/// paper's offline flow.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Tracer for the tuning phase: every rating call and tuning run
    /// emits telemetry through it.
    pub tracer: Tracer,
    /// Job pool: each round's candidate frontier is pre-compiled in
    /// parallel through the shared [`VersionCache`], and the baseline
    /// and tuned production runs run side by side. Both are pure, so the
    /// serial protocol's output is byte-identical at any pool size; the
    /// pooled strategies also rate on it, thread-count-invariantly.
    pub pool: Pool,
    /// IE start configuration (`None` = O3; the serve daemon's
    /// knowledge-store warm start supplies a nearest-neighbour config).
    pub start: Option<OptConfig>,
    /// Cooperative cancellation token, checked at tuning-run starts, IE
    /// round boundaries, and once before the production phase (whose two
    /// runs then complete).
    pub cancel: CancelToken,
    /// Search strategy. `None` runs the serial IE — the
    /// goldens-compatible protocol. `Some(kind)` runs `kind` on the
    /// pooled per-candidate rater ([`FrontierRater::pooled`]), seeded
    /// deterministically from the (workload, machine) pair — so even
    /// `Some(StrategyKind::Ie)` differs numerically from `None` (the
    /// rating protocol is restructured), but is bit-identical at any
    /// pool size.
    pub strategy: Option<StrategyKind>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            tracer: Tracer::disabled(),
            pool: Pool::with_threads(1),
            start: None,
            cancel: CancelToken::default(),
            strategy: None,
        }
    }
}

/// Tune a workload with `method` on `tuned_on`, then evaluate on the ref
/// input. This is one bar of Figure 7(a)/(b) plus the tuning-time number
/// for 7(c)/(d), and the entry point behind
/// [`run_tuning_job`](crate::job::run_tuning_job).
///
/// After the search, the cancel token is checked once; the -O3 baseline
/// and the tuned version's [`production_time`] then run as one two-job
/// batch on `options.pool`, so they overlap when a helper thread is free
/// and run inline, baseline first, on a one-thread pool.
pub fn tune(
    workload: &dyn Workload,
    spec: &MachineSpec,
    method: Method,
    tuned_on: Dataset,
    options: &TuneOptions,
) -> TuneReport {
    let mut setup = TuningSetup::new(workload, spec.clone(), tuned_on);
    setup.set_tracer(options.tracer.clone());
    setup.set_pool(options.pool.clone());
    setup.set_cancel(options.cancel.clone());
    let start = options.start.unwrap_or_else(OptConfig::o3);
    let search = match options.strategy {
        None => iterative_elimination_from(&mut setup, method, start),
        Some(kind) => {
            let seed = strategy_seed(workload.name(), spec.kind.name());
            // IE honors the warm start; the seeded strategies define
            // their own initialization off O3.
            let strategy: Box<dyn SearchStrategy> = match kind {
                StrategyKind::Ie => Box::new(IterativeElimination { start, ..Default::default() }),
                _ => build_strategy(kind, seed),
            };
            run_pooled(&mut setup, &options.pool, method, &*strategy, None).0
        }
    };
    options.cancel.check();
    let configs = [OptConfig::o3(), search.best];
    let cycles = options
        .pool
        .map(configs.len(), |i| production_time(workload, spec, configs[i], Dataset::Ref));
    let (baseline_cycles, tuned_cycles) = (cycles[0], cycles[1]);
    let improvement_pct =
        (baseline_cycles as f64 / tuned_cycles.max(1) as f64 - 1.0) * 100.0;
    TuneReport {
        benchmark: workload.name().to_string(),
        ts: workload.ts_name().to_string(),
        machine: spec.kind.name().to_string(),
        method,
        tuned_on: tuned_on.name().into(),
        search,
        baseline_cycles,
        tuned_cycles,
        improvement_pct,
    }
}

/// Checkpointed, fault-tolerant tuning driver: [`IterativeElimination`]
/// on a serial [`FrontierRater`] with the supervised fallback policy
/// ([`RatingSupervisor::default`]: retry-with-backoff + degradation
/// cascade), serializing its full state after every round so a killed
/// job resumes bit-identically via [`Tuner::resume`].
///
/// The round is the one [`iterative_elimination`](crate::strategy::iterative_elimination)
/// runs; only the policy differs. With no faults installed and no
/// degradation triggered, both visit the same (base, candidates) rating
/// sequence.
pub struct Tuner<'w> {
    setup: TuningSetup<'w>,
    method: Method,
    acct: RaterAccounting,
    ie: IeState,
    checkpoint_path: Option<PathBuf>,
}

impl<'w> Tuner<'w> {
    /// New fault-free tuner (equivalent to [`Tuner::with_faults`] with
    /// `None`).
    pub fn new(
        workload: &'w dyn Workload,
        spec: MachineSpec,
        method: Method,
        ds: Dataset,
    ) -> Self {
        Self::with_faults(workload, spec, method, ds, None)
    }

    /// New tuner with an optional fault scenario installed on every
    /// tuning run.
    pub fn with_faults(
        workload: &'w dyn Workload,
        spec: MachineSpec,
        method: Method,
        ds: Dataset,
        faults: Option<FaultConfig>,
    ) -> Self {
        let mut setup = TuningSetup::new(workload, spec, ds);
        setup.set_faults(faults);
        Tuner {
            setup,
            method,
            acct: RaterAccounting::new(method, RatingSupervisor::default()),
            ie: IeState::new(OptConfig::o3()),
            checkpoint_path: None,
        }
    }

    /// Install a tracer on the underlying [`TuningSetup`]: tuner rounds,
    /// supervised ratings, and per-run simulator metrics all emit
    /// through it. The default disabled tracer changes nothing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.setup.set_tracer(tracer);
    }

    /// Install a job pool on the underlying [`TuningSetup`]: each round's
    /// candidate frontier is pre-compiled in parallel before rating.
    /// Pure warm-up — results and checkpoints stay bit-identical.
    pub fn set_pool(&mut self, pool: Pool) {
        self.setup.set_pool(pool);
    }

    /// Write a checkpoint to `path` after every rating step (and one
    /// immediately, so even a job killed before its first step resumes).
    pub fn checkpoint_to(&mut self, path: &Path) -> std::io::Result<()> {
        self.checkpoint_path = Some(path.to_path_buf());
        self.checkpoint().save(path)
    }

    /// Snapshot the current state.
    pub fn checkpoint(&self) -> TunerCheckpoint {
        let sup = &self.acct.supervisor;
        TunerCheckpoint {
            benchmark: self.setup.workload.name().to_string(),
            machine: self.setup.spec.kind.name().to_string(),
            dataset: self.setup.ds.name().to_string(),
            method: self.method,
            last_method: self.acct.last_method,
            base_bits: self.ie.base.bits(),
            round: self.ie.round,
            ratings: self.acct.ratings,
            supervised: sup.ratings(),
            switches: sup.switches(),
            next_seed: self.setup.next_seed(),
            tuning_cycles: self.setup.tuning_cycles,
            runs_used: self.setup.runs_used,
            invocations_used: self.setup.invocations_used,
            fault_config: self.setup.fault_config().cloned(),
            events: sup.events().to_vec(),
            done: self.ie.done,
        }
    }

    /// Resume from a checkpoint written by a previous [`Tuner`]. The
    /// workload and machine must match the ones the checkpoint was taken
    /// with (validated by name); the tuning dataset is restored from the
    /// checkpoint. Stepping a resumed tuner replays the exact run-seed
    /// sequence of the uninterrupted job, so the final result is
    /// identical.
    pub fn resume(
        workload: &'w dyn Workload,
        spec: MachineSpec,
        path: &Path,
    ) -> std::io::Result<Self> {
        let cp = TunerCheckpoint::load(path)?;
        let invalid = |what: &str, want: &str, got: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checkpoint {what} mismatch: checkpoint has {got:?}, caller supplied {want:?}"),
            )
        };
        if cp.benchmark != workload.name() {
            return Err(invalid("benchmark", workload.name(), &cp.benchmark));
        }
        if cp.machine != spec.kind.name() {
            return Err(invalid("machine", spec.kind.name(), &cp.machine));
        }
        let ds = peak_workloads::dataset_by_name(&cp.dataset).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checkpoint has unknown dataset {:?}", cp.dataset),
            )
        })?;
        let mut tuner = Self::with_faults(workload, spec, cp.method, ds, cp.fault_config);
        tuner.setup.restore_accounting(
            cp.next_seed,
            cp.tuning_cycles,
            cp.runs_used,
            cp.invocations_used,
        );
        tuner.acct.supervisor.restore(cp.events, cp.supervised);
        tuner.acct.last_method = cp.last_method;
        tuner.acct.round = cp.round;
        tuner.acct.ratings = cp.ratings;
        let base = OptConfig::from_bits(cp.base_bits);
        tuner.ie = IeState { round: cp.round, done: cp.done, ..IeState::new(base) };
        tuner.checkpoint_path = Some(path.to_path_buf());
        Ok(tuner)
    }

    /// Perform one Iterative-Elimination round (one supervised rating of
    /// all single-flag removals), then checkpoint. Returns `false` once
    /// the search has terminated.
    pub fn step(&mut self) -> bool {
        if self.ie.done {
            return false;
        }
        let _round = span!(
            self.setup.tracer(),
            "tuner.round",
            round = self.ie.round as u64,
            base = self.ie.base.bits(),
            flags_enabled = self.ie.base.enabled_flags().len() as u64,
        );
        let mut rater =
            FrontierRater::serial(&mut self.setup, self.method).with_accounting(self.acct.clone());
        IterativeElimination::default().step(&mut rater, &mut self.ie, &ALL_FLAGS);
        self.acct = rater.into_accounting();
        self.save_checkpoint();
        !self.ie.done
    }

    /// Run the search to completion and return the result.
    pub fn run(&mut self) -> SearchResult {
        while self.step() {}
        self.result()
    }

    /// Downgrades logged so far.
    pub fn events(&self) -> &[DegradeEvent] {
        self.acct.supervisor.events()
    }

    /// Whether the search has terminated.
    pub fn is_done(&self) -> bool {
        self.ie.done
    }

    /// The search result for the current state (final once
    /// [`Tuner::is_done`]).
    pub fn result(&self) -> SearchResult {
        self.acct.result(self.ie.base, &self.setup)
    }

    fn save_checkpoint(&self) {
        if let Some(path) = &self.checkpoint_path {
            if let Err(e) = self.checkpoint().save(path) {
                let tracer = self.setup.tracer();
                if tracer.enabled() {
                    event!(
                        tracer,
                        "warn.checkpoint_save",
                        path = path.display().to_string(),
                        error = e.to_string(),
                    );
                } else {
                    eprintln!("warning: checkpoint save to {path:?} failed: {e}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::swim::SwimCalc3;

    #[test]
    fn production_time_scales_with_dataset() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let train = production_time(&w, &spec, OptConfig::o3(), Dataset::Train);
        let reft = production_time(&w, &spec, OptConfig::o3(), Dataset::Ref);
        assert!(reft > train, "ref {reft} > train {train}");
    }

    #[test]
    fn o3_production_beats_o0() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let o3 = production_time(&w, &spec, OptConfig::o3(), Dataset::Train);
        let o0 = production_time(&w, &spec, OptConfig::o0(), Dataset::Train);
        assert!(o3 < o0);
    }

    #[test]
    fn tuned_swim_not_slower_than_o3() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let report = tune(&w, &spec, Method::Cbr, Dataset::Train, &TuneOptions::default());
        assert!(
            report.improvement_pct > -2.0,
            "tuning must not noticeably hurt: {:+.1}% (flags off: {:?})",
            report.improvement_pct,
            report.search.disabled_flags
        );
    }

    #[test]
    fn tuner_matches_iterative_elimination_when_clean() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut setup = TuningSetup::new(&w, spec.clone(), Dataset::Train);
        let reference = crate::strategy::iterative_elimination(&mut setup, Method::Cbr);
        let mut tuner = Tuner::new(&w, spec, Method::Cbr, Dataset::Train);
        let supervised = tuner.run();
        assert_eq!(supervised.best, reference.best);
        assert_eq!(supervised.ratings, reference.ratings);
        assert_eq!(supervised.invocations, reference.invocations);
        assert!(tuner.events().is_empty(), "{:?}", tuner.events());
    }

    #[test]
    fn killed_tuner_resumes_to_identical_result() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let dir = std::env::temp_dir().join("peak-tuner-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");

        // Uninterrupted reference run.
        let mut straight = Tuner::new(&w, spec.clone(), Method::Cbr, Dataset::Train);
        let want = straight.run();

        // "Killed" run: two steps with checkpointing, then drop the tuner.
        let mut victim = Tuner::new(&w, spec.clone(), Method::Cbr, Dataset::Train);
        victim.checkpoint_to(&path).unwrap();
        victim.step();
        victim.step();
        drop(victim);

        // Resume from disk and finish.
        let mut resumed = Tuner::resume(&w, spec, &path).unwrap();
        let got = resumed.run();
        assert_eq!(got.best, want.best);
        assert_eq!(got.ratings, want.ratings);
        assert_eq!(got.runs, want.runs);
        assert_eq!(got.invocations, want.invocations);
        assert_eq!(got.tuning_cycles, want.tuning_cycles);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_workload() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let dir = std::env::temp_dir().join("peak-tuner-mismatch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let mut t = Tuner::new(&w, spec.clone(), Method::Cbr, Dataset::Train);
        t.checkpoint_to(&path).unwrap();
        let other = peak_workloads::art::ArtMatch::new();
        assert!(Tuner::resume(&other, spec, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
