//! Process-wide cache of tuning-section versions (compiled, prepared and
//! lowered) and of the cycles of their production runs.
//!
//! Every layer of the tuning pipeline — rating calls, the checkpointed
//! [`Tuner`](crate::Tuner), the degradation cascade, the consultant's MBR
//! profile, the Table 1 collectors, production measurement — needs an
//! executable version for some `(workload, config, machine)` triple.
//! Compiling (`peak_opt::optimize`), preparing
//! ([`PreparedVersion::prepare`]) and lowering (`peak_jit::lower`) are
//! pure functions of their inputs: the workload's program is a fixed
//! artifact, the optimization pipeline is deterministic, and register
//! allocation depends only on the machine spec. So one shared cache keyed
//! by (workload, TS, instrumented?, config bits, machine kind) can
//! hand out `Arc<dyn TierBackend>` clones forever without changing a
//! single simulated cycle — the "never compile the same version twice"
//! amortization that FOGA-style flag-evaluation caches and the Collective
//! Tuning Initiative build their tuning-time wins on.
//!
//! Each entry is built once, by [`build_engine`](crate::build_engine)
//! for the jit tier: the version is compiled, prepared and lowered, and
//! only the lowered code is kept — the compiled IR and the decoded
//! blocks are dropped. A version whose lowering declines keeps its
//! predecoded engine. The run harness executes entries as they are; no
//! tier decision is left for run time.
//!
//! The cache is process-wide ([`VersionCache::global`]) because the
//! experiment drivers (`table1`, `figure7`) fan benchmarks out across a
//! shared [`Pool`] and repeat configurations across cells, rating
//! retries, the CBR→MBR→RBR→WHL cascade, and checkpoint resume.
//! Building happens outside the map lock behind an **in-flight gate**:
//! the first thread to miss a key installs a building slot and builds;
//! concurrent requesters of the same key block on the gate and share the
//! one artifact, so racing workers never compile the same config twice
//! (the `compiles` counter is exact). [`VersionCache::warm`] exposes
//! that as a bulk pre-build API: the search layer hands a round's whole
//! candidate frontier to the pool, so compiling and lowering run there
//! and rating then runs against a hot cache.
//!
//! Entries are never evicted ([`VersionCache::clear`] exists for
//! long-lived embedders), so the entries are where a tuning process's
//! memory goes. One pass of the end-to-end benchmark builds about 6,000
//! entries serving its search jobs and about 1,000 serving its Figure 7
//! cells. Measured with a counting allocator (mean over -O3 and its 38
//! single-flag removals, per benchmark and machine, 8 benchmarks × 2
//! machines), a compiled version takes 2.4–8.3 KB, preparing adds
//! 0.5–1.1 KB and lowering 1.2–3.7 KB. A predecoded entry keeps IR and
//! decoded blocks (2.9–9.4 KB); a lowered entry keeps the lowered code
//! alone (1.2–3.7 KB), where keeping all three would cost 4.1–12.5 KB.
//!
//! Beside the versions the cache memoizes production runs for
//! [`production_time`](crate::production_time): the true cycles of one full
//! run of a version on a dataset, keyed by `(VersionKey, Dataset)`. A
//! production run is noise-free and fault-free, so its cycles are a pure
//! function of the key, and Figure 7's cells — which all score against
//! their pair's -O3 ref run — simulate each distinct run once. Tuning
//! runs are not memoized: they are noisy, can be faulted, and count
//! toward tuning time.

use crate::sched::Pool;
use peak_obs::Tracer;
use peak_opt::{CompiledVersion, OptConfig};
use peak_sim::{ExecTier, MachineKind, MachineSpec, PreparedVersion, TierBackend};
use peak_workloads::{Dataset, Workload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Identity of one cached version.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VersionKey {
    /// Benchmark name (workloads are fixed artifacts, so the name
    /// identifies the program).
    pub workload: &'static str,
    /// Tuning-section name.
    pub ts: &'static str,
    /// Whether the source is the MBR-instrumented variant of the TS
    /// (deterministically derived from the workload, so the flag
    /// identifies it).
    pub instrumented: bool,
    /// Optimization configuration bits ([`OptConfig::bits`]).
    pub config_bits: u64,
    /// Target machine (register allocation and pre-decoding depend on it).
    pub machine: MachineKind,
}

impl VersionKey {
    /// Key for the plain (uninstrumented) TS of `workload`.
    pub fn plain(workload: &dyn Workload, cfg: OptConfig, machine: MachineKind) -> Self {
        VersionKey {
            workload: workload.name(),
            ts: workload.ts_name(),
            instrumented: false,
            config_bits: cfg.bits(),
            machine,
        }
    }

    /// Key for the MBR-instrumented TS of `workload`.
    pub fn instrumented(workload: &dyn Workload, cfg: OptConfig, machine: MachineKind) -> Self {
        VersionKey { instrumented: true, ..Self::plain(workload, cfg, machine) }
    }
}

/// Counter snapshot of a cache (monotonic; taken with
/// [`VersionCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that did not find a ready version (each triggers or waits
    /// for exactly one compile).
    pub misses: u64,
    /// Builds (compile, prepare, lower) actually performed. With the
    /// in-flight gate this counts *unique work*:
    /// `misses - compiles` lookups were coalesced onto a concurrent
    /// build of the same key.
    pub compiles: u64,
    /// Missing lookups that blocked on another thread's in-flight
    /// compile instead of compiling themselves.
    pub coalesced: u64,
    /// Production runs simulated to completion for
    /// [`production_time`](crate::production_time).
    pub production_runs: u64,
    /// Production-run requests answered from the memo, including those
    /// that waited on a run already in flight.
    pub production_hits: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            compiles: self.compiles.saturating_sub(earlier.compiles),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            production_runs: self.production_runs.saturating_sub(earlier.production_runs),
            production_hits: self.production_hits.saturating_sub(earlier.production_hits),
        }
    }

    /// The one human-readable summary line every consumer prints
    /// (figure7's stderr report, `peak_serve stats`), so the format
    /// lives in exactly one place. `entries` is
    /// [`VersionCache::len`] at render time.
    pub fn render(&self, entries: usize) -> String {
        format!(
            "version cache: {} hits / {} lookups ({:.0}% hit rate, {} entries); \
             production runs: {} simulated, {} from memo",
            self.hits,
            self.hits + self.misses,
            self.hit_rate() * 100.0,
            entries,
            self.production_runs,
            self.production_hits,
        )
    }
}

/// In-flight gate: the slot a missing key holds while its first
/// requester compiles. Waiters block on the condvar; on panic the
/// builder marks the gate failed and waiters retry the full lookup.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

enum GateState {
    Pending,
    Ready(Arc<dyn TierBackend>),
    Failed,
}

enum Slot {
    Ready(Arc<dyn TierBackend>),
    Building(Arc<Gate>),
}

/// Removes the building slot and fails the gate if the compile panics,
/// so waiters retry instead of hanging.
struct BuildGuard<'a> {
    cache: &'a VersionCache,
    key: VersionKey,
    gate: Arc<Gate>,
    done: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.cache.map.lock().expect("version cache lock").remove(&self.key);
        *self.gate.state.lock().expect("gate lock") = GateState::Failed;
        self.gate.cv.notify_all();
    }
}

/// Memo slot of one production run: filled once, by the first requester
/// whose run completes.
type ProductionSlot = Arc<OnceLock<u64>>;

/// A version cache: `VersionKey` → `Arc<dyn TierBackend>` (the
/// version's engine), with in-flight de-duplication of concurrent
/// builds, plus the production-run memo `(VersionKey, Dataset)` → true
/// cycles.
#[derive(Default)]
pub struct VersionCache {
    map: Mutex<HashMap<VersionKey, Slot>>,
    production: Mutex<HashMap<(VersionKey, Dataset), ProductionSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    production_runs: AtomicU64,
    production_hits: AtomicU64,
}

impl std::fmt::Debug for VersionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionCache").field("stats", &self.stats()).finish()
    }
}

impl VersionCache {
    /// Fresh empty cache (tests; everything else uses
    /// [`VersionCache::global`]).
    pub fn new() -> Self {
        VersionCache::default()
    }

    /// The process-wide cache shared by every tuning layer.
    pub fn global() -> &'static VersionCache {
        static GLOBAL: OnceLock<VersionCache> = OnceLock::new();
        GLOBAL.get_or_init(VersionCache::new)
    }

    /// Return the engine for `key`, building it on first use: `compile`,
    /// then [`PreparedVersion::prepare`], then
    /// [`build_engine`](crate::build_engine) for the jit tier (which
    /// lowers the version, or keeps its predecoded engine and traces the
    /// declined lowering on `tracer`).
    /// `spec.kind` must match `key.machine` — the artifact is
    /// machine-specific.
    ///
    /// Concurrent calls with the same key build **once**: the first
    /// requester builds outside the map lock while later ones wait on
    /// the in-flight gate and share the artifact.
    pub fn get_or_prepare(
        &self,
        key: VersionKey,
        spec: &MachineSpec,
        tracer: &Tracer,
        compile: impl FnOnce() -> CompiledVersion,
    ) -> Arc<dyn TierBackend> {
        debug_assert_eq!(spec.kind, key.machine, "key/spec machine mismatch");
        let mut compile = Some(compile);
        loop {
            let found: Option<Result<Arc<dyn TierBackend>, Arc<Gate>>> = {
                let mut map = self.map.lock().expect("version cache lock");
                let probe = match map.get(&key) {
                    Some(Slot::Ready(v)) => Some(Ok(v.clone())),
                    Some(Slot::Building(gate)) => Some(Err(gate.clone())),
                    None => None,
                };
                if probe.is_none() {
                    let gate = Arc::new(Gate {
                        state: Mutex::new(GateState::Pending),
                        cv: Condvar::new(),
                    });
                    map.insert(key.clone(), Slot::Building(gate.clone()));
                    drop(map);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return self.build(
                        key,
                        spec,
                        tracer,
                        gate,
                        compile.take().expect("compile fn"),
                    );
                }
                probe
            };
            let gate = match found.expect("probe populated") {
                Ok(v) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return v;
                }
                Err(gate) => gate,
            };
            // Someone else is compiling this key: wait on the gate.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut state = gate.state.lock().expect("gate lock");
            loop {
                match &*state {
                    GateState::Ready(v) => return v.clone(),
                    GateState::Failed => break, // builder died: retry the lookup
                    GateState::Pending => {
                        state = gate.cv.wait(state).expect("gate wait");
                    }
                }
            }
        }
    }

    fn build(
        &self,
        key: VersionKey,
        spec: &MachineSpec,
        tracer: &Tracer,
        gate: Arc<Gate>,
        compile: impl FnOnce() -> CompiledVersion,
    ) -> Arc<dyn TierBackend> {
        let mut guard = BuildGuard { cache: self, key, gate, done: false };
        // Build outside the map lock: compilation dominates, and the
        // building slot keeps racing requesters parked on the gate.
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let pv = PreparedVersion::prepare(compile(), spec);
        let engine = crate::tier::build_engine(pv, ExecTier::Jit, tracer);
        self.map
            .lock()
            .expect("version cache lock")
            .insert(guard.key.clone(), Slot::Ready(engine.clone()));
        *guard.gate.state.lock().expect("gate lock") = GateState::Ready(engine.clone());
        guard.gate.cv.notify_all();
        guard.done = true;
        engine
    }

    /// Shorthand: build (or fetch) the plain TS of `workload` under
    /// `cfg` for `spec` (untraced).
    pub fn prepare_workload(
        &self,
        workload: &dyn Workload,
        spec: &MachineSpec,
        cfg: OptConfig,
    ) -> Arc<dyn TierBackend> {
        let key = VersionKey::plain(workload, cfg, spec.kind);
        self.get_or_prepare(key, spec, &Tracer::disabled(), || {
            crate::compile::compile_validated(workload.program(), workload.ts(), &cfg)
        })
    }

    /// Bulk pre-build: push every `(key, compile)` request through the
    /// cache on `pool`, in parallel, so compiling, preparing and lowering
    /// all run on the pool. Purely a warm-up — results land in the cache
    /// (shared, deduplicated in flight) and later
    /// [`VersionCache::get_or_prepare`] calls hit. Safe to call with
    /// keys that are already cached (they count as hits and cost one map
    /// probe).
    pub fn warm<F>(
        &self,
        pool: &Pool,
        spec: &MachineSpec,
        tracer: &Tracer,
        requests: Vec<(VersionKey, F)>,
    ) where
        F: FnOnce() -> CompiledVersion + Send,
    {
        let slots: Vec<Mutex<Option<(VersionKey, F)>>> =
            requests.into_iter().map(|r| Mutex::new(Some(r))).collect();
        pool.map(slots.len(), |i| {
            let (key, compile) =
                slots[i].lock().expect("warm slot").take().expect("warm request taken once");
            let _ = self.get_or_prepare(key, spec, tracer, compile);
        });
    }

    /// The true cycles of one full production run of `key` on `ds`,
    /// running `run` only when no earlier request for the same pair
    /// completed. `run` must simulate that run deterministically (the
    /// seed-0, fault-free harness of
    /// [`production_time`](crate::production_time), the only caller), so
    /// every answer for a key is the same number.
    ///
    /// Concurrent requests for one pair simulate once: the first runs
    /// `run` outside the memo lock, later ones wait for it and share its
    /// answer. If `run` panics the slot stays empty and the next
    /// requester runs its own.
    pub(crate) fn production_cycles(
        &self,
        key: VersionKey,
        ds: Dataset,
        run: impl FnOnce() -> u64,
    ) -> u64 {
        let slot = self
            .production
            .lock()
            .expect("production memo lock")
            .entry((key, ds))
            .or_default()
            .clone();
        let mut ran = false;
        let cycles = *slot.get_or_init(|| {
            let cycles = run();
            ran = true;
            cycles
        });
        let counter = if ran { &self.production_runs } else { &self.production_hits };
        counter.fetch_add(1, Ordering::Relaxed);
        cycles
    }

    /// Cached versions currently held (ready or in flight).
    pub fn len(&self) -> usize {
        self.map.lock().expect("version cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the version and production-run counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            production_runs: self.production_runs.load(Ordering::Relaxed),
            production_hits: self.production_hits.load(Ordering::Relaxed),
        }
    }

    /// Drop every cached version and every memoized production run
    /// (counters keep running), so the next request for either builds or
    /// simulates again. In-flight builds complete against their gates
    /// and re-insert themselves; in-flight production runs answer their
    /// waiters and are not kept.
    pub fn clear(&self) {
        self.map.lock().expect("version cache lock").clear();
        self.production.lock().expect("production memo lock").clear();
    }

    /// Mirror this cache's counters into the global
    /// [`MetricsRegistry`](peak_obs::MetricsRegistry) as
    /// `core.version_cache.*`. The cache keeps its own atomics hot-path
    /// side; this sync-on-read (called by whoever is about to snapshot —
    /// the serve daemon's stats handler) advances the registry counters
    /// by the accumulated delta, so the exported series stays monotonic
    /// without double-counting.
    pub fn publish_metrics(&self) {
        use peak_obs::metrics::MetricsRegistry;
        let r = MetricsRegistry::global();
        let s = self.stats();
        let sync = |name: &str, help: &str, now: u64| {
            let c = r.counter(name, help);
            c.add(now.saturating_sub(c.get()));
        };
        sync("core.version_cache.hits", "Version-cache lookups served from cache", s.hits);
        sync(
            "core.version_cache.misses",
            "Version-cache lookups that compiled or waited",
            s.misses,
        );
        sync(
            "core.version_cache.compiles",
            "Unique version builds (compile, prepare, lower)",
            s.compiles,
        );
        sync(
            "core.version_cache.coalesced",
            "Missing lookups coalesced onto an in-flight compile",
            s.coalesced,
        );
        sync("core.version_cache.production_runs", "Production runs simulated", s.production_runs);
        sync(
            "core.version_cache.production_hits",
            "Production-run requests answered from the memo",
            s.production_hits,
        );
        r.gauge("core.version_cache.entries", "Versions currently cached").set(self.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunHarness;
    use peak_sim::{ExecOptions, SimMetrics};
    use peak_workloads::swim::SwimCalc3;
    use peak_workloads::Dataset;

    fn key(w: &dyn Workload, cfg: OptConfig) -> VersionKey {
        VersionKey::plain(w, cfg, MachineKind::SparcII)
    }

    fn untraced() -> Tracer {
        Tracer::disabled()
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let a = cache.prepare_workload(&w, &spec, OptConfig::o3());
        let b = cache.prepare_workload(&w, &spec, OptConfig::o3());
        assert!(Arc::ptr_eq(&a, &b), "same key shares one artifact");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.compiles, s.coalesced), (1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_separate_machine_config_and_instrumentation() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let sparc = MachineSpec::sparc_ii();
        let p4 = MachineSpec::pentium_iv();
        let _ = cache.prepare_workload(&w, &sparc, OptConfig::o3());
        let _ = cache.prepare_workload(&w, &p4, OptConfig::o3());
        let _ = cache.prepare_workload(&w, &sparc, OptConfig::o0());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().compiles, 3);
        assert_ne!(
            VersionKey::plain(&w, OptConfig::o3(), MachineKind::SparcII),
            VersionKey::instrumented(&w, OptConfig::o3(), MachineKind::SparcII),
        );
    }

    /// An entry is lowered when it is built, by `get_or_prepare` and by
    /// `warm` alike, and keeps no interpretive body.
    #[test]
    fn jit_entries_are_lowered_at_build() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let (prog, ts, o0) = (w.program(), w.ts(), OptConfig::o0());
        let got = cache.get_or_prepare(key(&w, OptConfig::o3()), &spec, &untraced(), || {
            peak_opt::optimize(prog, ts, &OptConfig::o3())
        });
        let requests = vec![(key(&w, o0), move || peak_opt::optimize(prog, ts, &o0))];
        cache.warm(&Pool::with_threads(2), &spec, &untraced(), requests);
        let warmed = cache.get_or_prepare(key(&w, o0), &spec, &untraced(), || {
            unreachable!("a warmed key hits")
        });
        for engine in [got, warmed] {
            assert_eq!(engine.tier(), ExecTier::Jit);
            assert!(engine.prepared().is_none(), "a lowered entry keeps no prepared body");
        }
    }

    /// The cached entry executes like a fresh compile: the same cycles
    /// and return on a run's first invocation.
    #[test]
    fn cached_version_matches_fresh_compile() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let fresh = PreparedVersion::prepare(
            peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3()),
            &spec,
        );
        let cached = cache.prepare_workload(&w, &spec, OptConfig::o3());
        let first_invocation = |engine: &dyn TierBackend| {
            let mut h = RunHarness::new(&w, Dataset::Train, &spec, 3);
            let args = h.next_args().expect("an invocation");
            let r = h.execute(engine, &args, &ExecOptions::default());
            (r.true_cycles, r.ret)
        };
        assert_eq!(first_invocation(cached.as_ref()), first_invocation(&fresh));
    }

    /// A cached entry and a directly prepared version of one config are
    /// the same version: identical per-invocation results and machine
    /// state over a whole train run.
    #[test]
    fn cached_entry_and_prepared_version_agree_over_a_train_run() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let cfg = OptConfig::o3().without(peak_opt::Flag::LoopUnroll);
        let compile = || peak_opt::optimize(w.program(), w.ts(), &cfg);
        let cached = cache.get_or_prepare(key(&w, cfg), &spec, &untraced(), compile);
        assert_eq!(cached.tier(), ExecTier::Jit);
        let prepared = PreparedVersion::prepare(compile(), &spec);
        let train_run = |engine: &dyn TierBackend| {
            let mut h = RunHarness::new(&w, Dataset::Train, &spec, 5);
            let mut results = Vec::new();
            while let Some(args) = h.next_args() {
                let r = h.execute(engine, &args, &ExecOptions::default());
                results.push((r.true_cycles, r.ret));
            }
            (results, SimMetrics::snapshot(&h.machine), h.mem.clone())
        };
        let (pre, pre_state, pre_mem) = train_run(&prepared);
        let (jit, jit_state, jit_mem) = train_run(cached.as_ref());
        assert_eq!(pre.len(), w.invocations(Dataset::Train));
        assert_eq!(pre, jit, "per-invocation cycles and returns");
        assert_eq!(pre_state, jit_state, "machine state");
        assert!(pre_mem == jit_mem, "memory");
    }

    /// Satellite of the scheduler work: under real thread contention,
    /// every unique key compiles exactly once — racing requesters either
    /// hit a ready slot or coalesce onto the in-flight build.
    #[test]
    fn contended_lookups_compile_each_key_once() {
        const THREADS: usize = 8;
        let cache = Arc::new(VersionCache::new());
        let w = Arc::new(SwimCalc3::new());
        let spec = MachineSpec::sparc_ii();
        let cfgs =
            [OptConfig::o3(), OptConfig::o0(), OptConfig::o3().without(peak_opt::Flag::LoopUnroll)];
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let cache = cache.clone();
            let w = w.clone();
            let spec = spec.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                // Different starting offsets per thread maximize overlap
                // on distinct keys at the same instant.
                for i in 0..cfgs.len() {
                    let cfg = cfgs[(t + i) % cfgs.len()];
                    let _ = cache.prepare_workload(w.as_ref(), &spec, cfg);
                }
            }));
        }
        for h in handles {
            h.join().expect("lookup thread");
        }
        let s = cache.stats();
        assert_eq!(s.compiles, cfgs.len() as u64, "each unique key compiles exactly once: {s:?}");
        assert_eq!(
            s.hits + s.misses,
            (THREADS * cfgs.len()) as u64,
            "every lookup accounted: {s:?}"
        );
        assert_eq!(
            s.misses,
            s.compiles + s.coalesced,
            "misses split exactly into builders and coalesced waiters: {s:?}"
        );
        assert_eq!(cache.len(), cfgs.len());
    }

    /// The bulk warm-up API dedupes duplicate keys in the request list
    /// itself and leaves the cache hot for subsequent lookups.
    #[test]
    fn warm_bulk_precompile_dedupes_and_hits_after() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let pool = Pool::with_threads(4);
        // Frontier with a duplicate: o3 appears twice.
        let cfgs = [OptConfig::o3(), OptConfig::o0(), OptConfig::o3()];
        let requests: Vec<_> = cfgs
            .iter()
            .map(|&cfg| {
                let key = VersionKey::plain(&w, cfg, spec.kind);
                let (prog, ts) = (w.program(), w.ts());
                (key, move || peak_opt::optimize(prog, ts, &cfg))
            })
            .collect();
        cache.warm(&pool, &spec, &untraced(), requests);
        let s = cache.stats();
        assert_eq!(s.compiles, 2, "duplicate key compiles once: {s:?}");
        assert_eq!(cache.len(), 2);
        let before = cache.stats();
        let _ = cache.prepare_workload(&w, &spec, OptConfig::o3());
        let _ = cache.prepare_workload(&w, &spec, OptConfig::o0());
        let d = cache.stats().delta(&before);
        assert_eq!((d.hits, d.misses), (2, 0), "warmed keys hit: {d:?}");
    }

    /// Ten concurrent requests for one production run simulate it once:
    /// the run does not finish until the pool's other three workers have
    /// entered `production_cycles`, so they wait on the run in flight.
    #[test]
    fn concurrent_production_requests_simulate_once() {
        const THREADS: usize = 4;
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let key = VersionKey::plain(&w, OptConfig::o3(), MachineKind::SparcII);
        let entered = (Mutex::new(0usize), Condvar::new());
        let answers = Pool::with_threads(THREADS).map(10, |_| {
            *entered.0.lock().expect("entered lock") += 1;
            entered.1.notify_all();
            cache.production_cycles(key.clone(), Dataset::Ref, || {
                let (n, timeout) = entered
                    .1
                    .wait_timeout_while(
                        entered.0.lock().expect("entered lock"),
                        std::time::Duration::from_secs(30),
                        |n| *n < THREADS,
                    )
                    .expect("entered wait");
                assert!(!timeout.timed_out(), "only {} requesters arrived", *n);
                12_345
            })
        });
        assert_eq!(answers, vec![12_345; 10], "every requester gets the one run's cycles");
        let s = cache.stats();
        assert_eq!((s.production_runs, s.production_hits), (1, 9), "{s:?}");
    }

    /// A run that panics leaves its slot empty: the next request runs
    /// again and its answer is kept.
    #[test]
    fn panicked_production_run_is_retried() {
        let cache = VersionCache::new();
        let key = VersionKey::plain(&SwimCalc3::new(), OptConfig::o3(), MachineKind::SparcII);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.production_cycles(key.clone(), Dataset::Train, || panic!("injected run failure"))
        }));
        assert!(panicked.is_err(), "the run's panic reaches its requester");
        assert_eq!(cache.production_cycles(key.clone(), Dataset::Train, || 7), 7);
        assert_eq!(cache.production_cycles(key, Dataset::Train, || unreachable!("memoized")), 7);
        let s = cache.stats();
        assert_eq!((s.production_runs, s.production_hits), (1, 1), "{s:?}");
    }

    /// The memo keys on the dataset as well as the version, and `clear`
    /// drops it, so the next request simulates again.
    #[test]
    fn clear_drops_memoized_production_runs() {
        let cache = VersionCache::new();
        let key = VersionKey::plain(&SwimCalc3::new(), OptConfig::o3(), MachineKind::SparcII);
        assert_eq!(cache.production_cycles(key.clone(), Dataset::Train, || 1), 1);
        assert_eq!(cache.production_cycles(key.clone(), Dataset::Ref, || 2), 2);
        assert_eq!(cache.production_cycles(key.clone(), Dataset::Train, || 3), 1);
        cache.clear();
        assert_eq!(cache.production_cycles(key, Dataset::Train, || 4), 4);
        let s = cache.stats();
        assert_eq!((s.production_runs, s.production_hits), (3, 1), "{s:?}");
    }

    #[test]
    fn failed_build_unblocks_waiters_and_retries() {
        let cache = Arc::new(VersionCache::new());
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let key = VersionKey::plain(&w, OptConfig::o3(), spec.kind);
        // First builder panics mid-compile…
        let c2 = cache.clone();
        let k2 = key.clone();
        let s2 = spec.clone();
        let panicked = std::thread::spawn(move || {
            let _ = c2.get_or_prepare(k2, &s2, &untraced(), || panic!("injected compile failure"));
        })
        .join();
        assert!(panicked.is_err(), "builder thread must have panicked");
        // …and the key is usable again: the next lookup compiles fresh.
        let v = cache.get_or_prepare(key.clone(), &spec, &untraced(), || {
            peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3())
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(v.tier(), ExecTier::Jit, "the retried build produced the lowered engine");
    }
}
