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
//! The cache applies that idea one level down as well, to configurations
//! that compile to the same code. -O3 and its 38 single-flag removals
//! compile to 5–12 distinct programs per benchmark, because most flags
//! find nothing to do in a given tuning section. A key miss goes
//! through two memos:
//!
//! * **Compiled programs**, per source (workload, TS, instrumented?),
//!   independent of the machine. Each optimizer run is recorded with its
//!   [`Footprint`]: a compile of config C is also the compile of every
//!   C′ that keeps the flags whose passes changed the IR and adds no
//!   pipeline flag beyond C's (the six codegen flags are free). A miss
//!   runs `compile` only when no recorded run covers its config, and
//!   the programs are deduplicated by bit image
//!   ([`peak_ir::Program::bit_image`]), so each distinct program is kept
//!   once.
//! * **Engines**, keyed by (distinct program, the codegen flags
//!   [`PreparedVersion::codegen_flags`] reads on the machine, machine).
//!   Each is prepared and built by [`build_engine`](crate::build_engine)
//!   for the jit tier exactly once: the lowered code is kept and the
//!   decoded blocks are dropped, and a version whose lowering declines
//!   keeps its predecoded engine. The run harness executes engines as
//!   they are; no tier decision is left for run time.
//!
//! So keys whose programs and codegen flags agree share one engine
//! (`Arc::ptr_eq`), and that engine is the one a fresh compile of either
//! config would build. A shared engine's `CompiledVersion::config` is the
//! config of the key that built it; an engine reads only its codegen
//! flags, on which every key sharing it agrees.
//!
//! The cache is process-wide ([`VersionCache::global`]) because the
//! experiment drivers (`table1`, `figure7`) fan benchmarks out across a
//! shared [`Pool`] and repeat configurations across cells, rating
//! retries, the CBR→MBR→RBR→WHL cascade, and checkpoint resume.
//! Every key and every engine has one **compute-once slot** (an
//! `Arc<OnceLock>`, the shape of the production-run memo below), fetched
//! or installed under the map lock and filled outside it: the first
//! thread to miss a key builds, and concurrent requesters of the same key
//! wait on the slot and share the one artifact, so racing workers never
//! build the same key twice (the `compiles` counter is exact), and the
//! engine map builds each engine once the same way (`engines_built` is
//! exact too). A build that panics leaves its slot empty for the next
//! requester, one already waiting included. Two concurrent misses whose
//! configs one compile would cover may both run the optimizer, so
//! `optimizer_runs` depends on thread timing. [`VersionCache::warm`]
//! exposes the key path as a bulk pre-build API: the search layer hands a
//! round's whole candidate frontier to the pool, so compiling and
//! lowering run there and rating then runs against a hot cache.
//!
//! Nothing is evicted ([`VersionCache::clear`] exists for long-lived
//! embedders), so the memos are where a tuning process's memory goes.
//! One pass of the end-to-end benchmark requests about 6,000 keys for
//! its search jobs, which need about 1,300 optimizer runs and 1,200
//! engines, and about 1,000 keys for its Figure 7 cells (180 optimizer
//! runs, 250 engines). Measured with a
//! counting allocator (mean over -O3 and its 38 single-flag removals,
//! per benchmark and machine, 8 benchmarks × 2 machines), a compiled
//! version takes 2.4–8.3 KB, preparing adds 0.5–1.1 KB and lowering
//! 1.2–3.7 KB. A key costs one map entry; a distinct program keeps its
//! compiled version, so that later keys can prepare it for another
//! machine or other codegen flags; an engine keeps its lowered code
//! alone (1.2–3.7 KB) or, where lowering declines, IR and decoded blocks
//! (2.9–9.4 KB).
//!
//! Beside the versions the cache memoizes production runs for
//! [`production_time`](crate::production_time): the true cycles of one full
//! run of an engine on a dataset, keyed by `(engine, Dataset)`. A
//! production run is noise-free and fault-free, so its cycles are a pure
//! function of the engine's code and the dataset, and Figure 7's cells —
//! which all score against their pair's -O3 ref run — simulate each
//! distinct run once, as does a job whose winner compiles to -O3's code.
//! Tuning runs are not memoized: they are noisy, can be faulted, and
//! count toward tuning time.

use crate::sched::Pool;
use peak_obs::Tracer;
use peak_opt::{CompiledVersion, Footprint, OptConfig};
use peak_sim::{ExecTier, MachineKind, MachineSpec, PreparedVersion, TierBackend};
use peak_workloads::{Dataset, Workload};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

    /// The source program the key's config is compiled from.
    fn source(&self) -> Source {
        (self.workload, self.ts, self.instrumented)
    }
}

/// Counter snapshot of a cache (monotonic; taken with
/// [`VersionCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that did not find a ready version (each triggers or waits
    /// for exactly one build).
    pub misses: u64,
    /// Key builds performed. Each key's slot is filled once, so this
    /// counts *unique keys*: `misses - compiles` lookups were coalesced
    /// onto a concurrent build of the same key.
    pub compiles: u64,
    /// Missing lookups that blocked on another thread's in-flight
    /// build instead of building themselves.
    pub coalesced: u64,
    /// Key builds that ran the optimizer because no earlier compile of
    /// the same source covered their config. Depends on which of two
    /// concurrent builds finishes first.
    pub optimizer_runs: u64,
    /// Engines prepared and built: one per distinct (program, codegen
    /// flags, machine) any key asked for.
    pub engines_built: u64,
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
            optimizer_runs: self.optimizer_runs.saturating_sub(earlier.optimizer_runs),
            engines_built: self.engines_built.saturating_sub(earlier.engines_built),
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
             {} builds: {} optimizer runs, {} engines; \
             production runs: {} simulated, {} from memo",
            self.hits,
            self.hits + self.misses,
            self.hit_rate() * 100.0,
            entries,
            self.compiles,
            self.optimizer_runs,
            self.engines_built,
            self.production_runs,
            self.production_hits,
        )
    }
}

/// A version's executable engine, as the cache hands it out.
type Engine = Arc<dyn TierBackend>;

/// Compute-once slot of one key or engine: filled by the first requester
/// whose build completes. The production-run memo uses the same shape.
type Slot = Arc<OnceLock<Engine>>;

/// How a lookup was answered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Answer {
    Hit,
    Built,
    Waited,
}

/// Look `key` up in `map`, running `build` on a miss. The key's slot is
/// fetched or installed under the map lock and filled outside it: the
/// first requester of a missing key builds, and concurrent requesters
/// wait on the slot and share the engine. If `build` panics the slot
/// stays empty, and a waiting or later requester builds.
fn once<K: Eq + Hash + Clone>(
    map: &Mutex<HashMap<K, Slot>>,
    key: &K,
    build: impl FnOnce() -> Engine,
) -> (Engine, Answer) {
    let slot = map.lock().expect("version cache lock").entry(key.clone()).or_default().clone();
    if let Some(engine) = slot.get() {
        return (engine.clone(), Answer::Hit);
    }
    let mut built = false;
    let engine = slot.get_or_init(|| {
        built = true;
        build()
    });
    (engine.clone(), if built { Answer::Built } else { Answer::Waited })
}

/// A source program: (workload, TS, instrumented?).
type Source = (&'static str, &'static str, bool);

/// One distinct compiled program of a source.
struct Compiled {
    /// Unique for the cache's lifetime; names the program in engine keys.
    id: u64,
    version: CompiledVersion,
}

/// The optimizer runs of one source and the distinct programs they
/// produced.
#[derive(Default)]
struct Compiles {
    /// Each optimizer run's footprint and its program.
    runs: Vec<(Footprint, Arc<Compiled>)>,
    /// The distinct programs, bucketed by the hash of their bit image.
    programs: HashMap<u64, Vec<Arc<Compiled>>>,
}

impl Compiles {
    /// The program a compile of `cfg` would produce, if a recorded run
    /// covers `cfg`. Every covering run produced the same bits, so they
    /// all name the same distinct program.
    fn covering(&self, cfg: OptConfig) -> Option<Arc<Compiled>> {
        self.runs.iter().find(|(fp, _)| fp.covers(cfg)).map(|(_, c)| c.clone())
    }

    /// Record one optimizer run whose program has bit image `image`,
    /// and return its distinct program (`id` names it if it is new).
    fn record(&mut self, version: CompiledVersion, image: &[u64], id: u64) -> Arc<Compiled> {
        let footprint = version.footprint;
        let hash = image
            .iter()
            .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95));
        let bucket = self.programs.entry(hash).or_default();
        let program = match bucket
            .iter()
            .find(|c| c.version.func == version.func && c.version.program.bit_image() == image)
        {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Compiled { id, version });
                bucket.push(c.clone());
                c
            }
        };
        self.runs.push((footprint, program.clone()));
        program
    }
}

/// Identity of one engine: a distinct program, the codegen flags
/// preparing it reads on the machine, and the machine.
#[derive(Clone, PartialEq, Eq, Hash)]
struct EngineKey {
    program: u64,
    codegen: OptConfig,
    machine: MachineKind,
}

/// An engine as a map key, compared and hashed by address. The key keeps
/// its engine alive, so no other engine can reuse the address while the
/// entry exists.
#[derive(Clone)]
struct EngineRef(Engine);

impl PartialEq for EngineRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for EngineRef {}

impl Hash for EngineRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.0).cast::<()>().hash(state);
    }
}

/// Memo slot of one production run: filled once, by the first requester
/// whose run completes.
type ProductionSlot = Arc<OnceLock<u64>>;

/// A version cache: `VersionKey` → the version's engine, through the
/// compiled-program and engine memos, with concurrent builds of one key
/// or engine de-duplicated by its slot, plus the production-run memo `(engine, Dataset)` →
/// true cycles.
#[derive(Default)]
pub struct VersionCache {
    map: Mutex<HashMap<VersionKey, Slot>>,
    compiled: Mutex<HashMap<Source, Compiles>>,
    engines: Mutex<HashMap<EngineKey, Slot>>,
    production: Mutex<HashMap<(EngineRef, Dataset), ProductionSlot>>,
    next_program: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    optimizer_runs: AtomicU64,
    engines_built: AtomicU64,
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

    /// Return the engine for `key`, building it on first use: `compile`
    /// (unless an earlier compile of the same source covers the key's
    /// config), then — unless another key already built the engine of
    /// that program and codegen flags on this machine —
    /// [`PreparedVersion::prepare`] and
    /// [`build_engine`](crate::build_engine) for the jit tier (which
    /// lowers the version, or keeps its predecoded engine and traces the
    /// declined lowering on `tracer`). `compile` must compile the key's
    /// config from the key's source. `spec.kind` must match
    /// `key.machine` — the artifact is machine-specific.
    ///
    /// Concurrent calls with the same key build **once**: the first
    /// requester builds outside the map lock while later ones wait on
    /// the key's slot and share the artifact.
    pub fn get_or_prepare(
        &self,
        key: VersionKey,
        spec: &MachineSpec,
        tracer: &Tracer,
        compile: impl FnOnce() -> CompiledVersion,
    ) -> Arc<dyn TierBackend> {
        debug_assert_eq!(spec.kind, key.machine, "key/spec machine mismatch");
        let (engine, answer) = once(&self.map, &key, || self.build(&key, spec, tracer, compile));
        let counter = match answer {
            Answer::Hit => &self.hits,
            Answer::Built => &self.compiles,
            Answer::Waited => &self.coalesced,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if answer != Answer::Hit {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        engine
    }

    /// Build the engine of a missing key: find or compile its program,
    /// then find or build the engine of that program on this machine.
    fn build(
        &self,
        key: &VersionKey,
        spec: &MachineSpec,
        tracer: &Tracer,
        compile: impl FnOnce() -> CompiledVersion,
    ) -> Engine {
        let cfg = OptConfig::from_bits(key.config_bits);
        let program = self.program(key.source(), cfg, compile);
        let engine_key = EngineKey {
            program: program.id,
            codegen: PreparedVersion::codegen_flags(cfg, spec),
            machine: key.machine,
        };
        let (engine, answer) = once(&self.engines, &engine_key, || {
            let mut version = program.version.clone();
            version.config = cfg;
            crate::tier::build_engine(
                PreparedVersion::prepare(version, spec),
                ExecTier::Jit,
                tracer,
            )
        });
        if answer == Answer::Built {
            self.engines_built.fetch_add(1, Ordering::Relaxed);
        }
        engine
    }

    /// The distinct program a compile of `cfg` from `source` produces:
    /// a recorded run's when one covers `cfg`, else `compile`'s.
    fn program(
        &self,
        source: Source,
        cfg: OptConfig,
        compile: impl FnOnce() -> CompiledVersion,
    ) -> Arc<Compiled> {
        let memo = || self.compiled.lock().expect("compile memo lock");
        if let Some(program) = memo().get(&source).and_then(|c| c.covering(cfg)) {
            return program;
        }
        let version = compile();
        self.optimizer_runs.fetch_add(1, Ordering::Relaxed);
        let image = version.program.bit_image();
        let id = self.next_program.fetch_add(1, Ordering::Relaxed);
        memo().entry(source).or_default().record(version, &image, id)
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

    /// The true cycles of one full production run of `engine` on `ds`,
    /// running `run` only when no earlier request for the same pair
    /// completed. `run` must simulate that run deterministically (the
    /// seed-0, fault-free harness of
    /// [`production_time`](crate::production_time), the only caller), so
    /// every answer for an engine is the same number, whichever key the
    /// engine was asked for under.
    ///
    /// Concurrent requests for one pair simulate once: the first runs
    /// `run` outside the memo lock, later ones wait for it and share its
    /// answer. If `run` panics the slot stays empty and the next
    /// requester runs its own.
    pub(crate) fn production_cycles(
        &self,
        engine: &Engine,
        ds: Dataset,
        run: impl FnOnce() -> u64,
    ) -> u64 {
        let slot = self
            .production
            .lock()
            .expect("production memo lock")
            .entry((EngineRef(engine.clone()), ds))
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

    /// Version keys currently held: built, in flight, or left empty by a
    /// build that panicked.
    pub fn len(&self) -> usize {
        self.map.lock().expect("version cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the version and production-run counters.
    pub fn stats(&self) -> CacheStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: get(&self.hits),
            misses: get(&self.misses),
            compiles: get(&self.compiles),
            coalesced: get(&self.coalesced),
            optimizer_runs: get(&self.optimizer_runs),
            engines_built: get(&self.engines_built),
            production_runs: get(&self.production_runs),
            production_hits: get(&self.production_hits),
        }
    }

    /// Drop every cached version, compiled program, engine and memoized
    /// production run (counters keep running), so the next request for
    /// any of them compiles, builds or simulates again. Builds and
    /// production runs in flight answer their waiters and are not kept.
    pub fn clear(&self) {
        self.map.lock().expect("version cache lock").clear();
        self.compiled.lock().expect("compile memo lock").clear();
        self.engines.lock().expect("version cache lock").clear();
        self.production.lock().expect("production memo lock").clear();
    }

    /// Mirror this cache's counters into the global
    /// [`MetricsRegistry`](peak_obs::MetricsRegistry) as
    /// `core.version_cache.*`. The cache keeps its own atomics hot-path
    /// side; this sync-on-read (called by whoever is about to snapshot —
    /// the serve daemon's stats handler) advances the registry counters
    /// by the accumulated delta, so the exported series stays monotonic
    /// without double-counting. `optimizer_runs` is left out: it depends
    /// on thread timing, and the registry holds counts that repeat.
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
        sync("core.version_cache.compiles", "Unique version keys built", s.compiles);
        sync(
            "core.version_cache.coalesced",
            "Missing lookups coalesced onto an in-flight compile",
            s.coalesced,
        );
        sync(
            "core.version_cache.engines_built",
            "Engines prepared and built, one per distinct program, codegen flags and machine",
            s.engines_built,
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
    use peak_opt::Flag;
    use peak_sim::{ExecOptions, SimMetrics};
    use peak_workloads::swim::SwimCalc3;
    use peak_workloads::Dataset;
    use std::sync::Condvar;

    fn key(w: &dyn Workload, cfg: OptConfig) -> VersionKey {
        VersionKey::plain(w, cfg, MachineKind::SparcII)
    }

    fn o3() -> OptConfig {
        OptConfig::o3()
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
        let engine = cache.prepare_workload(&SwimCalc3::new(), &MachineSpec::sparc_ii(), o3());
        let entered = (Mutex::new(0usize), Condvar::new());
        let answers = Pool::with_threads(THREADS).map(10, |_| {
            *entered.0.lock().expect("entered lock") += 1;
            entered.1.notify_all();
            cache.production_cycles(&engine, Dataset::Ref, || {
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
        let engine = cache.prepare_workload(&SwimCalc3::new(), &MachineSpec::sparc_ii(), o3());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.production_cycles(&engine, Dataset::Train, || panic!("injected run failure"))
        }));
        assert!(panicked.is_err(), "the run's panic reaches its requester");
        assert_eq!(cache.production_cycles(&engine, Dataset::Train, || 7), 7);
        assert_eq!(
            cache.production_cycles(&engine, Dataset::Train, || unreachable!("memoized")),
            7
        );
        let s = cache.stats();
        assert_eq!((s.production_runs, s.production_hits), (1, 1), "{s:?}");
    }

    /// The memo keys on the engine and the dataset, and `clear` drops
    /// it, so the next request simulates again.
    #[test]
    fn production_memo_keys_on_engine_and_dataset() {
        let cache = VersionCache::new();
        let (w, spec) = (SwimCalc3::new(), MachineSpec::sparc_ii());
        let (a, b) = (
            cache.prepare_workload(&w, &spec, o3()),
            cache.prepare_workload(&w, &spec, OptConfig::o0()),
        );
        assert_eq!(cache.production_cycles(&a, Dataset::Train, || 1), 1);
        assert_eq!(cache.production_cycles(&a, Dataset::Ref, || 2), 2);
        assert_eq!(cache.production_cycles(&b, Dataset::Train, || 3), 3);
        assert_eq!(cache.production_cycles(&a, Dataset::Train, || 4), 1);
        cache.clear();
        assert_eq!(cache.production_cycles(&a, Dataset::Train, || 5), 5);
        let s = cache.stats();
        assert_eq!((s.production_runs, s.production_hits), (4, 1), "{s:?}");
    }

    /// A config that keeps a compile's footprint and drops only flags that
    /// changed nothing reuses that compile: no optimizer run, and the
    /// same engine where the codegen flags agree. On Pentium-IV, which
    /// has no delay slot, dropping `DelayedBranch` changes nothing either.
    #[test]
    fn covered_configs_share_the_compile_and_the_engine() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let (sparc, p4) = (MachineSpec::sparc_ii(), MachineSpec::pentium_iv());
        let fp = peak_opt::optimize(w.program(), w.ts(), &o3()).footprint;
        let idle = peak_opt::ALL_FLAGS
            .into_iter()
            .find(|&f| fp.ran.enabled(f) && !fp.used.enabled(f))
            .expect("-O3 runs a pass that changes nothing in SWIM");
        let base = cache.prepare_workload(&w, &sparc, o3());
        let idle_off = cache.prepare_workload(&w, &sparc, o3().without(idle));
        assert!(Arc::ptr_eq(&base, &idle_off), "{idle} off shares -O3's engine");
        let no_delay = cache.prepare_workload(&w, &sparc, o3().without(Flag::DelayedBranch));
        assert!(!Arc::ptr_eq(&base, &no_delay), "SPARC-II reads DelayedBranch");
        let p4_base = cache.prepare_workload(&w, &p4, o3());
        let p4_no_delay = cache.prepare_workload(&w, &p4, o3().without(Flag::DelayedBranch));
        assert!(Arc::ptr_eq(&p4_base, &p4_no_delay), "Pentium-IV has no delay slot");
        let s = cache.stats();
        assert_eq!((s.compiles, s.optimizer_runs, s.engines_built), (5, 1, 3), "{s:?}");
        assert_eq!(cache.len(), 5);
    }

    /// Two optimizer runs that produce the same bits keep one program and
    /// share its engine; keys whose programs differ get engines of their
    /// own.
    #[test]
    fn programs_are_kept_once_and_engines_follow_them() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let fp = peak_opt::optimize(w.program(), w.ts(), &o3()).footprint;
        let idle = peak_opt::ALL_FLAGS
            .into_iter()
            .find(|&f| fp.ran.enabled(f) && !fp.used.enabled(f))
            .expect("-O3 runs a pass that changes nothing in SWIM");
        // The smaller config's compile does not cover -O3, which enables
        // one more pipeline flag, so -O3 runs the optimizer again.
        let idle_off = cache.prepare_workload(&w, &spec, o3().without(idle));
        let base = cache.prepare_workload(&w, &spec, o3());
        assert!(Arc::ptr_eq(&base, &idle_off), "one program, one engine");
        let o0 = cache.prepare_workload(&w, &spec, OptConfig::o0());
        assert!(!Arc::ptr_eq(&base, &o0));
        let s = cache.stats();
        assert_eq!((s.optimizer_runs, s.engines_built), (3, 2), "{s:?}");
        let compiled = cache.compiled.lock().unwrap();
        let programs: usize =
            compiled.values().flat_map(|c| c.programs.values()).map(Vec::len).sum();
        assert_eq!(programs, 2, "{idle} off and -O3 share one program");
    }

    /// `clear` empties the key map and both memos as well as the
    /// production-run memo.
    #[test]
    fn clear_empties_every_map() {
        let cache = VersionCache::new();
        let engine = cache.prepare_workload(&SwimCalc3::new(), &MachineSpec::sparc_ii(), o3());
        let _ = cache.production_cycles(&engine, Dataset::Train, || 1);
        let sizes = |c: &VersionCache| {
            [
                c.map.lock().unwrap().len(),
                c.compiled.lock().unwrap().len(),
                c.engines.lock().unwrap().len(),
                c.production.lock().unwrap().len(),
            ]
        };
        assert_eq!(sizes(&cache), [1; 4]);
        cache.clear();
        assert_eq!(sizes(&cache), [0; 4]);
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

    /// A requester already waiting on a key when its build panics is not
    /// stranded: it builds the key itself.
    #[test]
    fn waiter_builds_when_the_build_it_waits_on_panics() {
        let cache = VersionCache::new();
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let key = VersionKey::plain(&w, o3(), spec.kind);
        let building = std::sync::Barrier::new(2);
        let (panicked, waited) = std::thread::scope(|s| {
            let failing = s.spawn(|| {
                cache.get_or_prepare(key.clone(), &spec, &untraced(), || {
                    building.wait();
                    // Give the other requester time to block on the slot.
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    panic!("injected compile failure")
                })
            });
            building.wait();
            let waited = cache.get_or_prepare(key.clone(), &spec, &untraced(), || {
                peak_opt::optimize(w.program(), w.ts(), &o3())
            });
            (failing.join().is_err(), waited)
        });
        assert!(panicked, "the first build panicked");
        assert_eq!(waited.tier(), ExecTier::Jit, "the waiter built the lowered engine");
        let s = cache.stats();
        assert_eq!((s.misses, s.compiles, s.coalesced), (1, 1, 0), "{s:?}");
        assert!(Arc::ptr_eq(&waited, &cache.prepare_workload(&w, &spec, o3())), "the key is kept");
    }
}
