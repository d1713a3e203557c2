//! The run harness: simulates application runs of a workload with the
//! PEAK driver swapping tuning-section versions in and out (the ADAPT
//! mechanism of paper Fig. 6, minus `dlopen`).
//!
//! One [`RunHarness`] = one application run: fresh memory and machine
//! state (a new process), the workload's deterministic invocation stream,
//! and cycle accounting that includes the rest-of-program cost — the
//! quantity WHL tuning pays in full and the section-level methods avoid.

use crate::context::ContextKey;
use peak_ir::{MemoryImage, Value};
use peak_sim::{
    AddressMap, ExecError, ExecOptions, ExecResult, ExecScratch, FaultPlan, MachineSpec,
    MachineState, TierBackend,
};
use peak_workloads::{Dataset, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cycle cost of copying one element during RBR save/restore, on top of
/// the cache traffic (loop + addressing overhead of the copy code).
const COPY_OVERHEAD_PER_ELEM: u64 = 1;

/// Flush a run's pending invocation count into the shared
/// `core.harness.invocations` counter. The per-invocation path just
/// bumps a plain field on the harness (no atomic at all); this commits
/// the batch — one `fetch_add` per run instead of one per invocation —
/// at run end and on harness drop, so metrics consumers that read after
/// jobs complete see identical totals to the unbatched scheme.
#[inline]
fn flush_invocation_count(pending: &mut u64) {
    use peak_obs::metrics::{self, Counter, MetricsRegistry};
    use std::sync::OnceLock;
    if *pending == 0 || !metrics::enabled() {
        return;
    }
    static INVOCATIONS: OnceLock<std::sync::Arc<Counter>> = OnceLock::new();
    INVOCATIONS
        .get_or_init(|| {
            MetricsRegistry::global()
                .counter("core.harness.invocations", "TS invocations executed")
        })
        .add(*pending);
    *pending = 0;
}

/// One application run.
pub struct RunHarness<'w> {
    workload: &'w dyn Workload,
    ds: Dataset,
    /// Machine state (caches, predictor, timer, cycle counter).
    pub machine: MachineState,
    /// Address layout shared by all versions of this program.
    pub amap: AddressMap,
    /// Program memory.
    pub mem: MemoryImage,
    stream_rng: StdRng,
    /// Memoized invocation stream (`Some` = replay recorded args and
    /// writes; `None` = run the live generator). See
    /// [`crate::stream_cache`]; both paths are observably identical.
    stream: Option<std::sync::Arc<peak_workloads::stream::ArgStream>>,
    next_inv: usize,
    limit: usize,
    /// Invocations executed but not yet committed to the shared metrics
    /// counter (batched per run; flushed at stream end and on drop).
    pending_invs: u64,
    /// Reusable executor buffers: the steady-state invocation path of a
    /// run allocates nothing.
    scratch: ExecScratch,
}

impl<'w> RunHarness<'w> {
    /// Start a run. `noise_seed` feeds the timer; the workload stream is
    /// seeded deterministically from the dataset so every run of the same
    /// input is identical (like re-running a benchmark binary).
    pub fn new(
        workload: &'w dyn Workload,
        ds: Dataset,
        spec: &MachineSpec,
        noise_seed: u64,
    ) -> Self {
        Self::with_faults(workload, ds, spec, noise_seed, None)
    }

    /// Start a run with an optional injected-fault plan (the robustness
    /// harness). `faults = None` is exactly [`RunHarness::new`].
    pub fn with_faults(
        workload: &'w dyn Workload,
        ds: Dataset,
        spec: &MachineSpec,
        noise_seed: u64,
        faults: Option<FaultPlan>,
    ) -> Self {
        Self::with_stream_mode(
            workload,
            ds,
            spec,
            noise_seed,
            faults,
            crate::stream_cache::enabled(),
        )
    }

    /// [`RunHarness::with_faults`] with the argument-stream mode forced:
    /// `memoized = true` replays the pooled recorded stream, `false`
    /// runs the live generator per invocation. The public constructors
    /// follow `PEAK_ARG_STREAM`; this exists for the differential suite
    /// that proves the two modes observably identical.
    pub fn with_stream_mode(
        workload: &'w dyn Workload,
        ds: Dataset,
        spec: &MachineSpec,
        noise_seed: u64,
        faults: Option<FaultPlan>,
        memoized: bool,
    ) -> Self {
        let mem_lens: Vec<usize> =
            workload.program().mems.iter().map(|m| m.len).collect();
        let amap = AddressMap::new(&mem_lens);
        let mut stream_rng =
            StdRng::seed_from_u64(peak_workloads::stream::stream_seed(ds));
        let (mem, stream) = if memoized {
            let s = crate::stream_cache::arg_stream(workload, ds);
            // The recorder consumed the same RNG sequence `setup` would
            // have; this run's RNG is never drawn from again.
            (s.init_mem.clone(), Some(s))
        } else {
            let mut mem = MemoryImage::new(workload.program());
            workload.setup(ds, &mut mem, &mut stream_rng);
            (mem, None)
        };
        let limit = workload.invocations(ds);
        let mut machine = MachineState::new(spec.clone(), noise_seed);
        if let Some(plan) = faults {
            machine.install_faults(plan);
        }
        RunHarness {
            workload,
            ds,
            machine,
            amap,
            mem,
            stream_rng,
            stream,
            next_inv: 0,
            limit,
            pending_invs: 0,
            scratch: ExecScratch::new(),
        }
    }

    /// Invocations remaining in this run.
    pub fn remaining(&self) -> usize {
        self.limit - self.next_inv
    }

    /// Produce the next invocation's arguments (mutating memory like the
    /// surrounding program does) and charge the rest-of-program cycles.
    /// Returns `None` when the run is over.
    pub fn next_args(&mut self) -> Option<Vec<Value>> {
        if self.next_inv >= self.limit {
            flush_invocation_count(&mut self.pending_invs);
            return None;
        }
        let args = match &self.stream {
            Some(s) => {
                // Replay path: apply the recorded between-invocation
                // writes, hand out the recorded args. Exact because
                // generators never read memory content (see
                // `peak_workloads::stream`).
                let rec = &s.invocations[self.next_inv];
                self.mem.replay(&rec.writes);
                rec.args.clone()
            }
            None => self.workload.args(
                self.ds,
                self.next_inv,
                &mut self.mem,
                &mut self.stream_rng,
            ),
        };
        self.next_inv += 1;
        self.machine.cycles += self.workload.other_cycles(self.ds);
        Some(args)
    }

    /// Execute one TS invocation with `version` and return the result
    /// (true cycles inside; accounting updated). Panics on any failure —
    /// the legacy interface for fault-free paths; fault-aware drivers use
    /// [`RunHarness::try_execute`].
    pub fn execute(
        &mut self,
        version: &dyn TierBackend,
        args: &[Value],
        opts: &ExecOptions,
    ) -> ExecResult {
        self.try_execute(version, args, opts).unwrap_or_else(|e| {
            panic!("workload {} execution failed: {e}", self.workload.name())
        })
    }

    /// Execute one TS invocation, surfacing failures (including injected
    /// version crashes) as data instead of panicking.
    ///
    /// `version` is an engine already built for its tier (see
    /// [`VersionCache`](crate::VersionCache)): lowered code by default,
    /// a [`PreparedVersion`](peak_sim::PreparedVersion) for the
    /// predecoded tier or a version whose lowering declined. The harness
    /// runs it as given and counts the invocation against its tier; all
    /// engines are bit-identical in results, cycles, and machine state.
    pub fn try_execute(
        &mut self,
        version: &dyn TierBackend,
        args: &[Value],
        opts: &ExecOptions,
    ) -> Result<ExecResult, ExecError> {
        self.pending_invs += 1;
        crate::tier::count_tier(version);
        version.execute(args, &mut self.mem, &self.amap, &mut self.machine, opts, &mut self.scratch)
    }

    /// Measure an execution: run it and return the *noisy* measured time
    /// alongside the result. Legacy interface: fault-induced dropout does
    /// not apply here (use [`RunHarness::try_execute_timed`] for that).
    pub fn execute_timed(
        &mut self,
        version: &dyn TierBackend,
        args: &[Value],
        opts: &ExecOptions,
    ) -> (u64, ExecResult) {
        let res = self.execute(version, args, opts);
        let measured = self.machine.timer.measure(res.true_cycles);
        (measured, res)
    }

    /// Measure an execution through the fault layer: `Ok((None, res))`
    /// means the invocation ran (cycles charged) but its reading was lost
    /// to an injected dropout; `Err` means the execution itself failed
    /// (e.g. an injected crash — the run should be abandoned).
    pub fn try_execute_timed(
        &mut self,
        version: &dyn TierBackend,
        args: &[Value],
        opts: &ExecOptions,
    ) -> Result<(Option<u64>, ExecResult), ExecError> {
        let res = self.try_execute(version, args, opts)?;
        let measured = self.machine.measure(res.true_cycles);
        Ok((measured, res))
    }

    /// Context key for the upcoming invocation: reads the context sources
    /// (parameter values / global scalars) like the instrumented prologue
    /// does.
    pub fn context_key(
        &self,
        sources: &[peak_ir::ContextSource],
        args: &[Value],
    ) -> ContextKey {
        crate::context::key_for(sources, args, &self.mem)
    }

    /// RBR support: snapshot the given regions, charging copy cost through
    /// the cache (streaming both source and a stack-side buffer would
    /// double-charge; we charge one pass).
    pub fn save_regions(&mut self, regions: &[peak_ir::MemId]) -> Vec<(peak_ir::MemId, peak_ir::Buffer)> {
        let snap = self.mem.snapshot(regions);
        self.charge_copy(regions);
        snap
    }

    /// RBR support: restore a snapshot with the same cost model.
    pub fn restore_regions(&mut self, snap: &[(peak_ir::MemId, peak_ir::Buffer)]) {
        self.mem.restore(snap);
        let regions: Vec<peak_ir::MemId> = snap.iter().map(|(m, _)| *m).collect();
        self.charge_copy(&regions);
    }

    fn charge_copy(&mut self, regions: &[peak_ir::MemId]) {
        for &m in regions {
            let len = self.mem.buf(m).len();
            for i in 0..len {
                let c = self.machine.caches.access(self.amap.addr(m, i as i64));
                self.machine.cycles += c + COPY_OVERHEAD_PER_ELEM;
            }
        }
    }

    /// RBR inspector support: save/restore an explicit cell list (paper
    /// §2.4.2's inspector for irregular writes).
    pub fn save_cells(&mut self, cells: &[(peak_ir::MemId, i64)]) -> Vec<Value> {
        let mut vals = Vec::with_capacity(cells.len());
        for &(m, i) in cells {
            vals.push(self.mem.load(m, i));
            let c = self.machine.caches.access(self.amap.addr(m, i));
            self.machine.cycles += c + COPY_OVERHEAD_PER_ELEM;
        }
        vals
    }

    /// Restore cells saved with [`RunHarness::save_cells`].
    pub fn restore_cells(&mut self, cells: &[(peak_ir::MemId, i64)], vals: &[Value]) {
        for (&(m, i), &v) in cells.iter().zip(vals) {
            self.mem.store(m, i, v);
            let c = self.machine.caches.access(self.amap.addr(m, i));
            self.machine.cycles += c + COPY_OVERHEAD_PER_ELEM;
        }
    }

    /// Total true cycles this run has consumed so far (TS + rest of
    /// program + tuning overheads).
    pub fn cycles(&self) -> u64 {
        self.machine.cycles
    }

    /// The dataset this run uses.
    pub fn dataset(&self) -> Dataset {
        self.ds
    }

    /// The workload under test.
    pub fn workload(&self) -> &dyn Workload {
        self.workload
    }
}

impl Drop for RunHarness<'_> {
    fn drop(&mut self) {
        // Commit any invocations not yet flushed (runs abandoned before
        // stream exhaustion — fault aborts, partial ratings).
        flush_invocation_count(&mut self.pending_invs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_opt::OptConfig;
    use peak_sim::{NoisyTimer, PreparedVersion, SimMetrics};
    use peak_workloads::{art::ArtMatch, mcf::McfPrimalBeaMpp, swim::SwimCalc3};

    fn prepared(w: &dyn Workload, cfg: OptConfig, spec: &MachineSpec) -> PreparedVersion {
        let cv = peak_opt::optimize(w.program(), w.ts(), &cfg);
        PreparedVersion::prepare(cv, spec)
    }

    /// A whole SWIM train run of the MBR-instrumented -O3 version, timed:
    /// per invocation (true cycles, counter row, measured time), and the
    /// run's final machine counters.
    fn swim_run(seed: u64) -> (Vec<(u64, Vec<f64>, u64)>, SimMetrics) {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let model = crate::mbr::discover(&w).expect("SWIM has an MBR model");
        let cv = peak_opt::optimize(&model.instrumented, model.ts, &OptConfig::o3());
        let pv = PreparedVersion::prepare(cv, &spec);
        let opts = ExecOptions { record_writes: false, num_counters: model.num_counters };
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, seed);
        let mut invs = Vec::new();
        while let Some(args) = h.next_args() {
            let (measured, r) = h.execute_timed(&pv, &args, &opts);
            invs.push((r.true_cycles, model.count_row(&args, &r.counters), measured));
        }
        (invs, SimMetrics::snapshot(&h.machine))
    }

    /// A whole train run of the improved RBR protocol with -O3 on both
    /// sides, untimed: per invocation the true cycles of the two timed
    /// executions, and the run's final machine counters.
    fn rbr_run(
        w: &dyn Workload,
        spec: &MachineSpec,
        plan: &crate::consultant::RbrPlan,
        seed: u64,
    ) -> (Vec<(u64, u64)>, SimMetrics) {
        let pv = prepared(w, OptConfig::o3(), spec);
        let plain = ExecOptions::default();
        let record = ExecOptions { record_writes: true, num_counters: 0 };
        let mut h = RunHarness::new(w, Dataset::Train, spec, seed);
        let mut pairs = Vec::new();
        while let Some(args) = h.next_args() {
            let pair = if plan.inspector {
                let res = h.execute(&pv, &args, &record);
                let cells: Vec<_> = res.writes.iter().map(|(m, i, _)| (*m, *i)).collect();
                let vals: Vec<_> = res.writes.iter().map(|(_, _, v)| *v).collect();
                h.restore_cells(&cells, &vals);
                let t1 = h.execute(&pv, &args, &plain).true_cycles;
                h.restore_cells(&cells, &vals);
                (t1, h.execute(&pv, &args, &plain).true_cycles)
            } else {
                let snap = h.save_regions(&plan.modified_regions);
                h.execute(&pv, &args, &plain);
                h.restore_regions(&snap);
                let t1 = h.execute(&pv, &args, &plain).true_cycles;
                h.restore_regions(&snap);
                (t1, h.execute(&pv, &args, &plain).true_cycles)
            };
            pairs.push(pair);
        }
        (pairs, SimMetrics::snapshot(&h.machine))
    }

    #[test]
    fn run_is_deterministic_in_data() {
        // A fresh run's true cycles, counter rows and machine counters
        // are the same under every noise seed (same data, same machine);
        // only measured times differ. Table 1 simulates each cell once on
        // this fact.
        let (swim1, m1) = swim_run(1);
        let (swim2, m2) = swim_run(2);
        assert_eq!(swim1.len(), SwimCalc3::new().invocations(Dataset::Train));
        let data = |run: &[(u64, Vec<f64>, u64)]| -> Vec<(u64, Vec<f64>)> {
            run.iter().map(|(c, row, _)| (*c, row.clone())).collect()
        };
        assert_eq!(data(&swim1), data(&swim2));
        assert!(swim1[0].1.iter().any(|&n| n > 0.0), "counters are live");
        assert_eq!(m1, m2);
        assert_ne!(swim1, swim2, "the seed reaches the timer");
        // The run's timer is `NoisyTimer::new(spec, seed)`: replaying the
        // true cycles through a fresh one reproduces every measurement.
        let spec = MachineSpec::sparc_ii();
        let mut timer = NoisyTimer::new(&spec, 2);
        assert!(swim2.iter().all(|&(c, _, measured)| timer.measure(c) == measured));
        let mut a = MachineState::new(spec.clone(), 7).timer;
        let mut b = NoisyTimer::new(&spec, 7);
        assert!(swim1.iter().all(|&(c, ..)| a.measure(c) == b.measure(c)));
        // RBR sample sequences: ART saves through the write inspector,
        // MCF copies whole regions.
        for (w, spec) in [
            (&ArtMatch::new() as &dyn Workload, MachineSpec::sparc_ii()),
            (&McfPrimalBeaMpp::new(), MachineSpec::pentium_iv()),
        ] {
            let plan = crate::consultant::consult(w, &spec).rbr;
            assert_eq!(plan.inspector, w.name() == "ART", "{}: save mode", w.name());
            let (p1, m1) = rbr_run(w, &spec, &plan, 301);
            let (p2, m2) = rbr_run(w, &spec, &plan, 302);
            assert_eq!(p1.len(), w.invocations(Dataset::Train));
            assert_eq!(p1, p2, "{}", w.name());
            assert_eq!(m1, m2, "{}", w.name());
        }
    }

    #[test]
    fn measured_times_are_noisy_but_close() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let pv = prepared(&w, OptConfig::o3(), &spec);
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 42);
        let args = h.next_args().unwrap();
        let (measured, res) = h.execute_timed(&pv, &args, &ExecOptions::default());
        let rel = (measured as f64 - res.true_cycles as f64).abs() / res.true_cycles as f64;
        assert!(rel < 0.3, "noise within reason: {rel}");
    }

    #[test]
    fn other_cycles_charged_per_invocation() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 1);
        let before = h.cycles();
        let _ = h.next_args().unwrap();
        assert_eq!(h.cycles() - before, w.other_cycles(Dataset::Train));
    }

    #[test]
    fn save_restore_regions_roundtrip_and_cost() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 1);
        let u = w.program().mem_by_name("u").unwrap();
        let before_val = h.mem.load(u, 10);
        let before_cycles = h.cycles();
        let snap = h.save_regions(&[u]);
        h.mem.store(u, 10, Value::F64(99.0));
        h.restore_regions(&snap);
        assert_eq!(h.mem.load(u, 10), before_val);
        assert!(h.cycles() > before_cycles, "copies cost cycles");
    }

    #[test]
    fn run_ends_after_invocation_budget() {
        let w = SwimCalc3::new();
        let spec = MachineSpec::sparc_ii();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 1);
        let n = w.invocations(Dataset::Train);
        for _ in 0..n {
            assert!(h.next_args().is_some());
        }
        assert!(h.next_args().is_none());
        assert_eq!(h.remaining(), 0);
    }
}
