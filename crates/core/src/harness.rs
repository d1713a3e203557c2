//! The run harness: simulates application runs of a workload with the
//! PEAK driver swapping tuning-section versions in and out (the ADAPT
//! mechanism of paper Fig. 6, minus `dlopen`).
//!
//! One [`RunHarness`] = one application run: fresh memory and machine
//! state (a new process), the workload's deterministic invocation stream,
//! and cycle accounting that includes the rest-of-program cost — the
//! quantity WHL tuning pays in full and the section-level methods avoid.

use crate::consultant::RbrPlan;
use crate::context::ContextKey;
use peak_ir::{ContextSource, MemId, MemoryImage, Value};
use peak_sim::{
    AddressMap, ExecError, ExecOptions, ExecResult, ExecScratch, FaultPlan, MachineSpec,
    MachineState, SimMetrics, TierBackend, TimingStamp, TimingState,
};
use peak_workloads::{Dataset, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many words of saved timing state ([`TimingState::words`]) one
/// simulated statement outweighs, at least: on a 2-vCPU x86-64 VM a
/// statement took 10-17 ns to simulate (APPLU, SWIM) while saving and
/// comparing a SPARC-II or Pentium-IV state took 1.0-1.5 ns per word, a
/// ratio of 7-15. [`RunHarness::run_engine`] saves a state only before
/// an invocation whose predecessor executed more than
/// `words / WORDS_PER_STATEMENT` statements, so a snapshot that proves
/// nothing costs at most about a third of the simulation beside it.
const WORDS_PER_STATEMENT: u64 = 2;

/// Cycle cost of copying one element during RBR save/restore, on top of
/// the cache traffic (loop + addressing overhead of the copy code).
const COPY_OVERHEAD_PER_ELEM: u64 = 1;

/// Invocations a run has counted but not yet committed to the shared
/// metrics: the per-invocation path bumps plain fields on the harness
/// (no atomic at all); [`Pending::flush`] commits the batch — one
/// `fetch_add` per counter per run instead of one per invocation — at
/// run end and on harness drop, so metrics consumers that read after
/// jobs complete see identical totals to the unbatched scheme.
#[derive(Debug, Default)]
struct Pending {
    /// `core.harness.invocations`: every invocation, simulated or not.
    invocations: u64,
    /// `core.harness.fast_forwarded`: invocations charged from a proven
    /// repeat instead of simulated.
    fast_forwarded: u64,
}

impl Pending {
    #[inline]
    fn flush(&mut self) {
        use peak_obs::metrics::{self, Counter, MetricsRegistry};
        use std::sync::{Arc, OnceLock};
        if self.invocations == 0 || !metrics::enabled() {
            return;
        }
        static INVOCATIONS: OnceLock<Arc<Counter>> = OnceLock::new();
        static FAST_FORWARDED: OnceLock<Arc<Counter>> = OnceLock::new();
        INVOCATIONS
            .get_or_init(|| {
                MetricsRegistry::global()
                    .counter("core.harness.invocations", "TS invocations executed")
            })
            .add(self.invocations);
        if self.fast_forwarded > 0 {
            FAST_FORWARDED
                .get_or_init(|| {
                    MetricsRegistry::global().counter(
                        "core.harness.fast_forwarded",
                        "TS invocations charged from a proven repeat instead of simulated",
                    )
                })
                .add(self.fast_forwarded);
        }
        *self = Pending::default();
    }
}

/// One invocation of [`RunHarness::run_engine`], as its step sees it
/// after it ran.
#[derive(Debug)]
pub struct Ran<'a> {
    /// The invocation's arguments.
    pub args: &'a [Value],
    /// Its context key over the loop's context sources, read before it
    /// ran.
    pub context: &'a ContextKey,
    /// Its exact simulated cycles.
    pub true_cycles: u64,
    /// Its instrumentation counters.
    pub counters: &'a [u64],
}

/// A simulated invocation that left the caches and predictor
/// recency-equal to the state saved before it: a repeat of it from the
/// state it left takes exactly its time and leaves that state again.
struct Proven {
    true_cycles: u64,
    counters: Vec<u64>,
    /// Its machine counters, charged once per repeat.
    delta: SimMetrics,
    /// The machine's timing stamp when it, or its last charged repeat,
    /// ended: a different stamp means something touched the caches or
    /// predictor since.
    stamp: TimingStamp,
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
    /// Invocations not yet committed to the shared metrics counters
    /// (batched per run; flushed at stream end and on drop).
    pending: Pending,
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
        Self::with_stream_mode(workload, ds, spec, noise_seed, faults, true)
    }

    /// [`RunHarness::with_faults`] with the argument-stream mode chosen:
    /// `memoized = true` replays the pooled recorded stream (what every
    /// other constructor does), `false` runs the live generator per
    /// invocation. The live generator is the reference the differential
    /// suite proves replay observably identical to.
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
            pending: Pending::default(),
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
            self.pending.flush();
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
    /// `version` is an engine already built (see
    /// [`VersionCache`](crate::VersionCache)): lowered code, or a
    /// [`PreparedVersion`](peak_sim::PreparedVersion) where lowering
    /// declined or a tier comparison built one. The harness
    /// runs it as given and counts the invocation against its tier; all
    /// engines are bit-identical in results, cycles, and machine state.
    pub fn try_execute(
        &mut self,
        version: &dyn TierBackend,
        args: &[Value],
        opts: &ExecOptions,
    ) -> Result<ExecResult, ExecError> {
        self.pending.invocations += 1;
        crate::tier::count_tier(version);
        version.execute(args, &mut self.mem, &self.amap, &mut self.machine, opts, &mut self.scratch)
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

    /// Run the rest of this run on one engine: produce each invocation's
    /// arguments, read its context key over `context`, execute it with
    /// `opts`, and hand it to `step` with the machine, so `step` can
    /// draw the noisy timer over its true cycles. The run stops when the
    /// stream ends, when `step` returns `false`, or at the first failing
    /// execution, whose error is returned. Production runs, WHL ratings,
    /// the consultant's MBR profile and the Table 1 CBR/MBR collectors
    /// run this loop; runs that rotate versions, the RBR protocol, and
    /// the timed loops of benches call [`RunHarness::try_execute`],
    /// which simulates every invocation (the oracle of this loop).
    ///
    /// **Repeats are charged, not simulated.** An invocation is charged
    /// from the previous one's record — its true cycles, counters and
    /// [`SimMetrics`] delta — when all of these hold:
    ///
    /// * its arguments equal the previous invocation's, floats compared
    ///   by bits (engine and options are the loop's);
    /// * that invocation was simulated from a saved [`TimingState`] and
    ///   left the caches and predictor recency-equal to it
    ///   ([`TimingState::matches`]);
    /// * nothing touched the caches or predictor since it ended (its
    ///   [`TimingStamp`] is unchanged);
    /// * the engine's [`TimingInputs`](peak_sim::TimingInputs) are
    ///   bounded, and neither the engine nor the argument stream writes
    ///   them ([`held_against`](peak_sim::TimingInputs::held_against)
    ///   the memoized stream's written regions), and the engine writes
    ///   no region a global-scalar context source reads;
    /// * no fault plan is installed and `opts` records no write log.
    ///
    /// Then the repeat has the same control flow and addresses from an
    /// equal state, so it takes the same time and leaves the state
    /// recency-equal again. A state is saved only before an invocation
    /// whose arguments repeat the previous one's and whose predecessor
    /// executed enough statements to outweigh saving and comparing the
    /// state's words ([`TimingState::words`], `WORDS_PER_STATEMENT`), a
    /// rule the cache geometry of the run's machine decides. A charged
    /// invocation counts as a harness invocation and in
    /// `core.harness.fast_forwarded`, not against a tier.
    ///
    /// **Memory.** A charged invocation writes nothing: memory outside
    /// the engine's timing inputs is left as the simulated invocations
    /// left it, so after a fast-forwarded repeat it can differ from a
    /// run that simulated everything (the return value is not kept for
    /// the same reason). No value it would have written can reach this
    /// engine's timing — the engine writes none of its timing inputs —
    /// and only this engine runs in the loop, so nothing in the loop
    /// can read those regions; the context key reads only arguments and
    /// regions the engine does not write.
    pub fn run_engine(
        &mut self,
        engine: &dyn TierBackend,
        opts: &ExecOptions,
        context: &[ContextSource],
        mut step: impl FnMut(&mut MachineState, Ran<'_>) -> bool,
    ) -> Result<(), ExecError> {
        let steady = self.holds_timing_inputs(engine, opts, context);
        let snapshot_statements = TimingState::words(&self.machine.spec) / WORDS_PER_STATEMENT;
        let mut saved: Option<TimingState> = None;
        // The previous invocation's arguments, kept only when repeats
        // can be charged and it executed enough statements to pay for a
        // saved state.
        let mut prev: Option<Vec<Value>> = None;
        let mut proven: Option<Proven> = None;
        while let Some(args) = self.next_args() {
            let context = &self.context_key(context, &args);
            let repeat = prev.as_ref().is_some_and(|p| same_bits(p, &args));
            if let Some(p) = proven.as_mut().filter(|p| {
                repeat && p.stamp == self.machine.timing_stamp() && self.machine.faults.is_none()
            }) {
                self.machine.charge(&p.delta);
                p.stamp = self.machine.timing_stamp();
                self.pending.invocations += 1;
                self.pending.fast_forwarded += 1;
                let ran =
                    Ran { args: &args, context, true_cycles: p.true_cycles, counters: &p.counters };
                if !step(&mut self.machine, ran) {
                    break;
                }
                continue;
            }
            proven = None;
            // A repeat of an invocation big enough to pay for a saved
            // state: save the state it starts from, and prove it repeats
            // if it leaves that state again.
            let before = repeat.then(|| {
                TimingState::save(&mut saved, &self.machine);
                SimMetrics::snapshot(&self.machine)
            });
            let statements = self.machine.instructions;
            let res = self.try_execute(engine, &args, opts)?;
            let work = self.machine.instructions - statements;
            if let Some(before) = before {
                if saved.as_ref().is_some_and(|s| s.matches(&self.machine)) {
                    proven = Some(Proven {
                        true_cycles: res.true_cycles,
                        counters: res.counters.clone(),
                        delta: SimMetrics::snapshot(&self.machine).delta(&before),
                        stamp: self.machine.timing_stamp(),
                    });
                }
            }
            let ran = Ran {
                args: &args,
                context,
                true_cycles: res.true_cycles,
                counters: &res.counters,
            };
            let more = step(&mut self.machine, ran);
            prev = (steady && work > snapshot_statements).then_some(args);
            if !more {
                break;
            }
        }
        Ok(())
    }

    /// Whether `engine`'s timing inputs stay put over this run under
    /// `opts` (the static conditions of [`RunHarness::run_engine`]'s
    /// fast path): they are bounded, neither the engine nor the memoized
    /// argument stream writes them, the engine writes no region a
    /// global-scalar context source reads, no fault plan is installed
    /// and no write log is recorded. The live generator's writes are
    /// not recorded, so a live-stream run simulates everything.
    fn holds_timing_inputs(
        &self,
        engine: &dyn TierBackend,
        opts: &ExecOptions,
        context: &[ContextSource],
    ) -> bool {
        let (Some(t), Some(stream)) = (engine.timing_inputs(), &self.stream) else {
            return false;
        };
        !opts.record_writes
            && self.machine.faults.is_none()
            && t.held_against(&stream.written_regions)
            && context.iter().all(|s| match s {
                ContextSource::Param(_) => true,
                ContextSource::GlobalScalar { mem, .. } => !t.writes.contains(mem),
            })
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

    /// RBR inspector support: roll back an execution's write log (paper
    /// §2.4.2's inspector for irregular writes), charged like a copy.
    fn restore_cells(&mut self, log: &[(MemId, i64, Value)]) {
        for &(m, i, v) in log {
            self.mem.store(m, i, v);
            let c = self.machine.caches.access(self.amap.addr(m, i));
            self.machine.cycles += c + COPY_OVERHEAD_PER_ELEM;
        }
    }

    /// The improved RBR protocol (paper Fig. 4) on this invocation: save
    /// the modified input, warm the cache with a precondition run of
    /// `base`, restore, then run `timed[0]` and `timed[1]` under the
    /// identical context, restoring in between. The second execution's
    /// (correct) results stay in memory. `read` turns each timed
    /// execution's true cycles into its reading, on the machine that ran
    /// it; the readings come back in execution order.
    ///
    /// With the write inspector the precondition run records the undo
    /// log itself; otherwise the modified regions are copied. The unused
    /// undo record stays empty, so restoring it costs nothing.
    pub(crate) fn rbr_improved<T>(
        &mut self,
        plan: &RbrPlan,
        base: &dyn TierBackend,
        timed: [&dyn TierBackend; 2],
        args: &[Value],
        mut read: impl FnMut(&mut MachineState, u64) -> T,
    ) -> Result<[T; 2], ExecError> {
        let plain = ExecOptions::default();
        let (log, snap) = if plan.inspector {
            let record = ExecOptions { record_writes: true, num_counters: 0 };
            (self.try_execute(base, args, &record)?.writes, Vec::new())
        } else {
            let snap = self.save_regions(&plan.modified_regions);
            self.try_execute(base, args, &plain)?;
            (Vec::new(), snap)
        };
        let mut time = |h: &mut Self, version: &dyn TierBackend| -> Result<T, ExecError> {
            h.restore_cells(&log);
            h.restore_regions(&snap);
            let res = h.try_execute(version, args, &plain)?;
            Ok(read(&mut h.machine, res.true_cycles))
        };
        Ok([time(self, timed[0])?, time(self, timed[1])?])
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

/// Argument vectors equal bit for bit (floats by their bits).
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| peak_ir::values_eq(x, y))
}

impl Drop for RunHarness<'_> {
    fn drop(&mut self) {
        // Commit any invocations not yet flushed (runs abandoned before
        // stream exhaustion — fault aborts, partial ratings).
        self.pending.flush();
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
            let (measured, r) = h.try_execute_timed(&pv, &args, &opts).unwrap();
            invs.push((r.true_cycles, model.count_row(&args, &r.counters), measured.unwrap()));
        }
        (invs, SimMetrics::snapshot(&h.machine))
    }

    /// A whole train run of the improved RBR protocol with -O3 on both
    /// sides, read as Table 1 reads it: per invocation the true cycles of
    /// the two timed executions, and the run's final machine counters.
    fn rbr_run(
        w: &dyn Workload,
        spec: &MachineSpec,
        plan: &crate::consultant::RbrPlan,
        seed: u64,
    ) -> (Vec<[u64; 2]>, SimMetrics) {
        let pv = prepared(w, OptConfig::o3(), spec);
        let mut h = RunHarness::new(w, Dataset::Train, spec, seed);
        let mut pairs = Vec::new();
        while let Some(args) = h.next_args() {
            pairs.push(h.rbr_improved(plan, &pv, [&pv, &pv], &args, |_, cycles| cycles).unwrap());
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
        let (measured, res) = h.try_execute_timed(&pv, &args, &ExecOptions::default()).unwrap();
        let measured = measured.expect("no fault plan, no dropout");
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
