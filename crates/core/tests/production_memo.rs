//! The production-run memo changes no answer: `production_time` equals an
//! independently coded harness loop on its first call and on a memo hit,
//! simulates one run per distinct engine and dataset (configs the version
//! cache hands one engine share it), and `tune`, whose baseline and
//! tuned production runs share one pool batch, reports the same bytes on
//! one thread and on two.
//!
//! This lives in its own test binary because it clears the process-wide
//! `VersionCache`; the tests below serialize on one lock so neither sees
//! the other's memo entries or counter deltas.

use peak_core::consultant::Method;
use peak_core::{production_time, tune, Pool, RunHarness, TuneOptions, VersionCache};
use peak_opt::{Flag, OptConfig};
use peak_sim::{ExecOptions, MachineSpec, PreparedVersion, TierBackend};
use peak_workloads::{workload_by_name, Dataset, Workload};
use std::sync::{Arc, Mutex, MutexGuard};

/// The SWIM/Pentium-IV/CBR winner: it is not -O3, so `tune` makes two
/// real production runs.
const SWIM_P4_CBR_BEST: u64 = 274_609_471_487;

fn global_cache() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    VersionCache::global().clear();
    guard
}

/// One production run written out by hand: a fresh compile, prepared
/// for `spec` and executed on the predecoded engine, over the seed-0
/// harness's whole dataset.
fn reference_run(w: &dyn Workload, spec: &MachineSpec, cfg: OptConfig, ds: Dataset) -> u64 {
    let pv = PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), &cfg), spec);
    let mut h = RunHarness::new(w, ds, spec, 0);
    let mut invocations = 0;
    while let Some(args) = h.next_args() {
        let _ = h.execute(&pv, &args, &ExecOptions::default());
        invocations += 1;
    }
    assert_eq!(invocations, w.invocations(ds), "a production run covers the dataset");
    h.cycles()
}

#[test]
fn memoized_production_time_equals_a_reference_run() {
    let _guard = global_cache();
    let cache = VersionCache::global();
    let no_delay = OptConfig::o3().without(Flag::DelayedBranch);
    let configs =
        [OptConfig::o3(), OptConfig::o0(), OptConfig::from_bits(SWIM_P4_CBR_BEST), no_delay];
    // Every (engine, dataset) pair simulated so far.
    let mut simulated: Vec<(Arc<dyn TierBackend>, Dataset)> = Vec::new();
    for name in ["SWIM", "BZIP2"] {
        let w = workload_by_name(name).expect("known workload");
        for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
            // Pentium-IV has no delay slot, so -O3 without DelayedBranch
            // is -O3's engine there and shares its run; SPARC-II has one.
            let shared = Arc::ptr_eq(
                &cache.prepare_workload(w.as_ref(), &spec, OptConfig::o3()),
                &cache.prepare_workload(w.as_ref(), &spec, no_delay),
            );
            assert_eq!(shared, !spec.has_delay_slot, "{name}/{}", spec.kind.name());
            for cfg in configs {
                for ds in [Dataset::Train, Dataset::Ref] {
                    let case = format!("{name}/{}/{:#x}/{ds:?}", spec.kind.name(), cfg.bits());
                    let want = reference_run(w.as_ref(), &spec, cfg, ds);
                    let engine = cache.prepare_workload(w.as_ref(), &spec, cfg);
                    let new = !simulated.iter().any(|(e, d)| Arc::ptr_eq(e, &engine) && *d == ds);
                    if new {
                        simulated.push((engine, ds));
                    }
                    let before = cache.stats();
                    let first = production_time(w.as_ref(), &spec, cfg, ds);
                    let after_first = cache.stats().delta(&before);
                    let again = production_time(w.as_ref(), &spec, cfg, ds);
                    let after_again = cache.stats().delta(&before);
                    assert_eq!(first, want, "{case}: first call");
                    assert_eq!(again, want, "{case}: memo hit");
                    let runs = u64::from(new);
                    assert_eq!(
                        (after_first.production_runs, after_first.production_hits),
                        (runs, 1 - runs),
                        "{case}: the first call for an engine simulates"
                    );
                    assert_eq!(
                        (after_again.production_runs, after_again.production_hits),
                        (runs, 2 - runs),
                        "{case}: the second call reads the memo"
                    );
                }
            }
        }
    }
    // Per workload and dataset: four engines on SPARC-II, three on
    // Pentium-IV, where -O3 without DelayedBranch shares -O3's.
    assert_eq!(simulated.len(), 2 * 2 * (4 + 3), "one run per engine and dataset");
}

#[test]
fn tune_reports_identically_on_one_and_two_threads() {
    let _guard = global_cache();
    let w = workload_by_name("SWIM").expect("known workload");
    let spec = MachineSpec::pentium_iv();
    let report = |threads: usize| {
        VersionCache::global().clear();
        let before = VersionCache::global().stats();
        let options = TuneOptions { pool: Pool::with_threads(threads), ..Default::default() };
        let r = tune(w.as_ref(), &spec, Method::Cbr, Dataset::Train, &options);
        let d = VersionCache::global().stats().delta(&before);
        assert_eq!(r.search.best.bits(), SWIM_P4_CBR_BEST, "{threads} threads: winner");
        assert_eq!(
            (d.production_runs, d.production_hits),
            (2, 0),
            "{threads} threads: baseline and winner each simulate once"
        );
        peak_util::to_string_pretty(&r)
    };
    let serial = report(1);
    let paired = report(2);
    assert_eq!(serial, paired, "TuneReport JSON at 1 and 2 threads");
}
