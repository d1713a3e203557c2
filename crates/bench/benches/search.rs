//! Ablation A3: search algorithms over the flag space — Iterative
//! Elimination (the paper's choice, O(n²)) against exhaustive search on a
//! small subspace and Cooper-style biased random search, all using the
//! same rating machinery ("Alternative pruning algorithms could also be
//! plugged into our system", paper §5.2).
//!
//! The Criterion timings cover a *single rating round* (the unit all
//! search algorithms are built from); the full-search quality comparison
//! runs once and prints its table after the timings.

use criterion::{criterion_group, criterion_main, Criterion};
use peak_core::consultant::Method;
use peak_core::rating::{rate, TuningSetup};
use peak_core::{
    exhaustive, iterative_elimination, FrontierRater, RandomSearchStrategy, SearchStrategy,
};
use peak_opt::{Flag, OptConfig};
use peak_sim::MachineSpec;
use peak_workloads::{art::ArtMatch, Dataset};

/// Small subspace for exhaustive search: the flags that matter for ART.
const SUBSPACE: [Flag; 5] = [
    Flag::StrictAliasing,
    Flag::RegisterPromotion,
    Flag::ScheduleInsns,
    Flag::LoopUnroll,
    Flag::PrefetchLoopArrays,
];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_round");
    group.sample_size(10);
    // One rating round with 6 candidates — the repeated unit of every
    // search algorithm here.
    group.bench_function("rbr_rate_6_candidates", |b| {
        b.iter(|| {
            let w = ArtMatch::new();
            let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
            let base = OptConfig::o3();
            let cands: Vec<OptConfig> =
                SUBSPACE.iter().map(|&f| base.without(f)).collect();
            std::hint::black_box(rate(&mut setup, Method::Rbr, base, &cands))
        })
    });
    group.finish();

    // Quality comparison: all should find the strict-aliasing win on P4.
    println!("\n=== Search quality on ART / Pentium IV ===");
    let run = |label: &str, f: &dyn Fn(&mut TuningSetup<'_>) -> peak_core::SearchResult| {
        let w = ArtMatch::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
        let r = f(&mut setup);
        let t = peak_core::production_time(&w, &MachineSpec::pentium_iv(), r.best, Dataset::Ref);
        let base = peak_core::production_time(
            &w,
            &MachineSpec::pentium_iv(),
            OptConfig::o3(),
            Dataset::Ref,
        );
        println!(
            "  {:<24} {:+6.1}%  ({} ratings, {} tuning cycles) off={:?}",
            label,
            (base as f64 / t as f64 - 1.0) * 100.0,
            r.ratings,
            r.tuning_cycles,
            r.disabled_flags
        );
        r
    };
    let ie = run("iterative-elimination", &|s| iterative_elimination(s, Method::Rbr));
    let ex = run("exhaustive (5 flags)", &|s| exhaustive(s, Method::Rbr, &SUBSPACE));
    let _ = run("random (24 samples)", &|s| {
        let random = RandomSearchStrategy { samples: 24, p_off_per_mille: 150, seed: 9 };
        let pool = s.pool().clone();
        random.run(&mut FrontierRater::pooled(s, pool, Method::Rbr))
    });
    assert!(
        ie.disabled_flags.iter().any(|f| f == "strict-aliasing"),
        "IE finds the aliasing win"
    );
    assert!(
        ex.disabled_flags.iter().any(|f| f == "strict-aliasing")
            || ex.disabled_flags.iter().any(|f| f == "register-promotion"),
        "exhaustive finds the pressure fix: {:?}",
        ex.disabled_flags
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
