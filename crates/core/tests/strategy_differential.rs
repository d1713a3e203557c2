//! Differential determinism tests for the pluggable search strategies.
//!
//! Two families of invariants:
//!
//! 1. **Thread invariance.** Every strategy — IE, GA, phase-clustered
//!    IE, random — produces a byte-identical `SearchResult` (and spends
//!    an identical compilation budget) at 1, 2, and 5 pool threads. The
//!    1-thread pool runs every candidate job inline in index order, so
//!    it *is* the serial reference; comparing it against 2- and N-thread
//!    pools pins down per-job seeding, scratch isolation, index-ordered
//!    merging, and in-flight compile de-duplication. Budget-capped legs
//!    cover every strategy; round-capped IE legs with no budget cover
//!    the per-candidate frontier search on its own.
//! 2. **Policy agreement.** Serial IE (the paper's fallback policy)
//!    matches the checkpointing `Tuner` (the supervised policy on the
//!    same IE loop) on a clean run, where neither policy has a reason to
//!    retry or degrade. (The `results_table1_*` byte-compare in CI pins
//!    the golden files themselves.)

use peak_core::consultant::Method;
use peak_core::{
    build_strategy, iterative_elimination, CompilationBudget, FrontierRater, IterativeElimination,
    Pool, SearchResult, SearchStrategy, StrategyKind, Tuner, TuningSetup,
};
use peak_sim::MachineSpec;
use peak_workloads::Dataset;

/// Serial reference, smallest parallel pool, oversubscribed pool.
const THREADS: [usize; 3] = [1, 2, 5];
/// Budget for the strategy legs: enough for several GA generations and
/// two clustered-IE rounds (below the probe threshold, clustered takes
/// its degenerate plain-IE path), small enough to keep the suite fast.
const BUDGET: usize = 80;
/// Fixed strategy seed for the suite (any value works; it must simply
/// be the same across legs).
const SEED: u64 = 0x5eed_cafe;

/// Run `strategy` on a pooled rater at `threads`, capped at `budget`
/// unique configurations (`None` = unlimited); returns the result and
/// the budget spent.
fn run_leg(
    bench: &str,
    spec: &MachineSpec,
    method: Method,
    strategy: &dyn SearchStrategy,
    budget: Option<usize>,
    threads: usize,
) -> (SearchResult, usize) {
    let w = peak_workloads::workload_by_name(bench).expect("known workload");
    let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
    let mut rater = FrontierRater::pooled(&mut setup, Pool::with_threads(threads), method);
    if let Some(n) = budget {
        rater = rater.with_budget(CompilationBudget::limited(n));
    }
    let result = strategy.run(&mut rater);
    (result, rater.spent())
}

fn assert_fields_equal(label: &str, got: &SearchResult, reference: &SearchResult) {
    assert_eq!(got.best, reference.best, "{label}: best config");
    assert_eq!(got.disabled_flags, reference.disabled_flags, "{label}: disabled flags");
    assert_eq!(got.method, reference.method, "{label}: final method");
    assert_eq!(got.switches, reference.switches, "{label}: switches");
    assert_eq!(got.ratings, reference.ratings, "{label}: ratings count");
    assert_eq!(got.tuning_cycles, reference.tuning_cycles, "{label}: tuning cycles");
    assert_eq!(got.runs, reference.runs, "{label}: runs");
    assert_eq!(got.invocations, reference.invocations, "{label}: invocations");
}

fn assert_identical(
    bench: &str,
    spec: &MachineSpec,
    method: Method,
    name: &str,
    strategy: &dyn SearchStrategy,
    budget: Option<usize>,
) {
    let (reference, ref_spent) = run_leg(bench, spec, method, strategy, budget, THREADS[0]);
    assert!(reference.ratings > 0, "{name}: search must rate something");
    assert!(budget.is_none_or(|b| ref_spent <= b), "{name}: budget respected");
    for &threads in &THREADS[1..] {
        let (got, spent) = run_leg(bench, spec, method, strategy, budget, threads);
        let label =
            format!("{bench}/{}/{}/{name} at {threads} threads", spec.kind.name(), method.name());
        assert_fields_equal(&label, &got, &reference);
        assert_eq!(spent, ref_spent, "{label}: budget spent");
    }
}

/// A budget-capped leg of `kind`, seeded with the suite seed.
fn assert_strategy_identical(bench: &str, spec: &MachineSpec, method: Method, kind: StrategyKind) {
    assert_identical(bench, spec, method, kind.name(), &*build_strategy(kind, SEED), Some(BUDGET));
}

/// A round-capped IE leg with no budget.
fn assert_ie_rounds_identical(bench: &str, spec: &MachineSpec, method: Method, rounds: usize) {
    let ie = IterativeElimination { max_rounds: rounds, ..Default::default() };
    assert_identical(bench, spec, method, "ie", &ie, None);
}

#[test]
fn ie_identical_across_thread_counts() {
    assert_strategy_identical("swim", &MachineSpec::sparc_ii(), Method::Cbr, StrategyKind::Ie);
}

#[test]
fn ga_identical_across_thread_counts() {
    assert_strategy_identical("swim", &MachineSpec::sparc_ii(), Method::Cbr, StrategyKind::Ga);
}

#[test]
fn clustered_identical_across_thread_counts() {
    assert_strategy_identical(
        "swim",
        &MachineSpec::sparc_ii(),
        Method::Cbr,
        StrategyKind::ClusteredIe,
    );
}

#[test]
fn random_identical_across_thread_counts() {
    assert_strategy_identical("art", &MachineSpec::pentium_iv(), Method::Rbr, StrategyKind::Random);
}

/// Two IE rounds on SWIM×SPARC-II×CBR: crosses a round boundary, so the
/// base update and the second round's re-seeded frontier are covered.
#[test]
fn swim_sparc_cbr_identical_across_thread_counts() {
    assert_ie_rounds_identical("swim", &MachineSpec::sparc_ii(), Method::Cbr, 2);
}

/// One round of ART×Pentium-IV×RBR — the paper's marquee cell (and the
/// machine where float-ordering wobble once lived).
#[test]
fn art_p4_rbr_identical_across_thread_counts() {
    assert_ie_rounds_identical("art", &MachineSpec::pentium_iv(), Method::Rbr, 1);
}

/// Same seed, same machine, run twice: the GA trajectory must replay
/// exactly (catches hidden global state leaking into the search).
#[test]
fn ga_same_seed_replays_exactly() {
    let ga = build_strategy(StrategyKind::Ga, SEED);
    let leg = || run_leg("art", &MachineSpec::pentium_iv(), Method::Rbr, &*ga, Some(BUDGET), 2);
    let ((a, sa), (b, sb)) = (leg(), leg());
    assert_fields_equal("ga replay", &b, &a);
    assert_eq!(sa, sb);
}

/// Serial IE under the paper policy matches the `Tuner` under the
/// supervised policy on clean ART×P4×RBR: the two policies share the IE
/// loop and the walk, and only differ once a rating fails.
#[test]
fn serial_ie_matches_clean_supervised_tuner() {
    let w = peak_workloads::workload_by_name("art").unwrap();
    let spec = MachineSpec::pentium_iv();
    let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
    let paper = iterative_elimination(&mut setup, Method::Rbr);
    let mut tuner = Tuner::new(w.as_ref(), spec, Method::Rbr, Dataset::Train);
    let supervised = tuner.run();
    assert_eq!(paper.best, supervised.best, "best config");
    assert_eq!(paper.ratings, supervised.ratings, "ratings");
    assert_eq!(paper.runs, supervised.runs, "runs");
    assert_eq!(paper.invocations, supervised.invocations, "invocations");
    assert_eq!(paper.tuning_cycles, supervised.tuning_cycles, "tuning cycles");
    assert!(
        paper.disabled_flags.iter().any(|f| f == "strict-aliasing"),
        "the marquee ART×P4 result: {:?}",
        paper.disabled_flags
    );
}
