//! Absolute pin for the search strategies: every [`StrategyKind`] runs on
//! SWIM / SPARC-II / CBR with the suites' seed at compilation budgets 1,
//! 2, 7, 80 and unlimited, and the outcomes must match
//! `tests/goldens/strategy_outcomes.json` byte for byte, one run a line.
//! The differential suite only checks that a strategy agrees with itself
//! across thread counts; this one checks it agrees with the committed
//! answer.
//!
//! The small budgets reach the strategies' closing rules: at budget 1
//! nothing beyond -O3 is affordable, so GA's lone contender is -O3 and
//! keeps its first rating, and at budget 2 clustered IE re-rates its
//! single finalist.
//!
//! On a mismatch the test writes the produced document to the system
//! temp dir and names it in the failure message; after an intended
//! change to a strategy, review the diff and copy that file over the
//! golden.

use peak_core::consultant::Method;
use peak_core::{search_with_strategy_spent, Pool, StrategyKind, TuningSetup};
use peak_sim::MachineSpec;
use peak_util::{Json, ToJson};
use peak_workloads::Dataset;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/strategy_outcomes.json");
/// The strategy suites' seed.
const SEED: u64 = 0x5eed_cafe;
/// Compilation budgets (`None` = unlimited).
const BUDGETS: [Option<usize>; 5] = [Some(1), Some(2), Some(7), Some(80), None];

/// One strategy run's outcome and the unique configurations it charged.
fn outcome(kind: StrategyKind, budget: Option<usize>) -> Json {
    let w = peak_workloads::workload_by_name("swim").expect("known workload");
    let mut setup = TuningSetup::new(w.as_ref(), MachineSpec::sparc_ii(), Dataset::Train);
    let pool = Pool::with_threads(2);
    let (r, spent) = search_with_strategy_spent(&mut setup, &pool, Method::Cbr, kind, budget, SEED);
    Json::obj(vec![
        ("best_bits", r.best.bits().to_json()),
        ("method", r.method.to_json()),
        ("switches", r.switches.to_json()),
        ("ratings", r.ratings.to_json()),
        ("runs", r.runs.to_json()),
        ("invocations", r.invocations.to_json()),
        ("tuning_cycles", r.tuning_cycles.to_json()),
        ("budget_spent", spent.to_json()),
    ])
}

#[test]
fn strategy_outcomes_match_golden() {
    let mut rows = Vec::new();
    for kind in StrategyKind::all() {
        for budget in BUDGETS {
            let label = match budget {
                Some(n) => format!("{}/{n}", kind.name()),
                None => format!("{}/unlimited", kind.name()),
            };
            let row = outcome(kind, budget).compact();
            rows.push(format!("  {}: {row}", Json::Str(label).compact()));
        }
    }
    let got = format!("{{\n{}\n}}\n", rows.join(",\n"));
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("strategy_outcomes.actual.json");
        std::fs::write(&actual, &got).expect("write produced outcomes");
        panic!("strategy outcomes drifted from {GOLDEN}; produced document: {actual:?}");
    }
}
