//! Absolute pin for the online adaptive tuner: each scenario's
//! [`AdaptiveOutcome`] (per-context winners, promotions and decisions,
//! invocations, sampling invocations and cycles) must match
//! `tests/goldens/adaptive_outcomes.json` byte for byte. The unit tests
//! in `adaptive.rs` check the shape of an outcome (winners per context,
//! sampling ratio); this one pins the exact numbers, so a change to the
//! CBR windows the decision point reads shows here.
//!
//! * APSI / Pentium-IV with two candidates, in both incumbent orders:
//!   the contexts split between -O3 and -O0.
//! * SWIM / SPARC-II with three candidates: one context walks two
//!   experiments in turn.
//!
//! On a mismatch the test writes the produced document to the system
//! temp dir and names it in the failure message; after an intended
//! change to the adaptive policy, review the diff and copy that file
//! over the golden.

use peak_core::{AdaptiveOutcome, AdaptiveTuner, RunHarness};
use peak_opt::{Flag, OptConfig};
use peak_sim::MachineSpec;
use peak_util::{Json, ToJson};
use peak_workloads::{workload_by_name, Dataset};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/adaptive_outcomes.json");

fn outcome(bench: &str, spec: MachineSpec, candidates: Vec<OptConfig>, seed: u64) -> Json {
    let w = workload_by_name(bench).expect("known workload");
    let tuner = AdaptiveTuner::new(w.as_ref(), &spec, candidates);
    let mut h = RunHarness::new(w.as_ref(), Dataset::Train, &spec, seed);
    let AdaptiveOutcome { winners, invocations, sampling_invocations, cycles } = tuner.run(&mut h);
    let winners = winners
        .into_iter()
        .map(|(key, best, promotions, decisions)| {
            Json::obj(vec![
                ("context", key.0.to_json()),
                ("winner", best.to_json()),
                ("promotions", promotions.to_json()),
                ("decisions", decisions.to_json()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("winners", Json::Arr(winners)),
        ("invocations", Json::U(invocations)),
        ("sampling_invocations", Json::U(sampling_invocations)),
        ("cycles", Json::U(cycles)),
    ])
}

#[test]
fn adaptive_outcomes_match_golden() {
    let o3 = OptConfig::o3();
    let o0 = OptConfig::o0();
    let doc = Json::obj(vec![
        ("apsi_p4_o3_o0", outcome("APSI", MachineSpec::pentium_iv(), vec![o3, o0], 5)),
        ("apsi_p4_o0_o3", outcome("APSI", MachineSpec::pentium_iv(), vec![o0, o3], 6)),
        (
            "swim_sparc_three",
            outcome(
                "SWIM",
                MachineSpec::sparc_ii(),
                vec![o3, o3.without(Flag::LoopUnroll), o0],
                7,
            ),
        ),
    ]);
    let got = doc.pretty() + "\n";
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("adaptive_outcomes.actual.json");
        std::fs::write(&actual, &got).expect("write produced outcomes");
        panic!("adaptive outcomes drifted from {GOLDEN}; produced document: {actual:?}");
    }
}
