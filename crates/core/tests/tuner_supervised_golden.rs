//! Absolute pin for the supervised rating policy: the checkpointed
//! [`Tuner`] runs two faulted tuning jobs and the checkpoint JSON after
//! every step must match `tests/goldens/tuner_supervised.json` byte for
//! byte. The replay and resume tests elsewhere only check that a run
//! agrees with itself; this one checks it agrees with the committed
//! result.
//!
//! * SWIM / SPARC-II / CBR under intensity-1.0 jitter with a version
//!   crash on every run's 8th execution: every method but WHL crashes,
//!   so each round walks the whole cascade.
//! * VORTEX / P4 / RBR under intensity-0.5 faults: RBR stays
//!   unconverged through both widening retries and degrades to WHL.
//!
//! On a mismatch the test writes the produced document to the system
//! temp dir and names it in the failure message; after an intended
//! change to the supervised policy, review the diff and copy that file
//! over the golden.

use peak_core::{Method, Tuner};
use peak_sim::MachineSpec;
use peak_util::{Json, ToJson};
use peak_workloads::{workload_by_name, Dataset};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/tuner_supervised.json");

/// Every checkpoint of one tuning job: the initial state, then the
/// state after each step.
fn checkpoints(
    bench: &str,
    spec: MachineSpec,
    method: Method,
    intensity: f64,
    crash_at: Option<u64>,
) -> Json {
    let w = workload_by_name(bench).expect("known workload");
    let mut faults = spec.fault_profile(intensity, 0xBEEF);
    faults.crash_at = crash_at;
    let mut tuner = Tuner::with_faults(w.as_ref(), spec, method, Dataset::Train, Some(faults));
    let mut cps = vec![tuner.checkpoint().to_json()];
    loop {
        let more = tuner.step();
        cps.push(tuner.checkpoint().to_json());
        if !more {
            break;
        }
    }
    Json::Arr(cps)
}

#[test]
fn supervised_tuner_checkpoints_match_golden() {
    let doc = Json::obj(vec![
        (
            "swim_sparc_cbr_crash8",
            checkpoints("SWIM", MachineSpec::sparc_ii(), Method::Cbr, 1.0, Some(8)),
        ),
        (
            "vortex_p4_rbr_faults05",
            checkpoints("VORTEX", MachineSpec::pentium_iv(), Method::Rbr, 0.5, None),
        ),
    ]);
    let got = doc.pretty() + "\n";
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("tuner_supervised.actual.json");
        std::fs::write(&actual, &got).expect("write produced checkpoints");
        panic!("supervised tuner checkpoints drifted from {GOLDEN}; produced document: {actual:?}");
    }
}
