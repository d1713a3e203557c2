//! Absolute pin for the rating methods: `rate_with` rates -O3 against a
//! two-candidate frontier once per method on one section per collector
//! shape, and every outcome and trace must match
//! `tests/goldens/rating_outcomes.json` byte for byte.
//!
//! * CBR with one context (SWIM / SPARC-II) and with three (APSI /
//!   Pentium-IV, where off-context invocations run the base);
//! * AVG on APSI / Pentium-IV (all contexts in one window);
//! * MBR on MGRID / SPARC-II;
//! * RBR through the write inspector (ART / SPARC-II) and through region
//!   copies (MCF / Pentium-IV), plus the basic protocol
//!   (`rate_rbr_basic`) on MCF;
//! * WHL on SWIM / SPARC-II.
//!
//! Each case runs clean and under an intensity-1.0 fault profile with a
//! crash on every run's 12th execution (on APSI an off-context
//! invocation), at window scales 1.0, 1.8 and 0.1; the basic protocol
//! takes no options, so it runs at 1.0 only. At 0.1 windows close
//! exhausted: AVG's and RBR's before they converge, MBR's below the
//! in-loop fit threshold, so every version gets a straggler fit. A case
//! records the outcome (improvements and vars at round-trip precision,
//! window counts, dropouts, crashes, and the runs, invocations and
//! tuning cycles the rating spent) and its trace verbatim, except that
//! the per-run `sim.run` events are only counted.
//!
//! On a mismatch the test writes the produced document to the system
//! temp dir and names it in the failure message; after an intended
//! change to a rating method, review the diff and copy that file over
//! the golden.

use peak_core::rating::{rate_rbr_basic, rate_with, RateOptions, RateOutcome, TuningSetup};
use peak_core::Method;
use peak_obs::{BufferSink, Tracer};
use peak_opt::{Flag, OptConfig};
use peak_sim::MachineSpec;
use peak_util::{Json, ToJson};
use peak_workloads::{workload_by_name, Dataset};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/rating_outcomes.json");
/// Window scales: the default, the supervisor's widened retry, and one
/// that exhausts windows.
const SCALES: [f64; 3] = [1.0, 1.8, 0.1];

/// How a case calls into the rating layer.
#[derive(Clone, Copy)]
enum Call {
    Rate(Method),
    RbrBasic,
}

/// One rating of -O3 against the frontier: the outcome line and the
/// trace lines.
fn case(
    bench: &str,
    spec: MachineSpec,
    call: Call,
    faulted: bool,
    scale: f64,
) -> (Json, Vec<String>) {
    let w = workload_by_name(bench).expect("known workload");
    let faults = faulted.then(|| {
        let mut f = spec.fault_profile(1.0, 0xBEEF);
        f.crash_at = Some(12);
        f
    });
    let mut setup = TuningSetup::new(w.as_ref(), spec, Dataset::Train);
    setup.set_faults(faults);
    let sink = Arc::new(BufferSink::new());
    setup.set_tracer(Tracer::to_sink(sink.clone()));
    let base = OptConfig::o3();
    let frontier = [base.without(Flag::LoopUnroll), base.without(Flag::StrictAliasing)];
    let opts = RateOptions { window_scale: scale };
    let out: RateOutcome = match call {
        Call::Rate(method) => {
            rate_with(&mut setup, method, base, &frontier, &opts).expect("method applies")
        }
        Call::RbrBasic => rate_rbr_basic(&mut setup, base, &frontier),
    };
    let lines = sink.drain();
    let sim_runs = lines.iter().filter(|l| l.contains("\"kind\":\"sim.run\"")).count();
    let trace: Vec<String> =
        lines.into_iter().filter(|l| !l.contains("\"kind\":\"sim.run\"")).collect();
    let outcome = Json::obj(vec![
        ("method", out.method.to_json()),
        ("improvements", out.improvements.to_json()),
        ("vars", out.vars.to_json()),
        ("unconverged", out.unconverged.to_json()),
        ("samples", out.samples.to_json()),
        ("trimmed", out.trimmed.to_json()),
        ("dropouts", out.dropouts.to_json()),
        ("crashes", out.crashes.to_json()),
        ("runs", setup.runs_used.to_json()),
        ("invocations", setup.invocations_used.to_json()),
        ("tuning_cycles", setup.tuning_cycles.to_json()),
        ("sim_runs", sim_runs.to_json()),
    ]);
    (outcome, trace)
}

#[test]
fn rating_outcomes_match_golden() {
    let cases: [(&str, &str, MachineSpec, Call); 8] = [
        ("cbr", "SWIM", MachineSpec::sparc_ii(), Call::Rate(Method::Cbr)),
        ("cbr", "APSI", MachineSpec::pentium_iv(), Call::Rate(Method::Cbr)),
        ("avg", "APSI", MachineSpec::pentium_iv(), Call::Rate(Method::Avg)),
        ("mbr", "MGRID", MachineSpec::sparc_ii(), Call::Rate(Method::Mbr)),
        ("rbr", "ART", MachineSpec::sparc_ii(), Call::Rate(Method::Rbr)),
        ("rbr", "MCF", MachineSpec::pentium_iv(), Call::Rate(Method::Rbr)),
        ("rbr_basic", "MCF", MachineSpec::pentium_iv(), Call::RbrBasic),
        ("whl", "SWIM", MachineSpec::sparc_ii(), Call::Rate(Method::Whl)),
    ];
    let mut rows = Vec::new();
    for (name, bench, spec, call) in cases {
        let scales: &[f64] = match call {
            Call::Rate(_) => &SCALES,
            Call::RbrBasic => &SCALES[..1],
        };
        for faulted in [false, true] {
            for &scale in scales {
                let label = format!(
                    "{name} {bench}/{} {} x{scale:?}",
                    spec.kind.name(),
                    if faulted { "faults" } else { "clean" },
                );
                let (outcome, trace) = case(bench, spec.clone(), call, faulted, scale);
                let trace: Vec<String> =
                    trace.into_iter().map(|l| format!("    {}", Json::Str(l).compact())).collect();
                rows.push(format!(
                    "  {}: {{\"outcome\": {}, \"trace\": [\n{}\n  ]}}",
                    Json::Str(label).compact(),
                    outcome.compact(),
                    trace.join(",\n"),
                ));
            }
        }
    }
    let got = format!("{{\n{}\n}}\n", rows.join(",\n"));
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if got != want {
        let actual = std::env::temp_dir().join("rating_outcomes.actual.json");
        std::fs::write(&actual, &got).expect("write produced outcomes");
        panic!("rating outcomes drifted from {GOLDEN}; produced document: {actual:?}");
    }
}
