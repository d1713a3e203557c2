//! # peak-repro — umbrella crate
//!
//! Reproduction of Pan & Eigenmann, *Rating Compiler Optimizations for
//! Automatic Performance Tuning* (SC 2004). This crate re-exports the
//! workspace members under one roof and hosts the runnable examples and
//! cross-crate integration tests; see the individual crates for the
//! substance:
//!
//! * [`ir`] — the IR + program analyses,
//! * [`opt`] — the 38-flag optimizing compiler,
//! * [`sim`] — the two-machine cycle simulator,
//! * [`workloads`] — the fourteen SPEC-like tuning sections,
//! * [`core`] — the PEAK tuning system (rating methods + search).

#![warn(missing_docs)]

pub use peak_core as core;
pub use peak_ir as ir;
pub use peak_opt as opt;
pub use peak_sim as sim;
pub use peak_workloads as workloads;

/// One-call demo: consult + tune + report for a named benchmark.
///
/// ```no_run
/// let report = peak_repro::tune_benchmark("SWIM", peak_sim::MachineKind::SparcII);
/// println!("{:+.1}%", report.improvement_pct);
/// ```
pub fn tune_benchmark(
    name: &str,
    machine: peak_sim::MachineKind,
) -> peak_core::TuneReport {
    let workload = peak_workloads::workload_by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let spec = peak_sim::MachineSpec::of(machine);
    let consultation = peak_core::consult(workload.as_ref(), &spec);
    peak_core::tune(
        workload.as_ref(),
        &spec,
        consultation.order[0],
        peak_workloads::Dataset::Train,
        &peak_core::TuneOptions::default(),
    )
}
