//! Quickstart: tune one benchmark kernel end-to-end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full PEAK flow on the SWIM `calc3` tuning section:
//! 1. the Rating Approach Consultant analyzes the TS and picks a method,
//! 2. Iterative Elimination searches the 38-flag space with that method,
//! 3. the tuned binary is compared against `-O3` on the production input.

use peak_opt::OptConfig;
use peak_sim::MachineSpec;
use peak_workloads::{swim::SwimCalc3, Dataset, Workload};

fn main() {
    let workload = SwimCalc3::new();
    let spec = MachineSpec::sparc_ii();
    println!(
        "== PEAK quickstart: {} / {} on {} ==",
        workload.name(),
        workload.ts_name(),
        spec.kind.name()
    );

    // 1. Consult: which rating methods apply to this tuning section?
    let consultation = peak_core::consult(&workload, &spec);
    println!("\nRating Approach Consultant:");
    println!(
        "  applicable methods (least overhead first): {:?}",
        consultation.order.iter().map(|m| m.name()).collect::<Vec<_>>()
    );
    if let Some(cbr) = &consultation.cbr {
        println!(
            "  CBR: {} context variable(s), {} distinct context(s) in the profile",
            cbr.sources.len(),
            cbr.contexts.len()
        );
    }
    println!(
        "  RBR: save/restore {} region(s), {} elements{}",
        consultation.rbr.modified_regions.len(),
        consultation.rbr.modified_elems,
        if consultation.rbr.inspector { " (write inspector)" } else { "" }
    );
    let method = consultation.order[0];

    // 2. Tune: Iterative Elimination over the 38 -O3 flags, rating each
    //    flag-removal candidate with the chosen method on the train input.
    println!("\nTuning with {} on the train input…", method.name());
    let report =
        peak_core::tune(&workload, &spec, method, Dataset::Train, &peak_core::TuneOptions::default());
    println!("  ratings performed: {}", report.search.ratings);
    println!("  application runs:  {}", report.search.runs);
    println!("  tuning cycles:     {}", report.search.tuning_cycles);
    println!(
        "  flags disabled:    {:?}",
        if report.search.disabled_flags.is_empty() {
            vec!["(none — -O3 already optimal here)".to_string()]
        } else {
            report.search.disabled_flags.clone()
        }
    );

    // 3. Production comparison on the ref input.
    println!("\nProduction (ref input):");
    println!("  -O3 baseline: {:>12} cycles", report.baseline_cycles);
    println!("  tuned:        {:>12} cycles", report.tuned_cycles);
    println!("  improvement:  {:+.2}%", report.improvement_pct);

    // Bonus: what one WHL rating would have cost.
    let whl = peak_core::production_time(&workload, &spec, OptConfig::o3(), Dataset::Train);
    println!(
        "\n(One full train run costs {whl} cycles — the WHL baseline pays that for every one of the {} ratings.)",
        report.search.ratings
    );
}
