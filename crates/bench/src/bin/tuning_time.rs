//! Figure 7 (c,d) companion: tuning time normalized to WHL, measured on
//! one Iterative-Elimination *round* (rating all 38 flag-removal
//! candidates against -O3) per method. Search algorithms repeat this
//! round, so the per-round ratio is the figure's bar up to round count.
//!
//! ```text
//! cargo run --release -p peak-bench --bin tuning_time [-- --machine sparc|p4|both]
//! ```

use peak_bench::{machine_kinds, Flags};
use peak_core::consultant::Method;
use peak_core::rating::{rate, TuningSetup};
use peak_opt::OptConfig;
use peak_sim::MachineSpec;
use peak_workloads::Dataset;

const BENCHMARKS: [&str; 4] = ["SWIM", "MGRID", "ART", "EQUAKE"];

fn main() {
    let flags = Flags::from_env("tuning_time [--machine sparc|p4|both]", &["--machine"], &[], 0);
    let kinds = flags.or_exit(machine_kinds(flags.value("--machine").unwrap_or("both")));
    let base = OptConfig::o3();
    let candidates: Vec<OptConfig> =
        peak_opt::ALL_FLAGS.iter().map(|&f| base.without(f)).collect();
    for kind in kinds {
        let spec = MachineSpec::of(kind);
        println!(
            "\nTuning time for one IE round (38 candidates), normalized to WHL — {}",
            kind.name()
        );
        println!("{:<10} {:>12} {:>12} {:>12} {:>12} {:>14}", "bench", "CBR", "MBR", "RBR", "AVG", "WHL (cycles)");
        for name in BENCHMARKS {
            let w = peak_workloads::workload_by_name(name).unwrap();
            let mut cells: Vec<Option<u64>> = Vec::new();
            let mut whl_cycles = 0u64;
            for method in [Method::Cbr, Method::Mbr, Method::Rbr, Method::Avg, Method::Whl] {
                let mut setup = TuningSetup::new(w.as_ref(), spec.clone(), Dataset::Train);
                let out = rate(&mut setup, method, base, &candidates);
                if out.is_some() {
                    if method == Method::Whl {
                        whl_cycles = setup.tuning_cycles;
                    }
                    cells.push(Some(setup.tuning_cycles));
                } else {
                    cells.push(None);
                }
            }
            let fmt = |c: &Option<u64>| match c {
                Some(cy) if whl_cycles > 0 => format!("{:>12.4}", *cy as f64 / whl_cycles as f64),
                Some(cy) => format!("{cy:>12}"),
                None => format!("{:>12}", "—"),
            };
            println!(
                "{:<10} {} {} {} {} {:>14}",
                name.to_lowercase(),
                fmt(&cells[0]),
                fmt(&cells[1]),
                fmt(&cells[2]),
                fmt(&cells[3]),
                whl_cycles
            );
        }
    }
}
