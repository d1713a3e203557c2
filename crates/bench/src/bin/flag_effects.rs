//! Diagnostic: true production-time effect of removing each -O3 flag.
//! `cargo run --release -p peak-bench --bin flag_effects -- [BENCH] [sparc|p4]`
use peak_bench::{machine_kind, select_benchmarks, Flags};
use peak_opt::{OptConfig, ALL_FLAGS};
use peak_sim::MachineSpec;
use peak_workloads::Dataset;

fn main() {
    let flags = Flags::from_env("flag_effects [BENCH] [sparc|p4]", &[], &[], 2);
    let name = flags.positional().first().map_or("SWIM", String::as_str);
    let mach = flags.positional().get(1).map_or("p4", String::as_str);
    let spec = MachineSpec::of(flags.or_exit(machine_kind(mach)));
    let w = flags
        .or_exit(select_benchmarks(peak_workloads::all_workloads(), |w| w.name(), Some(name)))
        .remove(0);
    let base = peak_core::production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Train);
    println!("{} on {}: -O3 = {} cycles", w.name(), spec.kind.name(), base);
    let mut effects: Vec<(f64, &str)> = ALL_FLAGS
        .iter()
        .map(|&f| {
            let t = peak_core::production_time(
                w.as_ref(), &spec, OptConfig::o3().without(f), Dataset::Train);
            ((base as f64 / t as f64 - 1.0) * 100.0, f.name())
        })
        .collect();
    effects.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (e, n) in effects {
        if e.abs() > 0.15 {
            println!("  -fno-{n:<24} {e:+7.2}%");
        }
    }
}
