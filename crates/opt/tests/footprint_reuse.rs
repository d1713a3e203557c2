//! The footprint reuse rule: a compile of config C is exactly the compile
//! of every C′ that keeps C's footprint and adds no pipeline flag beyond
//! C's, whatever its codegen flags. The version cache hands one compile
//! out for all such configs, so the rule is checked here on every
//! workload's tuning section, for -O3 and 30 seeded random configs: each
//! single removal of a flag the compile did not use, and random subsets
//! of those flags removed at once, each with random codegen flags. The
//! programs must be bit-identical (`Program::bit_image`, which compares
//! f64 constants by bit pattern where the derived `==` equates 0.0 and
//! -0.0). Every compile runs at `ValidationLevel::Structural`, so the
//! rule's premise — a pass that reports no change leaves the program
//! bit-identical — is checked after every pass of every compile too.

use peak_ir::{FuncId, Program};
use peak_opt::{optimize, CompiledVersion, Flag, OptConfig, ValidationLevel, CODEGEN_FLAGS};
use peak_workloads::fuzzgen::SplitMix64;

/// Random configs per workload besides -O3.
const RANDOM_CONFIGS: u64 = 30;

/// Random subsets of the unused flags tried per config.
const SUBSETS: usize = 4;

/// Compile with structural validation, which includes the premise check.
fn compile(prog: &Program, func: FuncId, cfg: &OptConfig) -> CompiledVersion {
    peak_opt::optimize_checked(prog, func, cfg, ValidationLevel::Structural)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// `cfg` with each codegen flag set from one bit of `r`.
fn with_codegen(cfg: OptConfig, r: u64) -> OptConfig {
    CODEGEN_FLAGS.iter().enumerate().fold(cfg, |c, (i, &f)| c.with(f, r >> i & 1 == 1))
}

#[test]
fn configs_within_a_footprint_compile_alike() {
    let mut claims = 0usize;
    for w in peak_workloads::all_workloads() {
        let mut rng = SplitMix64::new(0xF007_9817 ^ w.name().len() as u64);
        let mut configs = vec![OptConfig::o3()];
        configs.extend((0..RANDOM_CONFIGS).map(|_| OptConfig::from_bits(rng.next_u64())));
        for cfg in configs {
            let compiled = compile(w.program(), w.ts(), &cfg);
            let image = compiled.program.bit_image();
            let fp = compiled.footprint;
            assert_eq!(fp.ran, cfg.pipeline(), "{}: {cfg}", w.name());
            assert_eq!(fp.used.bits() & !fp.ran.bits(), 0, "{}: {cfg}", w.name());
            let unused: Vec<Flag> =
                fp.ran.enabled_flags().into_iter().filter(|&f| !fp.used.enabled(f)).collect();
            let mut alike = Vec::new();
            for &f in &unused {
                alike.push(with_codegen(cfg.without(f), rng.next_u64()));
            }
            for _ in 0..SUBSETS {
                let r = rng.next_u64();
                let dropped = unused
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| r >> i & 1 == 1)
                    .fold(cfg, |c, (_, &f)| c.without(f));
                alike.push(with_codegen(dropped, rng.next_u64()));
            }
            for other in alike {
                assert!(fp.covers(other), "{}: {cfg} covers {other}", w.name());
                let again = compile(w.program(), w.ts(), &other);
                assert!(
                    again.program.bit_image() == image,
                    "{}: {other} compiles unlike {cfg}, whose footprint it keeps",
                    w.name()
                );
                claims += 1;
            }
        }
    }
    assert!(claims > 1_000, "only {claims} claims checked");
}

/// The footprint's range is exactly the configs between its used and its
/// ran flags: dropping a used flag or adding a pipeline flag leaves it,
/// and the codegen flags never matter.
#[test]
fn covers_is_the_range_between_used_and_ran() {
    let w = peak_workloads::workload_by_name("swim").expect("known workload");
    let cfg = OptConfig::o3().without(Flag::LoopUnroll);
    let fp = optimize(w.program(), w.ts(), &cfg).footprint;
    assert!(fp.covers(cfg));
    assert!(fp.covers(OptConfig::from_bits(fp.used.bits())));
    assert!(!fp.covers(OptConfig::o3()), "LoopUnroll was not in the compile");
    for f in fp.used.enabled_flags() {
        assert!(!fp.covers(cfg.without(f)), "{f} was used");
    }
    for f in CODEGEN_FLAGS {
        assert!(fp.covers(cfg.without(f)), "{f} is a codegen flag");
    }
    let o0 = optimize(w.program(), w.ts(), &OptConfig::o0()).footprint;
    assert_eq!((o0.used, o0.ran), (OptConfig::o0(), OptConfig::o0()));
    assert!(o0.covers(OptConfig::o3().codegen()));
}
