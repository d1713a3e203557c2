//! Integration tests spanning all crates: compile → simulate → rate →
//! search, on real workloads.

use peak_core::consultant::Method;
use peak_core::rating::TuningSetup;
use peak_opt::{Flag, OptConfig};
use peak_sim::MachineSpec;
use peak_workloads::{Dataset, Workload};

/// Every workload survives a full simulated run under -O3 and -O0 on both
/// machines, and the optimized run is never slower than the unoptimized
/// one.
#[test]
fn all_workloads_simulate_on_both_machines() {
    // -O3 occasionally LOSES to -O0 on a particular machine (GZIP and MCF
    // on the P4 model: if-conversion/prefetch/scheduling interactions
    // backfire on 6 registers) — that is the paper's founding observation
    // ("potential performance degradation from applying the highest
    // optimization level is not uncommon", §1), so the assertion is:
    // never absurdly worse, and strictly better in most cells.
    let mut strict_wins = 0;
    let mut cells = 0;
    let mut big_losses: Vec<String> = Vec::new();
    for w in peak_workloads::all_workloads() {
        for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
            let t3 = peak_core::production_time(w.as_ref(), &spec, OptConfig::o3(), Dataset::Train);
            let t0 = peak_core::production_time(w.as_ref(), &spec, OptConfig::o0(), Dataset::Train);
            cells += 1;
            if t3 < t0 {
                strict_wins += 1;
            } else if (t3 as f64) > t0 as f64 * 1.35 {
                big_losses.push(format!("{}/{}", w.name(), spec.kind.name()));
            }
        }
    }
    assert!(
        strict_wins * 10 >= cells * 7,
        "-O3 should win outright in most cells: {strict_wins}/{cells}"
    );
    // Big -O3 losses exist (that is the paper's founding observation and
    // ART/P4 is the designed +178% headline), but only on the Pentium IV
    // model, whose tiny register file + spill pathology is what the
    // aggressive flags trip over. The SPARC II model must stay robust.
    assert!(
        big_losses.iter().all(|c| c.ends_with("Pentium-IV")),
        "-O3 disasters must be P4-only: {big_losses:?}"
    );
    assert!(
        big_losses.iter().any(|c| c.starts_with("ART")),
        "ART/P4 is the designed pathology: {big_losses:?}"
    );
    assert!(big_losses.len() <= 4, "pathologies stay the exception: {big_losses:?}");
}

/// Optimized versions compute the same results as the reference
/// interpreter on the unoptimized program, across the invocation stream.
/// This is the cross-crate semantic-equivalence check: workload IR →
/// optimizer (all 38 flags) → simulator, against interp(original).
#[test]
fn optimized_versions_preserve_semantics_on_streams() {
    use peak_ir::{Interp, MemoryImage};
    use rand::SeedableRng;
    for w in peak_workloads::all_workloads() {
        let cv = peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3());
        peak_ir::validate_program(&cv.program).unwrap();
        let spec = MachineSpec::sparc_ii();
        let pv = peak_sim::PreparedVersion::prepare(cv, &spec);
        let amap = peak_sim::AddressMap::new(
            &w.program().mems.iter().map(|m| m.len).collect::<Vec<_>>(),
        );
        let mut state = peak_sim::MachineState::noiseless(spec);
        // Two streams with the same seed: one through the interpreter on
        // the original program, one through the simulator on -O3.
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(9);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(9);
        let mut mem1 = MemoryImage::new(w.program());
        let mut mem2 = MemoryImage::new(&pv.version.program);
        w.setup(Dataset::Train, &mut mem1, &mut rng1);
        w.setup(Dataset::Train, &mut mem2, &mut rng2);
        let interp = Interp::default();
        for inv in 0..6 {
            let args1 = w.args(Dataset::Train, inv, &mut mem1, &mut rng1);
            let args2 = w.args(Dataset::Train, inv, &mut mem2, &mut rng2);
            assert_eq!(args1, args2, "{}: streams must agree", w.name());
            let r1 = interp.run(w.program(), w.ts(), &args1, &mut mem1).unwrap();
            let r2 = peak_sim::execute(
                &pv,
                &args2,
                &mut mem2,
                &amap,
                &mut state,
                &peak_sim::ExecOptions::default(),
            )
            .unwrap();
            assert_eq!(r1.ret, r2.ret, "{} inv {inv}: return values differ", w.name());
        }
        // Memory images agree afterwards.
        assert_eq!(mem1, mem2, "{}: memory diverged", w.name());
    }
}

/// The consultant's method assignment matches the paper's Table 1 for all
/// fourteen benchmarks.
#[test]
fn consultant_matches_paper_table1_methods() {
    let spec = MachineSpec::sparc_ii();
    for w in peak_workloads::all_workloads() {
        let consultation = peak_core::consult(w.as_ref(), &spec);
        let chosen = consultation.order[0].name();
        let expected = w.paper_row().method;
        assert_eq!(
            chosen,
            expected,
            "{}: paper assigns {expected}, consultant chose {chosen}",
            w.name()
        );
    }
}

/// Rating a version against itself is ≈1 for every applicable method on a
/// CBR benchmark, an MBR benchmark, and an RBR benchmark.
#[test]
fn self_ratings_are_unbiased_across_method_families() {
    let cases: Vec<(Box<dyn Workload>, Method)> = vec![
        (Box::new(peak_workloads::applu::AppluBlts::new()), Method::Cbr),
        (Box::new(peak_workloads::mgrid::MgridResid::new()), Method::Mbr),
        (Box::new(peak_workloads::twolf::TwolfNewDboxA::new()), Method::Rbr),
    ];
    for (w, method) in cases {
        let mut setup = TuningSetup::new(w.as_ref(), MachineSpec::sparc_ii(), Dataset::Train);
        let base = OptConfig::o3();
        let out = peak_core::rate(&mut setup, method, base, &[base])
            .unwrap_or_else(|| panic!("{} must rate with {}", w.name(), method.name()));
        assert!(
            (out.improvements[0] - 1.0).abs() < 0.05,
            "{} {}: self-rating {:?}",
            w.name(),
            method.name(),
            out.improvements
        );
    }
}

/// Methods agree on the *direction* of a large effect: removing
/// strict-aliasing on P4/ART is an improvement under both RBR and AVG
/// (paper: "AVG is able to pick out the optimization that significantly
/// hurts performance" — §5.2).
#[test]
fn methods_agree_on_large_effects() {
    let w = peak_workloads::art::ArtMatch::new();
    let base = OptConfig::o3();
    let cand = [base.without(Flag::StrictAliasing)];
    for method in [Method::Rbr, Method::Avg] {
        let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
        let out = peak_core::rate(&mut setup, method, base, &cand).unwrap();
        assert!(
            out.improvements[0] > 1.3,
            "{}: removing strict aliasing must rate as a big win: {:?}",
            method.name(),
            out.improvements
        );
    }
}

/// Tuning-time hierarchy (Figure 7 c/d): the PEAK-suggested section-level
/// method uses far fewer cycles than WHL for the same rating job.
#[test]
fn section_rating_beats_whole_program_rating_in_cost() {
    let w = peak_workloads::swim::SwimCalc3::new();
    let base = OptConfig::o3();
    let cands: Vec<OptConfig> = [Flag::LoopUnroll, Flag::PrefetchLoopArrays, Flag::Gcse]
        .iter()
        .map(|&f| base.without(f))
        .collect();
    let spec = MachineSpec::sparc_ii();
    let mut cbr = TuningSetup::new(&w, spec.clone(), Dataset::Train);
    peak_core::rate(&mut cbr, Method::Cbr, base, &cands).unwrap();
    let mut whl = TuningSetup::new(&w, spec, Dataset::Train);
    peak_core::rate(&mut whl, Method::Whl, base, &cands).unwrap();
    let ratio = cbr.tuning_cycles as f64 / whl.tuning_cycles as f64;
    assert!(
        ratio < 0.6,
        "CBR should cost well under WHL: ratio {ratio:.3} ({} vs {})",
        cbr.tuning_cycles,
        whl.tuning_cycles
    );
}

/// Train-tuned configurations transfer to the ref input (the paper's
/// left-bar/right-bar comparison): tuning on train must not pick flags
/// that hurt on ref.
#[test]
fn train_tuning_transfers_to_ref() {
    let w = peak_workloads::art::ArtMatch::new();
    let spec = MachineSpec::pentium_iv();
    let report =
        peak_core::tune(&w, &spec, Method::Rbr, Dataset::Train, &peak_core::TuneOptions::default());
    assert!(
        report.improvement_pct > 30.0,
        "ART P4 train-tuned must transfer: {:+.1}%",
        report.improvement_pct
    );
}
