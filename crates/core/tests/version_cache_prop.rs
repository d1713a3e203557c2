//! Property: a [`VersionCache`] hit is indistinguishable from a fresh
//! compile. For random points of the 2^38 flag space, the cached entry
//! (lowered code) must execute to the same return value and the same
//! bit-identical `true_cycles` as an uncached `optimize` + `prepare` of
//! the same inputs, from identical machine state. This is what makes the
//! cache a pure amortization — the paper's tuning-time savings with zero
//! effect on any rating. (`jit_fallback` checks the prepared fields of
//! the one kind of entry that keeps them, a declined lowering.)

use peak_core::{VersionCache, VersionKey};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, MachineKind, MachineSpec, MachineState, PreparedVersion, TierBackend};
use peak_workloads::{swim::SwimCalc3, Workload};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

fn fresh(w: &dyn Workload, cfg: OptConfig, spec: &MachineSpec) -> PreparedVersion {
    PreparedVersion::prepare(peak_opt::optimize(w.program(), w.ts(), &cfg), spec)
}

fn run_cycles(
    w: &dyn Workload,
    engine: &dyn TierBackend,
    spec: &MachineSpec,
) -> (u64, Option<peak_ir::Value>) {
    let mem_lens: Vec<usize> = w.program().mems.iter().map(|m| m.len).collect();
    let amap = peak_sim::AddressMap::new(&mem_lens);
    let mut mem = peak_ir::MemoryImage::new(w.program());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    w.setup(peak_workloads::Dataset::Train, &mut mem, &mut rng);
    let args = w.args(peak_workloads::Dataset::Train, 0, &mut mem, &mut rng);
    let mut state = MachineState::noiseless(spec.clone());
    let mut scratch = peak_sim::ExecScratch::new();
    let res = engine
        .execute(&args, &mut mem, &amap, &mut state, &ExecOptions::default(), &mut scratch)
        .expect("execution succeeds");
    (res.true_cycles, res.ret)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Cache hit ≡ fresh compile, over random configs and both machines.
    #[test]
    fn cache_hit_equals_fresh_compile(bits in any::<u64>(), p4 in any::<bool>()) {
        let cfg = OptConfig::from_bits(bits);
        let spec = if p4 { MachineSpec::pentium_iv() } else { MachineSpec::sparc_ii() };
        let w = SwimCalc3::new();
        let cache = VersionCache::new();
        // Miss, then hit: the hit must return the very same artifact.
        let miss = cache.prepare_workload(&w, &spec, cfg);
        let hit = cache.prepare_workload(&w, &spec, cfg);
        prop_assert!(std::sync::Arc::ptr_eq(&miss, &hit));
        prop_assert_eq!(cache.stats().hits, 1);
        // The hit executes bit-identically to a fresh compile from
        // identical cold state.
        let direct = fresh(&w, cfg, &spec);
        let (c_cached, r_cached) = run_cycles(&w, &*hit, &spec);
        let (c_fresh, r_fresh) = run_cycles(&w, &direct, &spec);
        prop_assert_eq!(c_cached, c_fresh, "true_cycles must not depend on cache state");
        prop_assert_eq!(r_cached, r_fresh);
    }

    /// Key equality is exactly (workload, ts, instrumented, bits, machine)
    /// equality: distinct configs never alias a cache entry.
    #[test]
    fn distinct_configs_never_alias(a in any::<u64>(), b in any::<u64>()) {
        let (ca, cb) = (OptConfig::from_bits(a), OptConfig::from_bits(b));
        let w = SwimCalc3::new();
        let ka = VersionKey::plain(&w, ca, MachineKind::SparcII);
        let kb = VersionKey::plain(&w, cb, MachineKind::SparcII);
        prop_assert_eq!(ka == kb, ca.bits() == cb.bits());
        let cache = VersionCache::new();
        let spec = MachineSpec::sparc_ii();
        let _ = cache.prepare_workload(&w, &spec, ca);
        let _ = cache.prepare_workload(&w, &spec, cb);
        let expect = if ca.bits() == cb.bits() { 1 } else { 2 };
        prop_assert_eq!(cache.len(), expect);
    }
}
