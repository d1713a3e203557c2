//! Differential gates for the compressed cost model.
//!
//! Every fast path in the cost model names an oracle and a gate
//! (DESIGN.md §16). This suite is the gate for two of them:
//!
//! - **Compressed cache** ([`peak_sim::Cache`], permutation-word LRU +
//!   generation-stamped reset) vs the stamp-based reference
//!   ([`peak_sim::RefCache`]): per-access hit/miss decisions, counters,
//!   and post-flush behaviour must be identical over seeded random
//!   address streams across every associativity class (1, 2, 3..=8,
//!   >8) and both pow2 and non-pow2 geometries.
//! - **Precomputed predictor indices**
//!   ([`peak_sim::BranchPredictor::mispredicted_at`] on
//!   [`peak_sim::BranchPredictor::index_for`], what the predecoded and
//!   jit engines call) vs the hash-per-branch path
//!   ([`peak_sim::BranchPredictor::mispredicted`], the interp engine's):
//!   same stats, same misprediction count.
//! - **Recency equality** ([`peak_sim::Cache::recency_eq`], what the run
//!   harness's repeat fast path compares): caches that reach the same
//!   LRU order through different histories — different physical ways,
//!   different flush generations — compare equal and then make the same
//!   hit/miss decisions as each other and as the [`peak_sim::RefCache`]
//!   oracles driven through the same histories; a changed recency order
//!   or a stale generation compares unequal.
//!
//! `PEAK_COSTMODEL_SEEDS` scales the stream count (default 200; CI runs
//! 2000+).

use peak_sim::{
    BranchPredictor, Cache, CacheParams, Hierarchy, MachineSpec, MachineState, RefCache,
    TimingState,
};

fn seeds() -> u64 {
    std::env::var("PEAK_COSTMODEL_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// Deterministic splitmix64 — keeps the suite free of RNG-crate churn.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Geometry grid: every shipped associativity (1, 4, 8) plus the
/// specialized 2-way path, odd widths inside the nibble range, the
/// wide (>8) fallback, and non-pow2 sets/lines for the div/mod path.
fn geometries() -> Vec<CacheParams> {
    vec![
        // Shipped machine shapes (SPARC-II / P4 L1+L2).
        CacheParams { sets: 512, ways: 1, line_elems: 4, hit_cycles: 2 },
        CacheParams { sets: 2048, ways: 4, line_elems: 8, hit_cycles: 10 },
        CacheParams { sets: 64, ways: 4, line_elems: 8, hit_cycles: 2 },
        CacheParams { sets: 1024, ways: 8, line_elems: 16, hit_cycles: 18 },
        // Specialized 2-way path.
        CacheParams { sets: 128, ways: 2, line_elems: 8, hit_cycles: 2 },
        // Odd widths in the permutation range.
        CacheParams { sets: 32, ways: 3, line_elems: 4, hit_cycles: 2 },
        CacheParams { sets: 16, ways: 5, line_elems: 8, hit_cycles: 2 },
        CacheParams { sets: 8, ways: 7, line_elems: 2, hit_cycles: 2 },
        // Wide-associativity fallback (explicit order bytes).
        CacheParams { sets: 16, ways: 12, line_elems: 8, hit_cycles: 2 },
        // Non-pow2 sets and lines: div/mod addressing.
        CacheParams { sets: 48, ways: 4, line_elems: 8, hit_cycles: 2 },
        CacheParams { sets: 64, ways: 2, line_elems: 6, hit_cycles: 2 },
        CacheParams { sets: 3, ways: 9, line_elems: 5, hit_cycles: 2 },
    ]
}

/// One random address stream with a locality mix (tight reuse window +
/// occasional far jumps + same-line streaming runs), interleaved
/// flushes, driven through both implementations in lockstep.
fn drive_stream(params: CacheParams, seed: u64) {
    let mut fast = Cache::new(params);
    let mut reference = RefCache::new(params);
    let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
    // Footprint chosen to straddle the cache capacity so evictions are
    // common but hits still happen.
    let span = (params.capacity_elems() as u64 * 3).max(64);
    let mut last = 0u64;
    for i in 0..4000u64 {
        let r = splitmix(&mut s);
        let addr = match r % 10 {
            // Same-line streaming: re-touch the previous address (MRU
            // early-out path).
            0..=2 => last,
            // Tight window around the previous address.
            3..=6 => last.wrapping_add(r >> 59) % span,
            // Far jump.
            _ => (r >> 16) % span,
        };
        last = addr;
        let h_fast = fast.access(addr);
        let h_ref = reference.access(addr);
        assert_eq!(
            h_fast, h_ref,
            "hit/miss diverged: {params:?} seed {seed} step {i} addr {addr}"
        );
        // Interleaved flushes exercise the generation-stamp reset.
        if r.is_multiple_of(613) {
            fast.flush();
            reference.flush();
        }
    }
    assert_eq!(fast.stats(), reference.stats(), "{params:?} seed {seed}");
}

/// Wall-clock sanity for the compressed layout vs the stamp oracle —
/// `cargo test --release -p peak-sim --test costmodel_differential -- --ignored --nocapture`.
/// Not a gate (single-core CI hosts are too noisy); run it when touching
/// the access path.
#[test]
#[ignore]
fn bench_compressed_vs_reference() {
    for params in [
        CacheParams { sets: 2048, ways: 4, line_elems: 8, hit_cycles: 10 },
        CacheParams { sets: 1024, ways: 8, line_elems: 16, hit_cycles: 18 },
        CacheParams { sets: 512, ways: 1, line_elems: 4, hit_cycles: 2 },
    ] {
        let span = (params.capacity_elems() as u64 * 3) / 2;
        let mut addrs = Vec::with_capacity(1 << 20);
        let mut s = 0x1234_5678u64;
        let mut last = 0u64;
        for _ in 0..1 << 20 {
            let r = splitmix(&mut s);
            let addr = match r % 10 {
                0..=4 => last.wrapping_add(1) % span,
                5..=7 => last.wrapping_add(r >> 59) % span,
                _ => (r >> 16) % span,
            };
            last = addr;
            addrs.push(addr);
        }
        let mut fast = Cache::new(params);
        let mut reference = RefCache::new(params);
        let t0 = std::time::Instant::now();
        let mut h0 = 0u64;
        for _ in 0..8 {
            for &a in &addrs {
                h0 += fast.access(a) as u64;
            }
        }
        let t_fast = t0.elapsed();
        let t1 = std::time::Instant::now();
        let mut h1 = 0u64;
        for _ in 0..8 {
            for &a in &addrs {
                h1 += reference.access(a) as u64;
            }
        }
        let t_ref = t1.elapsed();
        assert_eq!(h0, h1);
        let hit_rate = h0 as f64 / (8.0 * addrs.len() as f64);
        println!(
            "{}x{}w: fast {:>8.1?}  ref {:>8.1?}  ({:.2}x, hit rate {:.2})",
            params.sets,
            params.ways,
            t_fast,
            t_ref,
            t_ref.as_secs_f64() / t_fast.as_secs_f64(),
            hit_rate
        );
    }
}

/// Stencil-shaped hierarchy timing (MGRID-like 27-point neighbourhoods
/// plus software prefetch) — compressed hierarchy vs the stamp-cache
/// composition. Ignored: wall-clock, not a gate.
#[test]
#[ignore]
fn bench_hierarchy_stencil() {
    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        let n = 64u64; // grid side
        let mut addrs: Vec<u64> = Vec::new();
        let plane = n * n;
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let c = k * plane + j * n + i;
                    for dk in [-1i64, 0, 1] {
                        for dj in [-1i64, 0, 1] {
                            for di in [-1i64, 0, 1] {
                                addrs.push(
                                    (c as i64 + dk * plane as i64 + dj * n as i64 + di) as u64,
                                );
                            }
                        }
                    }
                    // store to the result grid + prefetch ahead
                    addrs.push(2 * plane * n + c);
                    addrs.push(c + 2 * n); // stand-in prefetch target
                }
            }
        }
        let mut hier = Hierarchy::new(&spec);
        let t0 = std::time::Instant::now();
        let mut acc0 = 0u64;
        for _ in 0..4 {
            for &a in &addrs {
                acc0 += hier.access(a);
            }
        }
        let t_new = t0.elapsed();
        let mut r1 = RefCache::new(spec.l1);
        let mut r2 = RefCache::new(spec.l2);
        let t1 = std::time::Instant::now();
        let mut acc1 = 0u64;
        for _ in 0..4 {
            for &a in &addrs {
                acc1 += if r1.access(a) {
                    spec.l1.hit_cycles
                } else if r2.access(a) {
                    spec.l2.hit_cycles
                } else {
                    spec.mem_cycles
                };
            }
        }
        let t_ref = t1.elapsed();
        assert_eq!(acc0, acc1);
        println!(
            "{:?}: new {:>8.1?}  ref-compose {:>8.1?}  ({:.2}x)",
            spec.kind,
            t_new,
            t_ref,
            t_ref.as_secs_f64() / t_new.as_secs_f64()
        );
    }
}

/// A compressed cache and its stamp oracle, driven in lockstep.
struct Pair {
    fast: Cache,
    oracle: RefCache,
}

impl Pair {
    fn new(params: CacheParams) -> Self {
        Pair { fast: Cache::new(params), oracle: RefCache::new(params) }
    }

    fn access(&mut self, addr: u64) -> bool {
        let hit = self.fast.access(addr);
        assert_eq!(hit, self.oracle.access(addr), "compressed cache left its oracle");
        hit
    }

    fn flush(&mut self) {
        self.fast.flush();
        self.oracle.flush();
    }

    /// A random history: `n` accesses over three times the capacity,
    /// with a flush about every 500.
    fn scramble(&mut self, params: CacheParams, s: &mut u64, n: usize) {
        let span = (params.capacity_elems() as u64 * 3).max(64);
        for _ in 0..n {
            let r = splitmix(s);
            self.access((r >> 16) % span);
            if r.is_multiple_of(500) {
                self.flush();
            }
        }
    }
}

/// Address of line `tag` of `set` under `params`.
fn line_addr(params: CacheParams, set: u64, tag: u64) -> u64 {
    (tag * params.sets as u64 + set) * params.line_elems as u64
}

#[test]
fn recency_equal_caches_behave_identically() {
    let n = seeds().div_ceil(10);
    for params in geometries() {
        let ways = params.ways as u64;
        for seed in 0..n {
            let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
            // Per set: untouched, or k ≤ ways distinct lines from `first`.
            let plan: Vec<Option<(u64, u64)>> = (0..params.sets)
                .map(|_| {
                    let r = splitmix(&mut s);
                    (!r.is_multiple_of(3)).then(|| (1 + (r >> 8) % ways, (r >> 20) % 64))
                })
                .collect();
            // Different histories and flush generations; `b` also holds
            // junk in the sets the plan fills, so its lines land in
            // other physical ways than `a`'s.
            let (mut a, mut b) = (Pair::new(params), Pair::new(params));
            a.scramble(params, &mut s, 3000);
            b.scramble(params, &mut s, 1700);
            a.flush();
            a.flush();
            b.flush();
            for (set, p) in plan.iter().enumerate() {
                if let Some((k, _)) = *p {
                    if k == ways {
                        for j in 0..=(splitmix(&mut s) % ways) {
                            b.access(line_addr(params, set as u64, 100 + j));
                        }
                    }
                }
            }
            // The same touches on both: a set's lines and their LRU
            // order now follow from the plan alone.
            for pair in [&mut a, &mut b] {
                for (set, p) in plan.iter().enumerate() {
                    if let Some((k, first)) = *p {
                        for t in first..first + k {
                            pair.access(line_addr(params, set as u64, t));
                        }
                    }
                }
            }
            assert!(a.fast.recency_eq(&b.fast), "{params:?} seed {seed}: equal order");
            assert!(b.fast.recency_eq(&a.fast), "{params:?} seed {seed}: symmetric");
            // A changed recency order: re-touch the LRU line of a set
            // holding two or more (a hit that moves it to MRU), or, in a
            // direct-mapped cache, put another line in a filled set.
            let mut c = a.fast.clone();
            let two_or_more = plan
                .iter()
                .enumerate()
                .find_map(|(set, p)| p.filter(|&(k, _)| k >= 2).map(|(_, first)| (set, first)));
            match two_or_more {
                Some((set, first)) => assert!(c.access(line_addr(params, set as u64, first))),
                None => {
                    let set = plan.iter().position(Option::is_some).unwrap_or(0);
                    assert!(!c.access(line_addr(params, set as u64, 500)));
                }
            }
            assert!(!c.recency_eq(&a.fast), "{params:?} seed {seed}: changed order");
            // A stale generation: the very same words, one flush later.
            let mut stale = a.fast.clone();
            stale.flush();
            if plan.iter().any(Option::is_some) {
                assert!(!stale.recency_eq(&a.fast), "{params:?} seed {seed}: stale generation");
                assert!(!a.fast.recency_eq(&stale), "{params:?} seed {seed}: stale, other side");
            }
            // Same decisions from here on, on a seeded follow-on stream,
            // for both caches and both oracles (`Pair::access` checks
            // each against its oracle).
            let span = (params.capacity_elems() as u64 * 2).max(64);
            for i in 0..2000 {
                let addr = (splitmix(&mut s) >> 16) % span;
                assert_eq!(a.access(addr), b.access(addr), "{params:?} seed {seed} step {i}");
            }
            assert!(a.fast.recency_eq(&b.fast), "{params:?} seed {seed}: stay equal");
        }
    }
}

/// The machine-level comparison the run harness makes: a saved state
/// matches a machine that reached the same LRU order and predictor
/// table another way, and not one whose predictor moved.
#[test]
fn saved_timing_state_matches_recency_equal_machines() {
    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        let mut a = MachineState::noiseless(spec.clone());
        let mut b = MachineState::noiseless(spec.clone());
        let mut s = 99u64;
        for _ in 0..5000 {
            let _ = a.caches.access(splitmix(&mut s) % 200_000);
        }
        let _ = b.caches.access(123_456);
        b.caches.flush();
        // Every L2 set, then every L1 set, gets `ways` distinct lines in
        // the same order on both machines.
        for level in [spec.l2, spec.l1] {
            for set in 0..level.sets as u64 {
                for t in 0..level.ways as u64 {
                    let addr = line_addr(level, set, 1000 + t);
                    let _ = a.caches.access(addr);
                    let _ = b.caches.access(addr);
                }
            }
        }
        let mut saved = None;
        TimingState::save(&mut saved, &a);
        let saved = saved.unwrap();
        assert!(saved.matches(&b), "{:?}: recency-equal machines", spec.kind);
        let _ = b.predictor.mispredicted(5, true);
        assert!(!saved.matches(&b), "{:?}: predictor moved", spec.kind);
    }
}

#[test]
fn compressed_cache_matches_reference() {
    let n = seeds();
    for params in geometries() {
        for seed in 0..n {
            drive_stream(params, seed);
        }
    }
}

/// Post-flush state must be *identical*, not merely "both empty-ish":
/// after a flush both caches must produce the same decisions on a
/// stream that revisits pre-flush addresses.
#[test]
fn flush_resets_identically() {
    for params in geometries() {
        let mut fast = Cache::new(params);
        let mut reference = RefCache::new(params);
        let span = (params.capacity_elems() as u64 * 2).max(32);
        let mut s = 0xDEAD_BEEFu64;
        for round in 0..6 {
            for i in 0..600u64 {
                let addr = splitmix(&mut s) % span;
                assert_eq!(
                    fast.access(addr),
                    reference.access(addr),
                    "{params:?} round {round} step {i}"
                );
            }
            fast.flush();
            reference.flush();
            // Immediately-post-flush accesses must all miss in both.
            for i in 0..(params.ways as u64 + 2) {
                let addr = i * params.line_elems as u64;
                assert_eq!(
                    fast.access(addr),
                    reference.access(addr),
                    "{params:?} post-flush round {round}"
                );
            }
            assert_eq!(fast.stats(), reference.stats());
        }
    }
}

/// The two-level [`Hierarchy`] over compressed caches vs a plain
/// composition of two [`RefCache`] levels: per-access cycle costs and
/// both levels' hit/miss counters must be identical over streams heavy
/// in sequential element sweeps (the MRU fast-path pattern), with
/// prefetches and flushes mixed in.
#[test]
fn hierarchy_filter_matches_reference_composition() {
    let n = seeds().min(400);
    for spec in [MachineSpec::sparc_ii(), MachineSpec::pentium_iv()] {
        let span = (spec.l2.capacity_elems() as u64 * 2).max(256);
        for seed in 0..n {
            let mut hier = Hierarchy::new(&spec);
            let mut r1 = RefCache::new(spec.l1);
            let mut r2 = RefCache::new(spec.l2);
            let mut s = seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(3);
            let mut addr = 0u64;
            for i in 0..3000u64 {
                let r = splitmix(&mut s);
                addr = match r % 16 {
                    // Sequential element sweep — mostly same-line.
                    0..=9 => addr.wrapping_add(1) % span,
                    // Small stride.
                    10..=12 => addr.wrapping_add(spec.l1.line_elems as u64 / 2 + 1) % span,
                    // Far jump.
                    _ => (r >> 16) % span,
                };
                if r.is_multiple_of(71) {
                    let p = (r >> 24) % span;
                    hier.prefetch(p);
                    let _ = r1.access(p);
                    let _ = r2.access(p);
                } else if r.is_multiple_of(1327) {
                    hier.flush();
                    r1.flush();
                    r2.flush();
                }
                let want = if r1.access(addr) {
                    spec.l1.hit_cycles
                } else if r2.access(addr) {
                    spec.l2.hit_cycles
                } else {
                    spec.mem_cycles
                };
                assert_eq!(
                    hier.access(addr),
                    want,
                    "cycles diverged: {:?} seed {seed} step {i} addr {addr}",
                    spec.kind
                );
            }
            assert_eq!(hier.l1.stats(), r1.stats(), "{:?} seed {seed}", spec.kind);
            assert_eq!(hier.l2.stats(), r2.stats(), "{:?} seed {seed}", spec.kind);
        }
    }
}

/// Updates at a precomputed table index vs the hash-per-branch path over
/// seeded random (site, taken) streams, on power-of-two and other table
/// sizes: every prediction, the stats and the misprediction count agree.
#[test]
fn indexed_predictor_matches_hashed() {
    let n = seeds().min(500);
    for entries in [64usize, 512, 4096, 100] {
        for seed in 0..n {
            let mut hashed = BranchPredictor::new(entries);
            let mut indexed = BranchPredictor::new(entries);
            let mut s = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17);
            for i in 0..2000u64 {
                let r = splitmix(&mut s);
                let site = r % 61;
                // Mix of biased and flappy branches.
                let taken = if site.is_multiple_of(3) { r & 7 != 0 } else { r & 1 == 0 };
                assert_eq!(
                    indexed.mispredicted_at(BranchPredictor::index_for(entries, site), taken),
                    hashed.mispredicted(site, taken),
                    "entries {entries} seed {seed} step {i}"
                );
            }
            assert_eq!(hashed.stats(), indexed.stats(), "entries {entries} seed {seed}");
        }
    }
}
