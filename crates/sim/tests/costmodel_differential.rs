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
//!
//! `PEAK_COSTMODEL_SEEDS` scales the stream count (default 200; CI runs
//! 2000+).

use peak_sim::{BranchPredictor, Cache, CacheParams, Hierarchy, MachineSpec, RefCache};

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
