//! Set-associative data-cache simulation (two levels + memory).
//!
//! Addresses are element-granular (8-byte elements). Each program region
//! gets a disjoint address range; spill slots live in a dedicated stack
//! range. Cache state persists across TS invocations within a simulated
//! run — exactly the preconditioning effect that biases naive
//! re-execution-based rating and that the improved RBR's warm-up pass
//! corrects (paper §2.4.2).

use crate::machine::CacheParams;

/// Tag sentinel for an invalid cache line.
const EMPTY: u64 = u64::MAX;

/// Nibble-packed identity permutation: way `i` in nibble `i` (masked to
/// the live nibbles of a set's associativity).
const IDENT_PERM: u32 = 0x7654_3210;

/// One cache level with LRU replacement — the compressed representation.
///
/// Per set, the recency order lives in a *permutation word* instead of
/// per-line LRU stamps: nibble `k` of the low 32 bits of `meta[set]`
/// holds the way id at recency rank `k` (rank 0 = LRU, highest live
/// nibble = MRU), which covers every shipped geometry (ways ≤ 8; wider
/// caches fall back to an explicit byte order). The high 32 bits hold
/// the flush generation the set last observed, so [`Cache::flush`] is
/// one counter bump and a set lazily resets on its next access — no
/// per-line clears, and the hot path reads *one* metadata word per
/// access where the stamp scheme read and wrote a second cache line of
/// stamps.
///
/// ## Equivalence to the stamp oracle ([`RefCache`])
///
/// The stamp scheme evicts `min_by_key(stamp)`, breaking ties (which
/// only exist at stamp 0, i.e. never-touched ways) by lowest way index.
/// The permutation starts as the identity (way 0 first), a hit moves
/// its way to MRU preserving the relative order of the rest, and a miss
/// evicts the front nibble and rotates the victim to MRU — exactly the
/// order `min_by_key` + stamp-update induces, including the cold-start
/// tie-break. `costmodel_differential` pins hits, misses, evictions and
/// post-flush state against the oracle over thousands of seeded random
/// streams.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    /// tags[set * ways + way]; [`EMPTY`] marks an invalid line. A
    /// sentinel instead of `Option<u64>` halves the scanned bytes per
    /// lookup; real tags can never reach it (addresses are far below
    /// `2^63`). Contiguous per set — the hit scan is one
    /// SIMD-friendly stride of ≤ 8 × 8 bytes. Direct-mapped caches
    /// (ways == 1) store `(generation << 32) | tag` instead, so their
    /// access path never touches `meta` at all.
    tags: Vec<u64>,
    /// Per-set metadata: `(generation << 32) | lru_permutation`.
    meta: Vec<u64>,
    /// Explicit recency order (`order[base + k]` = way at rank `k`,
    /// rank 0 = LRU) for geometries wider than 8 ways; empty otherwise.
    order: Vec<u8>,
    /// Current flush generation; a set whose `meta` generation differs
    /// is logically empty and resets on first touch.
    gen: u32,
    /// Identity permutation masked to this associativity.
    ident: u32,
    hits: u64,
    misses: u64,
    /// Shift/mask form of the set/line arithmetic when the geometry is
    /// power-of-two (every shipped machine spec); `None` falls back to
    /// div/mod. Same mapping either way — this is a strength reduction
    /// of the hot path, not a policy change.
    pow2: Option<(u32, u64, u32)>,
}

impl Cache {
    /// Empty (cold) cache.
    pub fn new(params: CacheParams) -> Self {
        let n = params.sets * params.ways;
        let pow2 = pow2_geometry(&params);
        let ident = if params.ways >= 8 {
            IDENT_PERM
        } else {
            IDENT_PERM & ((1u32 << (4 * params.ways as u32)) - 1)
        };
        let order: Vec<u8> = if params.ways > 8 {
            (0..n).map(|i| (i % params.ways) as u8).collect()
        } else {
            Vec::new()
        };
        Cache {
            tags: vec![EMPTY; n],
            meta: vec![ident as u64; params.sets],
            order,
            gen: 0,
            ident,
            hits: 0,
            misses: 0,
            pow2,
            params,
        }
    }

    /// Access the line containing element address `addr`. Returns true on
    /// hit; on miss the line is filled.
    ///
    /// Only the *per-access common case* is inlined into callers: a
    /// single tag compare for direct-mapped sets, the MRU tag compare
    /// for multiway sets. Everything rarer — post-flush set resets,
    /// non-MRU hits, misses — lives in out-of-line helpers so the
    /// execution loops this inlines into (`run_func` and the
    /// interpreting tiers) keep their code footprint and register
    /// pressure flat.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = match self.pow2 {
            Some((line_shift, set_mask, set_shift)) => {
                let line = addr >> line_shift;
                ((line & set_mask) as usize, line >> set_shift)
            }
            None => {
                let line = addr / self.params.line_elems as u64;
                ((line % self.params.sets as u64) as usize, line / self.params.sets as u64)
            }
        };
        debug_assert_ne!(tag, EMPTY);
        let ways = self.params.ways;
        let gen_bits = (self.gen as u64) << 32;
        if ways == 1 {
            // Direct-mapped: the flush generation is folded into the
            // *stored tag word* (`(gen << 32) | tag`), so a flushed
            // line mismatches on the same single compare that detects
            // a conflict miss. One memory word per access, no
            // metadata at all — this is the only path a direct-mapped
            // L1 (SPARC-II) ever takes.
            debug_assert_eq!(tag >> 32, 0, "direct-mapped tag must leave the generation bits free");
            let want = gen_bits | tag;
            let t = &mut self.tags[set];
            return if *t == want {
                self.hits += 1;
                true
            } else {
                *t = want;
                self.misses += 1;
                false
            };
        }
        let base = set * ways;
        let meta = self.meta[set];
        if meta & (0xFFFF_FFFF << 32) != gen_bits {
            // First touch since a flush: the set is logically empty.
            return self.miss_cold_set(set, base, tag, gen_bits);
        }
        match ways {
            2 => {
                // Two-way: the permutation is a single LRU choice.
                let t = &mut self.tags[base..base + 2];
                if t[0] == tag || t[1] == tag {
                    let w = (t[1] == tag) as u64;
                    self.hits += 1;
                    self.meta[set] = gen_bits | (w << 4) | (1 - w);
                    true
                } else {
                    let v = meta & 0xF;
                    t[v as usize] = tag;
                    self.misses += 1;
                    self.meta[set] = gen_bits | (v << 4) | (1 - v);
                    false
                }
            }
            w @ 3..=8 => {
                let perm = meta & 0xFFFF_FFFF;
                let mru_shift = 4 * (w as u32 - 1);
                // Streaming accesses mostly re-hit the MRU way: one
                // tag compare, no recency update, no scan.
                let mru = ((perm >> mru_shift) & 0xF) as usize;
                if self.tags[base + mru] == tag {
                    self.hits += 1;
                    return true;
                }
                self.access_multi_slow(set, base, w, tag, gen_bits, perm)
            }
            _ => self.access_wide(base, tag),
        }
    }

    /// First touch of a set after a flush: lazily reset it, then fill
    /// the miss (a logically-empty set can only miss). Out of line —
    /// runs once per set per flush.
    #[cold]
    #[inline(never)]
    fn miss_cold_set(&mut self, set: usize, base: usize, tag: u64, gen_bits: u64) -> bool {
        let ways = self.params.ways;
        self.tags[base..base + ways].fill(EMPTY);
        if ways > 8 {
            for (i, o) in self.order[base..base + ways].iter_mut().enumerate() {
                *o = i as u8;
            }
            self.meta[set] = gen_bits | self.ident as u64;
            return self.access_wide(base, tag);
        }
        self.misses += 1;
        let ident = self.ident as u64;
        let mru_shift = 4 * (ways as u32 - 1);
        // Fresh identity order: the miss evicts rank-0 (way 0) and
        // rotates it to MRU, same as the generic miss path below.
        self.meta[set] = gen_bits | (ident >> 4) | ((ident & 0xF) << mru_shift);
        self.tags[base] = tag;
        false
    }

    /// Non-MRU access for the permutation-word geometries (3–8 ways):
    /// scan, O(1) rank splice on a hit, front-nibble eviction on a
    /// miss. Out of line: only the MRU compare belongs in the callers'
    /// hot loops (A/B'd against letting the inliner decide — the
    /// forced call kept `run_func`'s footprint flat and measured
    /// better on the full grid).
    #[inline(never)]
    fn access_multi_slow(
        &mut self,
        set: usize,
        base: usize,
        w: usize,
        tag: u64,
        gen_bits: u64,
        perm: u64,
    ) -> bool {
        let mru_shift = 4 * (w as u32 - 1);
        let lanes = &self.tags[base..base + w];
        if let Some(hw) = lanes.iter().position(|t| *t == tag) {
            self.hits += 1;
            let hw = hw as u64;
            // O(1) rank lookup: XOR the permutation against a
            // nibble-broadcast of the hit way — exactly one
            // live nibble zeroes out, and the borrow trick
            // flags the lowest zero nibble (false positives
            // can only appear above it, so `trailing_zeros`
            // lands on the true rank).
            let x = perm ^ hw.wrapping_mul(0x1111_1111);
            let zero = x.wrapping_sub(0x1111_1111) & !x & 0x8888_8888;
            let pos = zero.trailing_zeros() / 4;
            // Close the gap at `pos` (ranks above shift down
            // one nibble; relative order preserved) and insert
            // the hit way at MRU. `hw != mru` here (the MRU way was
            // already compared and set tags are distinct), so
            // `pos < w - 1`.
            let below = perm & ((1u64 << (4 * pos)) - 1);
            let above = (perm >> (4 * (pos + 1))) << (4 * pos);
            self.meta[set] = gen_bits | below | above | (hw << mru_shift);
            true
        } else {
            self.misses += 1;
            let victim = (perm & 0xF) as usize;
            // Evict the LRU (front nibble) and rotate the
            // victim way to MRU.
            self.meta[set] = gen_bits | (perm >> 4) | ((victim as u64) << mru_shift);
            self.tags[base + victim] = tag;
            false
        }
    }

    /// Wide-associativity fallback (> 8 ways): move-to-front LRU over
    /// explicit order bytes. No shipped machine spec takes this path.
    #[inline(never)]
    fn access_wide(&mut self, base: usize, tag: u64) -> bool {
        let ways = self.params.ways;
        let lanes = &self.tags[base..base + ways];
        if let Some(hw) = lanes.iter().position(|t| *t == tag) {
            self.hits += 1;
            let ord = &mut self.order[base..base + ways];
            let pos = ord
                .iter()
                .position(|&o| o as usize == hw)
                .expect("hit way present in recency order");
            ord[pos..].rotate_left(1);
            true
        } else {
            self.misses += 1;
            let ord = &mut self.order[base..base + ways];
            let victim = ord[0] as usize;
            ord.rotate_left(1);
            self.tags[base + victim] = tag;
            false
        }
    }

    /// Drop all lines (used between independent simulated runs).
    /// Generation-stamped: O(1) — sets reset lazily on next touch.
    pub fn flush(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrap (2^32 flushes): stale set metadata could
            // alias the fresh generation, so pay one hard reset.
            self.tags.fill(EMPTY);
            self.meta.fill(self.ident as u64);
            let ways = self.params.ways;
            for (i, o) in self.order.iter_mut().enumerate() {
                *o = (i % ways) as u8;
            }
        }
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Whether `self` and `other` — two caches of one geometry — hold
    /// the same lines in the same LRU order in every set: the state that
    /// decides every later hit, miss and eviction. Which physical way
    /// holds a line is not compared, nor are the hit/miss counters; a
    /// set whose flush generation is stale holds no lines.
    pub fn recency_eq(&self, other: &Cache) -> bool {
        assert_eq!(self.params, other.params, "recency_eq compares caches of one geometry");
        let ways = self.params.ways;
        (0..self.params.sets).all(|set| {
            let lanes = set * ways..(set + 1) * ways;
            let same_words = self.gen == other.gen
                && self.meta[set] == other.meta[set]
                && self.tags[lanes.clone()] == other.tags[lanes.clone()]
                && (ways <= 8 || self.order[lanes.clone()] == other.order[lanes]);
            same_words || (0..ways).all(|k| self.tag_at_rank(set, k) == other.tag_at_rank(set, k))
        })
    }

    /// The tag at recency rank `k` (0 = LRU) of `set`, [`EMPTY`] where
    /// the rank holds no line.
    fn tag_at_rank(&self, set: usize, k: usize) -> u64 {
        let ways = self.params.ways;
        let base = set * ways;
        let gen = self.gen as u64;
        if ways == 1 {
            let word = self.tags[base];
            return if word >> 32 == gen { word & 0xFFFF_FFFF } else { EMPTY };
        }
        if self.meta[set] >> 32 != gen {
            return EMPTY;
        }
        let way = if ways > 8 {
            self.order[base + k] as usize
        } else {
            ((self.meta[set] >> (4 * k)) & 0xF) as usize
        };
        self.tags[base + way]
    }

    /// Overwrite this cache's lines, recency order and counters with
    /// `src`'s (same geometry), reusing the buffers.
    pub(crate) fn copy_from(&mut self, src: &Cache) {
        assert_eq!(self.params, src.params, "copy_from copies caches of one geometry");
        self.tags.copy_from_slice(&src.tags);
        self.meta.copy_from_slice(&src.meta);
        self.order.copy_from_slice(&src.order);
        self.gen = src.gen;
        self.hits = src.hits;
        self.misses = src.misses;
    }

    /// Count `hits` and `misses` more accesses without making them.
    pub(crate) fn add_stats(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Flush generation (bumped by every [`Cache::flush`]).
    pub(crate) fn generation(&self) -> u32 {
        self.gen
    }
}

/// Shift/mask strength reduction of the set/line arithmetic for
/// power-of-two geometries.
fn pow2_geometry(params: &CacheParams) -> Option<(u32, u64, u32)> {
    (params.line_elems.is_power_of_two() && params.sets.is_power_of_two()).then(|| {
        (
            params.line_elems.trailing_zeros(),
            params.sets as u64 - 1,
            params.sets.trailing_zeros(),
        )
    })
}

/// The reference cache: per-line LRU stamps and a monotonic clock. This
/// is the original implementation, kept verbatim as the *oracle* for
/// the compressed [`Cache`] — `costmodel_differential` drives both with
/// identical address streams and requires identical hit/miss/eviction
/// behaviour and post-flush state. Not used on any hot path.
#[derive(Debug, Clone)]
pub struct RefCache {
    params: CacheParams,
    /// tags[set * ways + way]; [`EMPTY`] marks an invalid line.
    tags: Vec<u64>,
    /// LRU stamps, larger = more recent.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
    pow2: Option<(u32, u64, u32)>,
}

impl RefCache {
    /// Empty (cold) cache.
    pub fn new(params: CacheParams) -> Self {
        let n = params.sets * params.ways;
        let pow2 = pow2_geometry(&params);
        RefCache {
            params,
            tags: vec![EMPTY; n],
            stamps: vec![0; n],
            clock: 0,
            hits: 0,
            misses: 0,
            pow2,
        }
    }

    /// Access the line containing element address `addr`. Returns true on
    /// hit; on miss the line is filled.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = match self.pow2 {
            Some((line_shift, set_mask, set_shift)) => {
                let line = addr >> line_shift;
                ((line & set_mask) as usize, line >> set_shift)
            }
            None => {
                let line = addr / self.params.line_elems as u64;
                ((line % self.params.sets as u64) as usize, line / self.params.sets as u64)
            }
        };
        debug_assert_ne!(tag, EMPTY);
        let base = set * self.params.ways;
        if self.params.ways == 1 {
            // Direct-mapped fast path: one compare, no LRU state (the
            // stamps/clock only order ways and are unobservable).
            let t = &mut self.tags[base];
            if *t == tag {
                self.hits += 1;
                return true;
            }
            *t = tag;
            self.misses += 1;
            return false;
        }
        self.clock += 1;
        let ways = &mut self.tags[base..base + self.params.ways];
        if let Some(w) = ways.iter().position(|t| *t == tag) {
            self.stamps[base + w] = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Fill LRU way.
        let victim = (0..self.params.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("nonzero associativity");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        false
    }

    /// Drop all lines.
    pub fn flush(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// The two-level data-cache hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: Cache,
    /// L2 unified cache.
    pub l2: Cache,
    l1_hit: u64,
    l2_hit: u64,
    mem: u64,
}

impl Hierarchy {
    /// Cold hierarchy for a machine.
    pub fn new(spec: &crate::machine::MachineSpec) -> Self {
        Hierarchy {
            l1: Cache::new(spec.l1),
            l2: Cache::new(spec.l2),
            l1_hit: spec.l1.hit_cycles,
            l2_hit: spec.l2.hit_cycles,
            mem: spec.mem_cycles,
        }
    }

    /// Cycles for a data access at `addr` (read or write — writeback
    /// traffic is folded into the miss costs). Same-line streaming is
    /// absorbed inside [`Cache::access`]: the set's MRU tag is checked
    /// first and a re-hit skips the recency update. (A 1-entry
    /// line filter in front of the hierarchy was tried and reverted:
    /// stencil loops interleave several streams plus software
    /// prefetches, so it almost never fired and was pure overhead.)
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            self.l1_hit
        } else if self.l2.access(addr) {
            self.l2_hit
        } else {
            self.mem
        }
    }

    /// Prefetch: touch the line, charge nothing (the issue cost is charged
    /// by the executor as a statement). `inline(always)`: prefetch-heavy
    /// loops (`prefetch-loop-arrays`) execute this once per element.
    #[inline(always)]
    pub fn prefetch(&mut self, addr: u64) {
        let _ = self.l1.access(addr);
        let _ = self.l2.access(addr);
    }

    /// Flush both levels.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

/// Address layout: regions padded to disjoint ranges; the stack (spill
/// slots) in its own range.
#[derive(Debug, Clone)]
pub struct AddressMap {
    region_base: Vec<u64>,
    stack_base: u64,
}

/// Pad between regions, in elements — keeps regions from sharing lines
/// while still mapping into overlapping cache sets (realistic conflicts).
const REGION_PAD: u64 = 64;

impl AddressMap {
    /// Build from region lengths.
    pub fn new(region_lens: &[usize]) -> Self {
        let mut base = 0u64;
        let mut region_base = Vec::with_capacity(region_lens.len());
        for &len in region_lens {
            region_base.push(base);
            base += len as u64 + REGION_PAD;
        }
        AddressMap { region_base, stack_base: base + 4096 }
    }

    /// Element address of `mem[idx]`.
    #[inline]
    pub fn addr(&self, mem: peak_ir::MemId, idx: i64) -> u64 {
        self.region_base[mem.index()].wrapping_add(idx as u64)
    }

    /// Element address of spill slot `slot`.
    #[inline]
    pub fn spill_addr(&self, slot: u32) -> u64 {
        self.stack_base + slot as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheParams { sets: 16, ways: 2, line_elems: 4, hit_cycles: 1 });
        assert!(!c.access(0), "cold miss");
        assert!(c.access(0), "hit");
        assert!(c.access(3), "same line");
        assert!(!c.access(4), "next line misses");
        let (h, m) = c.stats();
        assert_eq!((h, m), (2, 2));
    }

    #[test]
    fn lru_eviction() {
        // 1 set × 2 ways × 1-elem lines: addresses 0, 16, 32 conflict.
        let mut c = Cache::new(CacheParams { sets: 1, ways: 2, line_elems: 1, hit_cycles: 1 });
        c.access(0);
        c.access(1);
        assert!(c.access(0), "still resident");
        c.access(2); // evicts 1 (LRU)
        assert!(!c.access(1), "1 was evicted");
    }

    #[test]
    fn hierarchy_latencies_ordered() {
        let spec = MachineSpec::pentium_iv();
        let mut h = Hierarchy::new(&spec);
        let miss = h.access(0);
        let hit = h.access(0);
        assert_eq!(miss, spec.mem_cycles);
        assert_eq!(hit, spec.l1.hit_cycles);
        // After L1 eviction the line should still be in L2 (L2 is bigger).
        let stride = (spec.l1.sets * spec.l1.line_elems) as u64;
        for k in 1..=(spec.l1.ways as u64 + 1) {
            h.access(k * stride); // conflict set 0
        }
        let l2 = h.access(0);
        assert_eq!(l2, spec.l2.hit_cycles);
    }

    #[test]
    fn working_set_behaviour() {
        // A working set within L1 capacity stays fast; a much larger one
        // keeps missing.
        let spec = MachineSpec::sparc_ii();
        let small = spec.l1.capacity_elems() / 2;
        let large = spec.l1.capacity_elems() * 8;
        let cost_of = |n: usize| {
            let mut h = Hierarchy::new(&spec);
            // two sweeps; measure the second.
            for i in 0..n {
                h.access(i as u64);
            }
            let mut total = 0;
            for i in 0..n {
                total += h.access(i as u64);
            }
            total as f64 / n as f64
        };
        assert!(cost_of(small) < 3.0);
        // Large set misses L1 on every new line: avg ≈ (l2_hit + (line-1)·l1_hit)/line.
        assert!(cost_of(large) > 3.5);
    }

    #[test]
    fn address_map_disjoint() {
        let m = AddressMap::new(&[100, 200, 50]);
        let a0 = m.addr(peak_ir::MemId(0), 99);
        let a1 = m.addr(peak_ir::MemId(1), 0);
        assert!(a1 > a0, "regions do not overlap");
        assert!(m.spill_addr(0) > m.addr(peak_ir::MemId(2), 49));
    }
}
