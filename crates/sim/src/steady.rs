//! Steady-state support: the parts of a [`MachineState`] that decide an
//! invocation's timing, compared across invocations.
//!
//! An invocation's cycles, cache hits and misses and predictor outcomes
//! follow from its control flow and addresses — fixed by its arguments
//! and the memory its timing reads — and from the cache and predictor
//! state it starts from. When an invocation leaves that state
//! [recency-equal](TimingState::matches) to the state it started from,
//! the next invocation with the same inputs does exactly what it did and
//! leaves the state recency-equal again. The run harness in `peak-core`
//! proves that condition with a [`TimingState`] saved before the
//! invocation and then [charges](MachineState::charge) the repeats from
//! the proven invocation's [`SimMetrics`] delta instead of simulating
//! them.

use crate::branch::BranchPredictor;
use crate::cache::Hierarchy;
use crate::exec::MachineState;
use crate::machine::MachineSpec;
use crate::metrics::SimMetrics;

/// A saved copy of a machine's caches and branch predictor.
#[derive(Debug, Clone)]
pub struct TimingState {
    caches: Hierarchy,
    predictor: BranchPredictor,
}

impl TimingState {
    /// Save `m`'s timing state into `slot`, reusing the buffers of a
    /// state already there (it must come from a machine of the same
    /// spec).
    pub fn save(slot: &mut Option<TimingState>, m: &MachineState) {
        match slot {
            Some(s) => {
                s.caches.l1.copy_from(&m.caches.l1);
                s.caches.l2.copy_from(&m.caches.l2);
                s.predictor.copy_from(&m.predictor);
            }
            None => {
                *slot = Some(TimingState {
                    caches: m.caches.clone(),
                    predictor: m.predictor.clone(),
                })
            }
        }
    }

    /// Whether `m`'s caches hold the same lines in the same LRU order as
    /// this saved state, set by set
    /// ([`Cache::recency_eq`](crate::Cache::recency_eq)), and its
    /// predictor the same counters. Physical way placement and the
    /// hit/miss and prediction counts are ignored: they decide nothing
    /// later.
    pub fn matches(&self, m: &MachineState) -> bool {
        self.predictor.table_eq(&m.predictor)
            && self.caches.l1.recency_eq(&m.caches.l1)
            && self.caches.l2.recency_eq(&m.caches.l2)
    }

    /// Words (8 bytes) a saved state copies on `spec`, each also read
    /// once by [`TimingState::matches`]: both cache levels' tags and
    /// per-set metadata, and the predictor table. Derived from the cache
    /// geometry, so it prices a snapshot on any machine.
    pub fn words(spec: &MachineSpec) -> u64 {
        let level = |c: &crate::CacheParams| {
            let lines = (c.sets * c.ways) as u64;
            // Tags, per-set metadata, and the explicit order bytes of
            // wider-than-8-way geometries.
            lines + c.sets as u64 + if c.ways > 8 { lines / 8 } else { 0 }
        };
        level(&spec.l1) + level(&spec.l2) + (spec.predictor_entries as u64).div_ceil(8)
    }
}

/// A mark of every cache and predictor access and flush so far: it
/// differs between two instants whenever anything touched the caches or
/// the predictor in between (an access bumps a hit/miss or prediction
/// count, a flush a generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingStamp([u64; 5]);

impl MachineState {
    /// This machine's [`TimingStamp`].
    pub fn timing_stamp(&self) -> TimingStamp {
        let accesses = |(h, m): (u64, u64)| h + m;
        let (correct, wrong) = self.predictor.stats();
        TimingStamp([
            accesses(self.caches.l1.stats()),
            accesses(self.caches.l2.stats()),
            correct + wrong,
            ((self.caches.l1.generation() as u64) << 32) | self.caches.l2.generation() as u64,
            self.predictor.flushes(),
        ])
    }

    /// Account one more invocation whose counters `delta` measured,
    /// without simulating it: its cycles and statements, its cache hits
    /// and misses per level, its correct and wrong predictions. The
    /// cache lines and predictor table are left as they are, so this is
    /// exact only for an invocation that would have left them
    /// recency-equal to how it found them. Fault counters are not
    /// charged (the fast path never runs with a fault plan).
    pub fn charge(&mut self, delta: &SimMetrics) {
        self.cycles += delta.cycles;
        self.instructions += delta.instructions;
        self.caches.l1.add_stats(delta.l1_hits, delta.l1_misses);
        self.caches.l2.add_stats(delta.l2_hits, delta.l2_misses);
        self.predictor
            .add_stats(delta.branch_correct, delta.branch_wrong);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_size_matches_the_geometry() {
        // SPARC-II: 512×1 + 512 L1 words, 2048×4 + 2048 L2 words, a
        // 512-entry predictor; Pentium-IV: 64×4 + 64, 1024×8 + 1024, 4096.
        assert_eq!(
            TimingState::words(&MachineSpec::sparc_ii()),
            1024 + 10_240 + 64
        );
        assert_eq!(
            TimingState::words(&MachineSpec::pentium_iv()),
            320 + 9_216 + 512
        );
    }

    #[test]
    fn stamp_sees_every_touch_and_charge_keeps_lines() {
        let mut m = MachineState::noiseless(MachineSpec::pentium_iv());
        let _ = m.caches.access(0);
        let s0 = m.timing_stamp();
        assert_eq!(m.timing_stamp(), s0, "reading changes nothing");
        let _ = m.predictor.mispredicted(3, true);
        assert_ne!(m.timing_stamp(), s0, "a prediction is a touch");
        let s1 = m.timing_stamp();
        m.caches.flush();
        assert_ne!(m.timing_stamp(), s1, "a flush is a touch");
        let s2 = m.timing_stamp();
        m.predictor.flush();
        assert_ne!(m.timing_stamp(), s2, "a predictor flush is a touch");

        let mut saved = None;
        TimingState::save(&mut saved, &m);
        let before = SimMetrics::snapshot(&m);
        let delta = SimMetrics {
            cycles: 7,
            instructions: 3,
            l1_hits: 2,
            l2_misses: 1,
            branch_wrong: 4,
            ..SimMetrics::default()
        };
        m.charge(&delta);
        assert_eq!(SimMetrics::snapshot(&m).delta(&before), delta);
        assert!(saved.unwrap().matches(&m), "charging moves no line");
    }
}
