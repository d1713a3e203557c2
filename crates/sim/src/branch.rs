//! Two-bit saturating-counter branch predictor with a direct-mapped table.
//! State persists across invocations within a run, so branch behaviour
//! learned on earlier invocations carries over — another source of
//! context-dependent timing the rating methods must cope with.

/// The predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    table: Vec<u8>, // 0..=3; >=2 predicts taken
    correct: u64,
    wrong: u64,
    /// `len - 1` when the table size is a power of two (every shipped
    /// machine spec): `hash & mask == hash % len` there, avoiding a
    /// 64-bit modulo per branch. Same index either way.
    mask: Option<usize>,
    /// [`BranchPredictor::flush`] calls so far (a flush resets the
    /// counts, so they alone cannot tell whether the table changed).
    flushes: u64,
}

impl BranchPredictor {
    /// Fresh predictor with `entries` two-bit counters, weakly not-taken.
    pub fn new(entries: usize) -> Self {
        let n = entries.max(1);
        let mask = n.is_power_of_two().then(|| n - 1);
        BranchPredictor { table: vec![1; n], correct: 0, wrong: 0, mask, flushes: 0 }
    }

    /// Table index `site` maps to in a table of `entries` counters — the
    /// same hash+fold [`BranchPredictor::mispredicted`] applies, exposed
    /// so callers that know their branch sites ahead of time (the
    /// pre-decode step, the jit lowering) can hash each site once instead
    /// of once per executed branch. `entries` must match the value the
    /// predictor was built with.
    #[inline(always)]
    pub fn index_for(entries: usize, site: u64) -> usize {
        let n = entries.max(1);
        let h = (site.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
        if n.is_power_of_two() {
            h & (n - 1)
        } else {
            h % n
        }
    }

    /// Predict + update for the branch identified by `site`; returns true
    /// if the prediction was wrong (charge the penalty).
    #[inline(always)]
    pub fn mispredicted(&mut self, site: u64, taken: bool) -> bool {
        let h = (site.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
        let idx = match self.mask {
            Some(m) => h & m,
            None => h % self.table.len(),
        };
        self.mispredicted_at(idx, taken)
    }

    /// [`BranchPredictor::mispredicted`] with a precomputed table index
    /// (from [`BranchPredictor::index_for`]): identical state evolution,
    /// no hash in the loop.
    #[inline(always)]
    pub fn mispredicted_at(&mut self, idx: usize, taken: bool) -> bool {
        let ctr = &mut self.table[idx];
        let predicted_taken = *ctr >= 2;
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        let wrong = predicted_taken != taken;
        if wrong {
            self.wrong += 1;
        } else {
            self.correct += 1;
        }
        wrong
    }

    /// Table size (two-bit counters).
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// (correct, wrong) counts.
    pub fn stats(&self) -> (u64, u64) {
        (self.correct, self.wrong)
    }

    /// Reset all counters to weakly-not-taken.
    pub fn flush(&mut self) {
        self.table.fill(1);
        self.correct = 0;
        self.wrong = 0;
        self.flushes += 1;
    }

    /// Whether both tables (same size) hold the same counters — the
    /// state that decides every later prediction. The correct/wrong
    /// counts are not compared.
    pub(crate) fn table_eq(&self, other: &BranchPredictor) -> bool {
        self.table == other.table
    }

    /// Overwrite this predictor's table and counts with `src`'s (same
    /// size), reusing the buffer.
    pub(crate) fn copy_from(&mut self, src: &BranchPredictor) {
        self.table.copy_from_slice(&src.table);
        self.correct = src.correct;
        self.wrong = src.wrong;
        self.flushes = src.flushes;
    }

    /// Count `correct` and `wrong` more predictions without making them.
    pub(crate) fn add_stats(&mut self, correct: u64, wrong: u64) {
        self.correct += correct;
        self.wrong += wrong;
    }

    /// Flushes so far.
    pub(crate) fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_branch() {
        let mut p = BranchPredictor::new(64);
        // Always-taken branch: after warmup, no mispredictions.
        let mut late_wrong = 0;
        for i in 0..100 {
            let wrong = p.mispredicted(42, true);
            if i >= 4 && wrong {
                late_wrong += 1;
            }
        }
        assert_eq!(late_wrong, 0);
    }

    #[test]
    fn loop_pattern_mispredicts_once_per_exit() {
        let mut p = BranchPredictor::new(64);
        // 10 iterations taken, then 1 not-taken, repeated.
        let mut wrong_total = 0;
        for _rep in 0..10 {
            for _ in 0..10 {
                if p.mispredicted(7, true) {
                    wrong_total += 1;
                }
            }
            if p.mispredicted(7, false) {
                wrong_total += 1;
            }
        }
        // ~1 mispredict per repetition (the exit), plus warmup.
        assert!(wrong_total <= 10 + 3, "wrong={wrong_total}");
        assert!(wrong_total >= 9);
    }

    #[test]
    fn random_branch_mispredicts_often() {
        let mut p = BranchPredictor::new(64);
        let mut wrong = 0;
        let mut x = 0x12345678u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if p.mispredicted(3, (x >> 40) & 1 == 1) {
                wrong += 1;
            }
        }
        assert!(wrong > 300, "alternating-ish pattern should hurt: {wrong}");
    }

    #[test]
    fn distinct_sites_tracked_separately() {
        let mut p = BranchPredictor::new(1024);
        for _ in 0..50 {
            p.mispredicted(1, true);
            p.mispredicted(2, false);
        }
        // Both learned: next predictions correct.
        assert!(!p.mispredicted(1, true));
        assert!(!p.mispredicted(2, false));
    }
}
