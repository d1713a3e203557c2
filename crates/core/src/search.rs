//! Search over the 2^38 optimization-flag space.
//!
//! Primary algorithm: **Iterative Elimination** (paper §5.2, citing the
//! authors' TR \[11\]): start from -O3, rate each enabled flag's removal
//! against the current base, remove the most harmful flag, repeat until
//! no removal helps. O(n²) ratings instead of 2^n. Exhaustive search
//! (small subspaces) is provided for the ablation benchmarks; the loops
//! themselves live in [`strategy`](crate::strategy).

use crate::consultant::Method;
use crate::rating::{rate_with, RateOptions, RateOutcome, TuningSetup};
use crate::sched::Pool;
use crate::strategy::{FrontierRater, IterativeElimination, SearchStrategy};
use peak_opt::{Flag, OptConfig};
use peak_util::{Json, ToJson};

/// Search outcome.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best configuration found (not serialized; `disabled_flags` is the
    /// report-friendly form).
    pub best: OptConfig,
    /// Flags disabled relative to -O3 (report-friendly).
    pub disabled_flags: Vec<String>,
    /// Rating method that produced the final decision.
    pub method: Method,
    /// Method switches that occurred (§3's fallback).
    pub switches: u32,
    /// Total candidate ratings performed.
    pub ratings: usize,
    /// Tuning cycles consumed (true cycles of all tuning runs).
    pub tuning_cycles: u64,
    /// Application runs used.
    pub runs: usize,
    /// TS invocations consumed.
    pub invocations: u64,
}

impl ToJson for SearchResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("disabled_flags", self.disabled_flags.to_json()),
            ("method", self.method.to_json()),
            ("switches", self.switches.to_json()),
            ("ratings", self.ratings.to_json()),
            ("tuning_cycles", self.tuning_cycles.to_json()),
            ("runs", self.runs.to_json()),
            ("invocations", self.invocations.to_json()),
        ])
    }
}

/// Live count of IE rounds executed (serial and parallel variants), fed
/// to the global metrics registry; handle cached so steady state is one
/// flag load + one `fetch_add`.
#[inline]
pub(crate) fn count_ie_round() {
    use std::sync::OnceLock;
    if !peak_obs::metrics::enabled() {
        return;
    }
    static ROUNDS: OnceLock<std::sync::Arc<peak_obs::Counter>> = OnceLock::new();
    ROUNDS
        .get_or_init(|| {
            peak_obs::MetricsRegistry::global()
                .counter("core.search.ie_rounds", "Iterative-elimination rounds executed")
        })
        .inc();
}

/// Minimum relative improvement for a flag removal to count (noise guard).
pub(crate) const MIN_GAIN: f64 = 1.012;
/// Round cap for Iterative Elimination: each round removes one flag, and
/// gains below [`MIN_GAIN`] stop the search anyway; the cap bounds tuning
/// cost when measurement noise keeps producing marginal "wins".
pub(crate) const MAX_IE_ROUNDS: usize = 10;

/// Iterative Elimination with the given (initial) rating method,
/// starting from -O3 (the paper's protocol).
pub fn iterative_elimination(setup: &mut TuningSetup<'_>, method: Method) -> SearchResult {
    iterative_elimination_from(setup, method, OptConfig::o3())
}

/// [`iterative_elimination`] from an explicit start configuration — the
/// serve daemon's knowledge-store warm start seeds the search with a
/// nearest-neighbour best config instead of -O3. With `start =
/// OptConfig::o3()` this is exactly [`iterative_elimination`].
///
/// Each round boundary is a cooperative cancellation point
/// ([`TuningSetup::check_cancel`]); with the default token this is
/// a no-op.
///
/// This is a thin wrapper: the IE loop lives in [`IterativeElimination`]
/// and runs on a [`FrontierRater::serial`] rater — the serial
/// interleaved rating protocol the Table 1 / Figure 7 goldens pin down,
/// with the paper's fallback policy and an unlimited compilation budget.
pub fn iterative_elimination_from(
    setup: &mut TuningSetup<'_>,
    method: Method,
    start: OptConfig,
) -> SearchResult {
    let strategy = IterativeElimination { start, max_rounds: MAX_IE_ROUNDS };
    let mut rater = FrontierRater::serial(setup, method);
    strategy.run(&mut rater)
}

/// Seed base for one (round, method-attempt) frontier; each candidate
/// job offsets by [`JOB_SEED_STRIDE`]. A rating call starts at most
/// [`MAX_RUNS_PER_RATING`](crate::rating) ≤ 60 runs (one seed increment
/// each), so strides of 1024 keep every job's run-seed range disjoint
/// and — more importantly — *fixed*, independent of scheduling.
pub(crate) fn frontier_seed_base(round: usize, attempt: usize) -> u64 {
    1 + ((round as u64 * 8 + attempt as u64) << 16)
}
const JOB_SEED_STRIDE: u64 = 1024;

/// Rate a candidate frontier with per-candidate parallel jobs: candidate
/// `j` is rated in its own forked scratch setup (deterministically
/// seeded from `seed_base + j·stride`) against a fresh measurement of
/// the base, and the outcomes are merged in candidate order. Returns
/// `None` when `method` is structurally inapplicable (mirrors
/// [`rate_with`], which each job calls with `opts`).
///
/// This is a *restructured* protocol, not a parallelization of the
/// serial one: serial rating interleaves all candidates inside shared
/// application runs (joint window picking, shared machine state), which
/// is inherently sequential. Decomposing per candidate re-measures the
/// base in every job (~2× the measurements on small frontiers) but
/// makes each job independent — so the merged result is bit-identical
/// at **any** thread count, which the differential tests pin down.
pub(crate) fn rate_frontier_parallel(
    setup: &mut TuningSetup<'_>,
    pool: &Pool,
    method: Method,
    base: OptConfig,
    candidates: &[OptConfig],
    seed_base: u64,
    opts: &RateOptions,
) -> Option<RateOutcome> {
    match method {
        Method::Cbr if setup.consult.cbr.is_none() => return None,
        Method::Mbr if setup.consult.mbr.is_none() => return None,
        _ => {}
    }
    struct JobResult {
        improvement: f64,
        var: f64,
        unconverged: usize,
        samples: usize,
        trimmed: usize,
        dropouts: u64,
        crashes: u64,
        tuning_cycles: u64,
        runs_used: usize,
        invocations_used: u64,
    }
    let results: Vec<JobResult> = {
        let shared: &TuningSetup<'_> = setup;
        pool.map(candidates.len(), |j| {
            let mut scratch = shared.fork_for_job(seed_base + j as u64 * JOB_SEED_STRIDE);
            let out = rate_with(&mut scratch, method, base, &[candidates[j]], opts)
                .expect("applicability checked before fan-out");
            JobResult {
                improvement: out.improvements[0],
                var: out.vars[0],
                unconverged: out.unconverged,
                samples: out.samples,
                trimmed: out.trimmed,
                dropouts: out.dropouts,
                crashes: out.crashes,
                tuning_cycles: scratch.tuning_cycles,
                runs_used: scratch.runs_used,
                invocations_used: scratch.invocations_used,
            }
        })
    };
    // Merge in candidate order (the pool already returns index-ordered
    // results; the fold below keeps the canonical order explicit).
    let mut merged = RateOutcome {
        improvements: Vec::with_capacity(candidates.len()),
        vars: Vec::with_capacity(candidates.len()),
        unconverged: 0,
        method,
        samples: 0,
        trimmed: 0,
        dropouts: 0,
        crashes: 0,
    };
    for r in &results {
        merged.improvements.push(r.improvement);
        merged.vars.push(r.var);
        merged.unconverged += r.unconverged;
        merged.samples += r.samples;
        merged.trimmed += r.trimmed;
        merged.dropouts += r.dropouts;
        merged.crashes += r.crashes;
        setup.tuning_cycles += r.tuning_cycles;
        setup.runs_used += r.runs_used;
        setup.invocations_used += r.invocations_used;
    }
    Some(merged)
}

/// Exhaustive search over a small flag subset (all other flags stay on).
/// 2^k ratings, rated as one frontier on a [`FrontierRater::serial`]
/// rater — only for ablation studies on ≤ 12 flags.
pub fn exhaustive(setup: &mut TuningSetup<'_>, method: Method, flags: &[Flag]) -> SearchResult {
    assert!(flags.len() <= 12, "exhaustive search is 2^k");
    let base = OptConfig::o3();
    let mut candidates = Vec::new();
    for mask in 1u64..(1 << flags.len()) {
        let mut cfg = base;
        for (i, &f) in flags.iter().enumerate() {
            if mask & (1 << i) != 0 {
                cfg = cfg.without(f);
            }
        }
        candidates.push(cfg);
    }
    let mut rater = FrontierRater::serial(setup, method);
    let fo = rater.rate(base, &candidates).expect("an unlimited budget rates every frontier");
    let besti = (0..candidates.len())
        .max_by(|&a, &b| fo.out.improvements[a].total_cmp(&fo.out.improvements[b]));
    let best = match besti {
        Some(i) if fo.out.improvements[i] >= MIN_GAIN => candidates[i],
        _ => base,
    };
    rater.finish(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::MachineSpec;
    use peak_workloads::{art::ArtMatch, Dataset};

    #[test]
    fn ie_on_art_p4_disables_strict_aliasing() {
        // The paper's marquee result: on Pentium IV, tuning ART discovers
        // that turning off strict aliasing is a large win.
        let w = ArtMatch::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::pentium_iv(), Dataset::Train);
        let result = iterative_elimination(&mut setup, Method::Rbr);
        assert!(
            result.disabled_flags.iter().any(|f| f == "strict-aliasing"),
            "IE must turn off strict aliasing on P4: {:?}",
            result.disabled_flags
        );
        assert!(result.ratings >= 38, "at least one IE round");
    }

    #[test]
    fn ie_on_art_sparc_keeps_strict_aliasing() {
        let w = ArtMatch::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let result = iterative_elimination(&mut setup, Method::Rbr);
        assert!(
            !result.disabled_flags.iter().any(|f| f == "strict-aliasing"),
            "SPARC II tolerates the pressure: {:?}",
            result.disabled_flags
        );
    }
}
