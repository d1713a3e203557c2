//! Search over the 2^38 optimization-flag space.
//!
//! The paper's search is **Iterative Elimination** (§5.2, citing the
//! authors' TR \[11\]): start from -O3, rate each enabled flag's removal
//! against the current base, remove the most harmful flag, repeat until
//! no removal helps — O(n²) ratings instead of 2^n. It is one point in a
//! larger design space: genetic flag search (FOGA) and cluster-then-tune
//! approaches (multiple-phase learning) spend the same compilation budget
//! differently, biased random search is their equal-budget baseline, and
//! exhaustive search over a small subspace serves the ablations. Every
//! search drives a [`FrontierRater`] — frontier rating with the §3 method
//! fallback, compile pre-warming through the shared
//! [`VersionCache`](crate::version_cache::VersionCache), deterministic
//! per-candidate parallelism and a central [`CompilationBudget`], so
//! strategies can be compared at equal compile counts — and each search
//! decision has one definition here:
//!
//! * the winner rule, [`FrontierOutcome::winner`]: the best-rated
//!   candidate when it clears the `MIN_GAIN` noise guard (1.2%);
//! * the IE round, which serial and pooled IE, the checkpointing
//!   [`Tuner`](crate::tuner::Tuner) and both phases of phase-clustered IE
//!   run;
//! * the closing verification round of GA and phase-clustered IE;
//! * the thinned -O3 sampler behind GA's first population, clustered IE's
//!   probe bases and random search.
//!
//! # Determinism doctrine
//!
//! Every strategy must be **bit-identical at any thread count**. The
//! rater guarantees this for the rating side (per-candidate jobs are
//! seeded from the frontier round and merged in candidate order; see
//! `rate_frontier_parallel`); strategies guarantee it for their own
//! decisions by drawing all randomness from [`SplitMix64`] seeded off the
//! job seed — never from thread timing, never from `std` hash iteration
//! order. Float comparisons use `total_cmp`, and every tie has a fixed
//! break: the winner rule takes the last of equal improvements, GA
//! selection the lowest population index.
//!
//! # Budget semantics
//!
//! [`CompilationBudget`] counts **unique configurations**, mirroring the
//! process-wide version cache: rating a configuration that was already
//! charged (a cache hit, or an in-flight coalesced compile) is free.
//! The budget is charged *before* compilation, in candidate order, so
//! the affordable prefix — and therefore every downstream decision — is
//! independent of thread count. A configuration's instrumented twin
//! (MBR's component-counting build) rides on the same charge: the
//! budget models "distinct optimization decisions paid for", not object
//! files.

use crate::consultant::Method;
use crate::degrade::RatingSupervisor;
use crate::rating::{rate_with, RateOptions, RateOutcome, TuningSetup};
use crate::sched::Pool;
use peak_obs::event;
use peak_opt::{Flag, OptConfig, ALL_FLAGS, NUM_FLAGS};
use peak_util::{Json, ToJson};
use std::collections::HashSet;

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

/// Minimum relative improvement for a flag removal to count (noise guard).
pub(crate) const MIN_GAIN: f64 = 1.012;
/// Round cap for Iterative Elimination: each round removes one flag, and
/// gains below [`MIN_GAIN`] stop the search anyway; the cap bounds tuning
/// cost when measurement noise keeps producing marginal "wins".
pub(crate) const MAX_IE_ROUNDS: usize = 10;

/// Live count of IE rounds executed (every variant), fed to the global
/// metrics registry; handle cached so steady state is one flag load + one
/// `fetch_add`.
#[inline]
fn count_ie_round() {
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

/// Deterministic 64-bit PRNG (splitmix64). Small, fast, and — unlike a
/// vendored `StdRng` — guaranteed stable across dependency bumps, which
/// the replayability doctrine requires: a strategy seed recorded in a
/// bench artifact must reproduce the identical search forever.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// New generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value. Not the `Iterator` protocol — draws are
    /// infinite and infallible, so an `Option` wrapper would only
    /// obscure the seed-exact trajectory.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n = 0` yields 0). The modulo bias is
    /// irrelevant here — draws pick tournament entrants and probe bits,
    /// not statistics — and the integer form keeps results exact.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    /// Bernoulli draw with integer per-mille probability (`350` = 35%).
    /// Integer thresholds avoid float rounding drift across platforms.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// -O3 with each flag independently off with `off_per_mille`/1000
/// probability: GA's first population, clustered IE's probe bases and
/// random search's samples. Draws one `chance` per flag in bit order, so
/// the sample is seed-exact.
fn thinned_o3(rng: &mut SplitMix64, off_per_mille: u64) -> OptConfig {
    let mut cfg = OptConfig::o3();
    for f in ALL_FLAGS {
        if rng.chance(off_per_mille) {
            cfg = cfg.without(f);
        }
    }
    cfg
}

/// Central compilation budget shared by all strategies in a shoot-out.
///
/// Counts *unique* configurations (by flag-word bits): re-rating a
/// config the search already paid for is free, exactly as the
/// process-wide version cache makes its recompilation free. See the
/// module docs for why instrumented twins don't charge separately.
#[derive(Debug, Clone)]
pub struct CompilationBudget {
    limit: Option<usize>,
    spent: usize,
    seen: HashSet<u64>,
}

impl CompilationBudget {
    /// A budget that never exhausts (used by the plain IE entry points).
    pub fn unlimited() -> Self {
        CompilationBudget { limit: None, spent: 0, seen: HashSet::new() }
    }

    /// A budget of `n` unique configurations.
    pub fn limited(n: usize) -> Self {
        CompilationBudget { limit: Some(n), spent: 0, seen: HashSet::new() }
    }

    /// Unique configurations charged so far.
    pub fn spent(&self) -> usize {
        self.spent
    }

    /// Remaining headroom (`None` = unlimited).
    pub fn remaining(&self) -> Option<usize> {
        self.limit.map(|l| l.saturating_sub(self.spent))
    }

    /// Charge one configuration. Returns `false` iff it is *new* and the
    /// budget cannot afford it (already-seen configs always succeed).
    pub fn charge_one(&mut self, cfg: OptConfig) -> bool {
        if self.seen.contains(&cfg.bits()) {
            return true;
        }
        if let Some(l) = self.limit {
            if self.spent >= l {
                return false;
            }
        }
        self.seen.insert(cfg.bits());
        self.spent += 1;
        true
    }

    /// Charge configurations in order; returns the length of the
    /// affordable prefix. Stops at the first *new* config that does not
    /// fit, so by construction `spent ≤ limit` always holds — a strategy
    /// can overshoot by at most the check itself, never by a compile.
    pub fn charge(&mut self, cfgs: &[OptConfig]) -> usize {
        for (i, &c) in cfgs.iter().enumerate() {
            if !self.charge_one(c) {
                return i;
            }
        }
        cfgs.len()
    }
}

impl Default for CompilationBudget {
    fn default() -> Self {
        CompilationBudget::unlimited()
    }
}

/// How a [`FrontierRater`] measures a candidate frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatingProtocol {
    /// The paper's serial interleaved protocol: all candidates share
    /// application runs (joint window picking, shared machine state).
    /// This is what the Table 1 / Figure 7 goldens pin down.
    Serial,
    /// Per-candidate decomposition: every candidate rated in its own
    /// deterministically seeded scratch setup, merged in candidate
    /// order — bit-identical at any thread count.
    PerCandidate,
}

/// One frontier rating's outcome, as seen by a strategy.
#[derive(Debug, Clone)]
pub struct FrontierOutcome {
    /// Merged rating outcome; `improvements[i]` aligns with the
    /// candidate slice's first [`FrontierOutcome::rated`] entries.
    pub out: RateOutcome,
    /// Method that produced the final decision (after §3 fallback).
    pub method: Method,
    /// Number of candidates actually rated (≤ the slice length when the
    /// budget truncated the frontier).
    pub rated: usize,
    /// Whether the budget cut the frontier short — the strategy should
    /// wind down to its best-so-far.
    pub truncated: bool,
}

impl FrontierOutcome {
    /// The rated candidate with the largest improvement (the last of
    /// equal improvements), as `(index, improvement)`; `None` when
    /// nothing was rated.
    pub fn best(&self) -> Option<(usize, f64)> {
        let imp = &self.out.improvements;
        (0..self.rated).max_by(|&a, &b| imp[a].total_cmp(&imp[b])).map(|i| (i, imp[i]))
    }

    /// The search's one winner rule: [`FrontierOutcome::best`] when its
    /// improvement clears the `MIN_GAIN` noise guard (1.2%).
    pub fn winner(&self) -> Option<(usize, f64)> {
        self.best().filter(|&(_, gain)| gain >= MIN_GAIN)
    }
}

/// A rater's search-wide accounting: frontier rounds, candidate
/// ratings, the method behind the latest decision, and the §3 walk with
/// its policy and log. Kept apart from the borrowed setup so a
/// checkpointing driver ([`Tuner`](crate::tuner::Tuner)) can hold it
/// between steps.
#[derive(Debug, Clone)]
pub(crate) struct RaterAccounting {
    /// Frontier rounds rated so far (also the per-candidate seed counter).
    pub(crate) round: usize,
    /// Candidate ratings performed.
    pub(crate) ratings: usize,
    /// Method that produced the most recent decision.
    pub(crate) last_method: Method,
    /// The fallback walk and its switch count / degradation log.
    pub(crate) supervisor: RatingSupervisor,
}

impl RaterAccounting {
    /// Fresh accounting for a search preferring `method`.
    pub(crate) fn new(method: Method, supervisor: RatingSupervisor) -> Self {
        RaterAccounting { round: 0, ratings: 0, last_method: method, supervisor }
    }

    /// The uniform [`SearchResult`] for `best`, with the setup's run
    /// accounting.
    pub(crate) fn result(&self, best: OptConfig, setup: &TuningSetup<'_>) -> SearchResult {
        SearchResult {
            best,
            disabled_flags: best.disabled_flags().iter().map(|f| f.name().to_string()).collect(),
            method: self.last_method,
            switches: self.supervisor.switches(),
            ratings: self.ratings,
            tuning_cycles: setup.tuning_cycles,
            runs: setup.runs_used,
            invocations: setup.invocations_used,
        }
    }
}

/// The shared engine all strategies drive: frontier pre-warming through
/// the version cache, the §3 method fallback (a [`RatingSupervisor`]
/// walk, the paper policy unless a driver installs another), budget
/// charging, and the rating-protocol choice. Owns the search-wide
/// accounting so [`FrontierRater::finish`] can assemble a
/// [`SearchResult`] uniformly.
pub struct FrontierRater<'a, 'w> {
    setup: &'a mut TuningSetup<'w>,
    pool: Pool,
    protocol: RatingProtocol,
    method: Method,
    budget: CompilationBudget,
    acct: RaterAccounting,
}

impl<'a, 'w> FrontierRater<'a, 'w> {
    /// Serial-protocol rater on the setup's existing pool (which only
    /// pre-warms compiles; rating itself stays interleaved). This is the
    /// goldens-compatible configuration.
    pub fn serial(setup: &'a mut TuningSetup<'w>, method: Method) -> Self {
        let pool = setup.pool().clone();
        Self::with_protocol(setup, pool, RatingProtocol::Serial, method)
    }

    /// Per-candidate-protocol rater: installs `pool` on the setup (so
    /// warm-ups parallelize) and rates every frontier with one job per
    /// candidate. Bit-identical at any `pool` size.
    pub fn pooled(setup: &'a mut TuningSetup<'w>, pool: Pool, method: Method) -> Self {
        setup.set_pool(pool.clone());
        Self::with_protocol(setup, pool, RatingProtocol::PerCandidate, method)
    }

    fn with_protocol(
        setup: &'a mut TuningSetup<'w>,
        pool: Pool,
        protocol: RatingProtocol,
        method: Method,
    ) -> Self {
        let budget = CompilationBudget::unlimited();
        let acct = RaterAccounting::new(method, RatingSupervisor::paper());
        FrontierRater { setup, pool, protocol, method, budget, acct }
    }

    /// Replace the (default unlimited) budget.
    pub fn with_budget(mut self, budget: CompilationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Continue from `acct` (a checkpointing driver's saved accounting,
    /// fallback policy included) instead of fresh paper-policy
    /// accounting.
    pub(crate) fn with_accounting(mut self, acct: RaterAccounting) -> Self {
        self.acct = acct;
        self
    }

    /// The accounting to carry into the next rater.
    pub(crate) fn into_accounting(self) -> RaterAccounting {
        self.acct
    }

    /// Rate a candidate frontier against `base`. Charges the budget
    /// (base first, then candidates in order), pre-warms the affordable
    /// frontier, walks the §3 cascade with the protocol's rating call
    /// (serial `rate_with`, or one job per candidate), and accumulates
    /// the search-wide accounting. Returns `None` when the budget cannot
    /// afford the base or a single candidate — the strategy should
    /// return its best-so-far.
    pub fn rate(&mut self, base: OptConfig, candidates: &[OptConfig]) -> Option<FrontierOutcome> {
        let round = self.acct.round;
        self.acct.round += 1;
        if !self.budget.charge_one(base) {
            return None;
        }
        let afford = self.budget.charge(candidates);
        if afford == 0 {
            return None;
        }
        let truncated = afford < candidates.len();
        let candidates = &candidates[..afford];
        // Pre-compile the round's frontier through the shared version
        // cache. Compilation is pure and cached, so this cannot change a
        // rated cycle — it only moves compile work off the rating path.
        let mut warm: Vec<OptConfig> = candidates.to_vec();
        warm.push(base);
        self.setup.warm_frontier(&warm, matches!(self.method, Method::Mbr));
        let (out, used) = match self.protocol {
            RatingProtocol::Serial => {
                self.acct.supervisor.rate(self.setup, self.method, base, candidates)
            }
            RatingProtocol::PerCandidate => {
                let pool = &self.pool;
                let n = candidates.len();
                self.acct.supervisor.walk(self.setup, self.method, n, |setup, m, attempt, opts| {
                    // `frontier_seed_base` reserves 8 attempt slots per
                    // round; only the paper policy (no retries, at most 3
                    // methods) runs this protocol.
                    debug_assert!(attempt < 8, "attempt {attempt} overruns the round's seed slots");
                    let seed = frontier_seed_base(round, attempt);
                    rate_frontier_parallel(setup, pool, m, base, candidates, seed, opts)
                })
            }
        };
        self.acct.last_method = used;
        self.acct.ratings += candidates.len();
        Some(FrontierOutcome { out, method: used, rated: candidates.len(), truncated })
    }

    /// Cooperative cancellation point (see [`TuningSetup::check_cancel`]).
    pub fn check_cancel(&self) {
        self.setup.check_cancel();
    }

    /// The setup's tracer (for strategy-level events).
    pub fn tracer(&self) -> &peak_obs::Tracer {
        self.setup.tracer()
    }

    /// Cumulative §3 method switches.
    pub fn switches(&self) -> u32 {
        self.acct.supervisor.switches()
    }

    /// Unique configurations charged so far.
    pub fn spent(&self) -> usize {
        self.budget.spent()
    }

    /// The budget's remaining headroom (`None` = unlimited).
    pub fn remaining(&self) -> Option<usize> {
        self.budget.remaining()
    }

    /// Assemble the uniform [`SearchResult`] for `best`.
    pub fn finish(&self, best: OptConfig) -> SearchResult {
        self.acct.result(best, self.setup)
    }
}

/// Seed base for one (round, method-attempt) frontier; each candidate
/// job offsets by [`JOB_SEED_STRIDE`]. A rating call starts at most
/// [`MAX_RUNS_PER_RATING`](crate::rating) ≤ 60 runs (one seed increment
/// each), so strides of 1024 keep every job's run-seed range disjoint
/// and — more importantly — *fixed*, independent of scheduling.
fn frontier_seed_base(round: usize, attempt: usize) -> u64 {
    1 + ((round as u64 * 8 + attempt as u64) << 16)
}
const JOB_SEED_STRIDE: u64 = 1024;

/// Rate a candidate frontier with per-candidate parallel jobs: candidate
/// `j` is rated in its own forked scratch setup (deterministically
/// seeded from `seed_base + j·stride`) against a fresh measurement of
/// the base, and the outcomes and run accounting are merged in candidate
/// order. Returns `None` when `method` is structurally inapplicable
/// (mirrors [`rate_with`], which each job calls with `opts`).
///
/// This is a *restructured* protocol, not a parallelization of the
/// serial one: serial rating interleaves all candidates inside shared
/// application runs (joint window picking, shared machine state), which
/// is inherently sequential. Decomposing per candidate re-measures the
/// base in every job (~2× the measurements on small frontiers) but
/// makes each job independent — so the merged result is bit-identical
/// at **any** thread count, which the differential tests pin down.
fn rate_frontier_parallel(
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
    let jobs = {
        let shared: &TuningSetup<'_> = setup;
        pool.map(candidates.len(), |j| {
            let mut scratch = shared.fork_for_job(seed_base + j as u64 * JOB_SEED_STRIDE);
            let out = rate_with(&mut scratch, method, base, &[candidates[j]], opts)
                .expect("applicability checked before fan-out");
            (out, scratch)
        })
    };
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
    // The pool returns results in job order, so the fold is in candidate
    // order at any thread count.
    for (out, scratch) in &jobs {
        merged.improvements.extend(&out.improvements);
        merged.vars.extend(&out.vars);
        merged.unconverged += out.unconverged;
        merged.samples += out.samples;
        merged.trimmed += out.trimmed;
        merged.dropouts += out.dropouts;
        merged.crashes += out.crashes;
        setup.absorb_scratch(scratch);
    }
    Some(merged)
}

/// A search strategy over the flag space, driven through a
/// [`FrontierRater`]. Implementations must be deterministic functions of
/// (workload, machine, method, seed, budget) — thread count must never
/// leak into the result (the differential suite enforces this).
pub trait SearchStrategy {
    /// Run the search to completion (or budget exhaustion) and return
    /// the best configuration found, with uniform accounting.
    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult;
}

/// The paper's Iterative Elimination, expressed over the rater. With a
/// [`RatingProtocol::Serial`] rater and an unlimited budget this is the
/// search the Table 1 / Figure 7 goldens pin; with a pooled rater it is
/// the per-candidate frontier search. The checkpointing
/// [`Tuner`](crate::tuner::Tuner) drives the same round one at a time,
/// and phase-clustered IE runs it over subsets of the flags.
#[derive(Debug, Clone)]
pub struct IterativeElimination {
    /// Start configuration (O3 is the paper's protocol; the serve
    /// daemon's warm start supplies a nearest-neighbour config).
    pub start: OptConfig,
    /// Round cap (each round removes at most one flag).
    pub max_rounds: usize,
}

impl Default for IterativeElimination {
    fn default() -> Self {
        IterativeElimination { start: OptConfig::o3(), max_rounds: MAX_IE_ROUNDS }
    }
}

/// Iterative Elimination's resumable state between rounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IeState {
    /// Current base configuration (the best found so far).
    pub(crate) base: OptConfig,
    /// Rounds rated so far.
    pub(crate) round: usize,
    /// Whether the search has ended.
    pub(crate) done: bool,
    /// Whether the compilation budget ended it.
    pub(crate) exhausted: bool,
}

impl IeState {
    /// State before the first round from `start`.
    pub(crate) fn new(start: OptConfig) -> Self {
        IeState { base: start, round: 0, done: false, exhausted: false }
    }
}

impl IterativeElimination {
    /// One round: rate the removal of each flag of `flags` still enabled
    /// in `state.base`, in `flags` order, and make the removal
    /// [`FrontierOutcome::winner`] names. The search ends when no removal
    /// wins, when none of `flags` is left, at the round cap, or when the
    /// budget runs out (which also sets `state.exhausted`). Returns the
    /// improvement of the removal made.
    pub(crate) fn step(
        &self,
        rater: &mut FrontierRater<'_, '_>,
        state: &mut IeState,
        flags: &[Flag],
    ) -> Option<f64> {
        if state.done || state.round >= self.max_rounds {
            state.done = true;
            return None;
        }
        rater.check_cancel();
        count_ie_round();
        let live: Vec<Flag> = flags.iter().copied().filter(|&f| state.base.enabled(f)).collect();
        if live.is_empty() {
            state.done = true;
            return None;
        }
        let candidates: Vec<OptConfig> = live.iter().map(|&f| state.base.without(f)).collect();
        let Some(fo) = rater.rate(state.base, &candidates) else {
            state.done = true;
            state.exhausted = true;
            return None;
        };
        let removed = fo.winner();
        event!(
            rater.tracer(),
            "search.round",
            round = state.round as u64,
            method = fo.method.name(),
            best_improvement = fo.best().map_or(1.0, |(_, gain)| gain),
            removed_flag = removed.map(|(i, _)| live[i].name()),
            switches = rater.switches() as u64,
        );
        state.round += 1;
        state.exhausted = fo.truncated;
        state.done = removed.is_none() || fo.truncated || state.round >= self.max_rounds;
        let (i, gain) = removed?;
        state.base = candidates[i];
        Some(gain)
    }
}

impl SearchStrategy for IterativeElimination {
    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let mut state = IeState::new(self.start);
        while !state.done {
            self.step(rater, &mut state, &ALL_FLAGS);
        }
        rater.finish(state.base)
    }
}

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
/// a no-op. The search runs on a [`FrontierRater::serial`] rater — the
/// serial interleaved rating protocol the Table 1 / Figure 7 goldens pin
/// down, with the paper's fallback policy and an unlimited compilation
/// budget.
pub fn iterative_elimination_from(
    setup: &mut TuningSetup<'_>,
    method: Method,
    start: OptConfig,
) -> SearchResult {
    let strategy = IterativeElimination { start, max_rounds: MAX_IE_ROUNDS };
    strategy.run(&mut FrontierRater::serial(setup, method))
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
    let best = fo.winner().map_or(base, |(i, _)| candidates[i]);
    rater.finish(best)
}

/// Finalists re-rated in the closing verification round of GA and
/// phase-clustered IE.
pub const FINALISTS: usize = 8;

/// Record `cfg` with its rated improvement in a contender list, keeping
/// the best rating seen per distinct configuration. Strictly-greater
/// updates keep the earliest rating on exact ties, so the list order is
/// a pure function of the rating sequence.
fn track_contender(contenders: &mut Vec<(f64, OptConfig)>, impr: f64, cfg: OptConfig) {
    match contenders.iter_mut().find(|(_, c)| c.bits() == cfg.bits()) {
        Some(e) => {
            if impr.total_cmp(&e.0).is_gt() {
                e.0 = impr;
            }
        }
        None => contenders.push((impr, cfg)),
    }
}

/// The closing verification round of GA and phase-clustered IE. Each
/// frontier round draws its own eval windows, so ratings from different
/// rounds are not directly comparable: the top [`FINALISTS`] contenders
/// (ties in first-rated order) are re-rated against -O3 in one frontier,
/// and the winner is picked there. Every finalist and -O3 were charged
/// when first rated, so the round is budget-free. A lone contender is
/// re-rated only when `rerate_lone` is set; otherwise its first rating
/// decides. Returns -O3 when nothing wins, so the answer never regresses
/// below it.
fn verify(
    rater: &mut FrontierRater<'_, '_>,
    mut contenders: Vec<(f64, OptConfig)>,
    rerate_lone: bool,
) -> OptConfig {
    let o3 = OptConfig::o3();
    contenders.sort_by(|a, b| b.0.total_cmp(&a.0));
    contenders.truncate(FINALISTS);
    match contenders[..] {
        [] => o3,
        [(gain, cfg)] if !rerate_lone => {
            if gain >= MIN_GAIN {
                cfg
            } else {
                o3
            }
        }
        _ => {
            rater.check_cancel();
            let finalists: Vec<OptConfig> = contenders.iter().map(|&(_, c)| c).collect();
            let fo = rater
                .rate(o3, &finalists)
                .expect("-O3 and every finalist were charged when first rated");
            fo.winner().map_or(o3, |(i, _)| finalists[i])
        }
    }
}

/// Genetic-search knobs. All probabilities are integer per-mille so the
/// population trajectory is an exact function of the seed.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Population size (individual 0 of generation 0 is always O3).
    pub population: usize,
    /// Generation cap (the budget usually stops the search first).
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-bit mutation probability, per mille.
    pub mutation_per_mille: u64,
    /// Individuals carried over unchanged each generation.
    pub elitism: usize,
    /// Per-flag off probability when seeding generation 0, per mille.
    pub init_off_per_mille: u64,
    /// PRNG seed (derive from the job seed for replayability).
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 12,
            generations: 24,
            tournament: 3,
            mutation_per_mille: 40,
            elitism: 2,
            init_off_per_mille: 250,
            seed: 1,
        }
    }
}

/// Uniform crossover: each flag bit comes from parent `a` or `b`
/// according to a fresh random mask. The result is masked to the flag
/// word by construction (both parents are valid configs).
pub fn ga_uniform_crossover(rng: &mut SplitMix64, a: OptConfig, b: OptConfig) -> OptConfig {
    let mask = rng.next() & ((1u64 << NUM_FLAGS) - 1);
    OptConfig::from_bits((a.bits() & mask) | (b.bits() & !mask))
}

/// Per-bit mutation: each of the 38 flags flips independently with
/// `per_mille`/1000 probability. Draws one `chance` per flag in bit
/// order, so the trajectory is seed-exact.
pub fn ga_mutate(rng: &mut SplitMix64, cfg: OptConfig, per_mille: u64) -> OptConfig {
    let mut bits = cfg.bits();
    for f in ALL_FLAGS {
        if rng.chance(per_mille) {
            bits ^= 1u64 << f.bit();
        }
    }
    OptConfig::from_bits(bits)
}

/// Tournament selection: best of `k` uniform draws, ties toward the
/// lowest population index.
fn ga_tournament(rng: &mut SplitMix64, fitness: &[f64], k: usize) -> usize {
    let n = fitness.len().max(1) as u64;
    let mut best = rng.below(n) as usize;
    for _ in 1..k.max(1) {
        let c = rng.below(n) as usize;
        if fitness[c].total_cmp(&fitness[best]).is_gt()
            || (fitness[c].total_cmp(&fitness[best]).is_eq() && c < best)
        {
            best = c;
        }
    }
    best
}

/// Build the next generation: the `elitism` fittest individuals carry
/// over unchanged (ties toward the lowest index), the rest are children
/// of tournament-selected parents via uniform crossover + per-bit
/// mutation. Pure function of (rng state, population, fitness, config).
pub fn ga_next_generation(
    rng: &mut SplitMix64,
    pop: &[OptConfig],
    fitness: &[f64],
    cfg: &GaConfig,
) -> Vec<OptConfig> {
    let mut order: Vec<usize> = (0..pop.len()).collect();
    order.sort_by(|&a, &b| fitness[b].total_cmp(&fitness[a]).then(a.cmp(&b)));
    let mut next: Vec<OptConfig> =
        order.iter().take(cfg.elitism.min(pop.len())).map(|&i| pop[i]).collect();
    while next.len() < pop.len() {
        let pa = ga_tournament(rng, fitness, cfg.tournament);
        let pb = ga_tournament(rng, fitness, cfg.tournament);
        let child = ga_uniform_crossover(rng, pop[pa], pop[pb]);
        next.push(ga_mutate(rng, child, cfg.mutation_per_mille));
    }
    next
}

/// Seeded genetic search (FOGA-style): fitness is the rated improvement
/// over a fixed O3 base, so one frontier rating per generation scores
/// the whole population. Generation 0 additionally scores the O3
/// single-removal frontier (memetic seeding — IE's round-1 knowledge at
/// the same budget). Every rated configuration is a contender, and the
/// run ends with the verification round over the top [`FINALISTS`]; a
/// lone contender keeps its first rating. The answer can only tie or
/// beat the baseline, never regress below it.
#[derive(Debug, Clone, Default)]
pub struct GeneticSearch {
    /// Operator and schedule knobs.
    pub config: GaConfig,
}

impl GeneticSearch {
    /// Default GA seeded from the job seed.
    pub fn seeded(seed: u64) -> Self {
        GeneticSearch { config: GaConfig { seed, ..GaConfig::default() } }
    }
}

impl SearchStrategy for GeneticSearch {
    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let cfg = &self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let base = OptConfig::o3();
        let mut pop = vec![base];
        while pop.len() < cfg.population.max(1) {
            pop.push(thinned_o3(&mut rng, cfg.init_off_per_mille));
        }
        // Best rated improvement seen per distinct config.
        let mut contenders: Vec<(f64, OptConfig)> = Vec::new();
        for generation in 0..cfg.generations {
            rater.check_cancel();
            let mut candidates = pop.clone();
            if generation == 0 {
                // Memetic seeding: score the O3 single-removal frontier
                // alongside generation 0, so the contenders include the
                // best single-flag elimination (the knowledge IE's round 1
                // buys with the same budget). These extras are only
                // contenders — the population evolves from its own
                // fitness slice, keeping the GA dynamics pure.
                candidates.extend(base.enabled_flags().iter().map(|&f| base.without(f)));
            }
            let Some(fo) = rater.rate(base, &candidates) else {
                break;
            };
            for (i, &cand) in candidates.iter().enumerate().take(fo.rated) {
                track_contender(&mut contenders, fo.out.improvements[i], cand);
            }
            if fo.truncated {
                break;
            }
            let fitness = &fo.out.improvements[..pop.len()];
            pop = ga_next_generation(&mut rng, &pop, fitness, cfg);
        }
        let winner = verify(rater, contenders, false);
        rater.finish(winner)
    }
}

/// Phase-clustered IE knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Extra probe rounds beyond probe 0 (the O3 single-removal round).
    pub probes: usize,
    /// Per-flag off probability for random probe bases, per mille.
    pub probe_off_per_mille: u64,
    /// Maximum flags per cluster.
    pub max_cluster: usize,
    /// |Pearson r| threshold (per mille) for joining a cluster.
    pub corr_threshold_per_mille: u64,
    /// PRNG seed for probe bases.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            probes: 2,
            probe_off_per_mille: 200,
            max_cluster: 8,
            corr_threshold_per_mille: 500,
            seed: 1,
        }
    }
}

/// Pearson correlation of two equal-length series; returns 0.0 for
/// degenerate (zero-variance or empty) inputs.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs[..n].iter().sum::<f64>() / nf;
    let my = ys[..n].iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Greedy interaction clustering: order flags by probe-0 impact
/// (|delta − 1|, ties toward the lowest index), seed a cluster with the
/// most impactful unassigned flag, then pull in unassigned flags whose
/// rating-delta column correlates (|r| ≥ threshold) until `max_cluster`.
/// Returns clusters as index lists into the flag order of `deltas`
/// columns, in seed-impact order.
pub fn cluster_flags(
    deltas: &[Vec<f64>],
    impact: &[f64],
    max_cluster: usize,
    corr_threshold: f64,
) -> Vec<Vec<usize>> {
    let n = impact.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| impact[b].total_cmp(&impact[a]).then(a.cmp(&b)));
    let column = |i: usize| -> Vec<f64> { deltas.iter().map(|row| row[i]).collect() };
    let mut assigned = vec![false; n];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for &s in &order {
        if assigned[s] {
            continue;
        }
        assigned[s] = true;
        let mut cluster = vec![s];
        let cs = column(s);
        for &j in &order {
            if cluster.len() >= max_cluster.max(1) {
                break;
            }
            if assigned[j] {
                continue;
            }
            if pearson(&cs, &column(j)).abs() >= corr_threshold {
                assigned[j] = true;
                cluster.push(j);
            }
        }
        clusters.push(cluster);
    }
    clusters
}

/// Phase-clustered Iterative Elimination (multiple-phase-learning
/// style): a probe phase measures each flag's removal delta across a few
/// bases, flags are grouped by rating-delta correlation, and IE rounds
/// then run *within* each cluster, over its members in impact order,
/// against the evolving global base — roughly O(Σ nᵢ²) frontier compiles
/// instead of O(n²). Probe 0 is exactly IE's round-1 frontier from O3,
/// so the first cluster's opening round re-uses already-charged configs
/// (budget-free by the dedup rule).
///
/// The probe phase is budget-aware: when the headroom left after probe 0
/// cannot fund the extra probes *plus* at least one round of in-cluster
/// exploitation, the strategy degrades to plain IE rounds over the full
/// flag set — spending scarce compiles on correlation estimates it could
/// never exploit would forfeit the search entirely. Like the GA, the run
/// ends with the verification round, over the probe-0 removals and every
/// accepted elimination step (a lone contender is re-rated too), so
/// budget exhaustion at any point still returns the best verified
/// configuration, and the answer can never regress below O3.
#[derive(Debug, Clone, Default)]
pub struct PhaseClusteredIe {
    /// Probe and clustering knobs.
    pub config: ClusterConfig,
}

impl PhaseClusteredIe {
    /// Default clustered IE seeded from the job seed.
    pub fn seeded(seed: u64) -> Self {
        PhaseClusteredIe { config: ClusterConfig { seed, ..ClusterConfig::default() } }
    }
}

/// IE rounds over `flags` from `state` until they end, capped at
/// `max_rounds`. Each removal is a contender, scored by `chain` times the
/// improvements of the removals so far (the vs-O3 estimate that ranks an
/// elimination chain against the probe-0 singles); returns that product.
fn eliminate(
    rater: &mut FrontierRater<'_, '_>,
    state: &mut IeState,
    flags: &[Flag],
    max_rounds: usize,
    mut chain: f64,
    contenders: &mut Vec<(f64, OptConfig)>,
) -> f64 {
    let ie = IterativeElimination { start: state.base, max_rounds };
    while !state.done {
        if let Some(gain) = ie.step(rater, state, flags) {
            chain *= gain;
            track_contender(contenders, chain, state.base);
        }
    }
    chain
}

impl SearchStrategy for PhaseClusteredIe {
    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let cfg = &self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let base0 = OptConfig::o3();
        let all: Vec<Flag> = base0.enabled_flags();
        // Probe 0: the O3 single-removal frontier (== IE round 1).
        rater.check_cancel();
        count_ie_round();
        let cands0: Vec<OptConfig> = all.iter().map(|&f| base0.without(f)).collect();
        let Some(p0) = rater.rate(base0, &cands0) else {
            return rater.finish(base0);
        };
        let d0: Vec<f64> = (0..all.len())
            .map(|i| if i < p0.rated { p0.out.improvements[i] } else { 1.0 })
            .collect();
        // Every probe-0 removal is a contender: if the budget dies at any
        // later point, the verification round still has IE round-1's
        // knowledge to fall back on.
        let mut contenders: Vec<(f64, OptConfig)> = Vec::new();
        for (i, &cand) in cands0.iter().enumerate().take(p0.rated) {
            track_contender(&mut contenders, p0.out.improvements[i], cand);
        }
        let mut exhausted = p0.truncated;
        // Budget-aware probing: the extra probes plus at least one round
        // of in-cluster exploitation cost roughly `probes + 1` further
        // full frontiers. With less headroom than that the probe phase
        // would starve the exploitation it exists to guide, so degrade
        // to plain IE rounds instead — probe 0 is exactly IE's round-1
        // frontier, so nothing already spent is wasted.
        let probe_cost = (cfg.probes + 1) * (all.len() + 1);
        let probing = !exhausted && rater.remaining().is_none_or(|r| r >= probe_cost);
        if probing {
            let mut deltas: Vec<Vec<f64>> = vec![d0.clone()];
            // Extra probes from random bases: flags disabled in the base
            // get a neutral 1.0 delta for that row.
            for _probe in 0..cfg.probes {
                if exhausted {
                    break;
                }
                rater.check_cancel();
                let pb = thinned_o3(&mut rng, cfg.probe_off_per_mille);
                let live: Vec<usize> = (0..all.len()).filter(|&i| pb.enabled(all[i])).collect();
                if live.is_empty() {
                    continue;
                }
                let cands: Vec<OptConfig> = live.iter().map(|&i| pb.without(all[i])).collect();
                let Some(po) = rater.rate(pb, &cands) else {
                    exhausted = true;
                    break;
                };
                let mut row = vec![1.0f64; all.len()];
                for (k, &i) in live.iter().enumerate().take(po.rated) {
                    row[i] = po.out.improvements[k];
                }
                deltas.push(row);
                exhausted = po.truncated;
            }
            let impact: Vec<f64> = d0.iter().map(|&d| (d - 1.0).abs()).collect();
            let threshold = cfg.corr_threshold_per_mille as f64 / 1000.0;
            let clusters = cluster_flags(&deltas, &impact, cfg.max_cluster, threshold);
            // In-cluster IE against the evolving global base.
            let (mut base, mut chain) = (base0, 1.0f64);
            for cluster in &clusters {
                if exhausted {
                    break;
                }
                let members: Vec<Flag> = cluster.iter().map(|&i| all[i]).collect();
                let mut state = IeState::new(base);
                chain =
                    eliminate(rater, &mut state, &members, members.len(), chain, &mut contenders);
                base = state.base;
                exhausted = state.exhausted;
            }
        } else if let Some((i, gain)) = p0.winner().filter(|_| !exhausted) {
            // Degenerate tight-budget path: probe 0 is consumed as IE's
            // round 1, and plain full-frontier IE rounds spend whatever
            // headroom remains.
            let mut state = IeState { round: 1, ..IeState::new(cands0[i]) };
            eliminate(rater, &mut state, &all, MAX_IE_ROUNDS, gain, &mut contenders);
        }
        let winner = verify(rater, contenders, true);
        rater.finish(winner)
    }
}

/// Biased random search (Cooper-style), ported onto the rater: sample
/// configurations with each flag independently off with a per-mille
/// probability, rate the whole batch as one frontier, and keep the
/// [`FrontierOutcome::winner`]. The budget truncates the batch, which is
/// what makes it the natural equal-budget baseline.
#[derive(Debug, Clone)]
pub struct RandomSearchStrategy {
    /// Sample count (the budget usually truncates this).
    pub samples: usize,
    /// Per-flag off probability, per mille.
    pub p_off_per_mille: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl RandomSearchStrategy {
    /// Default random search seeded from the job seed.
    pub fn seeded(seed: u64) -> Self {
        RandomSearchStrategy { samples: 256, p_off_per_mille: 300, seed }
    }
}

impl SearchStrategy for RandomSearchStrategy {
    fn run(&self, rater: &mut FrontierRater<'_, '_>) -> SearchResult {
        let mut rng = SplitMix64::new(self.seed);
        let base = OptConfig::o3();
        let candidates: Vec<OptConfig> =
            (0..self.samples).map(|_| thinned_o3(&mut rng, self.p_off_per_mille)).collect();
        rater.check_cancel();
        let best = match rater.rate(base, &candidates) {
            Some(fo) => fo.winner().map_or(base, |(i, _)| candidates[i]),
            None => base,
        };
        rater.finish(best)
    }
}

/// The registered strategies, by stable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Iterative Elimination (the paper's search; the default).
    Ie,
    /// Seeded genetic search.
    Ga,
    /// Phase-clustered IE.
    ClusteredIe,
    /// Biased random search (the equal-budget baseline).
    Random,
}

impl StrategyKind {
    /// Stable name (job specs, bench artifacts, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Ie => "ie",
            StrategyKind::Ga => "ga",
            StrategyKind::ClusteredIe => "clustered",
            StrategyKind::Random => "random",
        }
    }

    /// All kinds, in shoot-out order.
    pub fn all() -> [StrategyKind; 4] {
        [StrategyKind::Ie, StrategyKind::Ga, StrategyKind::ClusteredIe, StrategyKind::Random]
    }
}

/// Deterministic strategy seed for a (workload, machine) pair: FNV-1a
/// over the two names with a separator byte. Seeded strategies stay
/// replayable without storing per-job seeds, and different jobs explore
/// different trajectories.
pub fn strategy_seed(workload: &str, machine: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in workload.as_bytes().iter().chain(&[0x1fu8]).chain(machine.as_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Resolve a strategy name (as accepted in job specs and the serve
/// protocol). `None` for unknown names.
pub fn strategy_kind_by_name(name: &str) -> Option<StrategyKind> {
    match name {
        "ie" => Some(StrategyKind::Ie),
        "ga" | "genetic" => Some(StrategyKind::Ga),
        "clustered" | "clustered-ie" => Some(StrategyKind::ClusteredIe),
        "random" => Some(StrategyKind::Random),
        _ => None,
    }
}

/// Instantiate a strategy with its default knobs, seeded off the job
/// seed (IE takes no randomness and ignores the seed).
pub fn build_strategy(kind: StrategyKind, seed: u64) -> Box<dyn SearchStrategy> {
    match kind {
        StrategyKind::Ie => Box::new(IterativeElimination::default()),
        StrategyKind::Ga => Box::new(GeneticSearch::seeded(seed)),
        StrategyKind::ClusteredIe => Box::new(PhaseClusteredIe::seeded(seed)),
        StrategyKind::Random => Box::new(RandomSearchStrategy::seeded(seed)),
    }
}

/// Run `kind` on a pooled (per-candidate, thread-invariant) rater with
/// an optional compilation budget. See [`search_with_strategy_spent`]
/// for the budget-accounting variant.
pub fn search_with_strategy(
    setup: &mut TuningSetup<'_>,
    pool: &Pool,
    method: Method,
    kind: StrategyKind,
    budget: Option<usize>,
    seed: u64,
) -> SearchResult {
    search_with_strategy_spent(setup, pool, method, kind, budget, seed).0
}

/// [`search_with_strategy`] that also returns the unique configurations
/// charged — the number another strategy must be capped at for an
/// equal-budget comparison. (Kept out of [`SearchResult`] so the golden
/// JSON schema of the Table 1 pipeline stays untouched.)
pub fn search_with_strategy_spent(
    setup: &mut TuningSetup<'_>,
    pool: &Pool,
    method: Method,
    kind: StrategyKind,
    budget: Option<usize>,
    seed: u64,
) -> (SearchResult, usize) {
    run_pooled(setup, pool, method, &*build_strategy(kind, seed), budget)
}

/// Run `strategy` on a pooled rater, capped at `budget` unique
/// configurations (`None` = unlimited); returns the result and the
/// budget spent.
pub(crate) fn run_pooled(
    setup: &mut TuningSetup<'_>,
    pool: &Pool,
    method: Method,
    strategy: &dyn SearchStrategy,
    budget: Option<usize>,
) -> (SearchResult, usize) {
    let mut rater = FrontierRater::pooled(setup, pool.clone(), method);
    if let Some(n) = budget {
        rater = rater.with_budget(CompilationBudget::limited(n));
    }
    let result = strategy.run(&mut rater);
    (result, rater.spent())
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::MachineSpec;
    use peak_workloads::{art::ArtMatch, Dataset};

    #[test]
    fn splitmix_is_deterministic_and_full_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x > u32::MAX as u64), "uses the full word");
    }

    #[test]
    fn budget_dedups_and_truncates() {
        let mut b = CompilationBudget::limited(3);
        let o3 = OptConfig::o3();
        let c1 = o3.without(ALL_FLAGS[0]);
        let c2 = o3.without(ALL_FLAGS[1]);
        let c3 = o3.without(ALL_FLAGS[2]);
        assert!(b.charge_one(o3));
        assert!(b.charge_one(o3), "re-charging a seen config is free");
        assert_eq!(b.spent(), 1);
        // Prefix semantics: c1 and c2 fit, c3 does not.
        assert_eq!(b.charge(&[c1, o3, c2, c3]), 3);
        assert_eq!(b.spent(), 3);
        assert!(b.charge_one(c2), "seen configs stay free after exhaustion");
        assert!(!b.charge_one(c3));
    }

    /// The winner rule picks the last of equal best improvements, only
    /// among rated candidates, and only when it clears the noise guard.
    #[test]
    fn winner_is_the_last_best_rated_candidate_clearing_min_gain() {
        let outcome = |improvements: Vec<f64>, rated: usize| FrontierOutcome {
            out: RateOutcome {
                vars: vec![0.0; improvements.len()],
                improvements,
                unconverged: 0,
                method: Method::Cbr,
                samples: 0,
                trimmed: 0,
                dropouts: 0,
                crashes: 0,
            },
            method: Method::Cbr,
            rated,
            truncated: false,
        };
        let fo = outcome(vec![1.05, 0.9, 1.05, 1.2], 3);
        assert_eq!(fo.best(), Some((2, 1.05)));
        assert_eq!(fo.winner(), Some((2, 1.05)));
        let fo = outcome(vec![1.0, MIN_GAIN - 1e-9], 2);
        assert_eq!(fo.best(), Some((1, MIN_GAIN - 1e-9)));
        assert_eq!(fo.winner(), None);
        assert_eq!(outcome(vec![], 0).best(), None);
    }

    #[test]
    fn crossover_and_mutation_stay_in_flag_word() {
        let mut rng = SplitMix64::new(7);
        let mask = (1u64 << NUM_FLAGS) - 1;
        for _ in 0..200 {
            let a = OptConfig::from_bits(rng.next() & mask);
            let b = OptConfig::from_bits(rng.next() & mask);
            let child = ga_uniform_crossover(&mut rng, a, b);
            assert_eq!(child.bits() & !mask, 0);
            let m = ga_mutate(&mut rng, child, 500);
            assert_eq!(m.bits() & !mask, 0);
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for kind in StrategyKind::all() {
            assert_eq!(strategy_kind_by_name(kind.name()), Some(kind));
        }
        assert_eq!(strategy_kind_by_name("genetic"), Some(StrategyKind::Ga));
        assert_eq!(strategy_kind_by_name("clustered-ie"), Some(StrategyKind::ClusteredIe));
        assert_eq!(strategy_kind_by_name("simulated-annealing"), None);
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0, "degenerate variance");
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn clustering_respects_max_size_and_covers_all() {
        // Two perfectly correlated groups of columns.
        let deltas = vec![
            vec![1.1, 1.1, 1.0, 0.9, 0.9],
            vec![1.2, 1.2, 1.0, 0.8, 0.8],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        let impact = vec![0.1, 0.1, 0.0, 0.1, 0.1];
        let clusters = cluster_flags(&deltas, &impact, 2, 0.5);
        let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "every flag assigned exactly once");
        assert!(clusters.iter().all(|c| c.len() <= 2));
    }

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
