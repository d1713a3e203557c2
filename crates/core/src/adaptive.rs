//! Online, adaptive tuning — the paper's §6 outlook ("the presented
//! rating methods are also applicable to an online, adaptive optimization
//! scenario") and the ADAPT substrate of §4.2/Fig. 6.
//!
//! The tuner keeps, per context, a *best* and an *experimental* version
//! (paper Fig. 6) and alternates Dynamic-Feedback-style production and
//! sampling phases: most invocations run the incumbent, every `k`-th runs
//! the experiment; when both CBR windows converge the winner is promoted
//! and the next candidate enters. Because ratings are per-context, two
//! contexts of the same TS can settle on different versions — the payoff
//! the paper's §2.2 anticipates for adaptive use.

use crate::context::{reduce_key, ContextKey};
use crate::harness::RunHarness;
use crate::stats::Window;
use crate::version_cache::VersionCache;
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, MachineSpec, TierBackend};
use peak_workloads::Workload;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-context adaptive state.
#[derive(Debug)]
struct CtxState {
    best: usize,
    experiment: usize,
    best_window: Window,
    exp_window: Window,
    promotions: u32,
    decisions: u32,
}

/// Summary of one adaptive run.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Per context: (key, winning candidate index, promotions, decisions).
    pub winners: Vec<(ContextKey, usize, u32, u32)>,
    /// Total invocations executed.
    pub invocations: u64,
    /// Invocations spent on experimental versions (the sampling overhead).
    pub sampling_invocations: u64,
    /// Total run cycles.
    pub cycles: u64,
}

/// The adaptive tuner.
pub struct AdaptiveTuner {
    candidates: Vec<OptConfig>,
    versions: Vec<Arc<dyn TierBackend>>,
    sources: Vec<peak_ir::ContextSource>,
    varying: Vec<usize>,
    /// Run the experiment every `sample_every`-th matching invocation.
    pub sample_every: usize,
    window_min: usize,
    window_max: usize,
    var_threshold: f64,
}

impl AdaptiveTuner {
    /// Build the tuner: compiles every candidate up front (the paper's
    /// remote optimizer would produce them on demand). Candidate 0 is the
    /// initial best everywhere.
    pub fn new(workload: &dyn Workload, spec: &MachineSpec, candidates: Vec<OptConfig>) -> Self {
        assert!(candidates.len() >= 2, "need an incumbent and at least one experiment");
        let versions = candidates
            .iter()
            .map(|c| VersionCache::global().prepare_workload(workload, spec, *c))
            .collect();
        // Context structure from the Figure-1 analysis; adaptive tuning
        // degrades to AVG-per-everything when CBR does not apply.
        let (sources, varying) =
            match peak_ir::context_set(workload.program().func(workload.ts())) {
                peak_ir::ContextAnalysis::Applicable(sources) => {
                    let varying = (0..sources.len()).collect();
                    (sources, varying)
                }
                peak_ir::ContextAnalysis::NotApplicable(_) => (Vec::new(), Vec::new()),
            };
        AdaptiveTuner {
            candidates,
            versions,
            sources,
            varying,
            sample_every: 4,
            window_min: 8,
            window_max: 64,
            var_threshold: 0.01,
        }
    }

    /// Drive one application run adaptively, returning the outcome.
    pub fn run(&self, h: &mut RunHarness<'_>) -> AdaptiveOutcome {
        let mut states: HashMap<ContextKey, CtxState> = HashMap::new();
        let opts = ExecOptions::default();
        let mut invocations = 0u64;
        let mut sampling = 0u64;
        let mut tick = 0usize;
        while let Some(args) = h.next_args() {
            invocations += 1;
            let key = reduce_key(&h.context_key(&self.sources, &args), &self.varying);
            let n_versions = self.versions.len();
            let st = states.entry(key).or_insert_with(|| CtxState {
                best: 0,
                experiment: 1,
                best_window: Window::with(self.window_min, self.window_max, self.var_threshold),
                exp_window: Window::with(self.window_min, self.window_max, self.var_threshold),
                promotions: 0,
                decisions: 0,
            });
            tick += 1;
            let experimenting =
                st.experiment < n_versions && tick.is_multiple_of(self.sample_every);
            let vi = if experimenting { st.experiment } else { st.best };
            let (measured, _) = h.execute_timed(&*self.versions[vi], &args, &opts);
            if experimenting {
                sampling += 1;
                st.exp_window.push(measured as f64);
            } else if st.experiment < n_versions {
                st.best_window.push(measured as f64);
            }
            // Decision point.
            if st.experiment < n_versions && !st.best_window.is_open() && !st.exp_window.is_open() {
                st.decisions += 1;
                let b = st.best_window.summary().mean;
                let e = st.exp_window.summary().mean;
                if e < b * 0.995 {
                    st.best = st.experiment;
                    st.promotions += 1;
                }
                st.experiment += 1;
                st.best_window =
                    Window::with(self.window_min, self.window_max, self.var_threshold);
                st.exp_window =
                    Window::with(self.window_min, self.window_max, self.var_threshold);
            }
        }
        let mut winners: Vec<(ContextKey, usize, u32, u32)> = states
            .into_iter()
            .map(|(k, s)| (k, s.best, s.promotions, s.decisions))
            .collect();
        winners.sort_by(|a, b| a.0.cmp(&b.0));
        AdaptiveOutcome {
            winners,
            invocations,
            sampling_invocations: sampling,
            cycles: h.cycles(),
        }
    }

    /// The candidate configurations (index-aligned with winners).
    pub fn candidates(&self) -> &[OptConfig] {
        &self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_opt::Flag;
    use peak_workloads::{apsi::ApsiRadb4, Dataset};

    fn tuner_for_apsi(candidates: Vec<OptConfig>) -> (ApsiRadb4, AdaptiveTuner) {
        let w = ApsiRadb4::new();
        let spec = MachineSpec::pentium_iv();
        let t = AdaptiveTuner::new(&w, &spec, candidates);
        (w, t)
    }

    #[test]
    fn adaptive_run_covers_all_contexts() {
        let (w, tuner) = tuner_for_apsi(vec![
            OptConfig::o3(),
            OptConfig::o3().without(Flag::LoopUnroll),
        ]);
        let spec = MachineSpec::pentium_iv();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 3);
        let out = tuner.run(&mut h);
        assert_eq!(out.winners.len(), 3, "radb4 has three contexts: {:?}", out.winners);
        assert_eq!(out.invocations as usize, w.invocations(Dataset::Train));
        // Sampling overhead stays a bounded fraction.
        assert!(out.sampling_invocations * 2 < out.invocations);
        // Every context reached at least one decision.
        for (_, _, _, decisions) in &out.winners {
            assert!(*decisions >= 1);
        }
    }

    #[test]
    fn sampling_phase_ratio_respected() {
        let (w, mut_tuner) = tuner_for_apsi(vec![
            OptConfig::o3(),
            OptConfig::o3().without(Flag::ScheduleInsns),
        ]);
        let tuner = mut_tuner;
        let spec = MachineSpec::pentium_iv();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 4);
        let out = tuner.run(&mut h);
        // At most 1 in sample_every invocations is experimental.
        assert!(
            out.sampling_invocations <= out.invocations / tuner.sample_every as u64 + 1,
            "{} of {}",
            out.sampling_invocations,
            out.invocations
        );
    }

    /// The paper's per-context payoff (§2.2: "The best versions for
    /// different contexts may be different"): on APSI's (ido=1, l1=256)
    /// shape the inner loop runs a single trip, so -O3's per-iteration
    /// machinery (prefetch look-ahead, unroll guards) is pure overhead and
    /// -O0 wins — while the fat (64, 4) shape favours -O3 by ~1.7×. The
    /// adaptive tuner must find exactly this split.
    #[test]
    fn contexts_settle_on_different_winners() {
        let (w, tuner) = tuner_for_apsi(vec![OptConfig::o3(), OptConfig::o0()]);
        let spec = MachineSpec::pentium_iv();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 5);
        let out = tuner.run(&mut h);
        assert_eq!(out.winners.len(), 3);
        let winner_of = |ido: u64, l1: u64| {
            out.winners
                .iter()
                .find(|(k, ..)| k.0 == vec![ido, l1])
                .map(|(_, w, ..)| *w)
                .expect("context present")
        };
        assert_eq!(winner_of(1, 256), 1, "trip-1 shape prefers -O0");
        assert_eq!(winner_of(64, 4), 0, "fat shape keeps -O3");
    }

    /// Promotion works in the other direction too: with -O0 as the
    /// incumbent, the shapes that favour -O3 adopt it.
    #[test]
    fn better_challenger_promoted_where_it_wins() {
        let (w, tuner) = tuner_for_apsi(vec![OptConfig::o0(), OptConfig::o3()]);
        let spec = MachineSpec::pentium_iv();
        let mut h = RunHarness::new(&w, Dataset::Train, &spec, 6);
        let out = tuner.run(&mut h);
        let winner_of = |ido: u64, l1: u64| {
            out.winners
                .iter()
                .find(|(k, ..)| k.0 == vec![ido, l1])
                .map(|(_, w, ..)| *w)
                .expect("context present")
        };
        assert_eq!(winner_of(64, 4), 1, "fat shape adopts -O3");
        assert_eq!(winner_of(8, 32), 1, "middle shape adopts -O3");
        assert_eq!(winner_of(1, 256), 0, "trip-1 shape keeps -O0");
    }
}
