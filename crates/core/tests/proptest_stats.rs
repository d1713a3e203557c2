//! Property tests on the rating statistics and the MBR regression solver.

use peak_core::linreg;
use peak_core::stats::{robust_summary, summarize, trim_outliers, Summary, Window, OUTLIER_K};
use proptest::prelude::*;

/// The stateless window formulas `Window` is checked against: each
/// query re-summarises every sample collected so far.
mod oracle {
    use super::*;

    pub fn mean_cv(xs: &[f64]) -> f64 {
        let s = robust_summary(xs);
        if s.n == 0 || s.mean.abs() < f64::EPSILON {
            return f64::INFINITY;
        }
        let sem = s.std_dev() / (s.n as f64).sqrt();
        sem / s.mean.abs()
    }

    pub fn converged(xs: &[f64], min_samples: usize, var_threshold: f64) -> bool {
        if xs.len() < min_samples {
            return false;
        }
        if robust_summary(xs).n < min_samples.min(4) {
            return false;
        }
        mean_cv(xs) < var_threshold
    }

    pub fn exhausted(xs: &[f64], min: usize, max: usize, var_threshold: f64) -> bool {
        xs.len() >= max && !converged(xs, min, var_threshold)
    }

    pub fn rejected(xs: &[f64]) -> usize {
        xs.len() - robust_summary(xs).n
    }
}

fn summary_bits(s: Summary) -> (u64, u64, usize) {
    (s.mean.to_bits(), s.variance.to_bits(), s.n)
}

/// A seeded measurement stream of `len` samples: `kind` 0 clean jitter,
/// 1 jitter with interrupt spikes, 2 constant (zero half the time),
/// 3 wide noise that rarely converges, 4 signs alternating around zero.
fn stream(kind: u8, seed: u64, len: usize) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let base = rng.gen_range(10.0..1.0e6);
    let constant = if rng.gen_bool(0.5) { base } else { 0.0 };
    (0..len)
        .map(|_| match kind {
            0 => base * (1.0 + rng.gen_range(-0.01..0.01)),
            1 if rng.gen_bool(0.1) => base * rng.gen_range(10.0..1000.0),
            1 => base * (1.0 + rng.gen_range(-0.01..0.01)),
            2 => constant,
            3 => base * rng.gen_range(0.5..1.5),
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect()
}

proptest! {
    /// Outlier trimming never removes the majority of the data and always
    /// returns a subset.
    #[test]
    fn trimming_is_a_conservative_subset(xs in prop::collection::vec(50.0f64..150.0, 8..100)) {
        let kept = trim_outliers(&xs, OUTLIER_K);
        prop_assert!(kept.len() * 2 >= xs.len(), "majority survives");
        for k in &kept {
            prop_assert!(xs.contains(k));
        }
    }

    /// Adding a huge spike to clean data does not move the robust mean by
    /// more than the clean spread.
    #[test]
    fn robust_mean_resists_spikes(
        xs in prop::collection::vec(990.0f64..1010.0, 10..60),
        spike in 1.0e5f64..1.0e7,
    ) {
        let clean = summarize(&xs);
        let mut polluted = xs.clone();
        polluted.push(spike);
        let robust = robust_summary(&polluted);
        prop_assert!((robust.mean - clean.mean).abs() < 25.0,
            "robust {} vs clean {}", robust.mean, clean.mean);
    }

    /// Mean/variance match a direct computation.
    #[test]
    fn summary_matches_reference(xs in prop::collection::vec(-1.0e6f64..1.0e6, 2..50)) {
        let s = summarize(&xs);
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((s.mean - mean).abs() <= mean.abs() * 1e-12 + 1e-9);
        prop_assert!((s.variance - var).abs() <= var.abs() * 1e-9 + 1e-6);
    }

    /// The regression solver recovers exact linear models, with any
    /// number of components up to 4 and arbitrary positive counts.
    #[test]
    fn linreg_recovers_exact_models(
        t_true in prop::collection::vec(0.5f64..500.0, 1..5),
        rows in 6usize..40,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = t_true.len();
        // Random counts with an intercept-ish last column.
        let counts: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..k).map(|i| if i == k - 1 { 1.0 } else { rng.gen_range(1.0..100.0) }).collect())
            .collect();
        let times: Vec<f64> = counts
            .iter()
            .map(|c| c.iter().zip(&t_true).map(|(x, t)| x * t).sum())
            .collect();
        if let Some(reg) = linreg::solve(&times, &counts) {
            prop_assert!(reg.var < 1e-9, "exact data fits exactly: {}", reg.var);
            for (est, truth) in reg.t.iter().zip(&t_true) {
                prop_assert!((est - truth).abs() < 1e-5 * truth.max(1.0),
                    "{est} vs {truth}");
            }
        }
        // (Singular count matrices may return None — that is correct.)
    }

    /// Trimming a non-empty slice never empties it: the median itself is
    /// always within any positive MAD radius of the median.
    #[test]
    fn trimming_never_empties_nonempty_input(
        xs in prop::collection::vec(1.0f64..1.0e9, 1..120),
    ) {
        let kept = trim_outliers(&xs, OUTLIER_K);
        prop_assert!(!kept.is_empty(), "{} samples in, 0 out", xs.len());
    }

    /// On clean (tight multiplicative jitter) data the filter is
    /// idempotent: a second pass removes nothing more.
    #[test]
    fn trimming_is_idempotent_on_clean_data(
        base in 100.0f64..1.0e6,
        jitter in prop::collection::vec(-0.002f64..0.002, 8..80),
    ) {
        let xs: Vec<f64> = jitter.iter().map(|j| base * (1.0 + j)).collect();
        let once = trim_outliers(&xs, OUTLIER_K);
        let twice = trim_outliers(&once, OUTLIER_K);
        prop_assert_eq!(&once, &twice);
    }

    /// A single 100x spike is always removed, most of the clean data is
    /// kept, and the robust mean stays within 1% of the clean base.
    #[test]
    fn single_100x_spike_is_removed(
        base in 100.0f64..1.0e6,
        jitter in prop::collection::vec(-0.002f64..0.002, 8..80),
        pos in 0usize..1000,
    ) {
        let mut xs: Vec<f64> = jitter.iter().map(|j| base * (1.0 + j)).collect();
        let spike = base * 100.0;
        let at = pos % (xs.len() + 1);
        xs.insert(at, spike);
        let kept = trim_outliers(&xs, OUTLIER_K);
        prop_assert!(!kept.contains(&spike), "spike survived");
        prop_assert!(kept.len() * 2 >= xs.len() - 1, "kept {} of {}", kept.len(), xs.len());
        let s = robust_summary(&xs);
        prop_assert!((s.mean - base).abs() < base * 0.01,
            "robust mean {} vs base {}", s.mean, base);
    }

    /// Regression residual VAR is scale-invariant in time units.
    #[test]
    fn linreg_var_scale_invariant(scale in 1.0f64..1000.0) {
        let counts: Vec<Vec<f64>> = (1..=20).map(|i| vec![i as f64, 1.0]).collect();
        let times: Vec<f64> = (1..=20)
            .map(|i| 10.0 * i as f64 + 3.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r1 = linreg::solve(&times, &counts).unwrap();
        let scaled: Vec<f64> = times.iter().map(|t| t * scale).collect();
        let r2 = linreg::solve(&scaled, &counts).unwrap();
        prop_assert!((r1.var - r2.var).abs() < 1e-9);
    }

    /// After every push a window answers exactly what the stateless
    /// formulas answer on its samples: summary bit for bit, the CV of
    /// the mean, convergence, exhaustion and the rejected count. Streams
    /// stop short of `min_samples`, inside the bounds, or run past
    /// `max_samples`.
    #[test]
    fn window_matches_stateless_oracle(
        kind in 0u8..5,
        seed in any::<u64>(),
        min in 1usize..16,
        span in 0usize..64,
        thr in 0.0005f64..0.05,
        len_pick in any::<usize>(),
    ) {
        let max = min + span;
        let len = match len_pick % 3 {
            0 => len_pick / 3 % min,
            1 => min + len_pick / 3 % (span + 1),
            _ => max + 1 + len_pick / 3 % 30,
        };
        let xs = stream(kind, seed, len);
        let mut w = Window::with(min, max, thr);
        for (i, &x) in xs.iter().enumerate() {
            w.push(x);
            let seen = &xs[..=i];
            prop_assert_eq!(w.samples(), seen);
            prop_assert_eq!(summary_bits(w.summary()), summary_bits(robust_summary(seen)));
            prop_assert_eq!(w.mean_cv().to_bits(), oracle::mean_cv(seen).to_bits());
            prop_assert_eq!(w.converged(), oracle::converged(seen, min, thr));
            prop_assert_eq!(w.exhausted(), oracle::exhausted(seen, min, max, thr));
            prop_assert_eq!(w.rejected(), oracle::rejected(seen));
        }
    }
}
