//! Rating statistics: EVAL/VAR windows and measurement-outlier
//! elimination (paper §3).
//!
//! "The tuning engine also identifies and eliminates measurement
//! outliers, which are far away from the average. Such data may result
//! from system perturbations, such as interrupts."

/// Basic sample statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Samples used (after any trimming).
    pub n: usize,
}

impl Summary {
    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Coefficient of variation (σ/μ) — the VAR the window controller
    /// compares against its threshold; dimensionless so one threshold
    /// works across TSs of very different magnitude.
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            return f64::INFINITY;
        }
        self.std_dev() / self.mean.abs()
    }
}

/// Mean/variance of a slice.
pub fn summarize(xs: &[f64]) -> Summary {
    let n = xs.len();
    if n == 0 {
        return Summary { mean: 0.0, variance: 0.0, n: 0 };
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let variance = if n > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    Summary { mean, variance, n }
}

/// Remove outliers: samples farther than `k` MADs from the median
/// (median absolute deviation is robust against the very outliers being
/// removed, unlike a mean/σ filter). Returns the retained samples.
pub fn trim_outliers(xs: &[f64], k: f64) -> Vec<f64> {
    if xs.len() < 4 {
        return xs.to_vec();
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let median = sorted[sorted.len() / 2];
    let mut devs: Vec<f64> = xs.iter().map(|x| (x - median).abs()).collect();
    devs.sort_by(|a, b| a.total_cmp(b));
    let mad = devs[devs.len() / 2].max(median.abs() * 1e-6).max(f64::EPSILON);
    xs.iter()
        .copied()
        .filter(|x| (x - median).abs() <= k * mad)
        .collect()
}

/// Default MAD multiplier (≈ 5σ for Gaussian data).
pub const OUTLIER_K: f64 = 7.5;

/// Summary after outlier elimination.
pub fn robust_summary(xs: &[f64]) -> Summary {
    #[cfg(test)]
    ROBUST_SUMMARIES.with(|n| n.set(n.get() + 1));
    summarize(&trim_outliers(xs, OUTLIER_K))
}

#[cfg(test)]
thread_local! {
    /// Robust summaries computed on this thread (work-count tests).
    pub(crate) static ROBUST_SUMMARIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Remove time-outlier rows jointly from (times, rows): trims `times`,
/// then keeps each row whose time survived (MBR fits regress the kept
/// times on the kept count rows).
pub(crate) fn trimmed_rows(times: &[f64], rows: &[Vec<f64>]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let kept = trim_outliers(times, OUTLIER_K);
    let keep: std::collections::HashSet<u64> = kept.iter().map(|t| t.to_bits()).collect();
    times
        .iter()
        .zip(rows)
        .filter(|(t, _)| keep.contains(&t.to_bits()))
        .map(|(t, row)| (*t, row.clone()))
        .unzip()
}

/// An EVAL/VAR accumulation window (paper §3): collects samples until the
/// coefficient of variation of the *mean estimate* falls below a
/// threshold, then reports a consistent rating.
///
/// Invariant: the stored summary is `robust_summary(self.samples())`.
/// [`Window::push`] is the only mutator and refreshes it, so every query
/// is O(1) and allocates nothing; outliers are trimmed once per sample.
#[derive(Debug, Clone)]
pub struct Window {
    samples: Vec<f64>,
    summary: Summary,
    /// Minimum samples before a rating may be produced.
    pub min_samples: usize,
    /// Maximum samples before giving up (method switch trigger).
    pub max_samples: usize,
    /// CV-of-mean threshold for convergence.
    pub var_threshold: f64,
}

impl Window {
    /// Standard window: w≥10, convergence when the standard error of the
    /// mean drops under 1% of the mean.
    pub fn new() -> Self {
        Self::with(10, 400, 0.01)
    }

    /// Window with custom bounds.
    pub fn with(min_samples: usize, max_samples: usize, var_threshold: f64) -> Self {
        let summary = summarize(&[]);
        Window { samples: Vec::new(), summary, min_samples, max_samples, var_threshold }
    }

    /// Add a measurement and refresh the robust summary.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.summary = robust_summary(&self.samples);
    }

    /// Samples collected so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Current robust summary.
    pub fn summary(&self) -> Summary {
        self.summary
    }

    /// Samples rejected by the outlier filter.
    pub fn rejected(&self) -> usize {
        self.samples.len() - self.summary.n
    }

    /// CV of the *mean estimate* (standard error of the mean over |mean|)
    /// — the VAR quantity convergence is judged on. Infinite when no
    /// samples survive trimming or the mean is zero, so an
    /// exhausted-but-unconverged window always carries a meaningful
    /// (possibly infinite) value into `RateOutcome::vars` instead of
    /// vanishing into the `unconverged` count alone.
    pub fn mean_cv(&self) -> f64 {
        let s = self.summary;
        if s.n == 0 || s.mean.abs() < f64::EPSILON {
            return f64::INFINITY;
        }
        let sem = s.std_dev() / (s.n as f64).sqrt();
        sem / s.mean.abs()
    }

    /// Converged? (standard error of mean below threshold)
    pub fn converged(&self) -> bool {
        self.samples.len() >= self.min_samples
            && self.summary.n >= self.min_samples.min(4)
            && self.mean_cv() < self.var_threshold
    }

    /// Exhausted without convergence? (the §3 method-switch trigger)
    pub fn exhausted(&self) -> bool {
        self.samples.len() >= self.max_samples && !self.converged()
    }

    /// Still sampling: neither converged nor at `max_samples`. A rating
    /// run ends when no window is open.
    pub(crate) fn is_open(&self) -> bool {
        self.samples.len() < self.max_samples && !self.converged()
    }
}

/// The window the next sample goes to: the least-sampled open one (the
/// first on ties), or `None` when every window is closed.
pub(crate) fn least_sampled_open(windows: &[Window]) -> Option<usize> {
    (0..windows.len()).filter(|&i| windows[i].is_open()).min_by_key(|&i| windows[i].len())
}

impl Default for Window {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn outliers_removed_by_mad_filter() {
        // 20 clean samples around 100 plus two interrupt spikes.
        let mut xs: Vec<f64> = (0..20).map(|i| 100.0 + (i % 5) as f64).collect();
        xs.push(60_000.0);
        xs.push(45_000.0);
        let clean = trim_outliers(&xs, OUTLIER_K);
        assert_eq!(clean.len(), 20);
        assert!(clean.iter().all(|&x| x < 200.0));
        let s = robust_summary(&xs);
        assert!(s.mean < 110.0, "spikes excluded from the mean: {}", s.mean);
    }

    #[test]
    fn clean_data_untouched() {
        let xs: Vec<f64> = (0..50).map(|i| 100.0 + (i % 7) as f64).collect();
        assert_eq!(trim_outliers(&xs, OUTLIER_K).len(), xs.len());
    }

    #[test]
    fn window_converges_on_consistent_data() {
        let mut w = Window::new();
        for i in 0..40 {
            w.push(1000.0 + (i % 3) as f64);
        }
        assert!(w.converged());
        assert!(!w.exhausted());
        assert!(!w.is_open());
    }

    #[test]
    fn window_does_not_converge_prematurely() {
        let mut w = Window::new();
        for _ in 0..5 {
            w.push(1000.0);
        }
        assert!(!w.converged(), "below min_samples");
        assert!(w.is_open());
    }

    #[test]
    fn noisy_window_exhausts() {
        let mut w = Window::with(10, 50, 0.0001);
        // Alternating wildly: cv stays large.
        for i in 0..50 {
            w.push(if i % 2 == 0 { 100.0 } else { 300.0 });
        }
        assert!(!w.converged());
        assert!(w.exhausted());
        assert!(!w.is_open());
    }

    #[test]
    fn pick_is_least_sampled_open_window() {
        let mut ws = vec![Window::with(2, 3, 0.01); 3];
        assert_eq!(least_sampled_open(&ws), Some(0), "first on ties");
        ws[0].push(5.0);
        assert_eq!(least_sampled_open(&ws), Some(1));
        for w in &mut ws[1..] {
            for _ in 0..3 {
                w.push(5.0);
            }
        }
        assert_eq!(least_sampled_open(&ws), Some(0), "converged windows are closed");
        ws[0].push(1.0);
        ws[0].push(9.0);
        assert!(ws[0].exhausted());
        assert_eq!(least_sampled_open(&ws), None);
    }

    #[test]
    fn cv_of_zero_mean_is_infinite() {
        let s = summarize(&[-1.0, 1.0]);
        assert!(s.cv().is_infinite());
    }

    #[test]
    fn exhausted_window_reports_finite_mean_cv() {
        let mut w = Window::with(10, 50, 0.0001);
        for i in 0..50 {
            w.push(if i % 2 == 0 { 100.0 } else { 300.0 });
        }
        assert!(w.exhausted());
        let cv = w.mean_cv();
        assert!(cv.is_finite() && cv > w.var_threshold, "cv={cv}");
    }

    #[test]
    fn empty_window_mean_cv_is_infinite() {
        assert!(Window::new().mean_cv().is_infinite());
    }

    #[test]
    fn window_counts_rejected_outliers() {
        let mut w = Window::new();
        for i in 0..30 {
            w.push(1000.0 + (i % 3) as f64);
        }
        assert_eq!(w.rejected(), 0);
        w.push(250_000.0);
        assert_eq!(w.rejected(), 1);
    }
}
