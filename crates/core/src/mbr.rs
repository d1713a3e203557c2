//! Model-based rating: component discovery, instrumentation, and the
//! regression-backed rating model (paper §2.3).
//!
//! `T_TS = Σ T_i · C_i` — block-entry counts that are linearly dependent
//! across invocations merge into one *component*; constant-count blocks
//! fold into the constant component. Counts come from compile-time trip
//! expressions when the structure is regular, otherwise from inserted
//! counters whose cycle cost the simulator charges.

use crate::linreg;
use peak_ir::{
    BlockId, Cfg, CountExpr, CountSource, FuncId, Interp, MemoryImage, Program, Value,
};
use peak_workloads::{Dataset, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Where one component's count comes from at rating time.
#[derive(Debug, Clone)]
pub enum CompCount {
    /// Evaluated from TS-entry argument values.
    Expr(CountExpr),
    /// Read from an instrumentation counter after the invocation.
    Counter(usize),
    /// Always one (the constant component `T_n`, paper §2.3).
    Constant,
}

/// The discovered MBR model for one tuning section.
#[derive(Debug, Clone)]
pub struct MbrModel {
    /// Program with the TS instrumented (counters for irregular
    /// representative blocks only). Candidate versions compile from this.
    pub instrumented: Program,
    /// The instrumented TS function.
    pub ts: FuncId,
    /// Per-component count source; the last entry is [`CompCount::Constant`].
    pub comps: Vec<CompCount>,
    /// Number of runtime counters in the instrumented TS.
    pub num_counters: usize,
    /// Average component counts over the profile run (paper Eq. 4's
    /// `C_avg,i`, used by the `T_avg` rating).
    pub c_avg: Vec<f64>,
    /// Index of the dominant component if one holds ≥ 90% of profile
    /// time (rating then uses its `T_i` directly, paper §2.3 (a)).
    pub dominant: Option<usize>,
    /// Regression VAR on the profile run (how well the linear model
    /// explains this TS at all — the consultant's MBR-quality signal).
    pub profile_var: f64,
}

/// Maximum components for MBR to stay practical (paper: "If there are
/// many components … MBR would lead to a long tuning time … and so is not
/// applied").
pub const MAX_COMPONENTS: usize = 4;

/// Invocations used by the counting profile.
pub const PROFILE_INVOCATIONS: usize = 120;

/// Fraction of profile time a component must hold to be "dominant".
pub const DOMINANT_FRACTION: f64 = 0.9;

/// Discover the MBR model for a workload's TS, or `None` if the component
/// count exceeds [`MAX_COMPONENTS`] or the counts are degenerate.
///
/// Profiling uses the reference interpreter (exact block-entry counts, no
/// perturbation) over the deterministic train stream — the paper's
/// separate profile run. Timing quality (`profile_var`) is filled in by
/// the caller via [`MbrModel::fit_profile_times`] using simulator timings.
pub fn discover(workload: &dyn Workload) -> Option<MbrModel> {
    let prog = workload.program();
    let ts = workload.ts();
    let f = prog.func(ts);
    let cfg = Cfg::build(f);
    let blocks: Vec<BlockId> = cfg.rpo.clone();
    // Profile: exact per-invocation block-entry counts.
    let mut mem = MemoryImage::new(prog);
    let mut rng = StdRng::seed_from_u64(0x7472_6169_6e00); // the train stream seed
    workload.setup(Dataset::Train, &mut mem, &mut rng);
    let interp = Interp::default();
    let n_inv = PROFILE_INVOCATIONS.min(workload.invocations(Dataset::Train));
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n_inv); // [inv][block]
    for inv in 0..n_inv {
        let args = workload.args(Dataset::Train, inv, &mut mem, &mut rng);
        let out = interp.run(prog, ts, &args, &mut mem).ok()?;
        rows.push(blocks.iter().map(|b| out.block_entries[b.index()] as f64).collect());
    }
    // Merge linearly dependent block counts (paper §2.3). Generalized to
    // full multicollinearity: a block joins the component set only if its
    // count column is linearly independent of the span of the already
    // chosen columns plus the all-ones (constant) column — a dependent
    // column's time contribution distributes over the existing components
    // in the regression, so keeping it would only make CᵀC singular.
    let nb = blocks.len();
    let mut reps: Vec<usize> = Vec::new(); // indices into `blocks`
    for bi in 0..nb {
        let col: Vec<f64> = rows.iter().map(|r| r[bi]).collect();
        if col.iter().all(|&c| c == col[0]) {
            continue; // constant-count block → constant component
        }
        // Basis so far: chosen columns + ones.
        let basis: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                let mut v: Vec<f64> = reps.iter().map(|&ri| r[ri]).collect();
                v.push(1.0);
                v
            })
            .collect();
        let dependent = match crate::linreg::solve(&col, &basis) {
            Some(reg) => reg.var < 1e-9,
            None => false, // singular basis fit ⇒ treat as independent
        };
        if !dependent {
            reps.push(bi);
        }
    }
    if reps.len() + 1 > MAX_COMPONENTS {
        return None;
    }
    if reps.is_empty() {
        // Fully constant behaviour: a single constant component would make
        // MBR degenerate to AVG; still allow it (paper: SWIM/EQUAKE have
        // one context where MBR ≈ CBR ≈ AVG).
    }
    // Instrument a fresh copy of the program for the representatives.
    let mut instrumented = prog.clone();
    let rep_blocks: Vec<BlockId> = reps.iter().map(|&bi| blocks[bi]).collect();
    let plan = peak_ir::instrument_block_counts(instrumented.func_mut(ts), &rep_blocks);
    let mut comps: Vec<CompCount> = Vec::new();
    let mut counter_idx = 0usize;
    for (_b, src) in &plan.sources {
        comps.push(match src {
            CountSource::Expr(e) => CompCount::Expr(e.clone()),
            CountSource::Counter(_) => {
                let c = CompCount::Counter(counter_idx);
                counter_idx += 1;
                c
            }
        });
    }
    comps.push(CompCount::Constant);
    // Average counts from the profile.
    let k = comps.len();
    let mut c_avg = vec![0.0f64; k];
    for row in &rows {
        for (ci, &bi) in reps.iter().enumerate() {
            c_avg[ci] += row[bi];
        }
        c_avg[k - 1] += 1.0;
    }
    for v in &mut c_avg {
        *v /= rows.len() as f64;
    }
    Some(MbrModel {
        instrumented,
        ts,
        comps,
        num_counters: plan.num_counters,
        c_avg,
        dominant: None,
        profile_var: f64::INFINITY,
    })
}

impl MbrModel {
    /// Component-count row for one invocation: `args` are the TS-entry
    /// arguments, `counters` the post-invocation counter values.
    pub fn count_row(&self, args: &[Value], counters: &[u64]) -> Vec<f64> {
        self.comps
            .iter()
            .map(|c| match c {
                CompCount::Expr(e) => e
                    .eval(&|v| args.get(v.index()).copied())
                    .map(|x| x as f64)
                    .unwrap_or(0.0),
                CompCount::Counter(i) => counters.get(*i).copied().unwrap_or(0) as f64,
                CompCount::Constant => 1.0,
            })
            .collect()
    }

    /// Fit the model on profile timings: fills `dominant` and
    /// `profile_var`, returning the regression if it succeeded.
    pub fn fit_profile_times(
        &mut self,
        times: &[f64],
        counts: &[Vec<f64>],
    ) -> Option<linreg::Regression> {
        let reg = linreg::solve(times, counts)?;
        self.profile_var = reg.var;
        // Dominant component by time share at average counts.
        let shares: Vec<f64> = reg
            .t
            .iter()
            .zip(&self.c_avg)
            .map(|(t, c)| t * c)
            .collect();
        let total: f64 = shares.iter().sum();
        self.dominant = if total > 0.0 {
            shares
                .iter()
                .position(|s| s / total >= DOMINANT_FRACTION)
        } else {
            None
        };
        Some(reg)
    }

    /// The MBR EVAL for a fitted regression: the dominant component's
    /// `T_i` when one exists, else `T_avg = Σ T_i · C_avg,i` (paper Eq. 4).
    pub fn eval_of(&self, reg: &linreg::Regression) -> f64 {
        match self.dominant {
            Some(i) => reg.t[i],
            None => reg.t.iter().zip(&self.c_avg).map(|(t, c)| t * c).sum(),
        }
    }

    /// Fit the model to timed rows, outlier rows trimmed jointly by time:
    /// the rating's (EVAL, VAR), or `None` when the regression is
    /// singular.
    pub(crate) fn fit(&self, times: &[f64], counts: &[Vec<f64>]) -> Option<(f64, f64)> {
        let (t, c) = crate::stats::trimmed_rows(times, counts);
        let reg = linreg::solve(&t, &c)?;
        Some((self.eval_of(&reg), reg.var))
    }

    /// Number of components (including the constant one).
    pub fn num_components(&self) -> usize {
        self.comps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::{bzip2::Bzip2FullGtU, mgrid::MgridResid, swim::SwimCalc3};

    #[test]
    fn mgrid_model_has_expr_component_and_no_counters() {
        // resid is perfectly regular: body count derives from the grid
        // size; MBR needs no runtime counters at all.
        let w = MgridResid::new();
        let model = discover(&w).expect("MBR applies to MGRID");
        assert!(model.num_components() >= 2);
        assert!(model.num_components() <= MAX_COMPONENTS);
        assert_eq!(model.num_counters, 0, "all counts compile-time derivable");
        assert!(model
            .comps
            .iter()
            .any(|c| matches!(c, CompCount::Expr(_))));
    }

    #[test]
    fn mgrid_counts_track_grid_size() {
        let w = MgridResid::new();
        let model = discover(&w).unwrap();
        let row = model.count_row(&[Value::I64(10)], &[]);
        // Some component equals (m-2)^2 = 64 or a linear relative of it.
        assert!(
            row.iter().any(|&c| (c - 64.0).abs() < 1e-9 || (c - 72.0).abs() < 1e-9),
            "{row:?}"
        );
        assert_eq!(*row.last().unwrap(), 1.0, "constant component");
    }

    #[test]
    fn bzip2_needs_runtime_counters() {
        // Data-dependent exits: counts are not derivable from entry args.
        let w = Bzip2FullGtU::new();
        if let Some(model) = discover(&w) {
            assert!(model.num_counters > 0, "irregular counts need counters");
        }
        // (Component explosion making it None is also acceptable.)
    }

    #[test]
    fn swim_collapses_to_few_components() {
        // One context: all counts constant across invocations → everything
        // folds into few components.
        let w = SwimCalc3::new();
        let model = discover(&w).expect("SWIM is regular");
        assert!(model.num_components() <= 2, "{:?}", model.comps.len());
    }

    #[test]
    fn figure2_rating_flow() {
        // End-to-end MBR rating on the paper's Figure 2 numbers.
        let w = MgridResid::new();
        let mut model = discover(&w).unwrap();
        // Two components: iterations + constant (synthetic data).
        model.comps = vec![CompCount::Counter(0), CompCount::Constant];
        model.c_avg = vec![69.0, 1.0];
        let counts: Vec<Vec<f64>> = [100.0, 50.0, 60.0, 55.0, 80.0]
            .iter()
            .map(|&c| vec![c, 1.0])
            .collect();
        let times = [11015.0, 5508.0, 6626.0, 6044.0, 8793.0];
        let reg = model.fit_profile_times(&times, &counts).unwrap();
        assert!((reg.t[0] - 110.05).abs() < 0.2);
        assert_eq!(model.dominant, Some(0), "first component dominates");
        assert!((model.eval_of(&reg) - reg.t[0]).abs() < 1e-12);
    }
}
