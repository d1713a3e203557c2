//! The Table 1 experiment: consistency of rating approaches.
//!
//! For each tuning section, rate a single experimental version compiled
//! under -O3 (identical to the base) while sampling EVALs uniformly
//! through execution with different window sizes `w`. The rating error is
//! `X_i = V_i/V̄ − 1` for CBR/MBR and `X_i = V_i − 1` for RBR (the ideal
//! RBR rating of a version against itself is exactly 1) — paper Eq. 7-10.
//!
//! A cell collects its samples (2,400 per context) over as many runs as
//! it takes, and those runs differ only in their timer seed: they inject
//! no faults, and a run's seed reaches nothing but its [`NoisyTimer`], so
//! every run executes the same invocations to the same true cycles,
//! contexts and counter rows. Each cell therefore executes one run and
//! records per invocation what a measured run reads from it; measured run
//! `r` is `NoisyTimer::new(spec, base + r)` drawn over that record in
//! order, one draw per timed execution, as a fault-free
//! `RunHarness::try_execute_timed` would draw. The CBR and MBR cells run
//! on one engine throughout, so their run fast-forwards proven repeats
//! (`RunHarness::run_engine`): an invocation that repeats the previous
//! one from a recency-equal cache and predictor state is charged its
//! record instead of simulated, to the same true cycles and counters.
//! The RBR cell's restores touch the caches between executions, so it
//! simulates every one.
//!
//! The collectors run the rating layer's own pieces, not copies of them:
//! the CBR plan's context classifier, the MBR model's fit, and the
//! improved RBR protocol of `RunHarness`, read as true cycles, with the
//! rating layer's `T_base / T_cand` rule.

use crate::consultant::{consult, Consultation, Method};
use crate::harness::RunHarness;
use crate::rating::rbr_ratio;
use crate::stats;
use crate::version_cache::{VersionCache, VersionKey};
use peak_obs::{event, Tracer};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, MachineSpec, NoisyTimer, SimMetrics};
use peak_util::{Json, ToJson};
use peak_workloads::{Dataset, Workload};

/// One row of Table 1 (one context for multi-context CBR sections).
#[derive(Debug, Clone)]
pub struct ConsistencyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Tuning-section name.
    pub ts: String,
    /// Rating approach used.
    pub method: Method,
    /// Context index (1-based) for CBR rows; 0 otherwise.
    pub context: usize,
    /// Invocations of the TS in one run (this reproduction's scaled
    /// count).
    pub invocations: usize,
    /// Per window size: (w, mean×100, stddev×100) — the paper's
    /// "Mean (Standard Deviation) * 100" columns.
    pub cells: Vec<(usize, f64, f64)>,
}

impl ToJson for ConsistencyRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("ts", self.ts.to_json()),
            ("method", self.method.to_json()),
            ("context", self.context.to_json()),
            ("invocations", self.invocations.to_json()),
            ("cells", self.cells.to_json()),
        ])
    }
}

/// Window sizes of Table 1.
pub const WINDOW_SIZES: [usize; 5] = [10, 20, 40, 80, 160];

/// Raw samples collected per context (enough for ≥ 15 windows at w=160).
const RAW_SAMPLES: usize = 2400;
/// Cap on runs while collecting.
const MAX_RUNS: usize = 400;

/// Collect the consistency rows for one workload on one machine.
pub fn consistency_rows(workload: &dyn Workload, spec: &MachineSpec) -> Vec<ConsistencyRow> {
    consistency_rows_traced(workload, spec, &Tracer::disabled())
}

/// [`consistency_rows`] with telemetry: spans each TS's collection,
/// emits the simulator metrics of its one simulated run (`sim.run`) and
/// a `table1.row` event per finished row, carrying the number of
/// measured runs. A disabled tracer makes this exactly
/// [`consistency_rows`] (which delegates here).
pub fn consistency_rows_traced(
    workload: &dyn Workload,
    spec: &MachineSpec,
    tracer: &Tracer,
) -> Vec<ConsistencyRow> {
    let consultation = consult(workload, spec);
    let method = consultation.order[0];
    let _span = if tracer.enabled() {
        Some(tracer.span(
            "table1.collect",
            vec![
                ("benchmark".to_owned(), Json::Str(workload.name().to_owned())),
                ("ts".to_owned(), Json::Str(workload.ts_name().to_owned())),
                ("method".to_owned(), Json::Str(method.name().to_owned())),
            ],
        ))
    } else {
        None
    };
    let (rows, runs) = match method {
        Method::Cbr => cbr_rows(workload, spec, &consultation, tracer),
        Method::Mbr => {
            let (row, runs) = mbr_row(workload, spec, &consultation, tracer);
            (vec![row], runs)
        }
        _ => {
            let (row, runs) = rbr_row(workload, spec, &consultation, tracer);
            (vec![row], runs)
        }
    };
    if tracer.enabled() {
        for row in &rows {
            tracer.emit(
                "table1.row",
                vec![
                    ("benchmark".to_owned(), Json::Str(row.benchmark.clone())),
                    ("ts".to_owned(), Json::Str(row.ts.clone())),
                    ("method".to_owned(), Json::Str(row.method.name().to_owned())),
                    ("context".to_owned(), Json::U(row.context as u64)),
                    ("invocations".to_owned(), Json::U(row.invocations as u64)),
                    ("runs".to_owned(), Json::U(runs as u64)),
                    ("cells".to_owned(), row.cells.to_json()),
                ],
            );
        }
    }
    rows
}

/// Execute one fresh train run with `run` and emit the run's `sim.run`
/// event.
fn simulate<T>(
    workload: &dyn Workload,
    spec: &MachineSpec,
    tracer: &Tracer,
    run: impl FnOnce(&mut RunHarness<'_>) -> T,
) -> T {
    // The seed is the timer's only input, and this run's timer is never read.
    let mut h = RunHarness::new(workload, Dataset::Train, spec, 0);
    let out = run(&mut h);
    if tracer.enabled() {
        if let Json::Obj(fields) = SimMetrics::snapshot(&h.machine).to_json() {
            tracer.emit("sim.run", fields);
        }
    }
    out
}

/// Panic on a failed execution of a Table 1 run (the workloads are
/// fault-free by construction).
fn expect_ran(workload: &dyn Workload, ran: Result<(), peak_sim::ExecError>) {
    ran.unwrap_or_else(|e| panic!("workload {} execution failed: {e}", workload.name()));
}

fn chunked_stats(samples: &[f64], w: usize, relative: bool) -> (f64, f64) {
    // V_i per window of w samples.
    let vs: Vec<f64> = samples
        .chunks_exact(w)
        .map(|c| stats::robust_summary(c).mean)
        .collect();
    let vbar = if relative {
        vs.iter().sum::<f64>() / vs.len().max(1) as f64
    } else {
        1.0
    };
    let xs: Vec<f64> = vs.iter().map(|v| v / vbar - 1.0).collect();
    let s = stats::summarize(&xs);
    (s.mean * 100.0, s.std_dev() * 100.0)
}

fn cbr_rows(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &Consultation,
    tracer: &Tracer,
) -> (Vec<ConsistencyRow>, usize) {
    let plan = consultation.cbr.as_ref().expect("CBR row needs plan");
    let pv = VersionCache::global().prepare_workload(workload, spec, OptConfig::o3());
    let opts = ExecOptions::default();
    let n_ctx = plan.contexts.len();
    // Each invocation's context and true cycles, until this run alone
    // has filled every context.
    let mut filled = vec![0; n_ctx];
    let mut trace = Vec::new();
    let ran = simulate(workload, spec, tracer, |h| {
        h.run_engine(&*pv, &opts, &plan.sources, |_, inv| {
            let ctx = plan.context_index(inv.context);
            if let Some(c) = ctx {
                filled[c] += 1;
            }
            trace.push((ctx, inv.true_cycles));
            filled.iter().any(|&n| n < RAW_SAMPLES)
        })
    });
    expect_ran(workload, ran);
    let mut per_ctx: Vec<Vec<f64>> = vec![Vec::new(); n_ctx];
    let mut seed = 100;
    let mut runs = 0;
    while per_ctx.iter().any(|s| s.len() < RAW_SAMPLES) && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut timer = NoisyTimer::new(spec, seed);
        for &(ctx, cycles) in &trace {
            let measured = timer.measure(cycles);
            if let Some(c) = ctx {
                if per_ctx[c].len() < RAW_SAMPLES {
                    per_ctx[c].push(measured as f64);
                }
            }
        }
    }
    if tracer.enabled() {
        let kept: Vec<u64> = per_ctx.iter().map(|s| s.len() as u64).collect();
        event!(tracer, "cbr.contexts_sampled", kept = kept.to_json(), runs = runs as u64);
    }
    let rows = per_ctx
        .into_iter()
        .enumerate()
        .map(|(c, samples)| ConsistencyRow {
            benchmark: workload.name().to_string(),
            ts: workload.ts_name().to_string(),
            method: Method::Cbr,
            context: if n_ctx > 1 { c + 1 } else { 0 },
            invocations: workload.invocations(Dataset::Train),
            cells: WINDOW_SIZES
                .iter()
                .map(|&w| {
                    let (m, s) = chunked_stats(&samples, w, true);
                    (w, m, s)
                })
                .collect(),
        })
        .collect();
    (rows, runs)
}

fn mbr_row(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &Consultation,
    tracer: &Tracer,
) -> (ConsistencyRow, usize) {
    let model = consultation.mbr.as_ref().expect("MBR row needs model").clone();
    let pv = VersionCache::global().get_or_prepare(
        VersionKey::instrumented(workload, OptConfig::o3(), spec.kind),
        spec,
        tracer,
        || crate::compile::compile_validated(&model.instrumented, model.ts, &OptConfig::o3()),
    );
    let opts = ExecOptions { record_writes: false, num_counters: model.num_counters };
    // Each invocation's true cycles and count row. A row uses every
    // invocation of every run, so the run is executed whole.
    let mut trace = Vec::new();
    let ran = simulate(workload, spec, tracer, |h| {
        h.run_engine(&*pv, &opts, &[], |_, inv| {
            trace.push((inv.true_cycles, model.count_row(inv.args, inv.counters)));
            true
        })
    });
    expect_ran(workload, ran);
    let mut times: Vec<f64> = Vec::new();
    let mut counts: Vec<Vec<f64>> = Vec::new();
    let mut seed = 200;
    let mut runs = 0;
    while times.len() < RAW_SAMPLES && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut timer = NoisyTimer::new(spec, seed);
        for (cycles, row) in &trace {
            times.push(timer.measure(*cycles) as f64);
            counts.push(row.clone());
        }
    }
    // V_i per window: regression over each chunk, EVAL from the model.
    let cells = WINDOW_SIZES
        .iter()
        .map(|&w| {
            let vs: Vec<f64> = times
                .chunks_exact(w)
                .zip(counts.chunks_exact(w))
                .filter_map(|(t, c)| model.fit(t, c).map(|(eval, _)| eval))
                .collect();
            let vbar = vs.iter().sum::<f64>() / vs.len().max(1) as f64;
            let xs: Vec<f64> = vs.iter().map(|v| v / vbar - 1.0).collect();
            let s = stats::summarize(&xs);
            (w, s.mean * 100.0, s.std_dev() * 100.0)
        })
        .collect();
    let row = ConsistencyRow {
        benchmark: workload.name().to_string(),
        ts: workload.ts_name().to_string(),
        method: Method::Mbr,
        context: 0,
        invocations: workload.invocations(Dataset::Train),
        cells,
    };
    (row, runs)
}

fn rbr_row(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &Consultation,
    tracer: &Tracer,
) -> (ConsistencyRow, usize) {
    let pv = VersionCache::global().prepare_workload(workload, spec, OptConfig::o3());
    // The rating layer's improved protocol, experimental version = base
    // version: each invocation's two timed executions, up to one per
    // sample.
    let trace = simulate(workload, spec, tracer, |h| {
        let mut trace = Vec::new();
        while trace.len() < RAW_SAMPLES {
            let Some(args) = h.next_args() else { break };
            let pair = h
                .rbr_improved(&consultation.rbr, &*pv, [&*pv, &*pv], &args, |_, cycles| cycles)
                .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name()));
            trace.push(pair);
        }
        trace
    });
    let mut samples: Vec<f64> = Vec::new();
    let mut seed = 300;
    let mut runs = 0;
    let mut flip = false;
    while samples.len() < RAW_SAMPLES && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut timer = NoisyTimer::new(spec, seed);
        for &[c1, c2] in &trace {
            if samples.len() >= RAW_SAMPLES {
                break;
            }
            samples.push(rbr_ratio(timer.measure(c1), timer.measure(c2), flip));
            flip = !flip;
        }
    }
    let row = ConsistencyRow {
        benchmark: workload.name().to_string(),
        ts: workload.ts_name().to_string(),
        method: Method::Rbr,
        context: 0,
        invocations: workload.invocations(Dataset::Train),
        cells: WINDOW_SIZES
            .iter()
            .map(|&w| {
                let (m, s) = chunked_stats(&samples, w, false);
                (w, m, s)
            })
            .collect(),
    };
    (row, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::{swim::SwimCalc3, vortex::VortexChkGetChunk};

    #[test]
    fn swim_cbr_consistency_tightens_with_window() {
        let w = SwimCalc3::new();
        let rows = consistency_rows(&w, &MachineSpec::sparc_ii());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.method, Method::Cbr);
        let sd10 = row.cells[0].2;
        let sd160 = row.cells[4].2;
        assert!(
            sd160 < sd10,
            "σ should shrink with window size: w10={sd10:.3} w160={sd160:.3}"
        );
        // Means hover near zero (×100 scale).
        for &(w, m, _) in &row.cells {
            assert!(m.abs() < 2.0, "w={w}: mean {m:.3} too far from 0");
        }
    }

    #[test]
    fn vortex_rbr_mean_near_one() {
        let w = VortexChkGetChunk::new();
        let rows = consistency_rows(&w, &MachineSpec::sparc_ii());
        let row = &rows[0];
        assert_eq!(row.method, Method::Rbr);
        // X = V − 1 with identical versions: |mean| small at large w.
        let (_, m160, sd160) = row.cells[4];
        assert!(m160.abs() < 3.0, "mean {m160:.3}");
        assert!(sd160 < 10.0, "σ {sd160:.3}");
    }
}
