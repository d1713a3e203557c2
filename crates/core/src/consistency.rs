//! The Table 1 experiment: consistency of rating approaches.
//!
//! For each tuning section, rate a single experimental version compiled
//! under -O3 (identical to the base) while sampling EVALs uniformly
//! through execution with different window sizes `w`. The rating error is
//! `X_i = V_i/V̄ − 1` for CBR/MBR and `X_i = V_i − 1` for RBR (the ideal
//! RBR rating of a version against itself is exactly 1) — paper Eq. 7-10.

use crate::consultant::{consult, Method};
use crate::harness::RunHarness;
use crate::stats;
use crate::version_cache::{VersionCache, VersionKey};
use peak_obs::{event, Tracer};
use peak_opt::OptConfig;
use peak_sim::{ExecOptions, MachineSpec, SimMetrics};
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
/// emits per-run simulator metrics and a `table1.row` event per
/// finished row. A disabled tracer makes this exactly
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
    let rows = match method {
        Method::Cbr => cbr_rows(workload, spec, &consultation, tracer),
        Method::Mbr => vec![mbr_row(workload, spec, &consultation, tracer)],
        _ => vec![rbr_row(workload, spec, &consultation, tracer)],
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
                    ("cells".to_owned(), row.cells.to_json()),
                ],
            );
        }
    }
    rows
}

/// Per-run simulator provenance for the Table 1 collectors (the tuning
/// paths get the equivalent event from `TuningSetup::absorb_run`).
fn emit_run(tracer: &Tracer, run: usize, seed: u64, h: &RunHarness<'_>) {
    if !tracer.enabled() {
        return;
    }
    let mut fields = vec![
        ("run".to_owned(), Json::U(run as u64)),
        ("seed".to_owned(), Json::U(seed)),
    ];
    if let Json::Obj(pairs) = SimMetrics::snapshot(&h.machine).to_json() {
        fields.extend(pairs);
    }
    tracer.emit("sim.run", fields);
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
    consultation: &crate::consultant::Consultation,
    tracer: &Tracer,
) -> Vec<ConsistencyRow> {
    let plan = consultation.cbr.as_ref().expect("CBR row needs plan");
    let pv = VersionCache::global().prepare_workload(workload, spec, OptConfig::o3());
    let opts = ExecOptions::default();
    let n_ctx = plan.contexts.len();
    let mut per_ctx: Vec<Vec<f64>> = vec![Vec::new(); n_ctx];
    let mut seed = 100;
    let mut runs = 0;
    while per_ctx.iter().any(|s| s.len() < RAW_SAMPLES) && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut h = RunHarness::new(workload, Dataset::Train, spec, seed);
        while let Some(args) = h.next_args() {
            let key = h.context_key(&plan.sources, &args);
            let reduced = crate::context::reduce_key(&key, &plan.varying);
            let ctx = plan.contexts.iter().position(|(k, _)| *k == reduced);
            let (measured, _) = h.execute_timed(&*pv, &args, &opts);
            if let Some(c) = ctx {
                if per_ctx[c].len() < RAW_SAMPLES {
                    per_ctx[c].push(measured as f64);
                }
            }
        }
        emit_run(tracer, runs, seed, &h);
    }
    if tracer.enabled() {
        let kept: Vec<u64> = per_ctx.iter().map(|s| s.len() as u64).collect();
        event!(tracer, "cbr.contexts_sampled", kept = kept.to_json(), runs = runs as u64);
    }
    per_ctx
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
        .collect()
}

fn mbr_row(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &crate::consultant::Consultation,
    tracer: &Tracer,
) -> ConsistencyRow {
    let model = consultation.mbr.as_ref().expect("MBR row needs model").clone();
    let pv = VersionCache::global().get_or_prepare(
        VersionKey::instrumented(workload, OptConfig::o3(), spec.kind),
        spec,
        tracer,
        || crate::compile::compile_validated(&model.instrumented, model.ts, &OptConfig::o3()),
    );
    let opts = ExecOptions { record_writes: false, num_counters: model.num_counters };
    let mut times: Vec<f64> = Vec::new();
    let mut counts: Vec<Vec<f64>> = Vec::new();
    let mut seed = 200;
    let mut runs = 0;
    while times.len() < RAW_SAMPLES && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut h = RunHarness::new(workload, Dataset::Train, spec, seed);
        while let Some(args) = h.next_args() {
            let (measured, res) = h.execute_timed(&*pv, &args, &opts);
            times.push(measured as f64);
            counts.push(model.count_row(&args, &res.counters));
        }
        emit_run(tracer, runs, seed, &h);
    }
    // V_i per window: regression over each chunk, EVAL from the model.
    let cells = WINDOW_SIZES
        .iter()
        .map(|&w| {
            let vs: Vec<f64> = times
                .chunks_exact(w)
                .zip(counts.chunks_exact(w))
                .filter_map(|(t, c)| {
                    let kept = stats::trim_outliers(t, stats::OUTLIER_K);
                    let keep: std::collections::HashSet<u64> =
                        kept.iter().map(|x| x.to_bits()).collect();
                    let mut ft = Vec::new();
                    let mut fc = Vec::new();
                    for (x, row) in t.iter().zip(c) {
                        if keep.contains(&x.to_bits()) {
                            ft.push(*x);
                            fc.push(row.clone());
                        }
                    }
                    crate::linreg::solve(&ft, &fc).map(|reg| model.eval_of(&reg))
                })
                .collect();
            let vbar = vs.iter().sum::<f64>() / vs.len().max(1) as f64;
            let xs: Vec<f64> = vs.iter().map(|v| v / vbar - 1.0).collect();
            let s = stats::summarize(&xs);
            (w, s.mean * 100.0, s.std_dev() * 100.0)
        })
        .collect();
    ConsistencyRow {
        benchmark: workload.name().to_string(),
        ts: workload.ts_name().to_string(),
        method: Method::Mbr,
        context: 0,
        invocations: workload.invocations(Dataset::Train),
        cells,
    }
}

fn rbr_row(
    workload: &dyn Workload,
    spec: &MachineSpec,
    consultation: &crate::consultant::Consultation,
    tracer: &Tracer,
) -> ConsistencyRow {
    let plan = &consultation.rbr;
    let pv = VersionCache::global().prepare_workload(workload, spec, OptConfig::o3());
    let opts_plain = ExecOptions::default();
    let opts_record = ExecOptions { record_writes: true, num_counters: 0 };
    let mut samples: Vec<f64> = Vec::new();
    let mut seed = 300;
    let mut runs = 0;
    let mut flip = false;
    while samples.len() < RAW_SAMPLES && runs < MAX_RUNS {
        runs += 1;
        seed += 1;
        let mut h = RunHarness::new(workload, Dataset::Train, spec, seed);
        while let Some(args) = h.next_args() {
            if samples.len() >= RAW_SAMPLES {
                break;
            }
            // Improved protocol, experimental version = base version.
            let r = if plan.inspector {
                let res = h.execute(&*pv, &args, &opts_record);
                let cells: Vec<(peak_ir::MemId, i64)> =
                    res.writes.iter().map(|(m, i, _)| (*m, *i)).collect();
                let vals: Vec<peak_ir::Value> = res.writes.iter().map(|(_, _, v)| *v).collect();
                h.restore_cells(&cells, &vals);
                let (t1, _) = h.execute_timed(&*pv, &args, &opts_plain);
                h.restore_cells(&cells, &vals);
                let (t2, _) = h.execute_timed(&*pv, &args, &opts_plain);
                if flip { t2 as f64 / t1.max(1) as f64 } else { t1 as f64 / t2.max(1) as f64 }
            } else {
                let snap = h.save_regions(&plan.modified_regions);
                let _ = h.execute(&*pv, &args, &opts_plain);
                h.restore_regions(&snap);
                let (t1, _) = h.execute_timed(&*pv, &args, &opts_plain);
                h.restore_regions(&snap);
                let (t2, _) = h.execute_timed(&*pv, &args, &opts_plain);
                if flip { t2 as f64 / t1.max(1) as f64 } else { t1 as f64 / t2.max(1) as f64 }
            };
            flip = !flip;
            samples.push(r);
        }
        emit_run(tracer, runs, seed, &h);
    }
    ConsistencyRow {
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
    }
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
