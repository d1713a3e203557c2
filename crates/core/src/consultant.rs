//! The Rating Approach Consultant (paper Fig. 5, §3): annotates a tuning
//! section with its applicable rating methods, in increasing-overhead
//! order (CBR → MBR → RBR), based on compile-time analysis plus a profile
//! run with the tuning input.

use crate::context::{reduce_key, ContextKey, ContextProfile};
use crate::harness::RunHarness;
use crate::mbr::{self, MbrModel};
use peak_ir::{
    context_set, mem_effects, ContextAnalysis, ContextSource, MemId, MemoryImage, Value,
};
use peak_workloads::{Dataset, Workload};
use peak_util::{Json, ToJson};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A rating method (plus the two baselines of §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Context-based rating.
    Cbr,
    /// Model-based rating.
    Mbr,
    /// Re-execution-based rating (improved protocol by default).
    Rbr,
    /// Whole-program rating (state-of-the-art baseline).
    Whl,
    /// Context-oblivious averaging (naive baseline).
    Avg,
}

impl ToJson for Method {
    fn to_json(&self) -> Json {
        // Variant-name strings, matching serde's external enum tagging so
        // the committed golden result files stay comparable.
        Json::Str(
            match self {
                Method::Cbr => "Cbr",
                Method::Mbr => "Mbr",
                Method::Rbr => "Rbr",
                Method::Whl => "Whl",
                Method::Avg => "Avg",
            }
            .to_owned(),
        )
    }
}

impl Method {
    /// Parse the JSON variant string written by [`ToJson`].
    pub fn from_json_name(name: &str) -> Option<Method> {
        Some(match name {
            "Cbr" => Method::Cbr,
            "Mbr" => Method::Mbr,
            "Rbr" => Method::Rbr,
            "Whl" => Method::Whl,
            "Avg" => Method::Avg,
            _ => return None,
        })
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Cbr => "CBR",
            Method::Mbr => "MBR",
            Method::Rbr => "RBR",
            Method::Whl => "WHL",
            Method::Avg => "AVG",
        }
    }
}

/// CBR plan: which sources vary, and the contexts seen in the profile.
#[derive(Debug, Clone)]
pub struct CbrPlan {
    /// Whether the context count fits the consultant's budget. A plan
    /// over budget is excluded from the method order but can still be
    /// forced (Figure 7 plots MGRID_CBR exactly to show the pathology).
    pub within_budget: bool,
    /// All context sources from the Figure-1 analysis.
    pub sources: Vec<ContextSource>,
    /// Indices of sources that vary at run time (rest are run-time
    /// constants, removed per §2.2).
    pub varying: Vec<usize>,
    /// Distinct (reduced) contexts in the profile.
    pub contexts: Vec<(ContextKey, usize)>,
}

impl CbrPlan {
    /// The context of the invocation `h` is about to run: the index in
    /// `contexts` of its key with the run-time constants removed (0 is
    /// the most frequent, the one offline tuning rates, §2.2), or `None`
    /// for a context the profile never saw.
    pub(crate) fn context_of(&self, h: &RunHarness<'_>, args: &[Value]) -> Option<usize> {
        self.context_index(&h.context_key(&self.sources, args))
    }

    /// [`CbrPlan::context_of`] for a key already read over `sources`.
    pub(crate) fn context_index(&self, key: &ContextKey) -> Option<usize> {
        let key = reduce_key(key, &self.varying);
        self.contexts.iter().position(|(k, _)| *k == key)
    }
}

/// RBR plan: what to save/restore.
#[derive(Debug, Clone)]
pub struct RbrPlan {
    /// Every region the TS may write: the save set. It contains the
    /// paper's `Modified_Input` (read ∩ written, Eq. 6), the part that
    /// affects re-execution fidelity, and adds the regions written but
    /// never read, whose restore keeps program state correct.
    pub modified_regions: Vec<MemId>,
    /// Full input regions (reads) — the basic method's larger save set.
    pub input_regions: Vec<MemId>,
    /// Total elements in the modified regions.
    pub modified_elems: usize,
    /// Use the write-inspector (cell-granular undo log) instead of whole
    /// region copies (paper §2.4.2's irregular-writes optimization).
    pub inspector: bool,
}

/// Consultant output for one TS.
#[derive(Debug)]
pub struct Consultation {
    /// CBR plan when applicable.
    pub cbr: Option<CbrPlan>,
    /// MBR model when applicable.
    pub mbr: Option<MbrModel>,
    /// RBR always has a plan.
    pub rbr: RbrPlan,
    /// Applicable methods, least-overhead first (the initial choice is
    /// the first; rating-time failures move down the list, §3).
    pub order: Vec<Method>,
}

impl Consultation {
    /// Whether `method` can rate this TS: CBR needs a context plan and MBR
    /// a model; RBR and the WHL and AVG baselines always apply.
    pub(crate) fn applies(&self, method: Method) -> bool {
        match method {
            Method::Cbr => self.cbr.is_some(),
            Method::Mbr => self.mbr.is_some(),
            Method::Rbr | Method::Whl | Method::Avg => true,
        }
    }
}

/// Context-count budget for CBR (MGRID's 12-level stream exceeds this —
/// the Figure-7 MGRID_CBR pathology).
pub const MAX_CBR_CONTEXTS: usize = 8;
/// Minimum profile hits for the most important context.
pub const MIN_CONTEXT_HITS: usize = 10;
/// MBR profile-VAR acceptance threshold: above this the linear model
/// explains the TS too poorly to rate with (the integer benchmarks).
pub const MAX_MBR_PROFILE_VAR: f64 = 0.08;
/// Region size beyond which RBR uses the write inspector.
pub const INSPECTOR_THRESHOLD_ELEMS: usize = 1024;
/// Profile length (invocations).
pub const PROFILE_INVOCATIONS: usize = 160;

/// Run the consultant for a workload on a machine.
pub fn consult(workload: &dyn Workload, spec: &peak_sim::MachineSpec) -> Consultation {
    let prog = workload.program();
    let ts = workload.ts();
    // --- RBR plan (always applicable; our TSs avoid side-effecting
    // library calls by construction, §2.4.1). ---
    let effects = mem_effects(prog, ts);
    // Restoring must undo every write; writes to regions the TS never
    // reads still change program state, so the save set is the write set
    // (which contains read∩written). The paper's Modified_Input is the
    // part that affects *re-execution fidelity*; we save all written
    // regions for state correctness and report the Eq. 6 set separately.
    let save_set = effects.writes.clone();
    let modified_elems: usize = {
        let mem = MemoryImage::new(prog);
        mem.region_elems(&save_set)
    };
    let rbr = RbrPlan {
        modified_regions: save_set,
        input_regions: effects.reads.clone(),
        modified_elems,
        inspector: modified_elems > INSPECTOR_THRESHOLD_ELEMS,
    };
    // --- CBR: Figure-1 analysis + context profile. ---
    let mut cbr = None;
    if let ContextAnalysis::Applicable(sources) = context_set(prog.func(ts)) {
        // Profile the context stream.
        let mut mem = MemoryImage::new(prog);
        let mut rng = StdRng::seed_from_u64(0x7472_6169_6e00);
        workload.setup(Dataset::Train, &mut mem, &mut rng);
        let mut profile = ContextProfile::new(sources.len());
        let n = PROFILE_INVOCATIONS.min(workload.invocations(Dataset::Train));
        for inv in 0..n {
            let args = workload.args(Dataset::Train, inv, &mut mem, &mut rng);
            profile.record(crate::context::key_for(&sources, &args, &mem));
        }
        let varying = profile.varying_sources();
        let contexts = profile.context_histogram(&varying);
        let within_budget = contexts.len() <= MAX_CBR_CONTEXTS
            && contexts.first().is_some_and(|(_, c)| *c >= MIN_CONTEXT_HITS.min(n / 4));
        if !contexts.is_empty() {
            cbr = Some(CbrPlan { within_budget, sources, varying, contexts });
        }
    }
    // --- MBR: component discovery + timing-fit quality. ---
    let mut mbr_model = mbr::discover(workload);
    if let Some(model) = &mut mbr_model {
        // Timing profile on the simulator with the instrumented -O3
        // version: does the linear model explain the time?
        let quality_ok = profile_mbr_quality(workload, spec, model);
        if !quality_ok {
            mbr_model = None;
        }
    }
    // --- Order: CBR → MBR → RBR (increasing overhead, §3). ---
    let mut order = Vec::new();
    if cbr.as_ref().is_some_and(|p| p.within_budget) {
        order.push(Method::Cbr);
    }
    if mbr_model.is_some() {
        order.push(Method::Mbr);
    }
    order.push(Method::Rbr);
    Consultation { cbr, mbr: mbr_model, rbr, order }
}

/// Time the instrumented -O3 version over the profile stream and fit the
/// component model; accept MBR when the fit's VAR is small.
fn profile_mbr_quality(
    workload: &dyn Workload,
    spec: &peak_sim::MachineSpec,
    model: &mut MbrModel,
) -> bool {
    use crate::version_cache::{VersionCache, VersionKey};
    let cfg = peak_opt::OptConfig::o3();
    let pv = VersionCache::global().get_or_prepare(
        VersionKey::instrumented(workload, cfg, spec.kind),
        spec,
        &peak_obs::Tracer::disabled(),
        || crate::compile::compile_validated(&model.instrumented, model.ts, &cfg),
    );
    let mut h = RunHarness::new(workload, Dataset::Train, spec, 0xbeef);
    let opts = peak_sim::ExecOptions { record_writes: false, num_counters: model.num_counters };
    let mut times = Vec::new();
    let mut counts = Vec::new();
    let n = PROFILE_INVOCATIONS.min(workload.invocations(Dataset::Train));
    h.run_engine(&*pv, &opts, &[], |machine, inv| {
        let measured = machine.measure(inv.true_cycles).expect("no fault plan, no dropout");
        times.push(measured as f64);
        counts.push(model.count_row(inv.args, inv.counters));
        times.len() < n
    })
    .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name()));
    // Trim outlier rows jointly (by time) before fitting.
    let (ft, fc) = crate::stats::trimmed_rows(&times, &counts);
    match model.fit_profile_times(&ft, &fc) {
        Some(reg) => reg.var <= MAX_MBR_PROFILE_VAR,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::MachineSpec;
    use peak_workloads::*;

    fn order_of(w: &dyn Workload) -> Vec<Method> {
        consult(w, &MachineSpec::sparc_ii()).order
    }

    #[test]
    fn swim_prefers_cbr_with_one_context() {
        let w = swim::SwimCalc3::new();
        let c = consult(&w, &MachineSpec::sparc_ii());
        assert_eq!(c.order[0], Method::Cbr, "{:?}", c.order);
        let plan = c.cbr.as_ref().unwrap();
        assert_eq!(plan.contexts.len(), 1, "single context (n is a run-time constant)");
        assert!(plan.varying.is_empty(), "n never varies");
    }

    #[test]
    fn apsi_cbr_with_three_contexts() {
        let w = apsi::ApsiRadb4::new();
        let c = consult(&w, &MachineSpec::sparc_ii());
        assert_eq!(c.order[0], Method::Cbr);
        assert_eq!(c.cbr.as_ref().unwrap().contexts.len(), 3);
    }

    #[test]
    fn mgrid_rejects_cbr_keeps_mbr() {
        let w = mgrid::MgridResid::new();
        let c = consult(&w, &MachineSpec::sparc_ii());
        let plan = c.cbr.as_ref().expect("plan kept for forced-CBR experiments");
        assert!(!plan.within_budget, "11 contexts exceed the CBR budget");
        assert!(plan.contexts.len() > MAX_CBR_CONTEXTS);
        assert_eq!(c.order[0], Method::Mbr, "{:?}", c.order);
        assert!(!c.order.contains(&Method::Cbr));
    }

    #[test]
    fn integer_benchmarks_fall_through_to_rbr() {
        for w in [
            Box::new(bzip2::Bzip2FullGtU::new()) as Box<dyn Workload>,
            Box::new(crafty::CraftyAttacked::new()),
            Box::new(gzip::GzipLongestMatch::new()),
            Box::new(twolf::TwolfNewDboxA::new()),
        ] {
            let order = order_of(w.as_ref());
            assert_eq!(
                order.first(),
                Some(&Method::Rbr),
                "{} should land on RBR: {:?}",
                w.name(),
                order
            );
        }
    }

    #[test]
    fn art_lands_on_rbr() {
        let w = art::ArtMatch::new();
        let order = order_of(&w);
        assert_eq!(order.first(), Some(&Method::Rbr), "{order:?}");
    }

    #[test]
    fn rbr_plans_differ_in_inspector_mode() {
        // SWIM writes big dense arrays → region copies; EQUAKE writes a
        // large region sparsely → inspector.
        let swim_plan = consult(&swim::SwimCalc3::new(), &MachineSpec::sparc_ii()).rbr;
        assert!(!swim_plan.modified_regions.is_empty());
        let eq_plan = consult(&equake::EquakeSmvp::new(), &MachineSpec::sparc_ii()).rbr;
        assert!(eq_plan.inspector, "vout is large: {} elems", eq_plan.modified_elems);
    }

    #[test]
    fn rbr_always_last_in_order() {
        for w in all_workloads() {
            let order = order_of(w.as_ref());
            assert_eq!(order.last(), Some(&Method::Rbr), "{}", w.name());
        }
    }
}
