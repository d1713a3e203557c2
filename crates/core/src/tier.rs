//! Execution-tier glue: builds the engine a version runs on and counts
//! tier telemetry in the global metrics registry.
//!
//! [`build_engine`] is the one place an engine is built. The version
//! cache calls it for the jit tier once per version, when the entry is
//! built: the version is lowered there and only the lowered code is
//! kept; a version whose lowering declines keeps its predecoded engine
//! for good (the per-version fallback the tier ladder promises), emits
//! one `jit.deopt` trace event and bumps `core.jit.deopts`. Tests and
//! benches that compare tiers call it for the tier they name. The run
//! harness just executes whatever engine it is handed. The metric names
//! are:
//!
//! * `core.jit.blocks_compiled` — basic blocks lowered to threaded code
//! * `core.jit.deopts` — versions that declined lowering (fell back)
//! * `core.jit.tier_invocations.{predecoded,jit}` — invocations executed
//!   per production engine (the predecoded count is the jit tier's
//!   fallback executions)

use peak_obs::metrics::{self, Counter, MetricsRegistry};
use peak_obs::Tracer;
use peak_sim::{ExecTier, InterpVersion, PreparedVersion, TierBackend};
use peak_util::Json;
use std::sync::{Arc, OnceLock};

macro_rules! cached_counter {
    ($name:literal, $help:literal) => {{
        static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
        CELL.get_or_init(|| MetricsRegistry::global().counter($name, $help))
    }};
}

/// Count one executed invocation against the tier of the engine that
/// ran it (hot path: one relaxed flag load, then a cached-handle
/// `fetch_add`). The interp engine is built only where tests compare
/// tiers, so it has no counter.
#[inline]
pub(crate) fn count_tier(engine: &dyn TierBackend) {
    if !metrics::enabled() {
        return;
    }
    match engine.tier() {
        ExecTier::Interp => return,
        ExecTier::Predecoded => cached_counter!(
            "core.jit.tier_invocations.predecoded",
            "TS invocations executed by the predecoded tier (includes jit fallback)"
        ),
        ExecTier::Jit => cached_counter!(
            "core.jit.tier_invocations.jit",
            "TS invocations executed by the threaded-code jit tier"
        ),
    }
    .inc();
}

/// Ensure the jit tier counters exist in the registry (at zero) so
/// stats snapshots always carry them, even before the first jit-tier
/// invocation. Called by the serve daemon's stats path.
pub fn register_jit_metrics() {
    cached_counter!(
        "core.jit.tier_invocations.predecoded",
        "TS invocations executed by the predecoded tier (includes jit fallback)"
    );
    cached_counter!(
        "core.jit.tier_invocations.jit",
        "TS invocations executed by the threaded-code jit tier"
    );
    cached_counter!("core.jit.blocks_compiled", "Basic blocks lowered to threaded code");
    cached_counter!("core.jit.deopts", "Versions that declined jit lowering (fell back)");
}

/// Build the engine `tier` runs `pv` on. For [`ExecTier::Jit`] the
/// version is lowered (budget from `PEAK_JIT_MAX_STMTS`) and `pv` is
/// dropped, so the engine holds only the lowered code; when lowering
/// declines, `pv` itself is the engine, and the refusal is counted in
/// `core.jit.deopts` and traced as one `jit.deopt` event on `tracer`.
pub fn build_engine(pv: PreparedVersion, tier: ExecTier, tracer: &Tracer) -> Arc<dyn TierBackend> {
    match tier {
        ExecTier::Interp => Arc::new(InterpVersion(pv)),
        ExecTier::Predecoded => Arc::new(pv),
        ExecTier::Jit => match peak_jit::lower(&pv, &peak_jit::JitOptions::from_env()) {
            Ok(jv) => {
                if metrics::enabled() {
                    cached_counter!(
                        "core.jit.blocks_compiled",
                        "Basic blocks lowered to threaded code"
                    )
                    .add(jv.blocks() as u64);
                }
                Arc::new(jv)
            }
            Err(reason) => {
                if metrics::enabled() {
                    cached_counter!(
                        "core.jit.deopts",
                        "Versions that declined jit lowering (fell back)"
                    )
                    .inc();
                }
                if tracer.enabled() {
                    tracer.emit(
                        "jit.deopt",
                        vec![("reason".to_owned(), Json::Str(reason.to_string()))],
                    );
                }
                Arc::new(pv)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_opt::OptConfig;
    use peak_sim::MachineSpec;
    use peak_workloads::Workload;

    #[test]
    fn each_tier_builds_its_own_engine() {
        let w = peak_workloads::swim::SwimCalc3::new();
        let cv = peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3());
        let pv = PreparedVersion::prepare(cv, &MachineSpec::sparc_ii());
        let t = Tracer::disabled();
        for tier in ExecTier::ALL {
            let engine = build_engine(pv.clone(), tier, &t);
            assert_eq!(engine.tier(), tier, "swim lowers under the default budget");
            // Only the lowered engine drops the interpretive body.
            assert_eq!(engine.prepared().is_none(), tier == ExecTier::Jit);
        }
    }
}
