//! The tuning-job API: one self-contained, deterministic unit of tuning
//! work (spec + machine + budget → [`TuneReport`]), extracted from the
//! table1/figure7 drivers so the serve daemon, the storm harness, and
//! the offline bins all run the *same* code path.
//!
//! Robustness contract:
//!
//! * **Panic isolation.** [`run_tuning_job`] executes the whole job
//!   under `catch_unwind`; any panic — a workload bug, an injected
//!   fault, a poisoned invariant — comes back as a structured
//!   [`JobError::Panicked`], never unwinds into the caller's loop.
//! * **Cooperative cancellation.** A [`CancelToken`] is threaded through
//!   the [`TuningSetup`](crate::rating::TuningSetup): every application-
//!   run start and IE round boundary checks it and unwinds with the
//!   [`Cancelled`] sentinel, which the job boundary maps to
//!   [`JobError::Cancelled`]. Deadline enforcement is just "arm a timer
//!   that fires the token" (see `peak-serve`'s supervisor).
//! * **Determinism.** With a token that never fires and the default O3
//!   start, a job's [`TuneReport`] is bit-identical to
//!   [`tune`] with the same tracer and pool — the
//!   serve_storm harness pins this down.

use crate::consultant::Method;
use crate::sched::Pool;
use crate::tuner::{tune, TuneOptions, TuneReport};
use peak_obs::Tracer;
use peak_sim::MachineSpec;
use peak_util::{Json, ToJson};
use peak_workloads::Dataset;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Panic payload used for cooperative cancellation: the tuning loop
/// unwinds with this sentinel (via [`CancelToken::check`]) and the job
/// boundary converts it to [`JobError::Cancelled`] instead of treating
/// it as a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// Shared cancellation flag. Clones observe the same flag; firing it is
/// sticky. Cancellation is *cooperative*: nothing stops until the
/// running job reaches its next check point (an application-run start or
/// an IE round boundary).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// New un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire the token: every holder's next [`CancelToken::check`]
    /// unwinds.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// Cancellation point: unwind with the [`Cancelled`] sentinel when
    /// fired, else no-op.
    pub fn check(&self) {
        if self.is_cancelled() {
            std::panic::panic_any(Cancelled);
        }
    }
}

/// Specification of one tuning job — everything needed to reproduce the
/// result offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningJobSpec {
    /// Benchmark name (case-insensitive; must resolve via
    /// [`peak_workloads::workload_by_name`]).
    pub benchmark: String,
    /// Machine name (`"SPARC-II"` or `"Pentium-IV"`, case-insensitive;
    /// `"sparc"`/`"p4"` shorthands accepted).
    pub machine: String,
    /// Rating method; `None` lets the consultant pick (its preferred
    /// method for this TS).
    pub method: Option<Method>,
    /// Tuning dataset (production evaluation always runs on ref).
    pub dataset: Dataset,
    /// IE start configuration (flag bits); `None` starts from O3. Set by
    /// the serve daemon's knowledge-store warm start.
    pub start_bits: Option<u64>,
    /// Search strategy name (resolved via
    /// [`strategy_kind_by_name`](crate::strategy::strategy_kind_by_name)).
    /// `None` runs the legacy serial IE — the goldens-compatible path;
    /// note that even explicit `"ie"` selects the restructured
    /// per-candidate parallel protocol, whose numbers differ from the
    /// serial one's.
    pub strategy: Option<String>,
}

impl TuningJobSpec {
    /// Job for `benchmark` on `machine` with the consultant-preferred
    /// method, tuning on train, starting from O3.
    pub fn new(benchmark: &str, machine: &str) -> Self {
        TuningJobSpec {
            benchmark: benchmark.to_owned(),
            machine: machine.to_owned(),
            method: None,
            dataset: Dataset::Train,
            start_bits: None,
            strategy: None,
        }
    }
}

impl ToJson for TuningJobSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", self.benchmark.to_json()),
            ("machine", self.machine.to_json()),
            ("method", self.method.map(|m| m.name().to_owned()).to_json()),
            ("dataset", self.dataset.name().to_json()),
            ("start_bits", self.start_bits.to_json()),
            ("strategy", self.strategy.clone().to_json()),
        ])
    }
}

/// Structured job failure — the serve daemon's error taxonomy at the
/// core layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// `benchmark` did not resolve to a workload.
    UnknownBenchmark(String),
    /// `machine` did not resolve to a machine spec.
    UnknownMachine(String),
    /// `method` string did not resolve to a rating method.
    UnknownMethod(String),
    /// `strategy` string did not resolve to a search strategy.
    UnknownStrategy(String),
    /// The cancel token fired mid-job (deadline or shutdown).
    Cancelled,
    /// The job panicked; the payload's message, best-effort.
    Panicked(String),
}

impl JobError {
    /// Stable machine-readable kind string (serve protocol `error` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::UnknownBenchmark(_) => "unknown_benchmark",
            JobError::UnknownMachine(_) => "unknown_machine",
            JobError::UnknownMethod(_) => "unknown_method",
            JobError::UnknownStrategy(_) => "unknown_strategy",
            JobError::Cancelled => "cancelled",
            JobError::Panicked(_) => "panicked",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::UnknownBenchmark(b) => write!(f, "unknown benchmark {b:?}"),
            JobError::UnknownMachine(m) => write!(f, "unknown machine {m:?}"),
            JobError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            JobError::UnknownStrategy(s) => write!(f, "unknown strategy {s:?}"),
            JobError::Cancelled => write!(f, "cancelled (deadline or shutdown)"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Resolve a machine name (the [`MachineKind::name`](peak_sim::MachineKind)
/// strings, case-insensitive, plus `"sparc"`/`"p4"`/`"pentium4"` shorthands).
pub fn machine_spec_by_name(name: &str) -> Option<MachineSpec> {
    match name.to_ascii_lowercase().as_str() {
        "sparc-ii" | "sparc" | "sparcii" => Some(MachineSpec::sparc_ii()),
        "pentium-iv" | "p4" | "pentiumiv" | "pentium" | "pentium4" => Some(MachineSpec::pentium_iv()),
        _ => None,
    }
}

/// Resolve a rating method name (case-insensitive `CBR`/`MBR`/`RBR`/
/// `AVG`/`WHL`).
pub fn method_by_name(name: &str) -> Option<Method> {
    match name.to_ascii_lowercase().as_str() {
        "cbr" => Some(Method::Cbr),
        "mbr" => Some(Method::Mbr),
        "rbr" => Some(Method::Rbr),
        "avg" => Some(Method::Avg),
        "whl" => Some(Method::Whl),
        _ => None,
    }
}

/// Run one tuning job to completion under panic isolation.
///
/// Spec errors (unknown benchmark/machine) return structured errors
/// before any tuning work. The tuning itself runs under `catch_unwind`:
/// the [`Cancelled`] sentinel maps to [`JobError::Cancelled`], any other
/// panic to [`JobError::Panicked`]. The pool stays usable afterwards
/// (`peak-core::sched` locks are poison-tolerant and its token budget is
/// released on unwind).
pub fn run_tuning_job(
    spec: &TuningJobSpec,
    tracer: Tracer,
    pool: &Pool,
    cancel: CancelToken,
) -> Result<TuneReport, JobError> {
    let workload = peak_workloads::workload_by_name(&spec.benchmark)
        .ok_or_else(|| JobError::UnknownBenchmark(spec.benchmark.clone()))?;
    let machine = machine_spec_by_name(&spec.machine)
        .ok_or_else(|| JobError::UnknownMachine(spec.machine.clone()))?;
    let method = match spec.method {
        Some(m) => m,
        // Consultant picks: its order always starts with the preferred
        // applicable method (RBR is universally applicable).
        None => crate::consultant::consult(workload.as_ref(), &machine).order[0],
    };
    let strategy = match &spec.strategy {
        None => None,
        Some(name) => Some(
            crate::strategy::strategy_kind_by_name(name)
                .ok_or_else(|| JobError::UnknownStrategy(name.clone()))?,
        ),
    };
    let opts = TuneOptions {
        tracer,
        pool: pool.clone(),
        start: spec.start_bits.map(peak_opt::OptConfig::from_bits),
        cancel,
        strategy,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        tune(workload.as_ref(), &machine, method, spec.dataset, &opts)
    }));
    match result {
        Ok(report) => Ok(report),
        Err(payload) => Err(classify_panic(payload)),
    }
}

/// Map a caught panic payload to a [`JobError`]: the [`Cancelled`]
/// sentinel is a deadline, everything else a crash (message extracted
/// when the payload is a string).
pub fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> JobError {
    if payload.is::<Cancelled>() {
        return JobError::Cancelled;
    }
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    JobError::Panicked(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled() && clone.is_cancelled());
        let caught = catch_unwind(AssertUnwindSafe(|| t.check()));
        assert!(matches!(classify_panic(caught.unwrap_err()), JobError::Cancelled));
    }

    #[test]
    fn spec_errors_are_structured() {
        let pool = Pool::with_threads(1);
        let bad_bench = TuningJobSpec::new("NOPE", "SPARC-II");
        assert_eq!(
            run_tuning_job(&bad_bench, Tracer::disabled(), &pool, CancelToken::new()).unwrap_err(),
            JobError::UnknownBenchmark("NOPE".into())
        );
        let bad_machine = TuningJobSpec::new("SWIM", "vax");
        assert_eq!(
            run_tuning_job(&bad_machine, Tracer::disabled(), &pool, CancelToken::new())
                .unwrap_err(),
            JobError::UnknownMachine("vax".into())
        );
    }

    #[test]
    fn pre_fired_token_cancels_without_tuning_work() {
        let pool = Pool::with_threads(1);
        let cancel = CancelToken::new();
        cancel.cancel();
        let spec = TuningJobSpec::new("SWIM", "SPARC-II");
        let got = run_tuning_job(&spec, Tracer::disabled(), &pool, cancel);
        assert_eq!(got.unwrap_err(), JobError::Cancelled);
    }

    #[test]
    fn machine_and_method_lookup() {
        assert!(machine_spec_by_name("sparc").is_some());
        assert!(machine_spec_by_name("Pentium-IV").is_some());
        assert!(machine_spec_by_name("riscv").is_none());
        assert_eq!(method_by_name("cbr"), Some(Method::Cbr));
        assert_eq!(method_by_name("WHL"), Some(Method::Whl));
        assert_eq!(method_by_name("best"), None);
    }

    #[test]
    fn classify_extracts_string_payloads() {
        let p = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(classify_panic(p), JobError::Panicked("boom 7".into()));
        let p = catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(classify_panic(p), JobError::Panicked("non-string panic payload".into()));
    }
}
