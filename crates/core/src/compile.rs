//! Validated compilation for tuner paths.
//!
//! Every compile the tuning system performs (rating, frontier warm-up,
//! MBR instrumentation, consistency studies) funnels through
//! [`compile_validated`], which applies the process-wide
//! [`ValidationLevel`]: [`peak_opt::default_level`] — `PEAK_VALIDATE`
//! override, else structural verification in debug builds and nothing in
//! release — unless overridden with [`set_validation_level`].
//!
//! A validation failure must not crash a long tuning run: the offending
//! configuration is *degraded*, not fatal. The compile falls back to the
//! known-correct `-O0` pipeline (labeled with the requested
//! configuration, so rating charges the honest — slow — cost to that
//! flag set and the search walks away from it), and the failure is
//! recorded in a process-wide incident registry that drivers and tests
//! can inspect or drain.

use peak_ir::{FuncId, Program};
use peak_opt::{CompiledVersion, OptConfig, ValidationFailure, ValidationLevel};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// One degraded compile: the validation failure and what was substituted.
#[derive(Debug, Clone)]
pub struct ValidationIncident {
    /// The pass-level failure reported by the oracle/verifier.
    pub failure: ValidationFailure,
    /// Flag bits of the configuration that was degraded to `-O0`.
    pub config_bits: u64,
}

/// Process-wide validation-level override: 0 = unset (use
/// [`peak_opt::default_level`]), 1..=3 = Off/Structural/Full.
static LEVEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn incident_log() -> &'static Mutex<Vec<ValidationIncident>> {
    static LOG: OnceLock<Mutex<Vec<ValidationIncident>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Override (or with `None`, restore) the process-wide validation level
/// used by [`compile_validated`]. Tests and CI drivers use this to force
/// full oracle checking regardless of build profile.
pub fn set_validation_level(level: Option<ValidationLevel>) {
    let enc = match level {
        None => 0,
        Some(ValidationLevel::Off) => 1,
        Some(ValidationLevel::Structural) => 2,
        Some(ValidationLevel::Full) => 3,
    };
    LEVEL_OVERRIDE.store(enc, Ordering::SeqCst);
}

/// The validation level tuner-path compiles currently run at.
pub fn validation_level() -> ValidationLevel {
    match LEVEL_OVERRIDE.load(Ordering::SeqCst) {
        1 => ValidationLevel::Off,
        2 => ValidationLevel::Structural,
        3 => ValidationLevel::Full,
        _ => peak_opt::default_level(),
    }
}

/// Number of validation incidents recorded so far.
pub fn incident_count() -> usize {
    incident_log().lock().expect("incident log lock").len()
}

/// Snapshot of the recorded incidents.
pub fn incidents() -> Vec<ValidationIncident> {
    incident_log().lock().expect("incident log lock").clone()
}

/// Drain the incident registry (tests; driver end-of-run reporting).
pub fn take_incidents() -> Vec<ValidationIncident> {
    std::mem::take(&mut *incident_log().lock().expect("incident log lock"))
}

/// Record an externally-detected validation incident. Public so drivers
/// that call [`peak_opt::optimize_checked`] directly (e.g. the fuzz
/// fleet) can share the registry.
pub fn record_incident(failure: ValidationFailure, config_bits: u64) {
    eprintln!("warning: translation validation failed (degrading to -O0): {failure}");
    incident_log()
        .lock()
        .expect("incident log lock")
        .push(ValidationIncident { failure, config_bits });
}

/// Compile `func` under `cfg` at the process-wide validation level.
///
/// On validation failure the tuner must keep running: the result is the
/// `-O0` compile of the same program relabeled with the requested
/// configuration — semantically correct, honestly slow, and charged to
/// the flag set that miscompiled, so rating steers the search away from
/// it instead of silently trusting a broken binary (the exact failure
/// mode the rating methods exist to avoid).
pub fn compile_validated(prog: &Program, func: FuncId, cfg: &OptConfig) -> CompiledVersion {
    match validation_level() {
        ValidationLevel::Off => peak_opt::optimize(prog, func, cfg),
        level => match peak_opt::optimize_checked(prog, func, cfg, level) {
            Ok(v) => v,
            Err(failure) => {
                record_incident(failure, cfg.bits());
                let mut v = peak_opt::optimize(prog, func, &OptConfig::o0());
                v.config = *cfg;
                v.footprint = peak_opt::Footprint::exact(*cfg);
                v
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_workloads::swim::SwimCalc3;
    use peak_workloads::Workload;

    #[test]
    fn validated_compile_matches_plain_compile() {
        let w = SwimCalc3::new();
        set_validation_level(Some(ValidationLevel::Full));
        let checked = compile_validated(w.program(), w.ts(), &OptConfig::o3());
        set_validation_level(None);
        let plain = peak_opt::optimize(w.program(), w.ts(), &OptConfig::o3());
        assert_eq!(
            checked.program.func(checked.func),
            plain.program.func(plain.func),
            "validation must be observation-only"
        );
        assert_eq!(checked.code_size, plain.code_size);
    }

    #[test]
    fn incident_registry_records_and_drains() {
        let before = incident_count();
        let failure = ValidationFailure {
            pass: peak_opt::PassId::Dse,
            func: "synthetic".into(),
            config: OptConfig::o3(),
            kind: peak_opt::FailureKind::Semantic {
                input: 0,
                detail: "synthetic incident for registry test".into(),
            },
        };
        record_incident(failure.clone(), OptConfig::o3().bits());
        assert_eq!(incident_count(), before + 1);
        let all = incidents();
        assert!(all
            .iter()
            .any(|i| i.failure == failure && i.config_bits == OptConfig::o3().bits()));
        // Drain leaves the registry empty for later tests in this process.
        let drained = take_incidents();
        assert!(drained.len() > before);
        assert_eq!(incident_count(), 0);
    }

    #[test]
    fn level_override_wins_over_default() {
        set_validation_level(Some(ValidationLevel::Off));
        assert_eq!(validation_level(), ValidationLevel::Off);
        set_validation_level(Some(ValidationLevel::Full));
        assert_eq!(validation_level(), ValidationLevel::Full);
        set_validation_level(None);
        assert_eq!(validation_level(), peak_opt::default_level());
    }
}
