//! The paper's §3 method fallback and its fault-tolerant extension.
//!
//! §3: "if the system cannot achieve enough accuracy … it switches to
//! the next applicable rating method". [`RatingSupervisor`] is the only
//! code that walks this cascade, under one of two policies:
//!
//! * **Paper** ([`RatingSupervisor::paper`], every search strategy,
//!   served job and golden): the preferred method, then the
//!   consultant's order after it. Each method that rates is judged once
//!   by the `SWITCH_FRACTION` rule; a failure counts one switch, and
//!   the last method's outcome is used even when it fails too.
//! * **Supervised** ([`RatingSupervisor::default`], the checkpointed
//!   [`Tuner`](crate::tuner::Tuner) and the fault experiments), which
//!   expects injected faults — version crashes, measurement dropout,
//!   jitter bursts — that a single judgement cannot tell apart from
//!   noise:
//!   1. **Retry with backoff**: an unconverged rating is retried with a
//!      widened window budget (`window_scale *= WIDEN_FACTOR`), up to
//!      `MAX_RETRIES` times;
//!   2. **Fatal triggers**: a crash, or a dropout rate above
//!      `DROPOUT_THRESHOLD`, abandons the method at once (retrying
//!      cannot fix either);
//!   3. **Terminal WHL**: the cascade ends in WHL, which accepts
//!      whatever it measures;
//!   4. **Structured logging**: every downgrade, inapplicable methods
//!      included, is recorded as a [`DegradeEvent`] — serializable, so
//!      fault scenarios replay to byte-identical event streams and
//!      checkpoints carry the log.
//!
//! Under both policies a preferred AVG or WHL baseline rates once and
//! is not judged: the baselines are the reference, with nowhere to fall
//! back to.

use crate::consultant::Method;
use crate::rating::{rate_with, RateOptions, RateOutcome, TuningSetup};
use peak_obs::event;
use peak_opt::OptConfig;
use peak_util::{Json, ToJson};

/// Why the supervisor moved from one rating method to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeTrigger {
    /// Method structurally inapplicable (no consultant plan).
    Inapplicable,
    /// Context space too large/fragmented for CBR to rate in budget.
    ContextExplosion,
    /// Too many candidate windows failed to converge even after retries.
    Unconverged,
    /// Measurement dropout rate exceeded the configured threshold.
    DropoutRate,
    /// A version crashed during rating; deterministic crashes recur, so
    /// the method is abandoned without retry.
    VersionCrash,
    /// Regression system was singular / variance unbounded (MBR).
    IllConditioned,
}

impl DegradeTrigger {
    /// Stable string form (JSON + logs).
    pub fn name(self) -> &'static str {
        match self {
            DegradeTrigger::Inapplicable => "inapplicable",
            DegradeTrigger::ContextExplosion => "context-explosion",
            DegradeTrigger::Unconverged => "unconverged",
            DegradeTrigger::DropoutRate => "dropout-rate",
            DegradeTrigger::VersionCrash => "version-crash",
            DegradeTrigger::IllConditioned => "ill-conditioned",
        }
    }

    /// Parse the string written by [`DegradeTrigger::name`].
    pub fn from_name(name: &str) -> Option<DegradeTrigger> {
        Some(match name {
            "inapplicable" => DegradeTrigger::Inapplicable,
            "context-explosion" => DegradeTrigger::ContextExplosion,
            "unconverged" => DegradeTrigger::Unconverged,
            "dropout-rate" => DegradeTrigger::DropoutRate,
            "version-crash" => DegradeTrigger::VersionCrash,
            "ill-conditioned" => DegradeTrigger::IllConditioned,
            _ => return None,
        })
    }
}

impl ToJson for DegradeTrigger {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_owned())
    }
}

/// One downgrade step, logged by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeEvent {
    /// Which supervised rating call this happened in (0-based).
    pub rating: usize,
    /// Method given up on.
    pub from: Method,
    /// Method degraded to.
    pub to: Method,
    /// Why.
    pub trigger: DegradeTrigger,
    /// Widening retries spent on `from` before giving up.
    pub retries: u32,
}

impl ToJson for DegradeEvent {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rating", self.rating.to_json()),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("trigger", self.trigger.to_json()),
            ("retries", self.retries.to_json()),
        ])
    }
}

impl DegradeEvent {
    /// Parse the JSON written by [`ToJson`].
    pub fn from_json(j: &Json) -> Option<DegradeEvent> {
        Some(DegradeEvent {
            rating: j.get("rating")?.as_u64()? as usize,
            from: Method::from_json_name(j.get("from")?.as_str()?)?,
            to: Method::from_json_name(j.get("to")?.as_str()?)?,
            trigger: DegradeTrigger::from_name(j.get("trigger")?.as_str()?)?,
            retries: j.get("retries")?.as_u64()? as u32,
        })
    }
}

/// Fraction of candidates allowed to stay unconverged before the walk
/// switches rating methods (§3's accuracy test).
pub(crate) const SWITCH_FRACTION: f64 = 0.34;
/// Supervised policy: widening retries per method before degrading.
const MAX_RETRIES: u32 = 2;
/// Supervised policy: window-budget multiplier applied per retry.
const WIDEN_FACTOR: f64 = 1.8;
/// Supervised policy: dropout rate above which a method is abandoned at
/// once.
const DROPOUT_THRESHOLD: f64 = 0.25;

/// The §3 fallback walk under the paper or the supervised policy (see
/// the module docs), plus its accounting: switches, supervised calls,
/// and the degradation log.
#[derive(Debug, Clone)]
pub struct RatingSupervisor {
    supervised: bool,
    switches: u32,
    events: Vec<DegradeEvent>,
    ratings: usize,
}

impl RatingSupervisor {
    /// The paper's policy: one judgement per method, no retries, no WHL
    /// tail, no log.
    pub fn paper() -> Self {
        RatingSupervisor { supervised: false, switches: 0, events: Vec::new(), ratings: 0 }
    }

    /// Method switches so far. Under the paper policy a method that
    /// rated and failed counts one; under the supervised policy every
    /// logged downgrade does, so this equals `events().len()`.
    pub(crate) fn switches(&self) -> u32 {
        self.switches
    }

    /// All downgrades logged so far (always empty under the paper
    /// policy).
    pub fn events(&self) -> &[DegradeEvent] {
        &self.events
    }

    /// Walks made so far, not counting baseline ratings.
    pub fn ratings(&self) -> usize {
        self.ratings
    }

    /// Restore supervised-policy state from a checkpoint.
    pub fn restore(&mut self, events: Vec<DegradeEvent>, ratings: usize) {
        self.switches = events.len() as u32;
        self.events = events;
        self.ratings = ratings;
    }

    /// The method cascade for a given preferred method: the preferred
    /// method first, then the consultant's remaining order; the
    /// supervised policy ends it in WHL (always applicable, accepts any
    /// outcome). The preferred method is tried even when the consultant
    /// left it out of the order (a *forced* method, e.g. Figure 7's
    /// MGRID_CBR cell), and the walk then starts at the front of the
    /// order: a forced method that cannot converge falls through like an
    /// in-order one, and its wasted cycles stay on the bill, which is
    /// what the figure shows.
    fn cascade(&self, order: &[Method], preferred: Method) -> Vec<Method> {
        let mut list = vec![preferred];
        let start = order.iter().position(|&m| m == preferred).map_or(0, |i| i + 1);
        for &m in &order[start.min(order.len())..] {
            if !list.contains(&m) {
                list.push(m);
            }
        }
        if self.supervised && !list.contains(&Method::Whl) {
            list.push(Method::Whl);
        }
        list
    }

    /// Inspect an outcome for a reason to abandon the method right away
    /// (retrying cannot fix these: injected crashes are deterministic per
    /// invocation index, and a lossy channel stays lossy). Only the
    /// supervised policy looks.
    fn fatal_trigger(&self, out: &RateOutcome) -> Option<DegradeTrigger> {
        if !self.supervised {
            return None;
        }
        if out.crashes > 0 {
            return Some(DegradeTrigger::VersionCrash);
        }
        if out.dropout_rate() > DROPOUT_THRESHOLD {
            return Some(DegradeTrigger::DropoutRate);
        }
        None
    }

    /// Trigger for an outcome that stayed unconverged after retries.
    fn unconverged_trigger(out: &RateOutcome) -> DegradeTrigger {
        if out.method == Method::Mbr && out.vars.iter().any(|v| !v.is_finite()) {
            DegradeTrigger::IllConditioned
        } else {
            DegradeTrigger::Unconverged
        }
    }

    /// Trigger for a method that refused to rate at all.
    fn inapplicable_trigger(method: Method) -> DegradeTrigger {
        match method {
            Method::Cbr => DegradeTrigger::ContextExplosion,
            _ => DegradeTrigger::Inapplicable,
        }
    }

    /// Record that the walk gave up on a method. The paper policy counts
    /// only a method that rated and failed; the supervised policy logs
    /// (and counts) every downgrade.
    fn degrade(&mut self, tracer: &peak_obs::Tracer, event: DegradeEvent, rated: bool) {
        if !self.supervised {
            self.switches += rated as u32;
            return;
        }
        event!(
            tracer,
            "supervisor.degrade",
            rating = event.rating as u64,
            from = event.from.name(),
            to = event.to.name(),
            trigger = event.trigger.name(),
            retries = event.retries as u64,
        );
        self.switches += 1;
        self.events.push(event);
    }

    /// Rate `candidates` against `base` with the serial interleaved
    /// protocol, starting from `preferred` and falling back down the
    /// cascade as the policy dictates. Always returns an outcome.
    pub fn rate(
        &mut self,
        setup: &mut TuningSetup<'_>,
        preferred: Method,
        base: OptConfig,
        candidates: &[OptConfig],
    ) -> (RateOutcome, Method) {
        self.walk(setup, preferred, candidates.len(), |setup, m, _, opts| {
            rate_with(setup, m, base, candidates, opts)
        })
    }

    /// The walk itself, for any rating protocol: `rate_attempt(setup,
    /// method, attempt, opts)` rates the frontier once, where `attempt`
    /// counts the calls made so far in this walk (inapplicable methods
    /// and retries included), and returns `None` when `method` is
    /// inapplicable. The final method of every cascade rates (RBR, or
    /// the supervised policy's WHL), so an outcome always comes back.
    pub(crate) fn walk<'w>(
        &mut self,
        setup: &mut TuningSetup<'w>,
        preferred: Method,
        ncand: usize,
        mut rate_attempt: impl FnMut(
            &mut TuningSetup<'w>,
            Method,
            usize,
            &RateOptions,
        ) -> Option<RateOutcome>,
    ) -> (RateOutcome, Method) {
        if matches!(preferred, Method::Whl | Method::Avg) {
            let out = rate_attempt(setup, preferred, 0, &RateOptions::default())
                .expect("baseline methods always rate");
            return (out, preferred);
        }
        let rating = self.ratings;
        self.ratings += 1;
        let cascade = self.cascade(&setup.consult.order, preferred);
        let max_retries = if self.supervised { MAX_RETRIES } else { 0 };
        let mut attempt = 0;
        let mut last = None;
        for (pos, &m) in cascade.iter().enumerate() {
            let to = cascade.get(pos + 1).copied().unwrap_or(Method::Whl);
            let mut opts = RateOptions::default();
            let mut retries = 0u32;
            let (trigger, rated) = loop {
                let out = rate_attempt(setup, m, attempt, &opts);
                attempt += 1;
                let Some(out) = out else {
                    break (Self::inapplicable_trigger(m), false);
                };
                if m == Method::Whl {
                    // The supervised policy's terminal WHL is best-effort.
                    return (out, m);
                }
                let fatal = self.fatal_trigger(&out);
                if fatal.is_none() {
                    let frac_bad = out.unconverged as f64 / (ncand.max(1) as f64);
                    if frac_bad <= SWITCH_FRACTION {
                        return (out, m);
                    }
                    if retries < max_retries {
                        retries += 1;
                        opts.window_scale *= WIDEN_FACTOR;
                        event!(
                            setup.tracer(),
                            "supervisor.retry",
                            rating = rating as u64,
                            method = m.name(),
                            retry = retries as u64,
                            window_scale = opts.window_scale,
                            unconverged = out.unconverged as u64,
                        );
                        continue;
                    }
                }
                let trigger = fatal.unwrap_or_else(|| Self::unconverged_trigger(&out));
                last = Some((out, m));
                break (trigger, true);
            };
            let event = DegradeEvent { rating, from: m, to, trigger, retries };
            self.degrade(setup.tracer(), event, rated);
        }
        // Everything struggled: use the last method that rated.
        last.expect("the cascade's final method always rates")
    }
}

impl Default for RatingSupervisor {
    /// The supervised policy.
    fn default() -> Self {
        RatingSupervisor { supervised: true, ..RatingSupervisor::paper() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peak_sim::{FaultConfig, MachineSpec};
    use peak_workloads::{swim::SwimCalc3, Dataset};

    #[test]
    fn clean_rating_needs_no_degradation() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let base = peak_opt::OptConfig::o3();
        let mut sup = RatingSupervisor::default();
        let (out, m) = sup.rate(&mut setup, Method::Cbr, base, &[base]);
        assert_eq!(m, Method::Cbr);
        assert!(sup.events().is_empty(), "{:?}", sup.events());
        assert!((out.improvements[0] - 1.0).abs() < 0.03);
    }

    #[test]
    fn crash_degrades_without_panic() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let mut fc = FaultConfig::none(7);
        fc.crash_at = Some(3);
        setup.set_faults(Some(fc));
        let base = peak_opt::OptConfig::o3();
        let mut sup = RatingSupervisor::default();
        let (_, m) = sup.rate(&mut setup, Method::Cbr, base, &[base]);
        // Every method that measures per-invocation crashes on the 3rd
        // execution of every run; WHL is the terminal best-effort fallback.
        assert_eq!(m, Method::Whl, "events: {:?}", sup.events());
        assert!(
            sup.events().iter().any(|e| e.trigger == DegradeTrigger::VersionCrash),
            "{:?}",
            sup.events()
        );
    }

    #[test]
    fn heavy_dropout_triggers_dropout_degrade() {
        let w = SwimCalc3::new();
        let mut setup = TuningSetup::new(&w, MachineSpec::sparc_ii(), Dataset::Train);
        let mut fc = FaultConfig::none(11);
        fc.dropout_per_million = 600_000; // 60% of readings lost
        setup.set_faults(Some(fc));
        let base = peak_opt::OptConfig::o3();
        let mut sup = RatingSupervisor::default();
        let (_, _) = sup.rate(&mut setup, Method::Cbr, base, &[base]);
        assert!(
            sup.events().iter().any(|e| e.trigger == DegradeTrigger::DropoutRate),
            "{:?}",
            sup.events()
        );
    }

    #[test]
    fn event_json_roundtrip() {
        let e = DegradeEvent {
            rating: 3,
            from: Method::Cbr,
            to: Method::Mbr,
            trigger: DegradeTrigger::DropoutRate,
            retries: 2,
        };
        let j = e.to_json();
        let parsed = DegradeEvent::from_json(&j).unwrap();
        assert_eq!(parsed, e);
        let text = j.pretty();
        let back = DegradeEvent::from_json(&peak_util::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }
}
