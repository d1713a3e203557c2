//! # peak-core — the PEAK automatic performance tuning system
//!
//! The paper's contribution: three rating methods that compare
//! compiler-optimized code versions *fairly* (under comparable execution
//! contexts), deployed in an offline tuning flow.
//!
//! * [`consultant`] — the Rating Approach Consultant: per-TS applicability
//!   analysis (CBR → MBR → RBR order, paper §3);
//! * [`rating`] — the rating engines (CBR §2.2, MBR §2.3, RBR §2.4, plus
//!   the WHL/AVG baselines of §5.2);
//! * [`mbr`] — component discovery and the linear execution-time model;
//! * [`context`] — context keys and run-time-constant elimination;
//! * [`search`] — Iterative Elimination over the 38-flag space (plus
//!   exhaustive search for ablations);
//! * [`strategy`] — pluggable search strategies (`SearchStrategy` trait):
//!   the shared `FrontierRater` + `CompilationBudget`, seeded genetic
//!   search, and phase-clustered IE — all bit-identical at any thread
//!   count;
//! * [`sched`] — deterministic work-stealing job pool behind the
//!   experiment drivers and the parallel candidate frontier;
//! * [`tuner`] — offline tuning end-to-end + production measurement
//!   (Figure 7);
//! * [`consistency`] — the Table 1 experiment;
//! * [`adaptive`] — the §6 online/adaptive scenario (per-context winners);
//! * [`degrade`] — the rating supervisor: the one §3 fallback walk,
//!   under the paper policy or the supervised one (retry-with-backoff
//!   and the CBR → MBR → RBR → WHL cascade under injected faults);
//! * [`job`] — the tuning-job unit behind the `peak-serve` daemon:
//!   panic-isolated, cooperatively cancellable, warm-startable;
//! * [`checkpoint`] — serializable tuner state for kill/resume;
//! * [`harness`] — simulated application runs with version swapping;
//! * [`tier`], [`version_cache`] — each distinct version compiled and
//!   built once (lowered to threaded code by default) and shared
//!   process-wide by every config that compiles to it;
//! * [`stats`], [`linreg`] — EVAL/VAR windows, outlier elimination, least
//!   squares;
//! * [`ts_select`] — profile-driven tuning-section selection (§4.1).

#![warn(missing_docs)]

pub mod adaptive;
pub mod checkpoint;
pub mod compile;
pub mod consistency;
pub mod consultant;
pub mod context;
pub mod degrade;
pub mod harness;
pub mod job;
pub mod linreg;
pub mod mbr;
pub mod rating;
pub mod sched;
pub mod search;
pub mod stats;
pub mod strategy;
pub mod stream_cache;
pub mod tier;
pub mod ts_select;
pub mod tuner;
pub mod version_cache;

pub use adaptive::{AdaptiveOutcome, AdaptiveTuner};
pub use checkpoint::TunerCheckpoint;
pub use compile::{
    compile_validated, incident_count, incidents, record_incident, set_validation_level,
    take_incidents, validation_level, ValidationIncident,
};
pub use consistency::{consistency_rows, consistency_rows_traced, ConsistencyRow, WINDOW_SIZES};
pub use consultant::{consult, Consultation, Method};
pub use degrade::{DegradeEvent, DegradeTrigger, RatingSupervisor};
pub use harness::RunHarness;
pub use job::{
    classify_panic, machine_spec_by_name, method_by_name, run_tuning_job, CancelToken, Cancelled,
    JobError, TuningJobSpec,
};
pub use mbr::MbrModel;
pub use rating::{rate, rate_with, RateOptions, RateOutcome, TuningSetup};
pub use sched::{default_threads, Pool, PoolStats};
pub use search::{exhaustive, iterative_elimination, iterative_elimination_from, SearchResult};
pub use strategy::{
    build_strategy, cluster_flags, ga_mutate, ga_next_generation, ga_uniform_crossover, pearson,
    search_with_strategy, search_with_strategy_spent, strategy_kind_by_name, strategy_seed,
    ClusterConfig, CompilationBudget, FrontierOutcome, FrontierRater, GaConfig, GeneticSearch,
    IterativeElimination, PhaseClusteredIe, RandomSearchStrategy, RatingProtocol, SearchStrategy,
    SplitMix64, StrategyKind,
};
pub use tuner::{production_time, tune, TuneOptions, TuneReport, Tuner};
pub use tier::{build_engine, register_jit_metrics};
pub use version_cache::{CacheStats, VersionCache, VersionKey};
