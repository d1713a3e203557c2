//! # peak-sim — cycle-cost machine simulator
//!
//! Executes `peak-opt` [`CompiledVersion`](peak_opt::CompiledVersion)s with
//! a performance model detailed enough for the paper's phenomena to exist:
//!
//! * [`machine`] — two targets (SPARC II-like, Pentium IV-like) differing
//!   in register count, pipeline depth, and memory hierarchy;
//! * [`cache`] — two-level set-associative LRU data caches whose state
//!   persists across TS invocations (the RBR preconditioning problem);
//! * [`branch`] — a 2-bit branch predictor (if-conversion trade-offs);
//! * [`exec`] — the executor charging op costs, cache latencies, spills,
//!   dependence stalls, branch penalties, and I-cache pressure;
//! * [`tier`] / [`exec_interp`] — the execution-tier ladder
//!   (`interp → predecoded → jit`): tier selection, the engine interface
//!   every tier implements, and the recompute-everything slow tier — all
//!   charging bit-identical cycles;
//! * [`timer`] — measured-time generation with Gaussian jitter and
//!   interrupt-like outliers (what the rating methods must survive);
//! * [`faults`] — seeded, replayable fault injection (jitter bursts,
//!   state pollution, measurement dropout, version crashes) for
//!   robustness testing of the tuning layer;
//! * [`metrics`] — cumulative counter snapshots ([`SimMetrics`]) the
//!   tuning layer diffs at measurement boundaries for telemetry; the
//!   simulator itself stays free of any tracing dependency;
//! * [`steady`] — saved cache and predictor state, compared by recency
//!   order, and charging a measured invocation again without simulating
//!   it (the run harness's fast path for exact repeats).

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod exec;
pub mod exec_interp;
pub mod faults;
pub mod machine;
pub mod metrics;
pub mod steady;
pub mod tier;
pub mod timer;

pub use branch::BranchPredictor;
pub use cache::{AddressMap, Cache, Hierarchy, RefCache};
pub use exec::{
    execute, execute_with_scratch, fault_preamble, DecodedBlock, ExecError, ExecOptions,
    ExecParams, ExecResult, ExecScratch, MachineState, PreparedVersion, SpillEv, RECURSION_LIMIT,
    STEP_LIMIT,
};
pub use exec_interp::InterpVersion;
pub use steady::{TimingStamp, TimingState};
pub use tier::{ExecTier, TierBackend, TimingInputs};
pub use faults::{FaultConfig, FaultPlan, FaultStats};
pub use machine::{CacheParams, MachineKind, MachineSpec};
pub use metrics::SimMetrics;
pub use timer::NoisyTimer;
