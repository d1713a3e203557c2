//! # peak-ir — the PEAK intermediate representation
//!
//! A small, fully analyzable three-address IR in which the tuning-section
//! workloads of the reproduction are written, together with the program
//! analyses the paper's rating methods rely on:
//!
//! * [`context_vars`] — the context-variable analysis of paper Figure 1
//!   (CBR applicability), and the timing inputs its walk also finds,
//! * [`liveness`] — `Input(TS)`/`Def(TS)`/`Modified_Input(TS)` for RBR
//!   (paper §2.4),
//! * [`trip_count`] + [`instrument`] — compile-time block-entry expressions
//!   and counter instrumentation for MBR (paper §2.3),
//! * [`reaching`]/[`points_to`]/[`loops`]/[`mod@cfg`] — the supporting
//!   dataflow machinery,
//! * [`interp`] — a reference interpreter defining IR semantics (the
//!   oracle against which `peak-opt` passes are property-tested),
//! * [`validate`] — structural/type well-formedness checking,
//! * [`bits`] — bit-exact program images ([`Program::bit_image`]),
//! * [`verify`] — the translation-validation layer: stage-to-stage
//!   structural invariants (CFG/terminator consistency, loop-header
//!   invariants, definite initialization) and the observation model the
//!   per-pass semantic oracle in `peak-opt` compares.
//!
//! The optimizing compiler lives in `peak-opt`; the cycle-cost machine
//! simulator in `peak-sim`; the tuning system itself in `peak-core`.

#![warn(missing_docs)]

pub mod bits;
pub mod builder;
pub mod cfg;
pub mod context_vars;
pub mod dataflow;
pub mod func;
pub mod instrument;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod parse;
pub mod points_to;
pub mod program;
pub mod reaching;
pub mod stmt;
pub mod trip_count;
pub mod types;
pub mod validate;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::{Cfg, Dominators};
pub use context_vars::{context_set, timing_inputs, ContextAnalysis, ContextSource};
pub use func::{Block, Function, VarInfo};
pub use instrument::{instrument_block_counts, strip_counters, CountSource, CounterPlan};
pub use interp::{ExecError, ExecOutcome, Interp, ObsTrace};
pub use liveness::{mem_effects, Liveness, MemEffects};
pub use loops::{Loop, LoopForest};
pub use parse::{parse_program, ParseError};
pub use points_to::PointsTo;
pub use program::{Buffer, MemDecl, MemoryImage, Program};
pub use reaching::{DefSite, ReachingDefs, UseSite};
pub use stmt::{MemBase, MemRef, Rvalue, Stmt, Terminator};
pub use trip_count::{recognize_all, recognize_counted, CountExpr, CountedLoop};
pub use types::{
    BinOp, BlockId, CounterId, FuncId, MemId, Operand, PtrVal, Type, UnOp, Value, VarId,
};
pub use validate::{validate_function, validate_program, ValidateError};
pub use verify::{
    compare_observations, observe, values_eq, verify_function, verify_program, ObsLevel,
    Observation, VerifyError, VerifyOptions, DEFAULT_TRACE_LIMIT,
};
