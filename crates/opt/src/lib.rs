//! # peak-opt — the tunable optimizing compiler
//!
//! Implements the paper's search space: 38 boolean optimization flags
//! (matching the "n = 38 optimization options implied by -O3 of GCC 3.3",
//! §5.2), each backed by a real IR transformation or codegen policy.
//!
//! * [`config`] — flags and [`OptConfig`] configurations,
//! * [`passes`] — the transformations,
//! * [`pipeline`] — pass sequencing; [`optimize`] produces a
//!   [`CompiledVersion`],
//! * [`regalloc`] — register-pressure/spill analysis parameterized by the
//!   target machine's register file (consumed by `peak-sim`),
//! * [`validate`] — translation validation: per-pass structural
//!   verification and the semantic oracle behind
//!   [`optimize_checked`](pipeline::optimize_checked),
//! * [`util`] — shared pass machinery.

#![warn(missing_docs)]

pub mod config;
pub mod passes;
pub mod pipeline;
pub mod regalloc;
pub mod util;
pub mod validate;

pub use config::{Flag, OptConfig, ALL_FLAGS, CODEGEN_FLAGS, NUM_FLAGS};
pub use pipeline::{optimize, optimize_checked, CompiledVersion, Footprint};
pub use regalloc::{allocate, RegBudget, SpillInfo};
pub use validate::{
    default_level, FailureKind, PassId, ValidationFailure, ValidationLevel, Validator,
    VALIDATE_ENV,
};
