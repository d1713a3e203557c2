//! Memoized argument streams.
//!
//! A workload's invocation stream is fully deterministic per (workload,
//! dataset): `setup` and every `args` call draw from one seeded RNG and
//! write memory only through [`MemoryImage::store`]. Crucially, argument
//! generation never *reads* memory content (the fill helpers in
//! [`crate::common`] consult only static buffer lengths), so the values
//! it produces — the argument vectors and the between-invocation memory
//! writes — do not depend on what the tuning section wrote in between.
//! That makes the stream recordable: run the generator once against a
//! scratch image with the write journal armed, and the recording is
//! *exactly* what the generator would produce live in any run, no matter
//! which TS versions execute between invocations.
//!
//! Replaying is a memcpy-grade loop ([`MemoryImage::replay`]) plus an
//! args clone — no RNG, no trait dispatch, no fill-helper arithmetic.
//! `RunHarness` uses a process-wide pool of these streams (built once,
//! `Arc`-shared) to delete per-run setup and per-invocation generation
//! from the tuning hot path.
//!
//! The oracle for this fast path is the live generator itself:
//! `costmodel_equivalence::memoized_stream_matches_live_generation` in
//! peak-core runs memoized and live harnesses side by side over every
//! workload × dataset and requires identical args, memory evolution,
//! and cycle observables.

use crate::{Dataset, Workload};
use peak_ir::{MemId, MemoryImage, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Workload-stream seed for the train dataset (fixed: every train run
/// sees identical input, like re-running a benchmark binary).
pub const STREAM_SEED_TRAIN: u64 = 0x7472_6169_6e00;
/// Workload-stream seed for the ref dataset.
pub const STREAM_SEED_REF: u64 = 0x7265_6600;

/// The stream RNG seed for a dataset — the single definition both the
/// live path and the recorder use.
pub fn stream_seed(ds: Dataset) -> u64 {
    match ds {
        Dataset::Train => STREAM_SEED_TRAIN,
        Dataset::Ref => STREAM_SEED_REF,
    }
}

/// One recorded invocation: the argument vector plus the memory writes
/// the generator performed before handing the arguments out.
#[derive(Debug, Clone)]
pub struct InvRecord {
    /// TS arguments for this invocation.
    pub args: Vec<Value>,
    /// Memory writes `args()` performed, in order. Replayed verbatim;
    /// order matters because later writes to the same cell win.
    pub writes: Vec<(MemId, i64, Value)>,
}

/// A fully materialized invocation stream for one (workload, dataset):
/// the post-`setup` memory image plus every invocation's record.
#[derive(Debug, Clone)]
pub struct ArgStream {
    /// Memory image right after `setup` — the start-of-run state. Runs
    /// clone this instead of re-running `setup`.
    pub init_mem: MemoryImage,
    /// Per-invocation records, in stream order.
    pub invocations: Vec<InvRecord>,
    /// Every region a between-invocation write touches, sorted. A
    /// region outside this set keeps its post-`setup` contents unless
    /// the tuning section itself writes it.
    pub written_regions: Vec<MemId>,
}

impl ArgStream {
    /// Record the full stream by running the live generator once with
    /// the write journal armed.
    pub fn materialize(w: &dyn Workload, ds: Dataset) -> ArgStream {
        let mut mem = MemoryImage::new(w.program());
        let mut rng = StdRng::seed_from_u64(stream_seed(ds));
        w.setup(ds, &mut mem, &mut rng);
        let init_mem = mem.clone();
        let limit = w.invocations(ds);
        let mut invocations = Vec::with_capacity(limit);
        for inv in 0..limit {
            mem.begin_journal();
            let args = w.args(ds, inv, &mut mem, &mut rng);
            let writes = mem.end_journal();
            invocations.push(InvRecord { args, writes });
        }
        let mut written_regions: Vec<MemId> =
            invocations.iter().flat_map(|r| r.writes.iter().map(|&(m, ..)| m)).collect();
        written_regions.sort_unstable();
        written_regions.dedup();
        ArgStream { init_mem, invocations, written_regions }
    }

    /// Approximate heap footprint in bytes (pool accounting).
    pub fn approx_bytes(&self) -> usize {
        let inv: usize = self
            .invocations
            .iter()
            .map(|r| {
                r.args.len() * std::mem::size_of::<Value>()
                    + r.writes.len() * std::mem::size_of::<(MemId, i64, Value)>()
            })
            .sum();
        inv + self.init_mem.bufs.iter().map(|b| b.len() * 8).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorded stream must match a live generator run step for
    /// step: same args, same memory evolution.
    #[test]
    fn recording_matches_live_generation() {
        for w in crate::all_workloads() {
            for ds in [Dataset::Train, Dataset::Ref] {
                let stream = ArgStream::materialize(w.as_ref(), ds);
                let mut live_mem = MemoryImage::new(w.program());
                let mut rng = StdRng::seed_from_u64(stream_seed(ds));
                w.setup(ds, &mut live_mem, &mut rng);
                assert!(stream.init_mem == live_mem, "{} {ds:?} init", w.name());
                for rec in &stream.invocations {
                    assert!(rec.writes.iter().all(|(m, ..)| stream.written_regions.contains(m)));
                }
                let mut replay_mem = stream.init_mem.clone();
                let n = w.invocations(ds).min(25);
                for inv in 0..n {
                    let live_args = w.args(ds, inv, &mut live_mem, &mut rng);
                    let rec = &stream.invocations[inv];
                    replay_mem.replay(&rec.writes);
                    assert_eq!(live_args, rec.args, "{} {ds:?} inv {inv}", w.name());
                    assert!(
                        replay_mem == live_mem,
                        "{} {ds:?} inv {inv} memory diverged",
                        w.name()
                    );
                }
            }
        }
    }
}
