//! # peak-workloads — SPEC CPU 2000-like tuning-section workloads
//!
//! One synthetic workload per tuning section of the paper's Table 1,
//! written in the `peak-ir` IR with the qualitative traits the paper's
//! results depend on: context structure (how many distinct workload
//! contexts the TS sees), control regularity (does Figure-1 context
//! analysis apply), invocation counts (scaled down ~1000× from Table 1 so
//! the whole suite simulates in minutes), and memory behaviour (dense vs
//! sparse vs pointer-chasing).
//!
//! | Benchmark | TS | paper method | contexts |
//! |---|---|---|---|
//! | BZIP2 | fullGtU | RBR | — (irregular) |
//! | CRAFTY | Attacked | RBR | — (too many + irregular) |
//! | GZIP | longest_match | RBR | — (irregular) |
//! | MCF | primal_bea_mpp | RBR | — (irregular) |
//! | TWOLF | new_dbox_a | RBR | — (irregular) |
//! | VORTEX | ChkGetChunk | RBR | — (irregular) |
//! | APPLU | blts | CBR | 1 |
//! | APSI | radb4 | CBR | 3 |
//! | ART | match | RBR | — (irregular) |
//! | MGRID | resid | MBR | many (CBR pathological) |
//! | EQUAKE | smvp | CBR | 1 |
//! | MESA | sample_1d_linear | RBR | — (continuous) |
//! | SWIM | calc3 | CBR | 1 |
//! | WUPWISE | zgemm | CBR | 2 |

#![warn(missing_docs)]

pub mod common;
pub mod fuzzgen;
pub mod stream;

pub mod applu;
pub mod apsi;
pub mod art;
pub mod bzip2;
pub mod crafty;
pub mod equake;
pub mod gzip;
pub mod mcf;
pub mod mesa;
pub mod mgrid;
pub mod swim;
pub mod twolf;
pub mod vortex;
pub mod wupwise;

use peak_ir::{FuncId, MemoryImage, Program, Value};
use rand::rngs::StdRng;

/// Which input set drives the run (paper §5.2: tune on `train`, report on
/// `ref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Training input (used during tuning).
    Train,
    /// Reference input (production runs / reported performance).
    Ref,
}

impl Dataset {
    /// The input set's name: `"train"` or `"ref"`.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Train => "train",
            Dataset::Ref => "ref",
        }
    }
}

/// The dataset whose [`Dataset::name`] is `name` (exact spelling).
pub fn dataset_by_name(name: &str) -> Option<Dataset> {
    [Dataset::Train, Dataset::Ref].into_iter().find(|d| d.name() == name)
}

/// Paper Table 1 metadata for cross-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Rating approach the paper's system chose.
    pub method: &'static str,
    /// Invocation count in the paper (one run, train input).
    pub invocations_paper: u64,
    /// Number of CBR contexts the paper reports (0 = not CBR).
    pub contexts: u32,
}

/// A benchmark workload: a program containing one tuning section plus the
/// invocation stream that drives it.
pub trait Workload: Send + Sync {
    /// Benchmark name (e.g. "SWIM").
    fn name(&self) -> &'static str;
    /// Tuning-section name (e.g. "calc3").
    fn ts_name(&self) -> &'static str;
    /// The program containing the TS (and any callees).
    fn program(&self) -> &Program;
    /// The tuning-section function.
    fn ts(&self) -> FuncId;
    /// TS invocations in one application run.
    fn invocations(&self, ds: Dataset) -> usize;
    /// Initialize memory at the start of an application run.
    fn setup(&self, ds: Dataset, mem: &mut MemoryImage, rng: &mut StdRng);
    /// Arguments for invocation `inv` (0-based); may mutate memory to
    /// model the rest of the program running between invocations.
    ///
    /// Contract (relied on by [`stream::ArgStream`]): implementations
    /// write memory only through [`MemoryImage::store`] and never read
    /// memory *content* (static shapes like buffer lengths are fine) —
    /// the produced values depend only on `(ds, inv)` and the RNG
    /// stream, which makes argument streams recordable and replayable.
    fn args(&self, ds: Dataset, inv: usize, mem: &mut MemoryImage, rng: &mut StdRng)
        -> Vec<Value>;
    /// Simulated cycles the rest of the program spends per TS invocation
    /// (drives the WHL-vs-section tuning-time gap).
    fn other_cycles(&self, ds: Dataset) -> u64;
    /// Paper metadata.
    fn paper_row(&self) -> PaperRow;
}

/// All fourteen workloads, in Table 1 order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(bzip2::Bzip2FullGtU::new()),
        Box::new(crafty::CraftyAttacked::new()),
        Box::new(gzip::GzipLongestMatch::new()),
        Box::new(mcf::McfPrimalBeaMpp::new()),
        Box::new(twolf::TwolfNewDboxA::new()),
        Box::new(vortex::VortexChkGetChunk::new()),
        Box::new(applu::AppluBlts::new()),
        Box::new(apsi::ApsiRadb4::new()),
        Box::new(art::ArtMatch::new()),
        Box::new(mgrid::MgridResid::new()),
        Box::new(equake::EquakeSmvp::new()),
        Box::new(mesa::MesaSample1dLinear::new()),
        Box::new(swim::SwimCalc3::new()),
        Box::new(wupwise::WupwiseZgemm::new()),
    ]
}

/// Find a workload by benchmark name (case-insensitive).
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fourteen_workloads_cover_table1() {
        let ws = all_workloads();
        assert_eq!(ws.len(), 14);
        let names: Vec<_> = ws.iter().map(|w| w.name()).collect();
        for expect in [
            "BZIP2", "CRAFTY", "GZIP", "MCF", "TWOLF", "VORTEX", "APPLU", "APSI", "ART",
            "MGRID", "EQUAKE", "MESA", "SWIM", "WUPWISE",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn all_programs_validate() {
        for w in all_workloads() {
            peak_ir::validate_program(w.program())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }

    #[test]
    fn every_workload_runs_a_few_invocations() {
        for w in all_workloads() {
            let mut rng = StdRng::seed_from_u64(1);
            let mut mem = MemoryImage::new(w.program());
            w.setup(Dataset::Train, &mut mem, &mut rng);
            let interp = peak_ir::Interp::default();
            for inv in 0..5.min(w.invocations(Dataset::Train)) {
                let args = w.args(Dataset::Train, inv, &mut mem, &mut rng);
                interp
                    .run(w.program(), w.ts(), &args, &mut mem)
                    .unwrap_or_else(|e| panic!("{} inv {inv}: {e}", w.name()));
            }
        }
    }

    #[test]
    fn train_and_ref_differ() {
        for w in all_workloads() {
            assert!(
                w.invocations(Dataset::Ref) >= w.invocations(Dataset::Train),
                "{}: ref should be at least as large as train",
                w.name()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("swim").is_some());
        assert!(workload_by_name("SWIM").is_some());
        assert!(workload_by_name("nope").is_none());
    }
}
