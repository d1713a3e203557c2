//! Absolute pin for Table 1: `consistency_rows` for one cell of each
//! collector shape must reproduce that benchmark's rows of the committed
//! `results_table1_{sparc,p4}.json` byte for byte. Release CI diffs the
//! whole tables; this holds the collectors to them under `cargo test`.
//!
//! * SWIM: CBR, one context, 13 measured runs.
//! * APSI: CBR, three contexts filling at different runs.
//! * EQUAKE: CBR, its only context filled inside the first run.
//! * WUPWISE: CBR, two contexts, both filled inside the first run, one
//!   long before the other.
//! * ART: RBR with the inspector, 10 runs, the last one partial.
//! * MGRID: MBR, every invocation of its one run.
//! * MCF: RBR copying regions, 2 runs.
//!
//! The cells that take many runs sit on SPARC-II, the cheaper machine;
//! the two light ones pin the Pentium-IV table.

use peak_core::consistency_rows;
use peak_sim::MachineSpec;
use peak_util::{Json, ToJson};
use peak_workloads::workload_by_name;

const SPARC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_table1_sparc.json");
const P4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_table1_p4.json");

/// Compare `bench`'s rows, rendered as `table1 --json` renders them,
/// with its rows of the golden at `path`.
fn assert_rows_match(bench: &str, spec: MachineSpec, path: &str) {
    let text = std::fs::read_to_string(path).expect("read Table 1 golden");
    let golden = peak_util::from_str(&text).expect("parse Table 1 golden");
    // Parsing and re-rendering is exact, so comparing renderings
    // compares the file's bytes.
    assert_eq!(golden.pretty().trim_end(), text.trim_end(), "{path} does not round-trip");
    let expected: Vec<String> = golden
        .as_arr()
        .expect("Table 1 golden is an array of rows")
        .iter()
        .filter(|row| row.get("benchmark").and_then(Json::as_str) == Some(bench))
        .map(Json::pretty)
        .collect();
    assert!(!expected.is_empty(), "{path} has no {bench} row");
    let w = workload_by_name(bench).expect("known workload");
    let got: Vec<String> =
        consistency_rows(w.as_ref(), &spec).iter().map(|row| row.to_json().pretty()).collect();
    assert_eq!(got, expected, "{bench} rows differ from {path}");
}

#[test]
fn swim_cbr_matches_golden() {
    assert_rows_match("SWIM", MachineSpec::sparc_ii(), SPARC);
}

#[test]
fn apsi_cbr_three_contexts_match_golden() {
    assert_rows_match("APSI", MachineSpec::sparc_ii(), SPARC);
}

#[test]
fn equake_cbr_matches_golden() {
    assert_rows_match("EQUAKE", MachineSpec::sparc_ii(), SPARC);
}

#[test]
fn wupwise_cbr_two_contexts_match_golden() {
    assert_rows_match("WUPWISE", MachineSpec::sparc_ii(), SPARC);
}

#[test]
fn art_rbr_inspector_matches_golden() {
    assert_rows_match("ART", MachineSpec::sparc_ii(), SPARC);
}

#[test]
fn mgrid_mbr_matches_golden() {
    assert_rows_match("MGRID", MachineSpec::pentium_iv(), P4);
}

#[test]
fn mcf_rbr_regions_match_golden() {
    assert_rows_match("MCF", MachineSpec::pentium_iv(), P4);
}
