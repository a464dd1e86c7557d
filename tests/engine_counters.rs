//! Pins the campaign engine's *work*, not only its outcomes.
//!
//! Every other campaign test compares two paths against each other
//! (splice on/off, strides, workers, compare paths), so a change that
//! made the divergence splice fire less often — a capture or summary
//! bug that keeps dead-diff or SDC certifications from firing, say —
//! would still pass them all: outcomes stay right, only the work grows.
//! This test pins the absolute numbers instead: the outcome counts, the
//! per-rule splice counts, the golden-suffix instructions saved and the
//! probe counters (`ProbeCost` compares equal to everything, so its
//! fields are read out one by one), per workload and fault model at a
//! fixed seed.
//!
//! The table is the engine's recorded behavior. A deliberate change to
//! splice scheduling or the compare path must update it (the failure
//! message prints the table in source form); an interpreter or capture
//! refactor must not.

use encore::core::{Encore, EncoreConfig};
use encore::sim::{run_function, FaultModelKind, RunConfig, SfiCampaign, SfiConfig, Value};

/// Counter row: injections, benign, recovered, silent corruption,
/// detected-unrecoverable, crashed, hung; splice converged, dead-diff,
/// sdc; dyn insts saved; probes, pages hashed, words compared.
type Row = [u64; 14];

const SPECS: [&str; 3] = ["rawdaudio", "g721encode", "rawdaudio@10x"];
const INJECTIONS: usize = 96;
const SEED: u64 = 0x5EED_C0DE;

/// Recorded rows, in `SPECS` × `FaultModelKind::ALL` order.
const EXPECTED: &[(&str, &str, Row)] = &[
    ("rawdaudio", "bit-flip", [96, 0, 40, 56, 0, 0, 0, 40, 0, 34, 385776, 283, 323, 7424]),
    ("rawdaudio", "multi-bit", [96, 0, 40, 56, 0, 0, 0, 39, 0, 33, 366479, 312, 320, 7552]),
    ("rawdaudio", "address", [96, 0, 79, 17, 0, 0, 0, 77, 1, 16, 552123, 113, 305, 1536]),
    ("rawdaudio", "control-flow", [96, 0, 1, 95, 0, 0, 0, 1, 0, 37, 232748, 42, 120, 0]),
    ("rawdaudio", "power-failure", [96, 0, 96, 0, 0, 0, 0, 95, 0, 0, 561516, 103, 298, 0]),
    ("g721encode", "bit-flip", [96, 0, 49, 47, 0, 0, 0, 49, 0, 43, 616002, 114, 287, 4352]),
    ("g721encode", "multi-bit", [96, 0, 42, 54, 0, 0, 0, 42, 0, 50, 614722, 133, 287, 5056]),
    ("g721encode", "address", [96, 0, 77, 19, 0, 0, 0, 74, 2, 19, 634159, 105, 298, 1536]),
    ("g721encode", "control-flow", [96, 0, 2, 94, 0, 0, 0, 0, 0, 27, 211555, 51, 81, 0]),
    ("g721encode", "power-failure", [96, 0, 96, 0, 0, 0, 0, 95, 0, 0, 634927, 104, 294, 0]),
    ("rawdaudio@10x", "bit-flip", [96, 0, 43, 53, 0, 0, 0, 42, 0, 49, 5111310, 188, 392, 10240]),
    ("rawdaudio@10x", "multi-bit", [96, 0, 38, 58, 0, 0, 0, 37, 0, 54, 5091339, 230, 408, 11200]),
    ("rawdaudio@10x", "address", [96, 0, 58, 38, 0, 0, 0, 55, 3, 34, 5395413, 173, 372, 7380]),
    ("rawdaudio@10x", "control-flow", [96, 0, 0, 96, 0, 0, 0, 0, 0, 41, 2561073, 46, 129, 0]),
    ("rawdaudio@10x", "power-failure", [96, 0, 96, 0, 0, 0, 0, 96, 0, 0, 5552751, 101, 299, 0]),
];

fn rows_for(spec: &str) -> Vec<(String, String, Row)> {
    let w = encore::workloads::by_spec(spec).expect("known workload spec");
    let train = run_function(
        &w.module,
        None,
        w.entry,
        &[Value::Int(w.train_arg)],
        &RunConfig { collect_profile: true, ..Default::default() },
    );
    assert!(train.completed, "{spec}: training run trapped");
    let outcome = Encore::new(EncoreConfig::default().with_overhead_budget(1e9))
        .run(&w.module, train.profile.as_ref().expect("profile"));
    let (module, map) = (outcome.instrumented.module, outcome.instrumented.map);
    let base =
        SfiConfig { injections: INJECTIONS, dmax: 64, seed: SEED, workers: 1, ..Default::default() };
    let campaign =
        SfiCampaign::prepare(&module, Some(&map), w.entry, &[Value::Int(w.eval_arg)], &base)
            .expect("golden run completes");
    campaign
        .run_models(&base, &FaultModelKind::ALL)
        .into_iter()
        .map(|r| {
            let (s, sp) = (r.stats, r.splice);
            let row = [
                s.injections,
                s.benign,
                s.recovered,
                s.silent_corruption,
                s.detected_unrecoverable,
                s.crashed,
                s.hung,
                sp.converged,
                sp.dead_diff,
                sp.sdc,
            ]
            .map(|n| n as u64);
            let mut full = [0u64; 14];
            full[..10].copy_from_slice(&row);
            full[10] = sp.dyn_insts_saved;
            full[11] = sp.cost.probes;
            full[12] = sp.cost.pages_hashed;
            full[13] = sp.cost.words_compared;
            (spec.to_string(), r.model().name().to_string(), full)
        })
        .collect()
}

#[test]
fn campaign_counters_match_the_recorded_table() {
    let actual: Vec<(String, String, Row)> = SPECS.iter().flat_map(|s| rows_for(s)).collect();
    let table: String = actual
        .iter()
        .map(|(spec, model, row)| format!("    (\"{spec}\", \"{model}\", {row:?}),\n"))
        .collect();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((s, m, r), (es, em, er))| s == es && m == em && r == er);
    assert!(matches, "engine counters changed; actual table:\n{table}");
}
