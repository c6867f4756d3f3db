//! Every experiment runner executes end to end at quick scale and
//! produces the expected table shape and well-formed JSON artifacts —
//! the regeneration path itself is under test, not just the models
//! beneath it.

use daosim_core::obs::json_is_wellformed;
use daosim_experiments::harness::Scale;
use daosim_experiments::{run_experiment, EXPERIMENTS};

#[test]
fn every_experiment_runs_at_quick_scale() {
    let scale = Scale::quick();
    for name in EXPERIMENTS {
        let reports = run_experiment(name, &scale);
        assert!(!reports.is_empty(), "{name} produced no reports");
        for rep in &reports {
            assert!(!rep.rows().is_empty(), "{name}/{} has no rows", rep.name);
            let rendered = rep.render();
            assert!(rendered.contains("=="), "{name} render broken");
            let csv = rep.to_csv();
            assert!(csv.lines().count() > 1, "{name} csv empty");
            for (file, body) in rep.artifacts() {
                if file.ends_with(".json") {
                    assert!(json_is_wellformed(body), "{name}/{file} is malformed JSON");
                }
            }
        }
    }
}

#[test]
fn table2_preserves_provider_ordering() {
    let rep = &run_experiment("table2", &Scale::quick())[0];
    // Row 0 is PSM2/1 pair; row 1 is TCP/1 pair (see tables.rs).
    let psm2: f64 = rep.rows()[0][3].parse().unwrap();
    let tcp: f64 = rep.rows()[1][3].parse().unwrap();
    assert!(
        psm2 > 3.0 * tcp,
        "PSM2 single-stream ({psm2}) must dwarf TCP ({tcp})"
    );
    // TCP pair scaling is monotonically non-decreasing up to 8 pairs.
    let tcp8: f64 = rep.rows()[4][3].parse().unwrap();
    assert!(tcp8 > 2.0 * tcp, "8 TCP pairs ({tcp8}) must beat 1 ({tcp})");
}

#[test]
fn fig4_no_index_outscales_indexed_modes() {
    let rep = &run_experiment("fig4", &Scale::quick())[0];
    // Find pattern-A rows at the largest server count in the table.
    let max_servers: u32 = rep
        .rows()
        .iter()
        .map(|r| r[2].parse::<u32>().unwrap())
        .max()
        .unwrap();
    let agg = |mode: &str| -> f64 {
        rep.rows()
            .iter()
            .find(|r| r[0] == "A" && r[1] == mode && r[2] == max_servers.to_string())
            .expect("row present")[6]
            .parse()
            .unwrap()
    };
    assert!(
        agg("no-index") > agg("full"),
        "high contention must penalise indexed modes at {max_servers} servers"
    );
}
