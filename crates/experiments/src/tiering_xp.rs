//! Two-tier media under the saturated NWP cycle: SCM-only vs SCM+NVMe,
//! with the background aggregation service on and off.
//!
//! The paper's NEXTGenIO testbed is SCM-only, but production DAOS pairs
//! the persistent-memory write buffer with an NVMe capacity tier and a
//! per-target aggregation service that migrates cold extents down once
//! the buffer fills past a watermark (DESIGN.md §14). This experiment
//! reruns the saturated shared-index `nwp-cycle` workload over the
//! {scm-only, tiered} × {aggregation on, off} grid with the write
//! buffer shrunk far below the cycle's foreground volume, so the tier
//! split actually engages: spill writes pay NVMe media time, reads pay
//! the occupancy-weighted NVMe mixture, and with aggregation on the
//! migration traffic contends with foreground I/O on the same target
//! service queues — the *aggregation-induced tail inflation* the
//! artifact quantifies. Everything is sim-derived and seed-fixed, so
//! reruns are byte-identical.

use daosim_cluster::{AggregationConfig, ClusterSpec, NvmeSpec, ScmSpec, TierPolicy};
use daosim_core::cycle::{run_nwp_cycle, CycleConfig, CycleConfigError, CycleOutcome};
use daosim_core::workload::MIB;
use daosim_kernel::SimDuration;

use crate::harness::{p50_p99, parallel_map, JsonObject, Report, Scale};
use crate::nwp_cycle_xp::cycle_shape;

/// Per-socket SCM budget for the tiered rows: 12 MiB per socket = 1 MiB
/// per target (12 targets/engine), far below the cycle's foreground
/// volume so the write buffer fills and the watermark machinery runs.
const TIERED_SCM_PER_SOCKET: u64 = 12 * MIB;

/// Placement threshold for the tiered rows: every cycle shard prefers
/// the write buffer (production small-I/O behaviour); NVMe fills by
/// spill and by aggregation, not by direct placement.
const TIERED_SCM_THRESHOLD: u64 = MIB;

/// Seed of the aggregation service's per-target stagger.
const AGGREGATION_SEED: u64 = 0xA66;

/// The experiment's deployment — same one-server/two-client-node shape
/// as `nwp-cycle`; the tiered rows swap the media configuration only.
fn spec(tiered: bool, scm_per_socket: u64, scm_threshold: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(1, 2);
    if tiered {
        spec.calibration.scm = ScmSpec {
            capacity: scm_per_socket,
            ..spec.calibration.scm
        };
        // Aggressive watermarks: a single 512 KiB field parks a target
        // slice at 50% occupancy — under the default 75% high mark the
        // service would never activate while every further write
        // spills. 30%/10% makes any resident field eligible for
        // migration, which is the regime the experiment measures.
        spec.tiering = TierPolicy {
            nvme: Some(NvmeSpec::p4510_gen1()),
            scm_threshold,
            high_watermark: 0.30,
            low_watermark: 0.10,
        };
    }
    spec
}

/// One point of [`tiering_grid`].
#[derive(Debug)]
pub struct TieringRow {
    /// SCM write buffer plus NVMe capacity tier, or the paper's
    /// SCM-only media.
    pub tiered: bool,
    /// Whether the background aggregation service ran.
    pub aggregation: bool,
    pub outcome: CycleOutcome,
}

impl TieringRow {
    /// `"tiered"` or `"scm-only"`.
    pub fn media(&self) -> &'static str {
        if self.tiered {
            "tiered"
        } else {
            "scm-only"
        }
    }
}

/// The tiering grid: `base` over {scm-only, tiered} × {aggregation off,
/// on}, media-major, one simulated world per point. Tiered points
/// shrink the per-socket SCM write buffer to `scm_per_socket` bytes and
/// add the `NvmeSpec::p4510_gen1()` capacity tier (30%/10% watermarks,
/// placement threshold `scm_threshold` bytes); scm-only points keep the
/// paper's NEXTGenIO media. The cycle is backlogged — it finishes steps
/// well past the nominal `steps × interval` — so the aggregation
/// horizon runs 4× that span: the service must outlive the congested
/// tail of the workload, where most writes are actually serviced (and
/// most SCM fills happen), and still leave the simulation
/// quiescent-terminating. Aggregation-on rows therefore report
/// `end_secs` = the horizon when it exceeds the workload's own end; a
/// horizon past simulated time is a [`CycleConfigError::TimeOverflow`].
pub fn tiering_grid(
    base: &CycleConfig,
    scm_per_socket: u64,
    scm_threshold: u64,
    aggregation_seed: u64,
) -> Result<Vec<TieringRow>, CycleConfigError> {
    let horizon = base
        .step_interval
        .as_nanos()
        .checked_mul((base.steps as u64 + 1) * 4)
        .map(SimDuration::from_nanos)
        .ok_or(CycleConfigError::TimeOverflow(
            "the aggregation horizon 4 × (steps + 1) × step_interval",
        ))?;
    let points = vec![(false, false), (false, true), (true, false), (true, true)];
    parallel_map(points, |&(tiered, aggregation)| {
        let cfg = CycleConfig {
            aggregation: aggregation
                .then(|| AggregationConfig::operational(horizon, aggregation_seed)),
            ..*base
        };
        let spec = spec(tiered, scm_per_socket, scm_threshold);
        run_nwp_cycle(spec, &cfg, None).map(|outcome| TieringRow {
            tiered,
            aggregation,
            outcome,
        })
    })
    .into_iter()
    .collect()
}

/// Runs the four grid points on the saturated shared-index cycle of
/// `nwp-cycle` (FIFO admission) and renders the report plus the
/// `BENCH_tiering.json` artifact.
pub fn tiering(scale: &Scale) -> Report {
    let cfg = cycle_shape(scale);
    let results = tiering_grid(
        &cfg,
        TIERED_SCM_PER_SOCKET,
        TIERED_SCM_THRESHOLD,
        AGGREGATION_SEED,
    )
    .expect("valid cycle config");

    let mut rep = Report::new(
        "tiering",
        "Extension: two-tier SCM+NVMe media — write-buffer spill and background aggregation under the saturated shared-index cycle",
        &[
            "media",
            "aggregation",
            "writer_p99_us",
            "reader_p99_us",
            "missed_deadlines",
            "scm_used_mib",
            "nvme_used_mib",
            "aggregated_mib",
            "secs",
        ],
    );
    let mut rows = Vec::with_capacity(results.len());
    for r in &results {
        let out = &r.outcome;
        let (wp50, wp99) = p50_p99(&out.writer_lat);
        let (rp50, rp99) = p50_p99(&out.reader_lat);
        rep.row(vec![
            r.media().to_string(),
            r.aggregation.to_string(),
            format!("{wp99:.1}"),
            format!("{rp99:.1}"),
            out.deadlines_missed.to_string(),
            format!("{:.2}", out.scm_used as f64 / MIB as f64),
            format!("{:.2}", out.nvme_used as f64 / MIB as f64),
            format!("{:.2}", out.aggregated_bytes as f64 / MIB as f64),
            format!("{:.4}", out.end_secs),
        ]);
        rows.push(
            JsonObject::pretty()
                .str("media", r.media())
                .raw("aggregation", r.aggregation)
                .raw("end_secs", out.end_secs)
                .raw("writer_p50_us", wp50)
                .raw("writer_p99_us", wp99)
                .raw("reader_p50_us", rp50)
                .raw("reader_p99_us", rp99)
                .raw("writer_class_p99_us", out.writer_p99_us)
                .raw("reader_class_p99_us", out.reader_p99_us)
                .raw("deadlines_met", out.deadlines_met)
                .raw("deadlines_missed", out.deadlines_missed)
                .raw("backlog_peak", out.backlog_peak)
                .raw("scm_used", out.scm_used)
                .raw("nvme_used", out.nvme_used)
                .raw("aggregated_bytes", out.aggregated_bytes)
                .raw("fields_written", out.fields_written)
                .raw("fields_read", out.fields_read)
                .raw("failed_writes", out.resilience.failed_writes)
                .raw("failed_reads", out.resilience.failed_reads),
        );
    }

    // The headline figures. Tier cost: tiered/agg-off vs scm-only (both
    // clean FIFO) — what the shrunken write buffer plus NVMe spill does
    // to the writer tail. Aggregation tail inflation: tiered/agg-on vs
    // tiered/agg-off — what the migration traffic's service-queue grants
    // add on top.
    let scm_only = &results[0].outcome;
    let agg_off = &results[2].outcome;
    let agg_on = &results[3].outcome;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (_, scm_wp99) = p50_p99(&scm_only.writer_lat);
    let (_, off_wp99) = p50_p99(&agg_off.writer_lat);
    let (_, on_wp99) = p50_p99(&agg_on.writer_lat);
    let (_, off_rp99) = p50_p99(&agg_off.reader_lat);
    let (_, on_rp99) = p50_p99(&agg_on.reader_lat);
    let tier_cost = ratio(off_wp99, scm_wp99);
    let w_inflation = ratio(on_wp99, off_wp99);
    let r_inflation = ratio(on_rp99, off_rp99);
    let json = JsonObject::pretty()
        .str("experiment", "tiering")
        .str("cluster", "tcp(server_nodes=1, client_nodes=2)")
        .str("layout", cfg.layout.name())
        .str("admission", cfg.admission.name())
        .raw("writers", cfg.writers)
        .raw("readers", cfg.readers)
        .raw("steps", cfg.steps)
        .raw("fields_per_step", cfg.fields_per_step)
        .raw("field_bytes", cfg.field_bytes)
        .raw("step_interval_ms", cfg.step_interval.as_nanos() / 1_000_000)
        .raw("tiered_scm_per_socket", TIERED_SCM_PER_SOCKET)
        .raw("tiered_scm_threshold", TIERED_SCM_THRESHOLD)
        .array("rows", rows)
        .raw(
            "aggregation_tail",
            JsonObject::pretty()
                .raw("tiered_over_scm_writer_p99_ratio", tier_cost)
                .raw("agg_on_over_off_writer_p99_ratio", w_inflation)
                .raw("agg_on_over_off_reader_p99_ratio", r_inflation)
                .raw("aggregated_bytes", agg_on.aggregated_bytes)
                .raw("scm_used_agg_on", agg_on.scm_used)
                .raw("scm_used_agg_off", agg_off.scm_used),
        );

    rep.note(format!(
        "{} writers x {} steps x {} fields ({} KiB) vs {} readers on a {} MiB/socket write buffer; \
         tiered/agg-off writer p99 is {tier_cost:.2}x scm-only; aggregation migrates {:.2} MiB \
         and inflates writer p99 {w_inflation:.2}x, reader p99 {r_inflation:.2}x over agg-off",
        cfg.writers,
        cfg.steps,
        cfg.fields_per_step,
        cfg.field_bytes / 1024,
        cfg.readers,
        TIERED_SCM_PER_SOCKET / MIB,
        agg_on.aggregated_bytes as f64 / MIB as f64,
    ));
    rep.artifact("BENCH_tiering.json", json.render());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_media_by_aggregation_grid() {
        let rep = tiering(&Scale::quick());
        assert_eq!(rep.rows().len(), 4, "2 media x aggregation on/off");
        assert_eq!(rep.artifacts().len(), 1);
        assert_eq!(rep.artifacts()[0].0, "BENCH_tiering.json");
        // scm-only rows must never touch the capacity tier; the
        // aggregation service without an NVMe tier is inert.
        for row in &rep.rows()[..2] {
            assert_eq!(row[0], "scm-only");
            assert_eq!(row[6], "0.00", "scm-only row used NVMe: {row:?}");
            assert_eq!(row[7], "0.00", "scm-only row aggregated: {row:?}");
        }
    }

    #[test]
    fn tiered_rows_spill_and_aggregation_migrates() {
        let rep = tiering(&Scale::quick());
        let rows = rep.rows();
        let mib = |s: &str| s.parse::<f64>().unwrap();
        // The write buffer is sized far below the cycle's foreground
        // volume: both tiered rows must land bytes on NVMe.
        assert!(mib(&rows[2][6]) > 0.0, "agg-off spilled nothing: {rows:?}");
        assert!(mib(&rows[3][6]) > 0.0, "agg-on spilled nothing: {rows:?}");
        // With the service off nothing migrates; on, it must move real
        // bytes and leave SCM no fuller than the agg-off run.
        assert_eq!(mib(&rows[2][7]), 0.0);
        assert!(mib(&rows[3][7]) > 0.0, "aggregation never ran: {rows:?}");
        assert!(
            mib(&rows[3][5]) <= mib(&rows[2][5]),
            "aggregation must drain the write buffer: {rows:?}"
        );
    }

    #[test]
    fn tiering_experiment_is_deterministic() {
        let a = tiering(&Scale::quick());
        let b = tiering(&Scale::quick());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
