//! The operational NWP contention cycle: mixed writer/reader fleets
//! under shared-index vs index-per-process layouts and FIFO vs
//! writer-priority admission, with an optional fault campaign on top.
//!
//! Reproduces the central comparison of "Reducing the Impact of I/O
//! Contention in NWP Workflows at Scale Using DAOS" (arXiv 2404.03107):
//! deadline-carrying model writers stream fields every step while a
//! larger product-generation reader fleet fetches the previous step's
//! fields from the same pool. The report compares writer/reader p99 op
//! latency, missed-deadline counts and target-queue backlog depth
//! across the two index layouts and the two admission policies, clean
//! and under a seeded fault campaign; `BENCH_nwp_cycle.json` carries
//! the full rows including the backlog time series, plus an
//! `enforcement` block quantifying what writer-priority admission buys
//! the saturated shared-index cycle (and what the readers pay).
//! Everything is sim-derived and seed-fixed, so reruns are
//! byte-identical.

use daosim_cluster::{ClusterSpec, FaultPlan, RetryPolicy};
use daosim_core::cycle::{run_nwp_cycle, CycleConfig, CycleConfigError, CycleOutcome, IndexLayout};
use daosim_kernel::{AdmissionPolicy, SimDuration};

use crate::harness::{p50_p99, parallel_map, JsonObject, Report, Scale};

/// Seed of the experiment's fault campaign.
const FAULT_SEED: u64 = 11;

/// The experiment's deployment: one dual-engine server node, clients on
/// two nodes — small enough for CI, contended enough to separate the
/// layouts.
fn spec(faults: bool) -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(1, 2);
    if faults {
        spec.retry = RetryPolicy::builder().operational().build();
    }
    spec
}

/// Cycle shape at `scale`, on the shared index. Both shapes
/// are *reader-saturated*: the writer fleet alone fits comfortably
/// inside the step interval, but the much larger reader fleet waking at
/// every step boundary floods the service queues — so under FIFO
/// admission writer completions queue behind reader ops and blow the
/// deadline, and the admission policy (not raw bandwidth) decides the
/// writer tail. The full shape doubles the fleet and adds a step so the
/// separation is unmistakable. `tiering` runs the same shape.
pub(crate) fn cycle_shape(scale: &Scale) -> CycleConfig {
    let quick = CycleConfig {
        writers: 6,
        readers: 32,
        steps: 3,
        fields_per_step: 3,
        field_bytes: 512 * 1024,
        step_interval: SimDuration::from_millis(16),
        write_window: 4,
        read_window: 8,
        reads_per_step: 8,
        ..CycleConfig::small(IndexLayout::Shared)
    };
    if scale.ops_per_proc < 30 {
        return quick;
    }
    CycleConfig {
        writers: 8,
        readers: 48,
        steps: 4,
        fields_per_step: 4,
        step_interval: SimDuration::from_millis(25),
        write_window: 8,
        ..quick
    }
}

/// The optional contention + failure axis: a seeded random campaign over
/// the first half of the cycle.
fn campaign(cfg: &CycleConfig, engines: u32, seed: u64) -> FaultPlan {
    let horizon = SimDuration::from_nanos(cfg.step_interval.as_nanos() * cfg.steps as u64 / 2);
    FaultPlan::random_campaign(seed, engines, horizon)
}

/// One point of [`cycle_grid`]. The outcome records its own index
/// layout and admission policy.
#[derive(Debug)]
pub struct CycleRow {
    /// Whether the fault campaign ran.
    pub faults: bool,
    pub outcome: CycleOutcome,
}

/// The nwp-cycle grid: `base` at every layout × admission × faults
/// point, layout-major and faults-minor, one simulated world per point.
/// Each point's admission policy goes on its cluster spec.
/// Faulted points add the operational retry policy and a random
/// engine-fault campaign seeded by `fault_seed` over the first half of
/// the cycle, so the cycle degrades instead of failing.
pub fn cycle_grid(
    base: &CycleConfig,
    layouts: &[IndexLayout],
    admissions: &[AdmissionPolicy],
    faults: &[bool],
    fault_seed: u64,
) -> Result<Vec<CycleRow>, CycleConfigError> {
    let mut points = Vec::new();
    for &layout in layouts {
        for &admission in admissions {
            for &f in faults {
                let cfg = CycleConfig { layout, ..*base };
                points.push((cfg, admission, f));
            }
        }
    }
    parallel_map(points, |&(cfg, admission, faults)| {
        let spec = ClusterSpec {
            admission,
            ..spec(faults)
        };
        let plan = faults.then(|| campaign(&cfg, spec.engines(), fault_seed));
        run_nwp_cycle(spec, &cfg, plan.as_ref()).map(|outcome| CycleRow { faults, outcome })
    })
    .into_iter()
    .collect()
}

/// Runs the eight configurations (layouts × admission × faults) and
/// renders the report plus the `BENCH_nwp_cycle.json` artifact.
pub fn nwp_cycle(scale: &Scale) -> Report {
    let cfg = cycle_shape(scale);
    let results = cycle_grid(
        &cfg,
        &IndexLayout::all(),
        &[AdmissionPolicy::Fifo, AdmissionPolicy::writer_priority()],
        &[false, true],
        FAULT_SEED,
    )
    .expect("valid cycle config");

    let mut rep = Report::new(
        "nwp-cycle",
        "Extension: operational NWP cycle — writer deadlines vs reader fleet, shared vs split index, FIFO vs writer-priority admission",
        &[
            "layout",
            "admission",
            "faults",
            "writer_p99_us",
            "reader_p99_us",
            "missed_deadlines",
            "aged_grants",
            "backlog_peak",
            "failed_reads",
            "secs",
        ],
    );
    let mut rows = Vec::with_capacity(results.len());
    for CycleRow {
        faults,
        outcome: out,
    } in &results
    {
        let (wp50, wp99) = p50_p99(&out.writer_lat);
        let (rp50, rp99) = p50_p99(&out.reader_lat);
        rep.row(vec![
            out.layout.name().to_string(),
            out.admission.name().to_string(),
            faults.to_string(),
            format!("{wp99:.1}"),
            format!("{rp99:.1}"),
            out.deadlines_missed.to_string(),
            out.aged_grants.to_string(),
            out.backlog_peak.to_string(),
            out.resilience.failed_reads.to_string(),
            format!("{:.4}", out.end_secs),
        ]);
        let series: Vec<String> = out
            .backlog_series
            .iter()
            .map(|(t, d)| format!("[{t}, {d}]"))
            .collect();
        rows.push(
            JsonObject::pretty()
                .str("layout", out.layout.name())
                .str("admission", out.admission.name())
                .raw("faults", faults)
                .raw("end_secs", out.end_secs)
                .raw("writer_p50_us", wp50)
                .raw("writer_p99_us", wp99)
                .raw("reader_p50_us", rp50)
                .raw("reader_p99_us", rp99)
                .raw("writer_class_p99_us", out.writer_p99_us)
                .raw("reader_class_p99_us", out.reader_p99_us)
                .raw("deadlines_met", out.deadlines_met)
                .raw("deadlines_missed", out.deadlines_missed)
                .raw("worst_lateness_ms", out.worst_lateness_ms)
                .raw("aged_grants", out.aged_grants)
                .raw("backlog_peak", out.backlog_peak)
                .raw("backlog_series", format!("[{}]", series.join(", ")))
                .raw("fields_written", out.fields_written)
                .raw("fields_read", out.fields_read)
                .raw("failed_writes", out.resilience.failed_writes)
                .raw("failed_reads", out.resilience.failed_reads)
                .raw("retries", out.resilience.retries),
        );
    }

    // The crossover figure: shared-index cost relative to split, clean,
    // both under FIFO admission (rows 0 and 4 of the axis order).
    let shared = &results[0].outcome;
    let split = &results[4].outcome;
    let end_ratio = shared.end_secs / split.end_secs;
    let (_, shared_p99) = p50_p99(&shared.writer_lat);
    let (_, split_p99) = p50_p99(&split.writer_lat);
    let p99_ratio = if split_p99 > 0.0 {
        shared_p99 / split_p99
    } else {
        0.0
    };

    // The enforcement figure: what writer-priority admission buys the
    // saturated shared-index cycle (rows 0 fifo vs 2 writer-priority,
    // both clean) — and what the readers pay for it. Readers must still
    // complete every op: barging degrades them, never starves them.
    let fifo = &results[0].outcome;
    let prio = &results[2].outcome;
    let reader_ops = (cfg.readers * cfg.steps * cfg.reads_per_step) as u64;
    let json = JsonObject::pretty()
        .str("experiment", "nwp-cycle")
        .str("cluster", "tcp(server_nodes=1, client_nodes=2)")
        .raw("writers", cfg.writers)
        .raw("readers", cfg.readers)
        .raw("steps", cfg.steps)
        .raw("fields_per_step", cfg.fields_per_step)
        .raw("field_bytes", cfg.field_bytes)
        .raw("step_interval_ms", cfg.step_interval.as_nanos() / 1_000_000)
        .array("rows", rows)
        .raw(
            "crossover",
            JsonObject::pretty()
                .raw("shared_over_split_end_ratio", end_ratio)
                .raw("shared_over_split_writer_p99_ratio", p99_ratio),
        )
        .raw(
            "enforcement",
            JsonObject::pretty()
                .str("layout", fifo.layout.name())
                .raw("writer_class_p99_us_fifo", fifo.writer_p99_us)
                .raw("writer_class_p99_us_writer_priority", prio.writer_p99_us)
                .raw("deadlines_missed_fifo", fifo.deadlines_missed)
                .raw("deadlines_missed_writer_priority", prio.deadlines_missed)
                .raw("reader_class_p99_us_fifo", fifo.reader_p99_us)
                .raw("reader_class_p99_us_writer_priority", prio.reader_p99_us)
                .raw("aged_grants", prio.aged_grants)
                .raw("reader_ops_expected", reader_ops)
                .raw(
                    "reader_ops_resolved",
                    prio.fields_read + prio.resilience.failed_reads,
                ),
        );

    rep.note(format!(
        "{} writers ({} steps x {} fields, deadline = step interval) vs {} readers x {} reads/step; \
         shared index is {end_ratio:.2}x split on cycle end, {p99_ratio:.2}x on writer p99; \
         writer-priority admission on shared/clean: writer p99 {:.0} -> {:.0} us, \
         deadlines missed {} -> {}",
        cfg.writers, cfg.steps, cfg.fields_per_step, cfg.readers, cfg.reads_per_step,
        fifo.writer_p99_us, prio.writer_p99_us, fifo.deadlines_missed, prio.deadlines_missed
    ));
    rep.artifact("BENCH_nwp_cycle.json", json.render());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_every_layout_admission_fault_combination() {
        let rep = nwp_cycle(&Scale::quick());
        assert_eq!(rep.rows().len(), 8, "2 layouts x 2 admissions x faults");
        assert_eq!(rep.artifacts().len(), 1);
        assert_eq!(rep.artifacts()[0].0, "BENCH_nwp_cycle.json");
        // Clean shared-index must never beat split on cycle end time
        // (FIFO admission rows 0 and 4).
        let secs: Vec<f64> = rep.rows().iter().map(|r| r[9].parse().unwrap()).collect();
        assert!(
            secs[0] >= secs[4],
            "shared {} vs split {}",
            secs[0],
            secs[4]
        );
    }

    #[test]
    fn writer_priority_improves_saturated_shared_writers() {
        // The tentpole claim: on the saturated shared-index cycle,
        // writer-priority admission improves the writer class p99 and
        // misses no more deadlines than FIFO, while every reader op
        // still resolves (degraded, not starved).
        let rep = nwp_cycle(&Scale::quick());
        let rows = rep.rows();
        let (fifo, prio) = (&rows[0], &rows[2]);
        assert_eq!(fifo[0], "shared-index");
        assert_eq!(fifo[1], "fifo");
        assert_eq!(prio[1], "writer-priority");
        let (fifo_p99, prio_p99): (f64, f64) = (fifo[3].parse().unwrap(), prio[3].parse().unwrap());
        assert!(
            prio_p99 < fifo_p99,
            "writer p99 must improve: fifo {fifo_p99} vs prio {prio_p99}"
        );
        let (fifo_missed, prio_missed): (u64, u64) =
            (fifo[5].parse().unwrap(), prio[5].parse().unwrap());
        assert!(
            prio_missed <= fifo_missed,
            "deadlines: fifo {fifo_missed} vs prio {prio_missed}"
        );
        // Readers degrade but finish: no starved (unresolved) reader op.
        let artifact = &rep.artifacts()[0].1;
        assert!(artifact.contains("\"reader_ops_resolved\""));
        let expected = artifact
            .lines()
            .find(|l| l.contains("reader_ops_expected"))
            .unwrap();
        let resolved = artifact
            .lines()
            .find(|l| l.contains("reader_ops_resolved"))
            .unwrap();
        let num = |l: &str| -> u64 {
            l.trim()
                .trim_end_matches(',')
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(num(expected), num(resolved), "a reader op never resolved");
    }

    #[test]
    fn cycle_experiment_is_deterministic() {
        let a = nwp_cycle(&Scale::quick());
        let b = nwp_cycle(&Scale::quick());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
