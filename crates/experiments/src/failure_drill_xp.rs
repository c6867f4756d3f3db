//! Beyond-paper extension: an operational failure drill.
//!
//! Runs a *paced* operational trace (forecast steps emitting replicated
//! fields on a fixed cadence, product generation reading them a step
//! later) while a deterministic fault campaign plays out underneath:
//! an engine is killed mid-window and rebuilt, a second engine suffers
//! a transient brownout, and the dead engine is eventually restarted.
//! Clients run the `RetryPolicy::builder().operational()` policy, so transient
//! failures are retried with backoff and the pool map is re-consulted
//! after failover.
//!
//! The report is an availability timeline — write/read throughput per
//! bucket with the injected fault marked — plus the resilience counters.
//! The drill's invariants (this is a drill, so they are asserted, not
//! just reported): every replicated field survives (zero failed
//! operations) and the retry machinery actually engaged (non-zero retry
//! count). Fixed seeds end to end make two runs byte-identical.

use daosim_cluster::{ClusterSpec, FaultPlan, RetryPolicy};
use daosim_core::fieldio::FieldIoConfig;
use daosim_core::metrics::anchored_bandwidth_timeline;
use daosim_core::trace::{replay_detailed, Pacing, ReplayStats, Trace};
use daosim_core::workload::MIB;
use daosim_kernel::{SimDuration, SimTime};
use daosim_objstore::ObjectClass;

use crate::harness::{Report, Scale};

/// Forecast-step cadence of the synthetic schedule.
fn step_interval() -> SimDuration {
    SimDuration::from_millis(60)
}

/// Replays `trace` paced on `tcp(servers, clients)` with the
/// operational retry policy while `plan` plays out. The whole lookup
/// chain is replicated — arrays *and* index KVs (RP2), otherwise the
/// index is a single point of failure and fields are lost with the
/// engine even though their payload survives. Returns the replay stats
/// and the `(t_ns, write GiB/s, read GiB/s)` availability timeline in
/// `bucket`-wide rows.
pub fn run_drill(
    servers: u16,
    clients: u16,
    trace: &Trace,
    plan: &FaultPlan,
    bucket: SimDuration,
) -> (ReplayStats, Vec<(u64, f64, f64)>) {
    let mut spec = ClusterSpec::tcp(servers, clients);
    spec.retry = RetryPolicy::builder().operational().build();
    let fieldio = FieldIoConfig {
        array_class: ObjectClass::RP2,
        kv_class: ObjectClass::RP2,
        ..Default::default()
    };
    let out = replay_detailed(spec, fieldio, trace, Pacing::Paced, Some(plan));
    let end = SimTime::from_nanos((out.stats.end_secs * 1e9) as u64);
    let writes = anchored_bandwidth_timeline(&out.write_events, bucket, end);
    let reads = anchored_bandwidth_timeline(&out.read_events, bucket, end);
    let timeline = writes
        .iter()
        .zip(&reads)
        .map(|(w, r)| (w.t_ns, w.bw_gib, r.bw_gib))
        .collect();
    (out.stats, timeline)
}

/// The campaign: kill engine 0 just before the step-1 write wave (60 ms)
/// and rebuild it immediately, brown out the surviving engine across the
/// 120 ms wave, restart the dead engine during step 3 (its remaps stay
/// installed — reintegration is not modelled). Fault times sit 1 ms
/// before op waves so in-flight operations genuinely collide with them.
fn drill_plan() -> FaultPlan {
    FaultPlan::new()
        .kill_and_rebuild(SimDuration::from_millis(59), 0)
        .brownout(
            SimDuration::from_millis(119),
            1,
            SimDuration::from_millis(10),
        )
        .restart(SimDuration::from_millis(170), 0)
}

/// Human label for the fault (if any) scheduled inside `[t, t+bucket)`.
fn fault_label(plan: &FaultPlan, t: SimTime, bucket: SimDuration) -> String {
    let (lo, hi) = (t.as_nanos(), t.as_nanos() + bucket.as_nanos());
    let mut labels = Vec::new();
    for ev in plan.events() {
        let at = ev.at().as_nanos();
        if at < lo || at >= hi {
            continue;
        }
        use daosim_cluster::FaultEvent::*;
        labels.push(match ev {
            Kill { engine, .. } => format!("kill+rebuild e{engine}"),
            Restart { engine, .. } => format!("restart e{engine}"),
            Brownout { engine, .. } => format!("brownout e{engine}"),
            DegradeNic { engine, .. } => format!("degrade-nic e{engine}"),
        });
    }
    labels.join(" + ")
}

/// Runs the drill and packages the availability/tardiness timeline.
pub fn failure_drill(scale: &Scale) -> Report {
    let procs = *scale.fieldio_ppn.first().unwrap_or(&8);
    let fields_per_step = (scale.ops_per_proc / 10).clamp(2, 6);
    let trace = Trace::synthesize_operational(procs, 4, fields_per_step, MIB, step_interval());
    let plan = drill_plan();
    let bucket = SimDuration::from_millis(30);
    let (stats, timeline) = run_drill(1, 2, &trace, &plan, bucket);
    let r = stats.resilience;
    // Drill invariants: replication + retry must carry every field
    // through the campaign, and the campaign must actually have bitten.
    assert_eq!(
        (r.failed_writes, r.failed_reads),
        (0, 0),
        "replicated fields lost under the drill: {r:?}"
    );
    assert!(r.retries > 0, "the drill never exercised a retry: {r:?}");
    assert_eq!(r.faults_injected, plan.events().len() as u64);

    let mut rep = Report::new(
        "failure-drill",
        "Failure drill: paced operational trace through kill -> rebuild -> restart",
        &["t_ms", "write_gib_s", "read_gib_s", "fault"],
    );
    for &(t_ns, w, rd) in &timeline {
        rep.row(vec![
            format!("{}", t_ns / 1_000_000),
            format!("{w:.2}"),
            format!("{rd:.2}"),
            fault_label(&plan, SimTime::from_nanos(t_ns), bucket),
        ]);
    }
    rep.note(format!(
        "{} procs x 4 steps x {fields_per_step} fields of 1 MiB (RP2 arrays + RP2 index), paced",
        procs
    ));
    rep.note(format!(
        "resilience: {} retries, {} timeouts, {} failovers, {} gave up, {} faults injected",
        r.retries, r.timeouts, r.failovers, r.gave_up, r.faults_injected
    ));
    rep.note(format!(
        "failed ops: {} writes, {} reads (drill asserts both zero)",
        r.failed_writes, r.failed_reads
    ));
    rep.note(format!(
        "tardiness: mean {:.2} ms, max {:.2} ms; trace completed in {:.3} s",
        stats.mean_tardiness_ms, stats.max_tardiness_ms, stats.end_secs
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_is_deterministic_and_loses_nothing() {
        // Invariants (zero failed ops, retries > 0) are asserted inside
        // failure_drill; here we additionally pin run-to-run determinism
        // on the fully rendered artifact.
        let a = failure_drill(&Scale::quick()).render();
        let b = failure_drill(&Scale::quick()).render();
        assert_eq!(a, b, "two drill runs must be byte-identical");
        assert!(a.contains("kill+rebuild e0"));
        assert!(a.contains("brownout e1"));
        assert!(a.contains("restart e0"));
    }
}
