//! Workload traces: synthesize, persist, and replay field I/O schedules.
//!
//! The paper's benchmarks drive the store as fast as it will go; real
//! operations drive it on the *model's* schedule — fields appear when the
//! forecast reaches each output step, and the question is whether storage
//! keeps up inside the time-critical window. A [`Trace`] captures such a
//! schedule (`when` each process wants to write/read `which` field), and
//! [`replay`] runs it against the simulated cluster either *paced*
//! (honouring timestamps; reports tardiness — how far behind schedule
//! operations complete) or *as fast as possible* (a classic benchmark).

use std::rc::Rc;

use serde::Serialize;

use daosim_cluster::{ClusterSpec, Deployment, FaultPlan, ResilienceReport, SimClient};
use daosim_kernel::sync::WaitGroup;
use daosim_kernel::{MetricsSnapshot, Sim, SimDuration, SimTime, SpanEvent};

use crate::fieldio::{FieldIoConfig, FieldStore};
use crate::key::FieldKey;
use crate::metrics::{phase_stats, EventKind, EventRecord, PhaseStats, Recorder};
use crate::workload::payload;

/// One scheduled operation.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Scheduled start, nanoseconds from trace origin.
    pub t_ns: u64,
    /// Issuing process.
    pub process: u32,
    /// `true` = write, `false` = read.
    pub write: bool,
    /// The field key, canonical text.
    pub key: String,
    /// Payload size for writes (ignored for reads).
    pub bytes: u64,
}

/// An ordered schedule of field operations.
///
/// ```
/// use daosim_core::trace::Trace;
/// use daosim_kernel::SimDuration;
///
/// let t = Trace::synthesize_operational(4, 2, 3, 1 << 20, SimDuration::from_millis(50));
/// assert_eq!(t.len(), 4 * 2 * 3 * 2); // writes + trailing reads
/// let parsed = Trace::from_csv(&t.to_csv()).unwrap();
/// assert_eq!(parsed, t);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Synthesizes an operational-cycle schedule: `procs` I/O-server
    /// processes each emit `fields_per_step` writes per forecast step,
    /// steps `step_interval` apart; reads of each step are scheduled one
    /// step later (product generation consuming the previous step). The
    /// last reads land at `(steps + 1) × step_interval`, which the caller
    /// keeps within `u64` nanoseconds.
    pub fn synthesize_operational(
        procs: u32,
        steps: u32,
        fields_per_step: u32,
        field_bytes: u64,
        step_interval: SimDuration,
    ) -> Trace {
        let mut entries = Vec::new();
        for step in 0..steps {
            let step_t = step as u64 * step_interval.as_nanos();
            for p in 0..procs {
                for f in 0..fields_per_step {
                    // Writes spread evenly through the step window. The
                    // product is taken in u128 so it cannot wrap; the
                    // quotient is below one interval.
                    let jitter = (f as u128 * step_interval.as_nanos() as u128
                        / (fields_per_step as u128 + 1)) as u64;
                    let key = Self::key(p, step, f);
                    entries.push(TraceEntry {
                        t_ns: step_t + jitter,
                        process: p,
                        write: true,
                        key: key.clone(),
                        bytes: field_bytes,
                    });
                    entries.push(TraceEntry {
                        t_ns: step_t + step_interval.as_nanos() + jitter,
                        process: p,
                        write: false,
                        key,
                        bytes: field_bytes,
                    });
                }
            }
        }
        entries.sort_by_key(|e| (e.t_ns, e.process));
        Trace { entries }
    }

    fn key(p: u32, step: u32, f: u32) -> String {
        FieldKey::from_pairs([
            ("class", "od".to_string()),
            ("date", "20290101".to_string()),
            ("expver", "0001".to_string()),
            ("number", p.to_string()),
            ("step", step.to_string()),
            ("field", f.to_string()),
        ])
        .canonical()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn total_write_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.write)
            .map(|e| e.bytes)
            .sum()
    }

    /// CSV form: `t_ns,process,op,bytes,key` (the key goes last because
    /// canonical keys contain commas).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("t_ns,process,op,bytes,key\n");
        for e in &self.entries {
            use std::fmt::Write as _;
            let _ = writeln!(
                s,
                "{},{},{},{},{}",
                e.t_ns,
                e.process,
                if e.write { "w" } else { "r" },
                e.bytes,
                e.key
            );
        }
        s
    }

    /// Parses the CSV form produced by [`Trace::to_csv`], validating and
    /// normalising the schedule:
    ///
    /// * timestamps must be non-decreasing — replay walks each process's
    ///   entries in file order, so an out-of-order line would silently
    ///   reorder the schedule; the error names the offending line;
    /// * sparse process ids are densely renumbered (order-preserving):
    ///   [`Trace::process_count`] is `max + 1`, so gaps would spawn
    ///   processes with no work and skew per-process aggregation.
    pub fn from_csv(text: &str) -> Result<Trace, String> {
        let mut entries = Vec::new();
        let mut prev_t: Option<u64> = None;
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let mut parts = line.splitn(5, ',');
            let mut field = |name: &str| {
                parts
                    .next()
                    .ok_or_else(|| format!("line {}: missing {name}", i + 1))
            };
            let t_ns: u64 = field("t_ns")?
                .parse()
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            if let Some(p) = prev_t {
                if t_ns < p {
                    return Err(format!(
                        "line {}: timestamp {t_ns} goes backwards (previous line had {p}); \
                         traces must be sorted by t_ns",
                        i + 1
                    ));
                }
            }
            prev_t = Some(t_ns);
            let process = field("process")?
                .parse()
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            let write = match field("op")? {
                "w" => true,
                "r" => false,
                other => return Err(format!("line {}: bad op {other:?}", i + 1)),
            };
            let bytes = field("bytes")?
                .parse()
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            let key = field("key")?.to_string();
            if FieldKey::parse(&key).is_err() {
                return Err(format!("line {}: unparsable key {key:?}", i + 1));
            }
            entries.push(TraceEntry {
                t_ns,
                process,
                write,
                key,
                bytes,
            });
        }
        // Densify sparse process ids, preserving relative order.
        let mut ids: Vec<u32> = entries.iter().map(|e| e.process).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.last().is_some_and(|&max| max as usize + 1 != ids.len()) {
            let remap: std::collections::HashMap<u32, u32> = ids
                .iter()
                .enumerate()
                .map(|(dense, &sparse)| (sparse, dense as u32))
                .collect();
            for e in &mut entries {
                e.process = remap[&e.process];
            }
        }
        Ok(Trace { entries })
    }

    pub fn process_count(&self) -> u32 {
        self.entries
            .iter()
            .map(|e| e.process + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Replay pacing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pacing {
    /// Honour trace timestamps: an op never *starts* before its schedule.
    Paced,
    /// Ignore timestamps; issue operations back to back per process.
    AsFast,
}

/// Resilience counters for one replay: what the retry machinery did, plus
/// how many trace operations failed outright (exhausted retries or hit a
/// permanent error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ResilienceCounters {
    pub retries: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub gave_up: u64,
    pub faults_injected: u64,
    pub failed_writes: u64,
    pub failed_reads: u64,
}

impl ResilienceCounters {
    fn from_report(r: ResilienceReport, failed_writes: u64, failed_reads: u64) -> Self {
        ResilienceCounters {
            retries: r.retries,
            timeouts: r.timeouts,
            failovers: r.failovers,
            gave_up: r.gave_up,
            faults_injected: r.faults_injected,
            failed_writes,
            failed_reads,
        }
    }
}

/// Outcome of a trace replay.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ReplayStats {
    pub writes: PhaseStats,
    pub reads: PhaseStats,
    /// Mean completion lateness vs schedule, milliseconds (paced only;
    /// zero-ish when storage keeps up).
    pub mean_tardiness_ms: f64,
    /// Worst completion lateness, milliseconds.
    pub max_tardiness_ms: f64,
    pub end_secs: f64,
    /// Retry/timeout/failover activity observed during the replay.
    pub resilience: ResilienceCounters,
}

/// [`ReplayStats`] plus the raw event streams, for timeline analysis
/// (e.g. bucketing completions around an injected fault).
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    pub stats: ReplayStats,
    pub write_events: Vec<EventRecord>,
    pub read_events: Vec<EventRecord>,
}

/// Replays `trace` on a fresh deployment of `spec`, one task per process.
pub fn replay(
    spec: ClusterSpec,
    fieldio: FieldIoConfig,
    trace: &Trace,
    pacing: Pacing,
) -> ReplayStats {
    replay_detailed(spec, fieldio, trace, pacing, None).stats
}

/// Like [`replay`], optionally injecting `faults` while the trace runs.
///
/// With faults in play operations may fail (retry budget exhausted, or
/// fail-fast policy): failed ops are *counted* — not panicked on — and
/// leave an `IoStart` without a matching `IoEnd`, so they also surface
/// through [`crate::metrics::LatencyStats::incomplete`] and the dropped
/// iteration count of bandwidth summaries.
pub fn replay_detailed(
    spec: ClusterSpec,
    fieldio: FieldIoConfig,
    trace: &Trace,
    pacing: Pacing,
    faults: Option<&FaultPlan>,
) -> ReplayOutcome {
    let sim = Sim::new();
    replay_on(&sim, spec, fieldio, trace, pacing, faults).0
}

/// A [`ReplayOutcome`] plus the run's observability artifacts: the raw
/// span event stream and the final metrics snapshot (client op counters
/// and latencies, per-engine media and busy-time counters, objstore op
/// counts, resilience counters).
#[derive(Clone, Debug)]
pub struct TracedReplay {
    pub outcome: ReplayOutcome,
    pub spans: Vec<SpanEvent>,
    pub metrics: MetricsSnapshot,
}

/// Like [`replay_detailed`], but with span tracing enabled for the whole
/// run. Tracing is keyed on sim time only, so the replay outcome is
/// bit-identical to an untraced run, and two traced runs of the same
/// trace produce byte-identical span streams.
pub fn replay_traced(
    spec: ClusterSpec,
    fieldio: FieldIoConfig,
    trace: &Trace,
    pacing: Pacing,
    faults: Option<&FaultPlan>,
) -> TracedReplay {
    let sim = Sim::new();
    sim.obs().set_enabled(true);
    let (outcome, d) = replay_on(&sim, spec, fieldio, trace, pacing, faults);
    d.fold_metrics();
    let m = sim.obs().metrics();
    m.counter("replay.write_ios")
        .add(outcome.stats.writes.io_count as u64);
    m.counter("replay.read_ios")
        .add(outcome.stats.reads.io_count as u64);
    m.counter("replay.write_bytes")
        .add(outcome.stats.writes.total_bytes);
    m.counter("replay.read_bytes")
        .add(outcome.stats.reads.total_bytes);
    let metrics = m.snapshot();
    let spans = sim.obs().take_events();
    TracedReplay {
        outcome,
        spans,
        metrics,
    }
}

fn replay_on(
    sim: &Sim,
    mut spec: ClusterSpec,
    fieldio: FieldIoConfig,
    trace: &Trace,
    pacing: Pacing,
    faults: Option<&FaultPlan>,
) -> (ReplayOutcome, Rc<Deployment>) {
    if let Some(admission) = fieldio.admission {
        spec.admission = admission;
    }
    let d = Deployment::new(sim, spec);
    if let Some(plan) = faults {
        plan.apply(&d);
    }
    let procs = trace.process_count();
    assert!(procs > 0, "empty trace");
    let ppn = procs.div_ceil(spec.client_nodes as u32);
    let write_rec = Recorder::new();
    let read_rec = Recorder::new();
    let tardiness: Rc<std::cell::RefCell<Vec<u64>>> = Rc::default();
    let failed_writes = Rc::new(std::cell::Cell::new(0u64));
    let failed_reads = Rc::new(std::cell::Cell::new(0u64));
    let wg = WaitGroup::new();

    for p in 0..procs {
        let mine: Vec<TraceEntry> = trace
            .entries
            .iter()
            .filter(|e| e.process == p)
            .cloned()
            .collect();
        if mine.is_empty() {
            continue;
        }
        let (d, fieldio, sim2, token) = (Rc::clone(&d), fieldio.clone(), sim.clone(), wg.add());
        let (write_rec, read_rec, tardiness) =
            (write_rec.clone(), read_rec.clone(), Rc::clone(&tardiness));
        let (failed_writes, failed_reads) = (Rc::clone(&failed_writes), Rc::clone(&failed_reads));
        sim.spawn(async move {
            let window = fieldio.inflight_window;
            let client = SimClient::for_process(&d, (p / ppn) as u16, p % ppn);
            let fs = FieldStore::connect(client, fieldio, p + 1)
                .await
                .expect("connect");
            if window > 1 {
                // Pipelined replay: writes go through the windowed writer
                // (completion recorded from the callback); reads flush the
                // writer first so read-after-write order is preserved.
                let mut w = fs.pipelined_writer(window);
                for (i, e) in mine.iter().enumerate() {
                    if pacing == Pacing::Paced {
                        let due = SimTime::from_nanos(e.t_ns);
                        let now = sim2.now();
                        if due > now {
                            sim2.sleep(due - now).await;
                        }
                    }
                    let key = FieldKey::parse(&e.key).expect("trace keys validated");
                    if e.write {
                        write_rec.record(0, p, i as u32, EventKind::IoStart, sim2.now(), 0);
                        let (write_rec, tardiness, failed_writes, sim3) = (
                            write_rec.clone(),
                            Rc::clone(&tardiness),
                            Rc::clone(&failed_writes),
                            sim2.clone(),
                        );
                        let (t_ns, bytes, seq) = (e.t_ns, e.bytes, i as u32);
                        w.submit_with(
                            &key,
                            payload(e.bytes, e.t_ns ^ p as u64),
                            move |r| match r {
                                Ok(()) => {
                                    let now = sim3.now();
                                    write_rec.record(0, p, seq, EventKind::IoEnd, now, bytes);
                                    if pacing == Pacing::Paced {
                                        tardiness
                                            .borrow_mut()
                                            .push(now.as_nanos().saturating_sub(t_ns));
                                    }
                                }
                                Err(_) => failed_writes.set(failed_writes.get() + 1),
                            },
                        )
                        .await
                        .expect("pipelined submit");
                        continue;
                    }
                    w.flush().await.expect("pipelined flush");
                    read_rec.record(0, p, i as u32, EventKind::IoStart, sim2.now(), 0);
                    match fs.read_field(&key).await {
                        Ok(data) => {
                            let now = sim2.now();
                            read_rec.record(
                                0,
                                p,
                                i as u32,
                                EventKind::IoEnd,
                                now,
                                data.len() as u64,
                            );
                            if pacing == Pacing::Paced {
                                tardiness
                                    .borrow_mut()
                                    .push(now.as_nanos().saturating_sub(e.t_ns));
                            }
                        }
                        Err(_) => failed_reads.set(failed_reads.get() + 1),
                    }
                }
                w.flush().await.expect("pipelined flush");
                drop(token);
                return;
            }
            for (i, e) in mine.iter().enumerate() {
                if pacing == Pacing::Paced {
                    let due = SimTime::from_nanos(e.t_ns);
                    let now = sim2.now();
                    if due > now {
                        sim2.sleep(due - now).await;
                    }
                }
                let key = FieldKey::parse(&e.key).expect("trace keys validated");
                let rec = if e.write { &write_rec } else { &read_rec };
                rec.record(0, p, i as u32, EventKind::IoStart, sim2.now(), 0);
                let done_bytes = if e.write {
                    match fs
                        .write_field(&key, payload(e.bytes, e.t_ns ^ p as u64))
                        .await
                    {
                        Ok(()) => e.bytes,
                        Err(_) => {
                            failed_writes.set(failed_writes.get() + 1);
                            continue;
                        }
                    }
                } else {
                    match fs.read_field(&key).await {
                        Ok(data) => data.len() as u64,
                        Err(_) => {
                            failed_reads.set(failed_reads.get() + 1);
                            continue;
                        }
                    }
                };
                let now = sim2.now();
                rec.record(0, p, i as u32, EventKind::IoEnd, now, done_bytes);
                if pacing == Pacing::Paced {
                    tardiness
                        .borrow_mut()
                        .push(now.as_nanos().saturating_sub(e.t_ns));
                }
            }
            drop(token);
        });
    }
    let end = sim.run().expect_quiescent();
    let lat = tardiness.borrow();
    let (mean, max) = if lat.is_empty() {
        (0.0, 0.0)
    } else {
        (
            lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1e6,
            *lat.iter().max().unwrap() as f64 / 1e6,
        )
    };
    let resilience = ResilienceCounters::from_report(
        d.resilience().report(),
        failed_writes.get(),
        failed_reads.get(),
    );
    let write_events = write_rec.take();
    let read_events = read_rec.take();
    let outcome = ReplayOutcome {
        stats: ReplayStats {
            writes: phase_stats(&write_events, false),
            reads: phase_stats(&read_events, false),
            mean_tardiness_ms: mean,
            max_tardiness_ms: max,
            end_secs: end.as_secs_f64(),
            resilience,
        },
        write_events,
        read_events,
    };
    (outcome, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldio::FieldIoMode;

    const MIB: u64 = 1024 * 1024;

    fn small_trace() -> Trace {
        Trace::synthesize_operational(8, 2, 6, MIB, SimDuration::from_millis(60))
    }

    #[test]
    fn synthesis_shape() {
        let t = small_trace();
        // 8 procs x 2 steps x 6 fields x (write + read).
        assert_eq!(t.len(), 8 * 2 * 6 * 2);
        assert_eq!(t.process_count(), 8);
        assert_eq!(t.total_write_bytes(), 8 * 2 * 6 * MIB);
        // Sorted by schedule.
        assert!(t.entries.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        // Reads trail their writes by one step interval.
        let w = t.entries.iter().find(|e| e.write).unwrap();
        let r = t
            .entries
            .iter()
            .find(|e| !e.write && e.key == w.key)
            .unwrap();
        assert_eq!(r.t_ns - w.t_ns, 60_000_000);
    }

    #[test]
    fn write_jitter_is_exact_and_cannot_wrap() {
        // Small intervals: writes sit at step × interval + f × interval /
        // (fields + 1), the u64 arithmetic of every committed trace.
        let t = small_trace();
        let interval = 60_000_000u64;
        for step in 0..2u64 {
            for f in 0..6u64 {
                let want = step * interval + f * interval / 7;
                assert!(
                    t.entries.iter().any(|e| e.write && e.t_ns == want),
                    "no write at {want}"
                );
            }
        }
        // A huge interval: f × interval overflows u64 for f ≥ 3, yet the
        // jitter stays exact and inside the step window.
        let interval = u64::MAX / 3;
        let t = Trace::synthesize_operational(1, 1, 8, MIB, SimDuration::from_nanos(interval));
        let writes: Vec<u64> = t
            .entries
            .iter()
            .filter(|e| e.write)
            .map(|e| e.t_ns)
            .collect();
        let want: Vec<u64> = (0..8u128)
            .map(|f| (f * interval as u128 / 9) as u64)
            .collect();
        assert_eq!(writes, want);
        assert!(t
            .entries
            .iter()
            .filter(|e| !e.write)
            .all(|e| e.t_ns >= interval && e.t_ns < 2 * interval));
    }

    #[test]
    fn csv_roundtrip() {
        let t = small_trace();
        let parsed = Trace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed, t);
        assert!(Trace::from_csv("t_ns,process,op,bytes,key\nbogus").is_err());
        assert!(Trace::from_csv("t_ns,process,op,bytes,key\n1,2,x,3,class=od").is_err());
    }

    #[test]
    fn from_csv_rejects_unsorted_timestamps_naming_the_line() {
        // Regression: an out-of-order line used to be accepted silently,
        // and replay would run the schedule in file order anyway.
        let csv = "t_ns,process,op,bytes,key\n\
                   100,0,w,8,class=od\n\
                   50,0,w,8,class=od\n";
        let err = Trace::from_csv(csv).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn from_csv_densifies_sparse_process_ids() {
        // Regression: processes {2, 7} used to parse as-is, making
        // process_count() report 8 and replay spawn 6 idle tasks.
        let csv = "t_ns,process,op,bytes,key\n\
                   0,7,w,8,class=od\n\
                   10,2,w,8,class=od\n\
                   20,7,r,8,class=od\n";
        let t = Trace::from_csv(csv).unwrap();
        assert_eq!(t.process_count(), 2);
        let procs: Vec<u32> = t.entries.iter().map(|e| e.process).collect();
        assert_eq!(procs, [1, 0, 1], "order-preserving dense renumbering");
        // Already-dense traces are left untouched.
        let dense = small_trace();
        assert_eq!(Trace::from_csv(&dense.to_csv()).unwrap(), dense);
    }

    #[test]
    fn traced_replay_covers_the_stack_and_is_deterministic() {
        use crate::obs::{chrome_trace_json, json_is_wellformed, validate_spans};
        let t = Trace::synthesize_operational(4, 1, 2, 64 * 1024, SimDuration::from_millis(10));
        let run = || {
            replay_traced(
                ClusterSpec::tcp(1, 1),
                FieldIoConfig::builder()
                    .mode(FieldIoMode::NoContainers)
                    .build(),
                &t,
                Pacing::AsFast,
                None,
            )
        };
        let a = run();
        // The span stream is structurally sound and covers every layer
        // the issue names: executor, net, media, objstore, client.
        let summary = validate_spans(&a.spans).expect("well-formed span stream");
        assert_eq!(summary.unclosed, 0, "quiescent run must close all spans");
        assert!(summary.spans > 0);
        for cat in ["executor", "net", "media", "objstore", "client"] {
            assert!(
                summary.categories.iter().any(|c| c == cat),
                "missing category {cat}: {:?}",
                summary.categories
            );
        }
        // Metrics absorbed the per-layer tallies.
        let lookup = |name: &str| a.metrics.counter(name).unwrap_or(0);
        assert!(lookup("client.array_write.ops") > 0);
        assert!(lookup("media.e0.bytes_written") > 0);
        assert!(lookup("objstore.kv_updates") > 0 || lookup("objstore.array_updates") > 0);
        // Byte-identical determinism of every export.
        let b = run();
        assert_eq!(a.spans, b.spans);
        let (ja, jb) = (chrome_trace_json(&a.spans), chrome_trace_json(&b.spans));
        assert_eq!(ja, jb);
        assert!(json_is_wellformed(&ja));
        assert_eq!(a.metrics.to_csv(), b.metrics.to_csv());
        // Tracing must not change the modelled outcome.
        let plain = replay(
            ClusterSpec::tcp(1, 1),
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &t,
            Pacing::AsFast,
        );
        assert_eq!(plain.end_secs.to_bits(), a.outcome.stats.end_secs.to_bits());
    }

    #[test]
    fn paced_replay_keeps_up_on_an_idle_cluster() {
        let r = replay(
            ClusterSpec::tcp(1, 2),
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &small_trace(),
            Pacing::Paced,
        );
        assert_eq!(r.writes.io_count, 96);
        assert_eq!(r.reads.io_count, 96);
        // A lightly loaded cluster finishes each op well within a step.
        assert!(
            r.mean_tardiness_ms < 20.0,
            "mean tardiness {} ms",
            r.mean_tardiness_ms
        );
        // Paced runs take at least the schedule length.
        assert!(r.end_secs >= 0.12, "{}", r.end_secs);
    }

    #[test]
    fn as_fast_replay_beats_the_schedule() {
        let t = small_trace();
        let fast = replay(
            ClusterSpec::tcp(1, 2),
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &t,
            Pacing::AsFast,
        );
        let paced = replay(
            ClusterSpec::tcp(1, 2),
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &t,
            Pacing::Paced,
        );
        assert!(
            fast.end_secs < paced.end_secs,
            "as-fast {} vs paced {}",
            fast.end_secs,
            paced.end_secs
        );
        assert_eq!(fast.writes.total_bytes, paced.writes.total_bytes);
    }

    #[test]
    fn overloaded_schedule_shows_tardiness() {
        // The same volume crammed into 100x less time on a single engine
        // cluster cannot keep up.
        let t = Trace::synthesize_operational(16, 2, 12, MIB, SimDuration::from_micros(600));
        let mut spec = ClusterSpec::tcp(1, 2);
        spec.engines_per_node = 1;
        let r = replay(
            spec,
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &t,
            Pacing::Paced,
        );
        assert!(
            r.max_tardiness_ms > 1.0,
            "an overloaded schedule must fall behind: max {} ms",
            r.max_tardiness_ms
        );
    }

    #[test]
    fn faulted_replay_counts_failures_instead_of_panicking() {
        use daosim_cluster::FaultPlan;
        // Fail-fast policy (the default), an engine killed mid-trace and
        // never rebuilt: operations placed on it must fail, and those
        // failures must be *counted*, not panicked on.
        let t = small_trace();
        let plan = FaultPlan::new().kill(SimDuration::from_millis(5), 0);
        let out = replay_detailed(
            ClusterSpec::tcp(1, 2),
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &t,
            Pacing::Paced,
            Some(&plan),
        );
        let r = out.stats.resilience;
        assert_eq!(r.faults_injected, 1);
        assert!(
            r.failed_writes + r.failed_reads > 0,
            "a dead, never-rebuilt engine must fail some ops: {r:?}"
        );
        // Failed ops leave IoStart without IoEnd.
        let started = out
            .write_events
            .iter()
            .filter(|e| e.kind == EventKind::IoStart)
            .count();
        let ended = out
            .write_events
            .iter()
            .filter(|e| e.kind == EventKind::IoEnd)
            .count();
        assert_eq!(started - ended, r.failed_writes as usize);
    }

    #[test]
    fn windowed_replay_completes_all_ops_no_slower() {
        let t = small_trace();
        let seq = replay(
            ClusterSpec::tcp(1, 2),
            FieldIoConfig::builder()
                .mode(FieldIoMode::NoContainers)
                .build(),
            &t,
            Pacing::AsFast,
        );
        let cfg = FieldIoConfig::builder()
            .mode(FieldIoMode::NoContainers)
            .window(8)
            .build();
        let pip = replay(ClusterSpec::tcp(1, 2), cfg.clone(), &t, Pacing::AsFast);
        assert_eq!(pip.writes.io_count, seq.writes.io_count);
        assert_eq!(pip.reads.io_count, seq.reads.io_count);
        assert_eq!(pip.writes.total_bytes, seq.writes.total_bytes);
        assert!(
            pip.end_secs <= seq.end_secs,
            "pipelined {} vs sequential {}",
            pip.end_secs,
            seq.end_secs
        );
        // Windowed replays stay deterministic.
        let again = replay(ClusterSpec::tcp(1, 2), cfg, &t, Pacing::AsFast);
        assert_eq!(pip.end_secs.to_bits(), again.end_secs.to_bits());
    }

    #[test]
    fn replay_is_deterministic() {
        let t = small_trace();
        let a = replay(
            ClusterSpec::tcp(1, 1),
            FieldIoConfig::default(),
            &t,
            Pacing::Paced,
        );
        let b = replay(
            ClusterSpec::tcp(1, 1),
            FieldIoConfig::default(),
            &t,
            Pacing::Paced,
        );
        assert_eq!(a.end_secs.to_bits(), b.end_secs.to_bits());
        assert_eq!(a.mean_tardiness_ms.to_bits(), b.mean_tardiness_ms.to_bits());
    }
}
