//! Property-based tests of keys, index entries, metric definitions,
//! trace CSV round-trips, timeline builders and span-tree invariants.

use daosim_core::fieldio::IndexEntry;
use daosim_core::key::{FieldKey, KeySchema};
use daosim_core::metrics::{
    anchored_bandwidth_timeline, bandwidth_timeline, events_to_csv, global_timing_bandwidth,
    synchronous_bandwidth, total_parallel_io_wallclock, EventKind, EventRecord,
};
use daosim_core::obs::{chrome_trace_json, json_is_wellformed, validate_spans, Obs, SpanEvent};
use daosim_core::trace::{Trace, TraceEntry};
use daosim_kernel::{SimDuration, SimTime};
use daosim_objstore::{ObjectClass, Oid, Uuid};
use proptest::prelude::*;

fn name_str() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn value_str() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,10}"
}

fn any_class() -> impl Strategy<Value = ObjectClass> {
    prop_oneof![
        Just(ObjectClass::S1),
        Just(ObjectClass::S2),
        Just(ObjectClass::SX)
    ]
}

proptest! {
    #[test]
    fn key_canonical_is_insertion_order_independent(
        pairs in proptest::collection::vec((name_str(), value_str()), 1..10)
    ) {
        let forward = FieldKey::from_pairs(pairs.clone());
        let mut reversed = FieldKey::new();
        for (k, v) in pairs.iter().rev() {
            // First-set wins under reversal iff duplicates exist; rebuild
            // with the same last-wins semantics by replaying forward after.
            reversed.set(k.clone(), v.clone());
        }
        for (k, v) in &pairs {
            reversed.set(k.clone(), v.clone());
        }
        prop_assert_eq!(forward.canonical(), reversed.canonical());
    }

    #[test]
    fn split_partitions_key_exactly(
        pairs in proptest::collection::vec((name_str(), value_str()), 1..10),
        msk_names in proptest::collection::vec(name_str(), 0..5),
    ) {
        let key = FieldKey::from_pairs(pairs);
        let schema = KeySchema::new(msk_names);
        let (msk, lsk) = key.split(&schema);
        // Every pair lands in exactly one half, and recombination is
        // loss-free.
        let rebuilt: std::collections::BTreeSet<String> = msk
            .canonical()
            .split(',')
            .chain(lsk.canonical().split(','))
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        let original: std::collections::BTreeSet<String> = key
            .canonical()
            .split(',')
            .map(String::from)
            .collect();
        prop_assert_eq!(rebuilt, original);
    }

    #[test]
    fn split_canonical_equals_split(
        pairs in proptest::collection::vec((name_str(), value_str()), 1..10),
        picks in proptest::collection::vec(any::<bool>(), 10),
        extra_names in proptest::collection::vec(name_str(), 0..3),
    ) {
        // The schema names a random subset of the key's own names (none
        // or all of them give an empty half) plus names that may match
        // no key at all.
        let key = FieldKey::from_pairs(pairs.clone());
        let msk_names = pairs
            .iter()
            .zip(&picks)
            .filter(|(_, &pick)| pick)
            .map(|((k, _), _)| k.clone())
            .chain(extra_names);
        let schema = KeySchema::new(msk_names);
        let (msk, lsk) = key.split(&schema);
        prop_assert_eq!(
            key.split_canonical(&schema),
            (msk.canonical(), lsk.canonical())
        );
    }

    #[test]
    fn index_entry_roundtrips(
        name in proptest::collection::vec(any::<u8>(), 0..40),
        hi in any::<u32>(), lo in any::<u64>(),
        class in any_class(),
        len in any::<u64>(),
    ) {
        let entry = IndexEntry {
            store_cont: Uuid::from_name(&name),
            oid: Oid::generate(hi, lo, class),
            len,
        };
        let encoded = entry.encode();
        prop_assert_eq!(IndexEntry::decode(&encoded), Some(entry));
        // Truncations never decode.
        for cut in 0..encoded.len() {
            prop_assert_eq!(IndexEntry::decode(&encoded[..cut]), None);
        }
    }
}

// ---------------------------------------------------------------------------
// Metric invariants over synthesised event sets
// ---------------------------------------------------------------------------

fn phase_events(
    spans: Vec<(u64, u64, u64)>, // (start_ns, dur_ns, bytes) per process
) -> Vec<EventRecord> {
    let mut out = Vec::new();
    for (p, (start, dur, bytes)) in spans.into_iter().enumerate() {
        out.push(EventRecord {
            node: 0,
            process: p as u32,
            iteration: 0,
            kind: EventKind::IoStart,
            t_ns: start,
            bytes: 0,
        });
        out.push(EventRecord {
            node: 0,
            process: p as u32,
            iteration: 0,
            kind: EventKind::IoEnd,
            t_ns: start + dur.max(1),
            bytes,
        });
    }
    out
}

proptest! {
    #[test]
    fn global_bandwidth_matches_definition(
        spans in proptest::collection::vec((0u64..10_000, 1u64..10_000, 1u64..1_000_000), 1..20)
    ) {
        let events = phase_events(spans.clone());
        let bw = global_timing_bandwidth(&events).unwrap();
        let total: u64 = spans.iter().map(|s| s.2).sum();
        let start = spans.iter().map(|s| s.0).min().unwrap();
        let end = spans.iter().map(|s| s.0 + s.1.max(1)).max().unwrap();
        let expect = total as f64 / (1u64 << 30) as f64 / ((end - start) as f64 / 1e9);
        prop_assert!((bw - expect).abs() <= expect * 1e-9);
    }

    #[test]
    fn stretching_the_window_never_raises_global_bandwidth(
        spans in proptest::collection::vec((0u64..10_000, 1u64..10_000, 1u64..1_000_000), 1..20),
        stretch in 1u64..100_000,
    ) {
        let base = phase_events(spans.clone());
        // Add an idle straggler performing a zero-byte I/O much later.
        let mut stretched = base.clone();
        let last = base.iter().map(|e| e.t_ns).max().unwrap();
        stretched.push(EventRecord {
            node: 0, process: 999, iteration: 0,
            kind: EventKind::IoStart, t_ns: last + stretch, bytes: 0,
        });
        stretched.push(EventRecord {
            node: 0, process: 999, iteration: 0,
            kind: EventKind::IoEnd, t_ns: last + stretch + 1, bytes: 0,
        });
        let a = global_timing_bandwidth(&base).unwrap();
        let b = global_timing_bandwidth(&stretched).unwrap();
        prop_assert!(b <= a * (1.0 + 1e-12), "stretched {b} > base {a}");
    }

    #[test]
    fn synchronous_bandwidth_equals_global_for_single_iteration(
        spans in proptest::collection::vec((0u64..100, 1u64..10_000, 1u64..1_000_000), 1..10)
    ) {
        // One synchronised iteration: Eq.1 with n=1 degenerates to Eq.2.
        let events = phase_events(spans);
        let sync = synchronous_bandwidth(&events).unwrap();
        let global = global_timing_bandwidth(&events).unwrap();
        prop_assert!((sync - global).abs() <= global * 1e-12);
    }

    #[test]
    fn wallclock_nonnegative_and_covers_all_spans(
        spans in proptest::collection::vec((0u64..10_000, 1u64..10_000, 1u64..100), 1..20)
    ) {
        let events = phase_events(spans.clone());
        let wall = total_parallel_io_wallclock(&events).unwrap().as_nanos();
        for (start, dur, _) in &spans {
            prop_assert!(wall >= *dur.max(&1), "wall {wall} shorter than span");
            let _ = start;
        }
    }
}

// ---------------------------------------------------------------------------
// Trace and event CSV round-trips
// ---------------------------------------------------------------------------

/// Traces `from_csv` accepts verbatim: strictly increasing timestamps
/// (so any line swap is detectably out of order) and dense process ids
/// (so the parser's renumbering is the identity).
fn valid_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        (
            1u64..50_000,
            0u32..6,
            any::<bool>(),
            1u64..(1 << 20),
            0u32..50,
        ),
        1..30,
    )
    .prop_map(|rows| {
        let mut ids: Vec<u32> = rows.iter().map(|r| r.1).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut t = 0u64;
        let entries = rows
            .into_iter()
            .map(|(dt, p, write, bytes, step)| {
                t += dt;
                TraceEntry {
                    t_ns: t,
                    process: ids.iter().position(|&i| i == p).unwrap() as u32,
                    write,
                    key: FieldKey::from_pairs([
                        ("class", "od".to_string()),
                        ("step", step.to_string()),
                    ])
                    .canonical(),
                    bytes,
                }
            })
            .collect();
        Trace { entries }
    })
}

proptest! {
    #[test]
    fn trace_csv_roundtrips(t in valid_trace()) {
        let parsed = Trace::from_csv(&t.to_csv());
        prop_assert_eq!(parsed, Ok(t));
    }

    #[test]
    fn trace_csv_rejects_any_adjacent_line_swap(t in valid_trace(), pick in 0usize..1_000) {
        // Swapping any two adjacent data lines breaks the sort order
        // (timestamps are strictly increasing) and must be rejected with
        // an error naming the now-backwards line.
        if t.entries.len() >= 2 {
            let csv = t.to_csv();
            let mut lines: Vec<&str> = csv.lines().collect();
            let i = 1 + pick % (lines.len() - 2); // data lines are 1..len-1
            lines.swap(i, i + 1);
            let err = Trace::from_csv(&lines.join("\n")).unwrap_err();
            prop_assert!(
                err.contains(&format!("line {}", i + 2)) && err.contains("goes backwards"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn trace_csv_densifies_any_process_relabeling(
        t in valid_trace(),
        offsets in proptest::collection::vec(1u32..100, 6),
    ) {
        // Spreading process ids out (order-preserving) must parse back to
        // the same dense trace.
        let mut sparse = t.clone();
        for e in &mut sparse.entries {
            // Strictly increasing cumulative offsets keep relative order.
            let shift: u32 = offsets.iter().take(e.process as usize + 1).sum();
            e.process += shift;
        }
        prop_assert_eq!(Trace::from_csv(&sparse.to_csv()), Ok(t));
    }

    #[test]
    fn events_csv_has_one_parseable_row_per_event(
        spans in proptest::collection::vec((0u64..10_000, 1u64..10_000, 1u64..1_000_000), 1..20)
    ) {
        let events = phase_events(spans);
        let csv = events_to_csv(&events);
        let lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(lines.len(), events.len() + 1);
        prop_assert_eq!(lines[0], "node,process,iteration,event,t_ns,bytes");
        for (line, e) in lines[1..].iter().zip(&events) {
            let cols: Vec<&str> = line.split(',').collect();
            prop_assert_eq!(cols.len(), 6);
            prop_assert_eq!(cols[0].parse::<u16>(), Ok(e.node));
            prop_assert_eq!(cols[1].parse::<u32>(), Ok(e.process));
            prop_assert_eq!(cols[2].parse::<u32>(), Ok(e.iteration));
            let kind = format!("{:?}", e.kind);
            prop_assert_eq!(cols[3], kind.as_str());
            prop_assert_eq!(cols[4].parse::<u64>(), Ok(e.t_ns));
            prop_assert_eq!(cols[5].parse::<u64>(), Ok(e.bytes));
        }
    }
}

// ---------------------------------------------------------------------------
// Timeline builders under adversarial event orderings
// ---------------------------------------------------------------------------

/// Unconstrained event soups: starts and ends in any order, including
/// completions before the first start (carry-over from an earlier
/// phase) — the shape that underflowed `bandwidth_timeline` before it
/// anchored at the minimum over all events.
fn adversarial_events() -> impl Strategy<Value = Vec<EventRecord>> {
    proptest::collection::vec((any::<bool>(), 0u64..2_000_000_000, 0u64..1_000_000), 1..40)
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (is_end, t_ns, bytes))| EventRecord {
                    node: 0,
                    process: i as u32,
                    iteration: 0,
                    kind: if is_end {
                        EventKind::IoEnd
                    } else {
                        EventKind::IoStart
                    },
                    t_ns,
                    bytes,
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn bandwidth_timeline_never_panics_and_conserves_bytes(
        events in adversarial_events(),
        bucket_ms in 1u64..500,
    ) {
        let bucket = SimDuration::from_millis(bucket_ms);
        let timeline = bandwidth_timeline(&events, bucket);
        let total: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::IoEnd)
            .map(|e| e.bytes)
            .sum();
        if timeline.is_empty() {
            prop_assert!(total_parallel_io_wallclock(&events).is_none());
        } else {
            prop_assert_eq!(timeline.iter().map(|b| b.bytes).sum::<u64>(), total);
            for w in timeline.windows(2) {
                prop_assert_eq!(w[1].t_ns - w[0].t_ns, bucket.as_nanos());
            }
            // Every completion is covered by the bucket range.
            let last = timeline.last().unwrap().t_ns;
            let max_end = events
                .iter()
                .filter(|e| e.kind == EventKind::IoEnd)
                .map(|e| e.t_ns)
                .max()
                .unwrap();
            prop_assert!(timeline[0].t_ns <= max_end && max_end < last + bucket.as_nanos());
        }
    }

    #[test]
    fn anchored_timeline_never_panics_and_conserves_bytes(
        events in adversarial_events(),
        bucket_ms in 1u64..500,
        end_ms in 0u64..3_000,
    ) {
        let bucket = SimDuration::from_millis(bucket_ms);
        let end = SimTime::from_nanos(end_ms * 1_000_000);
        let timeline = anchored_bandwidth_timeline(&events, bucket, end);
        let total: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::IoEnd)
            .map(|e| e.bytes)
            .sum();
        // Fixed shape regardless of the events: buckets tile [0, end).
        let step = bucket.as_nanos();
        prop_assert_eq!(timeline.len() as u64, end.as_nanos().div_ceil(step).max(1));
        for (i, b) in timeline.iter().enumerate() {
            prop_assert_eq!(b.t_ns, i as u64 * step);
        }
        // Completions past `end` clamp into the last bucket, so bytes
        // are always conserved.
        prop_assert_eq!(timeline.iter().map(|b| b.bytes).sum::<u64>(), total);
    }
}

// ---------------------------------------------------------------------------
// Span-tree well-formedness
// ---------------------------------------------------------------------------

/// Drives an [`Obs`] with a random but discipline-respecting program:
/// stacked begins, ends of the current top, self-closing leaves and
/// instants, then unwinds whatever remains open.
fn run_span_program(cmds: &[u8]) -> Vec<SpanEvent> {
    let obs = Obs::default();
    obs.set_enabled(true);
    let mut stack: Vec<u64> = Vec::new();
    for &c in cmds {
        match c % 5 {
            0 | 1 => {
                if let Some(id) = obs.span_begin("stacked", "work") {
                    stack.push(id);
                }
            }
            2 => {
                if let Some(id) = stack.pop() {
                    obs.span_end(id);
                }
            }
            3 => {
                if let Some(id) = obs.span_begin_leaf("leaf", "probe") {
                    obs.span_end(id);
                }
            }
            _ => obs.instant("mark", "tick"),
        }
    }
    while let Some(id) = stack.pop() {
        obs.span_end(id);
    }
    obs.take_events()
}

proptest! {
    #[test]
    fn random_span_programs_validate_clean(
        cmds in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let events = run_span_program(&cmds);
        let begins = events
            .iter()
            .filter(|e| matches!(e, SpanEvent::Begin { .. }))
            .count();
        let summary = validate_spans(&events)?;
        prop_assert_eq!(summary.unclosed, 0);
        prop_assert_eq!(summary.spans, begins);
        prop_assert!(json_is_wellformed(&chrome_trace_json(&events)));
    }

    #[test]
    fn mutated_span_streams_never_validate_clean(
        cmds in proptest::collection::vec(any::<u8>(), 1..200),
        pick in 0usize..1_000,
    ) {
        let events = run_span_program(&cmds);
        let ends: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, SpanEvent::End { .. }))
            .map(|(i, _)| i)
            .collect();
        if ends.is_empty() {
            return Ok(());
        }
        let at = ends[pick % ends.len()];
        // Dropping an End leaves a span open (or orphans a child inside a
        // closed parent) — validation must either error or count it.
        let mut dropped = events.clone();
        dropped.remove(at);
        if let Ok(s) = validate_spans(&dropped) {
            prop_assert!(s.unclosed >= 1, "dropped End went unnoticed");
        }
        // Duplicating an End double-closes a span — always an error.
        let mut doubled = events.clone();
        doubled.insert(at, events[at].clone());
        prop_assert!(validate_spans(&doubled).is_err(), "double End accepted");
    }
}
