//! Kernel hot-path microbenchmarks: the event calendar (hierarchical
//! timer wheel vs the pre-wheel binary heap) and task storage (slab
//! arena vs the pre-slab HashMap round-trip), plus the end-to-end
//! executor cost per simulated event.
//!
//! The `xp kernel-bench` experiment re-runs the same workloads at full
//! scale (1M events) and persists `results/BENCH_kernel.json`; this
//! bench is the interactive/regression view of the same comparisons.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use daosim_kernel::calendar::{HeapCalendar, TimerWheel};
use daosim_kernel::rng::splitmix64_next;
use daosim_kernel::{Sim, SimDuration};

/// Timer churn: keep `pending` events in flight; each pop schedules a
/// replacement a pseudo-random delta ahead — the steady state of a
/// large simulation. Deltas are biased across wheel levels the way
/// sim workloads are (mostly near, a tail of far-future deadlines).
fn churn_delta(rng: &mut u64) -> u64 {
    let r = splitmix64_next(rng);
    match r % 100 {
        0..=79 => 1 + (r >> 8) % (1 << 12),  // µs-scale service times
        80..=97 => 1 + (r >> 8) % (1 << 24), // ms-scale backoffs
        _ => 1 + (r >> 8) % (1 << 34),       // tens-of-seconds deadlines
    }
}

const CHURN_EVENTS: u64 = 100_000;
const CHURN_PENDING: u64 = 4_096;

fn bench_calendar(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CHURN_EVENTS));
    g.bench_function("churn_100k_wheel", |b| {
        b.iter(|| {
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let mut rng = 0x1234_5678u64;
            let (mut seq, mut now) = (0u64, 0u64);
            for _ in 0..CHURN_PENDING {
                w.push(now + churn_delta(&mut rng), seq, seq);
                seq += 1;
            }
            let mut fired = 0u64;
            while fired < CHURN_EVENTS {
                let (at, _, _) = w.pop_next().unwrap();
                now = at;
                fired += 1;
                w.push(now + churn_delta(&mut rng), seq, seq);
                seq += 1;
            }
            (w.len(), now)
        })
    });
    g.bench_function("churn_100k_heap", |b| {
        b.iter(|| {
            let mut h: HeapCalendar<u64> = HeapCalendar::new();
            let mut rng = 0x1234_5678u64;
            let (mut seq, mut now) = (0u64, 0u64);
            for _ in 0..CHURN_PENDING {
                h.push(now + churn_delta(&mut rng), seq, seq);
                seq += 1;
            }
            let mut fired = 0u64;
            while fired < CHURN_EVENTS {
                let (at, _, _) = h.pop_next().unwrap();
                now = at;
                fired += 1;
                h.push(now + churn_delta(&mut rng), seq, seq);
                seq += 1;
            }
            (h.len(), now)
        })
    });
    g.finish();
}

const TASK_SLOTS: usize = 65_536;
const TASK_POLLS: u64 = 262_144;

fn bench_task_storage(c: &mut Criterion) {
    let mut g = c.benchmark_group("task_storage");
    g.sample_size(10);
    g.throughput(Throughput::Elements(TASK_POLLS));
    // The pre-slab executor stored futures in HashMap<TaskId, Fut> and
    // did remove → poll → reinsert on every poll; the slab indexes a
    // Vec directly and takes/puts in place. The boxed u64 stands in for
    // the future: what's measured is the storage round-trip.
    g.bench_function("poll_roundtrip_hashmap", |b| {
        b.iter(|| {
            let mut tasks: HashMap<u64, Box<u64>> = (0..TASK_SLOTS as u64)
                .map(|i| (i, Box::new(0u64)))
                .collect();
            let mut rng = 0xFEEDu64;
            for _ in 0..TASK_POLLS {
                let id = splitmix64_next(&mut rng) % TASK_SLOTS as u64;
                let mut fut = tasks.remove(&id).unwrap();
                *fut += 1;
                tasks.insert(id, fut);
            }
            tasks.len()
        })
    });
    g.bench_function("poll_roundtrip_slab", |b| {
        b.iter(|| {
            let mut tasks: Vec<Option<Box<u64>>> =
                (0..TASK_SLOTS).map(|_| Some(Box::new(0u64))).collect();
            let mut rng = 0xFEEDu64;
            for _ in 0..TASK_POLLS {
                let id = (splitmix64_next(&mut rng) % TASK_SLOTS as u64) as usize;
                let mut fut = tasks[id].take().unwrap();
                *fut += 1;
                tasks[id] = Some(fut);
            }
            tasks.len()
        })
    });
    g.finish();
}

const EXEC_TASKS: u32 = 10_000;
const EXEC_SLEEPS: u32 = 10;

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.sample_size(10);
    // Each sleep is one calendar event plus one wake/poll round trip.
    g.throughput(Throughput::Elements(EXEC_TASKS as u64 * EXEC_SLEEPS as u64));
    g.bench_function("sleep_churn_10k_tasks", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..EXEC_TASKS {
                let handle = sim.clone();
                sim.spawn(async move {
                    for k in 0..EXEC_SLEEPS {
                        handle
                            .sleep(SimDuration::from_nanos(1 + ((i + k) % 97) as u64))
                            .await;
                    }
                });
            }
            sim.run().expect_quiescent().as_nanos()
        })
    });
    g.bench_function("spawn_churn_100k_tasks", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let spawner = sim.clone();
            sim.spawn(async move {
                for wave in 0..10u32 {
                    for i in 0..10_000u32 {
                        let h = spawner.clone();
                        spawner.spawn(async move {
                            h.sleep(SimDuration::from_nanos((i % 13) as u64)).await;
                        });
                    }
                    spawner
                        .sleep(SimDuration::from_micros(wave as u64 + 1))
                        .await;
                }
            });
            sim.run().expect_quiescent().as_nanos()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_calendar, bench_task_storage, bench_executor);
criterion_main!(benches);
