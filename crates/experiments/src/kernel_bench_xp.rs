//! Beyond-paper extension: kernel hot-path trajectory benchmark.
//!
//! Measures the rebuilt kernel data structures against the pre-rebuild
//! baseline on the million-task regime the ROADMAP's contention scenario
//! needs: (1) timer churn through the hierarchical wheel vs the retired
//! `BinaryHeap` calendar, (2) the poll storage round-trip through the
//! slab arena vs a `HashMap` remove/reinsert, (3) the composite old vs
//! new event loop (calendar + task storage + wake dedup together), and
//! (4) an end-to-end IOR run with 100k simulated client processes —
//! the scale demonstration the tentpole names.
//!
//! All `ns_per_event` figures are **wall-clock** (like
//! `BENCH_net.json`), so `results/BENCH_kernel.json` tracks the kernel
//! trajectory but is *not* byte-compared by CI. The IOR rows' simulated
//! bandwidths are deterministic, and are emitted separately as
//! `kernel_ior_demo.txt` for the CI double-run `cmp` check.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use daosim_cluster::ClusterSpec;
use daosim_ior::{run_ior, FileMode, IorParams};
use daosim_kernel::calendar::{HeapCalendar, TimerWheel};
use daosim_kernel::rng::splitmix64_next;
use daosim_kernel::{Sim, SimDuration};
use daosim_objstore::ObjectClass;

use crate::harness::{gib, JsonObject, Report, Scale};

/// Mostly µs-scale service times, a tail of ms backoffs and far-future
/// deadlines — the delta mix simulated clients actually schedule. Every
/// variant draws the same stream, so old and new structures process the
/// identical event sequence.
fn churn_delta(rng: &mut u64) -> u64 {
    let r = splitmix64_next(rng);
    match r % 100 {
        0..=79 => 1 + (r >> 8) % (1 << 12),
        80..=97 => 1 + (r >> 8) % (1 << 24),
        _ => 1 + (r >> 8) % (1 << 34),
    }
}

struct Sizes {
    /// Timers resident in the calendar during churn.
    pending: u64,
    /// Pop-push cycles measured.
    events: u64,
    /// IOR scale: (server_nodes, client_nodes, procs_per_node, KiB/proc).
    ior: (u16, u16, u32, u64),
}

fn sizes(scale: &Scale) -> Sizes {
    if scale.ops_per_proc >= 60 {
        Sizes {
            pending: 1_000_000,
            events: 1_000_000,
            ior: (4, 250, 400, 256), // 100_000 client processes
        }
    } else {
        Sizes {
            pending: 50_000,
            events: 100_000,
            ior: (2, 16, 250, 64), // 4_000 client processes
        }
    }
}

/// Wall ns/event for `events` pop-push cycles with `pending` resident
/// timers, through either calendar.
fn churn_ns(pending: u64, events: u64, use_wheel: bool) -> f64 {
    let mut wheel = TimerWheel::new();
    let mut heap = HeapCalendar::new();
    let mut rng = 0x1234_5678u64;
    let (mut seq, mut now) = (0u64, 0u64);
    for _ in 0..pending {
        let at = now + churn_delta(&mut rng);
        if use_wheel {
            wheel.push(at, seq, seq);
        } else {
            heap.push(at, seq, seq);
        }
        seq += 1;
    }
    let t0 = Instant::now();
    for _ in 0..events {
        let (at, _, _) = if use_wheel {
            wheel.pop_next().unwrap()
        } else {
            heap.pop_next().unwrap()
        };
        now = at;
        let next = now + churn_delta(&mut rng);
        if use_wheel {
            wheel.push(next, seq, seq);
        } else {
            heap.push(next, seq, seq);
        }
        seq += 1;
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// Wall ns/poll for the task-storage round-trip: `HashMap` remove →
/// touch → reinsert (the pre-slab executor) vs direct slab indexing.
fn poll_ns(slots: u64, polls: u64, use_slab: bool) -> f64 {
    let mut rng = 0xFEEDu64;
    if use_slab {
        let mut tasks: Vec<Option<Box<u64>>> = (0..slots).map(|_| Some(Box::new(0u64))).collect();
        let t0 = Instant::now();
        for _ in 0..polls {
            let id = (splitmix64_next(&mut rng) % slots) as usize;
            let mut fut = tasks[id].take().unwrap();
            *fut += 1;
            tasks[id] = Some(fut);
        }
        t0.elapsed().as_nanos() as f64 / polls as f64
    } else {
        let mut tasks: HashMap<u64, Box<u64>> = (0..slots).map(|i| (i, Box::new(0u64))).collect();
        let t0 = Instant::now();
        for _ in 0..polls {
            let id = splitmix64_next(&mut rng) % slots;
            let mut fut = tasks.remove(&id).unwrap();
            *fut += 1;
            tasks.insert(id, fut);
        }
        t0.elapsed().as_nanos() as f64 / polls as f64
    }
}

/// The composite hot loop, old shape vs new shape. Per event the old
/// kernel did: heap pop, wake-`HashSet` remove, `HashMap` future
/// remove → poll → reinsert, `HashSet` insert + heap push to
/// reschedule. The new kernel: wheel pop, generation-stamp check, slab
/// index, stamp + wheel push.
fn loop_ns(pending: u64, events: u64, new_kernel: bool) -> f64 {
    let mut rng = 0x5EED_0001u64;
    let (mut seq, mut now) = (0u64, 0u64);
    if new_kernel {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut slab: Vec<Option<Box<u64>>> = (0..pending).map(|_| Some(Box::new(0u64))).collect();
        let mut stamps: Vec<u64> = vec![0; pending as usize];
        for slot in 0..pending {
            wheel.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        let t0 = Instant::now();
        for round in 0..events {
            let (at, _, slot) = wheel.pop_next().unwrap();
            now = at;
            let gen = round + 1;
            if stamps[slot as usize] != gen {
                stamps[slot as usize] = gen;
                let fut = slab[slot as usize].as_mut().unwrap();
                **fut += 1;
            }
            wheel.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    } else {
        let mut heap: HeapCalendar<u64> = HeapCalendar::new();
        let mut tasks: HashMap<u64, Box<u64>> = (0..pending).map(|i| (i, Box::new(0u64))).collect();
        let mut woken: HashSet<u64> = HashSet::new();
        for slot in 0..pending {
            heap.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        let t0 = Instant::now();
        for _ in 0..events {
            let (at, _, slot) = heap.pop_next().unwrap();
            now = at;
            woken.remove(&slot);
            let mut fut = tasks.remove(&slot).unwrap();
            *fut += 1;
            tasks.insert(slot, fut);
            woken.insert(slot);
            heap.push(now + churn_delta(&mut rng), seq, slot);
            seq += 1;
        }
        t0.elapsed().as_nanos() as f64 / events as f64
    }
}

/// End-to-end executor throughput: tasks sleeping in a loop, every
/// event exercising calendar, slab, waker and wake-queue together.
fn executor_ns(tasks: u32, sleeps: u32) -> f64 {
    let sim = Sim::new();
    for i in 0..tasks {
        let handle = sim.clone();
        sim.spawn(async move {
            for k in 0..sleeps {
                handle
                    .sleep(SimDuration::from_nanos(1 + ((i + k) % 97) as u64))
                    .await;
            }
        });
    }
    let t0 = Instant::now();
    sim.run().expect_quiescent();
    t0.elapsed().as_nanos() as f64 / (tasks as f64 * sleeps as f64)
}

/// The tentpole's scale demonstration plus the trajectory table.
pub fn kernel_bench(scale: &Scale) -> Report {
    let sz = sizes(scale);
    let wheel = churn_ns(sz.pending, sz.events, true);
    let heap = churn_ns(sz.pending, sz.events, false);
    let slab = poll_ns(sz.pending, sz.events, true);
    let hashmap = poll_ns(sz.pending, sz.events, false);
    let new_loop = loop_ns(sz.pending, sz.events, true);
    let old_loop = loop_ns(sz.pending, sz.events, false);
    let exec = executor_ns((sz.events / 10).max(1_000) as u32, 10);

    let (servers, client_nodes, ppn, kib) = sz.ior;
    let procs = client_nodes as u32 * ppn;
    let params = IorParams {
        transfer_bytes: kib * 1024,
        segments: 1,
        procs_per_node: ppn,
        class: ObjectClass::S1,
        iterations: 1,
        file_mode: FileMode::FilePerProcess,
        inflight: 1,
        api: daosim_ior::Api::Daos,
    };
    let t0 = Instant::now();
    let ior = run_ior(ClusterSpec::tcp(servers, client_nodes), params);
    let ior_wall = t0.elapsed().as_secs_f64();

    let mut rep = Report::new(
        "kernel-bench",
        "Extension: kernel hot-path ns/event (timer wheel + slab arena vs heap + hashmap)",
        &["workload", "variant", "ops", "ns_per_op", "speedup"],
    );
    let spd = |new: f64, old: f64| format!("{:.2}x", old / new);
    let mut pair =
        |workload: &str, new_name: &str, new: f64, old_name: &str, old: f64, ops: u64| {
            rep.row(vec![
                workload.into(),
                new_name.into(),
                ops.to_string(),
                format!("{new:.1}"),
                spd(new, old),
            ]);
            rep.row(vec![
                workload.into(),
                old_name.into(),
                ops.to_string(),
                format!("{old:.1}"),
                "1.00x".into(),
            ]);
        };
    pair("timer_churn", "wheel", wheel, "heap", heap, sz.events);
    pair("task_poll", "slab", slab, "hashmap", hashmap, sz.events);
    pair(
        "event_loop",
        "wheel+slab+stamp",
        new_loop,
        "heap+hashmap+hashset",
        old_loop,
        sz.events,
    );
    rep.row(vec![
        "executor_sleep".into(),
        "end-to-end".into(),
        sz.events.to_string(),
        format!("{exec:.1}"),
        "-".into(),
    ]);
    rep.row(vec![
        format!("ior_{procs}_clients"),
        "end-to-end".into(),
        procs.to_string(),
        format!("{:.2e}", ior_wall * 1e9 / procs as f64),
        "-".into(),
    ]);
    rep.note(format!(
        "{} pending timers; ns_per_op is wall-clock (machine-dependent, not byte-compared); \
         IOR: {} procs x {} KiB completed in {:.1}s wall",
        sz.pending, procs, kib, ior_wall
    ));

    let json = JsonObject::pretty()
        .str("experiment", "kernel-bench")
        .str("schema", "kernel-bench/v1")
        .raw(
            "workload",
            JsonObject::inline()
                .raw("pending_timers", sz.pending)
                .raw("events", sz.events),
        )
        .raw(
            "timer_churn",
            JsonObject::inline()
                .raw("wheel_ns_per_event", format!("{wheel:.1}"))
                .raw("heap_ns_per_event", format!("{heap:.1}"))
                .raw("speedup", format!("{:.2}", heap / wheel)),
        )
        .raw(
            "task_poll",
            JsonObject::inline()
                .raw("slab_ns_per_poll", format!("{slab:.1}"))
                .raw("hashmap_ns_per_poll", format!("{hashmap:.1}"))
                .raw("speedup", format!("{:.2}", hashmap / slab)),
        )
        .raw(
            "event_loop",
            JsonObject::inline()
                .raw("new_ns_per_event", format!("{new_loop:.1}"))
                .raw("old_ns_per_event", format!("{old_loop:.1}"))
                .raw("speedup", format!("{:.2}", old_loop / new_loop)),
        )
        .raw(
            "executor_sleep",
            JsonObject::inline().raw("ns_per_event", format!("{exec:.1}")),
        )
        .raw(
            "ior_demo",
            JsonObject::inline()
                .raw("procs", procs)
                .raw("kib_per_proc", kib)
                .raw("write_gib_s", gib(ior.write_bw()))
                .raw("read_gib_s", gib(ior.read_bw()))
                .raw("wall_s", format!("{ior_wall:.1}")),
        );
    rep.artifact("BENCH_kernel.json", json.render());

    // Simulated results only — deterministic, byte-compared by the CI
    // double-run `cmp` smoke step.
    let mut demo = String::new();
    let _ = writeln!(demo, "kernel_ior_demo v1");
    let _ = writeln!(
        demo,
        "spec: servers={servers} client_nodes={client_nodes} ppn={ppn} procs={procs}"
    );
    let _ = writeln!(
        demo,
        "transfer: {kib} KiB x 1 segment, S1, file-per-process"
    );
    let _ = writeln!(demo, "write_gib_s: {}", gib(ior.write_bw()));
    let _ = writeln!(demo, "read_gib_s: {}", gib(ior.read_bw()));
    rep.artifact("kernel_ior_demo.txt", demo);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_kernel_bench_reports_and_demo_artifact() {
        let rep = kernel_bench(&Scale::quick());
        assert!(rep.rows().len() >= 8);
        let names: Vec<&str> = rep.artifacts().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"BENCH_kernel.json"));
        assert!(names.contains(&"kernel_ior_demo.txt"));
        let demo = &rep
            .artifacts()
            .iter()
            .find(|(n, _)| n == "kernel_ior_demo.txt")
            .unwrap()
            .1;
        // The demo artifact must be simulated-time only (deterministic):
        // a positive bandwidth and no wall-clock figures.
        assert!(demo.contains("procs=4000"), "unexpected demo: {demo}");
        assert!(
            !demo.contains("wall"),
            "wall-clock leaked into demo: {demo}"
        );
    }
}
