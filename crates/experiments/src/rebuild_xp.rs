//! Beyond-paper extension: rebuild time after an engine loss.
//!
//! DAOS's answer to "what happens operationally when SCM hardware dies
//! mid-window" is the rebuild protocol. This experiment measures the
//! model's recovery story: time to restore full redundancy as a function
//! of archived data volume and cluster size, and the write-availability
//! gap it closes (degraded writes rejected before, accepted after).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{rebuild_engine, ClusterSpec, Deployment, RebuildReport, SimClient};
use daosim_core::workload::MIB;
use daosim_kernel::Sim;
use daosim_objstore::api::DaosApi;
use daosim_objstore::{ObjectClass, OidAllocator, Uuid};

use crate::harness::{gib, parallel_map, Report, Scale};

struct Run {
    report: RebuildReport,
    degraded_write_fail_pct: f64,
}

fn run_rebuild(servers: u16, objects_per_proc: u32, procs: u32) -> Run {
    let sim = Sim::new();
    let d = Deployment::new(&sim, ClusterSpec::tcp(servers, 1));
    let out: Rc<RefCell<Option<Run>>> = Rc::default();
    {
        let (d, out) = (Rc::clone(&d), Rc::clone(&out));
        sim.spawn(async move {
            let payload = Bytes::from(vec![3u8; MIB as usize]);
            // Populate with replicated objects from several writers.
            let writers: Vec<_> = (0..procs)
                .map(|p| {
                    let d = Rc::clone(&d);
                    let payload = payload.clone();
                    Box::pin(async move {
                        let client = SimClient::for_process(&d, 0, p);
                        let cont = client
                            .cont_open_or_create(Uuid::from_name(b"rb"))
                            .await
                            .unwrap();
                        let mut alloc = OidAllocator::new(p + 1);
                        let mut open = Vec::new();
                        for _ in 0..objects_per_proc {
                            let oid = alloc.next(ObjectClass::RP2);
                            let h = client.array_create(&cont, oid).await.unwrap();
                            client
                                .array_write(&cont, &h, 0, payload.clone())
                                .await
                                .unwrap();
                            open.push(h);
                        }
                        (client, cont, open)
                    })
                })
                .collect();
            let handles = daosim_kernel::sync::join_all(writers).await;

            d.kill_engine(0);
            // Measure degraded write availability.
            let mut failed = 0u32;
            let mut total = 0u32;
            for (client, cont, open) in &handles {
                for h in open {
                    total += 1;
                    if client
                        .array_write(cont, h, 0, payload.clone())
                        .await
                        .is_err()
                    {
                        failed += 1;
                    }
                }
            }
            let report = rebuild_engine(&d, 0)
                .await
                .expect("rebuild of killed engine");
            // Post-rebuild: every write must succeed.
            for (client, cont, open) in &handles {
                for h in open {
                    client
                        .array_write(cont, h, 0, payload.clone())
                        .await
                        .unwrap();
                }
            }
            *out.borrow_mut() = Some(Run {
                report,
                degraded_write_fail_pct: 100.0 * failed as f64 / total as f64,
            });
        });
    }
    sim.run().expect_quiescent();
    Rc::try_unwrap(out)
        .ok()
        .expect("run done")
        .into_inner()
        .expect("run completed")
}

pub fn rebuild(scale: &Scale) -> Report {
    let procs = *scale.fieldio_ppn.first().unwrap_or(&8);
    let cfgs: Vec<(u16, u32)> = vec![(2, 8), (2, 32), (2, 64), (4, 32)];
    let results = parallel_map(cfgs, |&(servers, objs)| {
        (servers, objs, run_rebuild(servers, objs, procs))
    });
    let mut rep = Report::new(
        "rebuild",
        "Extension: rebuild after engine loss (RP2 archive)",
        &[
            "server_nodes",
            "objects",
            "moved_GiB",
            "rebuild_ms",
            "rebuild_GiB/s",
            "degraded_write_fail_%",
        ],
    );
    for (servers, objs, r) in results {
        let gib_moved = r.report.bytes_moved as f64 / (1u64 << 30) as f64;
        rep.row(vec![
            servers.to_string(),
            (objs * procs).to_string(),
            format!("{gib_moved:.2}"),
            format!("{:.1}", r.report.duration_secs * 1e3),
            gib(gib_moved / r.report.duration_secs.max(1e-12)),
            format!("{:.1}", r.degraded_write_fail_pct),
        ]);
    }
    rep.note(
        "writes to objects with a dead replica fail until rebuild completes; \
              all writes succeed afterwards (asserted)",
    );
    rep
}
