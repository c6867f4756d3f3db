//! Pins the simulated cost of every `SimClient` operation.
//!
//! Each scenario drives the `DaosApi` surface on a small deployment and
//! records, per op: start and end `SimTime`, the `Ok`/`Err` outcome, the
//! busy-ns and media-tally deltas of every target the op touched, and the
//! pool's used bytes afterwards. The log must match
//! `simclient_pin.golden` byte for byte, so any refactor of the client
//! path that shifts one simulated event, one media charge or one error
//! shows up here.

use std::cell::RefCell;
use std::fmt::{Debug, Write as _};
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{ClusterSpec, Deployment, QosClass, RetryPolicy, SimClient};
use daosim_kernel::sync::join_all;
use daosim_kernel::{AdmissionPolicy, Sim, SimDuration};
use daosim_media::MediaCounts;
use daosim_objstore::placement::{ec_targets, ARRAY_CHUNK};
use daosim_objstore::prelude::{DaosApi, ObjectClass, Oid, Uuid};

const KIB: usize = 1024;

/// A deployment small enough to read the whole target table at a glance:
/// two server nodes × two engines × two targets.
fn small_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(2, 1);
    spec.targets_per_engine = 2;
    spec
}

/// Records op outcomes and the per-target deltas they caused.
struct Pin {
    d: Rc<Deployment>,
    prev: Vec<(u64, MediaCounts)>,
    log: String,
}

impl Pin {
    fn new(d: &Rc<Deployment>, scenario: &str) -> Self {
        let mut pin = Pin {
            d: Rc::clone(d),
            prev: Vec::new(),
            log: format!("== {scenario}\n"),
        };
        pin.prev = pin.targets();
        pin
    }

    fn targets(&self) -> Vec<(u64, MediaCounts)> {
        (0..self.d.spec.pool_targets())
            .map(|t| {
                let tgt = self.d.target(t);
                (tgt.busy_ns(), tgt.tally.counts())
            })
            .collect()
    }

    /// Logs one op line, then the target deltas since the previous line.
    fn op(&mut self, name: &str, start: u64, end: u64, outcome: impl Debug) {
        writeln!(self.log, "{name} [{start}..{end}] {outcome:?}").unwrap();
        self.deltas();
    }

    /// Logs an op whose deltas are folded into a later [`Self::deltas`].
    fn op_only(&mut self, name: &str, start: u64, end: u64, outcome: impl Debug) {
        writeln!(self.log, "{name} [{start}..{end}] {outcome:?}").unwrap();
    }

    fn deltas(&mut self) {
        let now = self.targets();
        for (t, (&(busy, c), &(pbusy, p))) in now.iter().zip(&self.prev).enumerate() {
            if busy != pbusy || c != p {
                writeln!(
                    self.log,
                    "  t{t}: busy+{} w+{}/{}B r+{}/{}B",
                    busy - pbusy,
                    c.writes - p.writes,
                    c.bytes_written - p.bytes_written,
                    c.reads - p.reads,
                    c.bytes_read - p.bytes_read,
                )
                .unwrap();
            }
        }
        writeln!(self.log, "  pool used {}", self.d.pool.used()).unwrap();
        self.prev = now;
    }
}

/// Times one awaited op against the simulated clock.
macro_rules! timed {
    ($sim:expr, $op:expr) => {{
        let start = $sim.now().as_nanos();
        let r = $op.await;
        (start, $sim.now().as_nanos(), r)
    }};
}

/// Runs `body` as the only task of a fresh deployment and returns its log.
fn scenario<F, Fut>(spec: ClusterSpec, name: &str, body: F) -> String
where
    F: FnOnce(Rc<Deployment>, Pin) -> Fut,
    Fut: std::future::Future<Output = Pin> + 'static,
{
    let sim = Sim::new();
    let d = Deployment::new(&sim, spec);
    let out: Rc<RefCell<String>> = Rc::default();
    let fut = body(Rc::clone(&d), Pin::new(&d, name));
    let sink = Rc::clone(&out);
    sim.spawn(async move {
        let pin = fut.await;
        *sink.borrow_mut() = pin.log;
    });
    let end = sim.run().expect_quiescent().as_nanos();
    let mut log = out.take();
    writeln!(log, "end {end}").unwrap();
    log
}

fn bytes(n: usize, fill: u8) -> Bytes {
    Bytes::from(vec![fill; n])
}

/// Container ops, then every KV op on one object of `class`.
fn kv_scenario(class: ObjectClass) -> String {
    scenario(
        small_spec(),
        &format!("kv {class:?}"),
        move |d, mut pin| async move {
            let sim = d.sim.clone();
            let c = SimClient::for_process(&d, 0, 0);
            let uuid = Uuid::from_name(b"pin-kv");
            let (s, e, r) = timed!(sim, c.cont_open_or_create(uuid));
            pin.op("cont_open_or_create(new)", s, e, r.as_ref().map(|_| ()));
            let cont = r.unwrap();
            let (s, e, r) = timed!(sim, c.cont_open(uuid));
            pin.op("cont_open", s, e, r.map(|_| ()));
            let (s, e, r) = timed!(sim, c.cont_open_or_create(uuid));
            pin.op("cont_open_or_create(existing)", s, e, r.map(|_| ()));

            let oid = Oid::generate(7, class as u64, class);
            let (s, e, r) = timed!(sim, c.kv_put(&cont, oid, b"k1", bytes(100, 1)));
            pin.op("kv_put k1", s, e, r);
            let (s, e, r) = timed!(sim, c.kv_get(&cont, oid, b"k1"));
            pin.op("kv_get k1", s, e, r.map(|v| v.map(|b| b.len())));
            let (s, e, r) = timed!(sim, c.kv_get(&cont, oid, b"nope"));
            pin.op("kv_get absent", s, e, r.map(|v| v.map(|b| b.len())));
            let (s, e, r) = timed!(sim, c.kv_put_if_absent(&cont, oid, b"k2", bytes(40, 2)));
            pin.op("kv_put_if_absent win", s, e, r.map(|v| v.map(|b| b.len())));
            let (s, e, r) = timed!(sim, c.kv_put_if_absent(&cont, oid, b"k2", bytes(60, 3)));
            pin.op("kv_put_if_absent lose", s, e, r.map(|v| v.map(|b| b.len())));
            let (s, e, r) = timed!(sim, c.kv_remove(&cont, oid, b"k1"));
            pin.op("kv_remove present", s, e, r);
            let (s, e, r) = timed!(sim, c.kv_remove(&cont, oid, b"never"));
            pin.op("kv_remove absent", s, e, r);
            let pairs = vec![
                (Bytes::from_static(b"m-a"), bytes(10, 4)),
                (Bytes::from_static(b"m-bb"), bytes(200, 5)),
                (Bytes::from_static(b"m-ccc"), bytes(3000, 6)),
            ];
            let (s, e, r) = timed!(sim, c.kv_put_multi(&cont, oid, pairs));
            pin.op("kv_put_multi 3", s, e, r);
            let (s, e, r) = timed!(sim, c.kv_put_multi(&cont, oid, Vec::new()));
            pin.op("kv_put_multi 0", s, e, r);
            let (s, e, r) = timed!(sim, c.kv_list_keys(&cont, oid));
            pin.op("kv_list_keys", s, e, r.map(|v| v.len()));
            let from = Bytes::from_static(b"m-b");
            let (s, e, r) = timed!(sim, c.kv_list_range(&cont, oid, from, None));
            pin.op("kv_list_range", s, e, r.map(|v| v.len()));

            // Two concurrent puts to one oid serialize on its update lock.
            let c2 = SimClient::for_process(&d, 0, 1);
            let start = sim.now().as_nanos();
            let puts = vec![
                Box::pin({
                    let (c, cont, sim) = (c.clone(), cont.clone(), sim.clone());
                    async move {
                        let r = c.kv_put(&cont, oid, b"race", bytes(500, 7)).await;
                        (sim.now().as_nanos(), r)
                    }
                }) as std::pin::Pin<Box<dyn std::future::Future<Output = _>>>,
                Box::pin({
                    let (c, cont, sim) = (c2.clone(), cont.clone(), sim.clone());
                    async move {
                        let r = c.kv_put(&cont, oid, b"race", bytes(700, 8)).await;
                        (sim.now().as_nanos(), r)
                    }
                }),
            ];
            let outs = join_all(puts).await;
            for (i, (end, r)) in outs.into_iter().enumerate() {
                pin.op_only(&format!("kv_put race#{i}"), start, end, r);
            }
            pin.deltas();
            let (s, e, r) = timed!(sim, c.kv_get(&cont, oid, b"race"));
            pin.op("kv_get race", s, e, r.map(|v| v.map(|b| b.len())));
            pin
        },
    )
}

/// Every array and object op on objects of `class`.
fn array_scenario(class: ObjectClass) -> String {
    scenario(
        small_spec(),
        &format!("array {class:?}"),
        move |d, mut pin| async move {
            let sim = d.sim.clone();
            let c = SimClient::for_process(&d, 0, 0);
            let cont = c
                .cont_open_or_create(Uuid::from_name(b"pin-array"))
                .await
                .unwrap();
            pin.deltas();
            let oid = Oid::generate(8, class as u64, class);
            let (s, e, r) = timed!(sim, c.array_create(&cont, oid));
            pin.op("array_create", s, e, r.as_ref().map(|_| ()));
            let h = r.unwrap();
            let (s, e, r) = timed!(sim, c.array_write(&cont, &h, 0, bytes(64 * KIB, 1)));
            pin.op("array_write 64K@0", s, e, r);
            let (s, e, r) = timed!(sim, c.array_read(&cont, &h, 0, 64 * KIB as u64));
            pin.op("array_read 64K@0", s, e, r.map(|b| b.len()));
            let (s, e, r) = timed!(sim, c.array_size(&cont, &h));
            pin.op("array_size", s, e, r);
            let (s, e, r) = timed!(sim, c.array_write(&cont, &h, 4096, bytes(KIB, 2)));
            pin.op("array_write 1K@4K", s, e, r);
            let one = vec![(0u64, bytes(32 * KIB, 3))];
            let (s, e, r) = timed!(sim, c.array_write_vec(&cont, &h, one));
            pin.op("array_write_vec 1", s, e, r);
            let three = vec![
                (0u64, bytes(4 * KIB, 4)),
                (ARRAY_CHUNK + 8192, bytes(8 * KIB, 5)),
                (16 * KIB as u64, bytes(2 * KIB, 6)),
            ];
            let (s, e, r) = timed!(sim, c.array_write_vec(&cont, &h, three));
            pin.op("array_write_vec 3/2chunks", s, e, r);
            let (s, e, r) = timed!(sim, c.array_write_vec(&cont, &h, Vec::new()));
            pin.op("array_write_vec 0", s, e, r);
            let len = ARRAY_CHUNK + 32 * KIB as u64;
            let (s, e, r) = timed!(sim, c.array_read(&cont, &h, 0, len));
            pin.op("array_read all", s, e, r.map(|b| b.len()));
            let (s, e, r) = timed!(sim, c.array_open(&cont, oid));
            pin.op("array_open", s, e, r.map(|_| ()));
            let (s, e, r) = timed!(sim, c.array_close(&cont, h));
            pin.op("array_close", s, e, r);
            let other = Oid::generate(9, class as u64, class);
            let (s, e, r) = timed!(sim, c.array_open_or_create(&cont, other));
            pin.op("array_open_or_create(new)", s, e, r.map(|_| ()));
            let (s, e, r) = timed!(sim, c.list_array_objects(&cont));
            pin.op("list_array_objects", s, e, r.map(|v| v.len()));
            let (s, e, r) = timed!(sim, c.obj_punch(&cont, other));
            pin.op("obj_punch", s, e, r);
            pin
        },
    )
}

/// Faults under a bounded retry policy: a put that exhausts its budget
/// against a killed engine, a put that fails over once the engine is
/// revived mid-backoff, a degraded RP2 read and an EC2P1 read that
/// reconstructs a lost data cell.
fn fault_scenario() -> String {
    let mut spec = small_spec();
    spec.retry = RetryPolicy::builder()
        .max_attempts(3)
        .base_backoff(SimDuration::from_micros(100))
        .max_backoff(SimDuration::from_millis(1))
        .seed(1)
        .build();
    scenario(spec, "faults", |d, mut pin| async move {
        let sim = d.sim.clone();
        let c = SimClient::for_process(&d, 0, 0);
        let cont = c
            .cont_open_or_create(Uuid::from_name(b"pin-fault"))
            .await
            .unwrap();
        let pool_targets = d.spec.pool_targets();
        // An EC object whose three cells sit on three distinct engines.
        let ec = (0..)
            .map(|i| Oid::generate(11, i, ObjectClass::EC2P1))
            .find(|&oid| {
                let (dts, pt) = ec_targets(oid, pool_targets);
                let e: Vec<u32> = [dts[0], dts[1], pt]
                    .iter()
                    .map(|&t| d.engine_index_of_target(t))
                    .collect();
                e[0] != e[1] && e[0] != e[2] && e[1] != e[2]
            })
            .unwrap();
        let h = c.array_create(&cont, ec).await.unwrap();
        c.array_write(&cont, &h, 0, bytes(48 * KIB + 3, 9))
            .await
            .unwrap();
        let rp = Oid::generate(12, 0, ObjectClass::RP2);
        let hr = c.array_create(&cont, rp).await.unwrap();
        c.array_write(&cont, &hr, 0, bytes(16 * KIB, 10))
            .await
            .unwrap();
        let kv = Oid::generate(13, 0, ObjectClass::S1);
        c.kv_put(&cont, kv, b"k", bytes(10, 11)).await.unwrap();
        let rpkv = Oid::generate(13, 1, ObjectClass::RP2);
        c.kv_put(&cont, rpkv, b"k", bytes(30, 15)).await.unwrap();
        pin.deltas();

        let (dts, _) = ec_targets(ec, pool_targets);
        let lost = d.engine_index_of_target(dts[0]);
        d.kill_engine(lost);
        let (s, e, r) = timed!(sim, c.array_read(&cont, &h, 0, 48 * KIB as u64 + 3));
        pin.op("ec array_read reconstruct cell 0", s, e, r.map(|b| b.len()));
        let (s, e, r) = timed!(sim, c.array_write(&cont, &h, 0, bytes(KIB, 12)));
        pin.op("ec array_write degraded", s, e, r);
        d.revive_engine(lost);
        let lost = d.engine_index_of_target(dts[1]);
        d.kill_engine(lost);
        let (s, e, r) = timed!(sim, c.array_read(&cont, &h, 100, 4 * KIB as u64));
        pin.op("ec array_read reconstruct cell 1", s, e, r.map(|b| b.len()));
        d.revive_engine(lost);

        let reps = daosim_objstore::placement::replica_targets(rp, pool_targets);
        let down = d.engine_index_of_target(reps[0]);
        d.kill_engine(down);
        let (s, e, r) = timed!(sim, c.array_read(&cont, &hr, 0, 16 * KIB as u64));
        pin.op("rp2 array_read degraded", s, e, r.map(|b| b.len()));
        let (s, e, r) = timed!(sim, c.kv_get(&cont, rpkv, b"k"));
        pin.op("rp2 kv_get degraded", s, e, r.map(|v| v.map(|b| b.len())));
        let (s, e, r) = timed!(sim, c.kv_put(&cont, rpkv, b"k", bytes(5, 16)));
        pin.op("rp2 kv_put degraded", s, e, r);
        d.revive_engine(down);

        let home = daosim_objstore::placement::kv_target(kv, b"k", pool_targets);
        let dead = d.engine_index_of_target(home);
        d.kill_engine(dead);
        let (s, e, r) = timed!(sim, c.kv_put(&cont, kv, b"k", bytes(20, 13)));
        pin.op("kv_put exhausts retries", s, e, r);
        let (s, e, r) = timed!(sim, c.kv_remove(&cont, kv, b"k"));
        pin.op("kv_remove exhausts retries", s, e, r);
        {
            let d2 = Rc::clone(&d);
            sim.schedule_after(SimDuration::from_micros(150), move || {
                d2.revive_engine(dead)
            });
        }
        let (s, e, r) = timed!(sim, c.kv_put_if_absent(&cont, kv, b"k2", bytes(20, 14)));
        pin.op(
            "kv_put_if_absent fails over",
            s,
            e,
            r.map(|v| v.map(|b| b.len())),
        );
        let r = d.resilience().report();
        writeln!(pin.log, "resilience {r:?}").unwrap();
        pin
    })
}

/// Writer-priority admission on one contended object: a writer queued
/// last is admitted ahead of two readers.
fn admission_scenario() -> String {
    let mut spec = small_spec();
    spec.admission = AdmissionPolicy::writer_priority();
    scenario(spec, "writer-priority", |d, mut pin| async move {
        let sim = d.sim.clone();
        let c = SimClient::for_process(&d, 0, 0);
        let cont = c
            .cont_open_or_create(Uuid::from_name(b"pin-qos"))
            .await
            .unwrap();
        pin.deltas();
        let oid = Oid::generate(14, 0, ObjectClass::S1);
        let start = sim.now().as_nanos();
        let classes = [
            QosClass::Reader,
            QosClass::Reader,
            QosClass::Reader,
            QosClass::Writer,
        ];
        let puts: Vec<_> = classes
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let c = SimClient::for_process(&d, 0, i as u32).with_qos(q);
                let (cont, sim) = (cont.clone(), sim.clone());
                async move {
                    let r = c.kv_put(&cont, oid, b"idx", bytes(64 + i, i as u8)).await;
                    (sim.now().as_nanos(), r)
                }
            })
            .collect();
        for (i, (end, r)) in join_all(puts).await.into_iter().enumerate() {
            pin.op_only(&format!("kv_put {}#{i}", classes[i].name()), start, end, r);
        }
        pin.deltas();
        writeln!(pin.log, "aged_grants {}", d.aged_grants()).unwrap();
        pin
    })
}

#[test]
fn simclient_costs_match_the_pinned_log() {
    let mut log = String::new();
    for class in [ObjectClass::S1, ObjectClass::RP2] {
        log += &kv_scenario(class);
    }
    for class in [ObjectClass::S1, ObjectClass::RP2, ObjectClass::EC2P1] {
        log += &array_scenario(class);
    }
    log += &fault_scenario();
    log += &admission_scenario();
    let golden = include_str!("simclient_pin.golden");
    if log != golden {
        let at = log
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(log.lines().count().min(golden.lines().count()));
        panic!(
            "SimClient costs drifted from simclient_pin.golden at line {}:\n  got:  {:?}\n  want: {:?}\n--- full log ---\n{log}",
            at + 1,
            log.lines().nth(at),
            golden.lines().nth(at),
        );
    }
}
