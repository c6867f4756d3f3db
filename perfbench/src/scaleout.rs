//! `fieldio-scaleout`: paper Fig. 5 at its largest shape that still runs
//! in seconds. TCP, 8 server nodes (16 engines), 16 client nodes × 32
//! processes, `FieldIoMode::Full`, a forecast index per process, 1 MiB
//! fields. Each process is a closed loop through three phases separated
//! by barriers: unique writes, unique reads in a seeded order (pattern
//! A), then half the processes re-write their first field while the
//! other half read a seeded writer's field (pattern B).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{ClusterSpec, QosClass};
use daosim_core::fieldio::{FieldIoConfig, FieldIoMode};
use daosim_core::key::FieldKey;
use daosim_kernel::sync::{Barrier, WaitGroup};
use daosim_kernel::SimDuration;

use crate::des::{self, SimClientSpec, Wrap};
use crate::gen;
use crate::probe::polled;
use crate::round::{self, Acked, Digest, Round};

const SERVER_NODES: u16 = 8;
const CLIENT_NODES: u16 = 16;
const PPN: u32 = 32;
const PROCS: u32 = CLIENT_NODES as u32 * PPN;
/// Unique fields each process writes and reads back (pattern A).
const FIELDS_PER_PROC: u32 = 3;
/// Re-writes per pattern-B writer, and reads per pattern-B reader.
const REWRITES: u32 = 3;
const FIELD_BYTES: u64 = 1 << 20;
/// Distinct payloads the fields draw from, so memory stays flat.
const PAYLOADS: u64 = 16;

/// The run's seeded inputs, shared by every round.
pub struct Inputs {
    keys: Vec<Vec<FieldKey>>,
    payloads: Vec<Bytes>,
    seed: u64,
    read_order: Vec<Vec<u32>>,
    /// Pattern-B reader -> the writer whose field it reads.
    target: Vec<u32>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Inputs {
            keys: (0..PROCS)
                .map(|p| {
                    (0..FIELDS_PER_PROC)
                        .map(|i| gen::field_key(seed, p, i, "fc"))
                        .collect()
                })
                .collect(),
            payloads: (0..PAYLOADS)
                .map(|k| gen::payload(FIELD_BYTES, gen::mix(seed, 1, k, 0)))
                .collect(),
            seed,
            read_order: (0..PROCS)
                .map(|p| gen::permutation(gen::mix(seed, 3, p as u64, 0), FIELDS_PER_PROC))
                .collect(),
            target: (0..PROCS)
                .map(|p| (gen::mix(seed, 4, p as u64, 0) % (PROCS / 2) as u64) as u32)
                .collect(),
        }
    }

    /// Payload of version `v` of field `(p, i)`.
    fn payload(&self, p: u32, i: u32, v: u32) -> &Bytes {
        let k = gen::mix(self.seed, 2, p as u64, ((i as u64) << 8) | v as u64) % PAYLOADS;
        &self.payloads[k as usize]
    }
}

#[derive(Default)]
struct ProcLog {
    a_write: Vec<(u64, u64)>,
    a_read: Vec<(u64, u64)>,
    b: Vec<(u64, u64)>,
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    /// Acknowledged writes, and each field's latest acknowledged version.
    acked: u64,
    latest: Vec<Option<u32>>,
}

pub fn round<W: Wrap>(inp: &Rc<Inputs>, wrap: W) -> Result<Round, String> {
    let spec = ClusterSpec::tcp(SERVER_NODES, CLIENT_NODES);
    let cfg = FieldIoConfig::builder().mode(FieldIoMode::Full).build();
    let procs: Vec<SimClientSpec> = (0..PROCS)
        .map(|p| SimClientSpec {
            node: (p / PPN) as u16,
            rank: p % PPN,
            qos: QosClass::Unclassified,
        })
        .collect();
    let w = des::deploy(spec, &cfg, &procs, &wrap)?;
    if let Some(l) = wrap.ledger() {
        l.clear();
    }
    let net_before = w.d.fabric.net().solver_stats();
    let barrier = Barrier::new(PROCS as usize);
    let done = WaitGroup::new();
    let logs: Rc<RefCell<Vec<ProcLog>>> = Rc::new(RefCell::new(
        (0..PROCS).map(|_| ProcLog::default()).collect(),
    ));
    for p in 0..PROCS {
        let fs = w.stores.borrow_mut()[p as usize].take();
        let (inp, sim, barrier, logs, wrap) = (
            Rc::clone(inp),
            w.sim.clone(),
            barrier.clone(),
            Rc::clone(&logs),
            wrap.clone(),
        );
        let token = done.add();
        w.sim.spawn(async move {
            let ledger = wrap.ledger();
            let mut log = ProcLog {
                latest: vec![None; FIELDS_PER_PROC as usize],
                ..ProcLog::default()
            };
            let keys = &inp.keys[p as usize];
            // Pattern A: unique writes...
            for i in 0..FIELDS_PER_PROC {
                log.attempted += 1;
                let Some(fs) = &fs else {
                    log.failed += 1;
                    continue;
                };
                let data = inp.payload(p, i, 0).clone();
                let t = sim.now().as_nanos();
                let (res, ns) = polled(ledger, fs.write_field(&keys[i as usize], data)).await;
                log.a_write.push((t, sim.now().as_nanos()));
                log.write_ns.push(ns);
                match res {
                    Ok(()) => {
                        log.acked += 1;
                        log.latest[i as usize] = Some(0);
                    }
                    Err(_) => log.failed += 1,
                }
            }
            barrier.wait().await;
            // ...then unique reads, in a seeded order.
            for &i in &inp.read_order[p as usize] {
                log.attempted += 1;
                let Some(fs) = &fs else {
                    log.failed += 1;
                    continue;
                };
                let t = sim.now().as_nanos();
                let (res, ns) = polled(ledger, fs.read_field(&keys[i as usize])).await;
                log.a_read.push((t, sim.now().as_nanos()));
                log.read_ns.push(ns);
                match res {
                    Ok(got) if gen::looks_like(&got, inp.payload(p, i, 0)) => {}
                    Ok(_) => log.mismatched += 1,
                    Err(_) => log.failed += 1,
                }
            }
            barrier.wait().await;
            // Pattern B: re-writes concurrent with reads of those fields.
            let writer = p < PROCS / 2;
            for v in 1..=REWRITES {
                log.attempted += 1;
                let Some(fs) = &fs else {
                    log.failed += 1;
                    continue;
                };
                let t = sim.now().as_nanos();
                if writer {
                    let data = inp.payload(p, 0, v).clone();
                    let (res, ns) = polled(ledger, fs.write_field(&keys[0], data)).await;
                    log.write_ns.push(ns);
                    match res {
                        Ok(()) => {
                            log.acked += 1;
                            log.latest[0] = Some(v);
                        }
                        Err(_) => log.failed += 1,
                    }
                } else {
                    let target = inp.target[p as usize];
                    let key = &inp.keys[target as usize][0];
                    let (res, ns) = polled(ledger, fs.read_field(key)).await;
                    log.read_ns.push(ns);
                    match res {
                        Ok(got)
                            if (0..=REWRITES)
                                .any(|v| gen::looks_like(&got, inp.payload(target, 0, v))) => {}
                        Ok(_) => log.mismatched += 1,
                        Err(_) => log.failed += 1,
                    }
                }
                log.b.push((t, sim.now().as_nanos()));
            }
            logs.borrow_mut()[p as usize] = log;
            drop(token);
        });
    }
    let flows_peak = wrap
        .ledger()
        .map(|_| des::spawn_flow_sampler(&w, &done, SimDuration::from_micros(100)));
    let run_s = des::run_timed(&w.sim)?;

    let logs = logs.take();
    let mut r = Round {
        setup_s: w.setup_s,
        timed_s: run_s,
        ..Round::default()
    };
    let mut digest = Digest::default();
    let mut latest = Vec::new();
    let (mut a_w, mut a_r, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let mut acked = 0u64;
    let mut mismatched = 0u64;
    for (p, log) in logs.into_iter().enumerate() {
        let p = p as u32;
        for &(s, e) in log.a_write.iter().chain(&log.a_read).chain(&log.b) {
            digest.u64(s);
            digest.u64(e);
        }
        r.attempted += log.attempted;
        r.failed += log.failed;
        mismatched += log.mismatched;
        acked += log.acked;
        r.write_ns.extend(log.write_ns);
        r.read_ns.extend(log.read_ns);
        for (i, v) in log.latest.iter().enumerate() {
            if let Some(v) = *v {
                latest.push(Acked {
                    key: inp.keys[p as usize][i].clone(),
                    data: inp.payload(p, i as u32, v).clone(),
                });
            }
        }
        all.extend(log.a_write.iter().chain(&log.a_read).chain(&log.b).copied());
        a_w.extend(log.a_write);
        a_r.extend(log.a_read);
    }
    if mismatched > 0 {
        return Err(format!("{mismatched} reads returned bytes no write stored"));
    }
    round::verify(&w.d.pool, &cfg, &latest, acked * FIELD_BYTES)?;
    des::fold_and_digest(&w.d, &mut digest);
    r.digest = Some(digest.finish());
    let m = &mut r.layers;
    m.insert("model.end_s".into(), des::span_s(&all));
    m.insert(
        "model.write_gib_s".into(),
        des::global_gib_s(&a_w, a_w.len() as u64 * FIELD_BYTES),
    );
    m.insert(
        "model.read_gib_s".into(),
        des::global_gib_s(&a_r, a_r.len() as u64 * FIELD_BYTES),
    );
    m.insert("model.deadlines_missed".into(), 0.0);
    if let Some(l) = wrap.ledger() {
        let peak = flows_peak.map_or(0, |c| c.get());
        r.layers.extend(des::layer_metrics(
            &w,
            l,
            run_s,
            r.attempted,
            net_before,
            peak,
        ));
    }
    Ok(r)
}
