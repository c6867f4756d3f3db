//! `nwp-cycle`: the operational contention cycle (arXiv 2404.03107). One
//! server node, two client nodes, one shared forecast-index KV and
//! writer-priority admission. Writers (`QosClass::Writer`) stream 512 KiB
//! fields through `pipelined_writer` on a 25 ms step schedule and flush
//! each step; a reader fleet six times larger (`QosClass::Reader`) wakes
//! at each step boundary and reads seeded picks of the previous step's
//! fields, each once its writer has acknowledged that step. Media is
//! tiered, with an SCM write buffer small enough to spill to NVMe.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use daosim_cluster::{ClusterSpec, NvmeSpec, QosClass, ScmSpec, TierPolicy};
use daosim_core::fieldio::FieldIoConfig;
use daosim_core::key::FieldKey;
use daosim_kernel::sync::{WaitGroup, WorkToken};
use daosim_kernel::{AdmissionPolicy, SimDuration};

use crate::des::{self, SimClientSpec, Wrap};
use crate::gen;
use crate::probe::polled;
use crate::round::{self, Acked, Digest, Round};

const WRITERS: u32 = 8;
const READERS: u32 = 6 * WRITERS;
const STEPS: u32 = 8;
const FIELDS_PER_STEP: u32 = 4;
const READS_PER_STEP: u32 = 8;
const WINDOW: u32 = 4;
const FIELD_BYTES: u64 = 512 * 1024;
const STEP_NS: u64 = 25_000_000;
/// SCM per socket: 1 MiB per target, far below the cycle's volume, so
/// the write buffer spills to NVMe during the run.
const SCM_PER_SOCKET: u64 = 12 << 20;

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::tcp(1, 2);
    spec.admission = AdmissionPolicy::writer_priority();
    spec.calibration.scm = ScmSpec {
        capacity: SCM_PER_SOCKET,
        ..spec.calibration.scm
    };
    spec.tiering = TierPolicy {
        nvme: Some(NvmeSpec::p4510_gen1()),
        scm_threshold: 1 << 20,
        ..TierPolicy::tiered()
    };
    spec
}

/// The run's seeded inputs, shared by every round.
pub struct Inputs {
    /// `[writer][step][field]`, each with its own payload bytes.
    fields: Vec<Vec<Vec<(FieldKey, Bytes)>>>,
    /// `[reader][step - 1][i]` -> `(writer, field)` of the previous step.
    picks: Vec<Vec<Vec<(u32, u32)>>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let fields = (0..WRITERS)
            .map(|w| {
                (0..STEPS)
                    .map(|s| {
                        (0..FIELDS_PER_STEP)
                            .map(|f| {
                                let key = gen::field_key(seed, 0, s, &format!("w{w}f{f}"));
                                let salt =
                                    gen::mix(seed, 5, w as u64, ((s as u64) << 8) | f as u64);
                                (key, gen::payload(FIELD_BYTES, salt))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let picks = (0..READERS)
            .map(|r| {
                (1..=STEPS)
                    .map(|s| {
                        (0..READS_PER_STEP)
                            .map(|i| {
                                let h = gen::mix(seed, 6, r as u64, ((s as u64) << 8) | i as u64);
                                (
                                    (h % WRITERS as u64) as u32,
                                    ((h >> 32) % FIELDS_PER_STEP as u64) as u32,
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Inputs { fields, picks }
    }
}

#[derive(Default)]
struct ProcLog {
    /// Writers: one `(first submit, flush return)` per step; readers: one
    /// `(start, end)` per read.
    stamps: Vec<(u64, u64)>,
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    missed: u64,
    /// Steps whose every field was acknowledged.
    acked_steps: Vec<u32>,
}

pub fn round<W: Wrap>(inp: &Rc<Inputs>, wrap: W) -> Result<Round, String> {
    let cfg = FieldIoConfig::builder().window(WINDOW).build();
    let procs_total = WRITERS + READERS;
    let ppn = procs_total.div_ceil(2);
    let procs: Vec<SimClientSpec> = (0..procs_total)
        .map(|p| SimClientSpec {
            node: (p / ppn) as u16,
            rank: p % ppn,
            qos: if p < WRITERS {
                QosClass::Writer
            } else {
                QosClass::Reader
            },
        })
        .collect();
    let w = des::deploy(spec(), &cfg, &procs, &wrap)?;
    if let Some(l) = wrap.ledger() {
        l.clear();
    }
    let net_before = w.d.fabric.net().solver_stats();
    let done = WaitGroup::new();
    // step_done[w][s] drains once writer w has flushed step s.
    let step_done: Rc<Vec<Vec<WaitGroup>>> = Rc::new(
        (0..WRITERS)
            .map(|_| (0..STEPS).map(|_| WaitGroup::new()).collect())
            .collect(),
    );
    let logs: Rc<RefCell<Vec<ProcLog>>> = Rc::new(RefCell::new(
        (0..procs_total).map(|_| ProcLog::default()).collect(),
    ));

    for p in 0..procs_total {
        let fs = w.stores.borrow_mut()[p as usize].take();
        let (inp, sim, logs, wrap, step_done) = (
            Rc::clone(inp),
            w.sim.clone(),
            Rc::clone(&logs),
            wrap.clone(),
            Rc::clone(&step_done),
        );
        let token = done.add();
        if p < WRITERS {
            let mut step_tokens: Vec<Option<WorkToken>> = step_done[p as usize]
                .iter()
                .map(|wg| Some(wg.add()))
                .collect();
            w.sim.spawn(async move {
                let ledger = wrap.ledger();
                let mut log = ProcLog::default();
                let mut pw = fs.as_ref().map(|fs| fs.pipelined_writer(WINDOW));
                for s in 0..STEPS {
                    let start = STEP_NS * s as u64;
                    let now = sim.now().as_nanos();
                    if start > now {
                        sim.sleep(SimDuration::from_nanos(start - now)).await;
                    }
                    let t = sim.now().as_nanos();
                    log.attempted += FIELDS_PER_STEP as u64;
                    let mut ok = pw.is_some();
                    if let Some(pw) = pw.as_mut() {
                        for (key, data) in &inp.fields[p as usize][s as usize] {
                            let (res, ns) = polled(ledger, pw.submit(key, data.clone())).await;
                            log.write_ns.push(ns);
                            ok &= res.is_ok();
                        }
                        ok &= polled(ledger, pw.flush()).await.0.is_ok();
                    }
                    let end = sim.now().as_nanos();
                    log.stamps.push((t, end));
                    if ok {
                        log.acked_steps.push(s);
                    } else {
                        log.failed += FIELDS_PER_STEP as u64;
                    }
                    if !ok || end > STEP_NS * (s as u64 + 1) {
                        log.missed += 1;
                    }
                    step_tokens[s as usize] = None;
                }
                drop(pw);
                logs.borrow_mut()[p as usize] = log;
                drop(token);
            });
        } else {
            let r = (p - WRITERS) as usize;
            w.sim.spawn(async move {
                let ledger = wrap.ledger();
                let mut log = ProcLog::default();
                for s in 1..=STEPS {
                    let at = STEP_NS * s as u64;
                    let now = sim.now().as_nanos();
                    if at > now {
                        sim.sleep(SimDuration::from_nanos(at - now)).await;
                    }
                    for &(wr, f) in &inp.picks[r][s as usize - 1] {
                        step_done[wr as usize][s as usize - 1].wait().await;
                        log.attempted += 1;
                        let Some(fs) = &fs else {
                            log.failed += 1;
                            continue;
                        };
                        let (key, want) = &inp.fields[wr as usize][s as usize - 1][f as usize];
                        let t = sim.now().as_nanos();
                        let (res, ns) = polled(ledger, fs.read_field(key)).await;
                        log.stamps.push((t, sim.now().as_nanos()));
                        log.read_ns.push(ns);
                        match res {
                            Ok(got) if gen::looks_like(&got, want) => {}
                            Ok(_) => log.mismatched += 1,
                            Err(_) => log.failed += 1,
                        }
                    }
                }
                logs.borrow_mut()[p as usize] = log;
                drop(token);
            });
        }
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
    let mut acked = Vec::new();
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let (mut missed, mut mismatched) = (0u64, 0u64);
    for (p, log) in logs.into_iter().enumerate() {
        for &(s, e) in &log.stamps {
            digest.u64(s);
            digest.u64(e);
        }
        r.attempted += log.attempted;
        r.failed += log.failed;
        mismatched += log.mismatched;
        missed += log.missed;
        r.write_ns.extend(log.write_ns);
        r.read_ns.extend(log.read_ns);
        if (p as u32) < WRITERS {
            for &s in &log.acked_steps {
                for (key, data) in &inp.fields[p][s as usize] {
                    acked.push(Acked {
                        key: key.clone(),
                        data: data.clone(),
                    });
                }
            }
            writes.extend(log.stamps);
        } else {
            reads.extend(log.stamps);
        }
    }
    if mismatched > 0 {
        return Err(format!("{mismatched} reads returned bytes no write stored"));
    }
    round::verify(&w.d.pool, &cfg, &acked, acked.len() as u64 * FIELD_BYTES)?;
    des::fold_and_digest(&w.d, &mut digest);
    r.digest = Some(digest.finish());
    let written = acked.len() as u64 * FIELD_BYTES;
    let m = &mut r.layers;
    let all: Vec<(u64, u64)> = writes.iter().chain(&reads).copied().collect();
    m.insert("model.end_s".into(), des::span_s(&all));
    m.insert(
        "model.write_gib_s".into(),
        des::global_gib_s(&writes, written),
    );
    m.insert(
        "model.read_gib_s".into(),
        des::global_gib_s(&reads, reads.len() as u64 * FIELD_BYTES),
    );
    m.insert("model.deadlines_missed".into(), missed as f64);
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
