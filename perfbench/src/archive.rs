//! `embedded-archive`: `FieldStore` over `EmbeddedClient`, no simulation.
//! One writer thread archives distinct seeded fields of mixed sizes; one
//! reader thread reads back seeded picks among the fields the writer has
//! already acknowledged. Each thread has its own client on the shared
//! pool, so only `objstore` and `core::fieldio` run, with real locks and
//! real bytes.

use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use daosim_core::fieldio::{FieldIoConfig, FieldStore};
use daosim_core::key::FieldKey;
use daosim_objstore::prelude::{DaosApi, EmbeddedClient};
use daosim_objstore::{DaosStore, Pool};

use crate::gen;
use crate::probe::{polled, Ledger, Traced};
use crate::round::{block_on, pool_metrics, verify, Acked, Round};

/// Fields the writer archives per round, and reads the reader makes.
const FIELDS: u32 = 2000;
const READS: u32 = 2000;
/// The field-size mix, in KiB.
const SIZES_KIB: [u64; 5] = [4, 8, 16, 32, 64];
const TARGETS: u32 = 24;

/// The run's seeded inputs, shared by every round.
pub struct Inputs {
    fields: Vec<(FieldKey, Bytes)>,
    /// One seeded draw per read; the reader maps it onto the fields
    /// acknowledged so far.
    picks: Vec<u64>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Inputs {
            fields: (0..FIELDS)
                .map(|i| {
                    let h = gen::mix(seed, 7, i as u64, 0);
                    let size = SIZES_KIB[(h % SIZES_KIB.len() as u64) as usize] * 1024;
                    let key = gen::field_key(seed, i % 4, i, "a");
                    (key, gen::payload(size, gen::mix(seed, 8, i as u64, 0)))
                })
                .collect(),
            picks: (0..READS).map(|j| gen::mix(seed, 9, j as u64, 0)).collect(),
        }
    }
}

/// What the two threads share: the inputs and the writer's progress.
struct Shared<'a> {
    inp: &'a Inputs,
    /// Fields `0..acked` have been written (successfully or not).
    acked: AtomicUsize,
    ok: Vec<AtomicBool>,
}

#[derive(Default)]
struct Log {
    ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

fn write_all<D: DaosApi>(fs: &FieldStore<D>, sh: &Shared, ledger: Option<&Ledger>) -> Log {
    let mut log = Log::default();
    for (i, (key, data)) in sh.inp.fields.iter().enumerate() {
        log.attempted += 1;
        let (res, ns) = block_on(polled(ledger, fs.write_field(key, data.clone())));
        log.ns.push(ns);
        match res {
            Ok(()) => sh.ok[i].store(true, Ordering::Relaxed),
            Err(_) => log.failed += 1,
        }
        // Release pairs with the reader's Acquire: the `ok` flag and the
        // stored field are visible before the new count.
        sh.acked.store(i + 1, Ordering::Release);
    }
    log
}

fn read_some<D: DaosApi>(fs: &FieldStore<D>, sh: &Shared, ledger: Option<&Ledger>) -> Log {
    let mut log = Log::default();
    for &pick in &sh.inp.picks {
        let n = loop {
            match sh.acked.load(Ordering::Acquire) {
                0 => thread::yield_now(),
                n => break n,
            }
        };
        let i = (pick % n as u64) as usize;
        if !sh.ok[i].load(Ordering::Relaxed) {
            continue;
        }
        let (key, want) = &sh.inp.fields[i];
        log.attempted += 1;
        let (res, ns) = block_on(polled(ledger, fs.read_field(key)));
        log.ns.push(ns);
        match res {
            Ok(got) if gen::looks_like(&got, want) => {}
            Ok(_) => log.mismatched += 1,
            Err(_) => log.failed += 1,
        }
    }
    log
}

fn connect<D: DaosApi>(client: D, id: u32) -> Result<FieldStore<D>, String> {
    block_on(FieldStore::connect(client, FieldIoConfig::default(), id))
        .map_err(|e| format!("connect: {e}"))
}

/// The writer's (`id` 1) or the reader's half of a round.
fn half<D: DaosApi>(fs: &FieldStore<D>, id: u32, sh: &Shared, ledger: Option<&Ledger>) -> Log {
    if id == 1 {
        write_all(fs, sh, ledger)
    } else {
        read_some(fs, sh, ledger)
    }
}

/// Runs one thread's half of the round: on the store connected during
/// set-up, or — in a traced round — on a traced client connected inside
/// the thread, since the ledger it books into is thread-local.
fn drive(
    pool: &Arc<Pool>,
    plain: Option<FieldStore<EmbeddedClient>>,
    id: u32,
    sh: &Shared,
) -> Result<(Log, Option<Ledger>), String> {
    if let Some(fs) = plain {
        return Ok((half(&fs, id, sh, None), None));
    }
    let ledger = Rc::new(Ledger::default());
    let client = Traced::new(
        EmbeddedClient::new(Arc::clone(pool)),
        Rc::clone(&ledger),
        None,
    );
    let fs = connect(client, id)?;
    ledger.clear();
    let log = half(&fs, id, sh, Some(&ledger));
    drop(fs);
    let ledger = Rc::try_unwrap(ledger).map_err(|_| "ledger still shared")?;
    Ok((log, Some(ledger)))
}

pub fn round(inp: &Inputs, traced: bool) -> Result<Round, String> {
    let t0 = Instant::now();
    let (_store, pool) = DaosStore::with_single_pool(TARGETS);
    let plain = if traced {
        None
    } else {
        Some((
            connect(EmbeddedClient::new(Arc::clone(&pool)), 1)?,
            connect(EmbeddedClient::new(Arc::clone(&pool)), 2)?,
        ))
    };
    let setup_s = t0.elapsed().as_secs_f64();

    let sh = Shared {
        inp,
        acked: AtomicUsize::new(0),
        ok: (0..FIELDS).map(|_| AtomicBool::new(false)).collect(),
    };
    let t1 = Instant::now();
    let (writer, reader) = thread::scope(|s| {
        let (wfs, rfs) = match plain {
            Some((w, r)) => (Some(w), Some(r)),
            None => (None, None),
        };
        let (sh, pool) = (&sh, &pool);
        let w = s.spawn(move || drive(pool, wfs, 1, sh));
        let r = s.spawn(move || drive(pool, rfs, 2, sh));
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let timed_s = t1.elapsed().as_secs_f64();
    let (wlog, wledger) = writer?;
    let (rlog, rledger) = reader?;
    if rlog.mismatched > 0 {
        return Err(format!(
            "{} reads returned bytes no write stored",
            rlog.mismatched
        ));
    }

    let acked: Vec<Acked> = (inp.fields.iter().zip(&sh.ok))
        .filter(|(_, ok)| ok.load(Ordering::Relaxed))
        .map(|((key, data), _)| Acked {
            key: key.clone(),
            data: data.clone(),
        })
        .collect();
    let acked_bytes = acked.iter().map(|a| a.data.len() as u64).sum();
    verify(&pool, &FieldIoConfig::default(), &acked, acked_bytes)?;

    let mut r = Round {
        setup_s,
        timed_s,
        attempted: wlog.attempted + rlog.attempted,
        failed: wlog.failed + rlog.failed,
        write_ns: wlog.ns,
        read_ns: rlog.ns,
        ..Round::default()
    };
    if let (Some(l), Some(rl)) = (wledger, rledger) {
        l.absorb(&rl);
        r.layers = l.metrics("objstore", false);
        r.layers.extend(pool_metrics(&pool));
    }
    Ok(r)
}
