//! Schedule-perturbation fuzzing: differential testing of EQ workloads
//! under perturbed kernel schedules.
//!
//! The executor promises *schedule-invariant semantics*: for a workload
//! whose operations touch disjoint state (or read only data written
//! before the concurrent phase), the final pool state and the outcome of
//! every launched event must not depend on which legal schedule the
//! kernel picks (see DESIGN.md §7). This module turns that promise into
//! a fuzz target:
//!
//! 1. [`generate_program`] derives a random-but-deterministic program
//!    from a seed: several client actors issuing interleaved event-queue
//!    launches and harvests, pipelined field-style writes/reads bounded
//!    by a per-actor window `W`, plus an optional *recoverable* fault
//!    campaign (brownouts and kill→restart pairs) riding a generous
//!    retry policy so every operation eventually succeeds.
//! 2. [`run_program`] executes the program on a fresh simulated cluster
//!    under one [`SchedPolicy`] and returns an [`Observation`]: the
//!    per-event outcome map, a canonical dump of the final pool state,
//!    byte counters, and whether the run quiesced.
//! 3. [`fuzz_seed`] runs the same program under a roster of perturbed
//!    policies (FIFO is the reference), checks byte conservation against
//!    the program's expected extents, and diffs every observation
//!    against the reference. On divergence it shrinks the program to the
//!    shortest failing prefix and reports a ready-to-paste repro. The
//!    roster also carries one writer-priority *admission* slot (on the
//!    FIFO schedule): QoS barging at the service queues reorders grants
//!    but must never change an outcome. Every program runs the roster
//!    twice: on the plain deployment, and on a two-tier one with the
//!    aggregation service live ([`run_program_tiered`]).
//!
//! `daosctl fuzz --seeds N --policy all` and the `sched-fuzz` experiment
//! drive [`fuzz_corpus`] over the fixed corpus `0..N`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use bytes::Bytes;
use daosim_kernel::rng::splitmix64;
use daosim_kernel::{AdmissionPolicy, SchedPolicy, Sim, SimDuration};
use daosim_objstore::prelude::{
    ArrayHandle, DaosApi, DaosError, EventQueue, ObjectClass, Oid, OidAllocator, OpOutput, Uuid,
};

use crate::client::QosClass;
use crate::{ClusterSpec, Deployment, FaultPlan, RetryPolicy, SimClient};

/// KV objects shared by all actors (disjoint key spaces per op).
const KVS: usize = 2;
/// Array objects shared by all actors (disjoint extents per op).
const ARRAYS: usize = 2;
/// Keys written per KV object during the synchronous setup phase.
const SETUP_KEYS: u8 = 4;
/// Bytes written to each array during the synchronous setup phase; the
/// region `[0, SETUP_BYTES)` is the only one reads target.
const SETUP_BYTES: u64 = 4096;
/// Concurrent-phase writes land above the setup region, one private slot
/// per (global) op index, so nothing depends on completion order.
const WRITE_BASE: u64 = 8192;
const WRITE_SLOT: u64 = 4096;

/// One step of a fuzz program. Launch ops enqueue work on the actor's
/// event queue; harvest ops drain completions. Every key/extent a launch
/// touches is derived from the op's *global* index, keeping concurrent
/// effects disjoint by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// `kv_put` to a key unique to this op.
    KvPut { kv: u8, val: u8 },
    /// `kv_get` of a setup-phase key (schedule-invariant result).
    KvGet { kv: u8, key: u8 },
    /// `kv_put_multi` of `n` keys unique to this op.
    KvPutMulti { kv: u8, n: u8, val: u8 },
    /// Field-style pipelined write: array data extent in this op's
    /// private slot plus a KV index entry, two events in flight.
    FieldWrite { arr: u8, len: u16, val: u8 },
    /// Field-style read within the setup-populated region.
    FieldRead { arr: u8, off: u16, len: u16 },
    /// Harvest at most one completion without blocking.
    Poll,
    /// Block for one completion (no-op when the queue is idle).
    Wait,
    /// Drain the queue.
    WaitAll,
}

/// A deterministic, seed-derived fuzz program.
#[derive(Debug, Clone)]
pub struct FuzzProgram {
    /// Seed the program was generated from (0 for hand-built programs).
    pub seed: u64,
    /// Per-actor event-queue capacity window `W` (pipelined submission
    /// parks on `wait_capacity(W)` before each launch).
    pub windows: Vec<usize>,
    /// Interleaved op stream: `(actor, op)` in launch order. The vector
    /// index is the op's global index, which keys its private state.
    pub ops: Vec<(u8, FuzzOp)>,
    /// Recoverable fault campaign applied alongside the actors.
    pub faults: FaultPlan,
}

impl FuzzProgram {
    /// The same program truncated to its first `n` ops — the shrinking
    /// step. Faults and actor shape are preserved.
    pub fn with_prefix(&self, n: usize) -> FuzzProgram {
        FuzzProgram {
            seed: self.seed,
            windows: self.windows.clone(),
            ops: self.ops[..n.min(self.ops.len())].to_vec(),
            faults: self.faults.clone(),
        }
    }

    /// Expected final size of each shared array: the setup extent or the
    /// furthest write the program issues, whichever is larger. Byte
    /// conservation check: every policy must converge to exactly this.
    pub fn expected_array_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![SETUP_BYTES; ARRAYS];
        for (idx, (_, op)) in self.ops.iter().enumerate() {
            if let FuzzOp::FieldWrite { arr, len, .. } = op {
                let end = WRITE_BASE + idx as u64 * WRITE_SLOT + *len as u64;
                let s = &mut sizes[*arr as usize % ARRAYS];
                *s = (*s).max(end);
            }
        }
        sizes
    }

    /// Total bytes the program's reads must return (reads only target
    /// the setup region, so this is exact and schedule-invariant).
    pub fn expected_read_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|(_, op)| match op {
                FuzzOp::FieldRead { off, len, .. } => {
                    (*len as u64).min(SETUP_BYTES.saturating_sub(*off as u64 % SETUP_BYTES))
                }
                _ => 0,
            })
            .sum()
    }
}

/// Counter-stream RNG over splitmix64 — the same construction the fault
/// campaigns and the kernel's `Random` policy use.
struct SeedRng(u64);

impl SeedRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Derives the fuzz program for `seed`: 1–3 actors with windows in
/// {1, 2, 4}, 6–24 interleaved ops, and (for three seeds out of four) a
/// recoverable fault campaign of brownouts and kill→restart pairs.
pub fn generate_program(seed: u64) -> FuzzProgram {
    let mut rng = SeedRng(seed ^ 0xDA05_F022);
    let actors = 1 + rng.below(3) as usize;
    let windows: Vec<usize> = (0..actors).map(|_| 1 << rng.below(3)).collect();
    let total = 6 + rng.below(19) as usize;
    let ops = (0..total)
        .map(|_| {
            let actor = rng.below(actors as u64) as u8;
            let op = match rng.below(10) {
                0 => FuzzOp::KvPut {
                    kv: rng.below(KVS as u64) as u8,
                    val: rng.next() as u8,
                },
                1 => FuzzOp::KvGet {
                    kv: rng.below(KVS as u64) as u8,
                    key: rng.below(SETUP_KEYS as u64) as u8,
                },
                2 => FuzzOp::KvPutMulti {
                    kv: rng.below(KVS as u64) as u8,
                    n: 1 + rng.below(4) as u8,
                    val: rng.next() as u8,
                },
                3..=5 => FuzzOp::FieldWrite {
                    arr: rng.below(ARRAYS as u64) as u8,
                    len: 1 + rng.below(WRITE_SLOT - 1) as u16,
                    val: rng.next() as u8,
                },
                6..=7 => FuzzOp::FieldRead {
                    arr: rng.below(ARRAYS as u64) as u8,
                    off: rng.below(SETUP_BYTES) as u16,
                    len: 1 + rng.below(1024) as u16,
                },
                8 => FuzzOp::Poll,
                9 => FuzzOp::Wait,
                _ => FuzzOp::WaitAll,
            };
            (actor, op)
        })
        .collect();

    // Recoverable faults only: every kill is paired with a restart, so
    // with the generous fuzz retry policy every op eventually succeeds
    // and outcomes stay schedule-invariant despite timing shifts.
    let mut faults = FaultPlan::new();
    if rng.below(4) != 0 {
        let engines = 2; // ClusterSpec::tcp(1, 1): one node, two engines
        for _ in 0..=rng.below(2) {
            let engine = rng.below(engines) as u32;
            let at = SimDuration::from_micros(500 + rng.below(20_000));
            if rng.below(2) == 0 {
                let dur = SimDuration::from_millis(5 + rng.below(45));
                faults = faults.brownout(at, engine, dur);
            } else {
                let gap = SimDuration::from_millis(20 + rng.below(80));
                faults = faults.kill(at, engine).restart(at + gap, engine);
            }
        }
    }

    FuzzProgram {
        seed,
        windows,
        ops,
        faults,
    }
}

/// Everything a schedule is allowed to vary: nothing. The differential
/// runner compares observations field by field across policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// `"a{actor}/e{event}" -> outcome` for every launched event.
    pub outcomes: BTreeMap<String, String>,
    /// Canonical dump of the final pool state (sorted KV keys with
    /// values, array sizes).
    pub state: String,
    /// Total bytes returned by reads.
    pub bytes_read: u64,
    /// Whether both run phases drained with no stranded task.
    pub quiescent: bool,
    /// Whether every target's tier-occupancy accounting balanced:
    /// foreground bytes ± migrated bytes = tier deltas (DESIGN.md §14).
    pub media_conserved: bool,
}

fn describe(out: &Result<OpOutput, DaosError>) -> String {
    match out {
        Ok(OpOutput::Unit) => "unit".into(),
        Ok(OpOutput::Data(b)) => format!("data:{:02x?}", &b[..]),
        Ok(OpOutput::MaybeData(v)) => format!("maybe:{:02x?}", v.as_deref()),
        Ok(OpOutput::Keys(k)) => {
            let mut k: Vec<&[u8]> = k.iter().map(|b| &b[..]).collect();
            k.sort();
            format!("keys:{k:02x?}")
        }
        Ok(OpOutput::Size(n)) => format!("size:{n}"),
        Err(e) => format!("err:{e:?}"),
    }
}

/// The retry policy the fuzz cluster runs with: enough attempts and
/// backoff budget to ride out any campaign [`generate_program`] emits,
/// no overall deadline — so op outcomes are *eventual success* under
/// every schedule and the differential comparison is meaningful.
pub fn fuzz_retry_policy() -> RetryPolicy {
    RetryPolicy::builder()
        .max_attempts(64)
        .base_backoff(SimDuration::from_millis(1))
        .max_backoff(SimDuration::from_millis(25))
        .attempt_timeout(SimDuration::from_millis(500))
        .op_deadline(SimDuration::ZERO)
        .seed(0x5EED_F022)
        .build()
}

struct Shared {
    outcomes: RefCell<BTreeMap<String, String>>,
    bytes_read: RefCell<u64>,
    state: RefCell<String>,
}

#[allow(clippy::too_many_arguments)]
async fn run_actor(
    client: SimClient,
    cont: crate::SimCont,
    kv_oids: Rc<Vec<Oid>>,
    arr_oids: Rc<Vec<Oid>>,
    actor: u8,
    window: usize,
    ops: Vec<(usize, FuzzOp)>,
    shared: Rc<Shared>,
) {
    // Handles are close-once; each actor re-opens the shared arrays.
    let handles: Vec<ArrayHandle> = arr_oids
        .iter()
        .map(|&o| ArrayHandle::from_open(o))
        .collect();
    let eq = EventQueue::new(client);
    let record = |ev: daosim_objstore::Event, r: &Result<OpOutput, DaosError>| {
        if let Ok(OpOutput::Data(b)) = r {
            *shared.bytes_read.borrow_mut() += b.len() as u64;
        }
        shared
            .outcomes
            .borrow_mut()
            .insert(format!("a{actor}/e{}", ev.0), describe(r));
    };
    for (idx, op) in ops {
        let launches = !matches!(op, FuzzOp::Poll | FuzzOp::Wait | FuzzOp::WaitAll);
        if launches {
            // Pipelined submission: park until the window has room,
            // harvesting whatever completed in the meantime.
            for (ev, r) in eq.wait_capacity(window).await {
                record(ev, &r);
            }
        }
        match op {
            FuzzOp::KvPut { kv, val } => {
                let key = [0xF0, idx as u8];
                eq.kv_put(
                    &cont,
                    kv_oids[kv as usize % KVS],
                    &key,
                    Bytes::from(vec![val; 8]),
                );
            }
            FuzzOp::KvGet { kv, key } => {
                eq.kv_get(&cont, kv_oids[kv as usize % KVS], &[key % SETUP_KEYS]);
            }
            FuzzOp::KvPutMulti { kv, n, val } => {
                let pairs = (0..n)
                    .map(|j| {
                        (
                            Bytes::from(vec![0xE0, idx as u8, j]),
                            Bytes::from(vec![val.wrapping_add(j); 8]),
                        )
                    })
                    .collect();
                eq.kv_put_multi(&cont, kv_oids[kv as usize % KVS], pairs);
            }
            FuzzOp::FieldWrite { arr, len, val } => {
                // Data extent plus index entry, as the field-I/O layer
                // writes fields: two events pipelined through the queue.
                let off = WRITE_BASE + idx as u64 * WRITE_SLOT;
                let data = Bytes::from(vec![val; len as usize]);
                eq.array_write(&cont, &handles[arr as usize % ARRAYS], off, data);
                eq.kv_put(
                    &cont,
                    kv_oids[0],
                    &[0xA0, idx as u8],
                    Bytes::from(len.to_le_bytes().to_vec()),
                );
            }
            FuzzOp::FieldRead { arr, off, len } => {
                let off = off as u64 % SETUP_BYTES;
                let len = (len as u64).min(SETUP_BYTES - off);
                eq.array_read(&cont, &handles[arr as usize % ARRAYS], off, len);
            }
            FuzzOp::Poll => {
                if let Some((ev, r)) = eq.poll() {
                    record(ev, &r);
                }
            }
            FuzzOp::Wait => {
                if let Some((ev, r)) = eq.wait().await {
                    record(ev, &r);
                }
            }
            FuzzOp::WaitAll => {
                for (ev, r) in eq.wait_all().await {
                    record(ev, &r);
                }
            }
        }
    }
    for (ev, r) in eq.wait_all().await {
        record(ev, &r);
    }
}

/// Runs `program` on a fresh `ClusterSpec::tcp(1, 1)` deployment under
/// `policy` with FIFO admission — see [`run_program_with`].
pub fn run_program(program: &FuzzProgram, policy: SchedPolicy) -> Observation {
    run_program_with(
        program,
        RosterEntry {
            sched: policy,
            admission: AdmissionPolicy::Fifo,
        },
    )
}

/// Runs `program` on a fresh `ClusterSpec::tcp(1, 1)` deployment under
/// one roster entry (schedule policy × admission policy) and returns the
/// observation. Actors are QoS-classified (even → writer, odd → reader)
/// so `WriterPriority` admission genuinely reorders the service queues —
/// outcomes must still be invariant. Two phases: the concurrent phase
/// (setup, actors, faults) runs to quiescence, then a synchronous audit
/// phase dumps the final pool state.
pub fn run_program_with(program: &FuzzProgram, entry: RosterEntry) -> Observation {
    let mut spec = ClusterSpec::tcp(1, 1);
    spec.retry = fuzz_retry_policy();
    spec.admission = entry.admission;
    run_program_on(program, entry, spec, None).0
}

/// [`run_program_with`] on a two-tier deployment: a deliberately small
/// SCM write buffer in front of NVMe, with the background aggregation
/// daemons live. Exercises the tier
/// byte-conservation invariant and schedule invariance under migration
/// contention.
pub fn run_program_tiered(program: &FuzzProgram, entry: RosterEntry) -> Observation {
    run_tiered(program, entry).0
}

/// [`run_program_tiered`], also returning the deployment it ran on.
fn run_tiered(program: &FuzzProgram, entry: RosterEntry) -> (Observation, Rc<Deployment>) {
    let mut spec = ClusterSpec::tcp(1, 1);
    spec.retry = fuzz_retry_policy();
    spec.admission = entry.admission;
    // 96 KiB of SCM per socket, 8 KiB per target: the array targets
    // cross the 6 KiB high watermark after a couple of 4 KiB writes.
    spec.calibration.scm = daosim_media::ScmSpec {
        capacity: 96 * 1024,
        ..daosim_media::ScmSpec::optane_gen1()
    };
    spec.tiering = daosim_media::TierPolicy {
        nvme: Some(daosim_media::NvmeSpec::p4510_gen1()),
        scm_threshold: 64 * 1024,
        ..daosim_media::TierPolicy::tiered()
    };
    run_program_on(program, entry, spec, Some(0x716E))
}

/// Runs `program` on `spec`, with the aggregation service staggered by
/// `aggregation_seed` when one is given.
fn run_program_on(
    program: &FuzzProgram,
    entry: RosterEntry,
    spec: ClusterSpec,
    aggregation_seed: Option<u64>,
) -> (Observation, Rc<Deployment>) {
    let sim = Sim::with_policy(entry.sched);
    let d = Deployment::new(&sim, spec);
    program.faults.apply(&d);
    if let Some(seed) = aggregation_seed {
        crate::tiering::spawn_aggregation(&d, seed);
    }

    let shared = Rc::new(Shared {
        outcomes: RefCell::new(BTreeMap::new()),
        bytes_read: RefCell::new(0),
        state: RefCell::new(String::new()),
    });
    let kv_oids: Rc<Vec<Oid>> = {
        let mut alloc = OidAllocator::new(21);
        Rc::new((0..KVS).map(|_| alloc.next(ObjectClass::S1)).collect())
    };
    let arr_oids: Rc<Vec<Oid>> = {
        let mut alloc = OidAllocator::new(22);
        Rc::new((0..ARRAYS).map(|_| alloc.next(ObjectClass::S1)).collect())
    };

    // Phase 1: synchronous setup, then the concurrent actor phase.
    {
        let sim2 = sim.clone();
        let d = Rc::clone(&d);
        let kv_oids = Rc::clone(&kv_oids);
        let arr_oids = Rc::clone(&arr_oids);
        let shared = Rc::clone(&shared);
        let program = program.clone();
        sim.spawn(async move {
            let client = SimClient::for_process(&d, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"sched-fuzz"))
                .await
                .expect("fuzz cont");
            for (i, &oid) in kv_oids.iter().enumerate() {
                for k in 0..SETUP_KEYS {
                    let val = Bytes::from(vec![i as u8 ^ k; 16]);
                    client
                        .kv_put(&cont, oid, &[k], val)
                        .await
                        .expect("setup put");
                }
            }
            for &oid in arr_oids.iter() {
                let h = client.array_create(&cont, oid).await.expect("setup create");
                let pattern = Bytes::from((0..SETUP_BYTES).map(|b| b as u8).collect::<Vec<u8>>());
                client
                    .array_write(&cont, &h, 0, pattern)
                    .await
                    .expect("setup write");
                client.array_close(&cont, h).await.expect("setup close");
            }
            for (actor, &window) in program.windows.iter().enumerate() {
                let ops: Vec<(usize, FuzzOp)> = program
                    .ops
                    .iter()
                    .enumerate()
                    .filter(|(_, (a, _))| *a as usize == actor)
                    .map(|(idx, (_, op))| (idx, *op))
                    .collect();
                let qos = if actor % 2 == 0 {
                    QosClass::Writer
                } else {
                    QosClass::Reader
                };
                let client = SimClient::for_process(&d, 0, 1 + actor as u32).with_qos(qos);
                let cont = client
                    .cont_open_or_create(Uuid::from_name(b"sched-fuzz"))
                    .await
                    .expect("actor cont");
                sim2.spawn(run_actor(
                    client,
                    cont,
                    Rc::clone(&kv_oids),
                    Rc::clone(&arr_oids),
                    actor as u8,
                    window,
                    ops,
                    Rc::clone(&shared),
                ));
            }
        });
    }
    let phase1 = sim.run();

    // Phase 2: audit. Reads the final pool state synchronously; results
    // must be identical under every policy.
    {
        let d = Rc::clone(&d);
        let kv_oids = Rc::clone(&kv_oids);
        let arr_oids = Rc::clone(&arr_oids);
        let shared = Rc::clone(&shared);
        sim.spawn(async move {
            let client = SimClient::for_process(&d, 0, 0);
            let cont = client
                .cont_open_or_create(Uuid::from_name(b"sched-fuzz"))
                .await
                .expect("audit cont");
            let mut state = String::new();
            for &oid in kv_oids.iter() {
                let mut keys = client.kv_list_keys(&cont, oid).await.expect("audit list");
                keys.sort();
                for key in keys {
                    let v = client.kv_get(&cont, oid, &key).await.expect("audit get");
                    state.push_str(&format!("{:02x?}={:02x?};", &key[..], v.as_deref()));
                }
            }
            for &oid in arr_oids.iter() {
                let h = client.array_open(&cont, oid).await.expect("audit open");
                let size = client.array_size(&cont, &h).await.expect("audit size");
                state.push_str(&format!("size={size};"));
                client.array_close(&cont, h).await.expect("audit close");
            }
            *shared.state.borrow_mut() = state;
        });
    }
    let phase2 = sim.run();

    let outcomes = shared.outcomes.borrow().clone();
    let state = shared.state.borrow().clone();
    let bytes_read = *shared.bytes_read.borrow();
    let media_conserved = (0..d.spec.pool_targets()).all(|t| d.target(t).media.conservation_ok());
    let observation = Observation {
        outcomes,
        state,
        bytes_read,
        quiescent: phase1.stranded_tasks == 0 && phase2.stranded_tasks == 0,
        media_conserved,
    };
    (observation, d)
}

/// One confirmed schedule-invariance violation, with the shrunk repro.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    pub seed: u64,
    /// The schedule policy whose observation diverged (or panicked).
    pub policy: SchedPolicy,
    /// The admission policy the diverging run used.
    pub admission: AdmissionPolicy,
    /// What diverged, first difference only.
    pub detail: String,
    /// Shortest failing prefix of the generated program.
    pub minimized: FuzzProgram,
}

impl FuzzFailure {
    /// A paste-ready reproduction command.
    pub fn repro(&self) -> String {
        format!(
            "daosctl fuzz --seeds 1 --start {} --policy all  # {} op(s), {:?}, admission {}",
            self.seed,
            self.minimized.ops.len(),
            self.policy,
            self.admission.name()
        )
    }
}

/// One differential-roster slot: the kernel schedule policy the run is
/// perturbed with, and the deployment admission policy it enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RosterEntry {
    pub sched: SchedPolicy,
    pub admission: AdmissionPolicy,
}

/// The schedule-policy roster for one seed: FIFO (the reference) plus
/// LIFO, two random-pick streams and two wake-delay magnitudes, all
/// derived from the seed so reruns are byte-identical.
pub fn policy_roster(seed: u64) -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::Fifo,
        SchedPolicy::Lifo,
        SchedPolicy::Random {
            seed: splitmix64(seed ^ 0xA5A5),
        },
        SchedPolicy::Random {
            seed: splitmix64(seed.rotate_left(17) | 1),
        },
        SchedPolicy::WakeDelay {
            seed: splitmix64(seed ^ 0x7777),
            max_delay_ns: 10_000,
        },
        SchedPolicy::WakeDelay {
            seed: splitmix64(seed ^ 0xDE1A),
            max_delay_ns: 1_000_000,
        },
    ]
}

/// The full differential roster for one seed: every schedule policy
/// with FIFO admission, plus one writer-priority admission slot (on the
/// FIFO schedule) — QoS enforcement reorders service queues and must
/// still be outcome-invariant.
pub fn roster(seed: u64) -> Vec<RosterEntry> {
    let mut entries: Vec<RosterEntry> = policy_roster(seed)
        .into_iter()
        .map(|sched| RosterEntry {
            sched,
            admission: AdmissionPolicy::Fifo,
        })
        .collect();
    entries.push(RosterEntry {
        sched: SchedPolicy::Fifo,
        admission: AdmissionPolicy::writer_priority(),
    });
    entries
}

/// How a program is run on one deployment.
type Runner = fn(&FuzzProgram, RosterEntry) -> Observation;

/// The deployments every program runs on, with the label a divergence
/// on each carries.
const DEPLOYMENTS: [(&str, Runner); 2] = [
    ("", run_program_with),
    ("tiered media: ", run_program_tiered),
];

fn run_caught(
    run: Runner,
    program: &FuzzProgram,
    entry: RosterEntry,
) -> Result<Observation, String> {
    catch_unwind(AssertUnwindSafe(|| run(program, entry))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

fn first_diff(reference: &Observation, got: &Observation) -> Option<String> {
    if !got.quiescent {
        return Some("run did not quiesce (stranded tasks: lost wakeup?)".into());
    }
    for (k, v) in &reference.outcomes {
        match got.outcomes.get(k) {
            None => return Some(format!("event {k} never completed (reference: {v})")),
            Some(w) if w != v => {
                return Some(format!("event {k}: reference {v} vs {w}"));
            }
            _ => {}
        }
    }
    if let Some(k) = got
        .outcomes
        .keys()
        .find(|k| !reference.outcomes.contains_key(*k))
    {
        return Some(format!("extra event {k} not in reference"));
    }
    if got.state != reference.state {
        return Some(format!(
            "final pool state diverged:\n  reference: {}\n  got:       {}",
            reference.state, got.state
        ));
    }
    if got.bytes_read != reference.bytes_read {
        return Some(format!(
            "read-byte conservation: reference {} vs {}",
            reference.bytes_read, got.bytes_read
        ));
    }
    None
}

/// Absolute (non-differential) invariants on a single observation:
/// quiescence, read-byte conservation, media tier byte conservation and
/// expected final array sizes.
fn check_invariants(program: &FuzzProgram, obs: &Observation) -> Option<String> {
    if !obs.quiescent {
        return Some("run did not quiesce (stranded tasks: lost wakeup?)".into());
    }
    if !obs.media_conserved {
        return Some(
            "media byte conservation: a target's tier occupancy diverged from \
             foreground + migrated bytes"
                .into(),
        );
    }
    if obs.bytes_read != program.expected_read_bytes() {
        return Some(format!(
            "read-byte conservation: expected {} got {}",
            program.expected_read_bytes(),
            obs.bytes_read
        ));
    }
    let expected = program.expected_array_sizes();
    for (i, want) in expected.iter().enumerate() {
        let marker = format!("size={want};");
        // The audit appends array sizes in order; verify each expected
        // size appears (cheap containment check on the canonical dump).
        if !obs.state.contains(&marker) {
            return Some(format!(
                "byte conservation: array {i} expected final size {want}, state: {}",
                obs.state
            ));
        }
    }
    None
}

/// Runs `program` under every roster entry and returns the first
/// divergence.
fn divergence(program: &FuzzProgram, entries: &[RosterEntry]) -> Option<(RosterEntry, String)> {
    for (label, run) in DEPLOYMENTS {
        let fail = |entry, detail: String| Some((entry, format!("{label}{detail}")));
        let reference = match run_caught(run, program, entries[0]) {
            Ok(o) => o,
            Err(e) => return fail(entries[0], e),
        };
        if let Some(d) = check_invariants(program, &reference) {
            return fail(entries[0], d);
        }
        for &entry in &entries[1..] {
            let got = match run_caught(run, program, entry) {
                Ok(o) => o,
                Err(e) => return fail(entry, e),
            };
            if let Some(d) =
                check_invariants(program, &got).or_else(|| first_diff(&reference, &got))
            {
                return fail(entry, d);
            }
        }
    }
    None
}

/// Shrinks a failing program to the shortest failing prefix of its op
/// stream (binary search, with a final validity check — if the search
/// overshoots on a non-monotonic failure, the full program is kept).
fn minimize(program: &FuzzProgram, entries: &[RosterEntry]) -> FuzzProgram {
    let (mut lo, mut hi) = (0usize, program.ops.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if divergence(&program.with_prefix(mid), entries).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let candidate = program.with_prefix(hi);
    if divergence(&candidate, entries).is_some() {
        candidate
    } else {
        program.clone()
    }
}

/// Fuzzes one seed: generates the program, runs it under `entries`
/// (index 0 is the reference) and, on divergence, shrinks and reports.
pub fn fuzz_seed(seed: u64, entries: &[RosterEntry]) -> Result<(), Box<FuzzFailure>> {
    assert!(!entries.is_empty(), "need at least a reference entry");
    let program = generate_program(seed);
    match divergence(&program, entries) {
        None => Ok(()),
        Some((entry, detail)) => Err(Box::new(FuzzFailure {
            seed,
            policy: entry.sched,
            admission: entry.admission,
            detail,
            minimized: minimize(&program, entries),
        })),
    }
}

/// Summary of a corpus run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    pub seeds_run: usize,
    pub policies_per_seed: usize,
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs [`fuzz_seed`] over `seeds` with the per-seed [`roster`] filtered
/// through `select` on the schedule policy. The FIFO-schedule slots (the
/// reference and the writer-priority admission slot) survive every
/// filter. Failures are reported in seed order.
pub fn fuzz_corpus(
    seeds: impl IntoIterator<Item = u64>,
    select: impl Fn(&SchedPolicy) -> bool,
) -> FuzzReport {
    let mut report = FuzzReport::default();
    for seed in seeds {
        let entries: Vec<RosterEntry> = roster(seed)
            .into_iter()
            .filter(|e| matches!(e.sched, SchedPolicy::Fifo) || select(&e.sched))
            .collect();
        report.policies_per_seed = report.policies_per_seed.max(entries.len());
        report.seeds_run += 1;
        if let Err(f) = fuzz_seed(seed, &entries) {
            report.failures.push(*f);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_are_seed_deterministic() {
        let a = generate_program(42);
        let b = generate_program(42);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.faults.events().len(), b.faults.events().len());
        assert_ne!(generate_program(43).ops, a.ops, "seeds must differ");
    }

    #[test]
    fn observations_replay_bit_identically() {
        let program = generate_program(7);
        for policy in policy_roster(7) {
            let a = run_program(&program, policy);
            let b = run_program(&program, policy);
            assert_eq!(a, b, "{policy:?} replay diverged");
        }
    }

    #[test]
    fn small_corpus_is_schedule_invariant() {
        let report = fuzz_corpus(0..4, |_| true);
        assert_eq!(report.seeds_run, 4);
        assert_eq!(
            report.policies_per_seed,
            roster(0).len(),
            "the writer-priority admission slot must ride every corpus run"
        );
        for f in &report.failures {
            eprintln!("{}: {}\n  {}", f.seed, f.detail, f.repro());
        }
        assert!(report.ok(), "schedule-invariance violated");
    }

    #[test]
    fn tiered_runs_conserve_bytes_and_replay_identically() {
        // The two-tier deployment runs the same corpus with a small SCM
        // buffer and live aggregation: every target's occupancy must
        // balance (foreground ± migrated = tier deltas), migration must
        // actually happen, and the observation must replay bit-identical.
        for seed in [1u64, 9] {
            let program = generate_program(seed);
            let entry = RosterEntry {
                sched: SchedPolicy::Fifo,
                admission: AdmissionPolicy::Fifo,
            };
            let (a, d) = run_tiered(&program, entry);
            let migrated: u64 = (0..d.spec.pool_targets())
                .map(|t| d.target(t).media.aggregated_bytes())
                .sum();
            assert!(migrated > 0, "seed {seed}: nothing migrated");
            assert!(a.quiescent, "seed {seed}: tiered run stranded tasks");
            assert!(a.media_conserved, "seed {seed}: tier bytes diverged");
            assert!(
                check_invariants(&program, &a).is_none(),
                "seed {seed}: {:?}",
                check_invariants(&program, &a)
            );
            let b = run_program_tiered(&program, entry);
            assert_eq!(a, b, "seed {seed}: tiered replay diverged");
        }
    }

    #[test]
    fn writer_priority_admission_is_outcome_invariant() {
        // Admission barging reorders service-queue grants, never
        // outcomes: the QoS-classified actors touch disjoint state, so
        // the observation must match the FIFO-admission reference
        // exactly, faults and retries included.
        for seed in [3u64, 11, 27] {
            let program = generate_program(seed);
            let reference = run_program(&program, SchedPolicy::Fifo);
            let barged = run_program_with(
                &program,
                RosterEntry {
                    sched: SchedPolicy::Fifo,
                    admission: AdmissionPolicy::writer_priority(),
                },
            );
            assert_eq!(
                reference, barged,
                "seed {seed}: admission changed an outcome"
            );
        }
    }

    #[test]
    fn roster_keeps_fifo_slots_under_every_family_filter() {
        for select in [
            family_is_lifo as fn(&SchedPolicy) -> bool,
            |_: &SchedPolicy| false,
        ] {
            let kept: Vec<RosterEntry> = roster(5)
                .into_iter()
                .filter(|e| matches!(e.sched, SchedPolicy::Fifo) || select(&e.sched))
                .collect();
            assert!(kept.len() >= 2, "reference + writer-priority slot");
            assert_eq!(kept[0].admission, AdmissionPolicy::Fifo);
            assert!(kept
                .iter()
                .any(|e| e.admission == AdmissionPolicy::writer_priority()));
        }
    }

    fn family_is_lifo(p: &SchedPolicy) -> bool {
        matches!(p, SchedPolicy::Lifo)
    }

    #[test]
    fn shrinking_finds_a_short_failing_prefix() {
        // Drive minimize() with a synthetic predicate failure: a program
        // whose 5th op is "bad" under a fake policy comparison is not
        // expressible without a real bug, so instead check the prefix
        // plumbing: truncation keeps global indices stable.
        let p = generate_program(9);
        let t = p.with_prefix(3);
        assert_eq!(t.ops[..], p.ops[..3]);
        assert_eq!(t.expected_array_sizes().len(), ARRAYS);
        assert!(t.expected_read_bytes() <= p.expected_read_bytes());
    }
}
