//! What the two simulated workloads share: how a client is made (plain
//! or traced), the set-up phase, the flow sampler, the after-run checks
//! and the per-layer metrics read from public counters.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use daosim_cluster::{ClusterSpec, Deployment, SimClient};
use daosim_core::fieldio::{FieldIoConfig, FieldStore};
use daosim_kernel::sync::{race, WaitGroup};
use daosim_kernel::{Sim, SimDuration};

use crate::probe::{Ledger, Traced};
use crate::round::{pool_metrics, Digest};

/// How a workload turns a `SimClient` into the client it hands to
/// `FieldStore`: itself in untraced runs, a [`Traced`] wrapper in
/// traced ones.
pub trait Wrap: Clone + 'static {
    type Client: daosim_objstore::prelude::DaosApi;
    fn wrap(&self, c: SimClient) -> Self::Client;
    fn ledger(&self) -> Option<&Ledger>;
}

#[derive(Clone)]
pub struct Plain;

impl Wrap for Plain {
    type Client = SimClient;
    fn wrap(&self, c: SimClient) -> SimClient {
        c
    }
    fn ledger(&self) -> Option<&Ledger> {
        None
    }
}

#[derive(Clone)]
pub struct Trace(pub Rc<Ledger>);

impl Wrap for Trace {
    type Client = Traced<SimClient>;
    fn wrap(&self, c: SimClient) -> Traced<SimClient> {
        let sim = c.deployment().sim.clone();
        Traced::new(c, Rc::clone(&self.0), Some(sim))
    }
    fn ledger(&self) -> Option<&Ledger> {
        Some(&self.0)
    }
}

/// One process's connected store, parked between set-up and the timed
/// phase.
pub type Slots<C> = Rc<RefCell<Vec<Option<FieldStore<C>>>>>;

/// A deployed, connected world, ready for its timed phase.
pub struct World<W: Wrap> {
    pub sim: Sim,
    pub d: Rc<Deployment>,
    pub stores: Slots<W::Client>,
    pub setup_s: f64,
    pub deploy_s: f64,
}

/// Set-up: builds the deployment and connects one `FieldStore` per
/// `(client node, rank, qos)` entry of `procs`, process `p` with client
/// id `p + 1`.
pub fn deploy<W: Wrap>(
    spec: ClusterSpec,
    cfg: &FieldIoConfig,
    procs: &[SimClientSpec],
    wrap: &W,
) -> Result<World<W>, String> {
    let t0 = Instant::now();
    let sim = Sim::new();
    let d = Deployment::new(&sim, spec);
    let deploy_s = t0.elapsed().as_secs_f64();
    let stores: Slots<W::Client> = Rc::new(RefCell::new((0..procs.len()).map(|_| None).collect()));
    for (p, s) in procs.iter().enumerate() {
        let client = wrap.wrap(SimClient::for_process(&d, s.node, s.rank).with_qos(s.qos));
        let (cfg, stores) = (cfg.clone(), Rc::clone(&stores));
        sim.spawn(async move {
            if let Ok(fs) = FieldStore::connect(client, cfg, p as u32 + 1).await {
                stores.borrow_mut()[p] = Some(fs);
            }
        });
    }
    let out = sim.run();
    if out.stranded_tasks != 0 {
        return Err(format!("set-up stranded {} tasks", out.stranded_tasks));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(World {
        sim,
        d,
        stores,
        setup_s,
        deploy_s,
    })
}

/// Where a simulated process runs and which QoS class it carries.
#[derive(Clone, Copy)]
pub struct SimClientSpec {
    pub node: u16,
    pub rank: u32,
    pub qos: daosim_cluster::QosClass,
}

/// Samples `FlowNet::active_flows` every `every` of simulated time until
/// `done` drains; the pending sleep is cancelled then, so the sampler
/// never extends the run.
pub fn spawn_flow_sampler(
    w: &World<impl Wrap>,
    done: &WaitGroup,
    every: SimDuration,
) -> Rc<Cell<usize>> {
    let peak = Rc::new(Cell::new(0usize));
    let (sim, d, done, peak2) = (
        w.sim.clone(),
        Rc::clone(&w.d),
        done.clone(),
        Rc::clone(&peak),
    );
    w.sim.spawn(async move {
        loop {
            let flows = d.fabric.net().active_flows();
            peak2.set(peak2.get().max(flows));
            if done.outstanding() == 0 {
                break;
            }
            if let daosim_kernel::sync::Either::Right(()) =
                race(sim.sleep(every), done.wait()).await
            {
                break;
            }
        }
    });
    peak
}

/// Host-side timing of the timed phase: `Sim::run` to quiescence.
pub fn run_timed(sim: &Sim) -> Result<f64, String> {
    let t0 = Instant::now();
    let out = sim.run();
    let run_s = t0.elapsed().as_secs_f64();
    if out.stranded_tasks != 0 {
        return Err(format!("run stranded {} tasks", out.stranded_tasks));
    }
    Ok(run_s)
}

/// Folds the deployment's tallies and hashes the registry into `digest`.
pub fn fold_and_digest(d: &Deployment, digest: &mut Digest) {
    d.fold_metrics();
    digest.bytes(d.sim.obs().metrics().snapshot().to_csv().as_bytes());
}

/// The per-layer metrics read from public counters after a run, plus the
/// wrapper's ledger. `net_before` is the solver state after set-up.
pub fn layer_metrics(
    w: &World<impl Wrap>,
    ledger: &Ledger,
    run_s: f64,
    field_ops: u64,
    net_before: daosim_net::SolverStats,
    flows_peak: usize,
) -> BTreeMap<String, f64> {
    let d = &w.d;
    let mut m = ledger.metrics("cluster", true);
    let field_self_s = ledger.field_self_ns() as f64 / 1e9;
    let client_s = ledger.client_ns() as f64 / 1e9;
    m.insert("kernel.run_s".into(), run_s);
    m.insert("kernel.residual_s".into(), run_s - field_self_s - client_s);
    m.insert("cluster.deploy_s".into(), w.deploy_s);
    let net = d.fabric.net().solver_stats();
    let recomputes = net.recomputes - net_before.recomputes;
    m.insert(
        "net.settles".into(),
        (net.settles - net_before.settles) as f64,
    );
    m.insert("net.recomputes".into(), recomputes as f64);
    m.insert(
        "net.recomputes_per_op".into(),
        recomputes as f64 / field_ops.max(1) as f64,
    );
    m.insert("net.active_flows_peak".into(), flows_peak as f64);
    let snap = d.sim.obs().metrics().snapshot();
    let sum = |suffix: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(n, _)| n.starts_with("media.e") && n.ends_with(suffix))
            .map(|&(_, v)| v as f64)
            .sum()
    };
    m.insert("media.writes".into(), sum(".writes"));
    m.insert("media.reads".into(), sum(".reads"));
    m.insert("media.scm_used_bytes".into(), sum(".scm_used"));
    m.insert("media.nvme_used_bytes".into(), sum(".nvme_used"));
    m.extend(pool_metrics(&d.pool));
    m.insert("cluster.aged_grants".into(), d.aged_grants() as f64);
    m.insert("cluster.backlog_peak".into(), d.backlog().peak() as f64);
    m
}

/// Simulated seconds from the first start to the last end of `stamps`
/// (`(start_ns, end_ns)` pairs).
pub fn span_s(stamps: &[(u64, u64)]) -> f64 {
    let first = stamps.iter().map(|s| s.0).min().unwrap_or(0);
    let last = stamps.iter().map(|s| s.1).max().unwrap_or(0);
    last.saturating_sub(first) as f64 / 1e9
}

/// Eq. 2 global-timing bandwidth of `stamps` moving `bytes`, in GiB per
/// simulated second (0 for an empty or instantaneous phase).
pub fn global_gib_s(stamps: &[(u64, u64)], bytes: u64) -> f64 {
    let span = span_s(stamps);
    if span > 0.0 {
        bytes as f64 / (1u64 << 30) as f64 / span
    } else {
        0.0
    }
}
