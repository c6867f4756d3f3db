//! Fluid-flow bandwidth model with max-min fair sharing.
//!
//! Transfers are modelled as *flows*: a byte count draining over a route of
//! capacity-limited links. Whenever the flow population changes, every
//! flow's rate is recomputed by progressive filling (max-min fairness with
//! per-flow rate caps), remaining byte counts are brought up to date, and a
//! single event is scheduled for the earliest completion. This is the
//! classic fluid approximation used by flow-level network simulators: it
//! captures saturation, sharing and crossover behaviour without paying for
//! per-packet events.
//!
//! Per-flow caps model the single-stream limit of a fabric provider (e.g.
//! one TCP stream tops out near 3.1 GiB/s on NEXTGenIO's OmniPath while
//! PSM2 RDMA reaches 12.1 GiB/s). Flows may additionally carry a *cap
//! group*: flows in the same group (same host pair, in practice) see their
//! cap scaled by `count^-alpha`, reproducing the measured sub-linear
//! scaling of parallel TCP streams between one pair of hosts.
//!
//! # Incremental solver
//!
//! Flow populations in the cluster experiments are large (thousands of
//! concurrent shard transfers) but highly *redundant*: most flows share a
//! route, a cap and a cap group with many others, and max-min fairness
//! gives identical flows identical rates. The solver therefore works on
//! **route-equivalence classes** — the distinct `(route, cap, group)`
//! combinations — rather than individual flows, so one progressive-filling
//! pass costs `O(classes × links)` per freezing round instead of
//! `O(flows × links)`. Routes are interned ([`RouteId`]) so class lookup
//! is a hash of three words, flows live in a generational slab rather than
//! an ordered map, and all solver working sets are reusable scratch
//! buffers: the settle path performs no per-event allocation.
//!
//! Same-instant arrivals coalesce: `transfer` only queues one settle event
//! per instant, so a batch of N transfers issued at one tick triggers a
//! single recompute rather than N. The next-completion wakeup uses the
//! kernel's cancellable timers instead of scheduling a fresh closure per
//! settle and letting stale ones no-op via an epoch check.
//!
//! The pre-incremental per-flow solver is kept (under
//! `cfg(any(test, feature = "naive-flow"))`) as an oracle for equivalence
//! tests and as the baseline the `net_flow` benchmark measures against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use daosim_kernel::sync::{oneshot, OneshotReceiver, OneshotSender};
use daosim_kernel::{Sim, SimDuration, SimTime, SpanId, TimerHandle};

/// One GiB in bytes, as a float; all public bandwidths are GiB/s.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A byte count below which a flow is considered drained (guards float
/// rounding at completion events).
const DRAIN_EPS: f64 = 0.5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// Generational flow handle: a slab slot plus the slot's generation at
/// issue time, so a reused slot never aliases a completed flow's id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

impl FlowId {
    fn new(slot: u32, generation: u32) -> Self {
        FlowId(((generation as u64) << 32) | slot as u64)
    }

    /// Slab slot the flow occupied.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// Generation of the slot when the id was issued.
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Handle to an interned route (a deduplicated link sequence).
///
/// Interning makes starting a transfer over a recurring route cheap — the
/// hot path hashes one word instead of a link vector — and lets the solver
/// key its equivalence classes by route identity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouteId(u32);

/// Per-flow rate constraints.
#[derive(Clone, Copy, Debug)]
pub struct FlowCap {
    /// Single-flow rate cap in GiB/s (`f64::INFINITY` for none).
    pub base_gib: f64,
    /// Optional cap group (e.g. a host pair). Flows sharing a group get
    /// `base * count^-alpha` each, modelling parallel-stream inefficiency.
    pub group: Option<u64>,
    /// Sub-linearity exponent for grouped flows; 0 disables the effect.
    pub alpha: f64,
}

impl FlowCap {
    pub fn unlimited() -> Self {
        FlowCap {
            base_gib: f64::INFINITY,
            group: None,
            alpha: 0.0,
        }
    }

    pub fn capped(base_gib: f64) -> Self {
        FlowCap {
            base_gib,
            group: None,
            alpha: 0.0,
        }
    }
}

/// Cumulative settle-path counters, for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Settle passes executed. Same-instant arrivals coalesce into one.
    pub settles: u64,
    /// Rate recomputations actually performed (≤ `settles`; clean settles
    /// skip the solver entirely).
    pub recomputes: u64,
}

struct Flow {
    class: u32,
    remaining: f64, // bytes
    done: Option<OneshotSender<()>>,
    /// Open "net" span, closed when the flow drains.
    span: Option<SpanId>,
}

struct Slot {
    generation: u32,
    flow: Option<Flow>,
}

/// A route-equivalence class: every live flow with this `(route, cap,
/// group)` combination shares one max-min rate.
struct Class {
    route: RouteId,
    cap: FlowCap,
    /// Live flows currently in the class.
    active: u32,
    /// Per-flow rate in bytes/s, set by the last recompute.
    rate: f64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    route: RouteId,
    cap_bits: (u64, u64), // (base_gib, alpha) as raw bits
    group: Option<u64>,
}

impl ClassKey {
    fn new(route: RouteId, cap: FlowCap) -> Self {
        ClassKey {
            route,
            cap_bits: (cap.base_gib.to_bits(), cap.alpha.to_bits()),
            group: cap.group,
        }
    }
}

/// Reusable solver working sets; cleared, never reallocated, per settle.
#[derive(Default)]
struct Scratch {
    residual: Vec<f64>,
    link_count: Vec<u32>,
    eff_cap: Vec<f64>,
    unfrozen: Vec<u32>,
    still: Vec<u32>,
    finished: Vec<(OneshotSender<()>, Option<SpanId>)>,
}

struct Inner {
    links: Vec<f64>, // capacity in bytes/s
    slots: Vec<Slot>,
    free: Vec<u32>,
    active: usize,
    routes: Vec<Rc<[LinkId]>>,
    route_index: HashMap<Rc<[LinkId]>, RouteId>,
    classes: Vec<Class>,
    class_index: HashMap<ClassKey, u32>,
    group_counts: HashMap<u64, u32>,
    last_update: SimTime,
    /// Cumulative bytes delivered, for debugging/accounting.
    delivered: f64,
    /// Membership changed since the last recompute.
    dirty: bool,
    /// A settle event for the current instant is already queued.
    settle_queued: bool,
    /// Pending next-completion wakeup.
    timer: Option<TimerHandle>,
    stats: SolverStats,
    scratch: Scratch,
    #[cfg(any(test, feature = "naive-flow"))]
    naive: bool,
}

/// The flow network. Cheap to clone; all clones share one state.
///
/// ```
/// use daosim_kernel::Sim;
/// use daosim_net::{FlowCap, FlowNet};
///
/// let sim = Sim::new();
/// let net = FlowNet::new(&sim);
/// let link = net.add_link(2.0); // 2 GiB/s
/// let n = net.clone();
/// let end = sim.block_on(async move {
///     // 2 GiB over a 2 GiB/s link: one second.
///     n.transfer(&[link], 2 << 30, FlowCap::unlimited()).await;
/// });
/// assert!((end.as_secs_f64() - 1.0).abs() < 1e-6);
/// ```
#[derive(Clone)]
pub struct FlowNet {
    sim: Sim,
    inner: Rc<RefCell<Inner>>,
}

impl FlowNet {
    pub fn new(sim: &Sim) -> Self {
        Self::build(sim, false)
    }

    /// A network driven by the reference per-flow solver, for equivalence
    /// tests and baseline benchmarks.
    #[cfg(any(test, feature = "naive-flow"))]
    pub fn new_naive(sim: &Sim) -> Self {
        Self::build(sim, true)
    }

    fn build(sim: &Sim, naive: bool) -> Self {
        #[cfg(not(any(test, feature = "naive-flow")))]
        let _ = naive;
        FlowNet {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(Inner {
                links: Vec::new(),
                slots: Vec::new(),
                free: Vec::new(),
                active: 0,
                routes: Vec::new(),
                route_index: HashMap::new(),
                classes: Vec::new(),
                class_index: HashMap::new(),
                group_counts: HashMap::new(),
                last_update: SimTime::ZERO,
                delivered: 0.0,
                dirty: false,
                settle_queued: false,
                timer: None,
                stats: SolverStats::default(),
                scratch: Scratch::default(),
                #[cfg(any(test, feature = "naive-flow"))]
                naive,
            })),
        }
    }

    /// Adds a link with the given capacity (GiB/s) and returns its id.
    /// Links can be added at any time; capacities can later be rescaled
    /// with [`FlowNet::set_link_capacity`] (e.g. for fault injection).
    pub fn add_link(&self, cap_gib: f64) -> LinkId {
        assert!(cap_gib > 0.0, "link capacity must be positive");
        let mut inner = self.inner.borrow_mut();
        let id = LinkId(inner.links.len() as u32);
        inner.links.push(cap_gib * GIB);
        id
    }

    /// Rescales an existing link's capacity to `cap_gib` (GiB/s) at the
    /// current simulated instant. In-flight flows keep the bytes already
    /// drained at the old rate; fair shares are recomputed from here on.
    /// Used by fault campaigns to model NIC/link degradation and recovery.
    pub fn set_link_capacity(&self, link: LinkId, cap_gib: f64) {
        assert!(cap_gib > 0.0, "link capacity must be positive");
        let now = self.sim.now();
        let queue_settle;
        {
            let mut inner = self.inner.borrow_mut();
            let slot = link.0 as usize;
            assert!(slot < inner.links.len(), "unknown link {link:?}");
            inner.advance_to(now);
            inner.links[slot] = cap_gib * GIB;
            inner.dirty = true;
            queue_settle = !inner.settle_queued;
            inner.settle_queued = true;
        }
        if queue_settle {
            let this = self.clone();
            self.sim.schedule_at(now, move || this.settle());
        }
    }

    /// Current capacity of `link` in GiB/s.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.inner.borrow().links[link.0 as usize] / GIB
    }

    pub fn link_count(&self) -> usize {
        self.inner.borrow().links.len()
    }

    pub fn active_flows(&self) -> usize {
        self.inner.borrow().active
    }

    /// Total bytes delivered by completed and in-progress flows.
    pub fn bytes_delivered(&self) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let now = self.sim.now();
        inner.advance_to(now);
        inner.delivered
    }

    /// Settle-path counters (see [`SolverStats`]).
    pub fn solver_stats(&self) -> SolverStats {
        self.inner.borrow().stats
    }

    /// Interns `route`, validating every link, and returns its id. Call
    /// sites that reuse a route should intern once and use
    /// [`FlowNet::transfer_interned`].
    pub fn intern_route(&self, route: &[LinkId]) -> RouteId {
        self.inner.borrow_mut().intern_route(route)
    }

    /// The link sequence behind an interned route.
    pub fn route_links(&self, route: RouteId) -> Rc<[LinkId]> {
        Rc::clone(&self.inner.borrow().routes[route.0 as usize])
    }

    /// Starts a transfer of `bytes` over `route` and returns a future that
    /// resolves when the last byte has drained. A zero-byte transfer (or an
    /// empty route, i.e. a node-local copy) completes immediately.
    pub fn transfer(&self, route: &[LinkId], bytes: u64, cap: FlowCap) -> OneshotReceiver<()> {
        if route.is_empty() {
            let (tx, rx) = oneshot();
            tx.send(());
            return rx;
        }
        let route = self.intern_route(route);
        self.transfer_interned(route, bytes, cap)
    }

    /// [`FlowNet::transfer`] over a pre-interned route: the hot path for
    /// repeated transfers between the same endpoints.
    pub fn transfer_interned(
        &self,
        route: RouteId,
        bytes: u64,
        cap: FlowCap,
    ) -> OneshotReceiver<()> {
        let (tx, rx) = oneshot();
        let now = self.sim.now();
        let queue_settle;
        {
            let mut inner = self.inner.borrow_mut();
            let links = inner
                .routes
                .get(route.0 as usize)
                .unwrap_or_else(|| panic!("unknown route {route:?}"));
            if bytes == 0 || links.is_empty() {
                drop(inner);
                tx.send(());
                return rx;
            }
            inner.advance_to(now);
            let class = inner.class_for(route, cap);
            if let Some(g) = cap.group {
                *inner.group_counts.entry(g).or_insert(0) += 1;
            }
            inner.classes[class as usize].active += 1;
            // Leaf span: the admit side runs in the issuing task (so the
            // span parents under its open op span), but the end fires in
            // a settle event once the last byte drains.
            let span = if self.sim.trace_enabled() {
                self.sim
                    .obs()
                    .span_begin_leaf("net", &format!("xfer {bytes} B"))
            } else {
                None
            };
            inner.insert_flow(Flow {
                class,
                remaining: bytes as f64,
                done: Some(tx),
                span,
            });
            queue_settle = !inner.settle_queued;
            inner.settle_queued = true;
        }
        if queue_settle {
            // Coalesce: every same-instant arrival after the first rides
            // this one event, so a batch triggers a single recompute.
            let this = self.clone();
            self.sim.schedule_at(now, move || this.settle());
        }
        rx
    }

    /// Brings remaining byte counts up to date, completes drained flows,
    /// recomputes fair rates if membership changed and (re)schedules the
    /// next completion wakeup. Idempotent and cheap when nothing changed.
    fn settle(&self) {
        let now = self.sim.now();
        let (mut finished, retime) = {
            let mut inner = self.inner.borrow_mut();
            inner.settle_queued = false;
            inner.stats.settles += 1;
            inner.advance_to(now);
            let mut finished = std::mem::take(&mut inner.scratch.finished);
            inner.drain_completed(&mut finished);
            if inner.dirty {
                inner.recompute();
                inner.stats.recomputes += 1;
                inner.dirty = false;
            }
            let next_at = inner.next_completion(now);
            let keep =
                matches!(&inner.timer, Some(t) if t.is_armed() && Some(t.deadline()) == next_at);
            let retime = if keep {
                None
            } else {
                if let Some(t) = inner.timer.take() {
                    t.cancel();
                }
                next_at
            };
            (finished, retime)
        };
        if let Some(at) = retime {
            let this = self.clone();
            let handle = self.sim.schedule_cancellable_at(at, move || this.settle());
            self.inner.borrow_mut().timer = Some(handle);
        }
        // Fire completions outside the borrow: the woken tasks may start
        // new transfers re-entering this FlowNet. Spans close before the
        // send so the flow's End precedes anything the woken task logs.
        for (tx, span) in finished.drain(..) {
            if let Some(s) = span {
                self.sim.obs().span_end(s);
            }
            tx.send(());
        }
        self.inner.borrow_mut().scratch.finished = finished;
    }

    /// Runs any settle pending for the current instant so observers see
    /// rates that reflect every transfer issued so far this tick.
    fn ensure_settled(&self) {
        let stale = {
            let inner = self.inner.borrow();
            inner.settle_queued || inner.dirty
        };
        if stale {
            self.settle();
        }
    }

    /// Current rate of every active flow in GiB/s (diagnostics/tests).
    /// Routes are shared slices into the intern table — no cloning.
    pub fn snapshot_rates(&self) -> Vec<(Rc<[LinkId]>, f64)> {
        self.ensure_settled();
        let inner = self.inner.borrow();
        inner
            .slots
            .iter()
            .filter_map(|s| s.flow.as_ref())
            .map(|f| {
                let c = &inner.classes[f.class as usize];
                (Rc::clone(&inner.routes[c.route.0 as usize]), c.rate / GIB)
            })
            .collect()
    }
}

impl Inner {
    fn intern_route(&mut self, route: &[LinkId]) -> RouteId {
        if let Some(&id) = self.route_index.get(route) {
            return id;
        }
        for l in route {
            assert!(
                (l.0 as usize) < self.links.len(),
                "route references unknown link {l:?}"
            );
        }
        let shared: Rc<[LinkId]> = Rc::from(route);
        let id = RouteId(self.routes.len() as u32);
        self.routes.push(Rc::clone(&shared));
        self.route_index.insert(shared, id);
        id
    }

    fn class_for(&mut self, route: RouteId, cap: FlowCap) -> u32 {
        let key = ClassKey::new(route, cap);
        if let Some(&c) = self.class_index.get(&key) {
            return c;
        }
        let id = self.classes.len() as u32;
        self.classes.push(Class {
            route,
            cap,
            active: 0,
            rate: 0.0,
        });
        self.class_index.insert(key, id);
        id
    }

    fn insert_flow(&mut self, flow: Flow) -> FlowId {
        self.active += 1;
        self.dirty = true;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.flow.is_none(), "free list pointed at a live slot");
            s.flow = Some(flow);
            FlowId::new(slot, s.generation)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                flow: Some(flow),
            });
            FlowId::new(slot, 0)
        }
    }

    /// Drains `rate * dt` bytes from each flow up to `now`.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now
            .saturating_duration_since(self.last_update)
            .as_secs_f64();
        self.last_update = now;
        if dt == 0.0 || self.active == 0 {
            return;
        }
        let Inner { slots, classes, .. } = self;
        let mut moved = 0.0;
        for slot in slots.iter_mut() {
            if let Some(f) = &mut slot.flow {
                let d = (classes[f.class as usize].rate * dt).min(f.remaining);
                f.remaining -= d;
                moved += d;
            }
        }
        self.delivered += moved;
    }

    /// Removes every drained flow, collecting its completion sender.
    /// Scans slots in index order so same-instant completions fire
    /// deterministically.
    fn drain_completed(&mut self, finished: &mut Vec<(OneshotSender<()>, Option<SpanId>)>) {
        if self.active == 0 {
            return;
        }
        for idx in 0..self.slots.len() {
            match &self.slots[idx].flow {
                Some(f) if f.remaining <= DRAIN_EPS => {}
                _ => continue,
            }
            let mut f = self.slots[idx].flow.take().expect("checked above");
            self.slots[idx].generation = self.slots[idx].generation.wrapping_add(1);
            self.free.push(idx as u32);
            self.active -= 1;
            self.dirty = true;
            let class = &mut self.classes[f.class as usize];
            class.active -= 1;
            if let Some(g) = class.cap.group {
                let c = self.group_counts.get_mut(&g).expect("group count missing");
                *c -= 1;
                if *c == 0 {
                    self.group_counts.remove(&g);
                }
            }
            if let Some(tx) = f.done.take() {
                finished.push((tx, f.span.take()));
            }
        }
    }

    /// Earliest completion instant across active flows, if any.
    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for slot in &self.slots {
            if let Some(f) = &slot.flow {
                let rate = self.classes[f.class as usize].rate;
                debug_assert!(rate > 0.0, "flow starved by zero rate");
                let t = f.remaining.max(0.0) / rate;
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        best.map(|secs| now + SimDuration::from_secs_f64(secs))
    }

    fn recompute(&mut self) {
        #[cfg(any(test, feature = "naive-flow"))]
        if self.naive {
            for (slot, rate) in self.naive_rates() {
                let class = self.slots[slot as usize]
                    .flow
                    .as_ref()
                    .expect("naive rate for empty slot")
                    .class;
                self.classes[class as usize].rate = rate;
            }
            return;
        }
        self.recompute_classes();
    }

    /// Progressive-filling max-min fairness over route-equivalence
    /// classes.
    ///
    /// Repeatedly finds the tightest constraint — either a link's equal
    /// share among its unfrozen flows or a class's per-flow cap — freezes
    /// the classes bound by it, and subtracts their members' rates from
    /// link residuals. Because all flows of a class are symmetric they
    /// freeze together, so this terminates in at most `#classes`
    /// iterations and never touches individual flows.
    fn recompute_classes(&mut self) {
        let Inner {
            links,
            routes,
            classes,
            group_counts,
            scratch,
            ..
        } = self;
        let Scratch {
            residual,
            link_count,
            eff_cap,
            unfrozen,
            still,
            ..
        } = scratch;
        let nl = links.len();
        residual.clear();
        residual.extend_from_slice(links);
        link_count.clear();
        link_count.resize(nl, 0);
        eff_cap.clear();
        eff_cap.resize(classes.len(), f64::INFINITY);
        unfrozen.clear();

        // Effective per-flow caps (group scaling applied once up front)
        // and per-link member counts.
        for (ci, c) in classes.iter_mut().enumerate() {
            if c.active == 0 {
                c.rate = 0.0;
                continue;
            }
            let mut cap = c.cap.base_gib * GIB;
            if let (Some(g), true) = (c.cap.group, c.cap.alpha > 0.0) {
                let n = *group_counts.get(&g).unwrap_or(&1) as f64;
                cap *= n.powf(-c.cap.alpha);
            }
            eff_cap[ci] = cap;
            for l in routes[c.route.0 as usize].iter() {
                link_count[l.0 as usize] += c.active;
            }
            unfrozen.push(ci as u32);
        }

        while !unfrozen.is_empty() {
            // Tightest link share.
            let mut level = f64::INFINITY;
            for l in 0..nl {
                if link_count[l] > 0 {
                    level = level.min(residual[l] / link_count[l] as f64);
                }
            }
            // Tightest class cap.
            for &ci in unfrozen.iter() {
                level = level.min(eff_cap[ci as usize]);
            }
            assert!(
                level.is_finite() && level > 0.0,
                "progressive filling found no finite positive level"
            );
            let tol = level * (1.0 + 1e-9);
            // Freeze every class bound at this level: either its cap is
            // the level, or its route crosses a link whose fair share is
            // the level.
            still.clear();
            let mut froze_any = false;
            for &ci in unfrozen.iter() {
                let ci = ci as usize;
                let (route, members) = (classes[ci].route, classes[ci].active);
                let route = &routes[route.0 as usize];
                let capped = eff_cap[ci] <= tol;
                let link_bound = route
                    .iter()
                    .any(|l| residual[l.0 as usize] / link_count[l.0 as usize] as f64 <= tol);
                if capped || link_bound {
                    let rate = if capped { eff_cap[ci] } else { level };
                    for l in route.iter() {
                        let li = l.0 as usize;
                        residual[li] = (residual[li] - rate * members as f64).max(0.0);
                        link_count[li] -= members;
                    }
                    classes[ci].rate = rate;
                    froze_any = true;
                } else {
                    still.push(ci as u32);
                }
            }
            assert!(froze_any, "progressive filling made no progress");
            std::mem::swap(unfrozen, still);
        }
    }

    /// The pre-incremental reference solver: per-flow progressive filling,
    /// allocating its working sets per call. Returns `(slot, rate)` pairs.
    /// Kept as the oracle the incremental solver is property-tested
    /// against, and as the baseline for the `net_flow` benchmark.
    #[cfg(any(test, feature = "naive-flow"))]
    fn naive_rates(&self) -> Vec<(u32, f64)> {
        let nl = self.links.len();
        let mut residual = self.links.clone();
        let mut link_count = vec![0u32; nl];
        let mut eff_cap: HashMap<u32, f64> = HashMap::new();
        let mut unfrozen: Vec<u32> = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(f) = &slot.flow else { continue };
            let c = &self.classes[f.class as usize];
            let mut cap = c.cap.base_gib * GIB;
            if let (Some(g), true) = (c.cap.group, c.cap.alpha > 0.0) {
                let n = *self.group_counts.get(&g).unwrap_or(&1) as f64;
                cap *= n.powf(-c.cap.alpha);
            }
            eff_cap.insert(idx as u32, cap);
            for l in self.routes[c.route.0 as usize].iter() {
                link_count[l.0 as usize] += 1;
            }
            unfrozen.push(idx as u32);
        }
        let mut rates: Vec<(u32, f64)> = Vec::with_capacity(unfrozen.len());
        while !unfrozen.is_empty() {
            let mut level = f64::INFINITY;
            for l in 0..nl {
                if link_count[l] > 0 {
                    level = level.min(residual[l] / link_count[l] as f64);
                }
            }
            for idx in &unfrozen {
                level = level.min(eff_cap[idx]);
            }
            assert!(
                level.is_finite() && level > 0.0,
                "naive progressive filling found no finite positive level"
            );
            let tol = level * (1.0 + 1e-9);
            let mut still = Vec::with_capacity(unfrozen.len());
            let mut froze_any = false;
            for idx in unfrozen {
                let f = self.slots[idx as usize].flow.as_ref().expect("live slot");
                let route = &self.routes[self.classes[f.class as usize].route.0 as usize];
                let capped = eff_cap[&idx] <= tol;
                let link_bound = route
                    .iter()
                    .any(|l| residual[l.0 as usize] / link_count[l.0 as usize] as f64 <= tol);
                if capped || link_bound {
                    let rate = if capped { eff_cap[&idx] } else { level };
                    for l in route.iter() {
                        let li = l.0 as usize;
                        residual[li] = (residual[li] - rate).max(0.0);
                        link_count[li] -= 1;
                    }
                    rates.push((idx, rate));
                    froze_any = true;
                } else {
                    still.push(idx);
                }
            }
            assert!(froze_any, "naive progressive filling made no progress");
            unfrozen = still;
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn run_transfer(caps: &[f64], routes: Vec<(Vec<usize>, u64, FlowCap)>) -> Vec<u64> {
        // Returns completion time (ns) per flow, started simultaneously.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        for (i, (route, bytes, cap)) in routes.into_iter().enumerate() {
            let route: Vec<LinkId> = route.into_iter().map(|r| links[r]).collect();
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                net.transfer(&route, bytes, cap).await;
                done.borrow_mut().push((i, sim2.now().as_nanos()));
            });
        }
        sim.run().expect_quiescent();
        let mut v = done.borrow().clone();
        v.sort();
        v.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn mid_flow_capacity_rescale_changes_drain_rate() {
        // 2 GiB over a 2 GiB/s link would finish at t=1s; degrading the
        // link to 1 GiB/s at t=0.5s leaves 1 GiB to drain at 1 GiB/s, so
        // the transfer completes at t=1.5s instead.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let link = net.add_link(2.0);
        let done: Rc<Cell<u64>> = Rc::default();
        {
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            sim.spawn(async move {
                net.transfer(&[link], 2 * GIB as u64, FlowCap::unlimited())
                    .await;
                done.set(sim2.now().as_nanos());
            });
        }
        {
            let net = net.clone();
            sim.schedule_after(SimDuration::from_millis(500), move || {
                net.set_link_capacity(link, 1.0);
                assert!((net.link_capacity(link) - 1.0).abs() < 1e-12);
            });
        }
        sim.run().expect_quiescent();
        assert!(
            (done.get() as f64 / 1e9 - 1.5).abs() < 1e-6,
            "completed at {} ns, expected ~1.5e9",
            done.get()
        );
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        // 1 GiB over a 1 GiB/s link = 1 second.
        let t = run_transfer(&[1.0], vec![(vec![0], GIB as u64, FlowCap::unlimited())]);
        assert!(
            (t[0] as f64 / 1e9 - 1.0).abs() < 1e-6,
            "1 GiB over 1 GiB/s should take ~1s, got {t:?}"
        );
    }

    #[test]
    fn per_flow_cap_binds_below_link() {
        // 10 GiB/s link, flow capped at 2 GiB/s: 1 GiB takes 0.5s... no, 1/2 s.
        let t = run_transfer(&[10.0], vec![(vec![0], GIB as u64, FlowCap::capped(2.0))]);
        assert!((t[0] as f64 / 1e9 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_link_evenly() {
        // Two equal flows on a 2 GiB/s link: each gets 1 GiB/s.
        let t = run_transfer(
            &[2.0],
            vec![
                (vec![0], GIB as u64, FlowCap::unlimited()),
                (vec![0], GIB as u64, FlowCap::unlimited()),
            ],
        );
        assert!((t[0] as f64 / 1e9 - 1.0).abs() < 1e-6);
        assert!((t[1] as f64 / 1e9 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_textbook_example() {
        // Link0 cap 10 shared by flows A and B; link1 cap 4 crossed only by
        // B. Max-min: B = 4, A = 6.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l0 = net.add_link(10.0);
        let l1 = net.add_link(4.0);
        let a_rate: Rc<Cell<f64>> = Rc::default();
        let (net2, ar) = (net.clone(), Rc::clone(&a_rate));
        sim.spawn(async move {
            let fa = net2.transfer(&[l0], (10.0 * GIB) as u64, FlowCap::unlimited());
            let fb = net2.transfer(&[l0, l1], (10.0 * GIB) as u64, FlowCap::unlimited());
            // Inspect rates right after both flows are active.
            let rates = net2.snapshot_rates();
            for (route, r) in rates {
                if route.len() == 1 {
                    ar.set(r);
                }
            }
            fa.await;
            fb.await;
        });
        sim.run().expect_quiescent();
        assert!((a_rate.get() - 6.0).abs() < 1e-6, "A got {}", a_rate.get());
    }

    #[test]
    fn arrival_slows_existing_flow() {
        // Flow 1 alone for 0.5 s at 2 GiB/s, then flow 2 arrives and they
        // share 1 GiB/s each. Flow 1 carries 2 GiB total:
        //   0.5s * 2 + t * 1 = 2 GiB -> t = 1s -> completes at 1.5s.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(2.0);
        let t1: Rc<Cell<u64>> = Rc::default();
        let (n1, s1, t1c) = (net.clone(), sim.clone(), Rc::clone(&t1));
        sim.spawn(async move {
            n1.transfer(&[l], (2.0 * GIB) as u64, FlowCap::unlimited())
                .await;
            t1c.set(s1.now().as_nanos());
        });
        let (n2, s2) = (net.clone(), sim.clone());
        sim.spawn(async move {
            s2.sleep(SimDuration::from_millis(500)).await;
            n2.transfer(&[l], (4.0 * GIB) as u64, FlowCap::unlimited())
                .await;
        });
        sim.run().expect_quiescent();
        assert!(
            (t1.get() as f64 / 1e9 - 1.5).abs() < 1e-6,
            "flow1 finished at {}",
            t1.get()
        );
    }

    #[test]
    fn departure_speeds_up_survivor() {
        // Both start together on 2 GiB/s: 1 GiB/s each. Small flow (0.5 GiB)
        // leaves at 0.5s; big flow (2 GiB) then runs at 2 GiB/s:
        //   0.5 GiB done, 1.5 GiB left at 2 GiB/s -> +0.75s -> 1.25s total.
        let t = run_transfer(
            &[2.0],
            vec![
                (vec![0], (2.0 * GIB) as u64, FlowCap::unlimited()),
                (vec![0], (0.5 * GIB) as u64, FlowCap::unlimited()),
            ],
        );
        assert!((t[0] as f64 / 1e9 - 1.25).abs() < 1e-6, "{t:?}");
        assert!((t[1] as f64 / 1e9 - 0.5).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn group_alpha_scales_down_parallel_streams() {
        // Two grouped flows with alpha=1: each capped at base/2, so two
        // flows are no faster in aggregate than one.
        let cap = FlowCap {
            base_gib: 2.0,
            group: Some(7),
            alpha: 1.0,
        };
        let t = run_transfer(
            &[100.0],
            vec![(vec![0], GIB as u64, cap), (vec![0], GIB as u64, cap)],
        );
        // Each runs at 1 GiB/s -> 1 s.
        assert!((t[0] as f64 / 1e9 - 1.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn group_count_resets_after_drain() {
        // After the first grouped transfer finishes, a new one sees n=1.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(100.0);
        let cap = FlowCap {
            base_gib: 2.0,
            group: Some(1),
            alpha: 1.0,
        };
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        let (n, s, tc) = (net.clone(), sim.clone(), Rc::clone(&times));
        sim.spawn(async move {
            n.transfer(&[l], (2.0 * GIB) as u64, cap).await;
            tc.borrow_mut().push(s.now().as_nanos());
            n.transfer(&[l], (2.0 * GIB) as u64, cap).await;
            tc.borrow_mut().push(s.now().as_nanos());
        });
        sim.run().expect_quiescent();
        let t = times.borrow().clone();
        // Each runs alone at the full 2 GiB/s cap: 1 s each.
        assert!((t[0] as f64 / 1e9 - 1.0).abs() < 1e-6, "{t:?}");
        assert!(((t[1] - t[0]) as f64 / 1e9 - 1.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn zero_bytes_completes_instantly() {
        let t = run_transfer(&[1.0], vec![(vec![0], 0, FlowCap::unlimited())]);
        assert_eq!(t, vec![0]);
    }

    #[test]
    fn empty_route_is_local_copy() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let end = sim.block_on({
            let net = net.clone();
            async move {
                net.transfer(&[], 1_000_000, FlowCap::unlimited()).await;
            }
        });
        assert_eq!(end.as_nanos(), 0);
    }

    #[test]
    fn bytes_delivered_accounts_everything() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(1.0);
        for _ in 0..3 {
            let net = net.clone();
            sim.spawn(async move {
                net.transfer(&[l], 1_000_000, FlowCap::unlimited()).await;
            });
        }
        sim.run().expect_quiescent();
        assert!((net.bytes_delivered() - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn bad_route_panics() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        drop(net.transfer(&[LinkId(5)], 10, FlowCap::unlimited()));
    }

    #[test]
    fn routes_intern_to_one_id() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let a = net.add_link(1.0);
        let b = net.add_link(1.0);
        let r1 = net.intern_route(&[a, b]);
        let r2 = net.intern_route(&[a, b]);
        let r3 = net.intern_route(&[b, a]);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        assert_eq!(&*net.route_links(r1), &[a, b]);
    }

    #[test]
    fn flow_ids_do_not_alias_across_slot_reuse() {
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(10.0);
        let ids: Rc<RefCell<Vec<FlowId>>> = Rc::default();
        {
            let (net, ids) = (net.clone(), Rc::clone(&ids));
            sim.spawn(async move {
                // Sequential transfers reuse slot 0 with bumped generations.
                for _ in 0..3 {
                    let rx = net.transfer(&[l], 1 << 20, FlowCap::unlimited());
                    let generation = net.inner.borrow().slots[0].generation;
                    ids.borrow_mut().push(FlowId::new(0, generation));
                    rx.await;
                }
            });
        }
        sim.run().expect_quiescent();
        let ids = ids.borrow();
        assert_eq!(ids.len(), 3);
        assert!(ids[0] != ids[1] && ids[1] != ids[2], "{ids:?}");
        assert_eq!(ids[0].slot(), ids[1].slot());
        assert!(ids[1].generation() > ids[0].generation());
    }

    #[test]
    fn same_instant_batch_coalesces_settles() {
        // 64 flows started at one tick must trigger far fewer settles than
        // one per arrival: one for the batch plus one per completion wave.
        let sim = Sim::new();
        let net = FlowNet::new(&sim);
        let l = net.add_link(64.0);
        for _ in 0..64 {
            let net = net.clone();
            sim.spawn(async move {
                net.transfer(&[l], GIB as u64, FlowCap::unlimited()).await;
            });
        }
        sim.run().expect_quiescent();
        let stats = net.solver_stats();
        assert!(
            stats.settles <= 4,
            "expected coalesced settles, got {stats:?}"
        );
        assert!(stats.recomputes <= stats.settles);
    }

    #[test]
    fn incremental_matches_naive_on_mixed_population() {
        // A fixed mixed scenario: shared links, caps, a group — completion
        // times must agree with the reference solver to float tolerance.
        let specs: Vec<(Vec<usize>, u64, FlowCap)> = vec![
            (vec![0], (2.0 * GIB) as u64, FlowCap::unlimited()),
            (vec![0, 1], GIB as u64, FlowCap::capped(1.5)),
            (vec![1], (3.0 * GIB) as u64, FlowCap::unlimited()),
            (
                vec![0, 2],
                GIB as u64,
                FlowCap {
                    base_gib: 2.0,
                    group: Some(9),
                    alpha: 0.5,
                },
            ),
            (
                vec![0, 2],
                GIB as u64,
                FlowCap {
                    base_gib: 2.0,
                    group: Some(9),
                    alpha: 0.5,
                },
            ),
        ];
        let run = |naive: bool| -> Vec<u64> {
            let sim = Sim::new();
            let net = if naive {
                FlowNet::new_naive(&sim)
            } else {
                FlowNet::new(&sim)
            };
            let links: Vec<LinkId> = [4.0, 3.0, 8.0].iter().map(|&c| net.add_link(c)).collect();
            let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
            for (i, (route, bytes, cap)) in specs.iter().enumerate() {
                let route: Vec<LinkId> = route.iter().map(|&r| links[r]).collect();
                let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
                let (bytes, cap) = (*bytes, *cap);
                sim.spawn(async move {
                    net.transfer(&route, bytes, cap).await;
                    done.borrow_mut().push((i, sim2.now().as_nanos()));
                });
            }
            sim.run().expect_quiescent();
            let mut v = done.borrow().clone();
            v.sort();
            v.into_iter().map(|(_, t)| t).collect()
        };
        let fast = run(false);
        let slow = run(true);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            let (f, s) = (*f as f64 / 1e9, *s as f64 / 1e9);
            assert!(
                (f - s).abs() < 1e-6,
                "incremental {fast:?} vs naive {slow:?}"
            );
        }
    }

    #[test]
    fn same_instant_batch_times_match_forced_per_arrival_settling() {
        // Coalescing must be timing-neutral: a batch of same-instant
        // arrivals settled once has to finish exactly like the same batch
        // settled after every arrival (the pre-coalescing behaviour, forced
        // here via the snapshot path).
        let run = |force_per_arrival: bool| -> (Vec<u64>, SolverStats) {
            let sim = Sim::new();
            let net = FlowNet::new(&sim);
            let l = net.add_link(8.0);
            let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
            for i in 0..32 {
                let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
                sim.spawn(async move {
                    let bytes = ((i as u64 % 7) + 1) << 27;
                    let rx = net.transfer(&[l], bytes, FlowCap::unlimited());
                    if force_per_arrival {
                        drop(net.snapshot_rates());
                    }
                    rx.await;
                    done.borrow_mut().push((i, sim2.now().as_nanos()));
                });
            }
            sim.run().expect_quiescent();
            let mut v = done.borrow().clone();
            v.sort();
            (v.into_iter().map(|(_, t)| t).collect(), net.solver_stats())
        };
        let (coalesced, cs) = run(false);
        let (forced, fs) = run(true);
        assert_eq!(coalesced, forced, "coalescing changed completion times");
        assert!(
            cs.recomputes < fs.recomputes,
            "coalesced path should recompute less: {cs:?} vs {fs:?}"
        );
    }
}

#[cfg(test)]
mod solver_equivalence {
    //! Property tests pitting the incremental class solver against the
    //! retained per-flow oracle on randomized topologies.
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;

    #[derive(Debug, Clone)]
    struct Spec {
        route: Vec<u8>,
        megs: u32,
        cap_decigib: u32,
        group: u8,
        alpha_centi: u8,
        start_us: u32,
    }

    fn spec() -> impl Strategy<Value = Spec> {
        (
            proptest::collection::vec(0u8..8, 1..4),
            1u32..64,
            5u32..200,
            0u8..4,
            0u8..100,
            0u32..1500,
        )
            .prop_map(
                |(route, megs, cap_decigib, group, alpha_centi, start_us)| Spec {
                    route,
                    megs,
                    cap_decigib,
                    group,
                    alpha_centi,
                    start_us,
                },
            )
    }

    fn cap_of(s: &Spec) -> FlowCap {
        FlowCap {
            base_gib: s.cap_decigib as f64 / 10.0,
            group: if s.group == 0 {
                None
            } else {
                Some(s.group as u64)
            },
            alpha: if s.group == 0 {
                0.0
            } else {
                s.alpha_centi as f64 / 100.0
            },
        }
    }

    fn route_of(s: &Spec, links: &[LinkId]) -> Vec<LinkId> {
        let mut r: Vec<LinkId> = s
            .route
            .iter()
            .map(|&l| links[l as usize % links.len()])
            .collect();
        r.sort_by_key(|l| l.0);
        r.dedup();
        r
    }

    fn run_mode(nl: u8, specs: &[Spec], naive: bool) -> Vec<u64> {
        let sim = Sim::new();
        let net = if naive {
            FlowNet::new_naive(&sim)
        } else {
            FlowNet::new(&sim)
        };
        let links: Vec<LinkId> = (0..nl)
            .map(|i| net.add_link(2.0 + (i % 7) as f64))
            .collect();
        let done: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
        for (i, s) in specs.iter().enumerate() {
            let route = route_of(s, &links);
            let (net, sim2, done) = (net.clone(), sim.clone(), Rc::clone(&done));
            let bytes = s.megs as u64 * 1024 * 1024;
            let cap = cap_of(s);
            let start = SimDuration::from_micros(s.start_us as u64);
            sim.spawn(async move {
                sim2.sleep(start).await;
                net.transfer(&route, bytes, cap).await;
                done.borrow_mut().push((i, sim2.now().as_nanos()));
            });
        }
        sim.run().expect_quiescent();
        let mut v = done.borrow().clone();
        v.sort();
        v.into_iter().map(|(_, t)| t).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn static_rates_agree(nl in 1u8..9, specs in proptest::collection::vec(spec(), 1..200)) {
            // Same flow population in both networks: every flow's settled
            // rate must match the oracle to 1e-6.
            let sim = Sim::new();
            let fast = FlowNet::new(&sim);
            let slow = FlowNet::new_naive(&sim);
            let fl: Vec<LinkId> = (0..nl).map(|i| fast.add_link(2.0 + (i % 7) as f64)).collect();
            let sl: Vec<LinkId> = (0..nl).map(|i| slow.add_link(2.0 + (i % 7) as f64)).collect();
            let mut pending = Vec::new();
            for s in &specs {
                let bytes = s.megs as u64 * 1024 * 1024;
                pending.push(fast.transfer(&route_of(s, &fl), bytes, cap_of(s)));
                pending.push(slow.transfer(&route_of(s, &sl), bytes, cap_of(s)));
            }
            let a = fast.snapshot_rates();
            let b = slow.snapshot_rates();
            prop_assert_eq!(a.len(), b.len());
            for ((ra, va), (rb, vb)) in a.iter().zip(&b) {
                prop_assert_eq!(ra.len(), rb.len());
                let scale = va.abs().max(vb.abs()).max(1.0);
                prop_assert!(
                    (va - vb).abs() <= 1e-6 * scale,
                    "rate mismatch: incremental {} vs naive {}", va, vb
                );
            }
            drop(pending);
        }

        #[test]
        fn completion_times_agree(nl in 1u8..9, specs in proptest::collection::vec(spec(), 1..60)) {
            // Full dynamic runs (staggered arrivals, same-instant batches
            // via repeated start times): completion schedules must match
            // the oracle to 1e-6 relative.
            let fast = run_mode(nl, &specs, false);
            let slow = run_mode(nl, &specs, true);
            prop_assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                let tol = (1e-6 * (*f as f64)).max(2e3);
                prop_assert!(
                    ((*f as f64) - (*s as f64)).abs() <= tol,
                    "completion mismatch: incremental {} vs naive {}", f, s
                );
            }
        }
    }
}
