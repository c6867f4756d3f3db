//! Host-time probes that live entirely in the benchmark.
//!
//! * [`polled`] times the polls of one future — the end-to-end host
//!   latency of a `FieldStore` call, and (with a [`Ledger`]) the
//!   `core.fieldio` self time: poll time minus the client calls made
//!   inside those polls.
//! * [`Traced`] is a forwarding [`DaosApi`] wrapper. Swapped in for the
//!   real client in traced runs, it records per method the call count,
//!   host poll time, failures and — on the simulated backend — the
//!   simulated latency, stamped when the benchmark's own `await` on the
//!   call resolves.
//!
//! Nothing here reaches inside the program: every number is measured at
//! a public call boundary.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use daosim_kernel::Sim;
use daosim_objstore::prelude::{ArrayHandle, DaosApi, Oid, OpFuture, Result, Uuid};

use crate::round::quantile;

/// The `DaosApi` methods `FieldStore` calls on the write and read paths,
/// in the order their metrics are printed. A call to any other method is
/// recorded under its own name and still counted in the totals.
pub const FIELD_OPS: [&str; 9] = [
    "cont_open_or_create",
    "cont_open",
    "kv_put",
    "kv_get",
    "array_create",
    "array_write",
    "array_open",
    "array_read",
    "array_close",
];

/// What [`Traced`] records for one `DaosApi` method.
#[derive(Default, Clone)]
struct OpStats {
    calls: u64,
    failed: u64,
    host_ns: u64,
    /// Simulated latency of each completed call (empty off the DES).
    sim_ns: Vec<u64>,
}

/// Per-thread record of every probed call.
#[derive(Default)]
pub struct Ledger {
    ops: RefCell<BTreeMap<&'static str, OpStats>>,
    /// Host time spent polling client calls, all methods together.
    client_ns: Cell<u64>,
    field_calls: Cell<u64>,
    /// Host time spent polling `FieldStore` calls, nested client calls
    /// included.
    field_ns: Cell<u64>,
    /// The part of `field_ns` spent inside nested client calls.
    field_nested_ns: Cell<u64>,
}

impl Ledger {
    pub fn clear(&self) {
        self.ops.borrow_mut().clear();
        self.client_ns.set(0);
        self.field_calls.set(0);
        self.field_ns.set(0);
        self.field_nested_ns.set(0);
    }

    pub fn client_ns(&self) -> u64 {
        self.client_ns.get()
    }

    pub fn field_calls(&self) -> u64 {
        self.field_calls.get()
    }

    /// `core.fieldio` self time: poll time minus nested client time.
    pub fn field_self_ns(&self) -> u64 {
        self.field_ns
            .get()
            .saturating_sub(self.field_nested_ns.get())
    }

    /// The ledger's per-layer metrics: `core.fieldio.*`, and for each of
    /// [`FIELD_OPS`] `<layer>.<op>.{calls,host_s,failed}`, plus the
    /// simulated `sim_p50_us`/`sim_p99_us` when `simulated`.
    pub fn metrics(&self, layer: &str, simulated: bool) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert("core.fieldio.calls".into(), self.field_calls() as f64);
        m.insert(
            "core.fieldio.self_s".into(),
            self.field_self_ns() as f64 / 1e9,
        );
        let ops = self.ops.borrow();
        for op in FIELD_OPS {
            let s = ops.get(op).cloned().unwrap_or_default();
            m.insert(format!("{layer}.{op}.calls"), s.calls as f64);
            m.insert(format!("{layer}.{op}.host_s"), s.host_ns as f64 / 1e9);
            m.insert(format!("{layer}.{op}.failed"), s.failed as f64);
            if simulated {
                let mut lat = s.sim_ns;
                lat.sort_unstable();
                m.insert(
                    format!("{layer}.{op}.sim_p50_us"),
                    quantile(&lat, 0.50) / 1e3,
                );
                m.insert(
                    format!("{layer}.{op}.sim_p99_us"),
                    quantile(&lat, 0.99) / 1e3,
                );
            }
        }
        m
    }

    /// Folds another thread's ledger into this one.
    pub fn absorb(&self, other: &Ledger) {
        let mut ops = self.ops.borrow_mut();
        for (name, s) in other.ops.borrow().iter() {
            let e = ops.entry(name).or_default();
            e.calls += s.calls;
            e.failed += s.failed;
            e.host_ns += s.host_ns;
            e.sim_ns.extend_from_slice(&s.sim_ns);
        }
        self.client_ns
            .set(self.client_ns.get() + other.client_ns.get());
        self.field_calls
            .set(self.field_calls.get() + other.field_calls.get());
        self.field_ns
            .set(self.field_ns.get() + other.field_ns.get());
        self.field_nested_ns
            .set(self.field_nested_ns.get() + other.field_nested_ns.get());
    }
}

/// Awaits `fut`, returning its output and the host nanoseconds spent
/// polling it. With a ledger, the call is also booked as one
/// `core.fieldio` call.
pub async fn polled<F: Future>(ledger: Option<&Ledger>, fut: F) -> (F::Output, u64) {
    let mut fut = pin!(fut);
    let mut host_ns = 0u64;
    let out = poll_fn(|cx| {
        let nested_before = ledger.map_or(0, Ledger::client_ns);
        let t0 = Instant::now();
        let r = fut.as_mut().poll(cx);
        let dt = t0.elapsed().as_nanos() as u64;
        host_ns += dt;
        if let Some(l) = ledger {
            l.field_ns.set(l.field_ns.get() + dt);
            l.field_nested_ns
                .set(l.field_nested_ns.get() + l.client_ns() - nested_before);
        }
        r
    })
    .await;
    if let Some(l) = ledger {
        l.field_calls.set(l.field_calls.get() + 1);
    }
    (out, host_ns)
}

/// Forwarding `DaosApi` wrapper that books every call in a [`Ledger`].
#[derive(Clone)]
pub struct Traced<D> {
    inner: D,
    ledger: Rc<Ledger>,
    /// The simulation clock, on the simulated backend.
    sim: Option<Sim>,
}

impl<D: DaosApi> Traced<D> {
    pub fn new(inner: D, ledger: Rc<Ledger>, sim: Option<Sim>) -> Self {
        Traced { inner, ledger, sim }
    }

    async fn call<T>(&self, op: &'static str, fut: impl Future<Output = Result<T>>) -> Result<T> {
        let start = self.sim.as_ref().map(|s| s.now().as_nanos());
        let ledger = &self.ledger;
        let mut fut = pin!(fut);
        let mut host_ns = 0u64;
        let out = poll_fn(|cx| {
            let t0 = Instant::now();
            let r = fut.as_mut().poll(cx);
            let dt = t0.elapsed().as_nanos() as u64;
            host_ns += dt;
            ledger.client_ns.set(ledger.client_ns.get() + dt);
            r
        })
        .await;
        let mut ops = ledger.ops.borrow_mut();
        let s = ops.entry(op).or_default();
        s.calls += 1;
        s.host_ns += host_ns;
        if out.is_err() {
            s.failed += 1;
        } else if let (Some(sim), Some(start)) = (&self.sim, start) {
            s.sim_ns.push(sim.now().as_nanos() - start);
        }
        out
    }
}

impl<D: DaosApi> DaosApi for Traced<D> {
    type Cont = D::Cont;

    async fn cont_open_or_create(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.call("cont_open_or_create", self.inner.cont_open_or_create(uuid))
            .await
    }

    async fn cont_open(&self, uuid: Uuid) -> Result<Self::Cont> {
        self.call("cont_open", self.inner.cont_open(uuid)).await
    }

    async fn kv_put(&self, cont: &Self::Cont, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        self.call("kv_put", self.inner.kv_put(cont, oid, key, value))
            .await
    }

    async fn kv_put_multi(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        pairs: Vec<(Bytes, Bytes)>,
    ) -> Result<()> {
        self.call("kv_put_multi", self.inner.kv_put_multi(cont, oid, pairs))
            .await
    }

    async fn kv_get(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        self.call("kv_get", self.inner.kv_get(cont, oid, key)).await
    }

    async fn kv_put_if_absent(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        key: &[u8],
        value: Bytes,
    ) -> Result<Option<Bytes>> {
        self.call(
            "kv_put_if_absent",
            self.inner.kv_put_if_absent(cont, oid, key, value),
        )
        .await
    }

    async fn kv_remove(&self, cont: &Self::Cont, oid: Oid, key: &[u8]) -> Result<()> {
        self.call("kv_remove", self.inner.kv_remove(cont, oid, key))
            .await
    }

    async fn kv_list_keys(&self, cont: &Self::Cont, oid: Oid) -> Result<Vec<Bytes>> {
        self.call("kv_list_keys", self.inner.kv_list_keys(cont, oid))
            .await
    }

    async fn kv_list_range(
        &self,
        cont: &Self::Cont,
        oid: Oid,
        from: Bytes,
        until: Option<Bytes>,
    ) -> Result<Vec<Bytes>> {
        self.call(
            "kv_list_range",
            self.inner.kv_list_range(cont, oid, from, until),
        )
        .await
    }

    async fn array_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.call("array_create", self.inner.array_create(cont, oid))
            .await
    }

    async fn array_open(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.call("array_open", self.inner.array_open(cont, oid))
            .await
    }

    async fn array_open_or_create(&self, cont: &Self::Cont, oid: Oid) -> Result<ArrayHandle> {
        self.call(
            "array_open_or_create",
            self.inner.array_open_or_create(cont, oid),
        )
        .await
    }

    async fn array_write(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        data: Bytes,
    ) -> Result<()> {
        self.call(
            "array_write",
            self.inner.array_write(cont, handle, offset, data),
        )
        .await
    }

    async fn array_write_vec(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        iovs: Vec<(u64, Bytes)>,
    ) -> Result<()> {
        self.call(
            "array_write_vec",
            self.inner.array_write_vec(cont, handle, iovs),
        )
        .await
    }

    async fn array_read(
        &self,
        cont: &Self::Cont,
        handle: &ArrayHandle,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        self.call(
            "array_read",
            self.inner.array_read(cont, handle, offset, len),
        )
        .await
    }

    async fn array_size(&self, cont: &Self::Cont, handle: &ArrayHandle) -> Result<u64> {
        self.call("array_size", self.inner.array_size(cont, handle))
            .await
    }

    async fn array_close(&self, cont: &Self::Cont, handle: ArrayHandle) -> Result<()> {
        self.call("array_close", self.inner.array_close(cont, handle))
            .await
    }

    async fn obj_punch(&self, cont: &Self::Cont, oid: Oid) -> Result<()> {
        self.call("obj_punch", self.inner.obj_punch(cont, oid))
            .await
    }

    async fn list_array_objects(&self, cont: &Self::Cont) -> Result<Vec<Oid>> {
        self.call("list_array_objects", self.inner.list_array_objects(cont))
            .await
    }

    fn pool_targets(&self) -> u32 {
        self.inner.pool_targets()
    }

    fn spawn_op(&self, op: OpFuture) {
        self.inner.spawn_op(op)
    }
}
