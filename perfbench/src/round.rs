//! One measured round of a workload, and the small helpers every
//! workload uses to fill it in.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use std::sync::Arc;

use bytes::Bytes;
use daosim_core::fieldio::{FieldIoConfig, FieldStore};
use daosim_core::key::FieldKey;
use daosim_objstore::prelude::EmbeddedClient;
use daosim_objstore::Pool;

/// Everything one round of a workload reports.
#[derive(Default)]
pub struct Round {
    /// Host seconds to build the deployment or pool and connect every
    /// client.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Field writes plus reads attempted and failed in the timed phase.
    pub attempted: u64,
    pub failed: u64,
    /// Host nanoseconds per write / read call; [`Round::summarize`]
    /// folds them into `latency_us` and frees them.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Write p50, write p99, read p50, read p99 of this round, in µs.
    pub latency_us: [f64; 4],
    /// Hash of the simulated per-op stamps and the registry (DES only).
    pub digest: Option<u64>,
    /// Per-layer and `model.*` metrics.
    pub layers: BTreeMap<String, f64>,
}

impl Round {
    /// Replaces the per-call samples by their quantiles, so a run's
    /// memory does not grow with the number of rounds it fits in.
    pub fn summarize(&mut self) {
        for (i, v) in [&mut self.write_ns, &mut self.read_ns]
            .into_iter()
            .enumerate()
        {
            v.sort_unstable();
            self.latency_us[2 * i] = quantile(v, 0.50) / 1e3;
            self.latency_us[2 * i + 1] = quantile(v, 0.99) / 1e3;
            *v = Vec::new();
        }
    }
}

/// The median of the best tenth (at least one) of `values`: the
/// smallest values when `lower_is_better`, else the largest.
///
/// The benchmark shares its host, whose speed swings by ±20 % within
/// seconds while other tenants run. Rounds of one run do identical work,
/// so the spread between them is the host's. Each host-time statistic is
/// taken over its best tenth of rounds — the rounds the host did not
/// slow — which repeats far better across runs than the median of all
/// rounds.
pub fn best_tenth(values: impl IntoIterator<Item = f64>, lower_is_better: bool) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(10));
    median(&v)
}

/// One acknowledged field: its key and the bytes it must read back as.
pub struct Acked {
    pub key: FieldKey,
    pub data: Bytes,
}

/// After-run checks: every acknowledged field reads back byte-exact
/// (through an embedded client over the pool — on the DES workloads the
/// deployment's own pool, so no simulated time is spent), and the pool
/// has charged at least every acknowledged payload byte. `written_bytes`
/// counts every acknowledged write, re-writes included — the store never
/// refunds.
pub fn verify(
    pool: &Arc<Pool>,
    cfg: &FieldIoConfig,
    latest: &[Acked],
    written_bytes: u64,
) -> Result<(), String> {
    let fs = block_on(FieldStore::connect(
        EmbeddedClient::new(Arc::clone(pool)),
        cfg.clone(),
        u32::MAX,
    ))
    .map_err(|e| format!("verify connect: {e}"))?;
    for a in latest {
        let got =
            block_on(fs.read_field(&a.key)).map_err(|e| format!("verify read {}: {e}", a.key))?;
        if got != a.data {
            return Err(format!("field {} read back different bytes", a.key));
        }
    }
    if pool.used() < written_bytes {
        return Err(format!(
            "pool used {} < acknowledged payload bytes {written_bytes}",
            pool.used()
        ));
    }
    Ok(())
}

/// The pool's object-store work counts (`Pool::op_counts`).
pub fn pool_metrics(pool: &Pool) -> BTreeMap<String, f64> {
    let c = pool.op_counts();
    BTreeMap::from([
        ("objstore.kv_updates".into(), c.kv_updates as f64),
        ("objstore.kv_fetches".into(), c.kv_fetches as f64),
        ("objstore.array_updates".into(), c.array_updates as f64),
        ("objstore.array_fetches".into(), c.array_fetches as f64),
    ])
}

/// Drives a future of the embedded backend, which never suspends.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut cx = Context::from_waker(Waker::noop());
    let mut fut = pin!(fut);
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        std::thread::yield_now();
    }
}

/// Nearest-rank quantile of sorted `v` (0 when empty).
pub fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// FNV-1a over everything fed to it.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
