//! # daosim-media — two-tier SCM + NVMe storage timing model
//!
//! Models the storage media of a DAOS server node. The paper's
//! NEXTGenIO testbed is SCM-only (six first-generation Intel Optane DC
//! Persistent Memory Modules per socket, AppDirect-interleaved), and
//! [`TargetMedia`] keeps that single-tier model bit-for-bit. Production
//! DAOS adds an NVMe capacity tier behind the persistent-memory write
//! buffer: small/recent writes land in SCM, large writes go straight to
//! NVMe, and a background *aggregation* service migrates cold extents
//! SCM→NVMe once the write buffer passes a watermark. [`TieredMedia`]
//! models that regime (DESIGN.md §14).
//!
//! The timing model is deliberately simple: a socket's media tier has an
//! aggregate read and write bandwidth and a fixed access latency; a DAOS
//! *target* owns a static `1/targets` share of its socket's bandwidth
//! (matching DAOS's target-per-dedicated-thread-group design). Media
//! access time for a request is `latency + bytes / target_share`.
//! Contention between targets of one engine is therefore captured by the
//! static partition; queueing *within* a target is modelled by the
//! caller's per-target FIFO service queue.
//!
//! Unlike the seed model, capacity is *real* here: every write charges
//! the occupancy of the tier it lands in, and a write that finds every
//! eligible tier full fails with [`MediaFull`] (surfaced as the
//! permanent `DaosError::NoSpace` by the cluster layer). Occupancy is
//! charged in media granules (256 B XPLines on SCM, 4 KiB pages on
//! NVMe) so the byte-conservation invariant checked by the fuzz harness
//! is exact integer arithmetic: `scm_used = scm_landed − aggregated_out`
//! and `nvme_used = nvme_landed + aggregated_in`, always.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::task::{Poll, Waker};

use daosim_kernel::SimDuration;

/// One GiB in bytes, as a float.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Optane writes happen internally at 256-byte "XPLine" granularity;
/// sub-line updates pay a read-modify-write. We fold that into latency,
/// but expose the constant for documentation and capacity rounding.
pub const XPLINE: u64 = 256;

/// NVMe occupancy and write charging round to 4 KiB flash pages.
pub const NVME_PAGE: u64 = 4096;

/// Media characteristics of one socket's interleaved SCM region.
#[derive(Clone, Copy, Debug)]
pub struct ScmSpec {
    /// Aggregate sequential read bandwidth per socket, GiB/s.
    pub read_gib: f64,
    /// Aggregate sequential write bandwidth per socket, GiB/s.
    pub write_gib: f64,
    /// Read access latency (media + controller).
    pub read_latency: SimDuration,
    /// Write (ADR-flush visible) latency.
    pub write_latency: SimDuration,
    /// Capacity per socket in bytes (6 × 256 GiB on NEXTGenIO).
    pub capacity: u64,
}

impl ScmSpec {
    /// First-generation Optane DCPMM, 6 × 256 GiB interleaved per socket.
    pub fn optane_gen1() -> Self {
        ScmSpec {
            read_gib: 37.0,
            write_gib: 13.0,
            read_latency: SimDuration::from_nanos(320),
            write_latency: SimDuration::from_nanos(100),
            capacity: 6 * 256 * 1024 * 1024 * 1024,
        }
    }
}

impl Default for ScmSpec {
    fn default() -> Self {
        Self::optane_gen1()
    }
}

/// Media characteristics of one socket's NVMe capacity tier.
#[derive(Clone, Copy, Debug)]
pub struct NvmeSpec {
    /// Aggregate sequential read bandwidth per socket, GiB/s.
    pub read_gib: f64,
    /// Aggregate sequential write bandwidth per socket, GiB/s.
    pub write_gib: f64,
    /// Read access latency (queue + flash translation + media).
    pub read_latency: SimDuration,
    /// Write (power-loss-protected buffer) latency.
    pub write_latency: SimDuration,
    /// Capacity per socket in bytes.
    pub capacity: u64,
}

impl NvmeSpec {
    /// Four Intel DC P4510 (gen-1 data-centre NVMe, ~3.2/3.0 GB/s
    /// sequential per drive) behind one socket: aggregate ~11.9 GiB/s
    /// read, ~11.2 GiB/s write, 4 × 4 TiB capacity. Latencies are the
    /// published sequential access numbers (reads pay the flash path,
    /// writes land in the capacitor-backed buffer). See the DESIGN.md
    /// §14 calibration table.
    pub fn p4510_gen1() -> Self {
        NvmeSpec {
            read_gib: 11.9,
            write_gib: 11.2,
            read_latency: SimDuration::from_micros(85),
            write_latency: SimDuration::from_micros(25),
            capacity: 4 * 4 * 1024 * 1024 * 1024 * 1024,
        }
    }
}

impl Default for NvmeSpec {
    fn default() -> Self {
        Self::p4510_gen1()
    }
}

/// A structurally invalid media configuration, reported at construction
/// instead of panicking deep inside a deployment (the PR 8 zero-shape
/// pattern: `daosctl` maps these onto `BadArgs` usage errors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MediaConfigError {
    /// `targets_per_socket` was zero — a socket needs at least one target.
    ZeroTargets,
    /// Watermarks must satisfy `0 < low < high <= 1`.
    BadWatermarks { low: f64, high: f64 },
}

impl fmt::Display for MediaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaConfigError::ZeroTargets => {
                write!(f, "media config: need at least one target per socket")
            }
            MediaConfigError::BadWatermarks { low, high } => write!(
                f,
                "media config: watermarks must satisfy 0 < low < high <= 1, got low={low} high={high}"
            ),
        }
    }
}

impl std::error::Error for MediaConfigError {}

/// The static bandwidth share of one DAOS target within a socket's SCM
/// region. This is the paper's single-tier model, kept verbatim as the
/// SCM leg of [`TieredMedia`].
#[derive(Clone, Copy, Debug)]
pub struct TargetMedia {
    spec: ScmSpec,
    targets_per_socket: u32,
}

impl TargetMedia {
    pub fn new(spec: ScmSpec, targets_per_socket: u32) -> Result<Self, MediaConfigError> {
        if targets_per_socket == 0 {
            return Err(MediaConfigError::ZeroTargets);
        }
        Ok(TargetMedia {
            spec,
            targets_per_socket,
        })
    }

    pub fn spec(&self) -> &ScmSpec {
        &self.spec
    }

    /// Bandwidth available to this target for reads, GiB/s.
    pub fn read_share_gib(&self) -> f64 {
        self.spec.read_gib / self.targets_per_socket as f64
    }

    /// Bandwidth available to this target for writes, GiB/s.
    pub fn write_share_gib(&self) -> f64 {
        self.spec.write_gib / self.targets_per_socket as f64
    }

    /// Service time to read `bytes` from this target's media share.
    /// Saturates to [`SimDuration::MAX`] for astronomical byte counts
    /// instead of panicking.
    pub fn read_time(&self, bytes: u64) -> SimDuration {
        self.spec
            .read_latency
            .saturating_add(SimDuration::saturating_from_secs_f64(
                bytes as f64 / (self.read_share_gib() * GIB),
            ))
    }

    /// Service time to persist `bytes` to this target's media share.
    /// The XPLine rounding and the transfer-time conversion both
    /// saturate: `write_time(u64::MAX)` is a (huge) duration, not a
    /// panic.
    pub fn write_time(&self, bytes: u64) -> SimDuration {
        let lines = bytes.div_ceil(XPLINE).saturating_mul(XPLINE);
        self.spec
            .write_latency
            .saturating_add(SimDuration::saturating_from_secs_f64(
                lines as f64 / (self.write_share_gib() * GIB),
            ))
    }

    /// Capacity of this target's media slice, in bytes.
    pub fn capacity(&self) -> u64 {
        self.spec.capacity / self.targets_per_socket as u64
    }
}

/// Which tier a write landed in (or a read was served from).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Scm,
    Nvme,
}

/// Tier-placement policy for a [`TieredMedia`] target.
///
/// `scm_threshold` follows the DAOS VOS rule of thumb: writes at or
/// below the threshold land in the SCM write buffer, larger writes
/// stream straight to NVMe (when an NVMe tier exists). The watermarks
/// drive aggregation hysteresis as fractions of the SCM slice: once
/// occupancy exceeds `high_watermark` the aggregation service starts
/// migrating cold extents to NVMe, and keeps going until occupancy
/// drops below `low_watermark`.
#[derive(Clone, Copy, Debug)]
pub struct TierPolicy {
    /// The NVMe capacity tier; `None` models the paper's SCM-only testbed.
    pub nvme: Option<NvmeSpec>,
    /// Writes of at most this many bytes prefer the SCM write buffer.
    pub scm_threshold: u64,
    /// Aggregation starts above this fraction of SCM capacity.
    pub high_watermark: f64,
    /// Aggregation stops below this fraction of SCM capacity.
    pub low_watermark: f64,
}

impl TierPolicy {
    /// The paper's configuration: SCM only, no NVMe, no aggregation.
    pub fn scm_only() -> Self {
        TierPolicy {
            nvme: None,
            scm_threshold: 4096,
            high_watermark: 0.75,
            low_watermark: 0.50,
        }
    }

    /// Production-style two-tier configuration with default watermarks.
    pub fn tiered() -> Self {
        TierPolicy {
            nvme: Some(NvmeSpec::p4510_gen1()),
            ..Self::scm_only()
        }
    }

    pub fn validate(&self) -> Result<(), MediaConfigError> {
        let (low, high) = (self.low_watermark, self.high_watermark);
        let ok = low > 0.0 && low < high && high <= 1.0 && low.is_finite() && high.is_finite();
        if !ok {
            return Err(MediaConfigError::BadWatermarks { low, high });
        }
        Ok(())
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        Self::scm_only()
    }
}

/// Every eligible tier of a target is full: `requested` bytes could not
/// be placed. The cluster layer surfaces this as the permanent
/// `DaosError::NoSpace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediaFull {
    pub requested: u64,
    pub scm_free: u64,
    pub nvme_free: u64,
}

impl fmt::Display for MediaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "media full: {} bytes requested, {} free on SCM, {} free on NVMe",
            self.requested, self.scm_free, self.nvme_free
        )
    }
}

/// Receipt for a successful [`TieredMedia::charge_write`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteCharge {
    /// The tier the extent landed in.
    pub tier: Tier,
    /// Granule-rounded bytes charged against that tier's occupancy.
    pub charged: u64,
    /// Media service time for the write on that tier.
    pub time: SimDuration,
}

/// One planned aggregation migration step (not yet committed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggregationStep {
    /// Source bytes to move out of SCM.
    pub bytes: u64,
    /// Media time to read the extents from the SCM share.
    pub scm_read: SimDuration,
    /// Media time to persist them on the NVMe share.
    pub nvme_write: SimDuration,
}

/// Snapshot of a target's tier-occupancy accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Bytes currently resident in the SCM write buffer.
    pub scm_used: u64,
    /// Bytes currently resident on NVMe.
    pub nvme_used: u64,
    /// Foreground bytes ever landed in SCM (granule-rounded).
    pub scm_landed: u64,
    /// Foreground bytes ever landed directly on NVMe (granule-rounded).
    pub nvme_landed: u64,
    /// Bytes migrated out of SCM by aggregation.
    pub aggregated_out: u64,
    /// Page-rounded bytes landed on NVMe by aggregation.
    pub aggregated_in: u64,
}

impl TierCounts {
    /// The byte-conservation invariant checked by the fuzz harness:
    /// foreground bytes ± migrated bytes account exactly for the tier
    /// occupancy deltas.
    pub fn conserved(&self) -> bool {
        self.scm_landed.checked_sub(self.aggregated_out) == Some(self.scm_used)
            && self.nvme_landed.checked_add(self.aggregated_in) == Some(self.nvme_used)
    }
}

/// One DAOS target's two-tier media: an SCM write-buffer share plus an
/// optional NVMe capacity share, with real occupancy accounting.
///
/// With `policy.nvme == None` and nothing migrated, every timing method
/// returns exactly what the single-tier [`TargetMedia`] returns — the
/// paper-calibrated artifacts are bit-identical across the upgrade.
#[derive(Debug)]
pub struct TieredMedia {
    scm: TargetMedia,
    policy: TierPolicy,
    targets_per_socket: u32,
    scm_used: Cell<u64>,
    nvme_used: Cell<u64>,
    scm_landed: Cell<u64>,
    nvme_landed: Cell<u64>,
    aggregated_out: Cell<u64>,
    aggregated_in: Cell<u64>,
    /// Hysteresis latch: true while occupancy is being drained from the
    /// high watermark down to the low one.
    agg_active: Cell<bool>,
    /// The aggregation service, parked in
    /// [`TieredMedia::aggregation_needed`] until a write makes work.
    parked: RefCell<Option<Waker>>,
}

impl TieredMedia {
    pub fn new(
        scm: ScmSpec,
        policy: TierPolicy,
        targets_per_socket: u32,
    ) -> Result<Self, MediaConfigError> {
        policy.validate()?;
        Ok(TieredMedia {
            scm: TargetMedia::new(scm, targets_per_socket)?,
            policy,
            targets_per_socket,
            scm_used: Cell::new(0),
            nvme_used: Cell::new(0),
            scm_landed: Cell::new(0),
            nvme_landed: Cell::new(0),
            aggregated_out: Cell::new(0),
            aggregated_in: Cell::new(0),
            agg_active: Cell::new(false),
            parked: RefCell::new(None),
        })
    }

    /// The paper's SCM-only configuration.
    pub fn scm_only(scm: ScmSpec, targets_per_socket: u32) -> Result<Self, MediaConfigError> {
        Self::new(scm, TierPolicy::scm_only(), targets_per_socket)
    }

    /// The SCM leg (paper-identical single-tier timing).
    pub fn scm(&self) -> &TargetMedia {
        &self.scm
    }

    pub fn policy(&self) -> &TierPolicy {
        &self.policy
    }

    /// Capacity of this target's SCM slice, in bytes.
    pub fn scm_capacity(&self) -> u64 {
        self.scm.capacity()
    }

    /// Capacity of this target's NVMe slice, in bytes (0 when SCM-only).
    pub fn nvme_capacity(&self) -> u64 {
        self.policy
            .nvme
            .map_or(0, |n| n.capacity / self.targets_per_socket as u64)
    }

    fn nvme_read_share_gib(&self, n: &NvmeSpec) -> f64 {
        n.read_gib / self.targets_per_socket as f64
    }

    fn nvme_write_share_gib(&self, n: &NvmeSpec) -> f64 {
        n.write_gib / self.targets_per_socket as f64
    }

    /// Service time to read `bytes` from this target's NVMe share.
    pub fn nvme_read_time(&self, bytes: u64) -> SimDuration {
        let Some(n) = self.policy.nvme.as_ref() else {
            return SimDuration::ZERO;
        };
        n.read_latency
            .saturating_add(SimDuration::saturating_from_secs_f64(
                bytes as f64 / (self.nvme_read_share_gib(n) * GIB),
            ))
    }

    /// Service time to persist `bytes` on this target's NVMe share
    /// (page-rounded, like XPLine rounding on SCM).
    pub fn nvme_write_time(&self, bytes: u64) -> SimDuration {
        let Some(n) = self.policy.nvme.as_ref() else {
            return SimDuration::ZERO;
        };
        let pages = bytes.div_ceil(NVME_PAGE).saturating_mul(NVME_PAGE);
        n.write_latency
            .saturating_add(SimDuration::saturating_from_secs_f64(
                pages as f64 / (self.nvme_write_share_gib(n) * GIB),
            ))
    }

    /// Place a write, charge the receiving tier's occupancy, and return
    /// the tier-correct media service time. Placement follows the DAOS
    /// rule: writes at or below `scm_threshold` prefer the SCM buffer,
    /// larger ones prefer NVMe; a full preferred tier spills to the
    /// other; both full is [`MediaFull`].
    pub fn charge_write(&self, bytes: u64) -> Result<WriteCharge, MediaFull> {
        let scm_need = bytes.div_ceil(XPLINE).saturating_mul(XPLINE);
        let nvme_need = bytes.div_ceil(NVME_PAGE).saturating_mul(NVME_PAGE);
        let scm_fits = self
            .scm_used
            .get()
            .checked_add(scm_need)
            .is_some_and(|used| used <= self.scm_capacity());
        let nvme_fits = self.policy.nvme.is_some()
            && self
                .nvme_used
                .get()
                .checked_add(nvme_need)
                .is_some_and(|used| used <= self.nvme_capacity());

        let prefer_scm = self.policy.nvme.is_none() || bytes <= self.policy.scm_threshold;
        let tier = match (prefer_scm, scm_fits, nvme_fits) {
            (true, true, _) => Tier::Scm,
            (true, false, true) => Tier::Nvme,
            (false, _, true) => Tier::Nvme,
            (false, true, false) => Tier::Scm,
            (_, false, false) => {
                return Err(MediaFull {
                    requested: bytes,
                    scm_free: self.scm_capacity().saturating_sub(self.scm_used.get()),
                    nvme_free: self.nvme_capacity().saturating_sub(self.nvme_used.get()),
                })
            }
        };
        Ok(match tier {
            Tier::Scm => {
                self.scm_used.set(self.scm_used.get() + scm_need);
                self.scm_landed.set(self.scm_landed.get() + scm_need);
                let parked = self
                    .parked
                    .borrow_mut()
                    .take_if(|_| self.needs_aggregation());
                if let Some(w) = parked {
                    w.wake();
                }
                WriteCharge {
                    tier,
                    charged: scm_need,
                    time: self.scm.write_time(bytes),
                }
            }
            Tier::Nvme => {
                self.nvme_used.set(self.nvme_used.get() + nvme_need);
                self.nvme_landed.set(self.nvme_landed.get() + nvme_need);
                WriteCharge {
                    tier,
                    charged: nvme_need,
                    time: self.nvme_write_time(bytes),
                }
            }
        })
    }

    /// Service time to read `bytes` back from this target. The fraction
    /// of the read served from NVMe equals the NVMe share of resident
    /// bytes (deterministic integer split); the remainder pays SCM time.
    /// With nothing on NVMe this is exactly [`TargetMedia::read_time`].
    pub fn read_time(&self, bytes: u64) -> SimDuration {
        let nvme_used = self.nvme_used.get();
        if nvme_used == 0 {
            return self.scm.read_time(bytes);
        }
        let total = self.scm_used.get() + nvme_used;
        let nvme_bytes = ((bytes as u128 * nvme_used as u128) / total as u128) as u64;
        let scm_bytes = bytes - nvme_bytes;
        match (scm_bytes, nvme_bytes) {
            (_, 0) => self.scm.read_time(bytes),
            (0, _) => self.nvme_read_time(bytes),
            _ => self
                .scm
                .read_time(scm_bytes)
                .saturating_add(self.nvme_read_time(nvme_bytes)),
        }
    }

    /// True when [`TieredMedia::plan_aggregation`] would return a step
    /// (for any nonzero chunk): there is an NVMe tier with a free page,
    /// and SCM occupancy has crossed the high watermark and not yet
    /// drained below the low one.
    pub fn needs_aggregation(&self) -> bool {
        let mark = if self.agg_active.get() {
            self.low_mark()
        } else {
            self.high_mark()
        };
        self.policy.nvme.is_some() && self.scm_used.get() > mark && self.nvme_headroom() > 0
    }

    /// Resolves once [`TieredMedia::needs_aggregation`] holds. The
    /// aggregation service parks here between drains, and the SCM write
    /// that makes work wakes it. One waiter per target.
    pub fn aggregation_needed(&self) -> impl Future<Output = ()> + '_ {
        std::future::poll_fn(move |cx| {
            if self.needs_aggregation() {
                return Poll::Ready(());
            }
            *self.parked.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        })
    }

    /// NVMe's free bytes, rounded down to whole pages.
    fn nvme_headroom(&self) -> u64 {
        let free = self.nvme_capacity().saturating_sub(self.nvme_used.get());
        free / NVME_PAGE * NVME_PAGE
    }

    fn high_mark(&self) -> u64 {
        (self.scm_capacity() as f64 * self.policy.high_watermark) as u64
    }

    fn low_mark(&self) -> u64 {
        (self.scm_capacity() as f64 * self.policy.low_watermark) as u64
    }

    /// Plan the next aggregation migration of at most `chunk_bytes`,
    /// applying watermark hysteresis. Returns `None` when there is no
    /// NVMe tier, occupancy is outside the active band, or NVMe has no
    /// page-aligned headroom left. Planning does not mutate occupancy —
    /// the caller sleeps through the media time (holding the target's
    /// service queue, so migration contends with foreground I/O) and
    /// then calls [`TieredMedia::commit_aggregation`].
    pub fn plan_aggregation(&self, chunk_bytes: u64) -> Option<AggregationStep> {
        self.policy.nvme.as_ref()?;
        let used = self.scm_used.get();
        if !self.agg_active.get() {
            if used <= self.high_mark() {
                return None;
            }
            self.agg_active.set(true);
        } else if used <= self.low_mark() {
            self.agg_active.set(false);
            return None;
        }
        let want = chunk_bytes.min(used.saturating_sub(self.low_mark()));
        // Cap at NVMe's page-aligned headroom so the page-rounded landing
        // always fits.
        let moved = want.min(self.nvme_headroom());
        if moved == 0 {
            return None;
        }
        Some(AggregationStep {
            bytes: moved,
            scm_read: self.scm.read_time(moved),
            nvme_write: self.nvme_write_time(moved),
        })
    }

    /// Commit a migration planned by [`TieredMedia::plan_aggregation`]:
    /// move up to `bytes` out of SCM into NVMe (page-rounded on the
    /// receiving side) and return the source bytes actually moved.
    /// Clamped against occupancy so interleaved foreground traffic
    /// between plan and commit can never drive a counter negative.
    pub fn commit_aggregation(&self, bytes: u64) -> u64 {
        let moved = bytes.min(self.scm_used.get());
        if moved == 0 {
            return 0;
        }
        let landed = moved
            .div_ceil(NVME_PAGE)
            .saturating_mul(NVME_PAGE)
            .min(self.nvme_capacity().saturating_sub(self.nvme_used.get()));
        self.scm_used.set(self.scm_used.get() - moved);
        self.aggregated_out.set(self.aggregated_out.get() + moved);
        self.nvme_used.set(self.nvme_used.get() + landed);
        self.aggregated_in.set(self.aggregated_in.get() + landed);
        moved
    }

    /// Bytes currently resident in the SCM write buffer.
    pub fn scm_used(&self) -> u64 {
        self.scm_used.get()
    }

    /// Bytes currently resident on NVMe.
    pub fn nvme_used(&self) -> u64 {
        self.nvme_used.get()
    }

    /// Total bytes aggregation has migrated out of SCM.
    pub fn aggregated_bytes(&self) -> u64 {
        self.aggregated_out.get()
    }

    /// Snapshot of the occupancy accounting.
    pub fn tier_counts(&self) -> TierCounts {
        TierCounts {
            scm_used: self.scm_used.get(),
            nvme_used: self.nvme_used.get(),
            scm_landed: self.scm_landed.get(),
            nvme_landed: self.nvme_landed.get(),
            aggregated_out: self.aggregated_out.get(),
            aggregated_in: self.aggregated_in.get(),
        }
    }

    /// The byte-conservation invariant (see [`TierCounts::conserved`]).
    pub fn conservation_ok(&self) -> bool {
        self.tier_counts().conserved()
    }
}

/// Running totals of media operations served by one target. The cluster
/// layer bumps these as it charges service time; snapshots feed the
/// per-engine `media.*` metrics of the observability registry.
#[derive(Default, Debug)]
pub struct MediaTally {
    reads: Cell<u64>,
    writes: Cell<u64>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
}

/// Point-in-time copy of a [`MediaTally`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediaCounts {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl MediaTally {
    pub fn note_read(&self, bytes: u64) {
        self.reads.set(self.reads.get() + 1);
        self.bytes_read.set(self.bytes_read.get() + bytes);
    }

    pub fn note_write(&self, bytes: u64) {
        self.writes.set(self.writes.get() + 1);
        self.bytes_written.set(self.bytes_written.get() + bytes);
    }

    pub fn counts(&self) -> MediaCounts {
        MediaCounts {
            reads: self.reads.get(),
            writes: self.writes.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scm(tps: u32) -> TargetMedia {
        TargetMedia::new(ScmSpec::optane_gen1(), tps).unwrap()
    }

    #[test]
    fn tally_accumulates_ops_and_bytes() {
        let t = MediaTally::default();
        t.note_read(100);
        t.note_write(40);
        t.note_write(60);
        assert_eq!(
            t.counts(),
            MediaCounts {
                reads: 1,
                writes: 2,
                bytes_read: 100,
                bytes_written: 100,
            }
        );
    }

    #[test]
    fn shares_partition_socket_bandwidth() {
        let t = scm(12);
        assert!((t.read_share_gib() * 12.0 - 37.0).abs() < 1e-9);
        assert!((t.write_share_gib() * 12.0 - 13.0).abs() < 1e-9);
    }

    #[test]
    fn read_time_scales_with_bytes() {
        let t = scm(1);
        // 37 GiB at 37 GiB/s = 1 s (+latency).
        let d = t.read_time((37.0 * GIB) as u64);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-6, "{d:?}");
        // Zero bytes costs exactly the latency.
        assert_eq!(t.read_time(0), t.spec().read_latency);
    }

    #[test]
    fn write_time_rounds_to_xplines() {
        let t = scm(1);
        // 1 byte is charged as a full 256-byte line.
        assert_eq!(t.write_time(1), t.write_time(256));
        assert!(t.write_time(257) > t.write_time(256));
    }

    #[test]
    fn writes_slower_than_reads() {
        let t = scm(12);
        let b = 1024 * 1024;
        assert!(t.write_time(b) > t.read_time(b));
    }

    #[test]
    fn capacity_divides() {
        let t = scm(12);
        assert_eq!(t.capacity(), 6 * 256 * 1024 * 1024 * 1024 / 12);
    }

    #[test]
    fn zero_targets_is_a_typed_error() {
        assert_eq!(
            TargetMedia::new(ScmSpec::optane_gen1(), 0).unwrap_err(),
            MediaConfigError::ZeroTargets
        );
        assert_eq!(
            TieredMedia::scm_only(ScmSpec::optane_gen1(), 0).unwrap_err(),
            MediaConfigError::ZeroTargets
        );
    }

    #[test]
    fn write_time_u64_max_saturates_instead_of_panicking() {
        // Regression: `div_ceil(XPLINE) * XPLINE` used to overflow u64
        // (debug-panic) for byte counts within XPLINE of u64::MAX.
        let t = scm(12);
        let d = t.write_time(u64::MAX);
        assert!(d > t.write_time(1 << 40));
        assert_eq!(t.write_time(u64::MAX - 255), d);
    }

    #[test]
    fn pathological_bandwidth_saturates_to_max() {
        // A share slow enough that u64::MAX bytes overflows nanoseconds
        // must cap at SimDuration::MAX, not panic in from_secs_f64.
        let slow = ScmSpec {
            read_gib: 1e-12,
            write_gib: 1e-12,
            ..ScmSpec::optane_gen1()
        };
        let t = TargetMedia::new(slow, 1).unwrap();
        assert_eq!(t.read_time(u64::MAX), SimDuration::MAX);
        assert_eq!(t.write_time(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn bad_watermarks_rejected() {
        for (low, high) in [(0.0, 0.5), (0.6, 0.5), (0.5, 1.5), (f64::NAN, 0.9)] {
            let p = TierPolicy {
                low_watermark: low,
                high_watermark: high,
                ..TierPolicy::tiered()
            };
            assert!(
                matches!(
                    TieredMedia::new(ScmSpec::optane_gen1(), p, 1),
                    Err(MediaConfigError::BadWatermarks { .. })
                ),
                "low={low} high={high}"
            );
        }
    }

    fn small_tiered(scm_cap: u64, nvme_cap: u64, threshold: u64) -> TieredMedia {
        let scm = ScmSpec {
            capacity: scm_cap,
            ..ScmSpec::optane_gen1()
        };
        let nvme = NvmeSpec {
            capacity: nvme_cap,
            ..NvmeSpec::p4510_gen1()
        };
        TieredMedia::new(
            scm,
            TierPolicy {
                nvme: Some(nvme),
                scm_threshold: threshold,
                ..TierPolicy::tiered()
            },
            1,
        )
        .unwrap()
    }

    #[test]
    fn placement_follows_threshold() {
        let m = small_tiered(1 << 20, 1 << 20, 4096);
        assert_eq!(m.charge_write(100).unwrap().tier, Tier::Scm);
        assert_eq!(m.charge_write(4096).unwrap().tier, Tier::Scm);
        assert_eq!(m.charge_write(4097).unwrap().tier, Tier::Nvme);
        // SCM occupancy is XPLine-rounded, NVMe page-rounded.
        assert_eq!(m.scm_used(), 256 + 4096);
        assert_eq!(m.nvme_used(), 8192);
        assert!(m.conservation_ok());
    }

    #[test]
    fn scm_only_timing_matches_single_tier_exactly() {
        let m = TieredMedia::scm_only(ScmSpec::optane_gen1(), 12).unwrap();
        let t = scm(12);
        for bytes in [0u64, 1, 256, 4096, 1 << 20, 37 * (1 << 30)] {
            assert_eq!(m.charge_write(bytes).unwrap().time, t.write_time(bytes));
            assert_eq!(m.read_time(bytes), t.read_time(bytes));
        }
    }

    #[test]
    fn full_scm_spills_to_nvme_then_media_full() {
        let m = small_tiered(1024, 8192, 1 << 30);
        // Threshold is huge, so everything prefers SCM.
        assert_eq!(m.charge_write(1024).unwrap().tier, Tier::Scm);
        // SCM now full: spill to NVMe.
        assert_eq!(m.charge_write(1024).unwrap().tier, Tier::Nvme);
        assert_eq!(m.nvme_used(), 4096);
        assert_eq!(m.charge_write(4096).unwrap().tier, Tier::Nvme);
        // Both tiers full now.
        let err = m.charge_write(1).unwrap_err();
        assert_eq!(err.scm_free, 0);
        assert_eq!(err.nvme_free, 0);
        assert!(m.conservation_ok());
    }

    #[test]
    fn scm_only_full_is_media_full() {
        let m = TieredMedia::scm_only(
            ScmSpec {
                capacity: 512,
                ..ScmSpec::optane_gen1()
            },
            1,
        )
        .unwrap();
        assert!(m.charge_write(512).is_ok());
        assert_eq!(
            m.charge_write(1),
            Err(MediaFull {
                requested: 1,
                scm_free: 0,
                nvme_free: 0
            })
        );
    }

    #[test]
    fn aggregation_hysteresis_drains_high_to_low() {
        // 100 KiB SCM slice, watermarks at 75/50 KiB.
        let m = small_tiered(100 * 1024, 1 << 20, 1 << 30);
        let high = (100.0 * 1024.0 * 0.75) as u64;
        // Below the high mark: nothing to do.
        m.charge_write(high - 256).unwrap();
        assert!(m.plan_aggregation(1 << 20).is_none());
        assert!(!m.needs_aggregation());
        // Cross the high mark: aggregation activates and plans down to low.
        m.charge_write(512).unwrap();
        assert!(m.needs_aggregation());
        let step = m.plan_aggregation(1 << 20).unwrap();
        assert_eq!(step.bytes, m.scm_used() - (100 * 1024 / 2));
        assert!(step.scm_read > SimDuration::ZERO);
        assert!(step.nvme_write > SimDuration::ZERO);
        let moved = m.commit_aggregation(step.bytes);
        assert_eq!(moved, step.bytes);
        // At the low mark the latch releases; below-high refills stay idle.
        assert!(m.plan_aggregation(1 << 20).is_none());
        m.charge_write(4096).unwrap();
        assert!(m.plan_aggregation(1 << 20).is_none());
        assert!(m.conservation_ok());
        assert_eq!(m.aggregated_bytes(), moved);
    }

    #[test]
    fn aggregation_chunks_are_bounded() {
        let m = small_tiered(100 * 1024, 1 << 20, 1 << 30);
        m.charge_write(90 * 1024).unwrap();
        let step = m.plan_aggregation(8 * 1024).unwrap();
        assert_eq!(step.bytes, 8 * 1024);
        m.commit_aggregation(step.bytes);
        // Still above low: the next plan continues the drain.
        assert!(m.plan_aggregation(8 * 1024).is_some());
        assert!(m.conservation_ok());
    }

    #[test]
    fn aggregation_without_nvme_is_none() {
        let m = TieredMedia::scm_only(
            ScmSpec {
                capacity: 1024,
                ..ScmSpec::optane_gen1()
            },
            1,
        )
        .unwrap();
        m.charge_write(1024).unwrap();
        assert!(!m.needs_aggregation());
        assert!(m.plan_aggregation(1 << 20).is_none());
    }

    #[test]
    fn aggregation_respects_nvme_headroom() {
        // NVMe can only take one page.
        let m = small_tiered(100 * 1024, 4096, 1 << 30);
        m.charge_write(90 * 1024).unwrap();
        let step = m.plan_aggregation(1 << 20).unwrap();
        assert_eq!(step.bytes, 4096);
        m.commit_aggregation(step.bytes);
        // NVMe now full: no further migration.
        assert!(!m.needs_aggregation());
        assert!(m.plan_aggregation(1 << 20).is_none());
        assert!(m.conservation_ok());
    }

    #[test]
    fn scm_write_wakes_the_parked_service_once_there_is_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::task::{Context, Wake};

        struct Wakes(AtomicUsize);
        impl Wake for Wakes {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        // 100 KiB SCM slice with a 75 KiB high mark; 16 KiB threshold.
        let m = small_tiered(100 * 1024, 1 << 20, 16 * 1024);
        let wakes = Arc::new(Wakes(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        let mut parked = std::pin::pin!(m.aggregation_needed());
        assert!(parked.as_mut().poll(&mut cx).is_pending());
        // Below the high mark, and a write that lands on NVMe: no wake.
        for kib in [16, 16, 16, 16, 6] {
            m.charge_write(kib * 1024).unwrap();
        }
        m.charge_write(64 * 1024).unwrap();
        assert_eq!(m.scm_used(), 70 * 1024);
        assert_eq!(wakes.0.load(Ordering::Relaxed), 0);
        // Crossing the high mark wakes the service exactly once.
        m.charge_write(8 * 1024).unwrap();
        m.charge_write(8 * 1024).unwrap();
        assert_eq!(wakes.0.load(Ordering::Relaxed), 1);
        assert!(parked.as_mut().poll(&mut cx).is_ready());
    }

    #[test]
    fn reads_pay_nvme_time_in_occupancy_proportion() {
        let m = small_tiered(1 << 20, 1 << 20, 4096);
        let bytes = 1 << 16;
        // All data in SCM: read is pure SCM time.
        m.charge_write(4096).unwrap();
        let scm_only = m.read_time(bytes);
        assert_eq!(scm_only, m.scm().read_time(bytes));
        // Push a large extent to NVMe: reads now pay mostly NVMe time.
        m.charge_write(1 << 18).unwrap();
        let mixed = m.read_time(bytes);
        assert!(mixed > scm_only, "{mixed:?} vs {scm_only:?}");
        // Deterministic: same occupancy, same split.
        assert_eq!(m.read_time(bytes), mixed);
    }

    #[test]
    fn commit_clamps_against_occupancy() {
        let m = small_tiered(1 << 20, 1 << 20, 1 << 30);
        m.charge_write(1000).unwrap();
        // Asking to move more than resident moves only what's there.
        assert_eq!(m.commit_aggregation(u64::MAX), 1024);
        assert_eq!(m.scm_used(), 0);
        assert!(m.conservation_ok());
    }

    #[test]
    fn nvme_write_time_pages_round() {
        let m = small_tiered(1 << 20, 1 << 20, 0);
        assert_eq!(m.nvme_write_time(1), m.nvme_write_time(4096));
        assert!(m.nvme_write_time(4097) > m.nvme_write_time(4096));
    }
}
