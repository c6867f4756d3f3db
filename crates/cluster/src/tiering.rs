//! Background SCM→NVMe aggregation (DESIGN.md §14).
//!
//! Production DAOS runs an *aggregation* service per target: once the
//! persistent-memory write buffer fills past a watermark, cold extents
//! are merged and migrated down to the NVMe capacity tier, freeing SCM
//! for fresh small writes. This module spawns that service as one
//! seed-deterministic kernel task per target.
//!
//! Each tick the task asks its target's [`TieredMedia`] for a migration
//! plan (watermark hysteresis lives in the media model); if there is
//! work it acquires the target's service queue at `AdmissionClass::
//! Normal` — behind foreground writers under writer-priority admission,
//! interleaved FIFO otherwise — sleeps through the SCM-read plus
//! NVMe-write media time, charges the target's busy accounting, and
//! commits the occupancy move. Migration traffic therefore contends
//! with foreground I/O for exactly the resources it would steal on real
//! hardware.
//!
//! Each task is a kernel *daemon* ([`daosim_kernel::Sim::spawn_daemon`]).
//! When a plan comes back empty it parks until its target's SCM needs
//! aggregation again ([`daosim_media::TieredMedia::aggregation_needed`],
//! woken by the write that makes the work), so an idle service neither
//! holds a timer nor counts as stranded, and a run ends when its work
//! does. Every tick skipped while parked would have planned nothing and
//! changed nothing; the daemon resumes on the same tick grid, so each
//! migration keeps the instant and size it would have under polling.
//! Per-target start phases are staggered by a `splitmix64` stream off
//! the seed, which keeps the schedule seed-deterministic while avoiding
//! a thundering herd of simultaneous migrations.

use std::rc::Rc;

use daosim_kernel::rng::splitmix64;
use daosim_kernel::sync::AdmissionClass;
use daosim_kernel::SimDuration;

use crate::deploy::Deployment;

/// Tick interval of the service: a migration opportunity every 2 ms.
const AGGREGATION_INTERVAL: SimDuration = SimDuration::from_millis(2);

/// Upper bound on bytes migrated per tick (one service-queue grant):
/// small enough that foreground writers never stall long behind a
/// migration, large enough to outrun the fill rate of a saturated writer
/// fleet.
const AGGREGATION_CHUNK_BYTES: u64 = 256 * 1024;

/// Spawns one aggregation daemon per pool target, with start phases
/// staggered by `seed`. Call after [`Deployment::new`] and before
/// `sim.run()`.
pub fn spawn_aggregation(d: &Rc<Deployment>, seed: u64) {
    spawn_daemons(d, seed, |_, _| {});
}

/// [`spawn_aggregation`], reporting each committed migration to
/// `on_commit(target, bytes)`.
fn spawn_daemons(d: &Rc<Deployment>, seed: u64, on_commit: impl Fn(u32, u64) + Clone + 'static) {
    let interval = AGGREGATION_INTERVAL.as_nanos();
    for t in 0..d.spec.pool_targets() {
        let (d, on_commit) = (d.clone(), on_commit.clone());
        let phase = splitmix64(seed ^ t as u64) % interval;
        d.sim.clone().spawn_daemon(async move {
            let target = d.target(t);
            // Ticks fall on `anchor + k × interval`, k ≥ 1: `anchor` is
            // the start phase, then the instant the last tick's plan, or
            // the migration it planned, finished.
            let mut anchor = d.sim.now().as_nanos() + phase;
            let mut idle = true;
            loop {
                if idle {
                    target.media.aggregation_needed().await;
                }
                let now = d.sim.now().as_nanos();
                let k = now.saturating_sub(anchor).div_ceil(interval).max(1);
                let tick = anchor.saturating_add(k.saturating_mul(interval));
                d.sim.sleep(SimDuration::from_nanos(tick - now)).await;
                let plan = target.media.plan_aggregation(AGGREGATION_CHUNK_BYTES);
                idle = plan.is_none();
                if let Some(step) = plan {
                    let q = d.sim.span_leaf("media", "agg-queue");
                    let _p = target.sem.acquire_one(AdmissionClass::Normal).await;
                    q.end();
                    let _s = d.sim.span_leaf("media", "agg-migrate");
                    // The migration pays the SCM read and the NVMe write
                    // on this target's bandwidth shares, back to back,
                    // holding the service queue the whole time.
                    let dur = step.scm_read.saturating_add(step.nvme_write);
                    d.sim.sleep(dur).await;
                    target.charge_busy(dur.as_nanos());
                    on_commit(t, target.media.commit_aggregation(step.bytes));
                }
                anchor = d.sim.now().as_nanos();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::ClusterSpec;
    use daosim_kernel::{Sim, SimTime};
    use daosim_media::{NvmeSpec, ScmSpec, TierPolicy};
    use std::cell::RefCell;

    /// A tiny tiered cluster: 2 targets, 64 KiB of SCM per socket.
    fn tiered_spec() -> ClusterSpec {
        let mut spec = ClusterSpec::tcp(1, 1);
        spec.targets_per_engine = 1;
        spec.calibration.scm = ScmSpec {
            capacity: 64 * 1024,
            ..ScmSpec::optane_gen1()
        };
        spec.tiering = TierPolicy {
            nvme: Some(NvmeSpec::p4510_gen1()),
            scm_threshold: 1 << 20,
            ..TierPolicy::tiered()
        };
        spec
    }

    #[test]
    fn aggregation_drains_scm_below_low_watermark() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, tiered_spec());
        // Fill target 0's SCM past the 75% high mark (48 KiB of 64 KiB).
        d.target(0).media.charge_write(56 * 1024).unwrap();
        assert!(d.target(0).media.needs_aggregation());
        spawn_aggregation(&d, 7);
        sim.run().expect_quiescent();
        let m = &d.target(0).media;
        assert!(
            m.scm_used() <= 32 * 1024,
            "scm_used {} still above the low mark",
            m.scm_used()
        );
        assert!(m.aggregated_bytes() > 0);
        assert_eq!(m.nvme_used(), m.tier_counts().aggregated_in);
        assert!(m.conservation_ok());
    }

    #[test]
    fn aggregation_idles_below_high_watermark() {
        let sim = Sim::new();
        let d = Deployment::new(&sim, tiered_spec());
        d.target(0).media.charge_write(16 * 1024).unwrap();
        spawn_aggregation(&d, 7);
        // An idle service holds no timer: the run ends at once.
        assert_eq!(sim.run().expect_quiescent(), SimTime::ZERO);
        assert_eq!(d.target(0).media.aggregated_bytes(), 0);
        assert_eq!(d.target(0).media.scm_used(), 16 * 1024);
    }

    #[test]
    fn aggregation_is_seed_deterministic() {
        let run = || {
            let sim = Sim::new();
            let d = Deployment::new(&sim, tiered_spec());
            d.target(0).media.charge_write(60 * 1024).unwrap();
            d.target(1).media.charge_write(50 * 1024).unwrap();
            spawn_aggregation(&d, 42);
            sim.run().expect_quiescent();
            (
                sim.now(),
                d.target(0).media.tier_counts(),
                d.target(1).media.tier_counts(),
            )
        };
        assert_eq!(run(), run());
    }

    /// `(time ns, target, bytes)` of each committed migration.
    type MigrationLog = Rc<RefCell<Vec<(u64, u32, u64)>>>;

    /// The reference the daemons must match: a service that wakes every
    /// tick until `until`, plans, and migrates when the plan has work.
    fn spawn_polling_oracle(d: &Rc<Deployment>, seed: u64, until: SimTime, log: MigrationLog) {
        for t in 0..d.spec.pool_targets() {
            let (d, log) = (d.clone(), Rc::clone(&log));
            let phase = splitmix64(seed ^ t as u64) % AGGREGATION_INTERVAL.as_nanos();
            d.sim.clone().spawn(async move {
                let target = d.target(t);
                d.sim.sleep(SimDuration::from_nanos(phase)).await;
                while d.sim.now() < until {
                    d.sim.sleep(AGGREGATION_INTERVAL).await;
                    let Some(step) = target.media.plan_aggregation(AGGREGATION_CHUNK_BYTES) else {
                        continue;
                    };
                    let _p = target.sem.acquire_one(AdmissionClass::Normal).await;
                    let dur = step.scm_read.saturating_add(step.nvme_write);
                    d.sim.sleep(dur).await;
                    target.charge_busy(dur.as_nanos());
                    let moved = target.media.commit_aggregation(step.bytes);
                    log.borrow_mut().push((d.sim.now().as_nanos(), t, moved));
                }
            });
        }
    }

    /// Bursts of SCM writes on both targets over 60 ms, with quiet gaps
    /// long enough for each drain to finish and the service to park.
    /// Some bursts start exactly on a target's first tick grid.
    fn scripted_charges(seed: u64) -> Vec<(u64, u32, u64)> {
        let interval = AGGREGATION_INTERVAL.as_nanos();
        let mut h = seed;
        let mut next = || {
            h = splitmix64(h);
            h
        };
        let mut charges = Vec::new();
        for burst in 0..12u64 {
            let t = (burst % 2) as u32;
            let start = burst * 5_000_000 + next() % 3_000_000;
            let start = if burst % 3 == 0 {
                let phase = splitmix64(seed ^ t as u64) % interval;
                start - start % interval + phase
            } else {
                start
            };
            for i in 0..2 + next() % 6 {
                charges.push((start + i * 1_500, t, 4 * 1024 + next() % (12 * 1024)));
            }
        }
        charges
    }

    #[test]
    fn parked_daemons_migrate_exactly_as_polling_did() {
        for seed in [3u64, 17, 99] {
            let run = |daemon: bool| {
                let sim = Sim::new();
                let d = Deployment::new(&sim, tiered_spec());
                for (at, t, bytes) in scripted_charges(seed) {
                    let d = Rc::clone(&d);
                    sim.schedule_at(SimTime::from_nanos(at), move || {
                        let _ = d.target(t).media.charge_write(bytes);
                    });
                }
                let log: MigrationLog = Rc::default();
                if daemon {
                    let (log, sim) = (Rc::clone(&log), sim.clone());
                    spawn_daemons(&d, seed, move |t, bytes| {
                        log.borrow_mut().push((sim.now().as_nanos(), t, bytes))
                    });
                } else {
                    spawn_polling_oracle(
                        &d,
                        seed,
                        SimTime::from_nanos(200_000_000),
                        Rc::clone(&log),
                    );
                }
                let end = sim.run().expect_quiescent();
                let counts = (
                    d.target(0).media.tier_counts(),
                    d.target(1).media.tier_counts(),
                );
                (log.take(), counts, end)
            };
            let (daemon_log, daemon_counts, daemon_end) = run(true);
            let (oracle_log, oracle_counts, oracle_end) = run(false);
            for t in 0..2 {
                // Several drains per target: each one parks and resumes.
                let drains = daemon_log.iter().filter(|m| m.1 == t).count();
                assert!(drains >= 3, "seed {seed}: {daemon_log:?}");
            }
            assert_eq!(daemon_log, oracle_log, "seed {seed}");
            assert_eq!(daemon_counts, oracle_counts, "seed {seed}");
            // The daemons stop with the work: one idle tick after the
            // last migration, or at the last write. The oracle polled on.
            let last_charge = scripted_charges(seed).iter().map(|c| c.0).max().unwrap();
            let last_tick = daemon_log.iter().map(|m| m.0).max().unwrap() + 2_000_000;
            assert_eq!(daemon_end.as_nanos(), last_tick.max(last_charge));
            assert!(oracle_end >= SimTime::from_nanos(200_000_000));
        }
    }
}
