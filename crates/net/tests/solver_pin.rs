//! Pins the flow solver's output bit for bit.
//!
//! A Fig. 5-shaped TCP fabric (24 dual-socket nodes) carries a few hundred
//! seeded transfers: staggered arrivals with same-instant batches, both
//! rails, several flows per host pair in both directions, and one host
//! link degraded and restored mid-run. Both cap-group rounds (the TCP
//! per-stream cap scaled by `count^-alpha`) and link-bound rounds (the
//! shared host links) occur. The log — every completion instant in ns,
//! a hash of every flow's rate bits at periodic snapshots, the bytes
//! delivered as raw bits, and the [`SolverStats`] counters — must match
//! `solver_pin.golden` byte for byte. The `solver_equivalence` proptests
//! only bound drift at 1e-6, so this is the test that catches a last-bit
//! change in the rates, which would move committed artifacts.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use daosim_kernel::rng::splitmix64;
use daosim_kernel::{Sim, SimDuration};
use daosim_net::{Endpoint, Fabric, FabricSpec, ProviderProfile};

const NODES: u16 = 24;
/// Nodes `0..SERVERS` act as servers, the rest as clients.
const SERVERS: u16 = 4;
const TRANSFERS: u64 = 320;
const SEED: u64 = 0x5eed_f1e1d;
/// Rate snapshots taken 97 µs apart, covering the busy part of the run.
const SAMPLES: u32 = 120;

fn pinned_log() -> String {
    let sim = Sim::new();
    let fabric = Rc::new(Fabric::new(
        &sim,
        FabricSpec::new(NODES, ProviderProfile::tcp()),
    ));
    let done: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
    let mut log = String::new();
    for i in 0..TRANSFERS {
        let r = splitmix64(SEED ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Eight client nodes against four servers: 32 host pairs, so
        // most pairs carry several concurrent streams.
        let client = Endpoint::new(SERVERS + (r % 8) as u16, ((r >> 3) & 1) as u8);
        let server = Endpoint::new(((r >> 4) % SERVERS as u64) as u16, ((r >> 7) & 1) as u8);
        let (src, dst) = if (r >> 8) & 3 == 0 {
            (server, client) // a read
        } else {
            (client, server) // a write
        };
        let bytes = (64 << 10) + ((r >> 16) % (4 << 20));
        // 50 µs ticks: several arrivals share each instant.
        let start = SimDuration::from_micros(((r >> 40) % 80) * 50);
        writeln!(
            log,
            "{i} n{}s{}->n{}s{} {bytes} B @{}",
            src.node,
            src.socket,
            dst.node,
            dst.socket,
            start.as_nanos()
        )
        .unwrap();
        let (f, s, done) = (Rc::clone(&fabric), sim.clone(), Rc::clone(&done));
        sim.spawn(async move {
            s.sleep(start).await;
            f.transfer(src, dst, bytes).await;
            done.borrow_mut().push((i, s.now().as_nanos()));
        });
    }
    // Degrade server 0's host link for a while, as a NIC fault would.
    let host0 = fabric.route(Endpoint::new(1, 0), Endpoint::new(0, 0))[3];
    for (at_us, gib) in [(1_000, 2.5), (2_500, 9.7)] {
        let f = Rc::clone(&fabric);
        sim.schedule_at(
            daosim_kernel::SimTime::ZERO + SimDuration::from_micros(at_us),
            move || f.net().set_link_capacity(host0, gib),
        );
    }
    // Every flow's rate, sampled as raw bits: a last-bit change in any
    // rate shows up here even when it rounds away in the completion ns.
    let samples: Rc<RefCell<Vec<(u64, usize, u64)>>> = Rc::default();
    {
        let (f, s, samples) = (Rc::clone(&fabric), sim.clone(), Rc::clone(&samples));
        sim.spawn(async move {
            for _ in 0..SAMPLES {
                s.sleep(SimDuration::from_micros(97)).await;
                let rates = f.net().snapshot_rates();
                let hash = rates.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (_, r)| {
                    (h ^ r.to_bits()).wrapping_mul(0x0100_0000_01b3)
                });
                samples
                    .borrow_mut()
                    .push((s.now().as_nanos(), rates.len(), hash));
            }
        });
    }
    let end = sim.run().expect_quiescent();
    for (at, flows, hash) in samples.borrow().iter() {
        writeln!(log, "rates @{at} {flows} flows {hash:016x}").unwrap();
    }
    let mut done = done.borrow().clone();
    done.sort_unstable();
    for (i, at) in done {
        writeln!(log, "done {i} {at}").unwrap();
    }
    let net = fabric.net();
    writeln!(log, "end {}", end.as_nanos()).unwrap();
    writeln!(log, "delivered {:#018x}", net.bytes_delivered().to_bits()).unwrap();
    let s = net.solver_stats();
    writeln!(
        log,
        "settles {} recomputes {} fill_rounds {}",
        s.settles, s.recomputes, s.fill_rounds
    )
    .unwrap();
    log
}

#[test]
fn solver_output_matches_the_pinned_log() {
    let log = pinned_log();
    let golden = include_str!("solver_pin.golden");
    if log != golden {
        let at = log
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(log.lines().count().min(golden.lines().count()));
        panic!(
            "flow solver drifted from solver_pin.golden at line {}:\n  got:  {:?}\n  want: {:?}\n--- full log ---\n{log}",
            at + 1,
            log.lines().nth(at),
            golden.lines().nth(at),
        );
    }
}
