//! Property-based tests of the simulation kernel: event ordering,
//! determinism and synchronization invariants.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use daosim_kernel::sync::{timeout, AdmissionClass, AdmissionPolicy, Barrier, PrioritySemaphore};
use daosim_kernel::{Sim, SimDuration, SimTime};
use proptest::prelude::*;

/// One queued request in the cancellation scenario: `want` permits,
/// `hold` ns once granted; `cancel` wraps the acquire in a short timeout
/// so it is dropped while queued (at whatever queue position its arrival
/// index lands it in).
#[derive(Debug, Clone, Copy)]
struct CancelPlan {
    want: usize,
    hold: u64,
    cancel: bool,
}

fn cancel_plan(max_want: usize) -> impl Strategy<Value = CancelPlan> {
    (1..max_want + 1, 1u64..200, any::<bool>()).prop_map(|(want, hold, cancel)| CancelPlan {
        want,
        hold,
        cancel,
    })
}

/// The lane task `i` queues in: every third task urgent, or all normal.
fn class_of(i: usize, mixed: bool) -> AdmissionClass {
    if mixed && i.is_multiple_of(3) {
        AdmissionClass::Urgent
    } else {
        AdmissionClass::Normal
    }
}

/// One task of the cancellation scenario: arrives at `i` ns (so task i is
/// queue position i), then either holds its grant for `hold` ns or, if
/// it cancels, gives up after `hold / 2` ns.
async fn run_one(
    sem: PrioritySemaphore,
    sim: Sim,
    i: usize,
    class: AdmissionClass,
    p: CancelPlan,
    log: Rc<RefCell<Vec<(usize, u64)>>>,
) {
    sim.sleep(SimDuration::from_nanos(i as u64)).await;
    // Cancelling requests may want more than the semaphore has (never
    // grantable); live requests are clamped by the caller.
    if p.cancel {
        let limit = SimDuration::from_nanos(p.hold / 2);
        if timeout(&sim, limit, sem.acquire(p.want, class))
            .await
            .is_ok()
        {
            // A same-instant grant can beat the timeout; that is a
            // normal grant, log it so conservation still balances.
            log.borrow_mut().push((i, sim.now().as_nanos()));
        }
    } else {
        let _g = sem.acquire(p.want, class).await;
        log.borrow_mut().push((i, sim.now().as_nanos()));
        sim.sleep(SimDuration::from_nanos(p.hold)).await;
    }
}

/// The outcome of one cancellation scenario: the grant log, the permits
/// free at quiescence and the instant the run ended.
type ScenarioOutcome = (Vec<(usize, u64)>, usize, SimTime);

/// Runs the cancellation scenario. Panics (-> proptest failure) if any
/// task strands, which is exactly what a swallowed wakeup produces. With
/// `daemon`, a daemon that parks forever is spawned ahead of the program.
fn run_cancel_scenario(
    sem: PrioritySemaphore,
    mixed: bool,
    permits: usize,
    plans: &[CancelPlan],
    daemon: bool,
) -> ScenarioOutcome {
    let sim = Sim::new();
    if daemon {
        sim.spawn_daemon(std::future::pending::<()>());
    }
    let log: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
    for (i, &p) in plans.iter().enumerate() {
        let mut p = p;
        if !p.cancel {
            p.want = p.want.min(permits); // live requests must be grantable
        }
        let (s, m, log) = (sim.clone(), sem.clone(), Rc::clone(&log));
        sim.spawn(run_one(m, s, i, class_of(i, mixed), p, log));
    }
    let end = sim.run().expect_quiescent();
    let granted = log.borrow().clone();
    (granted, sem.available(), end)
}

/// Both admission policies, freshly built with `permits`.
fn both_policies(permits: usize) -> [PrioritySemaphore; 2] {
    [
        PrioritySemaphore::fifo(permits),
        PrioritySemaphore::new(permits, AdmissionPolicy::WriterPriority { aging: 2 }),
    ]
}

proptest! {
    #[test]
    fn events_fire_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let sim = Sim::new();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
        for &t in &times {
            let fired = Rc::clone(&fired);
            sim.schedule_at(SimTime::from_nanos(t), move || fired.borrow_mut().push(t));
        }
        sim.run();
        let got = fired.borrow().clone();
        prop_assert_eq!(got.len(), times.len());
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1], "events fired out of order: {:?}", w);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(got, sorted);
    }

    #[test]
    fn sleeping_tasks_trace_identically_across_runs(
        delays in proptest::collection::vec((1u64..10_000, 1u8..6), 1..40)
    ) {
        let run = || {
            let sim = Sim::new();
            let trace: Rc<RefCell<Vec<(usize, u64)>>> = Rc::default();
            for (i, &(delay, hops)) in delays.iter().enumerate() {
                let (s, trace) = (sim.clone(), Rc::clone(&trace));
                sim.spawn(async move {
                    for _ in 0..hops {
                        s.sleep(SimDuration::from_nanos(delay)).await;
                        trace.borrow_mut().push((i, s.now().as_nanos()));
                    }
                });
            }
            sim.run().expect_quiescent();
            Rc::try_unwrap(trace).unwrap().into_inner()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn semaphore_never_admits_more_than_permits(
        permits in 1usize..5,
        tasks in 1usize..20,
        holds in 1u64..500,
    ) {
        for sem in both_policies(permits) {
            let sim = Sim::new();
            let inside: Rc<Cell<usize>> = Rc::default();
            let peak: Rc<Cell<usize>> = Rc::default();
            for i in 0..tasks {
                let (s, m, inside, peak) = (
                    sim.clone(),
                    sem.clone(),
                    Rc::clone(&inside),
                    Rc::clone(&peak),
                );
                sim.spawn(async move {
                    s.sleep(SimDuration::from_nanos(i as u64 % 7)).await;
                    let _p = m.acquire_one(class_of(i, true)).await;
                    inside.set(inside.get() + 1);
                    peak.set(peak.get().max(inside.get()));
                    s.sleep(SimDuration::from_nanos(holds)).await;
                    inside.set(inside.get() - 1);
                });
            }
            sim.run().expect_quiescent();
            prop_assert_eq!(inside.get(), 0);
            prop_assert!(peak.get() <= permits, "peak {} > permits {}", peak.get(), permits);
            // At least one task was admitted; full saturation depends on
            // the arrival/hold timing, so only the upper bound is universal.
            prop_assert!(peak.get() >= 1);
            prop_assert_eq!(sem.available(), permits);
        }
    }

    #[test]
    fn barrier_generations_never_interleave(
        parties in 2usize..8,
        rounds in 1u32..10,
        jitter in proptest::collection::vec(1u64..100, 8),
    ) {
        let sim = Sim::new();
        let bar = Barrier::new(parties);
        // Each party's round counter; at any barrier release, all
        // counters must be equal (nobody can be a full round ahead).
        let counters: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![0; parties]));
        let ok: Rc<Cell<bool>> = Rc::new(Cell::new(true));
        for p in 0..parties {
            let (s, b) = (sim.clone(), bar.clone());
            let (counters, ok) = (Rc::clone(&counters), Rc::clone(&ok));
            let j = jitter[p % jitter.len()];
            sim.spawn(async move {
                for r in 0..rounds {
                    s.sleep(SimDuration::from_nanos(j * (p as u64 + 1))).await;
                    counters.borrow_mut()[p] = r + 1;
                    b.wait().await;
                    // After release, every party must have reached r+1.
                    if counters.borrow().iter().any(|&c| c < r + 1) {
                        ok.set(false);
                    }
                }
            });
        }
        sim.run().expect_quiescent();
        prop_assert!(ok.get(), "a party crossed the barrier early");
    }

    #[test]
    fn cancellation_at_any_queue_position_conserves_permits(
        permits in 1usize..4,
        plans in proptest::collection::vec(cancel_plan(5), 2..14),
    ) {
        // A dropped/cancelled acquire (retry timeout firing while queued)
        // must neither leak its queue slot nor swallow the wakeup for the
        // waiter behind it: every live request is eventually granted and
        // every permit comes back, whatever queue position the
        // cancellations land on. Checked for FIFO admission with one lane
        // and with both, and for writer-priority admission.
        let [fifo, wp] = both_policies(permits);
        let runs = [
            (PrioritySemaphore::fifo(permits), false),
            (fifo, true),
            (wp, true),
        ];
        for (sem, mixed) in runs {
            let (granted, avail, _) = run_cancel_scenario(sem, mixed, permits, &plans, false);
            prop_assert_eq!(avail, permits, "permits leaked or double-released");
            for (i, p) in plans.iter().enumerate() {
                if !p.cancel {
                    prop_assert!(
                        granted.iter().any(|&(g, _)| g == i),
                        "live waiter {} was never granted",
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn fifo_grant_log_ignores_admission_lanes(
        permits in 1usize..4,
        plans in proptest::collection::vec(cancel_plan(5), 2..14),
    ) {
        // The (class, seq) tie-break under AdmissionPolicy::Fifo reduces
        // to global arrival order: grant logs — tasks and instants — are
        // the same whether waiters mix both lanes or all queue normal,
        // cancellations included.
        let (mixed, ..) =
            run_cancel_scenario(PrioritySemaphore::fifo(permits), true, permits, &plans, false);
        let (normal, ..) =
            run_cancel_scenario(PrioritySemaphore::fifo(permits), false, permits, &plans, false);
        prop_assert_eq!(mixed, normal);
    }

    #[test]
    fn fifo_grants_in_arrival_order(
        permits in 1usize..4,
        plans in proptest::collection::vec(cancel_plan(5), 2..14),
    ) {
        // No barging: whatever the request sizes and however many queued
        // waiters cancel, FIFO admission grants the surviving tasks in
        // increasing arrival index.
        let (granted, ..) =
            run_cancel_scenario(PrioritySemaphore::fifo(permits), true, permits, &plans, false);
        for w in granted.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "task {} granted before task {}", w[1].0, w[0].0);
        }
    }

    #[test]
    fn a_parked_daemon_changes_nothing(
        permits in 1usize..4,
        plans in proptest::collection::vec(cancel_plan(5), 2..14),
    ) {
        // A daemon parked for the whole run neither stretches its end nor
        // counts as stranded, and the program's grants — tasks and
        // instants — are the same as without it, under both policies.
        for (with, without) in both_policies(permits).into_iter().zip(both_policies(permits)) {
            prop_assert_eq!(
                run_cancel_scenario(with, true, permits, &plans, true),
                run_cancel_scenario(without, true, permits, &plans, false)
            );
        }
    }

    #[test]
    fn run_outcome_time_is_last_event(times in proptest::collection::vec(0u64..1_000, 1..50)) {
        let sim = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), || {});
        }
        let out = sim.run();
        prop_assert_eq!(out.end_time.as_nanos(), *times.iter().max().unwrap());
        prop_assert_eq!(out.stranded_tasks, 0);
    }
}
