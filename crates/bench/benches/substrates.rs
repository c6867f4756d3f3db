//! Substrate benchmarks: how fast the simulator itself runs — events per
//! second in the kernel, fairness recomputation in the flow network.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use daosim_kernel::sync::{Barrier, PrioritySemaphore};
use daosim_kernel::{AdmissionClass, Sim, SimDuration};
use daosim_net::{FlowCap, FlowNet};

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("timer_events_10k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..10_000u64 {
                sim.schedule_at(daosim_kernel::SimTime::from_nanos(i % 997), || {});
            }
            sim.run()
        });
    });
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("task_sleep_chain_1k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..1_000 {
                    s.sleep(SimDuration::from_nanos(5)).await;
                }
            })
        });
    });
    g.bench_function("semaphore_contention_100x10", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let sem = PrioritySemaphore::fifo(4);
            for _ in 0..100 {
                let (s, m) = (sim.clone(), sem.clone());
                sim.spawn(async move {
                    for _ in 0..10 {
                        let _p = m.acquire_one(AdmissionClass::Normal).await;
                        s.sleep(SimDuration::from_nanos(3)).await;
                    }
                });
            }
            sim.run().expect_quiescent()
        });
    });
    g.bench_function("barrier_rounds_64x20", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let bar = Barrier::new(64);
            for i in 0..64u64 {
                let (s, br) = (sim.clone(), bar.clone());
                sim.spawn(async move {
                    for r in 0..20u64 {
                        s.sleep(SimDuration::from_nanos(1 + (i * r) % 7)).await;
                        br.wait().await;
                    }
                });
            }
            sim.run().expect_quiescent()
        });
    });
    g.finish();
}

fn bench_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("flownet");
    for flows in [16usize, 128, 512] {
        g.throughput(Throughput::Elements(flows as u64));
        g.bench_function(format!("concurrent_flows_{flows}"), |b| {
            b.iter(|| {
                let sim = Sim::new();
                let net = FlowNet::new(&sim);
                let links: Vec<_> = (0..16).map(|_| net.add_link(10.0)).collect();
                for i in 0..flows {
                    let route = vec![links[i % 16], links[(i * 7 + 3) % 16]];
                    let n = net.clone();
                    sim.spawn(async move {
                        n.transfer(&route, 1_000_000, FlowCap::capped(3.1)).await;
                    });
                }
                sim.run().expect_quiescent()
            });
        });
    }
    g.bench_function("staggered_arrivals_256", |b| {
        // Each arrival triggers a fairness recompute over live flows.
        b.iter(|| {
            let sim = Sim::new();
            let net = FlowNet::new(&sim);
            let l = net.add_link(100.0);
            for i in 0..256u64 {
                let n = net.clone();
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(i)).await;
                    n.transfer(&[l], 5_000_000, FlowCap::capped(3.1)).await;
                });
            }
            sim.run().expect_quiescent()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_kernel, bench_flows);
criterion_main!(benches);
