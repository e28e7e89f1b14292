//! Kernel microbenchmarks: the event loop, the fluid resource and the
//! max-min solver — the hot paths every experiment runs on.

use criterion::{criterion_group, criterion_main, Criterion};
use edison_net::Network;
use edison_simcore::fluid::FluidResource;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, Model, Simulation};
use std::hint::black_box;

struct Chain {
    left: u64,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), ctx: &mut Ctx<()>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("kernel/event_chain_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Chain { left: 100_000 });
            sim.schedule_at(SimTime::ZERO, ());
            black_box(sim.run())
        })
    });
}

fn bench_fluid(c: &mut Criterion) {
    c.bench_function("kernel/fluid_churn_1k_tasks", |b| {
        b.iter(|| {
            let mut r = FluidResource::new(1000.0, 10.0);
            let mut now = SimTime::ZERO;
            let mut done = Vec::new();
            for i in 0..1000u64 {
                r.add(now, i, 5.0 + (i % 17) as f64);
                now = now + SimDuration::from_micros(137);
                r.take_finished(now, &mut done);
            }
            while let Some((_, at)) = r.next_completion(now) {
                now = at;
                r.take_finished(now, &mut done);
            }
            black_box(r.work_done())
        })
    });
}

fn bench_maxmin(c: &mut Criterion) {
    c.bench_function("kernel/maxmin_50_flows_20_links", |b| {
        b.iter(|| {
            let mut n = Network::new();
            let links: Vec<_> = (0..20).map(|_| n.add_link_bytes(100.0)).collect();
            let t0 = SimTime::ZERO;
            for f in 0..50u64 {
                let path = vec![links[(f % 20) as usize], links[((f * 7 + 3) % 20) as usize]];
                let mut path = path;
                path.dedup();
                n.start_flow(t0, f, 1e6, path, f64::INFINITY);
            }
            black_box(n.flow_rate(0))
        })
    });
}

criterion_group!(benches, bench_event_loop, bench_fluid, bench_maxmin);
criterion_main!(benches);
