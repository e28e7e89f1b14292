//! Ablation: exact fluid (processor-sharing) CPU model vs a quantised
//! time-stepped alternative (DESIGN.md "Fluid-flow resources").
//!
//! The fluid resource computes completion times in closed form between
//! mutations; a time-stepped model advances a fixed tick and apportions
//! rate. This bench quantifies both cost and the accuracy the tick buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edison_simcore::fluid::FluidResource;
use edison_simcore::time::{SimDuration, SimTime};
use std::hint::black_box;

const CAPACITY: f64 = 1264.6; // one Edison node, MIPS
const PER_TASK: f64 = 632.3;

/// Exact fluid run: `n` staggered tasks of 500 MI; returns makespan.
fn fluid_makespan(n: u64) -> f64 {
    let mut r = FluidResource::new(CAPACITY, PER_TASK);
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    for i in 0..n {
        r.add(now, i, 500.0);
        now = now + SimDuration::from_millis(100);
        r.take_finished(now, &mut done);
    }
    while let Some((_, at)) = r.next_completion(now) {
        now = at;
        r.take_finished(now, &mut done);
    }
    now.as_secs_f64()
}

/// Time-stepped alternative with the given tick (seconds).
fn stepped_makespan(n: u64, tick: f64) -> f64 {
    let mut remaining: Vec<f64> = Vec::new();
    let mut arrivals: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
    arrivals.reverse();
    let mut t = 0.0;
    loop {
        while arrivals.last().is_some_and(|&a| a <= t) {
            arrivals.pop();
            remaining.push(500.0);
        }
        if remaining.is_empty() && arrivals.is_empty() {
            return t;
        }
        let active = remaining.len().max(1) as f64;
        let rate = PER_TASK.min(CAPACITY / active);
        for w in remaining.iter_mut() {
            *w -= rate * tick;
        }
        remaining.retain(|&w| w > 0.0);
        t += tick;
    }
}

fn bench_ablation(c: &mut Criterion) {
    for n in [16u64, 64] {
        let exact = fluid_makespan(n);
        for tick in [0.1, 0.01, 0.001] {
            let approx = stepped_makespan(n, tick);
            println!(
                "ablation_fluid: n={n} tick={tick}: exact {exact:.3}s, stepped {approx:.3}s, error {:+.2}%",
                (approx / exact - 1.0) * 100.0
            );
        }
    }
    let mut group = c.benchmark_group("ablation_fluid");
    for n in [16u64, 64, 256] {
        group.bench_with_input(BenchmarkId::new("fluid_exact", n), &n, |b, &n| {
            b.iter(|| black_box(fluid_makespan(n)))
        });
        group.bench_with_input(BenchmarkId::new("stepped_10ms", n), &n, |b, &n| {
            b.iter(|| black_box(stepped_makespan(n, 0.01)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ablation
}
criterion_main!(benches);
