//! Regenerates the MapReduce artefacts (Figures 12–19, Table 8) at a
//! reduced column set and benches representative job cells.
//!
//! Full paper-scale regeneration: `cargo run --release -p edison-core
//! --bin repro -- --full fig12_17 table8 sec53_speedup`.

use criterion::{criterion_group, criterion_main, Criterion};
use edison_core::experiments::mapred;
use edison_core::registry::RunBudget;
use edison_mapreduce::engine::{run_job, ClusterSetup};
use edison_mapreduce::jobs::{self, Tune};
use edison_simrun::Executor;
use edison_simtel::Telemetry;
use std::hint::black_box;

fn print_once() {
    let budget = RunBudget::quick();
    let exec = Executor::from_env();
    let mut tel = Telemetry::off();
    println!("{}", mapred::fig12_17(&budget, &exec, &mut tel).expect("fig12_17 runs"));
    println!("{}", mapred::table8(&budget, &exec, &mut tel).expect("table8 runs"));
}

fn bench_mapreduce(c: &mut Criterion) {
    print_once();
    c.bench_function("table8/wordcount2_edison8", |b| {
        b.iter(|| black_box(run_job(&jobs::wordcount2(Tune::Edison), &ClusterSetup::edison(8))))
    });
    c.bench_function("table8/logcount2_dell2", |b| {
        b.iter(|| black_box(run_job(&jobs::logcount2(Tune::Dell), &ClusterSetup::dell(2))))
    });
    c.bench_function("fig14/pi_edison35", |b| {
        b.iter(|| black_box(run_job(&jobs::pi(Tune::Edison), &ClusterSetup::edison(35))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mapreduce
}
criterion_main!(benches);
