//! Regenerates the web-service artefacts (Figures 4–11, Table 7) at a
//! reduced measurement window and benches representative figure points.
//!
//! Full paper-scale regeneration: `cargo run --release -p edison-core
//! --bin repro -- --full fig04_07 fig05_08 fig06_09 fig10_11 table7`.

use criterion::{criterion_group, criterion_main, Criterion};
use edison_core::experiments::webservice;
use edison_core::registry::RunBudget;
use edison_simrun::Executor;
use edison_simtel::Telemetry;
use edison_web::httperf::{self, RunOpts};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};
use std::hint::black_box;

fn print_once() {
    let budget = RunBudget::quick();
    let exec = Executor::from_env();
    let mut tel = Telemetry::off();
    for report in [
        webservice::fig04_07(&budget, &exec, &mut tel),
        webservice::fig06_09(&budget, &exec, &mut tel),
        webservice::fig10_11(&budget, &exec, &mut tel),
        webservice::table7(&budget, &exec, &mut tel),
    ] {
        println!("{}", report.expect("web experiment runs"));
    }
}

fn bench_web(c: &mut Criterion) {
    print_once();
    let opts = RunOpts { seed: 5, warmup_s: 1, measure_s: 3, ..RunOpts::default() };
    let eighth = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    c.bench_function("fig04/point_eighth_scale_conc64", |b| {
        b.iter(|| black_box(httperf::run_point(&eighth, WorkloadMix::lightest(), 64.0, opts.clone())))
    });
    let dell_half = WebScenario::table6(Platform::Dell, ClusterScale::Half).unwrap();
    c.bench_function("fig06/point_dell_half_img20_conc128", |b| {
        b.iter(|| black_box(httperf::run_point(&dell_half, WorkloadMix::img20(), 128.0, opts.clone())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_web
}
criterion_main!(benches);
