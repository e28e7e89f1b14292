//! Cross-commit golden digests of same-seed outputs.
//!
//! Every other byte-identity test compares two runs of the *same* build
//! (run twice, legacy vs async, `--jobs 1` vs 8), so a speed change that
//! moves a single float bit passes them all. These tests pin literal
//! FNV-1a digests of the exhaustive `Debug` text of the result structs
//! and of the Prometheus and Chrome-trace exports of traced runs, for a
//! small fixture matrix that covers every hot path the web and MapReduce
//! models run: light and saturated Edison points, a saturated Dell point,
//! a guarded crash/restart run, a memcached cold restart and one job.
//!
//! A digest that changes means the simulator's output changed. If that
//! is intended (a model change, not a speed change), recompute the
//! literals and say why in the commit.

use edison_mapreduce::engine::{run_job, run_job_traced, ClusterSetup};
use edison_mapreduce::jobs;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simfault::FaultPlan;
use edison_simguard::GuardConfig;
use edison_simtel::Telemetry;
use edison_web::httperf::{self, RunOpts, CALLS_PER_CONN};
use edison_web::scenario::DEFAULT_RETRY_BUDGET;
use edison_web::stack::{run, run_traced, GenMode, StackConfig};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

/// 64-bit FNV-1a: a stable digest with no dependency on std's hasher.
fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn assert_digest(what: &str, text: &str, want: u64) {
    let got = fnv1a(text);
    assert_eq!(got, want, "{what}: digest {got:#018x}, pinned {want:#018x}");
}

fn point(platform: Platform, scale: ClusterScale, conc: f64, seed: u64) -> String {
    let scenario = WebScenario::table6(platform, scale).unwrap();
    let opts = RunOpts { seed, warmup_s: 2, measure_s: 6, ..RunOpts::default() };
    format!("{:?}", httperf::run_point(&scenario, WorkloadMix::lightest(), conc, opts))
}

fn stack_cfg(platform: Platform, scale: ClusterScale, conc: f64, seed: u64) -> StackConfig {
    let scenario = WebScenario::table6(platform, scale).unwrap();
    let gen = GenMode::Httperf { connections_per_sec: conc, calls_per_conn: CALLS_PER_CONN };
    let mut cfg = StackConfig::new(scenario, WorkloadMix::lightest(), gen, seed);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.measure = SimDuration::from_secs(6);
    cfg
}

/// The `web_overload` benchmark's guarded crash arm: Edison Eighth at
/// 1.5× its 130 conn/s knee, reference guard, web node 0 crashing as the
/// window opens and restarting 3 s later under the default retry budget.
fn guarded_crash() -> StackConfig {
    let mut cfg = stack_cfg(Platform::Edison, ClusterScale::Eighth, 195.0, 11);
    cfg.guard = GuardConfig::web_defaults();
    cfg.fault_plan =
        FaultPlan::new().crash_restart(0, SimTime::from_secs(2), SimDuration::from_secs(3));
    cfg.retry_budget = DEFAULT_RETRY_BUDGET;
    cfg
}

#[test]
fn edison_eighth_below_knee() {
    let text = point(Platform::Edison, ClusterScale::Eighth, 64.0, 20160509);
    assert_digest("Edison Eighth @64", &text, 0x96a4_818e_53f1_0bc3);
}

#[test]
fn edison_eighth_past_knee() {
    let text = point(Platform::Edison, ClusterScale::Eighth, 256.0, 20160509);
    assert_digest("Edison Eighth @256", &text, 0xbd4e_a1a4_6566_4d2e);
}

#[test]
fn dell_half_past_knee() {
    let text = point(Platform::Dell, ClusterScale::Half, 1024.0, 20160509);
    assert_digest("Dell Half @1024", &text, 0xb2f5_c8aa_d214_f4a3);
}

#[test]
fn guarded_crash_restart() {
    let w = run(guarded_crash());
    assert!(w.metrics.faults_injected == 2, "crash and restart must both land");
    assert_digest("guarded crash Metrics", &format!("{:?}", w.metrics), 0xed82_7ed9_5032_248b);
}

#[test]
fn guarded_crash_restart_traced_exports() {
    let mut w = run_traced(guarded_crash(), Telemetry::on());
    assert_digest(
        "traced guarded crash Metrics",
        &format!("{:?}", w.metrics),
        0xed82_7ed9_5032_248b,
    );
    let tel = w.take_telemetry();
    assert_digest("guarded crash Prometheus", &tel.prometheus_text(), 0x3d7b_f5fd_386f_fab9);
    assert_digest("guarded crash Chrome trace", &tel.chrome_trace_json(), 0x5241_db6d_ca06_6e52);
}

#[test]
fn cache_cold_restart() {
    let mut cfg = stack_cfg(Platform::Edison, ClusterScale::Eighth, 32.0, 42);
    cfg.measure = SimDuration::from_secs(12);
    cfg.fault_plan = FaultPlan::new().cache_cold_restart(0, SimTime::from_secs(4));
    let w = run(cfg);
    assert_eq!(w.metrics.faults_injected, 1);
    assert_digest("cache-cold Metrics", &format!("{:?}", w.metrics), 0x9876_c9f9_9ce2_bff9);
}

fn small_job() -> (jobs::JobProfile, ClusterSetup) {
    let setup = ClusterSetup::edison(4);
    let profile = jobs::logcount2(setup.tune).with_map_tasks(8);
    (profile, setup)
}

#[test]
fn mapreduce_job() {
    let (profile, setup) = small_job();
    assert_digest(
        "logcount2 JobOutcome",
        &format!("{:?}", run_job(&profile, &setup)),
        0x4615_71e2_f504_8d4a,
    );
}

#[test]
fn mapreduce_job_traced_exports() {
    let (profile, setup) = small_job();
    let (out, tel) = run_job_traced(&profile, &setup, Telemetry::on());
    assert_digest("traced logcount2 JobOutcome", &format!("{out:?}"), 0x4615_71e2_f504_8d4a);
    assert_digest("logcount2 Prometheus", &tel.prometheus_text(), 0xe67f_484f_5aab_c1f5);
    assert_digest("logcount2 Chrome trace", &tel.chrome_trace_json(), 0x4e0b_ff00_2510_ffd4);
}
