//! Cross-commit golden digests of same-seed outputs.
//!
//! Every other byte-identity test compares two runs of the *same* build
//! (run twice, `--jobs 1` vs 8), so a speed change that moves a single
//! float bit passes them all. These tests pin literal FNV-1a digests of
//! the exhaustive `Debug` text of the result structs and of the
//! Prometheus and Chrome-trace exports of traced runs, for a small
//! fixture matrix that covers every hot path the web and MapReduce
//! models run: light and saturated Edison points, a saturated Dell point,
//! a guarded crash/restart run, a memcached cold restart and one job.
//! A second matrix pins the web driver's full exports (untraced and
//! traced `Metrics`, Prometheus, Chrome trace) across seeds, load levels,
//! mid-request crashes with and without a retry budget, and the guarded
//! overload + crash cliff.
//!
//! `cargo test -q --test golden_digests` runs this file on its own; it is
//! the byte-identity gate for any change to the web lifecycle helpers in
//! `crates/web/src/model.rs` or the dispatch in `stack.rs`.
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

// ---- web driver exports across the lifecycle's edge cases ----------------

/// Edison Eighth, lightest mix, 2 s warmup and an 8 s window.
fn lane_cfg(conc: f64, seed: u64) -> StackConfig {
    let mut cfg = stack_cfg(Platform::Edison, ClusterScale::Eighth, conc, seed);
    cfg.measure = SimDuration::from_secs(8);
    cfg
}

/// Web node 0 crashes mid-run and restarts 3 s later, with a client
/// retry budget of `budget`. With a budget, connections that survive the
/// crash are redispatched by the LB; without one, every doomed connection
/// ends as a hard error.
fn crash_cfg(budget: u32) -> StackConfig {
    let mut c = lane_cfg(32.0, 42);
    c.measure = SimDuration::from_secs(20);
    c.retry_budget = budget;
    c.fault_plan =
        FaultPlan::new().crash_restart(0, SimTime::from_secs(6), SimDuration::from_secs(3));
    c
}

/// `lane_cfg` with the reference overload guard enabled.
fn guard_cfg(conc: f64) -> StackConfig {
    let mut c = lane_cfg(conc, 42);
    c.guard = GuardConfig::web_defaults();
    c
}

/// Overload + crash combined: past the Eighth-scale knee with web node 0
/// crashing mid-run. Deadline and queue-gate sheds, brownout, breaker
/// trips on the dead backend and half-open probing all fire.
fn cliff_cfg() -> StackConfig {
    let mut c = guard_cfg(384.0);
    c.measure = SimDuration::from_secs(20);
    c.retry_budget = 2;
    c.fault_plan =
        FaultPlan::new().crash_restart(0, SimTime::from_secs(6), SimDuration::from_secs(3));
    c
}

/// Pins one config's untraced and traced `Metrics` (one literal: tracing
/// must not move them) and the traced run's Prometheus and Chrome-trace
/// exports.
fn assert_exports(what: &str, make: impl Fn() -> StackConfig, [metrics, prom, trace]: [u64; 3]) {
    assert_digest(&format!("{what} Metrics"), &format!("{:?}", run(make()).metrics), metrics);
    let mut w = run_traced(make(), Telemetry::on());
    assert_digest(&format!("{what} traced Metrics"), &format!("{:?}", w.metrics), metrics);
    let tel = w.take_telemetry();
    assert_digest(&format!("{what} Prometheus"), &tel.prometheus_text(), prom);
    assert_digest(&format!("{what} Chrome trace"), &tel.chrome_trace_json(), trace);
}

#[test]
fn lane_light_load() {
    assert_exports(
        "Edison Eighth @16",
        || lane_cfg(16.0, 42),
        [0xb63a_1dfb_3f53_4541, 0xc67c_923b_46d8_e434, 0xf8b9_6f73_d604_440c],
    );
}

#[test]
fn lane_saturated() {
    // SYN drops, the kernel retransmit ladder and 5xx backlog overflow
    assert_exports(
        "Edison Eighth @256",
        || lane_cfg(256.0, 42),
        [0xcf9a_38ec_8789_1c6f, 0xb4e1_0712_158c_60a4, 0x5607_beff_42b7_13ec],
    );
}

#[test]
fn lane_seed_7() {
    assert_exports(
        "Edison Eighth @48 seed 7",
        || lane_cfg(48.0, 7),
        [0xc209_43cb_1582_1325, 0x3f87_9739_10a4_9d09, 0x2dcb_65c7_9d30_d8e3],
    );
}

#[test]
fn lane_seed_1234() {
    assert_exports(
        "Edison Eighth @48 seed 1234",
        || lane_cfg(48.0, 1234),
        [0x240b_e05c_7aca_0c20, 0xe6e7_5d6d_5e37_5ddd, 0x970b_d4e1_a183_75b9],
    );
}

#[test]
fn crash_mid_request_with_retries() {
    assert_exports(
        "crash budget 2",
        || crash_cfg(2),
        [0xcd56_1dc9_9d90_8499, 0x2b9a_91dd_d0d0_24aa, 0x01d6_0a08_d13f_bdc2],
    );
}

#[test]
fn crash_mid_request_without_retries() {
    assert_exports(
        "crash budget 0",
        || crash_cfg(0),
        [0x1f06_b383_7dd7_6d1f, 0x6afe_58aa_0606_1477, 0x2a93_5041_d40b_b72e],
    );
}

#[test]
fn crash_fixtures_exercise_retry_and_hard_error_paths() {
    // guard against the crash fixtures silently degenerating: with a
    // budget the crash must strand a connection that is redispatched;
    // without one the same connection must end as a hard 5xx
    let m = run(crash_cfg(2)).metrics;
    assert_eq!(m.faults_injected, 2, "crash and restart must both land");
    assert!(m.retry_dead_total > 0, "no stranded connection was redispatched");
    let m = run(crash_cfg(0)).metrics;
    assert_eq!(m.faults_injected, 2, "crash and restart must both land");
    assert_eq!(m.retries, 0, "a zero budget must never redispatch");
    assert!(m.server_errors > 0, "no stranded connection ended as a hard error");
}

#[test]
fn guarded_light_load() {
    assert_exports(
        "guarded @16",
        || guard_cfg(16.0),
        [0x9a0e_34ae_65f8_2ec3, 0x8dba_94ea_b342_9ffb, 0x879f_5505_b9f6_22cc],
    );
}

#[test]
fn guarded_past_the_knee() {
    // the admission gate, brownout and deadline sheds
    assert_exports(
        "guarded @384",
        || guard_cfg(384.0),
        [0x9bde_2557_68df_9d23, 0xf8c2_7bb9_4bb9_82cd, 0x0de0_2f10_8bf7_87c8],
    );
}

#[test]
fn guarded_overload_crash_cliff() {
    assert_exports(
        "guarded cliff",
        cliff_cfg,
        [0x2ba8_f56b_afb4_cbdc, 0xbe39_aac4_2a84_0538, 0x9b0b_b21a_8c3a_9796],
    );
}
