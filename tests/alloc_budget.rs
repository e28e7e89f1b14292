//! Allocation budget of the telemetry-off web hot path.
//!
//! The web model with telemetry off is meant to allocate nothing per
//! event: fluid tasks live in `Vec`s kept in remaining-work order, CPU
//! completions land in a buffer the world owns, network paths are
//! inline, label sets are built only when a sink is on, and the engine
//! reuses the scheduling buffer the web helpers write into. What is left
//! is amortised growth (request/connection maps, delay samples). This
//! test counts every allocation of one Edison Eighth httperf point after
//! the world is built and holds it to at most one allocation per hundred
//! engine events.
//!
//! It is the only test in this binary: the counting allocator is
//! process-global, so a concurrent test would pollute the count.

use edison_bench::{alloc_counts, CountingAlloc};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::Simulation;
use edison_web::httperf::CALLS_PER_CONN;
use edison_web::stack::{Ev, GenMode, StackConfig, WebWorld};
use edison_web::{ClusterScale, Platform, WebScenario, WorkloadMix};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per delivered engine event the hot path may cost.
const BUDGET: f64 = 0.01;

#[test]
fn telemetry_off_web_point_stays_within_allocation_budget() {
    let scenario = WebScenario::table6(Platform::Edison, ClusterScale::Eighth).unwrap();
    let gen = GenMode::Httperf { connections_per_sec: 64.0, calls_per_conn: CALLS_PER_CONN };
    let mut cfg = StackConfig::new(scenario, WorkloadMix::lightest(), gen, 20160509);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.measure = SimDuration::from_secs(6);
    let (warmup, measure) = (cfg.warmup, cfg.measure);

    let world = WebWorld::new(cfg);
    // the same initial events `stack::run` schedules for a fault-free run
    let before = alloc_counts().allocs;
    let mut sim = Simulation::new(world);
    sim.schedule_at(SimTime::ZERO, Ev::GenConn);
    sim.schedule_idle_at(SimTime::ZERO, Ev::Sample);
    sim.schedule_at(SimTime::ZERO + warmup, Ev::MeasureStart);
    sim.schedule_at(SimTime::ZERO + warmup + measure, Ev::Stop);
    let events = sim.run();
    let allocs = alloc_counts().allocs - before;

    assert!(sim.world().metrics.completed > 1000, "the point must carry load");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= BUDGET,
        "{allocs} allocations over {events} events = {per_event:.3}/event > {BUDGET}"
    );
}
