//! Property tests of the kernel's foundational invariants.

use edison_simcore::energy::StepIntegrator;
use edison_simcore::fluid::{FluidResource, TaskId};
use edison_simcore::queue::FcfsQueue;
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, Model, Simulation};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// World that records delivery order for the ordering property.
struct OrderCheck {
    last: SimTime,
    delivered: Vec<u32>,
}

impl Model for OrderCheck {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _ctx: &mut Ctx<u32>) {
        assert!(now >= self.last, "time went backwards");
        self.last = now;
        self.delivered.push(ev);
    }
}

/// The `BTreeMap`-backed `FluidResource` as it was before tasks moved to
/// an id-sorted `Vec`, kept verbatim (minus the docs) as the reference for
/// the two `fluid_matches_*` properties.
struct RefFluid {
    capacity: f64,
    per_task_cap: f64,
    tasks: BTreeMap<TaskId, f64>,
    last_update: SimTime,
    epoch: u64,
    work_done: f64,
    busy_integral: f64,
}

impl RefFluid {
    const WORK_EPS: f64 = 1e-3;

    fn new(capacity: f64, per_task_cap: f64) -> Self {
        RefFluid {
            capacity,
            per_task_cap,
            tasks: BTreeMap::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            work_done: 0.0,
            busy_integral: 0.0,
        }
    }

    fn rate_per_task(&self) -> f64 {
        let n = self.tasks.len();
        if n == 0 {
            0.0
        } else {
            self.per_task_cap.min(self.capacity / n as f64)
        }
    }

    fn utilization(&self) -> f64 {
        (self.rate_per_task() * self.tasks.len() as f64 / self.capacity).min(1.0)
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let rate = self.rate_per_task();
            if rate > 0.0 {
                let mut done = 0.0;
                for rem in self.tasks.values_mut() {
                    let step = rate * dt;
                    let used = step.min(*rem);
                    *rem -= used;
                    done += used;
                }
                self.work_done += done;
                self.busy_integral += self.utilization() * dt;
            }
        }
        self.last_update = now;
    }

    fn add(&mut self, now: SimTime, id: TaskId, work: f64) {
        self.advance(now);
        assert!(self.tasks.insert(id, work).is_none());
        self.epoch += 1;
    }

    fn cancel(&mut self, now: SimTime, id: TaskId) -> Option<f64> {
        self.advance(now);
        let rem = self.tasks.remove(&id);
        if rem.is_some() {
            self.epoch += 1;
        }
        rem
    }

    fn next_completion(&self, now: SimTime) -> Option<(TaskId, SimTime)> {
        let rate = self.rate_per_task();
        if rate <= 0.0 {
            return None;
        }
        let (&id, &rem) = self.tasks.iter().min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))?;
        let dt = (rem / rate).max(0.0);
        let dt_nanos = (dt * 1e9).ceil() as u64 + 1;
        Some((id, now + SimDuration(dt_nanos)))
    }

    fn take_finished(&mut self, now: SimTime) -> Vec<TaskId> {
        self.advance(now);
        let mut done: Vec<TaskId> =
            self.tasks.iter().filter(|&(_, &rem)| rem <= Self::WORK_EPS).map(|(&id, _)| id).collect();
        done.sort_unstable();
        for id in &done {
            self.tasks.remove(id);
        }
        if !done.is_empty() {
            self.epoch += 1;
        }
        done
    }
}

/// Task ids the fluid bit-identity property draws from.
const FLUID_IDS: u64 = 48;

/// Task ids the web-sized fluid property draws from: enough for the 50–250
/// tasks a web node CPU holds.
const WEB_FLUID_IDS: u64 = 512;

/// Replay `(op, id, work, gap_us)` steps on a `FluidResource` and on
/// `RefFluid`, asserting after every step that they agree: same completion
/// instants and ids, same remaining work per task, same `busy_seconds`
/// bits, same epochs and lengths. `work_done` is grouped differently (one
/// `step × k` per advance), so it must agree to 1e-12 relative. Op 0 adds,
/// 1 cancels, 2 advances and 3 jumps to the next completion and reaps.
fn replay_against_reference(capacity: f64, cap_frac: f64, ids: u64, ops: &[(u8, u64, f64, u64)]) {
    let per_task = (capacity * cap_frac).max(0.001);
    let mut got = FluidResource::new(capacity, per_task);
    let mut want = RefFluid::new(capacity, per_task);
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    for &(op, id, work, gap_us) in ops {
        now += SimDuration::from_micros(gap_us);
        match op {
            0 => {
                if !want.tasks.contains_key(&id) {
                    got.add(now, id, work);
                    want.add(now, id, work);
                }
            }
            1 => {
                let (g, w) = (got.cancel(now, id), want.cancel(now, id));
                prop_assert_eq!(g.map(f64::to_bits), w.map(f64::to_bits));
            }
            2 => {
                got.advance(now);
                want.advance(now);
            }
            _ => {
                // jump to the next completion, as a model's handler does
                let next = got.next_completion(now);
                prop_assert_eq!(next, want.next_completion(now));
                if let Some((_, at)) = next {
                    now = at;
                }
                got.take_finished(now, &mut done);
                prop_assert_eq!(&done, &want.take_finished(now));
            }
        }
        prop_assert_eq!(got.len(), want.tasks.len());
        prop_assert_eq!(got.epoch(), want.epoch);
        prop_assert!(
            (got.work_done() - want.work_done).abs() <= 1e-12 * want.work_done.abs().max(1.0),
            "work_done {} vs reference {}",
            got.work_done(),
            want.work_done
        );
        prop_assert_eq!(got.busy_seconds().to_bits(), want.busy_integral.to_bits());
        prop_assert_eq!(got.next_completion(now), want.next_completion(now));
        for t in 0..ids {
            prop_assert_eq!(
                got.remaining(t).map(f64::to_bits),
                want.tasks.get(&t).copied().map(f64::to_bits)
            );
        }
    }
}

proptest! {
    // cheap cases (pure arithmetic): buy more of them than the default
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The FluidResource kept in remaining-work order agrees with the
    /// `BTreeMap` one it descends from, under random add / cancel /
    /// advance / take_finished sequences with out-of-order ids.
    #[test]
    fn fluid_matches_btreemap_reference(
        capacity in 1.0f64..1000.0,
        cap_frac in 0.05f64..1.0,
        ops in proptest::collection::vec((0u8..4, 0u64..FLUID_IDS, 0.5f64..400.0, 0u64..20_000), 1..300),
    ) {
        replay_against_reference(capacity, cap_frac, FLUID_IDS, &ops);
    }
}

proptest! {
    /// The same agreement at the task counts a web node CPU sees: runs of
    /// the mixed ops above alternate with add-only runs, so up to a few
    /// hundred tasks share the resource.
    #[test]
    fn fluid_matches_reference_at_web_task_counts(
        capacity in 1.0f64..1000.0,
        cap_frac in 0.05f64..1.0,
        runs in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(
                (0u8..4, 0u64..WEB_FLUID_IDS, 0.5f64..400.0, 0u64..2_000), 1..80)),
            1..12),
    ) {
        let ops: Vec<_> = runs
            .iter()
            .flat_map(|(add_only, run)| run.iter().map(move |&(op, id, work, gap)| {
                (if *add_only { 0 } else { op }, id, work, gap)
            }))
            .collect();
        replay_against_reference(capacity, cap_frac, WEB_FLUID_IDS, &ops);
    }
}

proptest! {
    /// Events are always delivered in non-decreasing time order, whatever
    /// the insertion order, and nothing is lost.
    #[test]
    fn event_delivery_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(OrderCheck { last: SimTime::ZERO, delivered: vec![] });
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime(t), i as u32);
        }
        sim.run();
        prop_assert_eq!(sim.world().delivered.len(), times.len());
        // equal timestamps keep insertion order (stable tie-break)
        let mut seen = std::collections::HashMap::new();
        for &id in &sim.world().delivered {
            let t = times[id as usize];
            if let Some(&prev_id) = seen.get(&t) {
                prop_assert!(id > prev_id, "tie at t={t} broke FIFO: {prev_id} then {id}");
            }
            seen.insert(t, id);
        }
    }

    /// Fluid resources conserve work exactly: everything submitted is
    /// eventually completed, no more, no less.
    #[test]
    fn fluid_conserves_work(
        capacity in 1.0f64..1000.0,
        cap_frac in 0.05f64..1.0,
        jobs in proptest::collection::vec((1.0f64..500.0, 0u64..10_000), 1..60),
    ) {
        let per_task = (capacity * cap_frac).max(0.001);
        let mut r = FluidResource::new(capacity, per_task);
        let mut submitted = 0.0;
        let mut now = SimTime::ZERO;
        let mut done = Vec::new();
        for (i, &(work, gap_us)) in jobs.iter().enumerate() {
            now = now + SimDuration::from_micros(gap_us);
            r.advance(now);
            r.take_finished(now, &mut done);
            r.add(now, i as u64, work);
            submitted += work;
        }
        let mut guard = 0;
        while let Some((_, at)) = r.next_completion(now) {
            now = at;
            r.take_finished(now, &mut done);
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert!(r.is_empty());
        prop_assert!((r.work_done() - submitted).abs() < 1e-3 * submitted.max(1.0),
            "done {} vs submitted {}", r.work_done(), submitted);
    }

    /// FCFS queues never lose or duplicate jobs and never exceed their
    /// server count.
    #[test]
    fn fcfs_conserves_jobs(
        servers in 1usize..5,
        arrivals in proptest::collection::vec((0u64..10_000, 1u64..500), 1..80),
    ) {
        let mut q = FcfsQueue::new(servers);
        let mut events: Vec<(SimTime, bool, u64)> = Vec::new(); // (time, is_completion, job)
        let mut pending: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64)>> =
            Default::default();
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut started = 0u64;
        for (i, &(at, dur)) in sorted.iter().enumerate() {
            let now = SimTime::from_secs(at);
            // drain completions before this arrival
            while let Some(&std::cmp::Reverse((t, _))) = pending.peek() {
                if t > now { break; }
                let std::cmp::Reverse((t, j)) = pending.pop().unwrap();
                events.push((t, true, j));
                if let Some((nj, nt)) = q.complete(t) {
                    pending.push(std::cmp::Reverse((nt, nj)));
                    started += 1;
                }
            }
            if let Some((j, t)) = q.submit(now, i as u64, SimDuration::from_secs(dur)) {
                pending.push(std::cmp::Reverse((t, j)));
                started += 1;
            }
            prop_assert!(q.in_service() <= servers);
        }
        // drain everything
        while let Some(std::cmp::Reverse((t, j))) = pending.pop() {
            events.push((t, true, j));
            if let Some((nj, nt)) = q.complete(t) {
                pending.push(std::cmp::Reverse((nt, nj)));
                started += 1;
            }
        }
        prop_assert_eq!(q.completed() as usize, sorted.len(), "all jobs served");
        prop_assert_eq!(started as usize, sorted.len());
    }

    /// The step integrator is exact for any piecewise-constant signal:
    /// integral equals the hand-computed sum of segments.
    #[test]
    fn integrator_matches_manual_sum(
        segments in proptest::collection::vec((0.0f64..500.0, 1u64..1_000), 1..50),
    ) {
        let mut p = StepIntegrator::new(SimTime::ZERO, 0.0);
        let mut now = SimTime::ZERO;
        let mut manual = 0.0;
        let mut value = 0.0;
        for &(v, ms) in &segments {
            let next = now + SimDuration::from_millis(ms);
            manual += value * SimDuration::from_millis(ms).as_secs_f64();
            p.set(next, v);
            now = next;
            value = v;
        }
        prop_assert!((p.integral_at(now) - manual).abs() < 1e-6 * manual.max(1.0));
    }

    /// Energy is monotone non-decreasing in time for non-negative power.
    #[test]
    fn energy_is_monotone(powers in proptest::collection::vec(0.0f64..200.0, 1..40)) {
        let mut p = StepIntegrator::new(SimTime::ZERO, powers[0]);
        let mut last = 0.0;
        for (i, &w) in powers.iter().enumerate() {
            let t = SimTime::from_secs((i + 1) as u64);
            p.set(t, w);
            let e = p.integral_at(t);
            prop_assert!(e >= last - 1e-9);
            last = e;
        }
    }
}
