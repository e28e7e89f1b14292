//! Processor-sharing "fluid" resources.
//!
//! A [`FluidResource`] serves a set of concurrent tasks at a total rate of at
//! most `capacity` work-units per second, with no task exceeding
//! `per_task_cap`. Between mutations the active task set is constant, so
//! every task progresses at the same, exactly computable rate
//!
//! ```text
//! rate(n) = min(per_task_cap, capacity / n)
//! ```
//!
//! and the next completion time is known in closed form — no time-stepping.
//! This models:
//!
//! * a **CPU**: capacity = aggregate DMIPS of the node, per-task cap = DMIPS
//!   of one hardware thread (a single thread cannot use two cores);
//! * a **network link**: capacity = line rate in bytes/s, per-task cap = ∞
//!   (one flow may saturate a link).
//!
//! ### Event invalidation protocol
//!
//! The owning model schedules a tentative completion event carrying the
//! resource's [`epoch`](FluidResource::epoch). Every mutation (task added or
//! removed) bumps the epoch; stale events are ignored on delivery and the
//! model re-schedules from [`next_completion`](FluidResource::next_completion).
//! The kernel's heap never needs random deletion.
//!
//! ### Layout and cost per operation
//!
//! Tasks live in two parallel `Vec`s: `rems` holds remaining work in
//! **non-increasing** order and `ids` the task beside each entry, so the
//! next task to finish sits at the tail.
//!
//! The order survives progress without a re-sort. Every task takes the
//! same step `rem - step.min(rem)`, and under IEEE round-to-nearest that is
//! monotone in `rem`: a step can make two tasks tie, never swap them. With
//! `k` the number of tasks holding at least `step`, the step is a binary
//! search for `k`, then `rem -= step` over the head `rems[..k]` (exactly
//! `rem - step.min(rem)` there, with no branch) and `+0.0` over the clamped
//! tail.
//!
//! * `advance` is O(log n) plus one branch-free pass over a contiguous
//!   `f64` slice.
//! * `add` advances, binary-searches its slot and inserts: O(n) moves,
//!   plus a linear duplicate-id check.
//! * `take_finished` advances and pops finished tasks off the tail; it
//!   sorts `done` by id only when it holds more than one id, and allocates
//!   nothing once the caller's buffer has grown.
//! * [`next_completion`](FluidResource::next_completion) reads the tail:
//!   the lowest id among the tasks tied with the last one, so the
//!   least-work-then-lowest-id rule of a full scan.
//! * `cancel` and `remaining` find their task by a linear search over
//!   `ids`; only crash faults cancel tasks.
//!
//! Remaining work, completion instants, finished ids, epochs and
//! `busy_seconds` are bit-identical to advancing every task in id order.
//! `work_done` is not: a step adds `step × k` plus the clamped residues,
//! the same quantity grouped differently, so its low bits may differ.

use crate::time::{SimDuration, SimTime};

/// Absolute tolerance under which remaining work counts as finished.
///
/// Completion instants are rounded to whole nanoseconds; advancing to a
/// rounded instant can leave up to `rate × 0.5 ns` of residue — ≈4.4e-5 MI
/// at the fastest CPU in the repo (the Dell socket). The epsilon must sit
/// comfortably above that or the completion-event protocol re-schedules
/// the same instant forever. 1e-3 MI ≈ 1000 instructions: far above any
/// rounding residue, far below any modelled task.
const WORK_EPS: f64 = 1e-3;

/// Identifier for a task inside a fluid resource (caller-assigned).
pub type TaskId = u64;

/// A processor-sharing fluid resource. See module docs.
#[derive(Debug, Clone)]
pub struct FluidResource {
    capacity: f64,
    per_task_cap: f64,
    /// Remaining work units per task, non-increasing: the next task to
    /// finish is in the tail block of values equal to the last one. Never
    /// NaN or `-0.0` (work is asserted finite and positive, and a step
    /// leaves at least `+0.0`), so `==` and `>=` agree with `total_cmp`.
    rems: Vec<f64>,
    /// The task of each entry in `rems`.
    ids: Vec<TaskId>,
    last_update: SimTime,
    epoch: u64,
    /// Total work completed over the lifetime of the resource.
    work_done: f64,
    /// ∫ utilisation dt (seconds of full-capacity-equivalent use).
    busy_integral: f64,
}

impl FluidResource {
    /// Create a resource with total `capacity` (work-units/second) and a
    /// per-task rate cap (use `f64::INFINITY` for links).
    ///
    /// Panics if `capacity` or `per_task_cap` is not strictly positive.
    pub fn new(capacity: f64, per_task_cap: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(per_task_cap > 0.0, "per-task cap must be positive");
        FluidResource {
            capacity,
            per_task_cap,
            rems: Vec::new(),
            ids: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            work_done: 0.0,
            busy_integral: 0.0,
        }
    }

    /// Total service capacity in work-units/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight tasks.
    pub fn len(&self) -> usize {
        self.rems.len()
    }

    /// True when no task is in flight.
    pub fn is_empty(&self) -> bool {
        self.rems.is_empty()
    }

    /// Mutation epoch, for the completion-event invalidation protocol.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current per-task service rate (work-units/second); zero when idle.
    pub fn rate_per_task(&self) -> f64 {
        let n = self.rems.len();
        if n == 0 {
            0.0
        } else {
            self.per_task_cap.min(self.capacity / n as f64)
        }
    }

    /// Instantaneous utilisation in [0, 1].
    pub fn utilization(&self) -> f64 {
        (self.rate_per_task() * self.rems.len() as f64 / self.capacity).min(1.0)
    }

    /// Total work completed so far (work-units).
    pub fn work_done(&self) -> f64 {
        self.work_done
    }

    /// ∫ utilisation dt in seconds, up to the last `advance`.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_integral
    }

    /// Apply progress between `last_update` and `now` at the current rates.
    ///
    /// Idempotent for equal `now`. Panics in debug builds if time runs
    /// backwards.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "fluid resource time went backwards");
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        self.last_update = now;
        let rate = self.rate_per_task();
        if dt <= 0.0 || rate <= 0.0 {
            return;
        }
        let util = self.utilization();
        let step = rate * dt;
        let k = self.rems.partition_point(|&r| r >= step);
        let (head, tail) = self.rems.split_at_mut(k);
        for r in head {
            *r -= step;
        }
        // the clamped tasks finish their work: `rem - rem` is `+0.0`
        let mut done = step * k as f64;
        for r in tail {
            done += *r;
            *r = 0.0;
        }
        self.work_done += done;
        self.busy_integral += util * dt;
        self.debug_check_order();
    }

    /// Add a task with `work` units. Advances to `now` first and bumps the
    /// epoch.
    ///
    /// Panics if the id is already in flight or `work` is not finite/positive.
    pub fn add(&mut self, now: SimTime, id: TaskId, work: f64) {
        assert!(work.is_finite() && work > 0.0, "invalid work amount {work}");
        assert!(!self.ids.contains(&id), "duplicate fluid task id {id}");
        self.advance(now);
        let at = self.rems.partition_point(|&r| r >= work);
        self.rems.insert(at, work);
        self.ids.insert(at, id);
        self.epoch += 1;
        self.debug_check_order();
    }

    /// Remove a task regardless of progress (e.g. a cancelled transfer).
    /// Returns its remaining work, or `None` if unknown.
    pub fn cancel(&mut self, now: SimTime, id: TaskId) -> Option<f64> {
        self.advance(now);
        let i = self.slot(id)?;
        self.ids.remove(i);
        let rem = self.rems.remove(i);
        self.epoch += 1;
        self.debug_check_order();
        Some(rem)
    }

    /// The next task to finish and its completion time, if any.
    ///
    /// All in-flight tasks share one rate, so the task with the least
    /// remaining work finishes first; ties broken by lowest id for
    /// determinism. Reads only the tail block of tasks tied with the last.
    pub fn next_completion(&self, now: SimTime) -> Option<(TaskId, SimTime)> {
        let rate = self.rate_per_task();
        if rate <= 0.0 {
            return None;
        }
        let mut i = self.rems.len().checked_sub(1)?;
        let rem = self.rems[i];
        let mut id = self.ids[i];
        while i > 0 && self.rems[i - 1] == rem {
            i -= 1;
            id = id.min(self.ids[i]);
        }
        let dt = (rem / rate).max(0.0);
        // Round the completion instant *up* (plus 1 ns of slack) so that
        // advancing to it always clears the task's remaining work; rounding
        // to nearest can land half a nanosecond early and strand residue
        // above any epsilon.
        // simlint: allow(R3) dt is clamped non-negative; ceil keeps the cast in range
        let dt_nanos = (dt * 1e9).ceil() as u64 + 1;
        Some((id, now + SimDuration(dt_nanos)))
    }

    /// Advance to `now` and move every task whose remaining work is
    /// (numerically) zero into `done`, replacing its contents.
    ///
    /// Call this from the completion-event handler after verifying the epoch;
    /// it bumps the epoch if anything finished. `done` comes out sorted by
    /// id. Finished tasks are the tail of `rems`, so the reap only pops.
    pub fn take_finished(&mut self, now: SimTime, done: &mut Vec<TaskId>) {
        done.clear();
        self.advance(now);
        while self.rems.last().is_some_and(|&r| r <= WORK_EPS) {
            self.rems.pop();
            done.extend(self.ids.pop());
        }
        if done.len() > 1 {
            done.sort_unstable();
        }
        if !done.is_empty() {
            self.epoch += 1;
        }
    }

    /// Remaining work of a task, if in flight (advances nothing).
    pub fn remaining(&self, id: TaskId) -> Option<f64> {
        self.slot(id).map(|i| self.rems[i])
    }

    /// Index of task `id` in `ids` and `rems`, if in flight.
    fn slot(&self, id: TaskId) -> Option<usize> {
        self.ids.iter().position(|&t| t == id)
    }

    /// Test builds check after each mutation that `rems` stays
    /// non-increasing, the invariant every other method relies on.
    fn debug_check_order(&self) {
        debug_assert!(
            self.rems.windows(2).all(|w| w[0] >= w[1]),
            "fluid remaining work out of order: {:?}",
            self.rems
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_task_runs_at_cap() {
        // capacity 100/s, cap 10/s per task: a lone task runs at 10/s.
        let mut r = FluidResource::new(100.0, 10.0);
        r.add(t(0.0), 1, 50.0);
        let (id, at) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 5.0).abs() < 1e-8);
    }

    #[test]
    fn sharing_splits_capacity() {
        // capacity 10/s, no per-task cap: two tasks get 5/s each.
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        r.add(t(0.0), 1, 10.0);
        r.add(t(0.0), 2, 20.0);
        let (id, at) = r.next_completion(t(0.0)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 2.0).abs() < 1e-8);
        // after task 1 finishes, task 2 speeds up to 10/s with 10 left.
        let mut done = Vec::new();
        r.take_finished(at, &mut done);
        assert_eq!(done, vec![1]);
        let (id2, at2) = r.next_completion(at).unwrap();
        assert_eq!(id2, 2);
        assert!((at2.as_secs_f64() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn late_arrival_slows_existing_task() {
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        r.add(t(0.0), 1, 10.0); // alone: would finish at t=1
        r.add(t(0.5), 2, 10.0); // 1 has 5 left; now both at 5/s
        let (id, at) = r.next_completion(t(0.5)).unwrap();
        assert_eq!(id, 1);
        assert!((at.as_secs_f64() - 1.5).abs() < 1e-8);
    }

    #[test]
    fn epoch_bumps_on_mutation() {
        let mut r = FluidResource::new(1.0, 1.0);
        let e0 = r.epoch();
        r.add(t(0.0), 1, 1.0);
        assert!(r.epoch() > e0);
        let e1 = r.epoch();
        r.cancel(t(0.5), 1);
        assert!(r.epoch() > e1);
        // cancelling a missing task does not bump
        let e2 = r.epoch();
        assert!(r.cancel(t(0.6), 99).is_none());
        assert_eq!(r.epoch(), e2);
    }

    #[test]
    fn utilization_and_busy_integral() {
        let mut r = FluidResource::new(10.0, 5.0);
        assert_eq!(r.utilization(), 0.0);
        r.add(t(0.0), 1, 5.0); // runs at 5/s → 50% utilisation
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        r.advance(t(1.0));
        let mut done = Vec::new();
        r.take_finished(t(1.0), &mut done);
        assert_eq!(done, vec![1]);
        assert!((r.busy_seconds() - 0.5).abs() < 1e-9);
        assert!((r.work_done() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn work_conservation_under_mutation_storm() {
        // total completed work must equal total submitted work.
        let mut r = FluidResource::new(7.0, 3.0);
        let mut now = t(0.0);
        let mut submitted = 0.0;
        let mut done = Vec::new();
        for i in 0..50u64 {
            let w = 1.0 + (i % 7) as f64;
            r.add(now, i, w);
            submitted += w;
            now = now + SimDuration::from_millis(137);
            r.advance(now);
            r.take_finished(now, &mut done);
        }
        // drain
        while let Some((_, at)) = r.next_completion(now) {
            now = at;
            r.take_finished(now, &mut done);
        }
        assert!(r.is_empty());
        assert!(
            (r.work_done() - submitted).abs() < 1e-3,
            "done {} vs submitted {submitted}",
            r.work_done()
        );
    }

    #[test]
    fn cancel_returns_remaining() {
        let mut r = FluidResource::new(10.0, 10.0);
        r.add(t(0.0), 1, 10.0);
        let rem = r.cancel(t(0.5), 1).unwrap();
        assert!((rem - 5.0).abs() < 1e-9);
        assert!(r.is_empty());
    }

    #[test]
    fn deterministic_tie_break_by_id() {
        for order in [[3, 7], [7, 3]] {
            let mut r = FluidResource::new(10.0, f64::INFINITY);
            r.add(t(0.0), 5, 9.0);
            for id in order {
                r.add(t(0.0), id, 4.0);
            }
            r.add(t(0.0), 1, 6.0);
            assert_eq!(r.next_completion(t(0.0)).unwrap().0, 3, "insert order {order:?}");
            // still tied after a step: the lower id stays next
            r.advance(t(0.5));
            assert_eq!(r.remaining(3), r.remaining(7));
            assert_eq!(r.next_completion(t(0.5)).unwrap().0, 3, "insert order {order:?}");
        }
    }

    #[test]
    fn same_step_clamp_ties_go_to_lower_id() {
        // task 5 (added first) and task 2 both clamp to 0.0 in one advance
        // while task 9 is left with work; the lower id is the next to finish.
        let mut r = FluidResource::new(30.0, f64::INFINITY);
        r.add(t(0.0), 5, 1.0);
        r.add(t(0.0), 2, 2.0);
        r.add(t(0.0), 9, 100.0);
        r.advance(t(1.0)); // 10/s each: both small tasks clamp to 0.0
        assert_eq!(r.remaining(5), Some(0.0));
        assert_eq!(r.remaining(2), Some(0.0));
        let (id, at) = r.next_completion(t(1.0)).unwrap();
        assert_eq!(id, 2);
        assert_eq!(at, t(1.0) + SimDuration(1));
    }

    #[test]
    fn cancel_of_next_hands_over_to_runner_up() {
        // 10/s shared by two, 5/s each: task 4 would finish first.
        let mut r = FluidResource::new(10.0, f64::INFINITY);
        r.add(t(0.0), 4, 5.0);
        r.add(t(0.0), 8, 20.0);
        assert_eq!(r.next_completion(t(0.0)).unwrap().0, 4);
        // at 0.5 s task 8 has 17.5 left and runs alone at 10/s
        assert_eq!(r.cancel(t(0.5), 4), Some(2.5));
        let (id, at) = r.next_completion(t(0.5)).unwrap();
        assert_eq!(id, 8);
        assert_eq!(at, SimTime(2_250_000_001));
        // ... and its cancellation empties the resource
        r.cancel(t(1.0), 8);
        assert_eq!(r.next_completion(t(1.0)), None);
    }

    #[test]
    fn take_finished_at_zero_dt_advances_nothing() {
        let mut r = FluidResource::new(10.0, 10.0);
        r.add(t(1.0), 1, 5.0);
        let (work, busy, epoch) = (r.work_done(), r.busy_seconds(), r.epoch());
        let mut done = vec![99];
        r.take_finished(t(1.0), &mut done);
        assert!(done.is_empty());
        assert_eq!(r.remaining(1), Some(5.0));
        assert_eq!((r.work_done(), r.busy_seconds(), r.epoch()), (work, busy, epoch));
        // a task below the epsilon finishes at dt == 0 and bumps the epoch
        r.add(t(1.0), 2, 1e-4);
        let (work, epoch) = (r.work_done(), r.epoch());
        r.take_finished(t(1.0), &mut done);
        assert_eq!(done, vec![2]);
        assert_eq!(r.epoch(), epoch + 1);
        assert_eq!(r.work_done(), work);
        assert_eq!(r.next_completion(t(1.0)).unwrap().0, 1);
    }

    #[test]
    fn cancel_from_the_middle_keeps_order_and_next() {
        let mut r = FluidResource::new(40.0, f64::INFINITY);
        for (id, work) in [(1, 40.0), (2, 30.0), (3, 20.0), (4, 10.0)] {
            r.add(t(0.0), id, work);
        }
        assert_eq!(r.next_completion(t(0.0)).unwrap().0, 4);
        // 10/s each for 0.5 s: task 2 has 25 left
        assert_eq!(r.cancel(t(0.5), 2), Some(25.0));
        assert_eq!(r.rems, [35.0, 15.0, 5.0]);
        assert_eq!(r.ids, [1, 3, 4]);
        // three tasks share 40/s: task 4's 5 left take 0.375 s
        assert_eq!(r.next_completion(t(0.5)), Some((4, t(0.875) + SimDuration(1))));
    }

    #[test]
    fn reaping_several_tasks_returns_them_by_id() {
        let mut r = FluidResource::new(40.0, f64::INFINITY);
        // finish order 6, 9, 4: the tail pops neither sorted nor reversed
        for (id, work) in [(6, 1.0), (4, 2.0), (9, 1.5), (2, 50.0)] {
            r.add(t(0.0), id, work);
        }
        let mut done = Vec::new();
        r.take_finished(t(1.0), &mut done); // 10/s each clears all but task 2
        assert_eq!(done, [4, 6, 9]);
        assert_eq!(r.ids, [2]);
        assert_eq!(r.remaining(2), Some(40.0));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_id_panics() {
        // a release `assert!`, not a `debug_assert!`: this holds in every build
        let mut r = FluidResource::new(1.0, 1.0);
        r.add(t(0.0), 1, 1.0);
        r.add(t(0.0), 1, 1.0);
    }
}
