//! The engine-only chain: a `Model` whose every event only reschedules
//! itself, run through `simcore::Simulation` with the heap held at a
//! fixed depth. Its cost per event is what the engine alone (heap push,
//! pop and dispatch) costs at that depth: the ceiling on gains from
//! engine-only changes.
//!
//! The reschedule gaps are drawn at random, so each push lands anywhere
//! in the heap, as the web model's pushes do, rather than always at its
//! end, where a binary heap's sift-up would stop at once.

use crate::measure::{median, now_ns};
use edison_simcore::time::{SimDuration, SimTime};
use edison_simcore::{Ctx, Model, Simulation};

/// Heap depths the chain is held at, measured at the default seed. Shallow:
/// the high-water mark of the `web_sweeps` runs below their knees (168 of
/// its 180 runs, 80 % of its events, stay at or under ~120). Deep: the
/// deepest `overload_sweep` run (Dell Half at 2× its knee, guards off).
pub const SHALLOW_DEPTH: usize = 100;
pub const DEEP_DEPTH: usize = 8782;

/// Events delivered per timed chain run.
const EVENTS: u64 = 1 << 20;
/// Timed runs per depth; the median is reported.
const REPS: usize = 5;
/// Seed of the gap stream: every run draws the same gaps.
const GAP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

struct Chain {
    left: u64,
    /// Gaps are uniform in `1..=max_gap_us` µs.
    max_gap_us: u64,
    rng: u64,
}

impl Chain {
    /// xorshift64: cheap beside a heap operation, and fixed by its seed.
    fn next_gap(&mut self) -> SimDuration {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        SimDuration::from_micros(1 + self.rng % self.max_gap_us)
    }
}

impl Model for Chain {
    type Event = ();

    fn handle(&mut self, _now: SimTime, _event: (), ctx: &mut Ctx<()>) {
        if self.left == 0 {
            ctx.stop();
            return;
        }
        self.left -= 1;
        let gap = self.next_gap();
        ctx.schedule_in(gap, ());
    }
}

/// Host ns per engine event with `depth` events always pending: event
/// `i` starts at `i` µs, and every event reschedules itself once, a gap
/// uniform in 1…2·`depth` µs later (mean `depth`), so the heap never
/// grows or shrinks.
pub fn chain_ns(depth: usize) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sim = Simulation::new(Chain {
                left: EVENTS,
                max_gap_us: 2 * depth as u64,
                rng: GAP_SEED,
            });
            for i in 0..depth {
                sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(i as u64), ());
            }
            let t0 = now_ns();
            let delivered = std::hint::black_box(sim.run());
            (now_ns() - t0) as f64 / delivered as f64
        })
        .collect();
    median(&runs)
}
