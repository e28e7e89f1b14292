//! Engine-level observation: an [`Observer`] that aggregates event counts.
//!
//! [`EventCounter`] plugs into `Simulation::run_observed` and tallies
//! delivered events per kind (via a caller-supplied classifier), the peak
//! heap depth, total follow-up scheduling, and the final sim time — then
//! dumps the lot into a [`Telemetry`] registry under the `sim_*` metric
//! names.

use crate::Telemetry;
use edison_simcore::time::SimTime;
use edison_simcore::Observer;
use std::collections::BTreeMap;

/// Counts events per kind while a simulation runs.
///
/// `F` classifies each event into a static kind string (typically an
/// `Ev::kind()` method on the world's event enum). The counter never
/// influences scheduling; it only reads.
#[derive(Debug, Clone)]
pub struct EventCounter<F> {
    classify: F,
    counts: BTreeMap<&'static str, u64>,
    max_heap_depth: usize,
    scheduled: u64,
    end: SimTime,
    watchdog: Option<(SimTime, u64)>,
}

impl<F> EventCounter<F> {
    /// New counter using `classify` to name event kinds.
    pub fn new(classify: F) -> Self {
        EventCounter {
            classify,
            counts: BTreeMap::new(),
            max_heap_depth: 0,
            scheduled: 0,
            end: SimTime::ZERO,
            watchdog: None,
        }
    }

    /// Per-kind delivered-event counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total delivered events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Largest observed heap depth (events still queued at delivery time).
    pub fn max_heap_depth(&self) -> usize {
        self.max_heap_depth
    }

    /// `(time, processed)` if the max-events watchdog halted the run.
    pub fn watchdog(&self) -> Option<(SimTime, u64)> {
        self.watchdog
    }

    /// Dump the aggregates into `tel` under the `sim_*` metric names,
    /// labelled `world=<world>`.
    pub fn record_into(&self, tel: &mut Telemetry, world: &str) {
        if !tel.is_on() {
            return;
        }
        tel.help("sim_events_total", "events delivered by the engine, by kind");
        tel.help("sim_events_scheduled_total", "follow-up events scheduled by handlers");
        tel.help("sim_heap_depth_max", "peak event-heap depth during the run");
        tel.help("sim_end_seconds", "sim time when the run finished");
        tel.help("sim_watchdog_trips_total", "runs halted by the max-events watchdog");
        for (&kind, &n) in &self.counts {
            tel.counter_add("sim_events_total", &[("world", world), ("kind", kind)], n);
        }
        tel.counter_add("sim_events_scheduled_total", &[("world", world)], self.scheduled);
        tel.gauge_set(
            "sim_heap_depth_max",
            &[("world", world)],
            self.max_heap_depth as f64,
        );
        tel.gauge_set("sim_end_seconds", &[("world", world)], self.end.as_secs_f64());
        if self.watchdog.is_some() {
            tel.counter_inc("sim_watchdog_trips_total", &[("world", world)]);
        }
    }
}

impl<E, F: FnMut(&E) -> &'static str> Observer<E> for EventCounter<F> {
    fn pre_event(&mut self, _now: SimTime, event: &E, heap_depth: usize) {
        *self.counts.entry((self.classify)(event)).or_insert(0) += 1;
        self.max_heap_depth = self.max_heap_depth.max(heap_depth);
    }

    fn post_event(&mut self, now: SimTime, newly_scheduled: usize, _processed: u64) {
        self.scheduled += u64::try_from(newly_scheduled).unwrap_or(u64::MAX);
        self.end = now;
    }

    fn on_watchdog(&mut self, now: SimTime, processed: u64) {
        self.watchdog = Some((now, processed));
        self.end = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edison_simcore::time::SimDuration;
    use edison_simcore::{Ctx, Model, Simulation};

    struct PingPong {
        left: u32,
    }
    #[derive(Clone, Copy)]
    enum Ev {
        Ping,
        Pong,
    }
    impl Ev {
        fn kind(&self) -> &'static str {
            match self {
                Ev::Ping => "ping",
                Ev::Pong => "pong",
            }
        }
    }
    impl Model for PingPong {
        type Event = Ev;
        fn handle(&mut self, _now: SimTime, ev: Ev, ctx: &mut Ctx<Ev>) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            let next = match ev {
                Ev::Ping => Ev::Pong,
                Ev::Pong => Ev::Ping,
            };
            ctx.schedule_in(SimDuration::from_millis(1), next);
        }
    }

    #[test]
    fn counts_by_kind_and_records_metrics() {
        let mut sim = Simulation::new(PingPong { left: 5 });
        sim.schedule_at(SimTime::ZERO, Ev::Ping);
        let mut obs = EventCounter::new(Ev::kind);
        sim.run_observed(&mut obs);
        assert_eq!(obs.counts().get("ping"), Some(&3));
        assert_eq!(obs.counts().get("pong"), Some(&3));
        assert_eq!(obs.total(), 6);
        assert_eq!(obs.end, SimTime::from_millis(5));

        let mut tel = Telemetry::on();
        obs.record_into(&mut tel, "pingpong");
        let counters: Vec<_> = tel.registry.counters().collect();
        assert!(counters
            .iter()
            .any(|&(n, l, v)| n == "sim_events_total"
                && l.get("kind").map(String::as_str) == Some("ping")
                && v == 3));
    }

    #[test]
    fn watchdog_is_surfaced() {
        let mut sim = Simulation::new(PingPong { left: u32::MAX });
        sim.set_max_events(Some(10));
        sim.schedule_at(SimTime::ZERO, Ev::Ping);
        let mut obs = EventCounter::new(Ev::kind);
        sim.run_observed(&mut obs);
        assert_eq!(obs.watchdog(), Some((SimTime::from_millis(9), 10)));
        let mut tel = Telemetry::on();
        obs.record_into(&mut tel, "pingpong");
        assert!(tel
            .registry
            .counters()
            .any(|(n, _, v)| n == "sim_watchdog_trips_total" && v == 1));
    }
}
