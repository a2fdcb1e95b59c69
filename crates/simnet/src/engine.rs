//! Discrete-event simulation core.
//!
//! A [`Sim`] owns `n` [`Actor`]s and an event heap. Actors react to typed
//! events, send messages (delivered after a caller-computed delay — usually
//! from the fabric's `CostModel`) and set timers. Determinism: ties in time
//! break by sequence number, so runs are reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Delivery time (ns).
    pub time: f64,
    /// Destination actor.
    pub dst: usize,
    /// Source actor (self for timers).
    pub src: usize,
    /// Application-defined event kind.
    pub kind: u64,
    /// Application-defined payload.
    pub payload: u64,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    ev: Event,
    seq: u64,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.ev.time == other.ev.time && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq) via reversed comparison.
        other
            .ev
            .time
            .partial_cmp(&self.ev.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What an actor can do during a callback.
pub struct Api {
    now: f64,
    me: usize,
    outbox: Vec<(f64, Event)>,
}

impl Api {
    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// This actor's id.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Deliver `kind`/`payload` to `dst` after `delay` ns.
    pub fn send_after(&mut self, dst: usize, delay: f64, kind: u64, payload: u64) {
        debug_assert!(delay >= 0.0);
        self.outbox.push((
            self.now + delay,
            Event { time: self.now + delay, dst, src: self.me, kind, payload },
        ));
    }

    /// Set a timer on self.
    pub fn timer(&mut self, delay: f64, kind: u64, payload: u64) {
        let me = self.me;
        self.send_after(me, delay, kind, payload);
    }
}

/// A simulated process.
pub trait Actor {
    /// Called once at time 0.
    fn start(&mut self, api: &mut Api);
    /// Called per delivered event.
    fn on(&mut self, ev: Event, api: &mut Api);
    /// Completion time to report (or None if never finished).
    fn done_at(&self) -> Option<f64>;
}

/// The simulator.
pub struct Sim<A: Actor> {
    actors: Vec<A>,
    heap: BinaryHeap<Queued>,
    seq: u64,
    events_processed: u64,
}

impl<A: Actor> Sim<A> {
    /// Build from actors.
    pub fn new(actors: Vec<A>) -> Self {
        Sim { actors, heap: BinaryHeap::new(), seq: 0, events_processed: 0 }
    }

    fn flush(&mut self, outbox: Vec<(f64, Event)>) {
        for (_, ev) in outbox {
            self.seq += 1;
            self.heap.push(Queued { ev, seq: self.seq });
        }
    }

    /// Run to quiescence (or `max_events`). Returns per-actor completion
    /// times.
    pub fn run(&mut self, max_events: u64) -> Vec<Option<f64>> {
        for i in 0..self.actors.len() {
            let mut api = Api { now: 0.0, me: i, outbox: Vec::new() };
            self.actors[i].start(&mut api);
            let out = std::mem::take(&mut api.outbox);
            self.flush(out);
        }
        while let Some(q) = self.heap.pop() {
            self.events_processed += 1;
            if self.events_processed > max_events {
                panic!("simulation exceeded {max_events} events — runaway protocol?");
            }
            let ev = q.ev;
            let mut api = Api { now: ev.time, me: ev.dst, outbox: Vec::new() };
            self.actors[ev.dst].on(ev, &mut api);
            let out = std::mem::take(&mut api.outbox);
            self.flush(out);
        }
        self.actors.iter().map(|a| a.done_at()).collect()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Access the actors after a run.
    pub fn actors(&self) -> &[A] {
        &self.actors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: actor 0 sends to 1 and back, 10 hops of 100 ns.
    struct Ping {
        id: usize,
        hops_left: u64,
        done: Option<f64>,
    }

    impl Actor for Ping {
        fn start(&mut self, api: &mut Api) {
            if self.id == 0 {
                api.send_after(1, 100.0, 1, self.hops_left);
            }
        }
        fn on(&mut self, ev: Event, api: &mut Api) {
            // payload = hops remaining including the one just taken.
            if ev.payload > 1 {
                let peer = 1 - self.id;
                api.send_after(peer, 100.0, 1, ev.payload - 1);
            }
            self.done = Some(api.now());
        }
        fn done_at(&self) -> Option<f64> {
            self.done
        }
    }

    #[test]
    fn ping_pong_timing_is_exact() {
        let actors = vec![
            Ping { id: 0, hops_left: 10, done: None },
            Ping { id: 1, hops_left: 10, done: None },
        ];
        let mut sim = Sim::new(actors);
        let done = sim.run(1_000);
        // 10 hops of 100 ns: last delivery at 1000 ns.
        let latest = done.iter().flatten().cloned().fold(0.0, f64::max);
        assert_eq!(latest, 1000.0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        struct Tied {
            order: Vec<u64>,
            done: Option<f64>,
        }
        impl Actor for Tied {
            fn start(&mut self, api: &mut Api) {
                // Three events at the identical time.
                api.timer(5.0, 1, 10);
                api.timer(5.0, 1, 20);
                api.timer(5.0, 1, 30);
            }
            fn on(&mut self, ev: Event, api: &mut Api) {
                self.order.push(ev.payload);
                self.done = Some(api.now());
            }
            fn done_at(&self) -> Option<f64> {
                self.done
            }
        }
        let run = || {
            let mut sim = Sim::new(vec![Tied { order: vec![], done: None }]);
            sim.run(100);
            sim.actors()[0].order.clone()
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![10, 20, 30]); // FIFO among ties
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn event_cap_trips() {
        struct Loopy;
        impl Actor for Loopy {
            fn start(&mut self, api: &mut Api) {
                api.timer(1.0, 0, 0);
            }
            fn on(&mut self, _ev: Event, api: &mut Api) {
                api.timer(1.0, 0, 0);
            }
            fn done_at(&self) -> Option<f64> {
                None
            }
        }
        Sim::new(vec![Loopy]).run(1_000);
    }
}
