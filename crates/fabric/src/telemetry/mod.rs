//! # Virtual-time telemetry
//!
//! Observability for the simulated fabric: every RMA operation and every
//! synchronisation action can be recorded as a fixed-size [`Event`] carrying
//! its virtual start/completion times, transport, DMAPP completion flavour,
//! peer and window. On top of the raw event stream the subsystem keeps
//!
//! * per-op-class aggregates (count, bytes, total virtual ns),
//! * log2-bucketed latency and message-size [`Histogram`]s per class,
//! * per-peer traffic attribution (ops/bytes each origin sent each target),
//! * per-window attribution (ops/bytes/busy-time per window id).
//!
//! ## Cost discipline
//!
//! Telemetry is **off by default**. The disabled hot path is a bit of the
//! endpoint's own [`crate::Hooks`] byte, fixed at launch — no allocation,
//! no locks. When enabled,
//! recording is wait-free: atomic adds into the class aggregates plus a
//! single-producer ring/array write into the origin rank's private area
//! (ranks are threads, so "my rank's area" is single-writer by
//! construction; see [`ring`] for the exact contract).
//!
//! ## Enabling
//!
//! * environment: `FOMPI_TELEMETRY=1` (ring size via
//!   `FOMPI_TELEMETRY_RING`, default 65536 events/rank);
//! * programmatic: [`crate::Config::telemetry_ring`] (`Universe::trace`).
//!
//! Aggregates work whenever `enabled` is set; retaining the raw event
//! stream additionally needs a non-zero ring capacity at construction.

pub mod event;
pub mod hist;
pub mod perfetto;
pub mod ring;

pub use event::{flow_id, flow_origin, Event, EventKind, Flavor, NO_FLOW, NO_TARGET, NO_WIN};
pub use hist::{bucket_hi, bucket_index, bucket_lo, HistSnapshot, Histogram, BUCKETS};
pub use ring::EventRing;

use crate::metrics::{class_table, ClassMetrics};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default per-rank ring capacity when tracing is enabled.
pub const DEFAULT_RING_CAP: usize = 1 << 16;

/// Per-rank flight-recorder capacity: the last-N window dumped on a crash.
pub const FLIGHT_CAP: usize = 256;

/// State bit: aggregate + ring recording ([`Telemetry::enabled`]).
const STATE_AGGR: u8 = 1 << 0;
/// State bit: flight recording ([`Telemetry::flight_enabled`]).
const STATE_FLIGHT: u8 = 1 << 1;

/// The live aggregates of one [`EventKind`], on either clock: the
/// telemetry hub keeps one per class in virtual ns, the wall-clock
/// [`crate::Profiler`] one per class in real ns. Read as frozen
/// [`crate::metrics::ClassMetrics`] rows.
#[derive(Debug, Default)]
pub struct OpStats {
    count: AtomicU64,
    bytes: AtomicU64,
    /// Total latency, in integer ns.
    ns: AtomicU64,
    /// Latency distribution (ns).
    pub lat: Histogram,
    /// Message-size distribution (bytes; frozen for RMA classes only).
    pub size: Histogram,
}

impl OpStats {
    /// Record one operation that took `ns` and moved `bytes`.
    #[inline]
    pub fn record(&self, ns: u64, bytes: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.lat.record(ns);
        self.size.record(bytes);
    }

    /// Operations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total ns spent (sum of per-op latencies).
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Per-peer traffic cell (origin → target).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// RMA ops sent to this peer.
    pub ops: u64,
    /// Bytes sent to this peer.
    pub bytes: u64,
}

/// Per-window aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Puts targeting the window.
    pub puts: u64,
    /// Gets targeting the window.
    pub gets: u64,
    /// AMOs targeting the window.
    pub amos: u64,
    /// Synchronisation events scoped to the window.
    pub syncs: u64,
    /// Bytes moved through the window.
    pub bytes: u64,
    /// Total virtual ns spent in the window's operations.
    pub busy_ns: f64,
}

impl WindowStats {
    fn add(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::Put => self.puts += 1,
            EventKind::Get => self.gets += 1,
            EventKind::Amo => self.amos += 1,
            _ => self.syncs += 1,
        }
        self.bytes += ev.bytes;
        self.busy_ns += ev.latency_ns();
    }

    fn merge(&mut self, other: &WindowStats) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.amos += other.amos;
        self.syncs += other.syncs;
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
    }

    /// Total operations attributed to the window.
    pub fn ops(&self) -> u64 {
        self.puts + self.gets + self.amos + self.syncs
    }
}

/// The per-rank single-writer area: event ring plus non-atomic attribution
/// maps (only the owning rank's thread touches them; drained at quiescent
/// points — same contract as [`EventRing`]).
struct RankLocal {
    ring: EventRing,
    /// Independent last-N window for the flight recorder: kept even when
    /// the main ring is absent, dumped from the owning thread on a crash.
    flight: EventRing,
    wins: UnsafeCell<HashMap<u64, WindowStats>>,
    peers: UnsafeCell<Box<[PeerStats]>>,
}

// SAFETY: see `ring` module docs — single producer per rank, readers only at
// quiescent points (after the rank threads have been joined).
unsafe impl Sync for RankLocal {}

/// The telemetry hub: one per [`crate::Fabric`].
pub struct Telemetry {
    /// Bitmask of `STATE_*`, fixed at construction.
    state: u8,
    ranks: Box<[RankLocal]>,
    stats: Box<[OpStats]>,
    /// Per-target mailbox carrying the flow id of the most recent signal
    /// release aimed at that rank (best-effort causal linkage between
    /// `put_signal` and `signal_wait`; the real synchronisation happens
    /// through fabric memory).
    flow_signal: Box<[AtomicU64]>,
}

impl Telemetry {
    /// Telemetry for `p` ranks with explicit state: `enabled` switches
    /// aggregate recording on; `flight` arms the flight recorder, which is
    /// independent of it — it keeps only the per-rank last-N window and
    /// touches no aggregates, so the profiler can arm it without paying for
    /// full telemetry; `ring_cap` slots per rank retain the raw event
    /// stream (0 = aggregates only).
    pub fn with_capacity(p: usize, enabled: bool, flight: bool, ring_cap: usize) -> Self {
        Telemetry {
            state: (u8::from(enabled) * STATE_AGGR) | (u8::from(flight) * STATE_FLIGHT),
            ranks: (0..p)
                .map(|_| RankLocal {
                    ring: EventRing::new(ring_cap),
                    flight: EventRing::new(FLIGHT_CAP),
                    wins: UnsafeCell::new(HashMap::new()),
                    peers: UnsafeCell::new(vec![PeerStats::default(); p].into_boxed_slice()),
                })
                .collect(),
            stats: (0..EventKind::COUNT).map(|_| OpStats::default()).collect(),
            flow_signal: (0..p).map(|_| AtomicU64::new(NO_FLOW)).collect(),
        }
    }

    /// Is aggregate recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.state & STATE_AGGR != 0
    }

    /// Is *any* recording armed (aggregates or flight)? What
    /// [`crate::Hooks::TRACE`] is read off, and event producers test there.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.state != 0
    }

    /// Is the flight recorder armed (see [`FLIGHT_CAP`])?
    #[inline]
    pub fn flight_enabled(&self) -> bool {
        self.state & STATE_FLIGHT != 0
    }

    /// Rank count this hub was built for.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Record one event. Must be called on `ev.origin`'s thread (the rank's
    /// private areas are single-writer). No-op when disabled — aggregate
    /// and flight recording share one state word.
    #[inline]
    pub fn record(&self, ev: Event) {
        if self.state != 0 {
            self.record_armed(ev);
        }
    }

    #[inline(never)]
    fn record_armed(&self, ev: Event) {
        let state = self.state;
        if state & STATE_FLIGHT != 0 {
            if let Some(rl) = self.ranks.get(ev.origin as usize) {
                rl.flight.push(ev);
            }
        }
        if state & STATE_AGGR != 0 {
            self.record_enabled(ev);
        }
    }

    fn record_enabled(&self, ev: Event) {
        self.stats[ev.kind.index()].record(ev.latency_ns() as u64, ev.bytes);
        let Some(rl) = self.ranks.get(ev.origin as usize) else {
            return;
        };
        rl.ring.push(ev);
        // SAFETY: single-writer contract — we are on `ev.origin`'s thread.
        unsafe {
            if ev.kind.is_rma() && (ev.target as usize) < self.ranks.len() {
                let peers = &mut *rl.peers.get();
                let cell = &mut peers[ev.target as usize];
                cell.ops += 1;
                cell.bytes += ev.bytes;
            }
            if ev.win != NO_WIN {
                (*rl.wins.get()).entry(ev.win).or_default().add(&ev);
            }
        }
    }

    /// Aggregates for one op class (live; safe to read anytime).
    pub fn stats(&self, kind: EventKind) -> &OpStats {
        &self.stats[kind.index()]
    }

    /// Every class's live aggregates, in [`EventKind::ALL`] order.
    pub(crate) fn table(&self) -> &[OpStats] {
        &self.stats
    }

    /// All retained events across ranks, sorted by start time.
    ///
    /// Quiescent-point only (after rank threads are joined) — see [`ring`].
    pub fn events(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self.ranks.iter().flat_map(|r| r.ring.drain()).collect();
        out.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        out
    }

    /// Events lost to ring overwriting, across all ranks.
    pub fn dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.ring.dropped()).sum()
    }

    /// The flight recorder's retained window for one rank, oldest first.
    ///
    /// Safe to call from `rank`'s own thread mid-run (it is the single
    /// producer, so it reads its own writes) — which is exactly what the
    /// crash-dump paths do — or from anywhere at a quiescent point.
    pub fn flight_events(&self, rank: u32) -> Vec<Event> {
        self.ranks.get(rank as usize).map(|r| r.flight.drain()).unwrap_or_default()
    }

    /// Publish the flow id of a signal release aimed at `target`, so the
    /// eventual `signal_wait` on that rank can join the flow. Best-effort:
    /// concurrent signals to one target keep only the latest flow.
    #[inline]
    pub fn publish_signal_flow(&self, target: u32, flow: u64) {
        if let Some(slot) = self.flow_signal.get(target as usize) {
            slot.store(flow, Ordering::Release);
        }
    }

    /// Take (and clear) the pending signal flow aimed at `rank`.
    #[inline]
    pub fn take_signal_flow(&self, rank: u32) -> u64 {
        match self.flow_signal.get(rank as usize) {
            Some(slot) => slot.swap(NO_FLOW, Ordering::Acquire),
            None => NO_FLOW,
        }
    }

    /// Per-peer traffic matrix, row-major `[origin][target]`.
    ///
    /// Quiescent-point only.
    pub fn peer_matrix(&self) -> Vec<Vec<PeerStats>> {
        self.ranks
            .iter()
            .map(|r| {
                // SAFETY: quiescent point — no producer running.
                unsafe { (*r.peers.get()).to_vec() }
            })
            .collect()
    }

    /// Per-window aggregates merged across ranks, sorted by window id.
    ///
    /// Quiescent-point only.
    pub fn window_summaries(&self) -> Vec<(u64, WindowStats)> {
        let mut merged: HashMap<u64, WindowStats> = HashMap::new();
        for r in &self.ranks {
            // SAFETY: quiescent point — no producer running.
            let wins = unsafe { &*r.wins.get() };
            for (id, w) in wins {
                merged.entry(*id).or_default().merge(w);
            }
        }
        let mut out: Vec<_> = merged.into_iter().collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Human-readable multi-section report (op classes, windows, peers).
    ///
    /// Quiescent-point only.
    pub fn report(&self) -> String {
        let mut out = class_table("telemetry: op classes", &ClassMetrics::rows(&self.stats));
        let wins = self.window_summaries();
        if !wins.is_empty() {
            out.push_str("== telemetry: windows ==\n");
            out.push_str(&format!(
                "{:<10} {:>8} {:>8} {:>8} {:>8} {:>14} {:>14}\n",
                "window", "puts", "gets", "amos", "syncs", "bytes", "busy_ns"
            ));
            for (id, w) in wins {
                out.push_str(&format!(
                    "{:<10} {:>8} {:>8} {:>8} {:>8} {:>14} {:>14.0}\n",
                    id, w.puts, w.gets, w.amos, w.syncs, w.bytes, w.busy_ns
                ));
            }
        }
        let peers = self.peer_matrix();
        let traffic: u64 = peers.iter().flatten().map(|c| c.ops).sum();
        if traffic > 0 {
            out.push_str("== telemetry: peer traffic (origin -> target: ops/bytes) ==\n");
            for (origin, row) in peers.iter().enumerate() {
                for (target, cell) in row.iter().enumerate() {
                    if cell.ops > 0 {
                        out.push_str(&format!(
                            "  {origin} -> {target}: {} ops, {} B\n",
                            cell.ops, cell.bytes
                        ));
                    }
                }
            }
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!(
                "WARNING: telemetry ring overflow — {dropped} events dropped; \
                 the event stream above is truncated (raise FOMPI_TELEMETRY_RING)\n"
            ));
        }
        out
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .field("ranks", &self.ranks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Transport;

    fn put_ev(origin: u32, target: u32, win: u64, bytes: u64, t0: f64, t1: f64) -> Event {
        Event {
            kind: EventKind::Put,
            flavor: Flavor::Blocking,
            transport: Some(Transport::Dmapp),
            origin,
            target,
            win,
            bytes,
            flow: NO_FLOW,
            t_start: t0,
            t_end: t1,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::with_capacity(2, false, false, 16);
        t.record(put_ev(0, 1, 7, 100, 0.0, 50.0));
        assert_eq!(t.stats(EventKind::Put).count(), 0);
        assert!(t.events().is_empty());
        assert!(ClassMetrics::rows(t.table()).is_empty());
    }

    #[test]
    fn aggregates_and_events_flow() {
        let t = Telemetry::with_capacity(2, true, false, 16);
        t.record(put_ev(0, 1, 7, 100, 0.0, 50.0));
        t.record(put_ev(0, 1, 7, 300, 60.0, 160.0));
        let s = t.stats(EventKind::Put);
        assert_eq!(s.count(), 2);
        assert_eq!(s.bytes(), 400);
        assert_eq!(s.total_ns(), 150);
        assert!((ClassMetrics::rows(t.table())[0].mean_ns() - 75.0).abs() < 1e-9);
        assert_eq!(t.events().len(), 2);
        let rows = ClassMetrics::rows(t.table());
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].kind, rows[0].count), (EventKind::Put, 2));
    }

    #[test]
    fn window_and_peer_attribution() {
        let t = Telemetry::with_capacity(3, true, false, 16);
        t.record(put_ev(0, 1, 7, 100, 0.0, 10.0));
        t.record(put_ev(0, 2, 7, 50, 10.0, 30.0));
        t.record(put_ev(0, 1, 9, 8, 30.0, 31.0));
        // A windowless event attributes to no window.
        t.record(put_ev(0, 1, NO_WIN, 1, 31.0, 32.0));
        let wins = t.window_summaries();
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].0, 7);
        assert_eq!(wins[0].1.puts, 2);
        assert_eq!(wins[0].1.bytes, 150);
        assert!((wins[0].1.busy_ns - 30.0).abs() < 1e-9);
        assert_eq!(wins[1].0, 9);
        let peers = t.peer_matrix();
        assert_eq!(peers[0][1], PeerStats { ops: 3, bytes: 109 });
        assert_eq!(peers[0][2], PeerStats { ops: 1, bytes: 50 });
        assert_eq!(peers[1][0], PeerStats::default());
    }

    #[test]
    fn sync_events_count_as_syncs() {
        let t = Telemetry::with_capacity(1, true, false, 16);
        t.record(Event {
            kind: EventKind::Fence,
            origin: 0,
            win: 5,
            t_start: 0.0,
            t_end: 2900.0,
            ..Event::default()
        });
        let wins = t.window_summaries();
        assert_eq!(wins[0].1.syncs, 1);
        assert_eq!(wins[0].1.puts, 0);
        assert_eq!(t.stats(EventKind::Fence).count(), 1);
    }

    #[test]
    fn multi_threaded_ranks_record_concurrently() {
        let t = std::sync::Arc::new(Telemetry::with_capacity(4, true, false, 1024));
        std::thread::scope(|s| {
            for rank in 0..4u32 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        t.record(put_ev(rank, (rank + 1) % 4, 1, i, i as f64, i as f64 + 1.0));
                    }
                });
            }
        });
        assert_eq!(t.stats(EventKind::Put).count(), 400);
        assert_eq!(t.events().len(), 400);
        assert_eq!(t.dropped(), 0);
        let wins = t.window_summaries();
        assert_eq!(wins[0].1.puts, 400);
        let peers = t.peer_matrix();
        assert_eq!(peers[2][3].ops, 100);
    }

    #[test]
    fn report_is_renderable() {
        let t = Telemetry::with_capacity(2, true, false, 16);
        t.record(put_ev(0, 1, 7, 100, 0.0, 50.0));
        let r = t.report();
        assert!(r.contains("op classes"));
        assert!(r.contains("put"));
        assert!(r.contains("windows"));
        assert!(r.contains("peer traffic"));
        assert!(!r.contains("WARNING"), "no drops, no warning");
    }

    #[test]
    fn report_warns_loudly_on_ring_overflow() {
        let t = Telemetry::with_capacity(1, true, false, 2);
        for i in 0..5 {
            t.record(put_ev(0, 0, 7, i, i as f64, i as f64 + 1.0));
        }
        assert_eq!(t.dropped(), 3);
        let r = t.report();
        assert!(r.contains("WARNING"), "drops must be loud: {r}");
        assert!(r.contains("3 events dropped"), "{r}");
        assert!(r.contains("FOMPI_TELEMETRY_RING"), "{r}");
    }

    #[test]
    fn flight_recorder_is_independent_of_aggregates() {
        let t = Telemetry::with_capacity(2, false, true, 0);
        assert!(t.flight_enabled());
        assert!(!t.enabled());
        t.record(put_ev(0, 1, 7, 100, 0.0, 50.0));
        t.record(put_ev(0, 1, 7, 200, 50.0, 90.0));
        // Aggregates untouched, flight window kept.
        assert_eq!(t.stats(EventKind::Put).count(), 0);
        assert!(t.events().is_empty());
        let fl = t.flight_events(0);
        assert_eq!(fl.len(), 2);
        assert_eq!(fl[1].bytes, 200);
        assert!(t.flight_events(1).is_empty());
        let off = Telemetry::with_capacity(2, false, false, 0);
        assert!(!off.flight_enabled() && !off.tracing());
        off.record(put_ev(0, 1, 7, 300, 90.0, 95.0));
        assert!(off.flight_events(0).is_empty(), "disarmed flight records nothing");
    }

    #[test]
    fn flight_keeps_only_the_last_window() {
        let t = Telemetry::with_capacity(1, true, true, 0);
        let n = (FLIGHT_CAP + 10) as u64;
        for i in 0..n {
            t.record(put_ev(0, 0, 7, i, i as f64, i as f64 + 1.0));
        }
        let fl = t.flight_events(0);
        assert_eq!(fl.len(), FLIGHT_CAP);
        assert_eq!(fl[0].bytes, 10);
        assert_eq!(fl.last().unwrap().bytes, n - 1);
    }

    #[test]
    fn signal_flow_mailbox_roundtrip() {
        let t = Telemetry::with_capacity(2, true, false, 0);
        assert_eq!(t.take_signal_flow(1), NO_FLOW);
        let f = flow_id(0, 42);
        t.publish_signal_flow(1, f);
        assert_eq!(t.take_signal_flow(1), f);
        assert_eq!(t.take_signal_flow(1), NO_FLOW, "take clears the slot");
        // Out-of-range targets are ignored, not a panic.
        t.publish_signal_flow(99, f);
        assert_eq!(t.take_signal_flow(99), NO_FLOW);
    }
}
