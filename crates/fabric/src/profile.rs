//! Wall-clock profiling of the *real* threaded runtime.
//!
//! Everything else in this crate measures **virtual** time — the LogGP
//! cost model's nanoseconds. This module measures the other axis: how much
//! actual CPU wall time the simulation spends executing each operation
//! class, the "are we silently wasting the hardware budget" question (the
//! Quo Vadis concern from the roadmap). The two time domains never mix:
//! the profiler reads `std::time::Instant`, touches no [`crate::Clock`],
//! and its results are explicitly excluded from the deterministic metrics
//! snapshot (wall time varies run to run; virtual time must not).
//!
//! ## Modes (`FOMPI_PROFILE`)
//!
//! * `off` (default) — the disabled path is a bit of the endpoint's own
//!   [`crate::Hooks`] byte, fixed at launch; no `Instant::now()` call,
//!   zero virtual-time charge.
//! * `sample` — every [`SAMPLE_PERIOD`]'th operation is timed; the rest
//!   pay one relaxed `fetch_add`.
//! * `full` — every operation is timed (two `Instant::now()` calls each).

use crate::metrics::{class_table, ClassMetrics};
use crate::telemetry::{EventKind, OpStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// In `sample` mode, one in this many operations is timed.
pub const SAMPLE_PERIOD: u64 = 64;

/// Profiling intensity (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// No wall-clock timing at all.
    #[default]
    Off,
    /// Time one in [`SAMPLE_PERIOD`] operations.
    Sample,
    /// Time every operation.
    Full,
}

impl ProfileMode {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            ProfileMode::Off => "off",
            ProfileMode::Sample => "sample",
            ProfileMode::Full => "full",
        }
    }

    /// Parse a `FOMPI_PROFILE` value. `Err` says what was expected.
    pub fn parse(s: &str) -> Result<Self, &'static str> {
        match s.trim() {
            "" | "0" | "off" => Ok(ProfileMode::Off),
            "sample" => Ok(ProfileMode::Sample),
            "1" | "full" => Ok(ProfileMode::Full),
            _ => Err("expected off|sample|full"),
        }
    }
}

/// The wall-clock profiler hub: one per [`crate::Fabric`].
#[derive(Debug)]
pub struct Profiler {
    mode: ProfileMode,
    /// Global sampling tick (`sample` mode). Deliberately schedule-
    /// dependent — it only decides which wall-clock samples are taken and
    /// never feeds back into virtual time.
    tick: AtomicU64,
    /// Per-class wall-clock aggregates (bytes stay 0), in
    /// [`EventKind::ALL`] order; empty when off, so a disarmed profiler
    /// allocates nothing.
    slots: Box<[OpStats]>,
}

impl Profiler {
    /// A profiler in `mode`.
    pub fn new(mode: ProfileMode) -> Self {
        Profiler {
            mode,
            tick: AtomicU64::new(0),
            slots: match mode {
                ProfileMode::Off => Box::default(),
                _ => (0..EventKind::COUNT).map(|_| OpStats::default()).collect(),
            },
        }
    }

    /// The mode in force.
    #[inline]
    pub fn mode(&self) -> ProfileMode {
        self.mode
    }

    /// Open a timing scope: `None` when off or not sampled (one relaxed
    /// `fetch_add` in `sample` mode). Never touches virtual time.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        match self.mode {
            ProfileMode::Off => None,
            ProfileMode::Sample => self
                .tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(SAMPLE_PERIOD)
                .then(Instant::now),
            ProfileMode::Full => Some(Instant::now()),
        }
    }

    /// Close a timing scope opened by [`Profiler::start`], attributing the
    /// elapsed wall time to `kind`. No-op for `None` scopes.
    #[inline]
    pub fn finish(&self, kind: EventKind, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.finish_slow(kind, t0);
        }
    }

    #[inline(never)]
    fn finish_slow(&self, kind: EventKind, t0: Instant) {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.slots[kind.index()].record(ns, 0);
    }

    /// Total timed operations across all classes.
    pub fn total_count(&self) -> u64 {
        self.slots.iter().map(|s| s.count()).sum()
    }

    /// Human-readable wall-clock table (classes with at least one sample),
    /// with log2-quantile tails. Empty string when nothing was timed.
    pub fn report(&self) -> String {
        let rows = ClassMetrics::rows(&self.slots);
        if rows.is_empty() {
            return String::new();
        }
        class_table(&format!("wall-clock profile ({} mode)", self.mode.name()), &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert_eq!(ProfileMode::parse("off"), Ok(ProfileMode::Off));
        assert_eq!(ProfileMode::parse("0"), Ok(ProfileMode::Off));
        assert_eq!(ProfileMode::parse(""), Ok(ProfileMode::Off));
        assert_eq!(ProfileMode::parse("sample"), Ok(ProfileMode::Sample));
        assert_eq!(ProfileMode::parse("full"), Ok(ProfileMode::Full));
        assert_eq!(ProfileMode::parse("1"), Ok(ProfileMode::Full));
        assert_eq!(ProfileMode::parse(" full "), Ok(ProfileMode::Full));
        assert_eq!(ProfileMode::parse("fll").unwrap_err(), "expected off|sample|full");
    }

    #[test]
    fn off_never_times() {
        let p = Profiler::new(ProfileMode::Off);
        for _ in 0..100 {
            let t = p.start();
            assert!(t.is_none());
            p.finish(EventKind::Put, t);
        }
        assert_eq!(p.total_count(), 0);
        assert!(p.slots.is_empty(), "a disarmed profiler has no table");
        assert!(p.report().is_empty());
    }

    #[test]
    fn full_times_everything() {
        let p = Profiler::new(ProfileMode::Full);
        for _ in 0..10 {
            let t = p.start();
            assert!(t.is_some());
            p.finish(EventKind::Put, t);
        }
        let rows = ClassMetrics::rows(&p.slots);
        assert_eq!(rows.len(), 1, "only put was timed");
        assert_eq!((rows[0].kind, rows[0].count, rows[0].bytes), (EventKind::Put, 10, 0));
        let r = p.report();
        assert!(r.contains("wall-clock profile"));
        assert!(r.contains("put"));
    }

    #[test]
    fn sample_times_one_in_period() {
        let p = Profiler::new(ProfileMode::Sample);
        let mut timed = 0;
        let n = SAMPLE_PERIOD * 4;
        for _ in 0..n {
            let t = p.start();
            if t.is_some() {
                timed += 1;
            }
            p.finish(EventKind::Amo, t);
        }
        assert_eq!(timed, 4);
        assert_eq!(p.slots[EventKind::Amo.index()].count(), 4);
    }

    #[test]
    fn mode_switches() {
        // A mode is chosen at construction and cannot change afterwards.
        let (off, full) = (Profiler::new(ProfileMode::Off), Profiler::new(ProfileMode::Full));
        assert_eq!(off.mode(), ProfileMode::Off);
        assert_eq!(full.mode(), ProfileMode::Full);
        assert!(full.start().is_some());
        assert!(off.start().is_none());
    }
}
