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

use crate::telemetry::{EventKind, Histogram};
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

/// Wall-clock aggregate for one [`EventKind`].
#[derive(Debug, Default)]
pub struct WallStats {
    count: AtomicU64,
    ns: AtomicU64,
    /// Wall-latency distribution (real ns).
    pub hist: Histogram,
}

impl WallStats {
    /// Timed operations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total wall ns across timed operations.
    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean wall ns per timed operation (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_ns() as f64 / n as f64
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
    slots: Box<[WallStats]>,
}

impl Profiler {
    /// A profiler in `mode`.
    pub fn new(mode: ProfileMode) -> Self {
        Profiler {
            mode,
            tick: AtomicU64::new(0),
            slots: (0..EventKind::COUNT).map(|_| WallStats::default()).collect(),
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
        let s = &self.slots[kind.index()];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.ns.fetch_add(ns, Ordering::Relaxed);
        s.hist.record(ns);
    }

    /// Wall-clock aggregates for one op class.
    pub fn stats(&self, kind: EventKind) -> &WallStats {
        &self.slots[kind.index()]
    }

    /// Total timed operations across all classes.
    pub fn total_count(&self) -> u64 {
        self.slots.iter().map(|s| s.count()).sum()
    }

    /// Human-readable wall-clock table (classes with at least one sample),
    /// with log2-quantile tails. Empty string when nothing was timed.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for kind in EventKind::ALL {
            let s = self.stats(kind);
            if s.count() == 0 {
                continue;
            }
            if out.is_empty() {
                out.push_str(&format!(
                    "== wall-clock profile ({} mode) ==\n{:<12} {:>10} {:>14} {:>12} {:>10} {:>10} {:>10}\n",
                    self.mode().name(),
                    "class",
                    "samples",
                    "total_ns",
                    "mean_ns",
                    "p50",
                    "p99",
                    "p999"
                ));
            }
            out.push_str(&format!(
                "{:<12} {:>10} {:>14} {:>12.1} {:>10} {:>10} {:>10}\n",
                kind.name(),
                s.count(),
                s.total_ns(),
                s.mean_ns(),
                s.hist.quantile_hi(0.5),
                s.hist.quantile_hi(0.99),
                s.hist.quantile_hi(0.999),
            ));
        }
        out
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
        let s = p.stats(EventKind::Put);
        assert_eq!(s.count(), 10);
        assert_eq!(p.stats(EventKind::Get).count(), 0);
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
        assert_eq!(p.stats(EventKind::Amo).count(), 4);
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
