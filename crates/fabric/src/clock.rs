//! Per-rank virtual clocks and shared timestamp cells.
//!
//! Every rank carries a monotonically non-decreasing virtual time in
//! nanoseconds. Operations advance it per the [`CostModel`](crate::cost);
//! synchronisation points *join* clocks: a rank that observes a remote event
//! sets its clock to at least the event's completion time. Because clocks
//! never decrease, max-combining through [`StampCell`]s is race-free in the
//! causal sense (a stale maximum can never exceed a current one along any
//! happens-before edge).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A rank-local virtual clock (ns). Not shareable across threads; shared
/// visibility goes through [`StampCell`].
#[derive(Debug, Default)]
pub struct Clock {
    t: Cell<f64>,
}

impl Clock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self { t: Cell::new(0.0) }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> f64 {
        self.t.get()
    }

    /// Advance by `ns` (must be non-negative).
    pub fn advance(&self, ns: f64) {
        debug_assert!(ns >= 0.0, "cannot advance clock by negative time");
        self.t.set(self.t.get() + ns);
    }

    /// Join with an external event time: clock := max(clock, t).
    pub fn join(&self, t: f64) {
        if t > self.t.get() {
            self.t.set(t);
        }
    }
}

/// A shared, monotonically increasing timestamp (f64 ns stored as ordered
/// bits in an `AtomicU64`). For non-negative floats the IEEE-754 bit pattern
/// is monotone in the value, so `fetch_max` on the bits implements a
/// numeric max.
#[derive(Debug, Default)]
pub struct StampCell(AtomicU64);

impl StampCell {
    /// A stamp cell initialised to time zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Raise the stamp to at least `t`.
    pub fn raise(&self, t: f64) {
        debug_assert!(t >= 0.0);
        self.0.fetch_max(t.to_bits(), Ordering::AcqRel);
    }

    /// Read the current stamp.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }
}

/// Encode/decode helpers for stamping timestamps into ordinary u64 words
/// (used by in-segment sync variables whose layout pairs a value word with a
/// stamp word).
pub fn stamp_to_bits(t: f64) -> u64 {
    t.to_bits()
}

/// Inverse of [`stamp_to_bits`].
pub fn bits_to_stamp(b: u64) -> f64 {
    f64::from_bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_advances_and_joins() {
        let c = Clock::new();
        c.advance(5.0);
        assert_eq!(c.now(), 5.0);
        c.join(3.0); // no-op, older
        assert_eq!(c.now(), 5.0);
        c.join(9.5);
        assert_eq!(c.now(), 9.5);
    }

    #[test]
    fn stamp_is_max_combining() {
        let s = StampCell::new();
        s.raise(10.0);
        s.raise(4.0);
        assert_eq!(s.get(), 10.0);
        s.raise(11.25);
        assert_eq!(s.get(), 11.25);
    }

    #[test]
    fn stamp_concurrent_max() {
        let s = Arc::new(StampCell::new());
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for k in 0..1000 {
                        s.raise((i * 1000 + k) as f64);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(s.get(), 7999.0);
    }

    #[test]
    fn stamp_never_observed_decreasing() {
        // fetch_max on the bit pattern means a concurrent reader can only
        // ever see the stamp go up, never down.
        let s = Arc::new(StampCell::new());
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for k in 0..2000 {
                        s.raise((k * 4 + i) as f64 * 0.25);
                    }
                })
            })
            .collect();
        let reader = {
            let s = s.clone();
            std::thread::spawn(move || {
                let mut prev = 0.0;
                for _ in 0..20000 {
                    let t = s.get();
                    assert!(t >= prev, "stamp went backwards: {t} < {prev}");
                    prev = t;
                }
            })
        };
        for h in writers {
            h.join().unwrap();
        }
        reader.join().unwrap();
    }

    #[test]
    fn bit_roundtrip() {
        for t in [0.0, 1.5, 1e12, 123.456] {
            assert_eq!(bits_to_stamp(stamp_to_bits(t)), t);
        }
    }

    #[test]
    fn nonneg_f64_bits_are_monotone() {
        let mut prev = stamp_to_bits(0.0);
        for t in [0.001, 0.5, 1.0, 2.0, 1e3, 1e9, 1e18] {
            let b = stamp_to_bits(t);
            assert!(b > prev);
            prev = b;
        }
    }
}
