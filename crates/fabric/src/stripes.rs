//! Striped completion horizons.
//!
//! DMAPP tracks implicit-nonblocking completions in bulk: `gsync` waits for
//! *everything* outstanding, `flush_target` for everything toward one peer.
//! [`StripedHorizon`] keeps that state as a small fixed array of maxima:
//! targets hash onto stripes, each stripe holds the latest completion time
//! (virtual ns) of any operation routed to it, and an update is a compare
//! and a store — no hash lookup, no dynamic borrow, no allocation.
//!
//! The maxima are plain [`Cell`]s. A horizon belongs to one
//! [`Endpoint`](crate::Endpoint), an endpoint lives on its rank's thread
//! (it is `!Sync`: `&Endpoint` cannot cross a `thread::spawn`, see the
//! doctest there), so no other core can ever look at a stripe and a
//! `lock`-prefixed read-modify-write would order it against nobody.
//!
//! Per-target reads are conservative: [`StripedHorizon::horizon`] returns
//! the stripe's maximum, which may include a stripe-mate's later completion.
//! A flush can therefore only over-wait, never under-wait — correctness of
//! the epoch protocols (which need "everything toward `target` is done") is
//! preserved, and with [`STRIPE_COUNT`] stripes the collision rate is the
//! usual birthday bound on active peers per epoch.

use std::cell::Cell;

/// Number of stripes. A power of two so routing is a mask; 16 keeps the
/// array within two cache lines while giving typical epoch working sets
/// (a handful of distinct targets) collision-free per-target flushes.
pub(crate) const STRIPE_COUNT: usize = 16;

/// Striped monotonic completion horizons, indexed by target rank.
#[derive(Debug, Default)]
pub(crate) struct StripedHorizon {
    stripes: [Cell<f64>; STRIPE_COUNT],
}

impl StripedHorizon {
    #[inline]
    fn stripe(&self, target: u32) -> &Cell<f64> {
        &self.stripes[target as usize & (STRIPE_COUNT - 1)]
    }

    /// Record that an operation toward `target` completes at virtual time
    /// `t`. Monotonic: earlier times never lower a stripe.
    #[inline]
    pub(crate) fn note(&self, target: u32, t: f64) {
        debug_assert!(t >= 0.0, "completion horizons are non-negative");
        let stripe = self.stripe(target);
        if t > stripe.get() {
            stripe.set(t);
        }
    }

    /// The completion horizon of operations toward `target` (conservative:
    /// the maximum over `target`'s stripe).
    #[inline]
    pub(crate) fn horizon(&self, target: u32) -> f64 {
        self.stripe(target).get()
    }

    /// The global horizon — what `gsync` waits for.
    #[inline]
    pub(crate) fn global(&self) -> f64 {
        self.stripes.iter().map(Cell::get).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_is_monotonic_max() {
        let h = StripedHorizon::default();
        h.note(3, 100.0);
        h.note(3, 50.0);
        assert_eq!(h.horizon(3), 100.0);
        h.note(3, 250.5);
        assert_eq!(h.horizon(3), 250.5);
    }

    #[test]
    fn distinct_stripes_are_independent() {
        let h = StripedHorizon::default();
        h.note(1, 1000.0);
        h.note(2, 9.0);
        assert_eq!(h.horizon(1), 1000.0);
        assert_eq!(h.horizon(2), 9.0);
        assert_eq!(h.global(), 1000.0);
    }

    #[test]
    fn stripe_mates_are_conservative() {
        let h = StripedHorizon::default();
        // 0 and STRIPE_COUNT share a stripe: reads may over-report, never
        // under-report.
        h.note(0, 7.0);
        h.note(STRIPE_COUNT as u32, 99.0);
        assert!(h.horizon(0) >= 7.0);
        assert_eq!(h.horizon(STRIPE_COUNT as u32), 99.0);
    }

    /// The plain maximum is, bit for bit, the maximum of the IEEE-754
    /// patterns as unsigned integers (what the stripes held while they were
    /// shared words): for non-negative doubles the two orders agree.
    #[test]
    fn numeric_max_is_the_bit_pattern_max_for_nonnegative() {
        let samples = [0.0, 1e-300, 0.5, 1.0, 416.0, 1e9, 1e300];
        for &a in &samples {
            for &b in &samples {
                let h = StripedHorizon::default();
                h.note(5, a);
                h.note(5, b);
                let bits = a.to_bits().max(b.to_bits());
                assert_eq!(h.horizon(5).to_bits(), bits);
                assert_eq!(h.global().to_bits(), bits);
            }
        }
    }
}
