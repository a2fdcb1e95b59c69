//! Pluggable retry policies for transient transaction failures.
//!
//! Conflicts and torn reads are *expected* under contention; what differs
//! per workload is how to space the retries. [`RetryPolicy::Immediate`]
//! retries back-to-back (best for near-zero contention, where the first
//! retry almost always wins); [`RetryPolicy::Backoff`] spaces attempts
//! with capped exponential backoff and seeded jitter so symmetric
//! conflicters desynchronize instead of livelocking. Backoff time is
//! charged to the rank's *virtual* clock, so policies shape the modeled
//! latency distribution deterministically. A policy is a parameter of
//! each call into the retry loop ([`crate::run`]), chosen by the caller.

use fompi_fabric::rng::Rng;

/// How a transaction retries after a transient failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Retry at once, up to `budget` attempts.
    Immediate {
        /// Maximum attempts before surfacing
        /// [`TxnError::RetriesExhausted`](crate::TxnError::RetriesExhausted).
        budget: u32,
    },
    /// Capped exponential backoff with jitter: attempt `a` waits a
    /// uniformly jittered `min(base_ns · 2^a, cap_ns)` virtual ns.
    Backoff {
        /// Maximum attempts before surfacing exhaustion.
        budget: u32,
        /// First-retry backoff in virtual ns.
        base_ns: u64,
        /// Backoff ceiling in virtual ns.
        cap_ns: u64,
    },
}

impl Default for RetryPolicy {
    /// Backoff with a 64-attempt budget, 400 ns base and 100 µs cap —
    /// aggressive enough for hot keys, bounded enough to surface
    /// pathologies.
    fn default() -> Self {
        RetryPolicy::Backoff { budget: 64, base_ns: 400, cap_ns: 100_000 }
    }
}

impl RetryPolicy {
    /// Maximum attempts before exhaustion surfaces.
    pub fn budget(&self) -> u32 {
        match *self {
            RetryPolicy::Immediate { budget } => budget,
            RetryPolicy::Backoff { budget, .. } => budget,
        }
    }

    /// Virtual ns to wait before retry number `attempt` (1-based). The
    /// jitter draw comes from `rng`, so two ranks seeded differently
    /// desynchronize while each rank's schedule stays deterministic.
    pub fn backoff_ns(&self, attempt: u32, rng: &mut Rng) -> f64 {
        match *self {
            RetryPolicy::Immediate { .. } => 0.0,
            RetryPolicy::Backoff { base_ns, cap_ns, .. } => {
                let exp = attempt.saturating_sub(1).min(16);
                let raw = base_ns.saturating_mul(1u64 << exp).min(cap_ns.max(1));
                // Uniform jitter over [raw/2, raw]: keeps the exponential
                // envelope while decorrelating symmetric conflicters.
                let half = raw / 2;
                (half + rng.next_below(raw - half + 1)) as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy::Backoff { budget: 32, base_ns: 100, cap_ns: 1_000 };
        let mut rng = Rng::seed_from_u64(7);
        // The jittered wait stays inside [raw/2, raw] for every attempt,
        // with raw = min(100·2^(a-1), 1000).
        let mut hit_cap = false;
        for a in 1..=20u32 {
            let raw = (100u64 << (a - 1).min(16)).min(1_000) as f64;
            let w = p.backoff_ns(a, &mut rng);
            assert!(
                w >= raw / 2.0 - 1.0 && w <= raw,
                "attempt {a}: {w} outside [{}, {raw}]",
                raw / 2.0
            );
            hit_cap |= raw == 1_000.0;
        }
        assert!(hit_cap);
        // Immediate never waits.
        let mut rng2 = Rng::seed_from_u64(7);
        assert_eq!(RetryPolicy::Immediate { budget: 4 }.backoff_ns(9, &mut rng2), 0.0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let series = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (1..=8u32).map(|a| p.backoff_ns(a, &mut rng).to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(series(42), series(42));
        assert_ne!(series(42), series(43), "different seeds must decorrelate");
    }
}
