//! Pluggable retry policies for transient transaction failures.
//!
//! Conflicts and torn reads are *expected* under contention; what differs
//! per workload is how to space the retries. [`RetryPolicy::Immediate`]
//! retries back-to-back (best for near-zero contention, where the first
//! retry almost always wins); [`RetryPolicy::Backoff`] spaces attempts
//! with capped exponential backoff and seeded jitter so symmetric
//! conflicters desynchronize instead of livelocking. Backoff time is
//! charged to the rank's *virtual* clock, so policies shape the modeled
//! latency distribution deterministically.
//!
//! The `FOMPI_TXN_RETRY` environment knob (carried by the fabric, parsed
//! here) selects the job-wide default:
//!
//! ```text
//! immediate[:budget]
//! backoff[:budget[:base_ns[:cap_ns]]]
//! ```
//!
//! e.g. `immediate:16` or `backoff:64:400:100000`.

use fompi::win::Win;
use fompi_fabric::rng::Rng;
use fompi_fabric::Fabric;

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
    /// The job-wide default when `FOMPI_TXN_RETRY` is unset: backoff with
    /// a 64-attempt budget, 400 ns base and 100 µs cap — aggressive
    /// enough for hot keys, bounded enough to surface pathologies.
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

    /// Parse the `FOMPI_TXN_RETRY` grammar (see the module docs).
    pub fn from_spec(spec: &str) -> Result<RetryPolicy, String> {
        let mut parts = spec.trim().split(':');
        let kind = parts.next().unwrap_or("");
        let mut num = |what: &str, default: u64| -> Result<u64, String> {
            match parts.next() {
                None | Some("") => Ok(default),
                Some(tok) => tok
                    .parse::<u64>()
                    .map_err(|_| format!("FOMPI_TXN_RETRY: bad {what} {tok:?} in {spec:?}")),
            }
        };
        let policy = match kind {
            "immediate" => RetryPolicy::Immediate { budget: num("budget", 64)? as u32 },
            "backoff" => {
                let d = RetryPolicy::default();
                let (db, dbase, dcap) = match d {
                    RetryPolicy::Backoff { budget, base_ns, cap_ns } => {
                        (budget as u64, base_ns, cap_ns)
                    }
                    RetryPolicy::Immediate { .. } => unreachable!(),
                };
                RetryPolicy::Backoff {
                    budget: num("budget", db)? as u32,
                    base_ns: num("base_ns", dbase)?,
                    cap_ns: num("cap_ns", dcap)?,
                }
            }
            other => return Err(format!("FOMPI_TXN_RETRY: unknown policy {other:?} in {spec:?}")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("FOMPI_TXN_RETRY: trailing field {extra:?} in {spec:?}"));
        }
        if policy.budget() == 0 {
            return Err(format!("FOMPI_TXN_RETRY: budget must be >= 1 in {spec:?}"));
        }
        Ok(policy)
    }

    /// The policy the fabric carries (`FOMPI_TXN_RETRY` /
    /// `Universe::txn_retry`), or the default when unset. A malformed
    /// spec panics: it is launch-time configuration, and silently
    /// substituting the default would hide the typo.
    pub fn for_fabric(fabric: &Fabric) -> RetryPolicy {
        match fabric.txn_retry() {
            None => RetryPolicy::default(),
            Some(spec) => match RetryPolicy::from_spec(spec) {
                Ok(p) => p,
                Err(e) => panic!("{e}"),
            },
        }
    }

    /// [`RetryPolicy::for_fabric`] via the window's endpoint.
    pub fn for_win(win: &Win) -> RetryPolicy {
        Self::for_fabric(win.endpoint().fabric())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_roundtrips() {
        assert_eq!(RetryPolicy::from_spec("immediate"), Ok(RetryPolicy::Immediate { budget: 64 }));
        assert_eq!(RetryPolicy::from_spec("immediate:3"), Ok(RetryPolicy::Immediate { budget: 3 }));
        assert_eq!(RetryPolicy::from_spec("backoff"), Ok(RetryPolicy::default()));
        assert_eq!(
            RetryPolicy::from_spec("backoff:8:100:5000"),
            Ok(RetryPolicy::Backoff { budget: 8, base_ns: 100, cap_ns: 5000 })
        );
        // Partial backoff specs fill the tail with defaults.
        assert_eq!(
            RetryPolicy::from_spec("backoff:8"),
            Ok(RetryPolicy::Backoff { budget: 8, base_ns: 400, cap_ns: 100_000 })
        );
        for bad in ["", "exponential", "backoff:x", "immediate:1:2", "backoff:1:2:3:4", "backoff:0"]
        {
            assert!(RetryPolicy::from_spec(bad).is_err(), "{bad:?} should not parse");
        }
    }

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
