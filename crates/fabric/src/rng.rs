//! Small deterministic PRNGs: SplitMix64 and xorshift64*.
//!
//! Everything in this workspace that needs randomness needs *reproducible*
//! randomness — benchmark layouts, simulated OS noise, randomized tests.
//! A cryptographic or adaptive generator buys nothing here, and an external
//! crate would break `cargo build --offline`. SplitMix64 (Steele et al.,
//! "Fast splittable pseudorandom number generators") is the standard seeding
//! hash; [`Rng`] runs xorshift64* on top of a SplitMix64-initialised state.

/// One SplitMix64 step: hashes `x` to a well-mixed 64-bit value. Useful
/// directly as a stateless hash (key scattering, seed derivation).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Parse a decimal or `0x`-prefixed u64 — the spelling of every seed.
pub fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Read the workspace root seed from `FOMPI_SEED` (decimal or
/// `0x`-prefixed hex), falling back to `default` when unset or empty.
/// Every randomized component (fault plans, soak, proptests) derives its
/// streams from this one value so a failure log prints a single
/// reproducing seed — hence an unparsable value panics: running the
/// default instead would "reproduce" at another seed.
pub fn root_seed_from_env(default: u64) -> u64 {
    crate::config::root_seed(&|var| std::env::var(var).ok(), default)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Deterministic xorshift64* generator seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed the generator. Any seed (including 0) is valid: the state is
    /// passed through SplitMix64 and forced non-zero, as xorshift requires.
    pub fn seed_from_u64(seed: u64) -> Self {
        let s = splitmix64(seed);
        Self { state: if s == 0 { 0x9E37_79B9_7F4A_7C15 } else { s } }
    }

    /// Next 64 uniform random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is < 2^-32 for the bounds used here (all « 2^32).
        self.next_u64() % bound
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_works() {
        let mut r = Rng::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(42);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        // Mean of 1000 uniform samples is near 0.5.
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference value from the published SplitMix64 algorithm.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = Rng::seed_from_u64(3);
        let mut b = [0u8; 11];
        r.fill_bytes(&mut b);
        assert!(b.iter().any(|&x| x != 0));
    }
}
