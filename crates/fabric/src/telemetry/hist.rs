//! Lock-free log2-bucketed histograms.
//!
//! Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
//! `[2^(i-1), 2^i)`. With 65 buckets the full `u64` range is covered, which
//! comfortably spans both message sizes (1 B … GiBs) and virtual latencies
//! (sub-ns … seconds). Recording is one relaxed `fetch_add`.
//!
//! Two types, one distribution: [`Histogram`] is the live, atomic form a
//! recorder writes; [`HistSnapshot`] is the plain value every reader works
//! on — quantiles, merging, the `[bucket,count]` wire form.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: value 0 plus one per power of two.
pub const BUCKETS: usize = 65;

/// Bucket index for `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A concurrent log2 histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Point-in-time mergeable snapshot of the bucket counts: what every
    /// reader of the distribution (quantiles included) works on.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot { counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect() }
    }
}

/// A plain-count histogram snapshot: the merge-ready form the metrics
/// plane ships across processes. Merging is bucket-wise addition, which is
/// associative and commutative, so partial snapshots from any number of
/// ranks/jobs combine in any order to the same distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::new()
    }
}

impl HistSnapshot {
    /// An empty snapshot (all buckets zero).
    pub fn new() -> Self {
        HistSnapshot { counts: vec![0; BUCKETS] }
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The populated buckets as `(bucket, count)` pairs, in bucket order.
    pub fn pairs(&self) -> Vec<(usize, u64)> {
        self.counts.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (i, n)).collect()
    }

    /// The wire form: [`HistSnapshot::pairs`] as a JSON array of
    /// `[bucket,count]` pairs. The metrics line and the fleet summary both
    /// write it.
    pub fn to_json(&self) -> String {
        let pairs: Vec<String> = self.pairs().iter().map(|(i, n)| format!("[{i},{n}]")).collect();
        format!("[{}]", pairs.join(","))
    }

    /// Fold `other` into `self` (bucket-wise sum).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Smallest bucket upper bound such that at least `q` (0..=1) of the
    /// samples fall at or below it — a log2-resolution quantile, and the
    /// only one: every p50 / p99 / p999 in a report comes from here.
    /// Returns 0 on an empty snapshot.
    ///
    /// `q·total` is clamped to `total`: at large counts the f64 product can
    /// round above the integer total, which would walk past every bucket
    /// and report the `u64::MAX` fallback for mid quantiles — on an
    /// abort-heavy histogram that made p999 jump over p50's bucket.
    pub fn quantile_hi(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let want = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).min(total);
        let mut seen = 0u64;
        for (i, n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= want {
                return bucket_hi(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_one_byte() {
        // 1 B lands in bucket 1 = [1, 1]; 0 stays in bucket 0.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_hi(1), 1);
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn boundaries_protocol_change_4k() {
        // The DMAPP protocol change at 4096 B: 4095 and 4096 must land in
        // different buckets, so the size histogram separates the two
        // protocol regimes.
        let below = bucket_index(4095);
        let at = bucket_index(4096);
        assert_eq!(below, 12, "4095 in [2048, 4095]");
        assert_eq!(at, 13, "4096 in [4096, 8191]");
        assert_eq!(bucket_lo(13), 4096);
        assert_eq!(bucket_hi(12), 4095);
    }

    #[test]
    fn boundaries_max_bucket() {
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
        assert_eq!(bucket_hi(64), u64::MAX);
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(64), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn every_boundary_is_exact() {
        for i in 1..64usize {
            let lo = bucket_lo(i);
            assert_eq!(bucket_index(lo), i, "lo of {i}");
            assert_eq!(bucket_index(lo - 1), i - 1, "below lo of {i}");
            assert_eq!(bucket_index(bucket_hi(i)), i, "hi of {i}");
        }
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9000]);
        let b = mk(&[2, 2, 4096]);
        let c = mk(&[u64::MAX, 0, 7]);
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // a ⊕ b == b ⊕ a
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Identity: merging an empty snapshot changes nothing.
        let mut a_id = a.clone();
        a_id.merge(&HistSnapshot::new());
        assert_eq!(a_id, a);
        // The merged quantiles reflect the union of samples.
        assert_eq!(ab_c.total(), 9);
        assert_eq!(ab_c.quantile_hi(1.0), u64::MAX);
    }

    /// The quantile against a sort: the answer is the upper edge of the
    /// bucket holding the `⌈q·n⌉`-th smallest sample (capped at `n`; 0 when
    /// no sample is asked for). Over the shapes that broke it before —
    /// empty, all zeros, one sample, a saturated top bucket, a cheap spike
    /// with a thin expensive tail — and 200 seeded random mixes.
    #[test]
    fn quantile_matches_a_sort_based_reference() {
        fn reference(sorted: &[u64], q: f64) -> u64 {
            let n = sorted.len() as u64;
            let want = ((q * n as f64).ceil() as u64).min(n);
            if want == 0 {
                0
            } else {
                bucket_hi(bucket_index(sorted[want as usize - 1]))
            }
        }
        let mut rng = crate::rng::Rng::seed_from_u64(0x51);
        // A random magnitude: any bucket, zero included.
        let sample = |rng: &mut crate::rng::Rng| {
            let shift = rng.next_below(65) as u32;
            rng.next_u64().checked_shr(shift).unwrap_or(0)
        };
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0; 1000],
            vec![sample(&mut rng)],
            (0..1000).map(|_| (1 << 63) | rng.next_u64()).collect(),
            [vec![300; 100_000], vec![2_000_000; 37]].concat(),
        ];
        for _ in 0..200 {
            let n = rng.range(1, 2000);
            cases.push((0..n).map(|_| sample(&mut rng)).collect());
        }
        for mut samples in cases {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            for q in [0.0, 0.1, 0.5, 0.99, 0.999, 1.0] {
                let n = samples.len();
                assert_eq!(snap.quantile_hi(q), reference(&samples, q), "q={q}, n={n}");
            }
        }
    }

    #[test]
    fn pairs_and_the_wire_form_list_populated_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 4096, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let pairs = s.pairs();
        assert!(pairs.iter().all(|&(_, n)| n > 0));
        assert_eq!(pairs.iter().map(|&(_, n)| n).sum::<u64>(), s.total());
        assert_eq!(s.to_json(), "[[0,1],[1,1],[3,2],[13,1],[64,1]]");
        assert_eq!(HistSnapshot::new().to_json(), "[]");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.total(), 4000);
        assert_eq!(h.count(0), 4); // four zeros
    }
}
