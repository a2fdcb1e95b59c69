//! Order statistics for the harness. Everything here is exact arithmetic on
//! the recorded samples — no bucketing, no rounding.

/// Quantile `q` in `[0, 1]` of an ascending slice, linear interpolation
/// between neighbours (the `statistics.quantiles(method="inclusive")`
/// convention). Panics on an empty slice: callers decide what "no samples"
/// means.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// Median of integer-nanosecond span durations. `Instant` resolves whole
/// nanoseconds, so a 60 ns call yields a few hundred thousand samples on a
/// dozen distinct values and the plain median is a step function. This is
/// the grouped-data median instead: each sample `v` stands for the interval
/// `[v, v+1)` and the median is interpolated inside the bin that holds it.
pub fn grouped_median_ns(samples: &mut [u32]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    let n = samples.len();
    let m = samples[n / 2];
    let below = samples.partition_point(|&x| x < m);
    let upto = samples.partition_point(|&x| x <= m);
    m as f64 + (n as f64 / 2.0 - below as f64) / (upto - below) as f64
}

/// Samples of one span name, thinned to bounded memory: once `CAP` samples
/// are held, every other one is dropped and only every `stride`-th new
/// sample is kept, so the kept set stays spread evenly over the whole run.
pub struct Thinned {
    kept: Vec<u32>,
    stride: u32,
    skip: u32,
}

impl Thinned {
    const CAP: usize = 1 << 18;

    pub fn new() -> Self {
        Self { kept: Vec::new(), stride: 1, skip: 0 }
    }

    #[inline]
    pub fn push(&mut self, ns: u32) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.kept.push(ns);
        self.skip = self.stride - 1;
        if self.kept.len() == Self::CAP {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
    }

    pub fn kept(&self) -> &[u32] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn grouped_median_resolves_inside_a_bin() {
        // 10 samples: 3 below 60, 5 at 60, 2 above. The 5th sample is the
        // second of five in the [60, 61) bin.
        let mut s = [58, 59, 59, 60, 60, 60, 60, 60, 61, 70];
        assert_eq!(grouped_median_ns(&mut s), 60.0 + 2.0 / 5.0);
    }

    #[test]
    fn thinning_keeps_an_even_spread() {
        let mut t = Thinned::new();
        for i in 0..(Thinned::CAP as u32 * 4) {
            t.push(i);
        }
        assert!(t.kept().len() < Thinned::CAP && t.kept().len() >= Thinned::CAP / 2);
        let last = *t.kept().last().unwrap();
        assert!(last > Thinned::CAP as u32 * 3, "tail of the run must be represented");
    }
}
