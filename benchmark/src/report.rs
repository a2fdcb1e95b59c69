//! Itemised bills and the tables the suite prints.
//!
//! A bill splits the wall time of one upper-layer call into the fabric
//! operations it issues, priced at what the same run measured for each of
//! them alone, plus the remainder:
//!
//! ```text
//! X.ns = sum over ops of fabric.<op>_per_call * fabric.<op>.ns + X.self_ns
//! ```
//!
//! `self_ns` is therefore the layer's own instructions plus any time it
//! waited on the peer — ROADMAP item 1's "txn_commit_2key is a bill, not a
//! scalar", on the wall clock, measured from outside.

use fompi_fabric::CounterSnapshot;
use std::collections::BTreeMap;

/// Fabric-op counts of `calls` calls of one metric.
#[derive(Clone, Default)]
pub struct Bill {
    pub metric: String,
    pub calls: u64,
    pub puts: u64,
    pub gets: u64,
    pub amos: u64,
    pub flushes: u64,
    pub posts: u64,
    pub pops: u64,
    pub bytes_put: u64,
    pub bytes_get: u64,
}

impl Bill {
    pub fn new(metric: &str) -> Self {
        Self { metric: metric.to_string(), ..Self::default() }
    }

    /// Add the counter delta of `calls` more calls.
    pub fn add(&mut self, d: &CounterSnapshot, calls: u64) {
        self.calls += calls;
        self.puts += d.puts;
        self.gets += d.gets;
        self.amos += d.amos;
        self.flushes += d.flushes;
        self.posts += d.notify_posts;
        self.pops += d.notify_consumed;
        self.bytes_put += d.bytes_put;
        self.bytes_get += d.bytes_get;
    }

    /// puts + gets + amos per call.
    pub fn fabric_ops(&self) -> f64 {
        (self.puts + self.gets + self.amos) as f64 / self.calls as f64
    }

    /// One line for the child-to-parent pipe.
    pub fn encode(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {}",
            self.metric,
            self.calls,
            self.puts,
            self.gets,
            self.amos,
            self.flushes,
            self.posts,
            self.pops,
            self.bytes_put,
            self.bytes_get
        )
    }

    pub fn decode(line: &str) -> Option<Bill> {
        let mut f = line.split_whitespace();
        let metric = f.next()?.to_string();
        let mut n = || f.next()?.parse::<u64>().ok();
        Some(Bill {
            metric,
            calls: n()?,
            puts: n()?,
            gets: n()?,
            amos: n()?,
            flushes: n()?,
            posts: n()?,
            pops: n()?,
            bytes_put: n()?,
            bytes_get: n()?,
        })
    }

    /// The priced items: (fabric op, count per call, ns each). Puts and gets
    /// are priced at the 8-byte cost plus a per-byte slope taken from the
    /// 4096-byte probe; a notified put is a put plus a notify_append.
    pub fn items(&self, m: &BTreeMap<String, f64>) -> Vec<(&'static str, f64, f64)> {
        let cost = |name: &str| m.get(name).copied().unwrap_or(0.0);
        let calls = self.calls as f64;
        let sized = |small: &str, big: &str, ops: u64, bytes: u64| {
            let (c8, c4096) = (cost(small), cost(big));
            let avg = if ops == 0 { 8.0 } else { bytes as f64 / ops as f64 };
            c8 + (c4096 - c8) * ((avg - 8.0) / 4088.0).max(0.0)
        };
        vec![
            (
                "put",
                self.puts as f64 / calls,
                sized(
                    "fabric.put_implicit_8.ns",
                    "fabric.put_implicit_4096.ns",
                    self.puts,
                    self.bytes_put,
                ),
            ),
            (
                "get",
                self.gets as f64 / calls,
                sized(
                    "fabric.get_implicit_8.ns",
                    "fabric.get_implicit_4096.ns",
                    self.gets,
                    self.bytes_get,
                ),
            ),
            ("amo", self.amos as f64 / calls, cost("fabric.amo_fadd.ns")),
            ("flush", self.flushes as f64 / calls, cost("fabric.flush_target.ns")),
            ("notify_append", self.posts as f64 / calls, cost("fabric.notify_append.ns")),
            ("notify_pop", self.pops as f64 / calls, cost("fabric.notify_pop.ns")),
        ]
    }

    /// `X.self_ns`: the call's measured time minus its priced fabric ops.
    pub fn self_ns(&self, m: &BTreeMap<String, f64>) -> Option<f64> {
        let total = *m.get(&format!("{}.ns", self.metric))?;
        Some(total - self.items(m).iter().map(|(_, n, ns)| n * ns).sum::<f64>())
    }
}

/// The itemised-bill table of one traced run.
pub fn print_bills(bills: &[Bill], m: &BTreeMap<String, f64>) {
    println!("\nItemised bills (ns per call; count x unit cost of the same run):");
    println!(
        "  {:<26} {:>10}  {:<58} {:>10} {:>6}",
        "call", "total.ns", "fabric ops", "self_ns", "self%"
    );
    for b in bills {
        let Some(total) = m.get(&format!("{}.ns", b.metric)) else { continue };
        let parts: Vec<String> = b
            .items(m)
            .iter()
            .filter(|(_, n, _)| *n > 0.0)
            .map(|(op, n, ns)| format!("{n:.2} {op} x {ns:.0}"))
            .collect();
        let own = b.self_ns(m).unwrap_or(0.0);
        println!(
            "  {:<26} {:>10.1}  {:<58} {:>10.1} {:>5.0}%",
            b.metric,
            total,
            parts.join(" + "),
            own,
            100.0 * own / total
        );
    }
}

/// A value the way a reader wants it in a table: four significant digits
/// or more, never scientific notation.
pub fn human(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 || !a.is_finite() {
        return format!("{v}");
    }
    // Digits after the point so that four significant ones show.
    let decimals = (3 - a.log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::human;

    #[test]
    fn human_keeps_four_significant_digits() {
        assert_eq!(human(0.0), "0");
        assert_eq!(human(0.00031621), "0.0003162");
        assert_eq!(human(64.674), "64.67");
        assert_eq!(human(537.94), "537.9");
        assert_eq!(human(15026643.2), "15026643");
    }
}
