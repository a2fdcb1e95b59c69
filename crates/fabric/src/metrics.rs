//! The metrics plane: deterministic, merge-ready snapshots.
//!
//! [`snapshot`] freezes everything the fabric counted — global
//! [`crate::Counters`], per-class telemetry aggregates with their log2
//! latency/size histograms, per-window and per-rank attribution, fault
//! injection tallies — into a [`MetricsSnapshot`] that renders as
//! Prometheus text exposition ([`MetricsSnapshot::to_prometheus`]) or
//! single-line JSON ([`MetricsSnapshot::to_json_line`]). Tail quantiles
//! (p50/p99/p999) come from the log2 histograms, and the raw bucket counts
//! ride along in the JSON form so downstream collectors can *merge*
//! snapshots from many jobs ([`HistSnapshot::merge`] is associative).
//!
//! A per-class row is a [`ClassMetrics`] wherever it appears — this
//! snapshot, [`panic_summary`], the telemetry and wall-clock text reports,
//! the fleet's merged summary — built by `ClassMetrics::rows` from a live
//! [`OpStats`] table and printed as text by `class_table`.
//!
//! ## Determinism contract
//!
//! Everything in a snapshot derives from **virtual time** and operation
//! counts, so for a seeded, schedule-independent workload two runs (or two
//! snapshots of one run at the same quiescent point) are byte-identical —
//! CI diffs them like the soak CSVs. Wall-clock data ([`crate::profile`])
//! is deliberately excluded; it lives in [`crate::profile::Profiler::report`].
//!
//! ## When to call
//!
//! [`snapshot`] reads the telemetry hub's single-writer areas and is
//! therefore quiescent-point only (after rank threads joined), like
//! [`crate::Telemetry::events`]. The crash paths use [`panic_summary`]
//! instead, which touches only atomics and is safe mid-run from any
//! thread.

use crate::counters::CounterSnapshot;
use crate::faults::FaultKind;
use crate::telemetry::{EventKind, HistSnapshot, OpStats, WindowStats};
use crate::{Fabric, Transport};

/// Counter names in render order, paired with their values.
fn counter_rows(c: &CounterSnapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("puts", c.puts),
        ("gets", c.gets),
        ("amos", c.amos),
        ("bytes_put", c.bytes_put),
        ("bytes_get", c.bytes_get),
        ("bytes_amo", c.bytes_amo),
        ("gsyncs", c.gsyncs),
        ("flushes", c.flushes),
        ("fences", c.fences),
        ("locks", c.locks),
        ("unlocks", c.unlocks),
        ("batched_ops", c.batched_ops),
        ("batch_flushes", c.batch_flushes),
        ("batch_splits", c.batch_splits),
        ("notify_posts", c.notify_posts),
        ("notify_consumed", c.notify_consumed),
        ("notify_overflows", c.notify_overflows),
        ("notify_dropped", c.notify_dropped),
    ]
}

/// The tail quantiles every rendering prints, with their Prometheus labels.
const TAILS: [(&str, f64); 3] = [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)];

/// One op class, frozen: the row of the metrics snapshot, the crash
/// summary, both text reports and the fleet's merged summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// The op class.
    pub kind: EventKind,
    /// Operations recorded.
    pub count: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total ns: virtual from the telemetry hub, wall from the profiler.
    pub total_ns: u64,
    /// Mergeable latency distribution; the tails are read off it
    /// ([`ClassMetrics::tails`]).
    pub lat: HistSnapshot,
    /// Mergeable size distribution (RMA classes; empty otherwise).
    pub size: HistSnapshot,
}

impl ClassMetrics {
    /// Freeze every class of a live per-class table (the telemetry hub's
    /// or the profiler's, in [`EventKind::ALL`] order) that saw at least
    /// one op. The one place a row is built; reads atomics only.
    pub(crate) fn rows(table: &[OpStats]) -> Vec<ClassMetrics> {
        EventKind::ALL
            .iter()
            .zip(table)
            .filter(|(_, s)| s.count() > 0)
            .map(|(&kind, s)| ClassMetrics {
                kind,
                count: s.count(),
                bytes: s.bytes(),
                total_ns: s.total_ns(),
                lat: s.lat.snapshot(),
                size: if kind.is_rma() { s.size.snapshot() } else { HistSnapshot::new() },
            })
            .collect()
    }

    /// p50, p99 and p999 of the latency distribution (log2-bucket upper
    /// bounds).
    pub fn tails(&self) -> [u64; 3] {
        TAILS.map(|(_, q)| self.lat.quantile_hi(q))
    }

    /// Mean ns per op (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Fold another row of the same class into this one: totals add and
    /// distributions merge bucket-wise, so the merged tails are those of
    /// the union of the samples, not an average of quantiles.
    pub fn merge(&mut self, other: &ClassMetrics) {
        debug_assert_eq!(self.kind, other.kind);
        self.count += other.count;
        self.bytes += other.bytes;
        self.total_ns += other.total_ns;
        self.lat.merge(&other.lat);
        self.size.merge(&other.size);
    }

    /// The row as one JSON object — the metrics line's and the fleet
    /// summary's form. `with_size` adds the size distribution (the metrics
    /// line does for RMA classes; the fleet summary never does).
    pub fn to_json(&self, with_size: bool) -> String {
        let [p50, p99, p999] = self.tails();
        let mut out = format!(
            "{{\"class\":\"{}\",\"count\":{},\"bytes\":{},\"virtual_ns\":{},\
             \"p50\":{p50},\"p99\":{p99},\"p999\":{p999},\"lat\":{}",
            self.kind.name(),
            self.count,
            self.bytes,
            self.total_ns,
            self.lat.to_json(),
        );
        if with_size {
            out.push_str(&format!(",\"size\":{}", self.size.to_json()));
        }
        out.push('}');
        out
    }
}

/// The per-class text table of every report — telemetry's, the
/// wall-clock profile's and the crash summary's: a `== title ==` line, a
/// header, one line per row.
pub(crate) fn class_table(title: &str, rows: &[ClassMetrics]) -> String {
    let mut out = format!(
        "== {title} ==\n{:<12} {:>10} {:>14} {:>14} {:>12} {:>10} {:>10} {:>10}\n",
        "class", "ops", "bytes", "total_ns", "mean_ns", "p50", "p99", "p999"
    );
    for c in rows {
        let [p50, p99, p999] = c.tails();
        out.push_str(&format!(
            "{:<12} {:>10} {:>14} {:>14} {:>12.1} {p50:>10} {p99:>10} {p999:>10}\n",
            c.kind.name(),
            c.count,
            c.bytes,
            c.total_ns,
            c.mean_ns()
        ));
    }
    out
}

/// Per-rank issue-side traffic (peer-matrix row sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankTraffic {
    /// The issuing rank.
    pub rank: u32,
    /// RMA ops issued.
    pub ops: u64,
    /// Bytes issued.
    pub bytes: u64,
}

/// A frozen, renderable, merge-ready view of the fabric's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Job size.
    pub ranks: usize,
    /// Global counters ([`crate::Counters`]).
    pub counters: CounterSnapshot,
    /// Per-class aggregates, in [`EventKind::ALL`] order, classes with at
    /// least one event only.
    pub classes: Vec<ClassMetrics>,
    /// Per-window aggregates, sorted by window id.
    pub windows: Vec<(u64, WindowStats)>,
    /// Per-rank issue-side traffic, in rank order, active ranks only.
    pub rank_traffic: Vec<RankTraffic>,
    /// Issue-side traffic split by peer class (transport): `(name, ops,
    /// bytes)` for `xpmem` then `dmapp`.
    pub transport_traffic: Vec<(&'static str, u64, u64)>,
    /// Fault injections per class, in [`FaultKind::ALL`] order.
    pub faults: Vec<(&'static str, u64)>,
    /// Telemetry ring overwrites (a nonzero value means the *event* stream
    /// is truncated; aggregates here are still complete).
    pub dropped: u64,
}

/// Freeze the fabric's metrics. Quiescent-point only (see module docs).
pub fn snapshot(fabric: &Fabric) -> MetricsSnapshot {
    let tel = fabric.telemetry();
    let peers = tel.peer_matrix();
    let mut rank_traffic = Vec::new();
    let mut by_transport = [(Transport::Xpmem, 0u64, 0u64), (Transport::Dmapp, 0u64, 0u64)];
    for (origin, row) in peers.iter().enumerate() {
        let (mut ops, mut bytes) = (0u64, 0u64);
        for (target, cell) in row.iter().enumerate() {
            ops += cell.ops;
            bytes += cell.bytes;
            if cell.ops > 0 {
                let tr = fabric.transport(origin as u32, target as u32);
                let slot = by_transport.iter_mut().find(|(t, _, _)| *t == tr).unwrap();
                slot.1 += cell.ops;
                slot.2 += cell.bytes;
            }
        }
        if ops > 0 {
            rank_traffic.push(RankTraffic { rank: origin as u32, ops, bytes });
        }
    }
    MetricsSnapshot {
        ranks: fabric.num_ranks(),
        counters: fabric.counters().snapshot(),
        classes: ClassMetrics::rows(tel.table()),
        windows: tel.window_summaries(),
        rank_traffic,
        transport_traffic: by_transport
            .iter()
            .map(|&(t, ops, bytes)| (t.name(), ops, bytes))
            .collect(),
        faults: FaultKind::ALL.iter().map(|&k| (k.name(), fabric.faults().injected(k))).collect(),
        dropped: tel.dropped(),
    }
}

impl MetricsSnapshot {
    /// Prometheus text exposition (the `text/plain; version=0.0.4`
    /// format). Deterministic: fixed family order, fixed label order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP fompi_ranks Ranks in the simulated job.\n");
        out.push_str("# TYPE fompi_ranks gauge\n");
        out.push_str(&format!("fompi_ranks {}\n", self.ranks));
        out.push_str("# HELP fompi_counter Global fabric operation counters.\n");
        out.push_str("# TYPE fompi_counter counter\n");
        for (name, v) in counter_rows(&self.counters) {
            out.push_str(&format!("fompi_counter{{name=\"{name}\"}} {v}\n"));
        }
        if !self.classes.is_empty() {
            // Name, help text and value of each per-class counter family.
            type Family = (&'static str, &'static str, fn(&ClassMetrics) -> u64);
            let totals: [Family; 3] = [
                ("fompi_op_count", "Operations recorded per class.", |c| c.count),
                ("fompi_op_bytes", "Bytes moved per class.", |c| c.bytes),
                ("fompi_op_virtual_ns_total", "Total virtual latency per class.", |c| c.total_ns),
            ];
            for (family, help, value) in totals {
                out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} counter\n"));
                for c in &self.classes {
                    out.push_str(&format!(
                        "{family}{{class=\"{}\"}} {}\n",
                        c.kind.name(),
                        value(c)
                    ));
                }
            }
            out.push_str(
                "# HELP fompi_op_virtual_ns Virtual latency quantiles (log2-bucket upper bounds).\n",
            );
            out.push_str("# TYPE fompi_op_virtual_ns summary\n");
            for c in &self.classes {
                for ((q, _), v) in TAILS.iter().zip(c.tails()) {
                    out.push_str(&format!(
                        "fompi_op_virtual_ns{{class=\"{}\",quantile=\"{q}\"}} {v}\n",
                        c.kind.name()
                    ));
                }
            }
        }
        if !self.rank_traffic.is_empty() {
            out.push_str("# HELP fompi_rank_ops RMA ops issued per rank.\n");
            out.push_str("# TYPE fompi_rank_ops counter\n");
            for r in &self.rank_traffic {
                out.push_str(&format!("fompi_rank_ops{{rank=\"{}\"}} {}\n", r.rank, r.ops));
            }
            out.push_str("# HELP fompi_rank_bytes Bytes issued per rank.\n");
            out.push_str("# TYPE fompi_rank_bytes counter\n");
            for r in &self.rank_traffic {
                out.push_str(&format!("fompi_rank_bytes{{rank=\"{}\"}} {}\n", r.rank, r.bytes));
            }
        }
        out.push_str("# HELP fompi_transport_ops RMA ops per peer class.\n");
        out.push_str("# TYPE fompi_transport_ops counter\n");
        for (name, ops, bytes) in &self.transport_traffic {
            out.push_str(&format!("fompi_transport_ops{{transport=\"{name}\"}} {ops}\n"));
            out.push_str(&format!("fompi_transport_bytes{{transport=\"{name}\"}} {bytes}\n"));
        }
        if !self.windows.is_empty() {
            out.push_str("# HELP fompi_window_ops Operations attributed per window.\n");
            out.push_str("# TYPE fompi_window_ops counter\n");
            for (id, w) in &self.windows {
                out.push_str(&format!("fompi_window_ops{{win=\"{id}\"}} {}\n", w.ops()));
                out.push_str(&format!("fompi_window_bytes{{win=\"{id}\"}} {}\n", w.bytes));
                out.push_str(&format!("fompi_window_busy_ns{{win=\"{id}\"}} {}\n", w.busy_ns));
            }
        }
        for (name, v) in &self.faults {
            out.push_str(&format!("fompi_fault_injected{{kind=\"{name}\"}} {v}\n"));
        }
        out.push_str(&format!("fompi_telemetry_dropped {}\n", self.dropped));
        out
    }

    /// Single-line JSON form — what a cross-backend orchestrator ingests
    /// and merges. The per-class `lat`/`size` entries are the raw log2
    /// bucket counts as `[bucket, count]` pairs, so merging snapshots is
    /// bucket-wise addition. Key order is fixed; output is deterministic.
    pub fn to_json_line(&self) -> String {
        fn join(items: impl Iterator<Item = String>) -> String {
            items.collect::<Vec<_>>().join(",")
        }
        let counters =
            join(counter_rows(&self.counters).iter().map(|(k, v)| format!("\"{k}\":{v}")));
        let classes = join(self.classes.iter().map(|c| c.to_json(c.kind.is_rma())));
        let rank_traffic =
            join(self.rank_traffic.iter().map(|r| {
                format!("{{\"rank\":{},\"ops\":{},\"bytes\":{}}}", r.rank, r.ops, r.bytes)
            }));
        let transports = join(self.transport_traffic.iter().map(|(name, ops, bytes)| {
            format!("{{\"transport\":\"{name}\",\"ops\":{ops},\"bytes\":{bytes}}}")
        }));
        let windows = join(self.windows.iter().map(|(id, w)| {
            format!(
                "{{\"win\":{id},\"puts\":{},\"gets\":{},\"amos\":{},\"syncs\":{},\
                 \"bytes\":{},\"busy_ns\":{}}}",
                w.puts, w.gets, w.amos, w.syncs, w.bytes, w.busy_ns
            )
        }));
        let faults = join(self.faults.iter().map(|(k, v)| format!("\"{k}\":{v}")));
        format!(
            "{{\"ranks\":{},\"counters\":{{{counters}}},\"classes\":[{classes}],\
             \"rank_traffic\":[{rank_traffic}],\"transports\":[{transports}],\
             \"windows\":[{windows}],\"faults\":{{{faults}}},\"dropped\":{}}}",
            self.ranks, self.dropped
        )
    }
}

/// A crash-safe metrics summary: **atomics only** — no telemetry
/// single-writer areas, no locks — so it may be called mid-run from a
/// panicking rank thread while other ranks are still issuing. Pairs with
/// the flight recorder's last-N event dump.
pub fn panic_summary(fabric: &Fabric) -> String {
    let mut out = String::new();
    let c = fabric.counters().snapshot();
    out.push_str("== metrics (crash summary; counters are atomics-only) ==\n");
    for (name, v) in counter_rows(&c) {
        if v > 0 {
            out.push_str(&format!("  {name}: {v}\n"));
        }
    }
    let injected = fabric.faults().total_injected();
    if injected > 0 {
        out.push_str(&format!("  faults injected: {injected}\n"));
    }
    let tel = fabric.telemetry();
    if tel.enabled() {
        out.push_str(&class_table("metrics: op classes", &ClassMetrics::rows(tel.table())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, Flavor, NO_TARGET};
    use crate::CostModel;

    fn put_ev(origin: u32, target: u32, win: u64, bytes: u64, t0: f64, t1: f64) -> Event {
        Event {
            kind: EventKind::Put,
            flavor: Flavor::Blocking,
            transport: Some(Transport::Dmapp),
            origin,
            target,
            win,
            bytes,
            t_start: t0,
            t_end: t1,
            ..Event::default()
        }
    }

    fn traced_fabric() -> std::sync::Arc<Fabric> {
        let config = crate::Config { telemetry_ring: Some(64), ..Default::default() };
        let f = Fabric::with_config(2, 1, CostModel::default(), config);
        f.telemetry().record(put_ev(0, 1, 7, 100, 0.0, 1500.0));
        f.telemetry().record(put_ev(0, 1, 7, 8, 1500.0, 2000.0));
        f.telemetry().record(Event {
            kind: EventKind::Fence,
            origin: 1,
            target: NO_TARGET,
            win: 7,
            t_start: 0.0,
            t_end: 2900.0,
            ..Event::default()
        });
        f.counters().puts.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        f
    }

    #[test]
    fn snapshot_has_put_quantiles_in_both_forms() {
        let f = traced_fabric();
        let s = snapshot(&f);
        let put = s.classes.iter().find(|c| c.kind == EventKind::Put).unwrap();
        assert_eq!(put.count, 2);
        let [p50, p99, p999] = put.tails();
        assert!(p50 > 0 && p99 >= p50 && p999 >= p99);
        let prom = s.to_prometheus();
        assert!(prom.contains("fompi_op_virtual_ns{class=\"put\",quantile=\"0.5\"}"), "{prom}");
        assert!(prom.contains("quantile=\"0.99\""));
        assert!(prom.contains("quantile=\"0.999\""));
        assert!(prom.contains("fompi_counter{name=\"puts\"} 2"));
        assert!(prom.contains("fompi_transport_ops{transport=\"dmapp\"} 2"));
        assert!(prom.contains("fompi_window_ops{win=\"7\"} 3"));
        let json = s.to_json_line();
        assert!(!json.contains('\n'), "single line");
        assert!(json.contains("\"class\":\"put\""));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p999\":"));
        assert!(json.contains("\"lat\":[["));
        assert!(json.contains("\"size\":[["));
    }

    #[test]
    fn snapshots_of_one_state_are_byte_identical() {
        let f = traced_fabric();
        let a = snapshot(&f);
        let b = snapshot(&f);
        assert_eq!(a, b);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.to_json_line(), b.to_json_line());
    }

    #[test]
    fn empty_fabric_renders_cleanly() {
        let f = Fabric::new(1, 1, CostModel::default());
        let s = snapshot(&f);
        assert!(s.classes.is_empty());
        let prom = s.to_prometheus();
        assert!(prom.contains("fompi_ranks 1"));
        assert!(prom.contains("fompi_telemetry_dropped 0"));
        let json = s.to_json_line();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"classes\":[]"));
    }

    #[test]
    fn panic_summary_is_atomics_only_and_renderable() {
        let f = traced_fabric();
        let s = panic_summary(&f);
        assert!(s.contains("puts: 2"));
        assert!(s.contains("p999"));
        assert!(s.lines().any(|l| l.starts_with("put ")), "{s}");
    }
}
