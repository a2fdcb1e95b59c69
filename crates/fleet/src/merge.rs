//! Merging agent snapshots into the fleet summary.
//!
//! Each agent contributes one [`AgentMetrics`] (parsed from its JSON
//! line). The fleet folds them two ways:
//!
//! * **per configuration** — one summary entry per (agent, ranks) sweep
//!   point, with p50/p99/p999 recomputed from the raw buckets;
//! * **merged** — one distribution per op class across *all*
//!   configurations ([`ClassMetrics::merge`]), exploiting that histogram
//!   merging is associative and commutative: the fleet-wide tail is exact,
//!   not an average of quantiles.
//!
//! The rendered summary contains only virtual-time data, so it is
//! byte-stable across machines and lives under the same CI byte-diff
//! contract as `soak.csv`. Wall-clock usage (RSS/CPU/wall) goes into the
//! human sweep table instead.

use crate::agent::AgentMetrics;
use fompi_fabric::metrics::ClassMetrics;
use fompi_fabric::telemetry::EventKind;
use std::collections::BTreeMap;

/// One completed sweep point: an agent run plus its parsed metrics.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Registry name of the agent.
    pub agent: String,
    /// Backend the agent exercises.
    pub backend: String,
    /// Rank count of this sweep point.
    pub ranks: usize,
    /// Node size (ranks per simulated node) of this sweep point.
    pub node_size: usize,
    /// Seed the agent ran with.
    pub seed: u64,
    /// Parsed metrics line.
    pub metrics: AgentMetrics,
    /// Wall-clock usage (table only; never rendered into the summary).
    pub usage: crate::procstat::Usage,
    /// Schedule-independence marker copied from the [`crate::AgentSpec`].
    /// Unstable runs appear in the table but are excluded from the
    /// byte-diffed summary and the merged distributions.
    pub stable: bool,
}

/// Merge every stable run's rows into one per class (sorted by class
/// name) with [`ClassMetrics::merge`]. Associativity makes the result
/// independent of run order.
pub fn merge_classes(runs: &[ConfigResult]) -> Vec<ClassMetrics> {
    let mut by_class: BTreeMap<&str, ClassMetrics> = BTreeMap::new();
    for c in runs.iter().filter(|r| r.stable).flat_map(|r| &r.metrics.classes) {
        by_class.entry(c.kind.name()).and_modify(|m| m.merge(c)).or_insert_with(|| c.clone());
    }
    by_class.into_values().collect()
}

/// The runs `keep` selects, sorted by (backend, agent, ranks, node_size)
/// so registry order doesn't leak into a rendering.
fn in_config_order(runs: &[ConfigResult], keep: fn(&ConfigResult) -> bool) -> Vec<&ConfigResult> {
    let mut sorted: Vec<&ConfigResult> = runs.iter().filter(|r| keep(r)).collect();
    sorted.sort_by_key(|&r| (&r.backend, &r.agent, r.ranks, r.node_size));
    sorted
}

/// `items` one per line, each after `indent`, comma-separated.
fn lines(indent: &str, items: impl Iterator<Item = String>) -> String {
    let mut out = items.map(|item| format!("{indent}{item}")).collect::<Vec<_>>().join(",\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Render the byte-stable fleet summary, configurations in
/// [`in_config_order`]; schedule-dependent (unstable) runs are dropped, so
/// the file stays byte-stable even when the sweep includes them.
pub fn render_summary(runs: &[ConfigResult]) -> String {
    let configs = in_config_order(runs, |r| r.stable).into_iter().map(|run| {
        let faults: Vec<String> =
            run.metrics.faults.iter().map(|(name, n)| format!("\"{name}\":{n}")).collect();
        format!(
            "    {{\"agent\":\"{}\",\"backend\":\"{}\",\"ranks\":{},\"node_size\":{},\"seed\":{},\n     \
             \"classes\":[\n{}     ],\n     \"faults\":{{{}}},\"dropped\":{}}}",
            run.agent,
            run.backend,
            run.ranks,
            run.node_size,
            run.seed,
            lines("      ", run.metrics.classes.iter().map(|c| c.to_json(false))),
            faults.join(","),
            run.metrics.dropped,
        )
    });
    format!(
        "{{\n  \"configs\": [\n{}  ],\n  \"merged\": [\n{}  ]\n}}\n",
        lines("", configs),
        lines("    ", merge_classes(runs).iter().map(|m| m.to_json(false)))
    )
}

/// Render the human sweep table (wall-clock columns included — this is
/// the non-deterministic sibling of the summary).
pub fn render_table(runs: &[ConfigResult]) -> String {
    let sorted = in_config_order(runs, |_| true);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>7} {:>5} {:>4} {:>5} {:>9} {:>12} {:>11} {:>8} {:>8} {:>7} {:>7}\n",
        "agent",
        "backend",
        "ranks",
        "node",
        "seed",
        "ops",
        "virtual_ms",
        "put_p99_ns",
        "wall_ms",
        "cpu_ms",
        "rss_mb",
        "faults"
    ));
    for run in &sorted {
        let put_p99 = run
            .metrics
            .classes
            .iter()
            .find(|c| c.kind == EventKind::Put)
            .map(|c| c.lat.quantile_hi(0.99).to_string())
            .unwrap_or_else(|| "-".into());
        let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<14} {:>7} {:>5} {:>4} {:>5} {:>9} {:>12.3} {:>11} {:>8.1} {:>8} {:>7} {:>7}\n",
            run.agent,
            run.backend,
            run.ranks,
            run.node_size,
            run.seed,
            run.metrics.total_ops(),
            run.metrics.total_virtual_ns() as f64 / 1e6,
            put_p99,
            run.usage.wall_s * 1e3,
            fmt_opt(run.usage.cpu_s.map(|s| s * 1e3)),
            fmt_opt(run.usage.max_rss_kb.map(|kb| kb as f64 / 1024.0)),
            run.metrics.total_faults(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{parse_agent_json, AgentMetrics};
    use crate::json::{parse, Json};
    use crate::procstat::Usage;
    use fompi_fabric::telemetry::{HistSnapshot, Histogram};
    use EventKind::{Fence, Get, Put, TxnCommit};

    fn run(agent: &str, backend: &str, ranks: usize, classes: Vec<ClassMetrics>) -> ConfigResult {
        ConfigResult {
            agent: agent.into(),
            backend: backend.into(),
            ranks,
            node_size: 1,
            seed: 1,
            metrics: AgentMetrics {
                ranks: ranks as u64,
                counters: vec![],
                classes,
                faults: vec![],
                dropped: 0,
            },
            usage: Usage::default(),
            stable: true,
        }
    }

    fn class(kind: EventKind, samples: &[u64]) -> ClassMetrics {
        let h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        ClassMetrics {
            kind,
            count: samples.len() as u64,
            bytes: 8 * samples.len() as u64,
            total_ns: samples.iter().sum(),
            lat: h.snapshot(),
            size: HistSnapshot::new(),
        }
    }

    /// The classes of the one config (`agent`, `ranks`, `node_size`) of a
    /// parsed summary.
    fn config<'a>(summary: &'a Json, agent: &str, ranks: u64, node_size: u64) -> &'a Json {
        let matches: Vec<&Json> = summary
            .get("configs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|c| {
                c.get("agent").and_then(Json::as_str) == Some(agent)
                    && c.get("ranks").and_then(Json::as_u64) == Some(ranks)
                    && c.get("node_size").and_then(Json::as_u64) == Some(node_size)
            })
            .collect();
        assert_eq!(matches.len(), 1, "one config {agent}/p{ranks}/n{node_size}");
        matches[0].get("classes").unwrap()
    }

    /// `field` of the row of `class` in a parsed `classes` array.
    fn field(classes: &Json, class: &str, field: &str) -> f64 {
        let mut rows = classes.as_arr().unwrap().iter();
        let row = rows.find(|c| c.get("class").and_then(Json::as_str) == Some(class));
        row.and_then(|c| c.get(field)).and_then(Json::as_f64).unwrap()
    }

    #[test]
    fn merged_tail_is_the_union_not_an_average() {
        // One fast config, one slow: the merged p99 must come from the
        // union distribution (the slow samples), which no averaging of
        // per-config quantiles would produce.
        let fast = run("a", "rma", 2, vec![class(Put, &[100; 90])]);
        let slow = run("b", "msg", 2, vec![class(Put, &[1_000_000; 10])]);
        let merged = merge_classes(&[fast, slow]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].count, 100);
        assert!(merged[0].lat.quantile_hi(0.99) >= 1_000_000);
        assert!(merged[0].lat.quantile_hi(0.5) < 1_000_000);
    }

    #[test]
    fn summary_is_independent_of_run_order_and_parses() {
        let a = run("a", "rma", 2, vec![class(Put, &[64, 128]), class(Fence, &[500])]);
        let b = run("b", "msg", 4, vec![class(Put, &[256])]);
        let fwd = render_summary(&[a.clone(), b.clone()]);
        let rev = render_summary(&[b, a]);
        assert_eq!(fwd, rev, "summary must not depend on registry order");
        let parsed = parse(&fwd).unwrap();
        assert_eq!(field(config(&parsed, "a", 2, 1), "put", "count"), 2.0);
        assert_eq!(field(config(&parsed, "b", 4, 1), "put", "count"), 1.0);
        let merged = parsed.get("merged").unwrap();
        assert_eq!(field(merged, "put", "count"), 3.0);
        assert_eq!(field(merged, "fence", "virtual_ns"), 500.0);
        assert!(field(merged, "put", "p999") >= 256.0);
    }

    #[test]
    fn node_size_is_a_first_class_sweep_axis() {
        // Same agent, same ranks, different placement: the two sweep
        // points must survive as distinct configs with their own values
        // (a summary that collapsed them would silently pin only one).
        let n1 = run("a", "rma", 4, vec![class(Put, &[64])]);
        let mut n2 = run("a", "rma", 4, vec![class(Put, &[32])]);
        n2.node_size = 2;
        let text = render_summary(&[n2.clone(), n1.clone()]);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.get("configs").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(field(config(&parsed, "a", 4, 1), "put", "virtual_ns"), 64.0);
        assert_eq!(field(config(&parsed, "a", 4, 2), "put", "virtual_ns"), 32.0);
        // Sort order: n1 before n2 regardless of input order.
        assert!(text.find("\"node_size\":1").unwrap() < text.find("\"node_size\":2").unwrap());
        let table = render_table(&[n2, n1]);
        assert!(table.contains("node"), "table must carry the node column:\n{table}");
    }

    #[test]
    fn summary_classes_round_trip_through_the_agent_parser() {
        // The summary's class entries use the agent line's shape, so the
        // agent parser reads one back to the row it was written from.
        let a = run("a", "rma", 2, vec![class(Put, &[64, 128, 4096])]);
        let text = render_summary(std::slice::from_ref(&a));
        let entry = text.lines().map(str::trim).find(|l| l.starts_with("{\"class\"")).unwrap();
        let line =
            format!("{{\"ranks\":2,\"classes\":[{}],\"dropped\":0}}", entry.trim_end_matches(','));
        let back = parse_agent_json("round-trip", &line).unwrap();
        assert_eq!(back.classes, a.metrics.classes);
    }

    #[test]
    fn unstable_runs_stay_in_the_table_but_out_of_the_summary() {
        let stable = run("a", "rma", 2, vec![class(Put, &[64])]);
        let mut volatile = run("kv", "txn", 8, vec![class(TxnCommit, &[900])]);
        volatile.stable = false;
        let runs = [stable, volatile];
        let summary = render_summary(&runs);
        assert!(!summary.contains("kv"), "unstable metrics leaked into the summary:\n{summary}");
        assert!(!summary.contains("txn_commit"));
        assert_eq!(merge_classes(&runs).len(), 1, "merged classes must skip unstable runs");
        let table = render_table(&runs);
        assert!(table.contains("kv"), "unstable runs must still show in the table:\n{table}");
    }

    #[test]
    fn table_renders_missing_proc_fields_as_dashes() {
        let t = render_table(&[run("a", "rma", 2, vec![class(Get, &[64])])]);
        assert!(t.contains("agent"));
        assert!(t.contains(" - "), "None usage fields render as '-': {t}");
    }
}
