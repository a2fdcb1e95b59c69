//! The agent registry: which binaries the fleet can spawn, and how.
//!
//! An *agent* is a release bench binary that, when invoked with its
//! registered argv, prints exactly one line of JSON metrics to stdout —
//! the [`fompi_fabric::metrics`] single-line form. The registry maps an
//! agent name to an argv *template*; placeholders (`{ranks}`,
//! `{node_size}`, `{seed}`, `{backend}`) are expanded per sweep point, so
//! one registry entry covers a whole (ranks × node_size) sweep grid.

use crate::json::{parse, Json};
use fompi_fabric::metrics::ClassMetrics;
use fompi_fabric::telemetry::{EventKind, HistSnapshot};
use std::collections::BTreeMap;

/// One registered agent: a binary plus its argv template.
#[derive(Debug, Clone)]
pub struct AgentSpec {
    /// Registry name (unique; names the agent in errors and tables).
    pub name: &'static str,
    /// Binary file name, resolved in the directory of the `fleet` binary.
    pub bin: &'static str,
    /// Argv template; each element may contain `{placeholder}`s.
    pub args: &'static [&'static str],
    /// Backend this agent exercises (`rma`, `msg`, `pgas`, `txn`).
    pub backend: &'static str,
    /// Rank counts to sweep. Fixed-config agents list exactly one.
    pub ranks: &'static [usize],
    /// Node sizes (ranks per simulated node) to sweep, crossed with
    /// `ranks`. `1` is all-inter-node; larger values route part of the
    /// traffic through the XPMEM fast path. Agents whose argv template
    /// has no `{node_size}` placeholder list exactly `&[1]`.
    pub node_sizes: &'static [usize],
    /// Whether the agent's metrics are schedule-independent (byte-stable
    /// for a fixed seed). Unstable agents still run in every sweep and
    /// appear in the wall-clock table, but their volatile numbers are
    /// kept out of the byte-diffed summary JSON.
    pub stable: bool,
}

/// Expand `{key}` placeholders in one argv template element. Unknown
/// placeholders are an error: a typo in the registry must fail loudly, not
/// ship a literal `{rnaks}` to the agent.
pub fn expand_template(tmpl: &str, vars: &BTreeMap<&str, String>) -> Result<String, String> {
    let mut out = String::with_capacity(tmpl.len());
    let mut rest = tmpl;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        let Some(close) = after.find('}') else {
            return Err(format!("unterminated placeholder in template element {tmpl:?}"));
        };
        let key = &after[..close];
        match vars.get(key) {
            Some(v) => out.push_str(v),
            None => {
                return Err(format!("unknown placeholder {{{key}}} in template element {tmpl:?}"))
            }
        }
        rest = &after[close + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Expand a whole argv template for one sweep point.
pub fn expand_argv(
    spec: &AgentSpec,
    ranks: usize,
    node_size: usize,
    seed: u64,
) -> Result<Vec<String>, String> {
    let mut vars: BTreeMap<&str, String> = BTreeMap::new();
    vars.insert("ranks", ranks.to_string());
    vars.insert("node_size", node_size.to_string());
    vars.insert("seed", seed.to_string());
    vars.insert("backend", spec.backend.to_string());
    spec.args.iter().map(|a| expand_template(a, &vars)).collect()
}

/// Everything the fleet keeps from one agent's JSON metrics line.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentMetrics {
    /// Ranks the agent simulated.
    pub ranks: u64,
    /// Global fabric counters, in the agent's key order.
    pub counters: Vec<(String, u64)>,
    /// Per-class aggregates, in the agent's order: the rows the agent's
    /// [`fompi_fabric::metrics::MetricsSnapshot`] held, read back.
    pub classes: Vec<ClassMetrics>,
    /// Fault injections per class (chaos sweeps), nonzero entries only.
    pub faults: Vec<(String, u64)>,
    /// Telemetry ring overwrites reported by the agent.
    pub dropped: u64,
}

impl AgentMetrics {
    /// Total ops across all classes.
    pub fn total_ops(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Total virtual ns across all classes.
    pub fn total_virtual_ns(&self) -> u64 {
        self.classes.iter().map(|c| c.total_ns).sum()
    }

    /// Total fault injections.
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().map(|(_, n)| n).sum()
    }
}

/// Parse the single JSON metrics line `agent` printed. Every failure path
/// names the agent: when a 12-agent sweep rejects one line, the report
/// must say whose.
pub fn parse_agent_json(agent: &str, line: &str) -> Result<AgentMetrics, String> {
    parse_inner(line).map_err(|e| format!("agent {agent}: malformed metrics JSON: {e}"))
}

fn field_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer {key:?}"))
}

/// The distribution written as `[bucket,count]` pairs under `key`, if the
/// object has one.
fn buckets(obj: &Json, key: &str, ctx: &str) -> Result<Option<HistSnapshot>, String> {
    let Some(entries) = obj.get(key) else { return Ok(None) };
    let mut pairs = Vec::new();
    for pair in entries.as_arr().ok_or(format!("{ctx}: {key} is not an array"))? {
        match pair.as_arr() {
            Some([b, n]) => pairs.push((
                b.as_u64().ok_or(format!("{ctx}: bad {key} bucket index"))? as usize,
                n.as_u64().ok_or(format!("{ctx}: bad {key} bucket count"))?,
            )),
            _ => return Err(format!("{ctx}: {key} entry is not a [bucket,count] pair")),
        }
    }
    HistSnapshot::from_pairs(&pairs).map(Some).map_err(|e| format!("{ctx}: {e}"))
}

fn parse_inner(line: &str) -> Result<AgentMetrics, String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty output (agent printed no metrics line)".into());
    }
    let root = parse(line)?;
    let ranks = field_u64(&root, "ranks", "root")?;
    let mut counters = Vec::new();
    if let Some(Json::Obj(members)) = root.get("counters") {
        for (k, v) in members {
            counters
                .push((k.clone(), v.as_u64().ok_or(format!("counter {k:?} is not an integer"))?));
        }
    }
    let classes_json =
        root.get("classes").and_then(Json::as_arr).ok_or("root: missing \"classes\" array")?;
    let mut classes = Vec::with_capacity(classes_json.len());
    for c in classes_json {
        let class =
            c.get("class").and_then(Json::as_str).ok_or("class entry: missing \"class\" name")?;
        let ctx = format!("class {class:?}");
        let kind = EventKind::ALL
            .into_iter()
            .find(|k| k.name() == class)
            .ok_or(format!("{ctx}: unknown op class"))?;
        let count = field_u64(c, "count", &ctx)?;
        let lat = buckets(c, "lat", &ctx)?.ok_or(format!("{ctx}: missing lat"))?;
        if lat.total() != count {
            return Err(format!(
                "{ctx}: lat buckets sum to {} but count says {count}",
                lat.total()
            ));
        }
        classes.push(ClassMetrics {
            kind,
            count,
            bytes: field_u64(c, "bytes", &ctx)?,
            total_ns: field_u64(c, "virtual_ns", &ctx)?,
            lat,
            size: buckets(c, "size", &ctx)?.unwrap_or_default(),
        });
    }
    let mut faults = Vec::new();
    if let Some(Json::Obj(members)) = root.get("faults") {
        for (k, v) in members {
            let n = v.as_u64().ok_or(format!("fault {k:?} is not an integer"))?;
            if n > 0 {
                faults.push((k.clone(), n));
            }
        }
    }
    let dropped = field_u64(&root, "dropped", "root")?;
    Ok(AgentMetrics { ranks, counters, classes, faults, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(ranks: &str, seed: &str, backend: &str) -> BTreeMap<&'static str, String> {
        let mut m = BTreeMap::new();
        m.insert("ranks", ranks.to_string());
        m.insert("seed", seed.to_string());
        m.insert("backend", backend.to_string());
        m
    }

    #[test]
    fn template_expansion_substitutes_every_placeholder() {
        let v = vars("8", "42", "msg");
        assert_eq!(expand_template("--ranks={ranks}", &v).unwrap(), "--ranks=8");
        assert_eq!(expand_template("{backend}-{seed}", &v).unwrap(), "msg-42");
        assert_eq!(expand_template("plain", &v).unwrap(), "plain");
    }

    #[test]
    fn template_expansion_rejects_typos_and_unterminated() {
        let v = vars("8", "42", "msg");
        let err = expand_template("--ranks={rnaks}", &v).unwrap_err();
        assert!(err.contains("{rnaks}"), "{err}");
        assert!(expand_template("--ranks={ranks", &v).is_err());
    }

    #[test]
    fn expand_argv_covers_the_standard_registry_shape() {
        let spec = AgentSpec {
            name: "bench-rma",
            bin: "bench_agent",
            args: &[
                "--agent-json",
                "--backend",
                "{backend}",
                "--ranks",
                "{ranks}",
                "--node-size",
                "{node_size}",
                "--seed",
                "{seed}",
            ],
            backend: "rma",
            ranks: &[2, 4],
            node_sizes: &[1, 2],
            stable: true,
        };
        let argv = expand_argv(&spec, 4, 2, 7).unwrap();
        assert_eq!(
            argv,
            ["--agent-json", "--backend", "rma", "--ranks", "4", "--node-size", "2", "--seed", "7"]
        );
    }

    #[test]
    fn malformed_agent_json_errors_name_the_agent() {
        for bad in [
            "",
            "not json",
            r#"{"classes":[]}"#,                                  // no ranks
            r#"{"ranks":2,"dropped":0}"#,                         // no classes
            r#"{"ranks":2,"classes":[{"count":1}],"dropped":0}"#, // class unnamed
            r#"{"ranks":2,"classes":[{"class":"put","count":2,"bytes":0,"virtual_ns":5,"lat":[[1,1]]}],"dropped":0}"#, // count/bucket mismatch
            r#"{"ranks":2,"classes":[{"class":"put","count":1,"bytes":0,"virtual_ns":5,"lat":[[999,1]]}],"dropped":0}"#, // bucket out of range
            r#"{"ranks":2,"classes":[{"class":"teleport","count":1,"bytes":0,"virtual_ns":5,"lat":[[1,1]]}],"dropped":0}"#, // unknown class
        ] {
            let err = parse_agent_json("bench-rma-p4", bad).unwrap_err();
            assert!(
                err.contains("bench-rma-p4"),
                "error must name the agent: {err} (input {bad:?})"
            );
        }
    }

    #[test]
    fn well_formed_line_round_trips() {
        let line = r#"{"ranks":2,"counters":{"puts":3,"flushes":1},"classes":[{"class":"put","count":3,"bytes":24,"virtual_ns":4500,"p50":2048,"p99":2048,"p999":2048,"lat":[[11,2],[12,1]],"size":[[4,3]]}],"rank_traffic":[],"transports":[],"windows":[],"faults":{"jitter":0,"spike":2},"dropped":0}"#;
        let m = parse_agent_json("scope", line).unwrap();
        assert_eq!(m.ranks, 2);
        assert_eq!(m.counters[0], ("puts".into(), 3));
        assert_eq!(m.classes.len(), 1);
        assert_eq!(m.classes[0].count, 3);
        assert_eq!(m.classes[0].lat.total(), 3);
        assert_eq!(m.classes[0].size.count(4), 3, "the size buckets are read too");
        assert_eq!(m.faults, vec![("spike".into(), 2)], "zero fault rows are elided");
        assert_eq!(m.total_ops(), 3);
        assert_eq!(m.total_virtual_ns(), 4500);
        assert_eq!(m.total_faults(), 2);
    }
}
