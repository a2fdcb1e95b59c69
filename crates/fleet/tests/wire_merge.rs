//! The fleet's core soundness claim, proved end to end: merging agent
//! metrics *through the wire form* (JSON line → parse → bucket merge)
//! yields exactly what an in-process [`ClassMetrics::merge`] of the same
//! rows yields. If the JSON round-trip lost or coarsened buckets, the fleet
//! summary's tails would silently drift from the truth.

use fompi_fabric::metrics::ClassMetrics;
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::{metrics, Config, CostModel, Endpoint, Fabric, Segment};
use fompi_fleet::{merge_classes, parse_agent_json, ConfigResult, Usage};

/// Drive a deterministic single-rank workload on a fresh fabric and
/// return its armed metrics snapshot. `reps` scales the op mix so two
/// calls produce *different* distributions worth merging.
fn snapshot(reps: usize) -> metrics::MetricsSnapshot {
    let config = Config { metrics: true, ..Config::default() };
    let fabric = Fabric::with_config(2, 1, CostModel::default(), config);
    let ep = Endpoint::new(fabric.clone(), 0);
    let key = fabric.register(1, Segment::new(1 << 16));
    let mut buf = [0u8; 512];
    for i in 0..reps {
        let size = [8usize, 64, 512, 4096][i % 4];
        ep.put(key, 0, &vec![i as u8; size]).unwrap();
        if i % 3 == 0 {
            ep.get(key, 0, &mut buf).unwrap();
        }
    }
    ep.flush_target(1);
    metrics::snapshot(&fabric)
}

fn to_config(agent: &str, snap: &metrics::MetricsSnapshot) -> ConfigResult {
    let parsed = parse_agent_json(agent, &snap.to_json_line())
        .expect("the fabric's own JSON line must parse as an agent line");
    ConfigResult {
        agent: agent.into(),
        backend: "rma".into(),
        ranks: 2,
        node_size: 1,
        seed: 1,
        metrics: parsed,
        usage: Usage::default(),
        stable: true,
    }
}

#[test]
fn the_agent_parser_inverts_the_metrics_line() {
    // Every field of every row survives the wire: counts, bytes, virtual
    // ns, and both distributions (the size buckets of the RMA classes too).
    for snap in [snapshot(40), snapshot(17)] {
        let parsed = parse_agent_json("agent", &snap.to_json_line()).unwrap();
        assert_eq!(parsed.classes, snap.classes);
    }
}

#[test]
fn wire_merge_equals_in_process_merge() {
    let (a, b) = (snapshot(40), snapshot(17));

    // Through the wire: serialize, parse back, merge buckets.
    let merged = merge_classes(&[to_config("agent-a", &a), to_config("agent-b", &b)]);

    for class in &merged {
        // In process: merge the original snapshots' rows directly.
        let find =
            |s: &metrics::MetricsSnapshot| s.classes.iter().find(|c| c.kind == class.kind).cloned();
        let mut want: Option<ClassMetrics> = None;
        for c in [find(&a), find(&b)].into_iter().flatten() {
            match &mut want {
                Some(w) => w.merge(&c),
                None => want = Some(c),
            }
        }
        assert_eq!(Some(class), want.as_ref(), "{}: drifted through the wire", class.kind.name());
    }

    // The workloads differ, so the merge is a real union, not a no-op.
    let put = merged.iter().find(|c| c.kind == EventKind::Put).expect("put class present");
    assert_eq!(put.count, 57);
}
