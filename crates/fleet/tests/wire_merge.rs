//! The fleet's core soundness claim, proved end to end: merging agent
//! metrics *through the wire form* (JSON line → parse → bucket merge)
//! yields exactly what an in-process [`HistSnapshot::merge`] of the same
//! snapshots yields. If the JSON round-trip lost or coarsened buckets,
//! the fleet summary's tails would silently drift from the truth.

use fompi_fabric::telemetry::HistSnapshot;
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
fn wire_merge_equals_in_process_merge() {
    let (a, b) = (snapshot(40), snapshot(17));

    // Through the wire: serialize, parse back, merge buckets.
    let merged = merge_classes(&[to_config("agent-a", &a), to_config("agent-b", &b)]);

    for class in &merged {
        // In process: merge the original snapshots' histograms directly.
        let find = |s: &metrics::MetricsSnapshot| {
            s.classes.iter().find(|c| c.kind.name() == class.class).cloned()
        };
        let mut lat = HistSnapshot::new();
        let (mut count, mut bytes, mut ns) = (0u64, 0u64, 0u64);
        for c in [find(&a), find(&b)].into_iter().flatten() {
            lat.merge(&c.lat);
            count += c.count;
            bytes += c.bytes;
            ns += c.total_ns;
        }
        assert_eq!(class.count, count, "{}: count drifted through the wire", class.class);
        assert_eq!(class.bytes, bytes, "{}: bytes drifted through the wire", class.class);
        assert_eq!(class.virtual_ns, ns, "{}: virtual_ns drifted through the wire", class.class);
        assert_eq!(class.lat, lat, "{}: bucket-exact histogram mismatch", class.class);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(class.lat.quantile_hi(q), lat.quantile_hi(q));
        }
    }

    // The workloads differ, so the merge is a real union, not a no-op.
    let put = merged.iter().find(|c| c.class == "put").expect("put class present");
    assert_eq!(put.count, 57);
}
