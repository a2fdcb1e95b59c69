//! Served KV-store driver: a simulated client population against the
//! transactional store in `fompi_apps::kv`.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin kv_serve             # full run
//! cargo run --release -p fompi-bench --bin kv_serve -- --smoke  # CI smoke
//! ```
//!
//! The full run serves a Zipf-skewed (θ = 0.99) mixed read/upsert/transfer
//! workload over a 2^20-key keyspace at 64 simulated ranks, and reports
//! throughput plus p50/p99 commit and read latency from the
//! `fabric::metrics` snapshot (the `txn_read`/`txn_commit`/`txn_abort` op
//! classes the transaction layer traces).
//!
//! `--smoke` is the gated CI mode: a small fixed-seed serve whose
//! *schedule-independent* outcomes — commit count, table occupancy, value
//! sum, placement-independent content hash, conservation violations —
//! land in `results/kv_smoke.csv` for byte-diffing. Upserts are additive
//! and transfers conserving, so those fields are the same for every
//! thread interleaving; latency quantiles and abort counts are
//! schedule-dependent and stay on stdout. The serve and its checks are
//! [`fompi_bench::fleet::kv_serve_run`], which the fleet's `kv-serve`
//! agent runs at the smoke size with faults env-governed. The retry
//! budget is effectively unbounded here (every transaction must
//! eventually commit for the final table to be exact).

use fompi_apps::kv::KvConfig;
use fompi_bench::fleet::{
    kv_serve_run, kv_smoke_config, KvServed, KV_SMOKE_NODE_SIZE, KV_SMOKE_RANKS,
};
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::FaultPlan;
use fompi_runtime::Universe;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (p, node_size, cfg) = if smoke {
        (KV_SMOKE_RANKS, KV_SMOKE_NODE_SIZE, kv_smoke_config())
    } else {
        (
            64usize,
            8usize,
            KvConfig {
                buckets_per_rank: 32 * 1024,
                keyspace: 1 << 20,
                theta: 0.99,
                warm_per_rank: 2048,
                ops_per_rank: 512,
                seed: 7,
                ..KvConfig::default()
            },
        )
    };
    let universe = Universe::new(p)
        .node_size(node_size)
        .seed(cfg.seed)
        .metrics(true)
        .faults(FaultPlan::disabled());
    let run = kv_serve_run(universe, cfg);
    print_report(smoke, p, &cfg, &run);

    if smoke {
        // Schedule-independent fields only (see module docs).
        let (violations, occupied, value_sum, content_hash) = run.digest;
        let commits = count(&run, EventKind::TxnCommit);
        let csv = format!(
            "ranks,buckets_per_rank,keyspace,warm_per_rank,ops_per_rank,commits,occupied,value_sum,content_hash,violations\n\
             {p},{},{},{},{},{commits},{occupied},{value_sum},{content_hash},{violations}\n",
            cfg.buckets_per_rank, cfg.keyspace, cfg.warm_per_rank, cfg.ops_per_rank
        );
        std::fs::create_dir_all("results").ok();
        std::fs::write("results/kv_smoke.csv", csv).expect("write kv_smoke.csv");
        println!("  -> results/kv_smoke.csv");
    }
}

/// Events of class `kind` in the serve's snapshot.
fn count(run: &KvServed, kind: EventKind) -> u64 {
    run.snap.classes.iter().find(|c| c.kind == kind).map_or(0, |c| c.count)
}

fn print_report(smoke: bool, p: usize, cfg: &KvConfig, run: &KvServed) {
    let agg = &run.agg;
    let (_violations, occupied, value_sum, content_hash) = run.digest;
    let txns = agg.reads + agg.upserts + agg.transfers;
    println!(
        "== kv_serve: transactional KV store ({} mode) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "  {} ranks x ({} warm + {} mixed ops), keyspace {}, theta {:.2}",
        p, cfg.warm_per_rank, cfg.ops_per_rank, cfg.keyspace, cfg.theta
    );
    println!(
        "  committed txns : {} ({} reads, {} upserts, {} transfers; {} read hits)",
        count(run, EventKind::TxnCommit),
        agg.reads,
        agg.upserts,
        agg.transfers,
        agg.hits
    );
    println!("  aborted attempts: {} (schedule-dependent)", count(run, EventKind::TxnAbort));
    println!(
        "  throughput     : {:.1} txn/s virtual ({txns} txns in {:.3} ms)",
        txns as f64 / (agg.time_ns / 1e9),
        agg.time_ns / 1e6
    );
    for (label, kind) in [("txn_commit", EventKind::TxnCommit), ("txn_read", EventKind::TxnRead)] {
        if let Some(c) = run.snap.classes.iter().find(|c| c.kind == kind) {
            let [p50, p99, p999] = c.tails();
            println!("  {label:<10} lat : p50 {p50} ns, p99 {p99} ns, p999 {p999} ns");
        }
    }
    println!(
        "  table          : {occupied} cells occupied, value sum {value_sum:#x}, hash {content_hash:#018x}"
    );
}
