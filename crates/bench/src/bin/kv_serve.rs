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
//! schedule-dependent and stay on stdout. The retry budget is effectively
//! unbounded here (every transaction must eventually commit for the
//! final table to be exact); set `FOMPI_TXN_RETRY` to serve with a real
//! budget and shed load instead.

use fompi_apps::kv::{conservation_check, serve, KvConfig, KvServeStats, KvStore};
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::{metrics, FaultPlan};
use fompi_runtime::Universe;
use fompi_txn::RetryPolicy;

fn main() {
    // Fleet-agent mode: run the smoke-sized serve under the ambient fault
    // plan (the chaos sweep arms `FOMPI_FAULTS`), print exactly one JSON
    // metrics line, and write nothing under `results/`.
    let agent_json = std::env::args().any(|a| a == "--agent-json");
    let smoke = agent_json || std::env::args().any(|a| a == "--smoke");
    let (p, node_size, cfg) = if smoke {
        (
            8usize,
            4usize,
            KvConfig {
                buckets_per_rank: 512,
                keyspace: 4096,
                theta: 0.99,
                warm_per_rank: 64,
                ops_per_rank: 128,
                seed: 7,
                ..KvConfig::default()
            },
        )
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
    // The job-wide policy: `FOMPI_TXN_RETRY` if set, else an effectively
    // unbounded backoff so every operation commits (exactness over
    // shedding — this driver asserts the final table).
    let fallback = RetryPolicy::Backoff { budget: 1 << 20, base_ns: 400, cap_ns: 100_000 };
    let mut universe = Universe::new(p).node_size(node_size).seed(cfg.seed).metrics(true);
    if !agent_json {
        // Agent mode leaves the fault layer env-governed so the fleet's
        // chaos sweep can arm `FOMPI_FAULTS`; standalone runs pin it off.
        universe = universe.faults(FaultPlan::disabled());
    }
    let (outs, fabric) = universe.launch(move |ctx| {
        let store = KvStore::allocate(ctx, cfg);
        let policy = match store.win.endpoint().fabric().txn_retry() {
            Some(_) => RetryPolicy::for_win(&store.win),
            None => fallback.clone(),
        };
        let stats = serve(ctx, &store, &policy);
        let check = conservation_check(ctx, &store, &stats);
        (stats, check)
    });

    let agg = outs.iter().fold(KvServeStats::default(), |mut a, (s, _)| {
        a.reads += s.reads;
        a.hits += s.hits;
        a.upserts += s.upserts;
        a.transfers += s.transfers;
        a.time_ns = a.time_ns.max(s.time_ns);
        a
    });
    let (violations, occupied, value_sum, content_hash) = outs[0].1;
    assert!(outs.iter().all(|(_, c)| *c == outs[0].1), "ranks disagree on the global table digest");
    assert_eq!(violations, 0, "conservation violated");
    let txns = agg.reads + agg.upserts + agg.transfers;

    // Snapshot only now, after quiescence: every rank thread has joined
    // (the launch returned) and the conservation digest has been
    // cross-checked, so the commit tail — retried transactions that
    // landed after the fast ranks finished — is fully recorded. A
    // snapshot taken before this point undercounts `txn_commit` and
    // skews the smoke CSV's commit column low.
    let snap = metrics::snapshot(&fabric);
    let class = |kind: EventKind| snap.classes.iter().find(|c| c.kind == kind);
    let commits = class(EventKind::TxnCommit).map_or(0, |c| c.count);
    let aborts = class(EventKind::TxnAbort).map_or(0, |c| c.count);

    if !agent_json {
        print_report(smoke, p, &cfg, &agg, commits, aborts, txns, &snap, outs[0].1);
    }

    // The gate: work happened, and no value was minted or burned.
    assert!(commits > 0, "no transaction committed");
    assert_eq!(
        commits,
        (p * (cfg.warm_per_rank + cfg.ops_per_rank)) as u64,
        "every issued operation must commit exactly once"
    );

    if agent_json {
        println!("{}", snap.to_json_line());
        return;
    }

    if smoke {
        // Schedule-independent fields only (see module docs).
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

#[allow(clippy::too_many_arguments)]
fn print_report(
    smoke: bool,
    p: usize,
    cfg: &KvConfig,
    agg: &KvServeStats,
    commits: u64,
    aborts: u64,
    txns: u64,
    snap: &fompi_fabric::metrics::MetricsSnapshot,
    digest: (u64, u64, u64, u64),
) {
    let class = |kind: EventKind| snap.classes.iter().find(|c| c.kind == kind);
    let (_violations, occupied, value_sum, content_hash) = digest;
    println!(
        "== kv_serve: transactional KV store ({} mode) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "  {} ranks x ({} warm + {} mixed ops), keyspace {}, theta {:.2}",
        p, cfg.warm_per_rank, cfg.ops_per_rank, cfg.keyspace, cfg.theta
    );
    println!(
        "  committed txns : {commits} ({} reads, {} upserts, {} transfers; {} read hits)",
        agg.reads, agg.upserts, agg.transfers, agg.hits
    );
    println!("  aborted attempts: {aborts} (schedule-dependent)");
    println!(
        "  throughput     : {:.1} txn/s virtual ({txns} txns in {:.3} ms)",
        txns as f64 / (agg.time_ns / 1e9),
        agg.time_ns / 1e6
    );
    for (label, kind) in [("txn_commit", EventKind::TxnCommit), ("txn_read", EventKind::TxnRead)] {
        if let Some(c) = class(kind) {
            let [p50, p99, p999] = c.tails();
            println!("  {label:<10} lat : p50 {p50} ns, p99 {p99} ns, p999 {p999} ns");
        }
    }
    println!(
        "  table          : {occupied} cells occupied, value sum {value_sum:#x}, hash {content_hash:#018x}"
    );
}
