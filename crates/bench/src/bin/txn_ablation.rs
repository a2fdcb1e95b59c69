//! Transaction contention ablation: commit latency and abort rate as the
//! number of conflicting writers grows.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin txn_ablation
//! ```
//!
//! W logical writers contend for one remote versioned cell
//! ([`fompi_bench::fleet::contend`]; the fleet's `txn-ablate` agent runs
//! it at W = 4). Each round every writer snapshots the cell (versioned
//! read) and stages an additive update, then the commits are attempted
//! in round-robin order: the first CAS wins, every other writer loses
//! validation, aborts, charges its policy backoff, re-snapshots and
//! retries in the next sub-round. The writers are *deterministically interleaved on one
//! driver rank*, so the sub-round cascade — W commits and
//! W·(W−1)/2 aborts per round, abort rate (W−1)/(W+1) — and every
//! virtual-time latency are exact functions of the seed. The CSV is
//! byte-diffed by `scripts/ci.sh`.
//!
//! What the ablation shows: optimistic commit degrades gracefully —
//! latency grows with contention because losers pay (backoff + re-read +
//! re-commit) per extra writer, while the abort *rate* approaches 1 as
//! W → ∞ yet throughput never collapses to zero (sorted lock order means
//! someone always wins each sub-round).

use fompi_bench::fleet::{contend, TXN_ROUNDS as ROUNDS};

fn main() {
    println!("== txn contention ablation: W writers, one hot cell ==\n");
    let mut rows =
        vec!["writers,rounds,commits,aborts,abort_rate,mean_commit_ns,final_value".to_string()];
    let mut prev_lat = 0.0;
    for writers in [1usize, 2, 4] {
        let (p, _) = contend(writers, false);
        // The cascade is exact: W commits/round, W(W-1)/2 aborts/round.
        assert_eq!(p.commits, (ROUNDS * writers) as u64);
        assert_eq!(p.aborts, (ROUNDS * writers * (writers - 1) / 2) as u64);
        // Additive deltas: the final value is the sum of every delta,
        // independent of commit order.
        let n = (ROUNDS * writers) as u64;
        assert_eq!(p.final_value, n * (n + 1) / 2, "lost update at W={writers}");
        let rate = p.aborts as f64 / (p.aborts + p.commits) as f64;
        println!(
            "  W={} : {:>4} commits, {:>4} aborts (rate {:.3}), mean commit {:>9.1} ns",
            p.writers, p.commits, p.aborts, rate, p.mean_commit_ns
        );
        assert!(
            p.mean_commit_ns > prev_lat,
            "commit latency must grow with contention (W={writers})"
        );
        prev_lat = p.mean_commit_ns;
        rows.push(format!(
            "{},{ROUNDS},{},{},{rate},{},{}",
            p.writers, p.commits, p.aborts, p.mean_commit_ns, p.final_value
        ));
    }
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/txn_ablation.csv", rows.join("\n") + "\n").expect("write csv");
    println!("\n  -> results/txn_ablation.csv");
}
