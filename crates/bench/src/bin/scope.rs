//! fompi-scope driver: regenerate the committed metrics snapshot and run
//! the observability overhead ablation.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin scope               # write results/scope_metrics.{prom,json}
//! cargo run --release -p fompi-bench --bin scope -- --ablation # armed-vs-disarmed bit-identity gate
//! ```
//!
//! The snapshot workload ([`fompi_bench::fleet::scope_workload`], also
//! the fleet's `scope` agent) is built only from schedule-independent
//! primitives (a single-locker put epoch and a notified handoff), so two
//! runs — on any machine — produce byte-identical Prometheus text and
//! JSON lines. `scripts/ci.sh` regenerates both files under a pinned
//! environment and byte-diffs them against the committed copies, the same
//! contract `soak.csv` and `perfgate.json` live under.
//!
//! `--ablation` reruns the workload with the whole plane armed (metrics +
//! telemetry + flight recorder) and disarmed,
//! and asserts the per-rank virtual clocks are bit-identical: the
//! observability plane may spend real time, never virtual time.

use fompi_bench::fleet::{scope_universe, scope_workload};
use fompi_fabric::metrics_snapshot;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => snapshot_files(),
        [flag] if flag == "--ablation" => ablation(),
        _ => {
            eprintln!("usage: scope [--ablation]");
            ExitCode::FAILURE
        }
    }
}

/// Default mode: run the workload with metrics armed and write both
/// exposition forms under `results/`.
fn snapshot_files() -> ExitCode {
    let (_clocks, fabric) = scope_workload(scope_universe().metrics(true));
    let snap = metrics_snapshot(&fabric);
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/scope_metrics.prom", snap.to_prometheus())
        .expect("write scope_metrics.prom");
    std::fs::write("results/scope_metrics.json", snap.to_json_line() + "\n")
        .expect("write scope_metrics.json");
    println!("== fompi-scope metrics snapshot ==");
    print!("{}", snap.to_prometheus());
    println!("-> results/scope_metrics.prom");
    println!("-> results/scope_metrics.json");
    ExitCode::SUCCESS
}

/// Overhead ablation: per-rank virtual clocks must be bit-identical with
/// the plane fully armed and fully disarmed.
fn ablation() -> ExitCode {
    let (armed, fabric) = scope_workload(scope_universe().metrics(true).trace(4096));
    let (disarmed, _) = scope_workload(scope_universe());
    println!("== fompi-scope overhead ablation (virtual-time bit-identity) ==");
    println!("  armed run traced {} events", fabric.telemetry().events().len());
    for (rank, (a, d)) in armed.iter().zip(&disarmed).enumerate() {
        let (a_ns, d_ns) = (f64::from_bits(*a), f64::from_bits(*d));
        let ok = a == d;
        println!(
            "  rank {rank}: armed {a_ns:.1} ns, disarmed {d_ns:.1} ns  {}",
            if ok { "ok" } else { "MISMATCH" }
        );
        if !ok {
            eprintln!(
                "scope: armed observability perturbed rank {rank}'s virtual clock \
                 ({a_ns} != {d_ns}) — the plane must charge zero virtual time"
            );
            return ExitCode::FAILURE;
        }
    }
    println!("scope: armed/disarmed virtual time bit-identical.");
    ExitCode::SUCCESS
}
