//! fleet: the cross-backend bench orchestrator.
//!
//! ```text
//! cargo run --release -p fompi-bench --bin fleet -- --smoke # small sweep -> results/fleet_summary.json
//! cargo run --release -p fompi-bench --bin fleet -- --sweep # full rank sweep
//! cargo run --release -p fompi-bench --bin fleet -- --chaos # sweep under FOMPI_FAULTS -> results/fleet_chaos.json
//! ```
//!
//! Every agent of [`fompi_bench::fleet::REGISTRY`] runs in this process,
//! one sweep point after the other, and the per-point metrics snapshots
//! are merged into one fleet summary — p50/p99/p999 per op class per
//! configuration plus exact fleet-wide distributions. The summary holds
//! only virtual-time data from schedule-independent agents, so it is
//! byte-stable and `scripts/ci.sh determinism` byte-diffs it: after a
//! deliberate change, rerun `--smoke`, review `git diff` and commit. Each
//! point's wall-clock time, and every schedule-dependent agent's numbers,
//! land in the human sweep table (stdout + `results/fleet_sweep.txt`).
//!
//! Every `FOMPI_*` knob is removed from the environment before the first
//! point, so ambient shell state cannot perturb the summary; `--chaos`
//! then arms `FOMPI_FAULTS` explicitly, making tail-latency-under-failure
//! a tracked number. A point still running after [`HANG_LIMIT`] ends the
//! process with exit code 1, naming the point.

use fompi_bench::fleet::{render_summary, render_table, run_point, ConfigResult, REGISTRY};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

/// The chaos sweep's fault plan (seeded: deterministic injections).
const CHAOS_PLAN: &str = "heavy,seed=5";

/// The smoke sweep stops at this rank count; `--sweep`/`--chaos` run the
/// registry's full rank lists.
const SMOKE_MAX_RANKS: usize = 4;

/// A point still running after this long fails the sweep.
const HANG_LIMIT: Duration = Duration::from_secs(300);

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Smoke,
    Sweep,
    Chaos,
}

/// The hang watchdog: take each point's label from `labels` and exit the
/// process with code 1, naming the point, when no next label arrives
/// within [`HANG_LIMIT`]. Returns once the sweep drops its sender.
fn watchdog(labels: Receiver<String>) {
    let mut label = String::new();
    loop {
        match labels.recv_timeout(HANG_LIMIT) {
            Ok(next) => label = next,
            Err(RecvTimeoutError::Timeout) => {
                eprintln!("fleet: agent {label}: still running after {HANG_LIMIT:?}");
                std::process::exit(1);
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Run the sweep: every registry agent at every selected rank count.
fn run_sweep(mode: Mode) -> Result<Vec<ConfigResult>, String> {
    let max_ranks = if mode == Mode::Smoke { SMOKE_MAX_RANKS } else { usize::MAX };
    let (hang, labels) = mpsc::channel();
    // `hang` moves into the scope's body and drops when it returns, so the
    // scope's join of the watchdog never waits on a live sender.
    let runs = std::thread::scope(move |s| {
        s.spawn(move || watchdog(labels));
        let mut runs = Vec::new();
        for spec in REGISTRY {
            for &ranks in spec.ranks.iter().filter(|&&r| r <= max_ranks) {
                for &node_size in spec.node_sizes {
                    hang.send(spec.label(ranks, node_size))
                        .expect("the watchdog outlives the sweep");
                    runs.push(run_point(spec, ranks, node_size)?);
                }
            }
        }
        Ok::<_, String>(runs)
    })?;
    // The fleet's own coverage contract: a sweep that silently dropped
    // to one backend is not a cross-backend sweep.
    let backends: BTreeSet<&str> = runs.iter().map(|r| r.backend).collect();
    assert!(backends.len() >= 3, "sweep must cover >= 3 backends, got {backends:?}");
    Ok(runs)
}

fn write_outputs(runs: &[ConfigResult], summary_path: &str, table_path: &str) {
    std::fs::create_dir_all("results").ok();
    let summary = render_summary(runs);
    std::fs::write(summary_path, &summary).expect("write fleet summary");
    let table = render_table(runs);
    std::fs::write(table_path, &table).expect("write fleet sweep table");
    print!("{table}");
    println!("-> {summary_path}");
    println!("-> {table_path} (wall-clock column; not byte-stable)");
}

fn main() -> ExitCode {
    // Before any thread exists: the summary depends only on what the
    // fleet sets itself.
    for knob in fompi_fabric::Config::VARS {
        std::env::remove_var(knob);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, name) = match args.as_slice() {
        [a] if a == "--smoke" => (Mode::Smoke, "smoke"),
        [a] if a == "--sweep" => (Mode::Sweep, "full"),
        [a] if a == "--chaos" => (Mode::Chaos, "chaos"),
        _ => {
            eprintln!("usage: fleet (--smoke | --sweep | --chaos)");
            return ExitCode::FAILURE;
        }
    };
    if mode == Mode::Chaos {
        std::env::set_var("FOMPI_FAULTS", CHAOS_PLAN);
    }
    println!("== fleet: {name} sweep ({} agents registered) ==", REGISTRY.len());
    let runs = match run_sweep(mode) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    if mode == Mode::Chaos {
        write_outputs(&runs, "results/fleet_chaos.json", "results/fleet_chaos_sweep.txt");
        let total_faults: u64 = runs.iter().map(|r| r.total_faults()).sum();
        println!("fleet: chaos sweep injected {total_faults} faults across {} runs", runs.len());
        assert!(total_faults > 0, "chaos sweep must actually inject faults");
    } else {
        write_outputs(&runs, "results/fleet_summary.json", "results/fleet_sweep.txt");
    }
    ExitCode::SUCCESS
}
