//! fleet: the process-based cross-backend bench orchestrator.
//!
//! ```text
//! cargo build --release -p fompi-bench                      # agents must exist first
//! cargo run --release -p fompi-bench --bin fleet -- --smoke # small sweep -> results/fleet_summary.json
//! cargo run --release -p fompi-bench --bin fleet -- --sweep # full rank sweep
//! cargo run --release -p fompi-bench --bin fleet -- --chaos # sweep under FOMPI_FAULTS -> results/fleet_chaos.json
//! ```
//!
//! Unlike every other bench in this repo, the fleet runs its workloads as
//! *separate release processes*: each registered agent is spawned with an
//! expanded argv template, its single-line JSON metrics output is parsed
//! (errors name the agent), its RSS/CPU/wall usage is sampled from
//! `/proc`, and the per-agent histogram snapshots are merged into one
//! fleet summary — p50/p99/p999 per op class per configuration plus exact
//! fleet-wide distributions. The summary holds only virtual-time data
//! from schedule-independent agents, so it is byte-stable and
//! `scripts/ci.sh determinism` byte-diffs it: after a deliberate change,
//! rerun `--smoke`, review `git diff` and commit. The wall-clock side —
//! and every schedule-dependent agent's numbers — land in the human sweep
//! table (stdout + `results/fleet_sweep.txt`). Agents are spawned from
//! the directory of the `fleet` binary itself.
//!
//! Agents run under a scrubbed environment (every `FOMPI_*` knob
//! removed) so ambient shell state cannot perturb the summary; `--chaos`
//! then arms `FOMPI_FAULTS` explicitly, making tail-latency-under-failure
//! a tracked number (fault draws are issue-side seeded, so even the chaos
//! summary is deterministic).

use fompi_fleet::{
    expand_argv, parse_agent_json, render_summary, render_table, run_agent, AgentSpec, ConfigResult,
};
use std::collections::BTreeSet;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Every agent the fleet can spawn. `bench_agent` sweeps rank counts ×
/// node sizes per backend (node_size 1 = all-inter-node, 2 = half the
/// ring hops ride the XPMEM fast path); `scope`, `txn_ablation` and
/// `rmc_ablation` are fixed-config agents that add binary diversity
/// (their workloads live in those bins). `kv-serve`, `dsde` and
/// `hashtable` are the *unstable* agents: transactional abort/retry
/// counts and `ANY_SOURCE` drain joins are schedule-dependent, so their
/// metrics feed the wall-clock table and the chaos sweep but never the
/// byte-diffed summary. `dsde` and `hashtable` are `bench_agent`
/// backends of their own, labelled with the stack they run on.
const BENCH_ARGS: &[&str] = &[
    "--agent-json",
    "--backend",
    "{backend}",
    "--ranks",
    "{ranks}",
    "--node-size",
    "{node_size}",
    "--seed",
    "{seed}",
];
const REGISTRY: &[AgentSpec] = &[
    AgentSpec {
        name: "bench-rma",
        bin: "bench_agent",
        args: BENCH_ARGS,
        backend: "rma",
        ranks: &[2, 4, 8, 16],
        node_sizes: &[1, 2],
        stable: true,
    },
    AgentSpec {
        name: "bench-msg",
        bin: "bench_agent",
        args: BENCH_ARGS,
        backend: "msg",
        ranks: &[2, 4, 8, 16],
        node_sizes: &[1, 2],
        stable: true,
    },
    AgentSpec {
        name: "bench-pgas",
        bin: "bench_agent",
        args: BENCH_ARGS,
        backend: "pgas",
        ranks: &[2, 4, 8, 16],
        node_sizes: &[1, 2],
        stable: true,
    },
    AgentSpec {
        name: "scope",
        bin: "scope",
        args: &["--agent-json"],
        backend: "rma",
        ranks: &[2],
        node_sizes: &[1],
        stable: true,
    },
    AgentSpec {
        name: "txn-ablate",
        bin: "txn_ablation",
        args: &["--agent-json"],
        backend: "txn",
        ranks: &[2],
        node_sizes: &[1],
        stable: true,
    },
    AgentSpec {
        name: "rmc-ablate",
        bin: "rmc_ablation",
        args: &["--agent-json"],
        backend: "rmc",
        ranks: &[4],
        node_sizes: &[1],
        stable: true,
    },
    AgentSpec {
        name: "kv-serve",
        bin: "kv_serve",
        args: &["--agent-json"],
        backend: "txn",
        ranks: &[8],
        node_sizes: &[1],
        stable: false,
    },
    AgentSpec {
        name: "dsde",
        bin: "bench_agent",
        args: &[
            "--agent-json",
            "--backend",
            "dsde",
            "--ranks",
            "{ranks}",
            "--node-size",
            "{node_size}",
            "--seed",
            "{seed}",
        ],
        backend: "rmc",
        ranks: &[8],
        node_sizes: &[2],
        stable: false,
    },
    AgentSpec {
        name: "hashtable",
        bin: "bench_agent",
        args: &[
            "--agent-json",
            "--backend",
            "hashtable",
            "--ranks",
            "{ranks}",
            "--node-size",
            "{node_size}",
            "--seed",
            "{seed}",
        ],
        backend: "rma",
        ranks: &[8],
        node_sizes: &[2],
        stable: false,
    },
];

/// The chaos sweep's fault plan (seeded: deterministic injections).
const CHAOS_PLAN: &str = "heavy,seed=5";

/// Seed every sweep point runs with.
const SEED: u64 = 1;

/// The smoke sweep stops at this rank count; `--sweep`/`--chaos` run the
/// registry's full rank lists.
const SMOKE_MAX_RANKS: usize = 4;

/// A hung agent is killed after this long, and the sweep fails naming it.
const AGENT_TIMEOUT: Duration = Duration::from_secs(300);

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Smoke,
    Sweep,
    Chaos,
}

/// Run the sweep: every registry agent at every selected rank count.
fn run_sweep(mode: Mode) -> Result<Vec<ConfigResult>, String> {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .ok_or("cannot locate the fleet binary's own directory")?;
    // Every row's binary, whether or not this mode runs it: a stale `bin`
    // fails the smoke sweep, not the first nightly that reaches its row.
    for spec in REGISTRY {
        let bin = dir.join(spec.bin);
        if !bin.exists() {
            return Err(format!(
                "agent {}: binary {} not found — build the agents first: \
                 cargo build --release -p fompi-bench",
                spec.name,
                bin.display()
            ));
        }
    }
    let chaos = mode == Mode::Chaos;
    let max_ranks = if mode == Mode::Smoke { SMOKE_MAX_RANKS } else { usize::MAX };
    let mut runs = Vec::new();
    let (mut bins, mut backends) = (BTreeSet::new(), BTreeSet::new());
    for spec in REGISTRY {
        for &ranks in spec.ranks.iter().filter(|&&r| r <= max_ranks) {
            for &node_size in spec.node_sizes {
                let label = format!("{}-p{ranks}-n{node_size}", spec.name);
                let argv = expand_argv(spec, ranks, node_size, SEED)?;
                let mut cmd = Command::new(dir.join(spec.bin));
                cmd.args(&argv);
                // Scrub every knob, so the summary only depends on what the
                // fleet passes explicitly.
                for knob in fompi_fabric::Config::VARS {
                    cmd.env_remove(knob);
                }
                if chaos {
                    cmd.env("FOMPI_FAULTS", CHAOS_PLAN);
                }
                let run = run_agent(&label, &mut cmd, AGENT_TIMEOUT)?;
                if run.exit_code != Some(0) {
                    return Err(format!(
                        "agent {label}: exited with {:?}\n--- stderr ---\n{}",
                        run.exit_code,
                        run.stderr.trim_end()
                    ));
                }
                let metrics = parse_agent_json(&label, &run.stdout)?;
                bins.insert(spec.bin);
                backends.insert(spec.backend);
                runs.push(ConfigResult {
                    agent: spec.name.to_string(),
                    backend: spec.backend.to_string(),
                    ranks,
                    node_size,
                    seed: SEED,
                    metrics,
                    usage: run.usage,
                    stable: spec.stable,
                });
            }
        }
    }
    // The fleet's own coverage contract: a sweep that silently dropped
    // to one binary or one backend is not a cross-backend sweep.
    assert!(bins.len() >= 4, "sweep must spawn >= 4 distinct agent binaries, got {bins:?}");
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
    println!("-> {table_path} (wall-clock columns; not byte-stable)");
}

fn main() -> ExitCode {
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
        let total_faults: u64 = runs.iter().map(|r| r.metrics.total_faults()).sum();
        println!("fleet: chaos sweep injected {total_faults} faults across {} runs", runs.len());
        assert!(total_faults > 0, "chaos sweep must actually inject faults");
    } else {
        write_outputs(&runs, "results/fleet_summary.json", "results/fleet_sweep.txt");
    }
    ExitCode::SUCCESS
}
