//! Protocol soak binary: every row of the protocol table under
//! deterministic fault plans.
//!
//! ```text
//! cargo run --release -p fompi-mc --bin soak              # bounded smoke
//! cargo run --release -p fompi-mc --bin soak lock mcs     # subset
//! SOAK_SECONDS=300 cargo run --release -p fompi-mc --bin soak   # long soak
//! ```
//!
//! Each program runs for many epochs under alternating light/heavy plans,
//! across several rank counts and seeds, checking its own invariants and
//! the window metadata rest state (see `fompi_mc::soak`). Environment
//! knobs:
//!
//! * `FOMPI_SEED`    — root seed; the whole campaign derives from it.
//! * `SOAK_SEEDS`    — seeds per (program, p) cell (default 8).
//! * `SOAK_SECONDS`  — long mode: keep drawing fresh seeds until the
//!   wall-clock budget is spent (overrides `SOAK_SEEDS`).
//! * `SOAK_P`        — comma-separated rank counts (default `4,6`).
//! * `SOAK_EPOCHS`   — epochs per rank per run (default 6).
//!
//! Per-program pass counts land in `results/soak.csv`; the `injected`
//! fault count only for [`fompi_mc::Program::stable`] rows (`-`
//! otherwise: a contended protocol's count depends on the schedule). Any
//! violation prints the reproducing seed and the process exits nonzero.

use fompi_fabric::rng::root_seed_from_env;
use fompi_fabric::FaultPlan;
use fompi_mc::soak::{run_case, seeds};
use fompi_mc::PROGRAMS;
use std::fmt::Write as _;
use std::fs;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = root_seed_from_env(0xDEFA_17AB1E);
    let epochs = env_usize("SOAK_EPOCHS", 6);
    let ranks: Vec<usize> = std::env::var("SOAK_P")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|_| vec![4, 6]);
    let seconds: Option<u64> =
        std::env::var("SOAK_SECONDS").ok().and_then(|v| v.parse().ok()).filter(|&s| s > 0);
    let per_cell = env_usize("SOAK_SEEDS", 8);
    let deadline = seconds.map(|s| Instant::now() + Duration::from_secs(s));

    println!("== foMPI-rs protocol soak ==");
    println!(
        "   root seed {root:#x}, {epochs} epochs, p in {ranks:?}, {}",
        match seconds {
            Some(s) => format!("long mode: ~{s}s wall clock"),
            None => format!("{per_cell} seeds per cell"),
        }
    );

    let mut csv = String::from("proto,p,seeds,epochs,passes,violations,injected\n");
    let mut failed = false;
    for (index, prog) in PROGRAMS.iter().enumerate() {
        if !args.is_empty() && !args.iter().any(|a| a == prog.name) {
            continue;
        }
        for &p in &ranks {
            let (mut passes, mut violations, mut injected, mut ran) = (0, 0, 0u64, 0);
            // Cell-specific stream so adding programs/rank counts never
            // reshuffles another cell's seeds.
            let cell_root = root ^ ((index as u64 + 1) << 32) ^ (p as u64);
            let mut batch = 0u64;
            loop {
                for (i, &seed) in seeds(cell_root.wrapping_add(batch), per_cell).iter().enumerate()
                {
                    // Alternate plan severities; seed 0 defers to the root
                    // seed, keeping one number sufficient for replay.
                    let plan = if i % 2 == 0 { FaultPlan::light(0) } else { FaultPlan::heavy(0) };
                    let out = run_case(prog, p, epochs, seed, plan);
                    ran += 1;
                    injected += out.injected;
                    if out.passed() {
                        passes += 1;
                    } else {
                        violations += out.violations.len();
                        failed = true;
                        for v in &out.violations {
                            eprintln!("VIOLATION {v}");
                        }
                    }
                }
                match deadline {
                    Some(d) if Instant::now() < d => batch += 1,
                    _ => break,
                }
            }
            let injected = if prog.stable { injected.to_string() } else { "-".into() };
            println!(
                "   {:<12} p={p}: {passes}/{ran} passed, {injected} faults injected",
                prog.name
            );
            let _ =
                writeln!(csv, "{},{p},{ran},{epochs},{passes},{violations},{injected}", prog.name);
        }
    }

    fs::create_dir_all("results").ok();
    if let Err(e) = fs::write("results/soak.csv", csv) {
        eprintln!("failed to write results/soak.csv: {e}");
    }
    println!("   wrote results/soak.csv");
    if failed {
        eprintln!("soak FAILED — replay any violation with FOMPI_SEED=<seed>");
        std::process::exit(1);
    }
}
