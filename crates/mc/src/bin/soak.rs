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
//! the window metadata rest state (see `fompi_mc::soak`), at p = 4 and 6
//! with 6 epochs per rank. Environment knobs (unset or empty means the
//! default; a value that is not a whole number in range exits 2 naming
//! the variable):
//!
//! * `FOMPI_SEED`    — root seed; the whole campaign derives from it.
//! * `SOAK_SEEDS`    — seeds per (program, p) cell (default 8, at least 1).
//! * `SOAK_SECONDS`  — long mode: keep drawing fresh seeds until the
//!   wall-clock budget is spent (default 0, off).
//!
//! Per-program pass counts land in `results/soak.csv`; the `injected`
//! fault count only for [`fompi_mc::Program::stable`] rows (`-`
//! otherwise: a contended protocol's count depends on the schedule). Any
//! violation prints the reproducing seed and the process exits nonzero.

use fompi_fabric::rng::{root_seed_from_env, splitmix64};
use fompi_fabric::FaultPlan;
use fompi_mc::soak::{run_case, seeds};
use fompi_mc::PROGRAMS;
use std::fmt::Write as _;
use std::fs;
use std::time::{Duration, Instant};

/// Rank counts every program runs at.
const RANKS: [usize; 2] = [4, 6];

/// Epochs per rank per run.
const EPOCHS: usize = 6;

/// A soak variable's value: `default` when unset or empty, else a whole
/// number of at least `min`; anything else is an error naming `var`.
fn knob(var: &str, value: Option<&str>, default: u64, min: u64) -> Result<u64, String> {
    match value.map(str::trim) {
        None | Some("") => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n >= min)
            .ok_or_else(|| format!("invalid {var} `{v}`: expected an integer >= {min}")),
    }
}

/// [`knob`] over the process environment; a malformed value exits 2.
fn env_knob(var: &str, default: u64, min: u64) -> u64 {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    knob(var, value.as_deref(), default, min).unwrap_or_else(|e| {
        eprintln!("soak: {e}");
        std::process::exit(2)
    })
}

/// A row name folded to a seed-stream key.
fn name_key(name: &str) -> u64 {
    name.bytes().fold(0, |h, b| splitmix64(h ^ u64::from(b)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = root_seed_from_env(0xDEFA_17AB1E);
    let seconds = Some(env_knob("SOAK_SECONDS", 0, 0)).filter(|&s| s > 0);
    let per_cell = env_knob("SOAK_SEEDS", 8, 1) as usize;
    let deadline = seconds.map(|s| Instant::now() + Duration::from_secs(s));

    println!("== foMPI-rs protocol soak ==");
    println!(
        "   root seed {root:#x}, {EPOCHS} epochs, p in {RANKS:?}, {}",
        match seconds {
            Some(s) => format!("long mode: ~{s}s wall clock"),
            None => format!("{per_cell} seeds per cell"),
        }
    );

    let mut csv = String::from("proto,p,seeds,epochs,passes,violations,injected\n");
    let mut failed = false;
    for prog in &PROGRAMS {
        if !args.is_empty() && !args.iter().any(|a| a == prog.name) {
            continue;
        }
        for p in RANKS {
            let (mut passes, mut violations, mut injected, mut ran) = (0, 0, 0u64, 0);
            // Cell-specific stream keyed by the row's name, so adding,
            // moving or deleting rows never reshuffles another cell's seeds.
            let cell_root = root ^ name_key(prog.name) ^ (p as u64);
            let mut batch = 0u64;
            loop {
                for (i, &seed) in seeds(cell_root.wrapping_add(batch), per_cell).iter().enumerate()
                {
                    // Alternate plan severities; seed 0 defers to the root
                    // seed, keeping one number sufficient for replay.
                    let plan = if i % 2 == 0 { FaultPlan::light(0) } else { FaultPlan::heavy(0) };
                    let out = run_case(prog, p, EPOCHS, seed, plan);
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
                writeln!(csv, "{},{p},{ran},{EPOCHS},{passes},{violations},{injected}", prog.name);
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

#[cfg(test)]
mod tests {
    use super::knob;

    #[test]
    fn a_malformed_soak_variable_is_an_error_naming_it() {
        assert_eq!(knob("SOAK_SEEDS", None, 8, 1), Ok(8));
        assert_eq!(knob("SOAK_SEEDS", Some(" "), 8, 1), Ok(8));
        assert_eq!(knob("SOAK_SEEDS", Some(" 2 "), 8, 1), Ok(2));
        assert_eq!(knob("SOAK_SECONDS", Some("0"), 0, 0), Ok(0));
        for (var, bad, min) in
            [("SOAK_SEEDS", "2x", 1), ("SOAK_SEEDS", "0", 1), ("SOAK_SECONDS", "abc", 0)]
        {
            let e = knob(var, Some(bad), 8, min).unwrap_err();
            assert_eq!(e, format!("invalid {var} `{bad}`: expected an integer >= {min}"));
        }
    }
}
