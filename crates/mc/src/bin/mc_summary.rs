//! Model-checking summary: explores every row of the protocol table that
//! has a model-checked instance, then every mutant, and writes
//! `results/mc_summary.csv` (byte-deterministic — CI diffs it against the
//! committed copy). With `--model <name>` it checks just that row and
//! prints one result line, which combined with `FOMPI_MC_REPLAY` gives an
//! out-of-process replay entry point.

use fompi_mc::{check, find, McConfig, McResult, Program, MUTANTS, PROGRAMS, THREE_RANKS};

/// Collapse a violation message onto one CSV-safe line.
fn csv_safe(s: &str) -> String {
    s.replace('\n', " / ").replace(',', ";")
}

fn hex_clocks(clocks: &[u64]) -> String {
    clocks.iter().map(|c| format!("{c:016x}")).collect::<Vec<_>>().join(".")
}

fn row(prog: &Program, p: usize, r: &McResult) -> String {
    let (violation, schedule) = match &r.counterexample {
        Some(cx) => (csv_safe(&cx.violation.to_string()), cx.schedule.clone()),
        None => ("none".to_string(), String::new()),
    };
    format!(
        "{},{p},{},{},{},{},{},{}",
        prog.name, r.schedules, r.aborted, r.steps_total, r.complete, violation, schedule
    )
}

fn write_summary() {
    let cfg = McConfig::default();
    let mut csv = String::from("model,p,schedules,aborted,steps,complete,violation,schedule\n");
    for prog in PROGRAMS.iter().chain(&THREE_RANKS).chain(&MUTANTS) {
        let Some((p, _)) = prog.mc else { continue };
        let line = row(prog, p, &check(prog, &cfg));
        println!("{} -> {}", prog.name, line.split(',').skip(2).collect::<Vec<_>>().join(","));
        csv.push_str(&line);
        csv.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/mc_summary.csv");
    std::fs::write(path, &csv).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

fn run_one(name: &str) {
    let prog = find(name).unwrap_or_else(|| panic!("unknown program {name:?}"));
    let r = check(&prog, &McConfig::default());
    match &r.counterexample {
        Some(cx) => println!(
            "model={name} violation={} schedule={} clocks={}",
            csv_safe(&cx.violation.to_string()),
            cx.schedule,
            hex_clocks(&cx.clocks)
        ),
        None => println!(
            "model={name} violation=none schedules={} aborted={} steps={} complete={} clocks={}",
            r.schedules,
            r.aborted,
            r.steps_total,
            r.complete,
            hex_clocks(&r.clocks)
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => write_summary(),
        [flag, name] if flag == "--model" => run_one(name),
        _ => {
            eprintln!("usage: mc_summary [--model <name>]");
            std::process::exit(2);
        }
    }
}
