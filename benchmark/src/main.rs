//! The repo benchmark: seven 2-rank workloads on the wall clock, with an
//! itemised per-layer trace. See `README.md` beside the manifest; start it
//! through `run.sh`, which builds it first.

mod child;
mod harness;
mod ledger;
mod probe;
mod report;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: run.sh [--workload <name>]... [--seed <n>] [--seconds <n>]
              [--trace <0|1>] [--trace-only] [--aa] [--list] [--lint]

  no --trace     suite: every (or each named) workload untraced, then traced,
                 all metrics printed by name with their unit
  --trace 0|1    one run of one workload for the driver: the last line of
                 stdout is a JSON object with the end-to-end (0) or the
                 per-layer (1) metrics
  --trace-only   suite without the untraced runs
  --aa           untraced suite twice on the same build; non-zero exit if two
                 medians differ by more than the metric's bound
  --list         every metric: name, unit, direction, bound, what it moves
  --lint         cargo fmt --check and cargo clippy -D warnings (run.sh)";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    trace_only: bool,
    aa: bool,
    list: bool,
    benchmark_json: bool,
    // Child mode only.
    window_ms: u64,
    traced: bool,
    trace_out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: None,
        trace_only: false,
        aa: false,
        list: false,
        benchmark_json: false,
        window_ms: 0,
        traced: false,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number =
            |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a number"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?} (known: {})", known.join(", ")));
                }
                a.workloads.push(name);
            }
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.max(1),
            "--trace" => a.trace = Some(number(value()?)? != 0),
            "--trace-only" => a.trace_only = true,
            "--aa" => a.aa = true,
            "--list" => a.list = true,
            "--benchmark-json" => a.benchmark_json = true,
            "--window-ms" => a.window_ms = number(value()?)?,
            "--traced" => a.traced = true,
            "--trace-out" => a.trace_out = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("fompi-benchmark: this is a debug build; build with --release (run.sh does)");
        return ExitCode::from(2);
    }
    let mut argv = std::env::args().skip(1).peekable();
    let is_child = argv.next_if(|a| a == "child").is_some();
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("fompi-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if is_child {
        let [workload] = args.workloads.as_slice() else {
            eprintln!("fompi-benchmark: child mode needs exactly one --workload");
            return ExitCode::from(2);
        };
        child::run(&child::ChildArgs {
            workload: workload.clone(),
            seed: args.seed,
            window: Duration::from_millis(args.window_ms),
            traced: args.traced,
            trace_out: args.trace_out,
        });
        return ExitCode::SUCCESS;
    }
    if args.benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.list {
        suite::list();
        return ExitCode::SUCCESS;
    }
    let outcome = match args.trace {
        Some(trace) => {
            let [workload] = args.workloads.as_slice() else {
                eprintln!("fompi-benchmark: --trace needs exactly one --workload");
                return ExitCode::from(2);
            };
            suite::driver(workload, args.seed, args.seconds, trace).map(|()| true)
        }
        None => {
            let workloads = if args.workloads.is_empty() {
                spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect()
            } else {
                args.workloads
            };
            suite::suite(&suite::SuiteArgs {
                workloads,
                seed: args.seed,
                seconds: args.seconds,
                trace_only: args.trace_only,
                aa: args.aa,
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fompi-benchmark: outputs failed verification or runs disagreed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fompi-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
