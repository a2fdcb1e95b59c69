//! The parent process: starts measuring children, takes medians over their
//! results, prints tables (suite mode) or the driver's one JSON line.

use crate::report::{human, print_bills, Bill};
use crate::spec::{self, Better, Metric};
use crate::stats::median;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// What one child reported.
#[derive(Default)]
pub struct ChildOut {
    pub metrics: BTreeMap<String, f64>,
    pub bills: Vec<Bill>,
    pub attempted: u64,
    pub failed: u64,
}

/// Start one measuring child and parse its report. Every `FOMPI_*` variable
/// is removed from its environment: telemetry can only be switched off
/// there, and a stray `FOMPI_BATCH` would change what is measured.
fn child(workload: &str, seed: u64, window_ms: u64, traced: bool) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--window-ms", &window_ms.to_string()]);
    if traced {
        let dir = trace_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        cmd.args(["--traced", "--trace-out", &format!("{dir}/trace-{workload}.json")]);
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FOMPI_") {
            cmd.env_remove(key);
        }
    }
    // stderr passes through: a panicking rank's message reaches the user.
    let out =
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("child for {workload} (seed {seed}) ended with {}", out.status));
    }
    let mut parsed = ChildOut::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let bad = || format!("unreadable child line {line:?}");
        match line.split_once(' ') {
            Some(("metric", rest)) => {
                let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                parsed.metrics.insert(k.to_string(), v.parse().map_err(|_| bad())?);
            }
            Some(("bill", rest)) => parsed.bills.push(Bill::decode(rest).ok_or_else(bad)?),
            Some(("attempted", v)) => parsed.attempted = v.parse().map_err(|_| bad())?,
            Some(("failed", v)) => parsed.failed = v.parse().map_err(|_| bad())?,
            Some(("trace", rest)) => eprintln!("  trace written: {rest}"),
            _ => return Err(bad()),
        }
    }
    Ok(parsed)
}

/// Where trace files go: `run.sh` names the `out/` beside itself.
fn trace_dir() -> String {
    std::env::var("BENCHMARK_OUT").unwrap_or_else(|_| "benchmark/out".to_string())
}

/// Seed of repetition `rep` of a run: fixed by the run's seed, different
/// per repetition.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(rep as u64)
}

/// One untraced run: `REPS` fresh children. Returns per metric the values
/// of all repetitions, and the attempted/failed totals.
pub struct Run {
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    pub fn median(&self, metric: &str) -> f64 {
        median(self.values[metric].clone())
    }

    fn min_max(&self, metric: &str) -> (f64, f64) {
        let v = &self.values[metric];
        (v.iter().copied().fold(f64::INFINITY, f64::min), v.iter().copied().fold(0.0, f64::max))
    }
}

pub fn untraced_run(workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let window_ms = seconds * 1000 / spec::REPS as u64;
    let mut run = Run { values: BTreeMap::new(), attempted: 0, failed: 0 };
    for rep in 0..spec::REPS {
        let out = child(workload, rep_seed(seed, rep), window_ms, false)?;
        for (k, v) in out.metrics {
            run.values.entry(k).or_default().push(v);
        }
        run.attempted += out.attempted;
        run.failed += out.failed;
    }
    Ok(run)
}

pub fn traced_run(workload: &str, seed: u64, seconds: u64) -> Result<ChildOut, String> {
    child(workload, rep_seed(seed, 0), seconds * 1000 / 2, true)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The driver's contract: one workload, one JSON object as the last line.
pub fn driver(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    header();
    let line = if trace {
        let out = traced_run(workload, seed, seconds)?;
        let metrics: Vec<(&Metric, f64)> = spec::PER_LAYER
            .iter()
            .map(|m| {
                out.metrics
                    .get(m.name)
                    .map(|v| (m, *v))
                    .ok_or(format!("child did not report {}", m.name))
            })
            .collect::<Result<_, _>>()?;
        json_line(out.failed == 0, out.attempted, out.failed, &metrics)
    } else {
        let run = untraced_run(workload, seed, seconds)?;
        let metrics: Vec<(&Metric, f64)> =
            spec::END_TO_END.iter().map(|m| (m, run.median(m.name))).collect();
        json_line(run.failed == 0, run.attempted, run.failed, &metrics)
    };
    println!("{line}");
    Ok(())
}

/// Machine facts that decide whether numbers are comparable.
pub fn header() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    eprintln!("fompi-benchmark: nproc {nproc}, cpu {model}, loadavg {}", load.trim());
    if nproc < crate::harness::RANKS {
        eprintln!(
            "warning: {} rank threads on {nproc} CPU(s): ranks take turns, wall numbers are not comparable",
            crate::harness::RANKS
        );
    }
}

fn print_untraced(workload: &str, run: &Run) {
    println!("\n== {workload} (untraced, {} repetitions) ==", spec::REPS);
    println!("  {:<24} {:>8} {:>14} {:>14} {:>14}", "metric", "unit", "median", "min", "max");
    let row = |name: &str, unit: &str| {
        let (lo, hi) = run.min_max(name);
        println!(
            "  {:<24} {:>8} {:>14} {:>14} {:>14}",
            name,
            unit,
            human(run.median(name)),
            human(lo),
            human(hi)
        );
    };
    for m in &spec::END_TO_END {
        row(m.name, m.unit);
    }
    let share = run.failed as f64 / run.attempted as f64;
    println!(
        "  {:<24} {:>8} {:>14} ({} of {} ops)",
        "failed_share", "ratio", share, run.failed, run.attempted
    );
    row("info.wall_ns_per_op_p99", "ns");
    row("info.samples", "count");
    row("info.virt_ns_per_op", "virt_ns");
    row("info.steal_pct", "%");
}

fn print_traced(workload: &str, out: &ChildOut) {
    println!("\n== {workload} (traced) ==");
    println!("  {:<40} {:>8} {:>14}   should move", "metric", "unit", "value");
    for m in spec::PER_LAYER {
        let v = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        println!("  {:<40} {:>8} {:>14}   {}", m.name, m.unit, human(v), m.note);
    }
    print_bills(&out.bills, &out.metrics);
    if out.failed > 0 {
        println!("  FAILED OPS: {} of {}", out.failed, out.attempted);
    }
}

pub struct SuiteArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace_only: bool,
    pub aa: bool,
}

/// Everything, for a reader: untraced end-to-end tables, then the traced
/// per-layer tables and bills. Returns whether every output checked out.
pub fn suite(a: &SuiteArgs) -> Result<bool, String> {
    header();
    let mut clean = true;
    if a.aa {
        return aa(a);
    }
    if !a.trace_only {
        for w in &a.workloads {
            let run = untraced_run(w, a.seed, a.seconds)?;
            print_untraced(w, &run);
            clean &= run.failed == 0;
        }
    }
    for w in &a.workloads {
        let out = traced_run(w, a.seed, a.seconds)?;
        print_traced(w, &out);
        clean &= out.failed == 0;
    }
    Ok(clean)
}

/// Two sets of runs of the same build must agree within the benchmark's own
/// bounds on every end-to-end metric of every workload.
fn aa(a: &SuiteArgs) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 0..2 {
        eprintln!("A/A set {}", set + 1);
        let mut runs = Vec::new();
        for w in &a.workloads {
            runs.push(untraced_run(w, a.seed, a.seconds)?);
        }
        sets.push(runs);
    }
    println!(
        "\n{:<12} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    let mut ok = true;
    for (i, w) in a.workloads.iter().enumerate() {
        for m in &spec::END_TO_END {
            let (x, y) = (sets[0][i].median(m.name), sets[1][i].median(m.name));
            let diff = (y - x).abs() / x;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let within = diff <= bound;
            ok &= within;
            println!(
                "{:<12} {:<20} {:>14} {:>14} {:>8.2}% {:>6.0}%  {}",
                w,
                m.name,
                human(x),
                human(y),
                100.0 * diff,
                100.0 * bound,
                if within { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        let failed = sets[0][i].failed + sets[1][i].failed;
        ok &= failed == 0;
        println!("{:<12} {:<20} {:>14}", w, "failed ops", failed);
    }
    Ok(ok)
}

/// `--list`: every metric with unit, direction, bound and what it moves.
pub fn list() {
    println!("Workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<11} {}\n  {:<11} {}", w.name, w.why, "", w.shape);
    }
    println!(
        "\nEnd-to-end metrics (every workload; regression = median worse by more than the bound):"
    );
    for m in &spec::END_TO_END {
        println!(
            "  {:<22} {:>5}  {:<6} is better  bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound.expect("bound"),
            m.note
        );
    }
    println!(
        "  {:<22} {:>5}  must be 0: the JSON line's `failed` / `attempted`",
        "failed_share", "ratio"
    );
    println!("\nPer-layer metrics (traced run; no bound) -> what each should move:");
    for m in spec::PER_LAYER {
        let dir = if m.better == Better::Lower { "lower" } else { "higher" };
        println!("  {:<40} {:>8}  {:<6}  -> {}", m.name, m.unit, dir, m.note);
    }
}
