//! fompi-mc: the protocol table and its two runners — an exhaustive
//! interleaving model checker with replayable counterexamples, and the
//! fault-plan soak.
//!
//! [`programs`] holds every protocol program once, as a row of
//! [`PROGRAMS`] (the mutants in [`MUTANTS`]). [`soak`] runs a row at any
//! rank count under seeded fault plans. [`check`] runs it at its smallest
//! instance ([`Program::mc`]) under a cooperative scheduler
//! ([`gate::SchedGate`]) that serializes the job at every announced
//! operation — remote puts/gets/AMOs, notification ring pushes/pops,
//! wait-loop re-polls, runtime collectives (the hook surface is
//! [`fompi_fabric::mc`]). A dynamic partial-order reduction ([`dpor`])
//! enumerates every non-equivalent interleaving, where equivalence is
//! keyed on the same (window, target, byte-range, access-kind) conflict
//! relation the dynamic race checker classifies.
//!
//! Every explored schedule is checked for:
//!
//! - **invariants** — a body's own checks (payloads, conservation, the
//!   window metadata rest state); a violated one is reported like a panic;
//! - **racecheck violations** — runs execute with the shadow armed in
//!   panic mode, so an MPI-illegal overlap aborts the run with the full
//!   race report (including both accesses' causal flow ids);
//! - **global deadlock** — no rank enabled, not all finished;
//! - **quiescence at teardown** — every notification ring empty after
//!   the program returns;
//! - **schedule-independence of declared-stable outputs** — each rank's
//!   digest must be byte-equal across all explored schedules.
//!
//! A violation serializes to a compact schedule string (`mc1:` plus the
//! dot-separated grant sequence) that [`replay`] — or the
//! `FOMPI_MC_REPLAY` environment knob, which reroutes [`check`] — turns
//! back into the exact failing execution, virtual clocks and all.
//!
//! Explorations are *stateless*: every run builds a fresh `Universe`
//! and fabric, with a fixed seed, faults disabled and single-node
//! topology, so a schedule fully determines an execution.

pub mod dpor;
pub mod gate;
pub mod programs;
pub mod soak;

pub use dpor::Found;
pub use gate::{McAbort, SchedGate, Stop};
pub use programs::{find, Program, Shape, MUTANTS, PROGRAMS, THREE_RANKS};

use dpor::{Bounds, RunOutcome};
use fompi_fabric::mc::{McGate, McOp};
use fompi_fabric::{FaultPlan, RacecheckMode};
use fompi_runtime::Universe;
use std::fmt;
use std::sync::Arc;

/// Environment knob: set to a schedule string to make [`check`] replay
/// that one schedule instead of exploring. Malformed values fail loudly.
pub const REPLAY_ENV: &str = "FOMPI_MC_REPLAY";

/// Fixed root seed for every model-checking universe and program shape:
/// runs must be schedule-deterministic, so nothing else may vary.
const MC_SEED: u64 = 0xF0;

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Cap on total runs (clean + aborted) per exploration.
    pub max_schedules: u64,
    /// Cap on scheduling steps per run.
    pub max_steps: usize,
    /// Preemptive context-switch budget per schedule (a switch away
    /// from a still-enabled rank). `None` — the default — explores
    /// exhaustively.
    pub max_preemptions: Option<u32>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig { max_schedules: 200_000, max_steps: 5_000, max_preemptions: None }
    }
}

/// A violating schedule, replayable via [`replay`] / `FOMPI_MC_REPLAY`.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// `mc1:`-prefixed dot-separated grant sequence.
    pub schedule: String,
    /// What went wrong on that schedule.
    pub violation: Found,
    /// Per-rank final virtual clocks of the violating run
    /// (`f64::to_bits` — replay must reproduce them exactly).
    pub clocks: Vec<u64>,
}

impl fmt::Display for Found {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Found::Panic { rank, msg } => write!(f, "panic[rank {rank}]: {msg}"),
            Found::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            Found::Quiescence => {
                write!(f, "non-quiescent teardown: notification ring not drained")
            }
            Found::DigestMismatch { want, got } => {
                write!(f, "digest mismatch: want {want:x?} got {got:x?}")
            }
        }
    }
}

/// What one [`check`] produced.
#[derive(Debug)]
pub struct McResult {
    /// Completed (clean) runs.
    pub schedules: u64,
    /// Runs stopped early as redundant or over the step budget.
    pub aborted: u64,
    /// Backtrack candidates skipped by the preemption budget.
    pub pruned: u64,
    /// Scheduling steps across all runs.
    pub steps_total: u64,
    /// Did the exploration cover everything within bounds?
    pub complete: bool,
    /// First violation found, if any.
    pub counterexample: Option<Counterexample>,
    /// Reference per-rank digests (first clean run).
    pub digest: Option<Vec<u64>>,
    /// Reference per-rank clocks (first clean run; the replayed run's
    /// clocks when replaying).
    pub clocks: Vec<u64>,
}

/// Serialize a grant sequence: `mc1:0.1.0.1`.
pub fn encode_schedule(grants: &[u32]) -> String {
    let body: Vec<String> = grants.iter().map(u32::to_string).collect();
    format!("mc1:{}", body.join("."))
}

/// Parse [`encode_schedule`]'s format.
pub fn parse_schedule(s: &str) -> Result<Vec<u32>, String> {
    let body = s
        .strip_prefix("mc1:")
        .ok_or_else(|| format!("schedule {s:?} does not start with \"mc1:\""))?;
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split('.')
        .map(|t| t.parse::<u32>().map_err(|_| format!("schedule token {t:?} is not a rank")))
        .collect()
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The rank count and shape `prog` is explored at.
fn instance(prog: &Program) -> (usize, Shape) {
    let (p, epochs) =
        prog.mc.unwrap_or_else(|| panic!("{} has no model-checked instance", prog.name));
    (p, Shape { epochs, seed: MC_SEED })
}

/// Execute one schedule of `prog`: forced grant prefix, sleep set for
/// the branch step, step cap. Builds a fresh gate and universe — runs
/// share nothing.
fn run_once(
    prog: &Program,
    forced: &[u32],
    sleep_base: Vec<(u32, McOp)>,
    max_steps: usize,
) -> RunOutcome {
    let (p, shape) = instance(prog);
    let gate = Arc::new(SchedGate::new(p, forced.to_vec(), sleep_base, max_steps));
    let g = gate.clone();
    let body = prog.body;
    let (outs, fabric) = Universe::new(p)
        .node_size(1)
        .seed(MC_SEED)
        .faults(FaultPlan::disabled())
        .racecheck(RacecheckMode::Panic)
        .mc_gate(gate.clone() as Arc<dyn McGate>)
        .launch(move |ctx| {
            let r = ctx.rank();
            // The mc-begin collective parks every rank before the first
            // scheduling decision, so the enabled set at step 0 does not
            // depend on thread spawn order.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.collective(r, "mc-begin");
                body(ctx, &shape)
            }));
            let clock = ctx.ep().clock().now().to_bits();
            match res {
                Ok(Ok(d)) => {
                    g.finish(r);
                    return (Some(d), clock);
                }
                // A violated invariant stops the run like a panic.
                Ok(Err(msg)) => g.report_panic(r, msg),
                Err(payload) if payload.downcast_ref::<McAbort>().is_none() => {
                    g.report_panic(r, panic_msg(payload.as_ref()))
                }
                Err(_) => {}
            }
            (None, clock)
        });
    let quiescent = (0..p as u32).all(|q| fabric.notify().queue(q).is_empty());
    RunOutcome {
        log: gate.take_log(),
        digests: outs.iter().map(|(d, _)| *d).collect(),
        clocks: outs.iter().map(|(_, c)| *c).collect(),
        quiescent,
    }
}

/// Model-check `prog` at its [`Program::mc`] instance under `cfg`.
/// Honours `FOMPI_MC_REPLAY`: when set, replays that single schedule
/// instead of exploring.
pub fn check(prog: &Program, cfg: &McConfig) -> McResult {
    if let Ok(sched) = std::env::var(REPLAY_ENV) {
        return replay(prog, &sched);
    }
    let bounds = Bounds {
        max_schedules: cfg.max_schedules,
        max_steps: cfg.max_steps,
        max_preemptions: cfg.max_preemptions,
    };
    let ex =
        dpor::explore(&bounds, |forced, sleep, max_steps| run_once(prog, forced, sleep, max_steps));
    McResult {
        schedules: ex.schedules,
        aborted: ex.aborted,
        pruned: ex.pruned,
        steps_total: ex.steps_total,
        complete: ex.complete,
        counterexample: ex.violation.map(|(grants, found, clocks)| Counterexample {
            schedule: encode_schedule(&grants),
            violation: found,
            clocks,
        }),
        digest: ex.digest,
        clocks: ex.clocks,
    }
}

/// Replay one schedule of `prog`. Panics loudly on a malformed or
/// divergent (stale) schedule — a replay that cannot follow its script
/// must never look like a pass.
pub fn replay(prog: &Program, schedule: &str) -> McResult {
    let grants = match parse_schedule(schedule) {
        Ok(g) => g,
        Err(e) => panic!("{REPLAY_ENV}: {e}"),
    };
    let (p, _) = instance(prog);
    for &g in &grants {
        assert!(
            (g as usize) < p,
            "{REPLAY_ENV}: rank {g} out of range for {} (p = {p})",
            prog.name
        );
    }
    let o = run_once(prog, &grants, Vec::new(), McConfig::default().max_steps);
    let ran: Vec<u32> = o.log.steps.iter().map(|s| s.rank).collect();
    let mut res = McResult {
        schedules: 0,
        aborted: 0,
        pruned: 0,
        steps_total: o.log.steps.len() as u64,
        complete: false,
        counterexample: None,
        digest: None,
        clocks: o.clocks.clone(),
    };
    let cx = |found: Found| Counterexample {
        schedule: encode_schedule(&ran),
        violation: found,
        clocks: o.clocks.clone(),
    };
    res.counterexample = match o.log.stop {
        Some(Stop::Panic { rank, msg }) => Some(cx(Found::Panic { rank, msg })),
        Some(Stop::Deadlock { detail }) => Some(cx(Found::Deadlock { detail })),
        Some(Stop::Divergence { at, want }) => panic!(
            "{REPLAY_ENV}: schedule diverged at step {at} (wanted rank {want}) — \
             stale schedule for this build or model?"
        ),
        Some(Stop::Redundant) => unreachable!("replay runs with an empty sleep set"),
        Some(Stop::StepBudget) => panic!("{REPLAY_ENV}: replay exceeded the step budget"),
        None => {
            res.schedules = 1;
            res.complete = true;
            if o.quiescent {
                res.digest =
                    Some(o.digests.iter().map(|d| d.expect("clean run digests")).collect());
                None
            } else {
                Some(cx(Found::Quiescence))
            }
        }
    };
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_codec_round_trips() {
        let grants = vec![0, 1, 1, 2, 0];
        let s = encode_schedule(&grants);
        assert_eq!(s, "mc1:0.1.1.2.0");
        assert_eq!(parse_schedule(&s).unwrap(), grants);
        assert_eq!(parse_schedule("mc1:").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn schedule_codec_rejects_garbage() {
        assert!(parse_schedule("0.1.2").is_err());
        assert!(parse_schedule("mc1:0.x.2").is_err());
        assert!(parse_schedule("mc2:0").is_err());
    }

    #[test]
    fn default_bounds_are_exhaustive() {
        let cfg = McConfig::default();
        assert!(cfg.max_preemptions.is_none());
        assert!(cfg.max_schedules >= 100_000);
    }
}
