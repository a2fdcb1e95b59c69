//! The soak runner: a [`Program`] for many epochs under an armed fault
//! plan, at any rank count, with every invariant the body checks —
//! payloads, conservation and the metadata rest state — checked under
//! whatever latencies, delayed completions or transient registration
//! failures the fault layer injects. Every violation carries the root
//! seed, so the exact run replays with `FOMPI_SEED=<seed>`.

use crate::programs::{Program, Shape};
use fompi_fabric::rng::splitmix64;
use fompi_fabric::{FaultPlan, RacecheckMode};
use fompi_runtime::Universe;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;

/// One soak case: a program soaked at one (p, seed) point.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Total faults the plan injected across all ranks.
    pub injected: u64,
    /// Per-rank final virtual clocks as raw `f64` bits: two runs of the
    /// same (program, p, seed, plan) agree bit for bit when the row is
    /// [`Program::stable`].
    pub clocks: Vec<u64>,
    /// Invariant violations (empty = pass), one per rank that saw one.
    pub violations: Vec<String>,
    /// Accesses the RMA race checker flagged (0 unless armed).
    pub raceflags: u64,
}

impl SoakOutcome {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derive `n` independent soak seeds from one root seed, so a whole
/// campaign replays from a single `FOMPI_SEED`.
pub fn seeds(root: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| splitmix64(root.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).max(1))
        .collect()
}

/// Run `prog` on `p` ranks for `epochs` epochs under `plan`. A plan with
/// `seed == 0` inherits a seed derived from `seed` (the root seed), so one
/// number reproduces both workload and faults.
pub fn run_case(
    prog: &Program,
    p: usize,
    epochs: usize,
    seed: u64,
    plan: FaultPlan,
) -> SoakOutcome {
    run_case_racecheck(prog, p, epochs, seed, plan, None)
}

/// [`run_case`] with the RMA race checker armed at `mode` (`None` defers
/// to the environment). The programs are synchronisation-correct by
/// construction, so any flag here is a checker false positive.
pub fn run_case_racecheck(
    prog: &Program,
    p: usize,
    epochs: usize,
    seed: u64,
    plan: FaultPlan,
    racecheck: Option<RacecheckMode>,
) -> SoakOutcome {
    assert!(p >= 2, "the programs need p >= 2");
    // Split ranks across two nodes so both the XPMEM and the DMAPP paths
    // see faults.
    let mut uni = Universe::new(p).node_size(p.div_ceil(2)).seed(seed).faults(plan);
    if let Some(mode) = racecheck {
        uni = uni.racecheck(mode);
    }
    let shape = Shape { epochs, seed };
    let violations = Mutex::new(Vec::new());
    let launched = std::panic::catch_unwind(AssertUnwindSafe(|| {
        uni.launch(|ctx| {
            if let Err(msg) = (prog.body)(ctx, &shape) {
                let (name, rank) = (prog.name, ctx.rank());
                violations.lock().expect("a rank panicked recording a violation").push(format!(
                    "[{name} seed={seed:#018x} rank={rank}] {msg} (replay: FOMPI_SEED={seed})"
                ));
                // A peer blocked in a collective on this rank fails (the
                // launch panics) instead of hanging.
                ctx.coll().abort(rank);
            }
            ctx.now().to_bits()
        })
    }));
    let mut violations = violations.into_inner().expect("a rank panicked recording a violation");
    match launched {
        Ok((clocks, fabric)) => SoakOutcome {
            injected: fabric.faults().total_injected(),
            clocks,
            violations,
            raceflags: fabric.shadow().total_flagged(),
        },
        Err(_) => {
            violations.push(format!("[{} seed={seed:#018x}] a rank panicked", prog.name));
            SoakOutcome { injected: 0, clocks: Vec::new(), violations, raceflags: 0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_stable_and_nonzero() {
        let a = seeds(7, 8);
        assert_eq!(a, seeds(7, 8));
        assert!(a.iter().all(|&s| s != 0));
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
    }
}
