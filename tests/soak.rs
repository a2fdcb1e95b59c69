//! Protocol soak campaign: every row of the protocol table, many seeds,
//! deterministic fault plans — zero invariant violations allowed.
//!
//! The whole campaign derives from one root seed (`FOMPI_SEED`, default
//! below), and every violation message names the seed that reproduces it,
//! so a red run here is replayable with a single environment variable.

use fompi_fabric::rng::root_seed_from_env;
use fompi_fabric::FaultPlan;
use fompi_mc::soak::{run_case, seeds};
use fompi_mc::{find, PROGRAMS};

const ROOT: u64 = 0x50A4_B17E_5EED;

fn root() -> u64 {
    root_seed_from_env(ROOT)
}

/// The acceptance campaign: 32 seeds x every program at p = 4 under
/// alternating light/heavy fault plans, zero violations.
#[test]
fn thirty_two_seeds_zero_violations() {
    let campaign = seeds(root(), 32);
    for prog in &PROGRAMS {
        for (i, &seed) in campaign.iter().enumerate() {
            let plan = if i % 2 == 0 { FaultPlan::light(0) } else { FaultPlan::heavy(0) };
            let out = run_case(prog, 4, 4, seed, plan);
            assert!(
                out.passed(),
                "{} seed {seed:#x} (campaign root {:#x}): {:?}",
                prog.name,
                root(),
                out.violations
            );
        }
    }
}

/// Faults must actually fire during the campaign — a soak that injects
/// nothing proves nothing.
#[test]
fn heavy_plans_inject_faults_in_every_protocol() {
    for prog in &PROGRAMS {
        let out = run_case(prog, 4, 4, seeds(root(), 1)[0], FaultPlan::heavy(0));
        assert!(out.passed(), "{}: {:?}", prog.name, out.violations);
        assert!(out.injected > 0, "{}: heavy plan injected no faults", prog.name);
    }
}

/// Same (program, p, seed, plan) twice => bit-identical per-rank virtual
/// clocks and fault counts, for every row declared stable. (A contended
/// row's clocks legitimately vary with who wins a lock or which message
/// lands first — correctness there is its invariants, checked above.)
#[test]
fn soak_runs_are_bit_deterministic_per_seed() {
    for prog in PROGRAMS.iter().filter(|p| p.stable) {
        for &seed in &seeds(root().wrapping_add(1), 4) {
            let a = run_case(prog, 5, 4, seed, FaultPlan::heavy(0));
            let b = run_case(prog, 5, 4, seed, FaultPlan::heavy(0));
            assert!(
                a.passed() && b.passed(),
                "{}: {:?} {:?}",
                prog.name,
                a.violations,
                b.violations
            );
            assert_eq!(
                a.clocks, b.clocks,
                "{} seed {seed:#x}: virtual clocks diverged between identical runs",
                prog.name
            );
            assert_eq!(
                a.injected, b.injected,
                "{} seed {seed:#x}: fault counts diverged",
                prog.name
            );
        }
    }
}

/// Different seeds must explore different schedules: across the campaign
/// the final clocks should not all collapse to one value.
#[test]
fn distinct_seeds_explore_distinct_schedules() {
    let fence = find("fence").unwrap();
    let mut clocks = Vec::new();
    for &seed in &seeds(root().wrapping_add(2), 6) {
        clocks.push(run_case(&fence, 4, 4, seed, FaultPlan::heavy(0)).clocks);
    }
    clocks.sort_unstable();
    clocks.dedup();
    assert!(clocks.len() > 1, "every seed produced the identical schedule");
}

/// A larger ring with a mid-size plan: the invariants hold as p grows.
#[test]
fn wider_ring_smoke() {
    for prog in &PROGRAMS {
        let out = run_case(prog, 8, 3, seeds(root().wrapping_add(3), 1)[0], FaultPlan::light(0));
        assert!(out.passed(), "{}: {:?}", prog.name, out.violations);
    }
}

/// The soak sees what only the metadata rest state shows: a rank that
/// skips its last `unlock_all` is flagged on every seed, at the master,
/// naming the word and the seed that replays it.
#[test]
fn a_skipped_unlock_all_is_flagged_on_every_seed() {
    let mutant = find("unlock_all_skipped").unwrap();
    for &seed in &seeds(root().wrapping_add(4), 4) {
        let out = run_case(&mutant, 4, 4, seed, FaultPlan::light(0));
        assert_eq!(out.violations.len(), 1, "seed {seed:#x}: {:?}", out.violations);
        let v = &out.violations[0];
        assert!(v.contains("rank=0] metadata word GLOBAL_LOCK"), "{v}");
        assert!(v.contains(&format!("FOMPI_SEED={seed}")), "{v}");
    }
}
