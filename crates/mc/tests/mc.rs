//! End-to-end model-checking gates: every row of the protocol table with a
//! model-checked instance must pass exhaustively with zero violations,
//! every mutant must produce a replayable counterexample, and replay —
//! in-process and through the `FOMPI_MC_REPLAY` environment knob — must
//! reproduce the violation *and* the per-rank virtual clocks bit-for-bit.

use fompi_mc::{check, find, replay, Found, McConfig, Program, Shape, PROGRAMS, THREE_RANKS};

fn program(name: &str) -> Program {
    find(name).unwrap_or_else(|| panic!("unknown program {name}"))
}

/// Exhaustive default-bound run of every row, the three-rank ones too:
/// complete, violation-free, with a reference digest established.
#[test]
fn every_program_is_exhaustively_clean() {
    for prog in PROGRAMS.iter().chain(&THREE_RANKS).filter(|p| p.mc.is_some()) {
        let name = prog.name;
        let r = check(prog, &McConfig::default());
        assert!(r.complete, "{name}: exploration hit a bound (a wait is free-spinning?)");
        if let Some(cx) = r.counterexample {
            panic!("{name}: {} ({})", cx.violation, cx.schedule);
        }
        assert!(r.schedules >= 1, "{name}: no completed schedule");
        assert!(r.digest.is_some(), "{name}: no reference digest");
        assert_eq!(r.pruned, 0, "{name}: pruning without a preemption budget");
    }
}

/// `name`'s counterexample, replayed in-process: the same violation, the
/// same per-rank virtual clocks.
fn replayed_counterexample(name: &str) -> Found {
    let prog = program(name);
    let cx = check(&prog, &McConfig::default())
        .counterexample
        .unwrap_or_else(|| panic!("{name}: the mutant produced no counterexample"));
    let rep = replay(&prog, &cx.schedule);
    let rcx = rep.counterexample.unwrap_or_else(|| panic!("{name}: replay lost the violation"));
    assert_eq!(rcx.violation, cx.violation, "{name}");
    assert_eq!(rcx.schedule, cx.schedule, "{name}");
    assert_eq!(rep.clocks, cx.clocks, "{name}: replayed per-rank virtual clocks must match");
    cx.violation
}

#[test]
fn lane_credit_leak_deadlocks_with_replayable_counterexample() {
    match replayed_counterexample("lane_credit_leak") {
        Found::Deadlock { detail } => {
            assert!(detail.contains("wait-notify"), "deadlock detail names the waits: {detail}")
        }
        other => panic!("expected a deadlock, got {other}"),
    }
}

/// `name`'s counterexample must be a violation on rank 0 saying `what`.
fn assert_rank0_violation(name: &str, what: &str) {
    match replayed_counterexample(name) {
        Found::Panic { rank, msg } => {
            assert_eq!(rank, 0, "{name}");
            assert!(msg.contains(what), "{name}: {msg}");
        }
        other => panic!("{name}: expected a violation, got {other}"),
    }
}

#[test]
fn txn_lost_publish_panics_with_replayable_counterexample() {
    assert_rank0_violation("txn_lost_publish", "lost publish CAS");
}

#[test]
fn txn_skip_first_validate_panics_with_replayable_counterexample() {
    assert_rank0_violation("txn_skip_first_validate", "snapshot that never existed");
}

/// The versioned read relies on its list taking effect in order: with the
/// version re-fetch issued before the payload, a read passes the seqlock
/// check with a payload its version never held.
#[test]
fn txn_refetch_first_panics_with_replayable_counterexample() {
    assert_rank0_violation("txn_refetch_first", "passed the version check");
}

/// Only the rest-state check can see a skipped `unlock_all`: the master's
/// global lock word still counts one holder.
#[test]
fn unlock_all_skipped_is_caught_by_the_rest_state() {
    assert_rank0_violation("unlock_all_skipped", "metadata word GLOBAL_LOCK not quiescent");
}

#[test]
fn counterexamples_are_deterministic_across_explorations() {
    let prog = program("lane_credit_leak");
    let a = check(&prog, &McConfig::default()).counterexample.unwrap();
    let b = check(&prog, &McConfig::default()).counterexample.unwrap();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.violation, b.violation);
    assert_eq!(a.clocks, b.clocks);
}

#[test]
fn replay_env_knob_round_trips_out_of_process() {
    let cx = check(&program("lane_credit_leak"), &McConfig::default()).counterexample.unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mc_summary"))
        .args(["--model", "lane_credit_leak"])
        .env("FOMPI_MC_REPLAY", &cx.schedule)
        .output()
        .expect("spawning mc_summary");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let line = String::from_utf8(out.stdout).unwrap();
    let clocks = cx.clocks.iter().map(|c| format!("{c:016x}")).collect::<Vec<_>>().join(".");
    assert!(line.contains("violation=deadlock"), "{line}");
    assert!(line.contains(&format!("schedule={}", cx.schedule)), "{line}");
    assert!(line.contains(&format!("clocks={clocks}")), "{line}");
}

#[test]
fn replay_rejects_malformed_schedules() {
    let prog = program("msg_channel");
    let bad = std::panic::catch_unwind(|| replay(&prog, "0.1.0"));
    assert!(bad.is_err(), "missing mc1: prefix must fail loudly");
    let oob = std::panic::catch_unwind(|| replay(&prog, "mc1:0.7"));
    assert!(oob.is_err(), "out-of-range rank must fail loudly");
}

#[test]
fn preemption_budget_prunes_but_stays_sound() {
    let cfg = McConfig { max_preemptions: Some(0), ..McConfig::default() };
    let r = check(&program("mcs"), &cfg);
    assert!(r.counterexample.is_none(), "bounding must not invent violations");
    assert!(r.pruned > 0, "a zero-preemption budget must prune something");
    assert!(!r.complete, "a pruned exploration must not claim completeness");
    let exhaustive = check(&program("mcs"), &McConfig::default());
    assert!(r.schedules < exhaustive.schedules);
}

/// An intentionally racy kernel: both ranks put to the same bytes of
/// rank 0's window inside one passive epoch. The armed shadow must
/// abort the run, and the surfaced report must carry causal flow ids.
fn racy_put(ctx: &mut fompi_runtime::RankCtx, _: &Shape) -> Result<u64, String> {
    let win = fompi::Win::allocate(ctx, 8, 1).unwrap();
    win.lock_all().unwrap();
    win.put(&[ctx.rank() as u8 + 1; 8], 0, 0).unwrap();
    win.flush_all().unwrap();
    win.unlock_all().unwrap();
    win.free(ctx);
    Ok(0)
}

#[test]
fn racecheck_violations_surface_with_flow_ids() {
    let prog = Program { name: "racy_put", body: racy_put, mc: Some((2, 1)), stable: false };
    let cx = check(&prog, &McConfig::default())
        .counterexample
        .expect("overlapping puts must trip the armed racecheck");
    match &cx.violation {
        Found::Panic { msg, .. } => {
            assert!(msg.contains("racecheck"), "{msg}");
            assert!(msg.contains("flow"), "race report must carry flow ids: {msg}");
        }
        other => panic!("expected a racecheck panic, got {other}"),
    }
    // The violating schedule replays to the identical report.
    let rep = replay(&prog, &cx.schedule).counterexample.expect("replay reproduces the race");
    assert_eq!(rep.violation, cx.violation);
}
