//! End-to-end model-checking gates: the seven protocol kernels must pass
//! exhaustively with zero violations, the three mutants must produce
//! replayable counterexamples, and replay — in-process and through the
//! `FOMPI_MC_REPLAY` environment knob — must reproduce the violation
//! *and* the per-rank virtual clocks bit-for-bit.

use fompi_mc::{check, find_model, replay, Found, McConfig, Model};

fn model(name: &str) -> Model {
    find_model(name).unwrap_or_else(|| panic!("unknown model {name}"))
}

/// Exhaustive default-bound run: complete, violation-free, with a
/// reference digest established.
fn assert_clean(name: &str) {
    let r = check(&model(name), &McConfig::default());
    assert!(r.complete, "{name}: exploration hit a bound");
    assert!(
        r.counterexample.is_none(),
        "{name}: {}",
        r.counterexample.map(|c| format!("{} ({})", c.violation, c.schedule)).unwrap()
    );
    assert!(r.schedules >= 1, "{name}: no completed schedule");
    assert!(r.digest.is_some(), "{name}: no reference digest");
    assert_eq!(r.pruned, 0, "{name}: pruning without a preemption budget");
}

#[test]
fn msg_channel_is_exhaustively_clean() {
    assert_clean("msg-channel");
}

#[test]
fn rmc_fanin_is_exhaustively_clean() {
    assert_clean("rmc-fanin");
}

#[test]
fn rmc_fanout_is_exhaustively_clean() {
    assert_clean("rmc-fanout");
}

#[test]
fn rmc_mesh_is_exhaustively_clean() {
    assert_clean("rmc-mesh");
}

#[test]
fn rpc_timeout_is_exhaustively_clean() {
    assert_clean("rpc-timeout");
}

#[test]
fn txn_commit_is_exhaustively_clean() {
    assert_clean("txn-commit");
}

#[test]
fn txn_readonly_is_exhaustively_clean() {
    assert_clean("txn-readonly");
}

/// A two-rank MCS hand-off: each rank takes the window-wide queue lock,
/// increments a counter on rank 0 with a get and a put, and passes the lock
/// on. Both waits of the protocol are single words in the waiter's own
/// memory (the predecessor's release flag, the successor's link), so under
/// the gate they park in `Win::wait_word` until the word changes — a free
/// spin would be an always-enabled step and the exploration would never end.
fn mcs_handoff(ctx: &mut fompi_runtime::RankCtx) -> u64 {
    let win = fompi::Win::allocate(ctx, 8, 1).unwrap();
    win.mcs_lock().unwrap();
    let mut word = [0u8; 8];
    win.get(&mut word, 0, 0).unwrap();
    win.flush(0).unwrap();
    win.put(&(u64::from_le_bytes(word) + 1).to_le_bytes(), 0, 0).unwrap();
    win.mcs_unlock().unwrap();
    ctx.barrier();
    win.read_local(0, &mut word);
    win.free(ctx);
    u64::from_le_bytes(word)
}

/// Not a `mc_summary.csv` row: the MCS lock is the paper's own protocol
/// family (ROADMAP 4 b adds those as models); this pins that its waits are
/// gate-mediated now that every single-word wait goes through one site.
#[test]
fn mcs_handoff_is_exhaustively_mutually_exclusive() {
    let m = Model { name: "mcs-handoff", p: 2, prog: mcs_handoff };
    let r = check(&m, &McConfig::default());
    assert!(r.complete, "exploration hit a bound: a wait is free-spinning");
    assert!(r.counterexample.is_none(), "{}", r.counterexample.unwrap().violation);
    // Rank 0 holds the counter: both increments landed on every schedule.
    assert_eq!(r.digest, Some(vec![2, 0]));
    println!(
        "mcs-handoff: {} schedules, {} aborted, {} steps",
        r.schedules, r.aborted, r.steps_total
    );
}

#[test]
fn mesh_credit_leak_deadlocks_with_replayable_counterexample() {
    let m = model("mesh-credit-leak");
    let cx = check(&m, &McConfig::default())
        .counterexample
        .expect("broken credit return must produce a counterexample");
    assert!(matches!(cx.violation, Found::Deadlock { .. }), "got {}", cx.violation);
    if let Found::Deadlock { detail } = &cx.violation {
        assert!(detail.contains("wait-notify"), "deadlock detail names the waits: {detail}");
    }
    let rep = replay(&m, &cx.schedule);
    let rcx = rep.counterexample.expect("replay must reproduce the deadlock");
    assert_eq!(rcx.violation, cx.violation);
    assert_eq!(rcx.schedule, cx.schedule);
    assert_eq!(rep.clocks, cx.clocks, "replayed per-rank virtual clocks must match exactly");
}

#[test]
fn txn_lost_publish_panics_with_replayable_counterexample() {
    let m = model("txn-lost-publish");
    let cx = check(&m, &McConfig::default())
        .counterexample
        .expect("dropped publish CAS must produce a counterexample");
    match &cx.violation {
        Found::Panic { rank, msg } => {
            assert_eq!(*rank, 0);
            assert!(msg.contains("lost publish CAS"), "{msg}");
        }
        other => panic!("expected a panic violation, got {other}"),
    }
    let rep = replay(&m, &cx.schedule);
    let rcx = rep.counterexample.expect("replay must reproduce the panic");
    assert_eq!(rcx.violation, cx.violation);
    assert_eq!(rep.clocks, cx.clocks, "replayed per-rank virtual clocks must match exactly");
}

#[test]
fn txn_skip_first_validate_panics_with_replayable_counterexample() {
    let m = model("txn-skip-first-validate");
    let cx = check(&m, &McConfig::default())
        .counterexample
        .expect("an unvalidated read-only commit must produce a counterexample");
    match &cx.violation {
        Found::Panic { rank, msg } => {
            assert_eq!(*rank, 0);
            assert!(msg.contains("snapshot that never existed"), "{msg}");
        }
        other => panic!("expected a panic violation, got {other}"),
    }
    let rep = replay(&m, &cx.schedule);
    let rcx = rep.counterexample.expect("replay must reproduce the panic");
    assert_eq!(rcx.violation, cx.violation);
    assert_eq!(rep.clocks, cx.clocks, "replayed per-rank virtual clocks must match exactly");
}

#[test]
fn counterexamples_are_deterministic_across_explorations() {
    let m = model("mesh-credit-leak");
    let a = check(&m, &McConfig::default()).counterexample.unwrap();
    let b = check(&m, &McConfig::default()).counterexample.unwrap();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.violation, b.violation);
    assert_eq!(a.clocks, b.clocks);
}

#[test]
fn replay_env_knob_round_trips_out_of_process() {
    let m = model("mesh-credit-leak");
    let cx = check(&m, &McConfig::default()).counterexample.unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mc_summary"))
        .args(["--model", "mesh-credit-leak"])
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
    let m = model("rmc-mesh");
    let bad = std::panic::catch_unwind(|| replay(&m, "0.1.0"));
    assert!(bad.is_err(), "missing mc1: prefix must fail loudly");
    let oob = std::panic::catch_unwind(|| replay(&m, "mc1:0.7"));
    assert!(oob.is_err(), "out-of-range rank must fail loudly");
}

#[test]
fn preemption_budget_prunes_but_stays_sound() {
    let cfg = McConfig { max_preemptions: Some(0), ..McConfig::default() };
    let r = check(&model("rmc-mesh"), &cfg);
    assert!(r.counterexample.is_none(), "bounding must not invent violations");
    assert!(r.pruned > 0, "a zero-preemption budget must prune something");
    assert!(!r.complete, "a pruned exploration must not claim completeness");
    let exhaustive = check(&model("rmc-mesh"), &McConfig::default());
    assert!(r.schedules < exhaustive.schedules);
}

/// An intentionally racy kernel: both ranks put to the same bytes of
/// rank 0's window inside one passive epoch. The armed shadow must
/// abort the run, and the surfaced report must carry causal flow ids.
fn racy_put(ctx: &mut fompi_runtime::RankCtx) -> u64 {
    let win = fompi::Win::allocate(ctx, 8, 1).unwrap();
    win.lock_all().unwrap();
    win.put(&[ctx.rank() as u8 + 1; 8], 0, 0).unwrap();
    win.flush_all().unwrap();
    win.unlock_all().unwrap();
    win.free(ctx);
    0
}

#[test]
fn racecheck_violations_surface_with_flow_ids() {
    let m = Model { name: "racy-put", p: 2, prog: racy_put };
    let cx = check(&m, &McConfig::default())
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
    let rep = replay(&m, &cx.schedule).counterexample.expect("replay reproduces the race");
    assert_eq!(rep.violation, cx.violation);
}
