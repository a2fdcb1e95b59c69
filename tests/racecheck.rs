//! Acceptance tests for the RMA race checker (`fompi_fabric::shadow`).
//!
//! One deliberately-racy program per violation class, each asserting that
//! report mode names it; a panic-mode abort check; and the false-positive
//! gate: every program of the protocol table, several seeds, fully clean
//! under `FOMPI_RACECHECK=panic`.
//!
//! Detection is per-interleaving (like a thread sanitizer): the checker is
//! sound for the schedule it observed, so racy programs assert `>= 1`
//! flags, never exact counts.

use fompi::{LockType, MpiOp, NumKind, Win};
use fompi_fabric::{CostModel, FaultPlan, RaceClass, RacecheckMode};
use fompi_mc::soak::{run_case_racecheck, seeds};
use fompi_mc::PROGRAMS;
use fompi_runtime::Universe;

fn racy_universe(p: usize) -> Universe {
    Universe::new(p).node_size(1).model(CostModel::free()).racecheck(RacecheckMode::Report)
}

// ------------------------------------------------ one racy program per class

#[test]
fn put_put_overlap_within_fence_epoch_is_flagged() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        // Both ranks put the same 8 bytes of rank 0's window in one epoch.
        win.put(&[ctx.rank() as u8 + 1; 8], 0, 0).unwrap();
        win.fence().unwrap();
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::PutPut) >= 1, "{}", fabric.shadow().report());
}

#[test]
fn put_get_overlap_within_fence_epoch_is_flagged() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        if ctx.rank() == 0 {
            win.put(&[7u8; 8], 1, 0).unwrap();
        } else {
            // Reading the put's target before any separating fence/flush.
            let mut b = [0u8; 8];
            win.get(&mut b, 1, 0).unwrap();
        }
        win.fence().unwrap();
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::PutGet) >= 1, "{}", fabric.shadow().report());
}

#[test]
fn acc_vs_put_non_atomic_overlap_is_flagged() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        if ctx.rank() == 0 {
            win.accumulate(&1u64.to_le_bytes(), NumKind::U64, MpiOp::Sum, 0, 0).unwrap();
        } else {
            win.put(&[9u8; 8], 0, 0).unwrap();
        }
        win.fence().unwrap();
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::AccMixed) >= 1, "{}", fabric.shadow().report());
}

#[test]
fn mixed_op_accumulate_overlap_is_flagged_same_op_is_not() {
    // Same op (both Sum): permitted by the MPI accumulate rules.
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        win.accumulate(&1u64.to_le_bytes(), NumKind::U64, MpiOp::Sum, 0, 0).unwrap();
        win.fence().unwrap();
        win.free(ctx);
    });
    assert_eq!(fabric.shadow().total_flagged(), 0, "{}", fabric.shadow().report());

    // Mixed ops (Sum vs Min): non-atomic with respect to each other.
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        let op = if ctx.rank() == 0 { MpiOp::Sum } else { MpiOp::Min };
        win.accumulate(&1u64.to_le_bytes(), NumKind::U64, op, 0, 0).unwrap();
        win.fence().unwrap();
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::AccOps) >= 1, "{}", fabric.shadow().report());
}

#[test]
fn local_store_vs_remote_put_is_flagged() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        if ctx.rank() == 0 {
            win.put(&[3u8; 8], 1, 0).unwrap();
        } else {
            // Local store to the exposed bytes in the same epoch (the
            // separate-model conflict).
            win.write_local(0, &[4u8; 8]);
        }
        win.fence().unwrap();
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::LocalRace) >= 1, "{}", fabric.shadow().report());
}

#[test]
fn conflicting_writes_under_shared_locks_are_flagged_as_lock_mode() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.lock(LockType::Shared, 0).unwrap();
        // Hold both shared sessions open simultaneously, then write the
        // same bytes — exclusive locks were required.
        ctx.barrier();
        win.put(&[ctx.rank() as u8 + 1; 8], 0, 0).unwrap();
        win.unlock(0).unwrap();
        ctx.barrier();
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::LockMode) >= 1, "{}", fabric.shadow().report());
}

#[test]
fn free_with_open_epoch_is_flagged_use_after_free() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.lock_all().unwrap();
        // Freeing with the passive epoch still open: unsynchronized.
        win.free(ctx);
    });
    assert!(fabric.shadow().flagged(RaceClass::UseAfterFree) >= 1, "{}", fabric.shadow().report());
}

// ----------------------------------------------------------- report content

#[test]
fn report_names_both_conflicting_accesses() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        win.put(&[ctx.rank() as u8 + 1; 4], 0, 4).unwrap();
        win.fence().unwrap();
        win.free(ctx);
    });
    let viols = fabric.shadow().violations();
    assert!(!viols.is_empty());
    let msg = viols[0].to_string();
    // Window id, byte range, both origins, and both access kinds.
    assert!(msg.contains("racecheck[put_put] win"), "{msg}");
    assert!(msg.contains("bytes [4, 8)"), "{msg}");
    assert!(msg.contains("put by rank 0"), "{msg}");
    assert!(msg.contains("put by rank 1"), "{msg}");
    assert!(msg.contains("epoch"), "{msg}");
    // The summary block names the class and the total.
    let report = fabric.shadow().report();
    assert!(report.contains("put_put"), "{report}");
    assert!(report.contains("racecheck"), "{report}");
}

#[test]
fn race_reports_reach_telemetry() {
    let (_out, fabric) = racy_universe(2).trace(64).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        win.put(&[1u8; 8], 0, 0).unwrap();
        win.fence().unwrap();
        win.free(ctx);
    });
    use fompi_fabric::telemetry::EventKind;
    assert!(fabric.telemetry().stats(EventKind::RaceReport).count() >= 1);
}

// --------------------------------------------- legal idioms must stay clean

/// The canonical `init → barrier → epoch` idiom (hashtable, milc):
/// pre-collective local stores are ordered before post-collective remote
/// epochs by the process synchronisation itself.
#[test]
fn local_init_then_barrier_then_epoch_is_clean() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.write_local(0, &[1u8; 16]);
        ctx.barrier();
        win.lock_all().unwrap();
        let peer = (ctx.rank() + 1) % 2;
        let mut old = [0u8; 8];
        win.fetch_and_op(&1u64.to_le_bytes(), &mut old, NumKind::U64, MpiOp::Sum, peer, 0).unwrap();
        win.flush_all().unwrap();
        win.unlock_all().unwrap();
        ctx.barrier();
        let mut b = [0u8; 8];
        win.read_local(0, &mut b);
        win.free(ctx);
    });
    assert_eq!(fabric.shadow().total_flagged(), 0, "{}", fabric.shadow().report());
}

/// The paper's flag-notification idiom (the milc RMA backend): producer
/// puts, flushes, then FAAs the consumer's flag; the consumer polls its
/// own flag with an atomic NoOp read — the unified-model `win_sync`
/// equivalent — and only then reads the data locally.
#[test]
fn flag_polling_handoff_is_clean() {
    let (_out, fabric) = racy_universe(2).launch(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.lock_all().unwrap();
        if ctx.rank() == 0 {
            win.put(&[7u8; 8], 1, 8).unwrap();
            win.flush_all().unwrap();
            let mut old = [0u8; 8];
            win.fetch_and_op(&1u64.to_le_bytes(), &mut old, NumKind::U64, MpiOp::Sum, 1, 0)
                .unwrap();
        } else {
            loop {
                let mut cur = [0u8; 8];
                win.fetch_and_op(&[], &mut cur, NumKind::U64, MpiOp::NoOp, 1, 0).unwrap();
                if u64::from_le_bytes(cur) >= 1 {
                    break;
                }
                std::thread::yield_now();
            }
            let mut b = [0u8; 8];
            win.read_local(8, &mut b);
            assert_eq!(b, [7u8; 8]);
        }
        win.unlock_all().unwrap();
        ctx.barrier();
        win.free(ctx);
    });
    assert_eq!(fabric.shadow().total_flagged(), 0, "{}", fabric.shadow().report());
}

// -------------------------------------------------------------- panic mode

#[test]
#[should_panic(expected = "rank thread panicked")]
fn panic_mode_aborts_on_first_violation() {
    let _ = Universe::new(2)
        .node_size(1)
        .model(CostModel::free())
        .racecheck(RacecheckMode::Panic)
        .launch(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.fence().unwrap();
            win.put(&[ctx.rank() as u8 + 1; 8], 0, 0).unwrap();
            // No trailing synchronisation: the non-panicking rank must not
            // block on a collective its peer will never reach.
        });
}

// ----------------------------------------------------- false-positive gate

/// Every program of the protocol table is synchronisation-correct by
/// construction: under `RacecheckMode::Panic` any flag is a checker false
/// positive (the rank thread would abort and fail the launch).
#[test]
fn all_soak_protocols_are_clean_under_panic_mode() {
    for prog in &PROGRAMS {
        for (i, &seed) in seeds(0xACE_5EED, 3).iter().enumerate() {
            let plan = if i % 2 == 0 { FaultPlan::disabled() } else { FaultPlan::light(0) };
            let out = run_case_racecheck(prog, 4, 3, seed, plan, Some(RacecheckMode::Panic));
            assert!(out.passed(), "{} seed {seed:#x}: {:?}", prog.name, out.violations);
            assert_eq!(out.raceflags, 0, "{} seed {seed:#x}: checker false positive", prog.name);
        }
    }
}
