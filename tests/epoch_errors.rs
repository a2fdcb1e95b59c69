//! Epoch state-machine misuse matrix: every illegal transition must return
//! a typed error (MPI would abort; we assert the detection) and leave the
//! window usable.

use fompi::{FompiError, LockType, Win, WinConfig};
use fompi_fabric::{CostModel, FaultKind, FaultPlan};
use fompi_runtime::{Group, Universe};

fn two_ranks<T: Send>(f: impl Fn(&fompi_runtime::RankCtx, &Win) -> T + Send + Sync) -> Vec<T> {
    Universe::new(2).node_size(1).model(CostModel::free()).run(move |ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        let out = f(ctx, &win);
        ctx.barrier();
        out
    })
}

#[test]
fn put_without_epoch_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        matches!(win.put(&[1u8; 4], other, 0), Err(FompiError::NoAccessEpoch { .. }))
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn pscw_put_outside_group_is_rejected() {
    let got = Universe::new(3).node_size(1).model(CostModel::free()).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        let mut bad = true;
        match ctx.rank() {
            0 => {
                win.start(&Group::new([1])).unwrap();
                // Rank 2 is not in the access group.
                bad = matches!(
                    win.put(&[1u8; 4], 2, 0),
                    Err(FompiError::NoAccessEpoch { target: 2 })
                );
                win.put(&[1u8; 4], 1, 0).unwrap(); // in-group is fine
                win.complete().unwrap();
            }
            1 => {
                win.post(&Group::new([0])).unwrap();
                win.wait().unwrap();
            }
            _ => {}
        }
        ctx.barrier();
        bad
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn complete_without_start_and_wait_without_post() {
    let got = two_ranks(|_ctx, win| {
        let a = matches!(win.complete(), Err(FompiError::InvalidEpoch(_)));
        let b = matches!(win.wait(), Err(FompiError::InvalidEpoch(_)));
        let c = matches!(win.test(), Err(FompiError::InvalidEpoch(_)));
        a && b && c
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn unlock_without_lock_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        matches!(win.unlock(other), Err(FompiError::InvalidEpoch(_)))
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn double_lock_same_target_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        win.lock(LockType::Shared, other).unwrap();
        let bad = matches!(win.lock(LockType::Shared, other), Err(FompiError::InvalidEpoch(_)));
        win.unlock(other).unwrap();
        bad
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn fence_during_lock_epoch_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        win.lock(LockType::Shared, other).unwrap();
        let bad = matches!(win.fence(), Err(FompiError::InvalidEpoch(_)));
        win.unlock(other).unwrap();
        bad
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn lock_all_during_lock_epoch_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        win.lock(LockType::Shared, other).unwrap();
        let bad = matches!(win.lock_all(), Err(FompiError::InvalidEpoch(_)));
        win.unlock(other).unwrap();
        bad
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn flush_outside_passive_epoch_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        let a = matches!(win.flush(other), Err(FompiError::InvalidEpoch(_)));
        let b = matches!(win.flush_all(), Err(FompiError::InvalidEpoch(_)));
        a && b
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn flush_wrong_target_is_rejected() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        win.lock(LockType::Shared, other).unwrap();
        // Own rank is not locked.
        let bad = matches!(win.flush(ctx.rank()), Err(FompiError::InvalidEpoch(_)));
        win.unlock(other).unwrap();
        bad
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn out_of_bounds_put_is_rejected_and_window_survives() {
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        win.lock(LockType::Shared, other).unwrap();
        let bad = matches!(win.put(&[0u8; 128], other, 0), Err(FompiError::OutOfBounds { .. }));
        // The window remains usable after the error.
        win.put(&[7u8; 8], other, 0).unwrap();
        win.flush(other).unwrap();
        win.unlock(other).unwrap();
        ctx.barrier();
        let mut b = [0u8; 8];
        win.read_local(0, &mut b);
        bad && b[0] == 7
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn attach_on_static_window_is_rejected() {
    let got = two_ranks(|_ctx, win| {
        let a = win.attach(64).is_err();
        let b = win.detach(0x1000_0000).is_err();
        a && b
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn shared_query_on_non_shared_window_is_rejected() {
    let got = two_ranks(|_ctx, win| win.shared_query(0).is_err());
    assert!(got.iter().all(|&b| b));
}

#[test]
fn double_post_without_wait_is_rejected() {
    let got = Universe::new(2).node_size(1).model(CostModel::free()).run(|ctx| {
        let win = Win::allocate(ctx, 8, 1).unwrap();
        let mut bad = true;
        if ctx.rank() == 1 {
            win.post(&Group::new([0])).unwrap();
            bad = matches!(win.post(&Group::new([0])), Err(FompiError::InvalidEpoch(_)));
            // Clean up the matching so rank 0 can finish.
        }
        if ctx.rank() == 0 {
            win.start(&Group::new([1])).unwrap();
            win.complete().unwrap();
        } else {
            win.wait().unwrap();
        }
        ctx.barrier();
        bad
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn pscw_fan_in_beyond_the_pool_is_pool_exhausted() {
    // 7 concurrent posters to rank 0 with 4 pool elements: nothing frees an
    // element before rank 0 starts, so exactly 3 posts exhaust their
    // retries and fail; the other 4 are matched and waited normally, and
    // every element is back on the free list at the end.
    let cfg = WinConfig { pscw_pool: 4, pool_retry_limit: 20_000, ..WinConfig::default() };
    let got = Universe::new(8).node_size(4).model(CostModel::free()).run(move |ctx| {
        let win = Win::allocate_cfg(ctx, 64, 1, cfg.clone()).unwrap();
        ctx.barrier();
        let mut posted = false;
        let mut exhausted = false;
        if ctx.rank() != 0 {
            match win.post(&Group::new([0])) {
                Ok(()) => posted = true,
                Err(FompiError::PoolExhausted { target: 0 }) => exhausted = true,
                Err(e) => panic!("rank {}: unexpected error {e}", ctx.rank()),
            }
        }
        // Every post has returned before rank 0 consumes an announcement.
        let flags = ctx.allgather(&[posted as u8]);
        if ctx.rank() == 0 {
            for peer in (1..8u32).filter(|&r| flags[r as usize][0] == 1) {
                win.start(&Group::new([peer])).unwrap();
                win.complete().unwrap();
            }
        } else if posted {
            win.wait().unwrap();
        }
        ctx.barrier();
        (exhausted, win.metadata_residue())
    });
    assert_eq!(got.iter().filter(|(exhausted, _)| *exhausted).count(), 3);
    for (rank, (_, residue)) in got.iter().enumerate() {
        assert!(residue.is_empty(), "rank {rank} metadata not at rest: {residue:?}");
    }
}

#[test]
fn mcs_unlock_without_lock_is_rejected() {
    let got = two_ranks(|_ctx, win| matches!(win.mcs_unlock(), Err(FompiError::InvalidEpoch(_))));
    assert!(got.iter().all(|&b| b));
}

#[test]
fn bad_accumulate_inputs_rejected() {
    use fompi::{MpiOp, NumKind};
    let got = two_ranks(|ctx, win| {
        let other = (ctx.rank() + 1) % 2;
        win.lock(LockType::Shared, other).unwrap();
        // 5 bytes is not a whole number of u64 elements.
        let a = matches!(
            win.accumulate(&[0u8; 5], NumKind::U64, MpiOp::Sum, other, 0),
            Err(FompiError::BadAccumulate(_))
        );
        // fetch_and_op with a result buffer of the wrong size.
        let mut small = [0u8; 4];
        let b = matches!(
            win.fetch_and_op(&1u64.to_le_bytes(), &mut small, NumKind::U64, MpiOp::Sum, other, 0),
            Err(FompiError::BadAccumulate(_))
        );
        // CAS on an unaligned displacement.
        let c = matches!(win.compare_and_swap(1, 0, other, 3), Err(FompiError::BadAccumulate(_)));
        // fetch_and_op with an origin shorter than the element: an error,
        // as from get_accumulate, not a panic.
        let mut one = [0u8; 8];
        let d = matches!(
            win.fetch_and_op(&[0u8; 4], &mut one, NumKind::U64, MpiOp::Sum, other, 0),
            Err(FompiError::BadAccumulate(_))
        );
        win.unlock(other).unwrap();
        a && b && c && d
    });
    assert!(got.iter().all(|&b| b));
}

/// Unlock with a delayed completion outstanding: the unlock path must
/// fold the injected completion delay into its flush *before* the release
/// AMO, so the next holder of the exclusive lock always observes the
/// previous holder's writes. A plan that delays every eligible completion
/// makes the ordering bug (release before drain) immediately visible as a
/// lost update.
#[test]
fn unlock_with_delayed_completion_still_publishes() {
    let plan = FaultPlan { delay_prob: 1.0, delay_ns: 50_000.0, ..FaultPlan::disabled() }
        .with_seed(0x0DE1_A7ED);
    let iters = 8u64;
    let (got, fabric) =
        Universe::new(2).node_size(1).model(CostModel::free()).faults(plan).launch(move |ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            for _ in 0..iters {
                win.lock(LockType::Exclusive, 0).unwrap();
                let mut cur = [0u8; 8];
                win.get(&mut cur, 0, 0).unwrap();
                win.flush(0).unwrap();
                let v = u64::from_le_bytes(cur) + 1;
                win.put(&v.to_le_bytes(), 0, 0).unwrap();
                // No explicit flush: the put's completion is what the
                // delay targets, and unlock alone must drain it.
                win.unlock(0).unwrap();
            }
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            u64::from_le_bytes(b)
        });
    assert_eq!(got[0], 2 * iters, "an update was lost across unlock");
    assert!(
        fabric.faults().injected(FaultKind::Delay) > 0,
        "the plan never fired; the test proved nothing"
    );
}

/// Detach on one rank racing retried attaches on the others: transient
/// `SegmentBusy` injection forces the attach path through its bounded
/// retry loop while neighbours concurrently grow and shrink the region
/// table. Every attach must eventually succeed and every put must land in
/// the right region.
#[test]
fn detach_races_retried_attach_under_busy_faults() {
    let plan =
        FaultPlan { busy_prob: 0.6, busy_ns: 1_000.0, ..FaultPlan::disabled() }.with_seed(0xB5_1D);
    let (got, fabric) =
        Universe::new(3).node_size(1).model(CostModel::free()).faults(plan).launch(|ctx| {
            let win = Win::create_dynamic(ctx).unwrap();
            let next = (ctx.rank() + 1) % 3;
            let mut ok = true;
            for round in 0..6u64 {
                // Attach retries internally on injected SegmentBusy.
                let addr = win.attach(64).unwrap();
                let all = ctx.allgather(&addr.to_le_bytes());
                let peer = u64::from_le_bytes(all[next as usize].as_slice().try_into().unwrap());
                win.lock(LockType::Exclusive, next).unwrap();
                win.put(&round.to_le_bytes(), next, peer as usize).unwrap();
                win.unlock(next).unwrap();
                ctx.barrier();
                let mut b = [0u8; 8];
                win.region_read(addr, 0, &mut b).unwrap();
                ok &= u64::from_le_bytes(b) == round;
                // Detach while the other ranks may still be mid-retry on
                // their next attach.
                win.detach(addr).unwrap();
                ctx.barrier();
            }
            ok
        });
    assert!(got.iter().all(|&b| b), "a put landed in the wrong region");
    assert!(
        fabric.faults().injected(FaultKind::Busy) > 0,
        "no SegmentBusy was injected; the retry loop was never exercised"
    );
}

/// Two traced runs with the same fault-plan seed must produce identical
/// telemetry streams, event for event — fault injection is part of the
/// deterministic schedule, not noise on top of it.
#[test]
fn fault_telemetry_is_bit_deterministic_per_seed() {
    type EventKey = (usize, u32, u32, u64, u64, u64, u64);
    fn traced_run() -> Vec<Vec<EventKey>> {
        let p = 4;
        let (_out, fabric) = Universe::new(p)
            .node_size(2)
            .model(CostModel::free())
            .faults(FaultPlan::heavy(0xFEED_FACE))
            .trace(4096)
            .launch(move |ctx| {
                let win = Win::allocate(ctx, 8 * p, 1).unwrap();
                let me = ctx.rank();
                for e in 0..4u64 {
                    win.fence().unwrap();
                    let v = (me as u64 + 1) * 100 + e;
                    win.put(&v.to_le_bytes(), (me + 1) % p as u32, me as usize * 8).unwrap();
                    win.fence().unwrap();
                }
                ctx.barrier();
            });
        // Per-rank streams: cross-rank interleaving is schedule-dependent,
        // but each origin's own event sequence must be reproducible.
        let mut per_rank = vec![Vec::new(); p];
        for ev in fabric.telemetry().events() {
            per_rank[ev.origin as usize].push((
                ev.kind.index(),
                ev.origin,
                ev.target,
                ev.win,
                ev.bytes,
                ev.t_start.to_bits(),
                ev.t_end.to_bits(),
            ));
        }
        for stream in &mut per_rank {
            stream.sort_unstable();
        }
        per_rank
    }
    let a = traced_run();
    let b = traced_run();
    assert!(a.iter().any(|s| !s.is_empty()), "tracing produced no events; nothing was compared");
    for (rank, (ea, eb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ea.len(), eb.len(), "rank {rank}: event counts diverged");
        assert_eq!(ea, eb, "rank {rank}: telemetry streams diverged between identical runs");
    }
}

#[test]
fn window_free_deregisters_segments() {
    Universe::new(2).node_size(1).model(CostModel::free()).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.fence().unwrap();
        win.put(&[1u8; 8], (ctx.rank() + 1) % 2, 0).unwrap();
        win.fence().unwrap();
        win.free(ctx);
        // A second window after freeing the first works fine.
        let win2 = Win::allocate(ctx, 64, 1).unwrap();
        win2.fence().unwrap();
        win2.fence().unwrap();
    });
}
