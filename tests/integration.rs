//! Cross-crate integration tests: foMPI protocols exercised together with
//! the baselines, at higher rank counts and under adversarial interleaving
//! than the per-crate unit tests.

use fompi::{DataType, LockType, MpiOp, NumKind, Win, WinConfig};
use fompi_fabric::CostModel;
use fompi_msg::{Comm, MsgEngine};
use fompi_repro::fompi; // umbrella re-export sanity
use fompi_runtime::{Group, Universe};

/// A free cost model keeps the stress tests fast.
fn free() -> CostModel {
    CostModel::free()
}

#[test]
fn ring_pipeline_all_sync_modes() {
    // One window, three consecutive epochs of different modes.
    let p = 8;
    let got = Universe::new(p).node_size(4).run(|ctx| {
        let win = Win::allocate(ctx, 256, 1).unwrap();
        let me = ctx.rank();
        let pn = p as u32;
        // Epoch 1: fence.
        win.fence().unwrap();
        win.put(&[me as u8 + 1; 8], (me + 1) % pn, 0).unwrap();
        win.fence_assert(fompi::ASSERT_NOSUCCEED).unwrap();
        // Epoch 2: PSCW with the same neighbours.
        let g = Group::new([(me + pn - 1) % pn, (me + 1) % pn]);
        win.post(&g).unwrap();
        win.start(&g).unwrap();
        win.put(&[me as u8 + 31; 8], (me + 1) % pn, 8).unwrap();
        win.complete().unwrap();
        win.wait().unwrap();
        // Epoch 3: passive target.
        win.lock(LockType::Shared, (me + 1) % pn).unwrap();
        win.put(&[me as u8 + 61; 8], (me + 1) % pn, 16).unwrap();
        win.unlock((me + 1) % pn).unwrap();
        ctx.barrier();
        let mut out = [0u8; 24];
        win.read_local(0, &mut out);
        (out[0], out[8], out[16])
    });
    for (r, &(a, b, c)) in got.iter().enumerate() {
        let left = ((r + p - 1) % p) as u8;
        assert_eq!(a, left + 1, "fence epoch, rank {r}");
        assert_eq!(b, left + 31, "pscw epoch, rank {r}");
        assert_eq!(c, left + 61, "lock epoch, rank {r}");
    }
}

#[test]
fn pscw_many_epochs_reuse_pool() {
    // Repeated epochs must recycle matching-pool elements (free-storage
    // management, Figure 2c), and the last round's payload must land.
    let p = 6;
    let rounds = 50u8;
    let cfg = WinConfig { pscw_pool: 8, ..WinConfig::default() };
    let last = Universe::new(p).node_size(3).model(free()).run(move |ctx| {
        let win = Win::allocate_cfg(ctx, 64, 1, cfg.clone()).unwrap();
        let me = ctx.rank();
        let pn = p as u32;
        let g = Group::new([(me + pn - 1) % pn, (me + 1) % pn]);
        for i in 1..=rounds {
            win.post(&g).unwrap();
            win.start(&g).unwrap();
            win.put(&[i; 4], (me + 1) % pn, 0).unwrap();
            win.complete().unwrap();
            win.wait().unwrap();
        }
        let mut b = [0u8; 4];
        win.read_local(0, &mut b);
        b
    });
    assert!(last.iter().all(|&b| b == [rounds; 4]), "last round's payload: {last:?}");
}

#[test]
fn pscw_disjoint_groups_match_correctly() {
    // Figure 2a's scenario: process 0 runs two different epochs against
    // {1,2} and {3}; the posts must match the right starts.
    let got = Universe::new(4).node_size(2).model(free()).run(|ctx| {
        let win = Win::allocate(ctx, 64, 1).unwrap();
        match ctx.rank() {
            0 => {
                win.start(&Group::new([1, 2])).unwrap();
                win.put(&[10u8; 4], 1, 0).unwrap();
                win.put(&[20u8; 4], 2, 0).unwrap();
                win.complete().unwrap();
                win.start(&Group::new([3])).unwrap();
                win.put(&[30u8; 4], 3, 0).unwrap();
                win.complete().unwrap();
            }
            1..=3 => {
                win.post(&Group::new([0])).unwrap();
                win.wait().unwrap();
            }
            _ => unreachable!(),
        }
        ctx.barrier();
        let mut b = [0u8; 4];
        win.read_local(0, &mut b);
        b[0]
    });
    assert_eq!(&got[1..], &[10, 20, 30]);
}

#[test]
fn exclusive_lock_mutual_exclusion_stress() {
    // N ranks hammer a counter under exclusive locks; the lock-protected
    // read-modify-write must never lose an update.
    let p = 8;
    let iters = 30;
    let got = Universe::new(p).node_size(4).model(free()).run(move |ctx| {
        let win = Win::allocate(ctx, 16, 1).unwrap();
        for _ in 0..iters {
            win.lock(LockType::Exclusive, 0).unwrap();
            let mut cur = [0u8; 8];
            win.get(&mut cur, 0, 0).unwrap();
            win.flush(0).unwrap();
            let v = u64::from_le_bytes(cur) + 1;
            win.put(&v.to_le_bytes(), 0, 0).unwrap();
            win.unlock(0).unwrap();
        }
        ctx.barrier();
        let mut b = [0u8; 8];
        win.read_local(0, &mut b);
        u64::from_le_bytes(b)
    });
    assert_eq!(got[0], (p * iters) as u64);
}

#[test]
fn lock_all_excludes_exclusive() {
    // Shared lock_all holders and exclusive lockers must serialise: the
    // exclusive section writes a marker pattern that lock_all readers see
    // either fully or not at all.
    let p = 6;
    let got = Universe::new(p).node_size(3).model(free()).run(|ctx| {
        let win = Win::allocate(ctx, 32, 1).unwrap();
        let mut torn = false;
        for i in 0..20u64 {
            if ctx.rank() % 2 == 0 {
                win.lock(LockType::Exclusive, 0).unwrap();
                win.put(&i.to_le_bytes(), 0, 0).unwrap();
                win.flush(0).unwrap();
                win.put(&i.to_le_bytes(), 0, 8).unwrap();
                win.unlock(0).unwrap();
            } else {
                win.lock_all().unwrap();
                let mut a = [0u8; 8];
                let mut b = [0u8; 8];
                win.get(&mut a, 0, 0).unwrap();
                win.flush(0).unwrap();
                win.get(&mut b, 0, 8).unwrap();
                win.flush_all().unwrap();
                win.unlock_all().unwrap();
                // Under proper exclusion both cells always agree.
                if a != b {
                    torn = true;
                }
            }
        }
        ctx.barrier();
        torn
    });
    assert!(got.iter().all(|&t| !t), "lock_all observed a torn exclusive write");
}

#[test]
fn datatyped_transpose_roundtrip() {
    // Put a row-strided matrix view into a remote contiguous buffer and get
    // it back through the inverse types.
    let got = Universe::new(2).node_size(1).model(free()).run(|ctx| {
        let n = 8usize;
        let win = Win::allocate(ctx, n * n, 1).unwrap();
        win.fence().unwrap();
        let mut ok = true;
        if ctx.rank() == 0 {
            // 8x8 byte matrix; send column 3 (stride 8).
            let mat: Vec<u8> = (0..(n * n) as u8).collect();
            let col = DataType::vector(n, 1, n, DataType::byte());
            let dense = DataType::contiguous(n, DataType::byte());
            win.put_typed(&mat[3..], 1, &col, 1, 0, 1, &dense).unwrap();
            win.fence().unwrap();
            let mut back = vec![0u8; n];
            win.get_typed(&mut back, 1, &dense, 1, 0, 1, &dense).unwrap();
            win.fence().unwrap();
            for (i, &v) in back.iter().enumerate() {
                ok &= v == (i * n + 3) as u8;
            }
        } else {
            win.fence().unwrap();
            win.fence().unwrap();
        }
        ctx.barrier();
        ok
    });
    assert!(got.iter().all(|&b| b));
}

#[test]
fn msg_and_rma_interoperate() {
    // A window epoch and message passing interleaved on the same ranks —
    // the paper's "step-wise transformation" of MPI applications.
    let p = 4;
    let engine = MsgEngine::new(p);
    let got = Universe::new(p).node_size(2).model(free()).run(move |ctx| {
        let comm = Comm::attach(ctx, &engine);
        let win = Win::allocate(ctx, 64, 1).unwrap();
        win.lock_all().unwrap();
        // RMA phase: everyone increments rank 0's counter.
        let mut old = [0u8; 8];
        win.fetch_and_op(&1u64.to_le_bytes(), &mut old, NumKind::U64, MpiOp::Sum, 0, 0).unwrap();
        win.flush(0).unwrap();
        win.unlock_all().unwrap();
        ctx.barrier();
        // Message phase: rank 0 broadcasts the final value via sends.
        let mut val = [0u8; 8];
        if ctx.rank() == 0 {
            win.read_local(0, &mut val);
            for r in 1..p as u32 {
                comm.send(&val, r, 5).unwrap();
            }
        } else {
            comm.recv(&mut val, 0, 5).unwrap();
        }
        u64::from_le_bytes(val)
    });
    assert!(got.iter().all(|&v| v == p as u64));
}

#[test]
fn dynamic_window_many_regions_and_cache_invalidation() {
    let got = Universe::new(3).node_size(1).model(free()).run(|ctx| {
        let win = Win::create_dynamic(ctx).unwrap();
        // Every rank attaches 4 regions and publishes addresses.
        let addrs: Vec<u64> = (0..4).map(|_| win.attach(128).unwrap()).collect();
        let mine: Vec<u8> = addrs.iter().flat_map(|a| a.to_le_bytes()).collect();
        let all = ctx.allgather(&mine);
        // Write into every region of the right neighbour.
        let next = (ctx.rank() + 1) % 3;
        win.lock_all().unwrap();
        for (i, chunk) in all[next as usize].chunks_exact(8).enumerate() {
            let addr = u64::from_le_bytes(chunk.try_into().unwrap());
            win.put(&[i as u8 + 1; 16], next, addr as usize).unwrap();
        }
        win.flush_all().unwrap();
        win.unlock_all().unwrap();
        ctx.barrier();
        // Detach region 2, bump the table; neighbour must see the change.
        win.detach(addrs[2]).unwrap();
        ctx.barrier();
        let prev_addrs = &all[next as usize];
        let gone = u64::from_le_bytes(prev_addrs[16..24].try_into().unwrap());
        win.lock(LockType::Shared, next).unwrap();
        let err = win.put(&[9u8; 4], next, gone as usize).is_err();
        win.unlock(next).unwrap();
        // Check our own regions got the data.
        let mut vals = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            if i == 2 {
                continue; // detached
            }
            let mut b = [0u8; 16];
            win.region_read(a, 0, &mut b).unwrap();
            vals.push((i, b[0]));
        }
        (err, vals)
    });
    for (r, (err, vals)) in got.iter().enumerate() {
        assert!(err, "rank {r}: put to detached region must fail");
        for &(i, v) in vals {
            assert_eq!(v, i as u8 + 1, "rank {r} region {i}");
        }
    }
}

#[test]
fn window_kinds_coexist() {
    let got = Universe::new(4).node_size(4).model(free()).run(|ctx| {
        let a = Win::allocate(ctx, 64, 1).unwrap();
        let c = Win::create(ctx, 64, 1).unwrap();
        let d = Win::create_dynamic(ctx).unwrap();
        let s = Win::allocate_shared(ctx, 64, 1).unwrap();
        // Distinct windows carry independent epochs.
        a.fence().unwrap();
        c.lock_all().unwrap();
        let next = (ctx.rank() + 1) % 4;
        a.put(&[1u8; 4], next, 0).unwrap();
        c.put(&[2u8; 4], next, 0).unwrap();
        c.flush_all().unwrap();
        a.fence().unwrap();
        c.unlock_all().unwrap();
        ctx.barrier();
        let mut x = [0u8; 4];
        let mut y = [0u8; 4];
        a.read_local(0, &mut x);
        c.read_local(0, &mut y);
        let _ = (d.kind(), s.kind());
        (x[0], y[0])
    });
    assert!(got.iter().all(|&(x, y)| x == 1 && y == 2));
}

#[test]
fn pscw_message_complexity_independent_of_p() {
    // The paper's O(k) claim: one PSCW cycle with k = 2 neighbours issues
    // the same number of fabric operations regardless of job size.
    let total = |p: usize| {
        let (_res, fabric) = Universe::new(p).node_size(1).model(free()).launch(move |ctx| {
            let win = Win::allocate(ctx, 8, 1).unwrap();
            let me = ctx.rank();
            let pn = p as u32;
            let g = Group::new([(me + pn - 1) % pn, (me + 1) % pn]);
            ctx.barrier();
            win.post(&g).unwrap();
            win.start(&g).unwrap();
            win.complete().unwrap();
            win.wait().unwrap();
        });
        fabric.counters().snapshot().total_ops() as f64
    };
    let per_rank_4 = total(4) / 4.0;
    let per_rank_16 = total(16) / 16.0;
    // Per-rank operation counts must be essentially constant (allow small
    // jitter from CAS retries under contention).
    assert!(
        per_rank_16 < per_rank_4 * 1.5,
        "PSCW ops grew with p: {per_rank_4}/rank @4 vs {per_rank_16}/rank @16"
    );
}

#[test]
fn pscw_start_wait_issue_zero_remote_ops() {
    // §2.3: post/complete are O(k) messages; start/wait must be purely
    // local. With a single poster that is pre-synchronised, measure the
    // fabric ops start() itself performs remotely.
    let (res, _fabric) = Universe::new(2).node_size(1).model(free()).launch(|ctx| {
        let win = Win::allocate(ctx, 8, 1).unwrap();
        if ctx.rank() == 1 {
            win.post(&Group::new([0])).unwrap();
        }
        ctx.barrier(); // ensure the post landed
        let mut remote_ops = 0;
        if ctx.rank() == 0 {
            let before = ctx.fabric().counters().snapshot();
            win.start(&Group::new([1])).unwrap();
            let after = ctx.fabric().counters().snapshot();
            // All ops during start() target rank 0's own meta segment
            // (local list scan); none may be puts/gets/amos to rank 1.
            // Counters are global; with rank 1 idle after the barrier, any
            // delta is ours. Local list scans do count reads — but they are
            // local (rank 0 → rank 0).
            remote_ops = after.since(&before).total_ops();
            win.complete().unwrap();
        } else {
            win.wait().unwrap();
        }
        ctx.barrier();
        remote_ops
    });
    // start() scans the local list: a handful of local reads/AMOs, bounded
    // and independent of p. (Zero *network* messages — all ops hit the
    // local meta segment.)
    assert!(res[0] < 20, "start() issued {} ops", res[0]);
}

#[test]
fn batched_window_epochs_deliver_and_accelerate() {
    // The issue-side batching layer under full window protocols: same
    // bytes delivered through fence, PSCW and lock epochs, with the lock
    // epoch's burst measurably cheaper than the unbatched run.
    let p = 4;
    let run = |batch: bool| {
        Universe::new(p).node_size(1).batch(batch).run(move |ctx| {
            let win = Win::allocate(ctx, 1 << 12, 1).unwrap();
            let me = ctx.rank();
            let pn = p as u32;
            let right = (me + 1) % pn;
            // Fence epoch: a contiguous 16-op burst to the right neighbour.
            win.fence().unwrap();
            for i in 0..16 {
                win.put(&[me as u8 + 1; 8], right, i * 8).unwrap();
            }
            win.fence_assert(fompi::ASSERT_NOSUCCEED).unwrap();
            // PSCW epoch over the same ring.
            let g = Group::new([(me + pn - 1) % pn, right]);
            win.post(&g).unwrap();
            win.start(&g).unwrap();
            for i in 0..8 {
                win.put(&[me as u8 + 101; 8], right, 128 + i * 8).unwrap();
            }
            win.complete().unwrap();
            win.wait().unwrap();
            // Timed lock epoch: the burst the ablation measures.
            win.lock(LockType::Exclusive, right).unwrap();
            let t0 = ctx.now();
            for i in 0..16 {
                win.put(&[me as u8 + 201; 8], right, 256 + i * 8).unwrap();
            }
            win.flush(right).unwrap();
            let dt = ctx.now() - t0;
            win.unlock(right).unwrap();
            ctx.barrier();
            let mut a = [0u8; 8];
            let mut b = [0u8; 8];
            let mut c = [0u8; 8];
            win.read_local(120, &mut a);
            win.read_local(184, &mut b);
            win.read_local(376, &mut c);
            (a, b, c, dt)
        })
    };
    let batched = run(true);
    let unbatched = run(false);
    for (r, &(a, b, c, _)) in batched.iter().enumerate() {
        let left = ((r + p - 1) % p) as u8;
        assert_eq!(a, [left + 1; 8], "fence epoch, rank {r}");
        assert_eq!(b, [left + 101; 8], "pscw epoch, rank {r}");
        assert_eq!(c, [left + 201; 8], "lock epoch, rank {r}");
    }
    // Identical delivery either way.
    for (bt, un) in batched.iter().zip(&unbatched) {
        assert_eq!((bt.0, bt.1, bt.2), (un.0, un.1, un.2));
    }
    // And the batched burst closes its epoch faster than per-op injection.
    assert!(
        batched[0].3 < unbatched[0].3,
        "batched {} ns vs unbatched {} ns",
        batched[0].3,
        unbatched[0].3
    );
}
