//! Per-layer probes: direct `Endpoint` calls on a harness-registered
//! `Segment` (the floor every upper-layer number stands on), the same calls
//! through `Win`, the transaction layer alone, window allocation and the
//! runtime's collectives. Each probe brackets single calls with spans, like
//! the traced workloads do.
//!
//! The single-rank probes run as one **rotation**: a burst of fabric puts,
//! then a burst of `Win::put`, then fabric gets, `Win::get`, ... round after
//! round. A noisy neighbour slows this box by a third for a second at a time;
//! taken one after the other, the fabric floor and the call built on it would
//! see different machines and `self_ns` (their difference) would be noise.
//! Interleaved at the scale of microseconds they see the same one.

use crate::harness::{pin_rank_thread, universe};
use crate::probe::{Probe, Rec, Span};
use crate::report::Bill;
use fompi::{MpiOp, NumKind, Win};
use fompi_fabric::{AmoOp, SegKey, Segment};
use fompi_runtime::RankCtx;
use fompi_txn::{Txn, VersionedCell};
use std::time::Instant;

/// Calls per burst of a small op; also the slots a burst cycles through.
pub const BURST: usize = 64;
/// Rounds of the rotation: 38400 samples per small op, 30 ms in all.
const ROUNDS: usize = 600;
/// Calls per round of the expensive ops (4096-byte transfers, 8-element
/// accumulate, transactions).
const FEW: usize = 8;
/// The duplex probe runs far longer than one rotation: whether the two ranks
/// collide is decided in stretches of milliseconds, and a short probe reads
/// one stretch.
const DUPLEX_BURSTS: usize = 6000;
const BIG: usize = 4096;
const TAG: u32 = 9;

/// Window layout of the `Win` probes: a read/write area, then the cells the
/// atomics hit, then two versioned cells for the transaction probes.
const FAO_CELL: usize = 2 * BIG;
const CAS_CELL: usize = FAO_CELL + 8;
const ACC_CELLS: usize = CAS_CELL + 8;
const TXN_PAYLOAD: usize = 16;
const TXN_CELL: usize = 8 + TXN_PAYLOAD;
const TXN_CELLS: usize = ACC_CELLS + 64;
const WIN_BYTES: usize = TXN_CELLS + 2 * TXN_CELL;

pub struct Ledger {
    /// One recorder per rank, plus one for the harness thread.
    pub recs: Vec<Rec>,
    pub bills: Vec<Bill>,
    pub win_metadata_bytes: usize,
}

/// A span around each of `calls` calls of `op`.
fn each(p: &mut Rec, span: Span, calls: usize, mut op: impl FnMut(usize)) {
    for i in 0..calls {
        let m = p.begin();
        op(i);
        p.end(span, m);
    }
}

fn txn_cells() -> [VersionedCell; 2] {
    [
        VersionedCell::new(1, TXN_CELLS, TXN_PAYLOAD),
        VersionedCell::new(1, TXN_CELLS + TXN_CELL, TXN_PAYLOAD),
    ]
}

/// A two-key transaction, read and staged, ready to commit.
fn staged_txn(win: &Win, stamp: u64) -> Txn<'_> {
    let mut txn = Txn::begin(win);
    let mut buf = [0u8; TXN_PAYLOAD];
    for cell in txn_cells() {
        txn.read(cell, &mut buf).expect("uncontended read");
        buf[..8].copy_from_slice(&stamp.to_le_bytes());
        txn.write(cell, &buf).expect("staged write");
    }
    txn
}

/// The probe window: allocated, transaction cells initialised, `lock_all`
/// held, and every rank's `lock_all` AMO landed.
fn probe_window(ctx: &RankCtx) -> Win {
    let win = Win::allocate(ctx, WIN_BYTES, 1).expect("probe window");
    for slot in 0..2 {
        VersionedCell::init_local(&win, TXN_CELLS + slot * TXN_CELL, &[0u8; TXN_PAYLOAD]);
    }
    ctx.barrier();
    win.lock_all().expect("lock_all");
    ctx.barrier();
    win
}

/// Rank 0 alone (rank 1 is parked in the barrier after this): the rotation.
fn solo_rotation(ctx: &RankCtx, p: &mut Rec, key: SegKey, win: &Win) {
    let ep = ctx.ep();
    let ok = "probe op";
    let word = 0x5EEDu64.to_le_bytes();
    let block = vec![0xA5u8; BIG];
    let ones = [1u8; 64];
    let mut small = [0u8; 8];
    let mut big = vec![0u8; BIG];
    let mut old = [0u8; 8];
    let mut buf = [0u8; TXN_PAYLOAD];
    // Both CAS probes always hit: each swaps in the next count.
    let (mut fab_cas, mut core_cas) = (0u64, 0u64);
    let flush_fabric = |p: &mut Rec| {
        let m = p.begin();
        ep.flush_target(1);
        p.end(Span::FabFlushTarget, m);
    };
    let flush_core = |p: &mut Rec| {
        let m = p.begin();
        win.flush(1).expect(ok);
        p.end(Span::CoreFlush, m);
    };
    for round in 0..ROUNDS {
        each(p, Span::FabPut8, BURST, |i| ep.put_implicit(key, i * 8, &word).expect(ok));
        flush_fabric(p);
        each(p, Span::CorePut8, BURST, |i| win.put(&word, 1, i * 8).expect(ok));
        flush_core(p);
        each(p, Span::FabGet8, BURST, |i| ep.get_implicit(key, i * 8, &mut small).expect(ok));
        flush_fabric(p);
        each(p, Span::CoreGet8, BURST, |i| win.get(&mut small, 1, i * 8).expect(ok));
        flush_core(p);
        each(p, Span::FabAmoFadd, BURST, |_| ep.amo(key, 0, AmoOp::Add, 1, 0).map(drop).expect(ok));
        each(p, Span::CoreFetchAndOp, BURST, |_| {
            win.fetch_and_op(&1u64.to_le_bytes(), &mut old, NumKind::U64, MpiOp::Sum, 1, FAO_CELL)
                .expect(ok)
        });
        each(p, Span::FabAmoCas, BURST, |_| {
            fab_cas += 1;
            ep.amo(key, 8, AmoOp::Cas, fab_cas, fab_cas - 1).map(drop).expect(ok)
        });
        each(p, Span::CoreCas, BURST, |_| {
            core_cas += 1;
            win.compare_and_swap(core_cas, core_cas - 1, 1, CAS_CELL).map(drop).expect(ok)
        });
        flush_core(p);
        each(p, Span::FabPut4096, FEW, |_| ep.put_implicit(key, BIG, &block).expect(ok));
        each(p, Span::FabGet4096, FEW, |_| ep.get_implicit(key, BIG, &mut big).expect(ok));
        flush_fabric(p);
        each(p, Span::CoreGet4096, FEW, |_| win.get(&mut big, 1, 0).expect(ok));
        each(p, Span::CoreAccumulate, FEW, |_| {
            win.accumulate(&ones, NumKind::U64, MpiOp::Sum, 1, ACC_CELLS).expect(ok)
        });
        flush_core(p);
        // Issue-side batching, which no workload arms: adjacent 8-byte puts
        // write-combine into one burst per flush.
        ep.set_batching(true);
        each(p, Span::FabPut8Batched, BURST, |i| ep.put_implicit(key, i * 8, &word).expect(ok));
        ep.flush_target(1);
        ep.set_batching(false);
        // The transaction layer, uncontended: every commit succeeds.
        each(p, Span::TxnCellRead, FEW, |i| {
            txn_cells()[i % 2].read(win, &mut buf).map(drop).expect("uncontended read")
        });
        for i in 0..FEW {
            let txn = staged_txn(win, (round * FEW + i) as u64);
            let m = p.begin();
            let r = txn.commit();
            p.end(Span::TxnCommit2Key, m);
            assert_eq!(r.expect("uncontended commit").keys, 2);
        }
    }
}

/// Exact fabric-op counts of each call timed in the rotation: rank 0 alone,
/// 16 calls each, counters read around every call.
fn solo_bills(ctx: &RankCtx, win: &Win) -> Vec<Bill> {
    let counters = ctx.fabric().counters();
    let ok = "bill op";
    let mut small = [0u8; 8];
    let mut big = vec![0u8; BIG];
    let mut old = [0u8; 8];
    let mut buf = [0u8; TXN_PAYLOAD];
    let ones = [1u8; 64];
    let mut bills = Vec::new();
    let mut bill = |name: &str, call: &mut dyn FnMut(u64)| {
        let mut b = Bill::new(name);
        for i in 0..16 {
            let before = counters.snapshot();
            call(i);
            b.add(&counters.snapshot().since(&before), 1);
        }
        bills.push(b);
    };
    bill("core.put_8", &mut |_| win.put(&small, 1, 0).expect(ok));
    bill("core.flush", &mut |_| win.flush(1).expect(ok));
    bill("core.get_8", &mut |_| win.get(&mut small, 1, 0).expect(ok));
    bill("core.get_4096", &mut |_| win.get(&mut big, 1, 0).expect(ok));
    bill("core.fetch_and_op", &mut |_| {
        win.fetch_and_op(&1u64.to_le_bytes(), &mut old, NumKind::U64, MpiOp::Sum, 1, FAO_CELL)
            .expect(ok)
    });
    // The outcome of a CAS does not change what it costs.
    bill("core.compare_and_swap", &mut |_| {
        win.compare_and_swap(1, 0, 1, CAS_CELL).map(drop).expect(ok)
    });
    bill("core.accumulate_sum_8x8", &mut |_| {
        win.accumulate(&ones, NumKind::U64, MpiOp::Sum, 1, ACC_CELLS).expect(ok)
    });
    win.flush(1).expect(ok);
    bill("txn.cell_read", &mut |i| {
        txn_cells()[i as usize % 2].read(win, &mut buf).map(drop).expect("uncontended read")
    });
    // Only the commit is billed, not the reads and staging before it, so
    // the counters are read around `commit` alone.
    let mut commit = Bill::new("txn.commit_2key");
    for i in 0..16 {
        let txn = staged_txn(win, 1 << 32 | i);
        let before = counters.snapshot();
        txn.commit().expect("uncontended commit");
        commit.add(&counters.snapshot().since(&before), 1);
    }
    bills.push(commit);
    bills
}

/// The fabric under two ranks: contended puts, and notified access with
/// producer and consumer taking turns.
fn pair_probes(ctx: &RankCtx, p: &mut Rec, key: SegKey) {
    let (me, peer) = (ctx.rank(), 1 - ctx.rank());
    let ep = ctx.ep();
    let ok = "probe op";
    let word = 0x5EEDu64.to_le_bytes();

    // Both ranks at once: the same put, now contending for shared state.
    // One span covers a whole burst (the metric divides by `BURST`): with a
    // span around every call each thread would spend most of its time in the
    // recorder and the two would hardly ever meet in the fabric.
    ctx.barrier();
    for _ in 0..DUPLEX_BURSTS {
        let m = p.begin();
        for slot in 0..BURST {
            ep.put_implicit(key, slot * 8, &word).expect(ok);
        }
        p.end(Span::FabPut8Duplex, m);
        ep.flush_target(peer);
    }

    // Notified access, in turns so the ring (64 deep) never overflows:
    // rank 0 posts half a ring, rank 1 pops it.
    let half_ring = 32;
    for _ in 0..ROUNDS / 8 {
        for append_only in [false, true] {
            ctx.barrier();
            if me == 0 {
                for _ in 0..half_ring {
                    let m = p.begin();
                    if append_only {
                        ep.notify_append(peer, TAG, 8).expect(ok);
                        p.end(Span::FabNotifyAppend, m);
                    } else {
                        ep.put_notified(key, 0, &word, TAG).expect(ok);
                        p.end(Span::FabPutNotified8, m);
                    }
                }
                ep.flush_target(peer);
            }
            ctx.barrier();
            if me == 1 {
                for _ in 0..half_ring {
                    let m = p.begin();
                    let rec = ep.notify_pop();
                    p.end(Span::FabNotifyPop, m);
                    assert!(rec.is_some(), "posted notification missing");
                }
            }
        }
    }
    ctx.barrier();
}

/// `Win::allocate` and the collectives under it. Returns the metadata bytes
/// of one allocated window.
fn runtime_probes(ctx: &RankCtx, p: &mut Rec) -> usize {
    let mut metadata = 0;
    for _ in 0..64 {
        let m = p.begin();
        let win = Win::allocate(ctx, 4096, 1).expect("probe window");
        p.end(Span::CoreWinAllocate, m);
        metadata = win.metadata_bytes();
        win.free(ctx);
    }
    for i in 0..2000u64 {
        let m = p.begin();
        ctx.barrier();
        p.end(Span::RtBarrier, m);
        let m = p.begin();
        let sum = ctx.allreduce_u64(i, |a, b| a + b);
        p.end(Span::RtAllreduce, m);
        assert_eq!(sum, 2 * i);
    }
    metadata
}

fn rank_probes(ctx: &RankCtx, p: &mut Rec) -> (Vec<Bill>, usize) {
    let (me, peer) = (ctx.rank(), 1 - ctx.rank());
    let mine = ctx.fabric().register(me, Segment::new(2 * BIG));
    let ids = ctx.allgather(&mine.id.to_le_bytes());
    let peer_id = u64::from_le_bytes(ids[peer as usize][..8].try_into().expect("8-byte id"));
    let key = SegKey { rank: peer, id: peer_id };
    let win = probe_window(ctx);

    // Calibration: what a span costs with nothing inside.
    each(p, Span::Empty, ROUNDS * BURST, |_| ());

    let mut bills = Vec::new();
    if me == 0 {
        solo_rotation(ctx, p, key, &win);
        bills = solo_bills(ctx, &win);
    }
    // Rank 1 stays parked until rank 0 is done: its `unlock_all` is an AMO
    // that would land in rank 0's counts.
    ctx.barrier();
    win.unlock_all().expect("unlock_all");
    win.free(ctx);

    pair_probes(ctx, p, key);
    ctx.fabric().deregister(mine);
    (bills, runtime_probes(ctx, p))
}

/// Run every probe. `epoch` is the zero of the trace's time axis.
pub fn run(seed: u64, epoch: Instant) -> Ledger {
    // Launch and join of an empty job, on the harness thread's own track.
    let mut harness = Rec::new(crate::harness::RANKS as u32, epoch);
    for _ in 0..32 {
        let m = harness.begin();
        universe(seed).run(|_| ());
        harness.end(Span::RtLaunchJoin, m);
    }
    let outs = universe(seed).run(|ctx| {
        pin_rank_thread(ctx.rank());
        let mut p = Rec::new(ctx.rank(), epoch);
        let (mut bills, metadata) = rank_probes(ctx, &mut p);
        bills.extend(crate::workloads::stream::bills(ctx, seed));
        bills.extend(crate::workloads::kv_txn::bills(ctx, seed));
        bills.extend(crate::workloads::apps::bills(ctx, seed));
        (p, bills, metadata)
    });
    let mut ledger = Ledger { recs: Vec::new(), bills: Vec::new(), win_metadata_bytes: 0 };
    for (rec, bills, metadata) in outs {
        ledger.recs.push(rec);
        ledger.bills.extend(bills);
        ledger.win_metadata_bytes = metadata;
    }
    ledger.recs.push(harness);
    ledger
}
