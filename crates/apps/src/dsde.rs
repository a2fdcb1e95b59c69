//! Dynamic Sparse Data Exchange (§4.2, Figure 7b).
//!
//! Each process picks `k` random targets and sends 8 bytes to each; no
//! process knows how much it will receive. The four protocols of Hoefler,
//! Siebert & Lumsdaine (PPoPP'10), as the paper benchmarks them:
//!
//! 1. **alltoall** — a full personalized exchange with empty slots for
//!    non-targets: simple, Θ(p) data per process;
//! 2. **reduce_scatter** — first learn the receive count via a
//!    reduce_scatter of indicator vectors, then plain sends/recvs;
//! 3. **NBX** — synchronous sends + nonblocking-consensus barrier: the
//!    protocol "proved optimal" that Figure 7b shows winning among the
//!    message-passing options;
//! 4. **RMA accumulate** — fetch-and-add a remote write cursor, put the
//!    payload, fence: foMPI's entry, competitive with NBX and portable.
//!
//! Payloads encode `(source << 32) | target`, so receivers verify that
//! every message landed at its intended destination; tests additionally
//! check global conservation (p·k sent = p·k received).

use fompi::{MpiOp, NumKind, Win};
use fompi_msg::coll::IBarrier;
use fompi_msg::{Comm, ANY_SOURCE};
use fompi_runtime::RankCtx;

/// One DSDE round's outcome for a rank.
#[derive(Debug, Clone)]
pub struct DsdeResult {
    /// Virtual ns from protocol start to local completion.
    pub time_ns: f64,
    /// Payloads received (each `(src << 32) | me`).
    pub received: Vec<u64>,
}

/// Choose `k` distinct random targets (≠ me) for this round.
pub fn pick_targets(me: u32, p: usize, k: usize, seed: u64) -> Vec<u32> {
    assert!(k < p, "need at least k+1 ranks");
    let mut targets = Vec::with_capacity(k);
    let mut x = seed ^ ((me as u64) << 20) ^ 0xD5DE;
    while targets.len() < k {
        x = crate::splitmix64(x);
        let t = (x % p as u64) as u32;
        if t != me && !targets.contains(&t) {
            targets.push(t);
        }
    }
    targets
}

fn payload(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Verify and strip received payloads.
fn check_received(me: u32, received: &[u64]) {
    for &r in received {
        assert_eq!(r as u32, me, "payload delivered to the wrong rank");
    }
}

const DSDE_TAG: u32 = 0xD5_0000;

// --------------------------------------------------------------- alltoall

/// Protocol 1: personalized alltoall with a (flag, payload) block per peer.
pub fn run_alltoall(ctx: &RankCtx, comm: &Comm, k: usize, seed: u64) -> DsdeResult {
    let p = ctx.size();
    let me = ctx.rank();
    let targets = pick_targets(me, p, k, seed);
    ctx.barrier();
    let t0 = ctx.now();
    let mut send = vec![0u8; p * 16];
    for &t in &targets {
        let o = t as usize * 16;
        send[o..o + 8].copy_from_slice(&1u64.to_le_bytes());
        send[o + 8..o + 16].copy_from_slice(&payload(me, t).to_le_bytes());
    }
    let mut recv = vec![0u8; p * 16];
    comm.alltoall(&send, &mut recv, 16);
    let mut received = Vec::new();
    for s in 0..p {
        let o = s * 16;
        if u64::from_le_bytes(recv[o..o + 8].try_into().unwrap()) == 1 {
            received.push(u64::from_le_bytes(recv[o + 8..o + 16].try_into().unwrap()));
        }
    }
    let time_ns = ctx.now() - t0;
    check_received(me, &received);
    DsdeResult { time_ns, received }
}

// ---------------------------------------------------------- reduce_scatter

/// Protocol 2: reduce_scatter of indicator vectors to learn the receive
/// count, then point-to-point sends.
pub fn run_reduce_scatter(ctx: &RankCtx, comm: &Comm, k: usize, seed: u64) -> DsdeResult {
    let p = ctx.size();
    let me = ctx.rank();
    let targets = pick_targets(me, p, k, seed);
    ctx.barrier();
    let t0 = ctx.now();
    let mut indicator = vec![0u64; p];
    for &t in &targets {
        indicator[t as usize] += 1;
    }
    let mut my_count = [0u64; 1];
    comm.reduce_scatter_u64(&indicator, &mut my_count);
    for &t in &targets {
        comm.send(&payload(me, t).to_le_bytes(), t, DSDE_TAG).expect("dsde send");
    }
    let mut received = Vec::with_capacity(my_count[0] as usize);
    for _ in 0..my_count[0] {
        let mut b = [0u8; 8];
        comm.recv(&mut b, ANY_SOURCE, DSDE_TAG).expect("dsde recv");
        received.push(u64::from_le_bytes(b));
    }
    let time_ns = ctx.now() - t0;
    check_received(me, &received);
    DsdeResult { time_ns, received }
}

// --------------------------------------------------------------------- NBX

/// Protocol 3: NBX — synchronous sends, then nonblocking consensus.
pub fn run_nbx(ctx: &RankCtx, comm: &Comm, k: usize, seed: u64, epoch: u32) -> DsdeResult {
    let p = ctx.size();
    let me = ctx.rank();
    let targets = pick_targets(me, p, k, seed);
    ctx.barrier();
    let t0 = ctx.now();
    // Issue all synchronous sends (nonblocking: completion = matched).
    let mut reqs: Vec<_> = targets
        .iter()
        .map(|&t| {
            comm.issend(&payload(me, t).to_le_bytes(), t, DSDE_TAG + 1 + epoch).expect("issend")
        })
        .collect();
    let mut received = Vec::new();
    let mut barrier: Option<IBarrier> = None;
    loop {
        // Receive anything that arrived.
        while comm.iprobe(ANY_SOURCE, DSDE_TAG + 1 + epoch).is_some() {
            let mut b = [0u8; 8];
            comm.recv(&mut b, ANY_SOURCE, DSDE_TAG + 1 + epoch).expect("nbx recv");
            received.push(u64::from_le_bytes(b));
        }
        match &mut barrier {
            None => {
                if reqs.iter().all(|r| r.test()) {
                    reqs.drain(..).for_each(|r| r.wait(ctx.ep()));
                    barrier = Some(IBarrier::start(comm, 16 + epoch));
                }
            }
            Some(ib) => {
                if ib.test(comm) {
                    break;
                }
            }
        }
        std::thread::yield_now();
    }
    // Final drain (messages may have raced the last barrier round).
    while comm.iprobe(ANY_SOURCE, DSDE_TAG + 1 + epoch).is_some() {
        let mut b = [0u8; 8];
        comm.recv(&mut b, ANY_SOURCE, DSDE_TAG + 1 + epoch).expect("nbx drain");
        received.push(u64::from_le_bytes(b));
    }
    let time_ns = ctx.now() - t0;
    check_received(me, &received);
    DsdeResult { time_ns, received }
}

// --------------------------------------------------------------------- RMA

/// Protocol 4: one-sided accumulates in active target mode — FAA a remote
/// cursor, put the payload, fence.
pub fn run_rma(ctx: &RankCtx, win: &Win, k: usize, seed: u64) -> DsdeResult {
    let p = ctx.size();
    let me = ctx.rank();
    let targets = pick_targets(me, p, k, seed);
    // Window layout: [0..8) cursor; [8..) payload slots.
    win.write_local(0, &0u64.to_le_bytes());
    win.fence().expect("fence open");
    let t0 = ctx.now();
    for &t in &targets {
        let mut idx = [0u8; 8];
        win.fetch_and_op(&1u64.to_le_bytes(), &mut idx, NumKind::U64, MpiOp::Sum, t, 0)
            .expect("cursor FAA");
        let slot = u64::from_le_bytes(idx) as usize;
        win.put(&payload(me, t).to_le_bytes(), t, 8 + slot * 8).expect("payload put");
    }
    win.fence().expect("fence close");
    let count = {
        let mut b = [0u8; 8];
        win.read_local(0, &mut b);
        u64::from_le_bytes(b) as usize
    };
    let mut received = Vec::with_capacity(count);
    for i in 0..count {
        let mut b = [0u8; 8];
        win.read_local(8 + i * 8, &mut b);
        received.push(u64::from_le_bytes(b));
    }
    let time_ns = ctx.now() - t0;
    check_received(me, &received);
    // Reset for the next round.
    win.write_local(0, &0u64.to_le_bytes());
    win.fence().expect("fence reset");
    DsdeResult { time_ns, received }
}

// --------------------------------------------------------- notified access

/// Protocol 5: notified access — deliver each payload with a single
/// `put_notify` and let the notification itself carry both completion and
/// the sender's identity.
///
/// The notification record's `source` field replaces `run_rma`'s
/// fetch-and-add slot allocation outright: each sender owns slot `src` in
/// every receiver's window (targets are distinct per sender, so one slot
/// per pair suffices), which removes the AMO round trip from every
/// message's critical path. The receiver never polls a cursor and needs
/// no closing fence to learn its receive count: the notification append
/// is synchronous with the issuing call, so once a plain barrier bounds
/// the send phase every incoming record is already in this rank's ring
/// and a drain-until-dry observes the exact count — the consensus NBX
/// buys with a nonblocking barrier comes for free with the records, and
/// the fence's window-wide flush is replaced by the per-record stamps
/// joined as each notification is consumed.
pub fn run_notified(ctx: &RankCtx, win: &Win, k: usize, seed: u64) -> DsdeResult {
    let p = ctx.size();
    let me = ctx.rank();
    let targets = pick_targets(me, p, k, seed);
    // Window layout: [0..8) unused (run_rma's cursor); one slot per
    // sender, `src`'s at [8 + 8·src ..).
    ctx.barrier();
    win.lock_all().expect("lock_all");
    let t0 = ctx.now();
    for &t in &targets {
        win.put_notify(&payload(me, t).to_le_bytes(), t, 8 + me as usize * 8, DSDE_TAG)
            .expect("notified put");
    }
    ctx.barrier();
    let mut received = Vec::new();
    while let Some(rec) = win.test_notify(fompi::ANY_SOURCE, DSDE_TAG).expect("notify drain") {
        // Each consumed record joins its stamp, so the read below is
        // covered by the arrival of that sender's payload.
        let mut b = [0u8; 8];
        win.read_local(8 + rec.source as usize * 8, &mut b);
        received.push(u64::from_le_bytes(b));
    }
    let time_ns = ctx.now() - t0;
    check_received(me, &received);
    win.unlock_all().expect("unlock_all");
    ctx.barrier();
    DsdeResult { time_ns, received }
}

/// Window size needed by [`run_rma`] for up to `p` senders of one message
/// each (worst case: every rank targets me).
pub fn rma_win_bytes(p: usize) -> usize {
    8 + p * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::FaultPlan;
    use fompi_msg::MsgEngine;
    use fompi_runtime::Universe;

    fn conservation(results: &[DsdeResult], p: usize, k: usize) {
        let total: usize = results.iter().map(|r| r.received.len()).sum();
        assert_eq!(total, p * k, "messages lost or duplicated");
    }

    #[test]
    fn alltoall_delivers_everything() {
        let (p, k) = (6, 3);
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_alltoall(ctx, &comm, k, 99)
        });
        conservation(&got, p, k);
    }

    #[test]
    fn reduce_scatter_delivers_everything() {
        let (p, k) = (5, 2);
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_reduce_scatter(ctx, &comm, k, 123)
        });
        conservation(&got, p, k);
    }

    #[test]
    fn nbx_delivers_everything() {
        let (p, k) = (6, 3);
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(3).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_nbx(ctx, &comm, k, 7, 0)
        });
        conservation(&got, p, k);
    }

    #[test]
    fn rma_delivers_everything() {
        let (p, k) = (6, 3);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            run_rma(ctx, &win, k, 31)
        });
        conservation(&got, p, k);
    }

    #[test]
    fn notified_delivers_everything() {
        let (p, k) = (6, 3);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            run_notified(ctx, &win, k, 31)
        });
        conservation(&got, p, k);
        for (rank, r) in got.iter().enumerate() {
            check_received(rank as u32, &r.received);
        }
    }

    #[test]
    fn notified_repeated_rounds_reuse_window_and_ring() {
        // Two rounds over the same window: the drain-until-dry of round 1
        // must leave the ring empty so round 2's count is exact.
        let (p, k) = (4, 2);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            let r1 = run_notified(ctx, &win, k, 1);
            let r2 = run_notified(ctx, &win, k, 2);
            (r1, r2)
        });
        conservation(&got.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>(), p, k);
        conservation(&got.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>(), p, k);
    }

    #[test]
    fn rma_repeated_rounds_reuse_window() {
        let (p, k) = (4, 2);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            let r1 = run_rma(ctx, &win, k, 1);
            let r2 = run_rma(ctx, &win, k, 2);
            (r1, r2)
        });
        conservation(&got.iter().map(|(a, _)| a.clone()).collect::<Vec<_>>(), p, k);
        conservation(&got.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>(), p, k);
    }

    #[test]
    fn rma_beats_alltoall_at_scale() {
        // Even at modest p the alltoall pays Θ(p) per rank.
        let (p, k) = (8, 2);
        let engine = MsgEngine::new(p);
        let a2a = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_alltoall(ctx, &comm, k, 5)
        });
        let rma = Universe::new(p).node_size(1).run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            run_rma(ctx, &win, k, 5)
        });
        let t_a2a = crate::max_time(&a2a.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_rma = crate::max_time(&rma.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(t_rma < t_a2a, "RMA {t_rma} should beat alltoall {t_a2a}");
    }

    #[test]
    fn notified_beats_the_fence_protocol() {
        // One notified put per message and a local wait replace the
        // fence-synchronised accumulate protocol's collective epochs.
        let (p, k) = (8, 3);
        let universe = || Universe::new(p).node_size(2).seed(1).faults(FaultPlan::disabled());
        let fence = universe().run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            run_rma(ctx, &win, k, 5)
        });
        let notified = universe().notify_depth(64).run(move |ctx| {
            let win = Win::allocate(ctx, rma_win_bytes(p), 1).expect("win");
            run_notified(ctx, &win, k, 5)
        });
        let t_fence = crate::max_time(&fence.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_not = crate::max_time(&notified.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(t_not < t_fence, "notified {t_not} should beat the fence protocol {t_fence}");
    }
}
