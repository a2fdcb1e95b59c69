//! `sync_pair`: the four synchronisation protocols in lock-step (Figs. 6b,
//! 6c and the lock constants). One window per protocol; every round moves
//! one 8-byte round counter, so `core::sync`, `runtime::coll` and
//! `fabric::notify` do all the work and the data path none. Round counts
//! per cycle are chosen so the four protocols take roughly equal time.

use crate::harness::{Shared, Tally, Workload};
use crate::probe::{Probe, Span};
use fompi::{LockType, Win};
use fompi_runtime::{Group, RankCtx};

const FENCE_ROUNDS: u64 = 1;
const PSCW_ROUNDS: u64 = 4;
const LOCK_ROUNDS: u64 = 16;
const PINGPONG_ROUNDS: u64 = 16;
const ROUNDS_PER_CYCLE: u64 = FENCE_ROUNDS + PSCW_ROUNDS + LOCK_ROUNDS + PINGPONG_ROUNDS;
/// About 0.2 ms per cycle, so 4 per batch.
const CYCLES: u64 = 4;
const TAG: u32 = 7;

pub struct SyncPair;

pub struct State {
    fence: Win,
    pscw: Win,
    lock: Win,
    notify: Win,
    peer: u32,
    group: Group,
    seed: u64,
    /// Rounds completed so far, per protocol. Both ranks count alike.
    round: u64,
    lock_round: u64,
}

fn local_u64(win: &Win) -> u64 {
    let mut b = [0u8; 8];
    win.read_local(0, &mut b);
    u64::from_le_bytes(b)
}

impl Workload for SyncPair {
    const PARK: bool = false;
    type State = State;

    fn setup(ctx: &RankCtx, seed: u64) -> State {
        let alloc = || Win::allocate(ctx, 8, 1).expect("sync window");
        let (fence, pscw, lock, notify) = (alloc(), alloc(), alloc(), alloc());
        fence.fence().expect("opening fence");
        notify.lock_all().expect("lock_all");
        let peer = 1 - ctx.rank();
        State {
            fence,
            pscw,
            lock,
            notify,
            peer,
            group: Group::new([peer]),
            seed,
            round: 0,
            lock_round: 0,
        }
    }

    fn batch<P: Probe>(st: &mut State, ctx: &RankCtx, _: &Shared, p: &mut P) -> Tally {
        let peer = st.peer;
        let mut failed = 0u64;
        // Values are seeded so two runs with different seeds move different
        // bytes; both ranks write the same value in a round, so each knows
        // what the peer's put must have left in its own window.
        let value = |round: u64| round ^ (st.seed << 32);
        for _ in 0..CYCLES {
            p.open(Span::PhaseFence);
            for _ in 0..FENCE_ROUNDS {
                st.round += 1;
                let v = value(st.round);
                let put = st.fence.put(&v.to_le_bytes(), peer, 0);
                let m = p.begin();
                let r = st.fence.fence();
                p.end(Span::CoreFence, m);
                failed += (put.is_err() || r.is_err() || local_u64(&st.fence) != v) as u64;
            }
            p.close();

            p.open(Span::PhasePscw);
            for _ in 0..PSCW_ROUNDS {
                st.round += 1;
                let v = value(st.round);
                let m = p.begin();
                let r = (|| {
                    st.pscw.post(&st.group)?;
                    st.pscw.start(&st.group)?;
                    st.pscw.put(&v.to_le_bytes(), peer, 0)?;
                    st.pscw.complete()?;
                    st.pscw.wait()
                })();
                p.end(Span::CorePscwCycle, m);
                failed += (r.is_err() || local_u64(&st.pscw) != v) as u64;
            }
            p.close();

            // Passive target: the owner cannot tell when the peer's put
            // lands, so the value is checked in `verify`.
            p.open(Span::PhaseLock);
            for _ in 0..LOCK_ROUNDS {
                st.lock_round += 1;
                let v = value(st.lock_round);
                let m = p.begin();
                let locked = st.lock.lock(LockType::Exclusive, peer);
                p.end(Span::CoreLockExcl, m);
                let put = st.lock.put(&v.to_le_bytes(), peer, 0);
                let m = p.begin();
                let unlocked = st.lock.unlock(peer);
                p.end(Span::CoreUnlock, m);
                failed += (locked.is_err() || put.is_err() || unlocked.is_err()) as u64;
            }
            p.close();

            p.open(Span::PhasePingPong);
            for _ in 0..PINGPONG_ROUNDS {
                st.round += 1;
                let v = value(st.round);
                let ping = |p: &mut P| {
                    let m = p.begin();
                    let r = st.notify.put_notify(&v.to_le_bytes(), peer, 0, TAG);
                    p.end(Span::CorePutNotify, m);
                    r.is_err()
                };
                let pong = |p: &mut P| {
                    let m = p.begin();
                    let r = st.notify.wait_notify(peer, TAG);
                    p.end(Span::CoreWaitNotify, m);
                    r.is_err() || local_u64(&st.notify) != v
                };
                // Rank 0 serves, rank 1 returns.
                let (sent, got);
                if ctx.rank() == 0 {
                    sent = ping(p);
                    got = pong(p);
                } else {
                    got = pong(p);
                    sent = ping(p);
                }
                failed += (sent || got) as u64;
            }
            p.close();
        }
        Tally { ops: CYCLES * ROUNDS_PER_CYCLE, failed, ..Tally::default() }
    }

    /// Both ranks are past the batch: the last locked put of the peer must
    /// be in this rank's lock window.
    fn verify(st: &mut State, _: &RankCtx) -> u64 {
        (local_u64(&st.lock) != (st.lock_round ^ (st.seed << 32))) as u64
    }

    fn finish(st: State, ctx: &RankCtx) -> u64 {
        let mut bad = st.notify.unlock_all().is_err() as u64;
        bad += st.fence.fence_assert(fompi::ASSERT_NOSUCCEED).is_err() as u64;
        for win in [st.fence, st.pscw, st.lock, st.notify] {
            win.free(ctx);
        }
        bad
    }
}
