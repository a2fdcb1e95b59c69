//! `put_rate` and `put_duplex`: the paper's message-rate test (Fig. 5b).
//! 8-byte `Win::put` under `lock_all`, one `Win::flush` per 64 puts. Only
//! `core::comm` and `fabric::endpoint` run and nothing waits, so the wall
//! time per put is the instruction path. `put_duplex` runs the same loop
//! from both ranks at once, which adds contention on fabric-shared state.

use crate::harness::{Shared, Tally, Workload};
use crate::probe::{Probe, Span};
use fompi::Win;
use fompi_fabric::rng::splitmix64;
use fompi_runtime::RankCtx;

/// Puts between flushes; also the number of 8-byte target slots.
pub const BURST: usize = 64;
/// Bursts per batch: 8192 puts, 0.5 ms at 65 ns each. A 60 ns op cannot be
/// timed singly.
const BURSTS: usize = 128;

pub struct Put<const DUPLEX: bool>;

pub struct State {
    win: Win,
    peer: u32,
    seed: u64,
    batch: u64,
    /// This rank issues puts.
    origin: bool,
    /// This rank's window is written by the peer.
    target: bool,
}

/// First value of the batch: every put writes `base + index`, so the target
/// can tell exactly which put it sees in each slot.
fn base(seed: u64, batch: u64, origin: u32) -> u64 {
    splitmix64(seed ^ (batch << 8) ^ origin as u64)
}

impl<const DUPLEX: bool> Workload for Put<DUPLEX> {
    const PARK: bool = !DUPLEX;
    type State = State;

    fn setup(ctx: &RankCtx, seed: u64) -> State {
        let win = Win::allocate(ctx, BURST * 8, 1).expect("put window");
        win.lock_all().expect("lock_all");
        let me = ctx.rank();
        State {
            win,
            peer: 1 - me,
            seed,
            batch: 0,
            origin: DUPLEX || me == 0,
            target: DUPLEX || me == 1,
        }
    }

    fn batch<P: Probe>(st: &mut State, ctx: &RankCtx, _: &Shared, p: &mut P) -> Tally {
        if !st.origin {
            return Tally::default();
        }
        let mut failed = 0u64;
        let mut v = base(st.seed, st.batch, ctx.rank());
        let mut put = |slot: usize| {
            let r = st.win.put(&v.to_le_bytes(), st.peer, slot * 8);
            v = v.wrapping_add(1);
            r.is_err() as u64
        };
        for _ in 0..BURSTS {
            if DUPLEX {
                // One span per burst (the metric divides by `BURST`): with a
                // span around every put each thread would spend most of its
                // time in the recorder and the two would rarely contend.
                let m = p.begin();
                for slot in 0..BURST {
                    failed += put(slot);
                }
                p.end(Span::CorePut8DuplexBurst, m);
            } else {
                for slot in 0..BURST {
                    let m = p.begin();
                    failed += put(slot);
                    p.end(Span::CorePut8, m);
                }
            }
            let m = p.begin();
            let r = st.win.flush(st.peer);
            p.end(Span::CoreFlush, m);
            failed += r.is_err() as u64;
        }
        Tally { ops: (BURSTS * BURST) as u64, failed, ..Tally::default() }
    }

    /// The target reads back the last burst of the batch.
    fn verify(st: &mut State, _: &RankCtx) -> u64 {
        let mut bad = 0u64;
        if st.target {
            let last = base(st.seed, st.batch, st.peer).wrapping_add(((BURSTS - 1) * BURST) as u64);
            let mut got = [0u8; BURST * 8];
            st.win.read_local(0, &mut got);
            for (slot, chunk) in got.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().unwrap());
                bad += (v != last.wrapping_add(slot as u64)) as u64;
            }
        }
        st.batch += 1;
        bad
    }

    fn finish(st: State, ctx: &RankCtx) -> u64 {
        let bad = st.win.unlock_all().is_err() as u64;
        st.win.free(ctx);
        bad
    }
}
