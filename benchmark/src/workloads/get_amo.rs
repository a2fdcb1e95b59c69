//! `get_amo`: the two layers of `put_rate` used the other way — reads,
//! atomics and per-op completion (Figs. 4, 6a). Rank 0 alone cycles through
//! 8 B get, 4096 B get, fetch_and_op(SUM), compare_and_swap and an 8 x u64
//! accumulate(SUM), each followed by `flush(1)`.

use crate::harness::{Shared, Tally, Workload};
use crate::probe::{Probe, Span};
use fompi::{MpiOp, NumKind, Win};
use fompi_fabric::rng::splitmix64;
use fompi_runtime::RankCtx;

/// Window layout (bytes): a read-only pattern region, then the cells the
/// atomics hit.
const PATTERN: usize = 4096;
const FAO_CELL: usize = PATTERN;
const CAS_CELL: usize = PATTERN + 8;
const ACC_CELLS: usize = PATTERN + 16;
const ACC_LEN: usize = 8;
const WIN_BYTES: usize = ACC_CELLS + ACC_LEN * 8;

const CALLS_PER_CYCLE: u64 = 5;
/// 512 cycles = 2560 calls per batch, about 0.5 ms.
const CYCLES: u64 = 512;

pub struct GetAmo;

pub struct State {
    win: Win,
    seed: u64,
    /// Cycles completed so far: the value the FAO and CAS cells must hold.
    cycles: u64,
    big: Vec<u8>,
}

fn pattern_word(seed: u64, word: usize) -> u64 {
    splitmix64(seed ^ 0x6E7A ^ word as u64)
}

impl Workload for GetAmo {
    const PARK: bool = true;
    type State = State;

    fn setup(ctx: &RankCtx, seed: u64) -> State {
        let win = Win::allocate(ctx, WIN_BYTES, 1).expect("get_amo window");
        for w in 0..PATTERN / 8 {
            win.write_local(w * 8, &pattern_word(seed, w).to_le_bytes());
        }
        ctx.barrier();
        win.lock_all().expect("lock_all");
        State { win, seed, cycles: 0, big: vec![0u8; PATTERN] }
    }

    fn batch<P: Probe>(st: &mut State, ctx: &RankCtx, _: &Shared, p: &mut P) -> Tally {
        if ctx.rank() != 0 {
            return Tally::default();
        }
        let win = &st.win;
        let mut failed = 0u64;
        let ones: [u8; ACC_LEN * 8] = {
            let mut b = [0u8; ACC_LEN * 8];
            for k in 0..ACC_LEN {
                b[k * 8..k * 8 + 8].copy_from_slice(&(k as u64 + 1).to_le_bytes());
            }
            b
        };
        let flush = |p: &mut P, failed: &mut u64| {
            let m = p.begin();
            let r = win.flush(1);
            p.end(Span::CoreFlush, m);
            *failed += r.is_err() as u64;
        };
        for c in st.cycles..st.cycles + CYCLES {
            // 8-byte get of a pattern word.
            let word = (c as usize) % (PATTERN / 8);
            let mut small = [0u8; 8];
            let m = p.begin();
            let r = win.get(&mut small, 1, word * 8);
            p.end(Span::CoreGet8, m);
            flush(p, &mut failed);
            failed +=
                (r.is_err() || u64::from_le_bytes(small) != pattern_word(st.seed, word)) as u64;

            // 4096-byte get of the whole pattern (checked in `verify`).
            let m = p.begin();
            let r = win.get(&mut st.big, 1, 0);
            p.end(Span::CoreGet4096, m);
            flush(p, &mut failed);
            failed += r.is_err() as u64;

            // fetch_and_op(SUM, 1): the old value counts the cycles so far.
            let mut old = [0u8; 8];
            let m = p.begin();
            let r = win.fetch_and_op(
                &1u64.to_le_bytes(),
                &mut old,
                NumKind::U64,
                MpiOp::Sum,
                1,
                FAO_CELL,
            );
            p.end(Span::CoreFetchAndOp, m);
            flush(p, &mut failed);
            failed += (r.is_err() || u64::from_le_bytes(old) != c) as u64;

            // compare_and_swap c -> c+1: always hits.
            let m = p.begin();
            let r = win.compare_and_swap(c + 1, c, 1, CAS_CELL);
            p.end(Span::CoreCas, m);
            flush(p, &mut failed);
            failed += !matches!(r, Ok(old) if old == c) as u64;

            // accumulate(SUM) of [1..=8] onto eight u64 cells.
            let m = p.begin();
            let r = win.accumulate(&ones, NumKind::U64, MpiOp::Sum, 1, ACC_CELLS);
            p.end(Span::CoreAccumulate, m);
            flush(p, &mut failed);
            failed += r.is_err() as u64;
        }
        st.cycles += CYCLES;
        Tally { ops: CYCLES * CALLS_PER_CYCLE, failed, ..Tally::default() }
    }

    /// Rank 0 checks the last 4096-byte payload; rank 1 checks, in its own
    /// memory, that every atomic of every cycle so far has landed.
    fn verify(st: &mut State, ctx: &RankCtx) -> u64 {
        let mut bad = 0u64;
        if ctx.rank() == 0 {
            for (w, chunk) in st.big.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().unwrap());
                bad += (v != pattern_word(st.seed, w)) as u64;
            }
        } else {
            st.cycles += CYCLES;
            let read = |off: usize| {
                let mut b = [0u8; 8];
                st.win.read_local(off, &mut b);
                u64::from_le_bytes(b)
            };
            bad += (read(FAO_CELL) != st.cycles) as u64;
            bad += (read(CAS_CELL) != st.cycles) as u64;
            for k in 0..ACC_LEN {
                bad += (read(ACC_CELLS + k * 8) != st.cycles * (k as u64 + 1)) as u64;
            }
        }
        bad
    }

    fn finish(st: State, ctx: &RankCtx) -> u64 {
        let bad = st.win.unlock_all().is_err() as u64;
        st.win.free(ctx);
        bad
    }
}
