//! `apps`: the paper's four application studies on their RMA back ends
//! (Figs. 7, 8). One cycle is the distributed hashtable's inserts, 16 DSDE
//! rounds, a MILC CG solve and a 3-D FFT. Time to solution is compute plus
//! fences and allreduces with little hot-path work, so a `put_rate` gain
//! should not move it and a collective or fence gain should.

use crate::harness::{Meter, Shared, Tally, Workload};
use crate::probe::{Probe, Span};
use crate::report::Bill;
use fompi::Win;
use fompi_apps::dsde;
use fompi_apps::fft::{self, FftConfig};
use fompi_apps::hashtable::{self, HtConfig};
use fompi_apps::milc::{self, MilcConfig};
use fompi_runtime::RankCtx;

pub const INSERTS_PER_RANK: usize = 2048;
const DSDE_ROUNDS: u64 = 16;
pub const MILC_ITERS: usize = 8;
const FFT_N: usize = 32;

pub struct Apps;

pub struct State {
    dsde_win: Win,
    ht: HtConfig,
    milc: MilcConfig,
    fft: FftConfig,
    /// This rank's x-slab of the serial reference transform.
    fft_ref: Vec<fft::C64>,
    /// What the first cycle produced; inputs repeat, so every later cycle
    /// must reproduce it bit for bit.
    first: Option<(Vec<f64>, u64)>,
    /// The last cycle's outputs, checked in `verify`.
    last: Option<Cycle>,
    seed: u64,
}

struct Cycle {
    local_elements: usize,
    residuals: Vec<f64>,
    slab: Vec<fft::C64>,
}

/// Order-sensitive fold of the slab's bit patterns.
fn checksum(slab: &[fft::C64]) -> u64 {
    slab.iter()
        .fold(0u64, |h, c| (h.rotate_left(5) ^ c.re.to_bits()).rotate_left(5) ^ c.im.to_bits())
}

impl State {
    /// One cycle. Returns the failed DSDE rounds (each round checks its own
    /// delivery) and leaves the rest for `verify`.
    fn cycle<P: Probe>(&mut self, ctx: &RankCtx, p: &mut P) -> u64 {
        let (me, peer) = (ctx.rank() as u64, 1 - ctx.rank() as u64);
        let m = p.begin();
        let ht = hashtable::run_rma(ctx, &self.ht);
        p.end(Span::AppHashtable, m);

        let mut failed = 0u64;
        for round in 0..DSDE_ROUNDS {
            let m = p.begin();
            let r = dsde::run_rma(ctx, &self.dsde_win, 1, self.seed + round);
            p.end(Span::AppDsdeRound, m);
            // k = 1 of p = 2: the one message comes from the peer.
            failed += (r.received != [(peer << 32) | me]) as u64;
        }

        let m = p.begin();
        let cg = milc::run_rma(ctx, &self.milc);
        p.end(Span::AppMilc, m);

        let m = p.begin();
        let fft = fft::run_rma(ctx, &self.fft);
        p.end(Span::AppFft, m);

        self.last = Some(Cycle {
            local_elements: ht.local_elements,
            residuals: cg.residuals,
            slab: fft.local_out,
        });
        failed
    }
}

impl Workload for Apps {
    const PARK: bool = false;
    /// `hashtable`, `milc` and `fft::run_rma` allocate a window per call and
    /// nothing frees it (`Win` has no `Drop`; for a later issue), so the
    /// process grows by about 0.8 MiB per cycle. Warm up for a fixed number
    /// of cycles and read the peak RSS after as many timed ones, so that the
    /// figure does not depend on how many cycles fit in the window.
    const LEAK_GUARD: Option<u64> = Some(24);
    type State = State;

    fn setup(ctx: &RankCtx, seed: u64) -> State {
        let dsde_win = Win::allocate(ctx, dsde::rma_win_bytes(ctx.size()), 1).expect("dsde window");
        let fft_cfg = FftConfig { n: FFT_N, seed };
        // The reference transform is the benchmark's own work, done once.
        let serial = fft::fft3d_serial(&fft_cfg);
        let (n, nxl, x0) = (FFT_N, FFT_N / ctx.size(), ctx.rank() as usize * (FFT_N / ctx.size()));
        let mut fft_ref = Vec::with_capacity(n * n * nxl);
        for zy in 0..n * n {
            fft_ref.extend_from_slice(&serial[zy * n + x0..zy * n + x0 + nxl]);
        }
        State {
            dsde_win,
            ht: HtConfig {
                inserts_per_rank: INSERTS_PER_RANK,
                table_slots: 2 * INSERTS_PER_RANK,
                heap_cells: 2 * INSERTS_PER_RANK,
                seed,
            },
            milc: MilcConfig { local: [4, 4, 4, 8], iters: MILC_ITERS, seed },
            fft: fft_cfg,
            fft_ref,
            first: None,
            last: None,
            seed,
        }
    }

    fn batch<P: Probe>(st: &mut State, ctx: &RankCtx, _: &Shared, p: &mut P) -> Tally {
        let failed = st.cycle(ctx, p);
        Tally { ops: 1, failed, ..Tally::default() }
    }

    fn verify(st: &mut State, ctx: &RankCtx) -> u64 {
        let cycle = st.last.take().expect("verify follows a batch");
        let mut bad = 0u64;
        // Every insert of every rank is in exactly one rank's volume.
        let stored = ctx.allreduce_u64(cycle.local_elements as u64, |a, b| a + b);
        bad += (stored != (ctx.size() * INSERTS_PER_RANK) as u64) as u64;
        let sum = checksum(&cycle.slab);
        match &st.first {
            None => {
                let close =
                    cycle.slab.len() == st.fft_ref.len()
                        && cycle.slab.iter().zip(&st.fft_ref).all(|(a, b)| {
                            (a.re - b.re).abs() <= 1e-9 && (a.im - b.im).abs() <= 1e-9
                        });
                let converging = cycle.residuals.len() == MILC_ITERS
                    && cycle.residuals.iter().all(|r| r.is_finite())
                    && cycle.residuals[MILC_ITERS - 1] < cycle.residuals[0];
                bad += !close as u64 + !converging as u64;
                st.first = Some((cycle.residuals, sum));
            }
            Some((residuals, first_sum)) => {
                let same = residuals
                    .iter()
                    .map(|r| r.to_bits())
                    .eq(cycle.residuals.iter().map(|r| r.to_bits()));
                bad += !same as u64 + (sum != *first_sum) as u64;
            }
        }
        bad
    }

    fn finish(st: State, ctx: &RankCtx) -> u64 {
        let bad = st.dsde_win.fence_assert(fompi::ASSERT_NOSUCCEED).is_err() as u64;
        st.dsde_win.free(ctx);
        bad
    }
}

/// Fabric-op counts of each study, both ranks together (the studies are
/// symmetric), from one cycle with the counters read between studies. Every
/// `run_rma` ends in a barrier or fence, so at each reading both ranks are
/// done. Rank 0 returns the bills, per insert / round / iteration / solve.
pub fn bills(ctx: &RankCtx, seed: u64) -> Vec<Bill> {
    let mut st = Apps::setup(ctx, seed);
    let ranks = ctx.size() as u64;
    let mut bills = Vec::new();
    let mut meter = Meter::start(ctx);
    let mut study = |name: &'static str, calls: u64, run: &mut dyn FnMut(&mut State)| {
        run(&mut st);
        let mut bill = Bill::new(name);
        bill.add(&meter.lap(ctx), calls * ranks);
        bills.push(bill);
    };
    study("apps.hashtable_insert", INSERTS_PER_RANK as u64, &mut |st| {
        hashtable::run_rma(ctx, &st.ht);
    });
    study("apps.dsde_round", DSDE_ROUNDS, &mut |st| {
        for round in 0..DSDE_ROUNDS {
            dsde::run_rma(ctx, &st.dsde_win, 1, seed + round);
        }
    });
    study("apps.milc_iter", MILC_ITERS as u64, &mut |st| {
        milc::run_rma(ctx, &st.milc);
    });
    study("apps.fft_solve", 1, &mut |st| {
        fft::run_rma(ctx, &st.fft);
    });
    Apps::finish(st, ctx);
    if ctx.rank() == 0 {
        bills
    } else {
        Vec::new()
    }
}
