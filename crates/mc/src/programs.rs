//! The protocol table: every program the soak ([`crate::soak`]) and the
//! model checker ([`crate::check`]) run, written once over the real
//! stacks — `fompi`'s synchronisation protocols, `fompi-msg`'s channel,
//! the `fompi-rmc` shapes and `fompi-txn`'s commit.
//!
//! A body runs on every rank of a universe of any `p ≥ 2` (the rank
//! count is the universe's) for [`Shape::epochs`] epochs, with its data
//! derived from [`Shape::seed`]. It returns its **declared-stable
//! digest**, which the checker requires byte-equal across every explored
//! schedule — so digests fold arrival-order-*insensitive* data (per-record
//! hashes summed) wherever the protocol leaves arrival order unspecified,
//! and ordered data only where it guarantees FIFO — or the first
//! invariant it saw violated, as text.
//!
//! The protocols are bufferless (§2.3): all transient state lives in the
//! window metadata words, so every body ends with the rest-state check of
//! [`Win::metadata_residue`], after its final barrier — its own, or the
//! first one of [`Win::free`] (`lane::close` makes a façade's teardown
//! report it).
//!
//! [`Program::mc`] is the smallest instance that still exercises the
//! protocol's ordering decisions: exploration cost is exponential in
//! announced conflicting operations. [`MUTANTS`] are deliberately broken
//! twins proving the checker catches the bug classes it claims to; only
//! the checker runs them.

use fompi::{FetchAmo, FompiError, LockType, MpiOp, NumKind, Win};
use fompi_fabric::rng::{splitmix64, Rng};
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_rmc::{fanin, mesh, rpc, FaninEnd, RmcConfig, RpcEnd};
use fompi_runtime::{Group, RankCtx};
use fompi_txn::{versions_consistent, RetryPolicy, Txn, VersionedCell};
use std::fmt::Display;

/// How large a runner makes a program.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Epochs per rank (rounds, messages per edge, transactions).
    pub epochs: usize,
    /// Root of the program's data (payloads, lock targets, pairings).
    pub seed: u64,
}

/// A rank's digest, or the first invariant it saw violated.
pub type Verdict = Result<u64, String>;

/// One row of the table.
#[derive(Clone, Copy)]
pub struct Program {
    /// Name in `soak.csv`, `mc_summary.csv`, schedules and test output.
    pub name: &'static str,
    /// The per-rank body.
    pub body: fn(&mut RankCtx, &Shape) -> Verdict,
    /// `(p, epochs)` the model checker explores exhaustively; `None` when
    /// a wait of the program cannot park under the gate yet.
    pub mc: Option<(usize, usize)>,
    /// Are the virtual clocks and the fault count of a soak run a function
    /// of (p, seed, fault plan)? Contended protocols (who wins a lock, which
    /// producer's message lands first) are not.
    pub stable: bool,
}

/// The instance most rows are explored at.
const P2E2: Option<(usize, usize)> = Some((2, 2));

/// Every well-formed program, in soak order. The soak derives each cell's
/// seeds from the row's name, so rows may move and go.
pub const PROGRAMS: [Program; 14] = [
    Program { name: "fence", body: fence, mc: P2E2, stable: true },
    Program { name: "pscw", body: pscw, mc: P2E2, stable: true },
    Program { name: "lock", body: lock, mc: P2E2, stable: false },
    Program { name: "lock_all", body: |ctx, s| lock_all(ctx, s, false), mc: P2E2, stable: true },
    Program { name: "mcs", body: mcs, mc: P2E2, stable: false },
    Program { name: "notify", body: notify, mc: P2E2, stable: true },
    Program { name: "flush", body: flush, mc: P2E2, stable: true },
    Program { name: "txn_transfer", body: txn_transfer, mc: P2E2, stable: true },
    Program { name: "msg_channel", body: msg_channel, mc: P2E2, stable: true },
    Program { name: "rmc_fanin", body: rmc_fanin, mc: Some((3, 1)), stable: false },
    Program { name: "rmc_mesh", body: |ctx, s| rmc_mesh(ctx, s, false), mc: P2E2, stable: true },
    Program { name: "rpc_timeout", body: rpc_timeout, mc: P2E2, stable: false },
    Program { name: "txn_commit", body: txn_commit, mc: Some((2, 1)), stable: true },
    Program {
        name: "txn_readonly",
        body: |ctx, s| txn_readonly(ctx, s, Reader::Txn),
        mc: Some((2, 1)),
        stable: false,
    },
];

/// The paper's protocols again, at three ranks and one epoch: a third rank
/// is the smallest job where two origins race for one target while a
/// bystander's epoch interleaves. Only the checker runs them (the soak
/// already runs every row of [`PROGRAMS`] at 4 and 6 ranks).
pub const THREE_RANKS: [Program; 7] = [
    Program { name: "fence_p3", body: fence, mc: P3E1, stable: true },
    Program { name: "pscw_p3", body: pscw, mc: P3E1, stable: true },
    Program { name: "lock_p3", body: lock, mc: P3E1, stable: false },
    Program { name: "lock_all_p3", body: |ctx, s| lock_all(ctx, s, false), mc: P3E1, stable: true },
    Program { name: "mcs_p3", body: mcs, mc: P3E1, stable: false },
    Program { name: "notify_p3", body: notify, mc: P3E1, stable: true },
    Program { name: "flush_p3", body: flush, mc: P3E1, stable: true },
];

/// The instance of [`THREE_RANKS`].
const P3E1: Option<(usize, usize)> = Some((3, 1));

/// The broken twins. Each must produce a replayable counterexample.
pub const MUTANTS: [Program; 5] = [
    Program {
        name: "mesh_credit_leak",
        body: |ctx, s| rmc_mesh(ctx, s, true),
        mc: P2E2,
        stable: false,
    },
    Program { name: "txn_lost_publish", body: txn_lost_publish, mc: P2E2, stable: false },
    Program {
        name: "txn_skip_first_validate",
        body: |ctx, s| txn_readonly(ctx, s, Reader::Unvalidated),
        mc: Some((2, 1)),
        stable: false,
    },
    Program {
        name: "txn_refetch_first",
        body: |ctx, s| txn_readonly(ctx, s, Reader::RefetchFirst),
        mc: Some((2, 1)),
        stable: false,
    },
    Program {
        name: "unlock_all_skipped",
        body: |ctx, s| lock_all(ctx, s, true),
        mc: P2E2,
        stable: false,
    },
];

/// Look a program up by name across the three lists.
pub fn find(name: &str) -> Option<Program> {
    PROGRAMS.iter().chain(&THREE_RANKS).chain(&MUTANTS).find(|p| p.name == name).copied()
}

// ------------------------------------------------------------------ helpers

/// A layer's error is a violation, as text.
trait Txt<T> {
    fn txt(self) -> Result<T, String>;
}

impl<T, E: Display> Txt<T> for Result<T, E> {
    fn txt(self) -> Result<T, String> {
        self.map_err(|e| e.to_string())
    }
}

fn ensure(holds: bool, violation: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(violation())
    }
}

/// The bufferless rest state, from [`Win::metadata_residue`] or [`Win::free`].
fn at_rest(residue: Vec<(&'static str, u64, u64)>) -> Result<(), String> {
    match residue.first() {
        Some(&(word, got, want)) => Err(FompiError::NotAtRest { word, got, want }.to_string()),
        None => Ok(()),
    }
}

/// Order-*sensitive* fold for FIFO edges; order-insensitive digests sum
/// `splitmix64` of each record instead.
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ splitmix64(v))
}

fn le(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().expect("8-byte payload"))
}

fn read_u64(win: &Win, off: usize) -> u64 {
    let mut b = [0u8; 8];
    win.read_local(off, &mut b);
    u64::from_le_bytes(b)
}

/// Deterministic epoch payload, nonzero so "slot never written" is
/// distinguishable from "wrong value written".
fn payload(seed: u64, epoch: usize, rank: u32) -> u64 {
    splitmix64(seed ^ ((epoch as u64) << 20) ^ (rank as u64 + 1)) | 1
}

/// Deterministic lock target for (epoch, rank): every rank can recompute
/// everyone's picks, so counter conservation needs no extra collective.
fn pick_target(seed: u64, epoch: usize, rank: u32, p: usize) -> u32 {
    (splitmix64(seed ^ 0xC0FF_EE00 ^ ((epoch as u64) << 16) ^ (rank as u64)) % p as u64) as u32
}

/// Increments every rank's picks land on `me`.
fn picked(s: &Shape, p: usize, me: u32) -> u64 {
    let picks = |r| (0..s.epochs).filter(|&e| pick_target(s.seed, e, r, p) == me).count();
    (0..p as u32).map(picks).sum::<usize>() as u64
}

fn neighbors(me: u32, p: usize) -> (u32, u32) {
    let p = p as u32;
    ((me + p - 1) % p, (me + 1) % p)
}

/// The 8 bytes at `off` of this rank's window must be `from`'s payload
/// of epoch `e`.
fn landed(win: &Win, off: usize, s: &Shape, e: usize, from: u32) -> Verdict {
    let (got, want) = (read_u64(win, off), payload(s.seed, e, from));
    ensure(got == want, || format!("epoch {e}: slot from rank {from} = {got:#x}, want {want:#x}"))?;
    Ok(got)
}

// ------------------------------------------------------- the paper's protocols

/// Fence epochs, one put to the right neighbour each.
fn fence(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, p * 8, 1).txt()?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    let mut h = 0;
    win.fence().txt()?;
    for e in 0..s.epochs {
        win.put(&payload(s.seed, e, me).to_le_bytes(), right, me as usize * 8).txt()?;
        win.fence().txt()?;
        h = mix(h, landed(&win, left as usize * 8, s, e, left)?);
        // Second fence: the local verification read above must not race
        // with the left neighbour's next-epoch put into the same slot.
        win.fence().txt()?;
    }
    win.fence_assert(fompi::ASSERT_NOSUCCEED).txt()?;
    ctx.barrier();
    at_rest(win.metadata_residue())?;
    Ok(h)
}

/// A PSCW ring over the Figure-2 matching lists.
fn pscw(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, p * 8, 1).txt()?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    let (exposure, access) = (Group::new([left]), Group::new([right]));
    let mut h = 0;
    for e in 0..s.epochs {
        win.post(&exposure).txt()?;
        win.start(&access).txt()?;
        win.put(&payload(s.seed, e, me).to_le_bytes(), right, me as usize * 8).txt()?;
        win.complete().txt()?;
        win.wait().txt()?;
        h = mix(h, landed(&win, left as usize * 8, s, e, left)?);
    }
    ctx.barrier();
    at_rest(win.metadata_residue())?;
    Ok(h)
}

/// Exclusive per-target locks incrementing a counter: conservation.
fn lock(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, 16, 1).txt()?;
    let me = ctx.rank();
    ctx.barrier();
    for e in 0..s.epochs {
        let t = pick_target(s.seed, e, me, p);
        win.lock(LockType::Exclusive, t).txt()?;
        let mut b = [0u8; 8];
        win.get(&mut b, t, 0).txt()?;
        win.flush(t).txt()?;
        win.put(&(u64::from_le_bytes(b).wrapping_add(1)).to_le_bytes(), t, 0).txt()?;
        win.unlock(t).txt()?;
    }
    ctx.barrier();
    let (got, want) = (read_u64(&win, 0), picked(s, p, me));
    ensure(got == want, || format!("counter = {got}, want {want}"))?;
    at_rest(win.metadata_residue())?;
    Ok(got)
}

/// lock_all epochs with hardware-AMO accumulates: conservation.
///
/// MUTANT (`skip_last_unlock`): the last rank skips its last `unlock_all`,
/// so the master's global lock word keeps one lock_all holder. Every
/// epoch error, racecheck and counter check passes; only the rest state,
/// read before anything else after the final barrier, can see it.
fn lock_all(ctx: &mut RankCtx, s: &Shape, skip_last_unlock: bool) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, 16, 1).txt()?;
    let me = ctx.rank();
    ctx.barrier();
    for e in 0..s.epochs {
        win.lock_all().txt()?;
        let t = pick_target(s.seed, e, me, p);
        win.accumulate(&1u64.to_le_bytes(), NumKind::U64, MpiOp::Sum, t, 0).txt()?;
        win.flush_all().txt()?;
        // BUG under test (mutant): the last epoch of the last rank stays open.
        if !(skip_last_unlock && e + 1 == s.epochs && me as usize + 1 == p) {
            win.unlock_all().txt()?;
        }
    }
    ctx.barrier();
    at_rest(win.metadata_residue())?;
    let (got, want) = (read_u64(&win, 0), picked(s, p, me));
    ensure(got == want, || format!("counter = {got}, want {want}"))?;
    Ok(got)
}

/// The MCS queue lock guarding a counter on rank 0.
fn mcs(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, 16, 1).txt()?;
    let me = ctx.rank();
    ctx.barrier();
    for _ in 0..s.epochs {
        win.mcs_lock().txt()?;
        let mut b = [0u8; 8];
        win.get(&mut b, 0, 0).txt()?;
        win.flush(0).txt()?;
        win.put(&(u64::from_le_bytes(b).wrapping_add(1)).to_le_bytes(), 0, 0).txt()?;
        win.mcs_unlock().txt()?;
    }
    ctx.barrier();
    let got = read_u64(&win, 0);
    if me == 0 {
        let want = (p * s.epochs) as u64;
        ensure(got == want, || format!("counter = {got}, want {want}"))?;
    }
    at_rest(win.metadata_residue())?;
    Ok(got)
}

/// A notified-access ring: counter exactness and payloads.
fn notify(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, p * s.epochs * 8, 1).txt()?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    win.lock_all().txt()?;
    for e in 0..s.epochs {
        let disp = (me as usize * s.epochs + e) * 8;
        win.put_signal(&payload(s.seed, e, me).to_le_bytes(), right, disp, 0).txt()?;
    }
    win.signal_wait(0, s.epochs as u64).txt()?;
    // Only the left neighbour targets slot 0 here, so the counter must be
    // *exactly* its epoch count — a lost or duplicated notification is a
    // violation even though signal_wait already returned.
    let n = win.signal_test(0).txt()?;
    ensure(n == s.epochs as u64, || format!("counter = {n}, want {}", s.epochs))?;
    let mut h = 0;
    for e in 0..s.epochs {
        h = mix(h, landed(&win, (left as usize * s.epochs + e) * 8, s, e, left)?);
    }
    win.unlock_all().txt()?;
    ctx.barrier();
    at_rest(win.metadata_residue())?;
    Ok(h)
}

/// Passive target: put + flush, read-back verification per epoch.
fn flush(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, p * 8, 1).txt()?;
    let me = ctx.rank();
    let (_, right) = neighbors(me, p);
    let disp = me as usize * 8;
    win.lock_all().txt()?;
    for e in 0..s.epochs {
        let val = payload(s.seed, e, me);
        // Alternate the implicit and the request-based paths: rput/rget
        // exercise the backpressure-rejection retry in `Win::rput`.
        if e % 2 == 0 {
            win.put(&val.to_le_bytes(), right, disp).txt()?;
        } else {
            win.rput(&val.to_le_bytes(), right, disp).txt()?.wait();
        }
        win.flush(right).txt()?;
        let mut b = [0u8; 8];
        if e % 2 == 0 {
            win.get(&mut b, right, disp).txt()?;
        } else {
            win.rget(&mut b, right, disp).txt()?.wait();
        }
        win.flush(right).txt()?;
        // We are the only writer of that slot and our put completed at the
        // flush, so the read-back must match exactly.
        let got = u64::from_le_bytes(b);
        ensure(got == val, || format!("epoch {e}: read-back = {got:#x}, want {val:#x}"))?;
    }
    win.unlock_all().txt()?;
    ctx.barrier();
    at_rest(win.metadata_residue())?;
    Ok(0)
}

/// Versioned cell: version word + one u64 payload.
const CELL: usize = 16;

/// Initial balance of global cell `c` — nonzero and seed-dependent, so a
/// never-written cell is distinguishable from a zero balance.
fn txn_init_balance(seed: u64, c: usize) -> u64 {
    splitmix64(seed ^ 0xBA1A_4CE5 ^ (c as u64 + 1)) | 1
}

/// Seed-derived pairing of the `2p` transfer cells for one epoch: a
/// Fisher–Yates permutation, chopped into `p` disjoint pairs. Rank `r`
/// handles pair `r`. Disjointness means no two ranks ever contend for a
/// version word, so every commit wins first try and the operations a rank
/// sends — hence the fault draws and the virtual clocks — do not depend
/// on the schedule.
fn txn_pairing(seed: u64, epoch: usize, p: usize) -> Vec<usize> {
    let cells = 2 * p;
    let mut perm: Vec<usize> = (0..cells).collect();
    let mut rng = Rng::seed_from_u64(splitmix64(seed ^ 0x7AB1_E0F0 ^ ((epoch as u64) << 8)));
    for i in (1..cells).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Transfer amount rank `r` moves in `epoch` (wrapping arithmetic keeps
/// the conserved sum exact even if balances wrap).
fn txn_amount(seed: u64, epoch: usize, r: u32) -> u64 {
    splitmix64(seed ^ 0xF00D ^ ((epoch as u64) << 24) ^ (r as u64 + 1)) % 1024
}

/// Two-key transfers through the real `fompi_txn::run` over a seed-derived
/// *disjoint* pairing of all `2p` cells (two per rank). With a retry
/// budget of one attempt, a conflict or torn read — impossible between
/// barrier-separated disjoint pairs — is a violation. Every rank replays
/// the campaign for the exact final balances and versions; the conserved
/// total is allreduced.
fn txn_transfer(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, 2 * CELL, 1).txt()?;
    let me = ctx.rank();
    // Global cell c lives on rank c/2 at displacement (c%2)*16: cell order
    // is the commit's (rank, disp) lock order.
    let cell = |c: usize| VersionedCell::new((c / 2) as u32, (c % 2) * CELL, 8);
    for slot in 0..2 {
        let balance = txn_init_balance(s.seed, me as usize * 2 + slot);
        VersionedCell::init_local(&win, slot * CELL, &balance.to_le_bytes());
    }
    ctx.barrier();
    let once = RetryPolicy::Immediate { budget: 1 };
    let mut rng = Rng::seed_from_u64(s.seed);
    for e in 0..s.epochs {
        let perm = txn_pairing(s.seed, e, p);
        let (a, b) = (perm[2 * me as usize], perm[2 * me as usize + 1]);
        let amt = txn_amount(s.seed, e, me);
        let (lo, hi) = (a.min(b), a.max(b));
        win.lock_all().txt()?;
        fompi_txn::run(&win, &once, &mut rng, |txn| {
            let mut bal = [[0u8; 8]; 2];
            txn.read(cell(lo), &mut bal[0])?;
            txn.read(cell(hi), &mut bal[1])?;
            let [l, h] = bal.map(u64::from_le_bytes);
            let (l, h) = if a == lo {
                (l.wrapping_sub(amt), h.wrapping_add(amt))
            } else {
                (l.wrapping_add(amt), h.wrapping_sub(amt))
            };
            txn.write(cell(lo), &l.to_le_bytes())?;
            txn.write(cell(hi), &h.to_le_bytes())
        })
        .map_err(|err| format!("epoch {e}: transfer {a} -> {b} did not commit first try: {err}"))?;
        win.unlock_all().txt()?;
        // Next epoch's pairing may hand these cells to other ranks.
        ctx.barrier();
    }
    let mut model: Vec<u64> = (0..2 * p).map(|c| txn_init_balance(s.seed, c)).collect();
    for e in 0..s.epochs {
        let perm = txn_pairing(s.seed, e, p);
        for r in 0..p {
            let amt = txn_amount(s.seed, e, r as u32);
            model[perm[2 * r]] = model[perm[2 * r]].wrapping_sub(amt);
            model[perm[2 * r + 1]] = model[perm[2 * r + 1]].wrapping_add(amt);
        }
    }
    let mut local_sum = 0u64;
    for slot in 0..2 {
        let c = me as usize * 2 + slot;
        let (version, want) = (read_u64(&win, slot * CELL), 2 * s.epochs as u64);
        ensure(version == want, || format!("cell {c} version = {version}, want {want}"))?;
        let got = read_u64(&win, slot * CELL + 8);
        ensure(got == model[c], || format!("cell {c} balance = {got:#x}, want {:#x}", model[c]))?;
        local_sum = local_sum.wrapping_add(got);
    }
    // Conservation: transfers move value, they never mint or burn it.
    let total = ctx.allreduce_u64(local_sum, u64::wrapping_add);
    let want = (0..2 * p).fold(0u64, |sum, c| sum.wrapping_add(txn_init_balance(s.seed, c)));
    ensure(total == want, || format!("conserved sum = {total:#x}, want {want:#x}"))?;
    at_rest(win.metadata_residue())?;
    Ok(total)
}

// ------------------------------------------------- channels, rmc shapes, txn

/// An SPSC channel from rank 0 to the last rank, one slot: every send
/// after the first waits for the consumer's credit, so flow control is on
/// the explored path. The edge is FIFO — the receiver folds in order.
/// Ranks in between are bystanders.
fn msg_channel(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let consumer = ctx.size() as u32 - 1;
    let message = |e: usize| 11 * (e as u64 + 1);
    match channel(ctx, 0, consumer, 1, 8).txt()? {
        Some(ChannelEnd::Sender(mut tx)) => {
            for e in 0..s.epochs {
                tx.send(&message(e).to_le_bytes()).txt()?;
            }
            tx.close(ctx).txt()?;
            Ok(0)
        }
        Some(ChannelEnd::Receiver(mut rx)) => {
            let (mut h, mut buf) = (0, [0u8; 8]);
            for e in 0..s.epochs {
                rx.recv(&mut buf).txt()?;
                ensure(le(&buf) == message(e), || format!("message {e} = {}", le(&buf)))?;
                h = mix(h, le(&buf));
            }
            rx.close(ctx).txt()?;
            Ok(h)
        }
        None => Ok(0),
    }
}

/// Message `e` of fan-in producer `rank`.
fn fanin_message(rank: u32, e: usize) -> u64 {
    ((rank as u64 + 1) * 7) | ((e as u64) << 32)
}

/// Every other rank fans into the last one. Arrival *order* across
/// producers is schedule-dependent by design, so the consumer's digest
/// sums per-record hashes — the set of deliveries is the stable output.
fn rmc_fanin(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let consumer = ctx.size() as u32 - 1;
    let producers: Vec<u32> = (0..consumer).collect();
    match fanin(ctx, consumer, &producers, 1, 8).txt()?.expect("every rank is an end") {
        FaninEnd::Producer(mut tx) => {
            for e in 0..s.epochs {
                tx.send(&fanin_message(ctx.rank(), e).to_le_bytes()).txt()?;
            }
            tx.close(ctx).txt()?;
            Ok(0)
        }
        FaninEnd::Consumer(mut rx) => {
            let (mut h, mut buf, mut next) = (0u64, [0u8; 8], vec![0; producers.len()]);
            for _ in 0..producers.len() * s.epochs {
                let (src, _) = rx.recv(&mut buf).txt()?;
                // Each producer's own stream is FIFO.
                let want = fanin_message(src, next[src as usize]);
                ensure(le(&buf) == want, || {
                    format!("{:#x} from rank {src}, want {want:#x}", le(&buf))
                })?;
                next[src as usize] += 1;
                h = h.wrapping_add(splitmix64(((src as u64) << 32) ^ le(&buf)));
            }
            rx.close(ctx).txt()?;
            Ok(h)
        }
    }
}

/// Every rank sends one message a round to its right neighbour over a
/// one-slot mesh: round r+1's send needs round r's *lazily flushed*
/// credit, so the batched credit-return path is what the checker
/// interleaves.
///
/// MUTANT (`leak`): the round-0 credit return is dropped. Every round-1
/// send then waits forever for a credit nobody will flush — the checker
/// must report a global deadlock.
fn rmc_mesh(ctx: &mut RankCtx, s: &Shape, leak: bool) -> Verdict {
    let mut m = mesh(ctx, &RmcConfig { slots: 1, slot_bytes: 8, ..RmcConfig::default() }).txt()?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, ctx.size());
    let (mut h, mut buf) = (0u64, [0u8; 8]);
    for round in 0..s.epochs as u64 {
        m.send(right, &(((me as u64) << 8) | round).to_le_bytes()).txt()?;
        let (src, _) = m.recv(&mut buf).txt()?;
        let want = ((left as u64) << 8) | round;
        ensure(src == left && le(&buf) == want, || {
            format!("round {round}: {:#x} from rank {src}, want {want:#x} from {left}", le(&buf))
        })?;
        h = h.wrapping_add(splitmix64(((src as u64) << 32) ^ le(&buf)));
        // BUG under test (mutant): round 0's slot is never credited back.
        if !leak || round > 0 {
            m.flush_credits().txt()?;
        }
    }
    m.close(ctx).txt()?;
    Ok(h)
}

/// Request/response with a virtual-time deadline: rank 0 serves every
/// other rank, one request in flight each. It charges 1 ms before
/// answering each client's odd-numbered call, blowing the 100 µs deadline
/// in *every* schedule, and the late reply's slot still recycles: the
/// client drops the reply and issues its next call into that slot (the
/// request is the reply's credit, so no credit flows back). An
/// even-numbered call is answered at once, so it must succeed — unless
/// it can queue behind another client's stalled call, or injected faults
/// stretch its round trip past the deadline.
fn rpc_timeout(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let cfg = RmcConfig { slots: 1, slot_bytes: 8, rpc_budget: 1, rpc_timeout_ns: 100_000 };
    let clients: Vec<u32> = (1..ctx.size() as u32).collect();
    let answer = |call: u64| if call % 2 == 1 { 77u64 } else { 99 };
    let even_may_time_out = clients.len() > 1 || ctx.fabric().faults().active();
    match rpc(ctx, 0, &clients, &cfg).txt()?.expect("every rank is an end") {
        RpcEnd::Server(mut srv) => {
            for _ in 0..clients.len() * s.epochs {
                let q = srv.recv().txt()?;
                if q.corr % 2 == 1 {
                    ctx.ep().charge(1_000_000.0);
                }
                srv.reply(&q, &answer(q.corr).to_le_bytes()).txt()?;
            }
            srv.close(ctx).txt()?;
            Ok(0)
        }
        RpcEnd::Client(mut cl) => {
            let (mut h, mut buf) = (0, [0u8; 8]);
            for call in 0..s.epochs as u64 {
                let got = match cl.call(&(call + 1).to_le_bytes(), &mut buf) {
                    // Only an even call can beat its deadline.
                    Ok(_) if call % 2 == 0 && le(&buf) == answer(call) => le(&buf),
                    Err(e) if e.is_transient() && (call % 2 == 1 || even_may_time_out) => 0xDEAD,
                    other => return Err(format!("call {call}: {other:?} (reply {:#x})", le(&buf))),
                };
                h = mix(h, got);
            }
            cl.close(ctx).txt()?;
            Ok(h)
        }
    }
}

/// Every rank runs the full optimistic commit protocol (lock-CAS,
/// validate, publish) against its own cell on rank 0, then everyone reads
/// every payload back. Disjoint cells keep the exploration small while
/// still interleaving every phase of two commits; the shared-cell path is
/// [`txn_readonly`]'s and [`txn_lost_publish`]'s.
fn txn_commit(ctx: &mut RankCtx, s: &Shape) -> Verdict {
    let p = ctx.size();
    let win = Win::allocate(ctx, p * CELL, 1).txt()?;
    for c in 0..p {
        VersionedCell::init_local(&win, c * CELL, &0u64.to_le_bytes());
    }
    ctx.barrier();
    win.lock_all().txt()?;
    let me = ctx.rank();
    let cell = VersionedCell::new(0, me as usize * CELL, 8);
    let policy = RetryPolicy::default();
    let mut rng = Rng::seed_from_u64(7 + me as u64);
    for _ in 0..s.epochs {
        fompi_txn::run(&win, &policy, &mut rng, |txn| {
            let mut b = [0u8; 8];
            txn.read(cell, &mut b)?;
            txn.write(cell, &le(&b).wrapping_add(me as u64 + 1).to_le_bytes())
        })
        .txt()?;
    }
    ctx.barrier();
    let mut h = 0;
    for c in 0..p {
        let mut b = [0u8; 8];
        VersionedCell::new(0, c * CELL, 8).read(&win, &mut b).txt()?;
        let want = (c as u64 + 1) * s.epochs as u64;
        ensure(le(&b) == want, || format!("cell {c} = {}, want {want}", le(&b)))?;
        h = mix(h, le(&b));
    }
    win.unlock_all().txt()?;
    at_rest(win.free(ctx))?;
    Ok(h)
}

/// MUTANT: rank 1 hand-rolls the commit's lock phase on a shared cell
/// and *drops the publish CAS*, leaving the seqlock version odd forever.
/// Rank 0's bounded versioned-read retry then gives up — the
/// counterexample every schedule must reach.
fn txn_lost_publish(ctx: &mut RankCtx, _: &Shape) -> Verdict {
    let win = Win::allocate(ctx, CELL, 1).txt()?;
    VersionedCell::init_local(&win, 0, &0u64.to_le_bytes());
    ctx.barrier();
    win.lock_all().txt()?;
    if ctx.rank() == 1 {
        // Lock phase of the commit protocol: version 0 -> 1 (odd = locked)...
        let prev = win.compare_and_swap(1, 0, 0, 0).txt()?;
        ensure(prev == 0, || "lock CAS lost with no contention".into())?;
        // ...BUG under test: the publish CAS (1 -> 2) never happens.
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let cell = VersionedCell::new(0, 0, 8);
        let mut b = [0u8; 8];
        let published = (0..3).any(|_| cell.read(&win, &mut b).is_ok());
        ensure(published, || "cell never published: version stuck odd (lost publish CAS)".into())?;
    }
    win.unlock_all().txt()?;
    at_rest(win.free(ctx))?;
    Ok(0)
}

/// A cell with a two-word payload `[value | !value]`: its versioned read
/// is a four-element list, so the fetching AMO list is on the explored
/// path.
const WIDE: usize = 24;
const WIDE_PAYLOAD: usize = 16;
/// What cells A and B hold between them, before and after the transfers.
const HELD: (u64, u64) = (60, 40);
const MOVED: u64 = 7;

fn wide(value: u64) -> [u8; WIDE_PAYLOAD] {
    let mut payload = [0u8; WIDE_PAYLOAD];
    payload[..8].copy_from_slice(&value.to_le_bytes());
    payload[8..].copy_from_slice(&(!value).to_le_bytes());
    payload
}

/// The value of a payload that passed the version check: whole.
fn whole(payload: &[u8]) -> u64 {
    let value = le(payload);
    assert_eq!(le(&payload[8..]), !value, "torn payload passed the version check");
    value
}

fn read_wide(txn: &mut Txn, cell: VersionedCell) -> fompi_txn::Result<u64> {
    let mut payload = [0u8; WIDE_PAYLOAD];
    txn.read(cell, &mut payload)?;
    Ok(whole(&payload))
}

/// How [`txn_readonly`]'s readers read A, then B.
#[derive(Clone, Copy, PartialEq)]
enum Reader {
    /// In a read-only transaction whose commit validates the snapshot.
    Txn,
    /// MUTANT `txn_skip_first_validate`: the transaction is never
    /// committed, so nothing validates the snapshot.
    Unvalidated,
    /// MUTANT `txn_refetch_first`: each cell read by hand as the versioned
    /// read's list with the version re-fetch issued before the payload,
    /// `[version, version, payload…]`, the seqlock check kept.
    RefetchFirst,
}

/// [`Reader::RefetchFirst`]'s read of `cell`: a read that passes the
/// version check must hold a whole payload, as any other read does.
fn refetch_first(win: &Win, cell: VersionedCell) -> Result<(), FompiError> {
    let (mut v, mut payload) = ([0u64; 2], [0u8; WIDE_PAYLOAD]);
    let list = [0, 0, 8, 16].map(FetchAmo::read).into_iter();
    win.amo_fetch_list(cell.target, cell.disp, WIDE, list, |i, old| match i {
        0 | 1 => v[i] = old,
        _ => payload[8 * i - 16..8 * i - 8].copy_from_slice(&old.to_le_bytes()),
    })?;
    if versions_consistent(v[0], v[1]) {
        whole(&payload);
    }
    Ok(())
}

/// Rank 1 moves value from cell A to cell B in two-key transactions
/// while every other rank reads A, then B, in read-only ones. A snapshot
/// that `commit` (or, in the mutant, nothing) accepted must show the
/// conserved sum; one it refused is dropped, as a retry would. Everyone
/// then digests the final cells. (One writer: two would contend, and a
/// retry's backoff is virtual time, so a stalled holder's peer can spend
/// its whole budget in a moment of wall clock.) The read-only commit rule
/// under test: validate every cell but the one read last.
///
/// MUTANTS ([`Reader`]): when nothing validates, a whole transfer between
/// the reader's two reads leaves A old and B new — the schedule the
/// checker must find; when a read's version is re-fetched before its
/// payload, a transfer's payload write lands between the reader's payload
/// words and the torn payload passes the version check.
fn txn_readonly(ctx: &mut RankCtx, s: &Shape, reader: Reader) -> Verdict {
    let win = Win::allocate(ctx, 2 * WIDE, 1).txt()?;
    VersionedCell::init_local(&win, 0, &wide(HELD.0));
    VersionedCell::init_local(&win, WIDE, &wide(HELD.1));
    ctx.barrier();
    win.lock_all().txt()?;
    let a = VersionedCell::new(0, 0, WIDE_PAYLOAD);
    let b = VersionedCell::new(0, WIDE, WIDE_PAYLOAD);
    if ctx.rank() == 1 {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..s.epochs {
            fompi_txn::run(&win, &RetryPolicy::default(), &mut rng, |txn| {
                let (from, to) = (read_wide(txn, a)?, read_wide(txn, b)?);
                txn.write(a, &wide(from.wrapping_sub(MOVED)))?;
                txn.write(b, &wide(to.wrapping_add(MOVED)))
            })
            .txt()?;
        }
    } else {
        for _ in 0..s.epochs {
            if reader == Reader::RefetchFirst {
                refetch_first(&win, a).txt()?;
                refetch_first(&win, b).txt()?;
                continue;
            }
            let mut txn = Txn::begin(&win);
            let seen = read_wide(&mut txn, a).and_then(|x| Ok((x, read_wide(&mut txn, b)?)));
            let accepted = reader == Reader::Unvalidated || txn.commit().is_ok();
            if let (Ok((x, y)), true) = (seen, accepted) {
                ensure(x.wrapping_add(y) == HELD.0 + HELD.1, || {
                    format!("accepted a snapshot that never existed: A={x} B={y}")
                })?;
            }
        }
    }
    ctx.barrier();
    let mut h = 0;
    let mut values = [0u64; 2];
    for (cell, value) in [a, b].into_iter().zip(&mut values) {
        let mut payload = [0u8; WIDE_PAYLOAD];
        cell.read(&win, &mut payload).txt()?;
        *value = le(&payload);
        h = mix(h, *value);
    }
    let moved = MOVED * s.epochs as u64;
    let want = [HELD.0.wrapping_sub(moved), HELD.1.wrapping_add(moved)];
    ensure(values == want, || format!("final cells {values:?}, want {want:?}"))?;
    win.unlock_all().txt()?;
    at_rest(win.free(ctx))?;
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_pairings_are_disjoint_and_cover_every_cell() {
        for p in [2, 3, 5, 8] {
            for e in 0..6 {
                let mut perm = txn_pairing(0xDEAD_BEEF, e, p);
                perm.sort_unstable();
                assert_eq!(perm, (0..2 * p).collect::<Vec<_>>(), "p={p} epoch={e}");
            }
        }
        // Pairings vary across epochs — the soak is not one fixed pattern.
        assert_ne!(txn_pairing(1, 0, 4), txn_pairing(1, 1, 4));
    }

    #[test]
    fn program_names_are_unique() {
        let mut names: Vec<_> = PROGRAMS.iter().chain(&MUTANTS).map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROGRAMS.len() + MUTANTS.len());
    }
}
