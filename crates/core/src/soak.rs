//! Protocol soak harness: run every synchronisation protocol for many
//! epochs under an armed fault plan and check the window's protocol
//! invariants after the dust settles.
//!
//! The paper's protocols are *bufferless* — all transient state lives in
//! the fixed window metadata words (§2.3, Figure 2/3). That makes
//! quiescence checkable: after balanced epochs every counter, lock word
//! and matching list must be back in its rest state, whatever latencies,
//! delayed completions or transient registration failures the fault layer
//! injected. Any residue is a protocol bug (a lost release, a leaked pool
//! element, an unconsumed completion), and every violation string carries
//! the root seed so the exact schedule replays with `FOMPI_SEED=<seed>`.
//!
//! Invariants checked after each workload (on every rank's own metadata):
//!
//! * `COMPLETION == 0` — `wait`/`test` consume exactly what `complete`
//!   produced;
//! * match list empty and the Figure-2c free list holds all `pscw_pool`
//!   elements (default protocol), or every ring slot is consumed (fast
//!   protocol, where `MATCH_HEAD` is the FAA cursor and may be nonzero);
//! * `LOCAL_LOCK == 0` and, at the master, `GLOBAL_LOCK == 0` — the
//!   two-level lock hierarchy fully released;
//! * `MCS_TAIL == 0` — the MCS queue drained (`MCS_FLAG` may legally hold
//!   a stale grant);
//! * `ACC_LOCK == 0` — no accumulate fallback lock leaked;
//! * workload payloads are correct (puts landed, counters conserved,
//!   notifications exact).

use crate::error::Result;
use crate::lane::{self, Geometry, RxLane, TxLane};
use crate::meta::{self, off, WinConfig};
use crate::op::{MpiOp, NumKind};
use crate::win::{LockType, Win};
use crate::Notification;
use fompi_fabric::rng::splitmix64;
use fompi_fabric::FaultPlan;
use fompi_runtime::{Group, RankCtx, Universe};

/// One synchronisation protocol exercised by the soak harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Fence epochs with a neighbour put per epoch.
    Fence,
    /// PSCW ring (Figure-2 matching-list protocol).
    Pscw,
    /// PSCW ring over the FAA-ring fast path.
    PscwFast,
    /// Exclusive per-target locks incrementing a counter (conservation).
    Lock,
    /// lock_all epochs with hardware-AMO accumulates (conservation).
    LockAll,
    /// MCS queue lock guarding a shared counter.
    Mcs,
    /// Notified access ring (counter exactness + payload).
    Notify,
    /// Passive target: put + flush, read-back verification per epoch.
    Flush,
    /// Seqlock-versioned two-key transfers (the `fompi-txn` commit path:
    /// CAS lock, accumulate(REPLACE) write, CAS publish) over disjoint
    /// seed-derived cell pairings; total balance is conserved.
    TxnTransfer,
    /// Remote-memory-channel ring (the `fompi-rmc` wire protocol: slotted
    /// notified puts forward, credit-counting notified AMOs back, a flush
    /// fence per ring lap); counts and payloads are exact and the
    /// notification ring must drain to empty.
    RmcChannel,
}

impl Protocol {
    /// Every protocol, in soak order.
    pub const ALL: [Protocol; 10] = [
        Protocol::Fence,
        Protocol::Pscw,
        Protocol::PscwFast,
        Protocol::Lock,
        Protocol::LockAll,
        Protocol::Mcs,
        Protocol::Notify,
        Protocol::Flush,
        Protocol::TxnTransfer,
        Protocol::RmcChannel,
    ];

    /// Stable name (CSV column, violation messages).
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Fence => "fence",
            Protocol::Pscw => "pscw",
            Protocol::PscwFast => "pscw_fast",
            Protocol::Lock => "lock",
            Protocol::LockAll => "lock_all",
            Protocol::Mcs => "mcs",
            Protocol::Notify => "notify",
            Protocol::Flush => "flush",
            Protocol::TxnTransfer => "txn_transfer",
            Protocol::RmcChannel => "rmc_channel",
        }
    }
}

/// Result of one soak case: a protocol soaked at one (p, seed) point.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Protocol exercised.
    pub protocol: Protocol,
    /// Rank count.
    pub p: usize,
    /// Epochs per rank.
    pub epochs: usize,
    /// Root seed (replay with `FOMPI_SEED=<seed>` and the same plan).
    pub seed: u64,
    /// Total faults the plan injected across all ranks.
    pub injected: u64,
    /// Per-rank final virtual clocks as raw `f64` bits: two runs of the
    /// same (protocol, p, seed, plan) must agree bit-for-bit for the
    /// contention-free workloads (fence, PSCW, notify, flush).
    pub clocks: Vec<u64>,
    /// Invariant violations (empty = pass). Each carries the seed.
    pub violations: Vec<String>,
    /// Total accesses flagged by the RMA race checker (0 unless armed via
    /// [`run_case_racecheck`] or `FOMPI_RACECHECK`; must stay 0 here —
    /// the workloads are synchronisation-correct).
    pub raceflags: u64,
}

impl SoakOutcome {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derive `n` independent soak seeds from one root seed, so a whole
/// campaign replays from a single `FOMPI_SEED`.
pub fn seeds(root: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let s = splitmix64(root.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            if s == 0 {
                1
            } else {
                s
            }
        })
        .collect()
}

/// Run one soak case: `p` ranks soaking `proto` for `epochs` epochs under
/// `plan`. A plan with `seed == 0` inherits a seed derived from `seed`
/// (the root seed), so one number reproduces both workload and faults.
pub fn run_case(
    proto: Protocol,
    p: usize,
    epochs: usize,
    seed: u64,
    plan: FaultPlan,
) -> SoakOutcome {
    run_case_racecheck(proto, p, epochs, seed, plan, None)
}

/// [`run_case`] with the RMA race checker armed at `mode` (`None` defers
/// to the environment). The soak workloads are synchronisation-correct by
/// construction, so any racecheck flag here is a checker false positive —
/// the false-positive acceptance gate runs every protocol through this
/// with [`fompi_fabric::RacecheckMode::Panic`].
pub fn run_case_racecheck(
    proto: Protocol,
    p: usize,
    epochs: usize,
    seed: u64,
    plan: FaultPlan,
    racecheck: Option<fompi_fabric::RacecheckMode>,
) -> SoakOutcome {
    assert!(p >= 2, "soak workloads are ring-shaped; need p >= 2");
    // Split ranks across two nodes so both the XPMEM and the DMAPP paths
    // see faults.
    let node_size = p.div_ceil(2);
    let mut uni = Universe::new(p).node_size(node_size).seed(seed).faults(plan);
    if let Some(mode) = racecheck {
        uni = uni.racecheck(mode);
    }
    let (per_rank, fabric) = uni.launch(move |ctx| {
        let mut v = Vec::new();
        let r = match proto {
            Protocol::Fence => fence_ring(ctx, p, epochs, seed, &mut v),
            Protocol::Pscw => pscw_ring(ctx, p, epochs, seed, false, &mut v),
            Protocol::PscwFast => pscw_ring(ctx, p, epochs, seed, true, &mut v),
            Protocol::Lock => lock_counter(ctx, p, epochs, seed, &mut v),
            Protocol::LockAll => lock_all_accumulate(ctx, p, epochs, seed, &mut v),
            Protocol::Mcs => mcs_counter(ctx, p, epochs, seed, &mut v),
            Protocol::Notify => notify_ring(ctx, p, epochs, seed, &mut v),
            Protocol::Flush => flush_readback(ctx, p, epochs, seed, &mut v),
            Protocol::TxnTransfer => txn_transfer(ctx, p, epochs, seed, &mut v),
            Protocol::RmcChannel => rmc_channel(ctx, p, epochs, seed, &mut v),
        };
        if let Err(e) = r {
            v.push(violation(proto.name(), seed, ctx.rank(), format!("protocol error: {e}")));
        }
        (v, ctx.now().to_bits())
    });
    let (violations, clocks): (Vec<_>, Vec<_>) = per_rank.into_iter().unzip();
    SoakOutcome {
        protocol: proto,
        p,
        epochs,
        seed,
        injected: fabric.faults().total_injected(),
        clocks,
        violations: violations.into_iter().flatten().collect(),
        raceflags: fabric.shadow().total_flagged(),
    }
}

// ------------------------------------------------------------- internals

fn violation(proto: &str, seed: u64, rank: u32, msg: String) -> String {
    format!("[{proto} seed={seed:#018x} rank={rank}] {msg} (replay: FOMPI_SEED={seed})")
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

fn neighbors(me: u32, p: usize) -> (u32, u32) {
    let p = p as u32;
    ((me + p - 1) % p, (me + 1) % p)
}

/// Post-workload rest-state check of this rank's metadata words (see the
/// module docs for the invariant list). Must run after a barrier so every
/// peer's releases have been issued.
fn quiescence(win: &Win, proto: &'static str, seed: u64, me: u32, v: &mut Vec<String>) {
    let seg = &win.my_meta;
    let cfg = &win.shared.cfg;
    let mut check = |word: &str, got: u64, want: u64| {
        if got != want {
            v.push(violation(
                proto,
                seed,
                me,
                format!("metadata word {word} not quiescent: {got:#x} != {want:#x}"),
            ));
        }
    };
    check("COMPLETION", seg.read_u64(off::COMPLETION), 0);
    check("LOCAL_LOCK", seg.read_u64(off::LOCAL_LOCK), 0);
    check("ACC_LOCK", seg.read_u64(off::ACC_LOCK), 0);
    if me == win.shared.master {
        check("GLOBAL_LOCK", seg.read_u64(off::GLOBAL_LOCK), 0);
        check("MCS_TAIL", seg.read_u64(off::MCS_TAIL), 0);
    }
    if cfg.pscw_fast {
        // Fast protocol: MATCH_HEAD is the FAA ticket cursor (monotonic);
        // quiescence means every announcement slot was consumed.
        for slot in 0..cfg.pscw_pool as u32 {
            check("pool slot", seg.read_u64(cfg.pool_off(slot)), 0);
        }
    } else {
        let (_, idx) = meta::unpack_head(seg.read_u64(off::MATCH_HEAD));
        check("MATCH_HEAD index", idx as u64, meta::NIL as u64);
        // Walk the Figure-2c free list: all pool elements must be home.
        let (_, mut cur) = meta::unpack_head(seg.read_u64(off::FREE_HEAD));
        let mut n = 0usize;
        while cur != meta::NIL && n <= cfg.pscw_pool {
            n += 1;
            cur = meta::unpack_elem(seg.read_u64(cfg.pool_off(cur))).1;
        }
        check("free-list length", n as u64, cfg.pscw_pool as u64);
    }
}

fn fence_ring(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    let win = Win::allocate(ctx, p * 8, 1)?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    win.fence()?;
    for e in 0..epochs {
        win.put(&payload(seed, e, me).to_le_bytes(), right, me as usize * 8)?;
        win.fence()?;
        let mut b = [0u8; 8];
        win.read_local(left as usize * 8, &mut b);
        let (got, want) = (u64::from_le_bytes(b), payload(seed, e, left));
        if got != want {
            v.push(violation(
                "fence",
                seed,
                me,
                format!("epoch {e}: slot from rank {left} = {got:#x}, want {want:#x}"),
            ));
        }
        // Second fence: the local verification read above must not race
        // with the left neighbour's next-epoch put into the same slot.
        win.fence()?;
    }
    win.fence_assert(crate::sync::fence::ASSERT_NOSUCCEED)?;
    ctx.barrier();
    quiescence(&win, "fence", seed, me, v);
    Ok(())
}

fn pscw_ring(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    fast: bool,
    v: &mut Vec<String>,
) -> Result<()> {
    let cfg = WinConfig { pscw_fast: fast, ..WinConfig::default() };
    let win = Win::allocate_cfg(ctx, p * 8, 1, cfg)?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    let proto = if fast { "pscw_fast" } else { "pscw" };
    let exposure = Group::new([left]);
    let access = Group::new([right]);
    for e in 0..epochs {
        win.post(&exposure)?;
        win.start(&access)?;
        win.put(&payload(seed, e, me).to_le_bytes(), right, me as usize * 8)?;
        win.complete()?;
        win.wait()?;
        let mut b = [0u8; 8];
        win.read_local(left as usize * 8, &mut b);
        let (got, want) = (u64::from_le_bytes(b), payload(seed, e, left));
        if got != want {
            v.push(violation(
                proto,
                seed,
                me,
                format!("epoch {e}: slot from rank {left} = {got:#x}, want {want:#x}"),
            ));
        }
    }
    ctx.barrier();
    quiescence(&win, if fast { "pscw_fast" } else { "pscw" }, seed, me, v);
    Ok(())
}

fn lock_counter(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    let win = Win::allocate(ctx, 16, 1)?;
    let me = ctx.rank();
    ctx.barrier();
    for e in 0..epochs {
        let t = pick_target(seed, e, me, p);
        win.lock(LockType::Exclusive, t)?;
        let mut b = [0u8; 8];
        win.get(&mut b, t, 0)?;
        win.flush(t)?;
        win.put(&(u64::from_le_bytes(b).wrapping_add(1)).to_le_bytes(), t, 0)?;
        win.unlock(t)?;
    }
    ctx.barrier();
    let want: u64 = (0..p as u32)
        .map(|r| (0..epochs).filter(|&e| pick_target(seed, e, r, p) == me).count() as u64)
        .sum();
    let mut b = [0u8; 8];
    win.read_local(0, &mut b);
    let got = u64::from_le_bytes(b);
    if got != want {
        v.push(violation("lock", seed, me, format!("counter = {got}, want {want}")));
    }
    quiescence(&win, "lock", seed, me, v);
    Ok(())
}

fn lock_all_accumulate(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    let win = Win::allocate(ctx, 16, 1)?;
    let me = ctx.rank();
    ctx.barrier();
    for e in 0..epochs {
        win.lock_all()?;
        let t = pick_target(seed, e, me, p);
        win.accumulate(&1u64.to_le_bytes(), NumKind::U64, MpiOp::Sum, t, 0)?;
        win.flush_all()?;
        win.unlock_all()?;
    }
    ctx.barrier();
    let want: u64 = (0..p as u32)
        .map(|r| (0..epochs).filter(|&e| pick_target(seed, e, r, p) == me).count() as u64)
        .sum();
    let mut b = [0u8; 8];
    win.read_local(0, &mut b);
    let got = u64::from_le_bytes(b);
    if got != want {
        v.push(violation("lock_all", seed, me, format!("counter = {got}, want {want}")));
    }
    quiescence(&win, "lock_all", seed, me, v);
    Ok(())
}

fn mcs_counter(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    let win = Win::allocate(ctx, 16, 1)?;
    let me = ctx.rank();
    ctx.barrier();
    for _ in 0..epochs {
        win.mcs_lock()?;
        let mut b = [0u8; 8];
        win.get(&mut b, 0, 0)?;
        win.flush(0)?;
        win.put(&(u64::from_le_bytes(b).wrapping_add(1)).to_le_bytes(), 0, 0)?;
        win.mcs_unlock()?;
    }
    ctx.barrier();
    if me == 0 {
        let mut b = [0u8; 8];
        win.read_local(0, &mut b);
        let (got, want) = (u64::from_le_bytes(b), (p * epochs) as u64);
        if got != want {
            v.push(violation("mcs", seed, me, format!("counter = {got}, want {want}")));
        }
    }
    quiescence(&win, "mcs", seed, me, v);
    Ok(())
}

fn notify_ring(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    let win = Win::allocate(ctx, p * epochs * 8, 1)?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    win.lock_all()?;
    for e in 0..epochs {
        let disp = (me as usize * epochs + e) * 8;
        win.put_signal(&payload(seed, e, me).to_le_bytes(), right, disp, 0)?;
    }
    win.signal_wait(0, epochs as u64)?;
    // Only the left neighbour targets slot 0 here, so the counter must be
    // *exactly* its epoch count — a lost or duplicated notification is a
    // violation even though signal_wait already returned.
    let n = win.signal_test(0)?;
    if n != epochs as u64 {
        v.push(violation("notify", seed, me, format!("counter = {n}, want {epochs}")));
    }
    for e in 0..epochs {
        let mut b = [0u8; 8];
        win.read_local((left as usize * epochs + e) * 8, &mut b);
        let (got, want) = (u64::from_le_bytes(b), payload(seed, e, left));
        if got != want {
            v.push(violation(
                "notify",
                seed,
                me,
                format!("epoch {e}: slot from rank {left} = {got:#x}, want {want:#x}"),
            ));
        }
    }
    win.unlock_all()?;
    ctx.barrier();
    quiescence(&win, "notify", seed, me, v);
    Ok(())
}

fn flush_readback(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    let win = Win::allocate(ctx, p * 8, 1)?;
    let me = ctx.rank();
    let (_, right) = neighbors(me, p);
    win.lock_all()?;
    for e in 0..epochs {
        let val = payload(seed, e, me);
        let disp = me as usize * 8;
        // Alternate the implicit and the request-based paths: rput/rget
        // exercise the backpressure-rejection retry in `Win::rput`.
        if e % 2 == 0 {
            win.put(&val.to_le_bytes(), right, disp)?;
        } else {
            win.rput(&val.to_le_bytes(), right, disp)?.wait();
        }
        win.flush(right)?;
        let mut b = [0u8; 8];
        if e % 2 == 0 {
            win.get(&mut b, right, disp)?;
        } else {
            win.rget(&mut b, right, disp)?.wait();
        }
        win.flush(right)?;
        // We are the only writer of that slot and our put completed at the
        // flush, so the read-back must match exactly.
        let got = u64::from_le_bytes(b);
        if got != val {
            v.push(violation(
                "flush",
                seed,
                me,
                format!("epoch {e}: read-back = {got:#x}, want {val:#x}"),
            ));
        }
    }
    win.unlock_all()?;
    ctx.barrier();
    quiescence(&win, "flush", seed, me, v);
    Ok(())
}

/// Initial balance of global cell `c` — nonzero and seed-dependent, so a
/// never-written cell is distinguishable from a zero balance.
fn txn_init_balance(seed: u64, c: usize) -> u64 {
    splitmix64(seed ^ 0xBA1A_4CE5 ^ (c as u64 + 1)) | 1
}

/// Seed-derived pairing of the `2p` transfer cells for one epoch: a
/// Fisher–Yates permutation, chopped into `p` disjoint pairs. Rank `r`
/// handles pair `r`. Disjointness means no two ranks ever contend for a
/// version word, so the lock CASes always succeed first try and the
/// number of issued operations — hence the fault draws and the virtual
/// clocks — is schedule-independent.
fn txn_pairing(seed: u64, epoch: usize, p: usize) -> Vec<usize> {
    let cells = 2 * p;
    let mut perm: Vec<usize> = (0..cells).collect();
    let mut rng = fompi_fabric::rng::Rng::seed_from_u64(splitmix64(
        seed ^ 0x7AB1_E0F0 ^ ((epoch as u64) << 8),
    ));
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

/// The `fompi-txn` commit path soaked under faults: every rank owns two
/// 16-byte versioned cells (8-byte seqlock version word + 8-byte balance)
/// and per epoch commits one two-key transfer over a seed-derived
/// *disjoint* pairing of all `2p` cells. The remote protocol is exactly
/// the transaction layer's — `MPI_NO_OP` versioned reads, sorted-order
/// lock CAS `v → v+1`, accumulate(`MPI_REPLACE`) payload writes, publish
/// CAS `v+1 → v+2`, flushes between phases — so a racecheck or metadata
/// residue here indicts the commit protocol itself. Every rank recomputes
/// the exact final balances and version words, and the conserved total is
/// allreduced and checked per seed.
fn txn_transfer(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    const CELL: usize = 16;
    let win = Win::allocate(ctx, 2 * CELL, 1)?;
    let me = ctx.rank();
    // Global cell c lives on rank c/2 at displacement (c%2)*16.
    let owner = |c: usize| ((c / 2) as u32, (c % 2) * CELL);
    for slot in 0..2usize {
        win.write_local(slot * CELL, &0u64.to_le_bytes());
        win.write_local(
            slot * CELL + 8,
            &txn_init_balance(seed, me as usize * 2 + slot).to_le_bytes(),
        );
    }
    ctx.barrier();
    for e in 0..epochs {
        let perm = txn_pairing(seed, e, p);
        let (a, b) = (perm[2 * me as usize], perm[2 * me as usize + 1]);
        let amt = txn_amount(seed, e, me);
        // Global lock order: cell index order == (rank, disp) order.
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        win.lock_all()?;
        let mut versions = [0u64; 2];
        let mut bals = [0u64; 2];
        for (k, &c) in [lo, hi].iter().enumerate() {
            let (t, d) = owner(c);
            let mut vb = [0u8; 8];
            win.fetch_and_op(&[], &mut vb, NumKind::U64, MpiOp::NoOp, t, d)?;
            let v1 = u64::from_le_bytes(vb);
            let mut pb = [0u8; 8];
            win.get_accumulate(&[], &mut pb, NumKind::U64, MpiOp::NoOp, t, d + 8)?;
            win.fetch_and_op(&[], &mut vb, NumKind::U64, MpiOp::NoOp, t, d)?;
            let v2 = u64::from_le_bytes(vb);
            // Pairings are disjoint and epochs barrier-separated, so a
            // torn read can only come from a protocol bug.
            if v1 & 1 == 1 || v1 != v2 {
                v.push(violation(
                    "txn_transfer",
                    seed,
                    me,
                    format!("epoch {e}: torn read on cell {c}: v1={v1} v2={v2}"),
                ));
            }
            versions[k] = v1;
            bals[k] = u64::from_le_bytes(pb);
        }
        for (k, &c) in [lo, hi].iter().enumerate() {
            let (t, d) = owner(c);
            let prev = win.compare_and_swap(versions[k] + 1, versions[k], t, d)?;
            if prev != versions[k] {
                v.push(violation(
                    "txn_transfer",
                    seed,
                    me,
                    format!("epoch {e}: lost lock CAS on cell {c} despite disjoint pairing"),
                ));
            }
        }
        let (new_lo, new_hi) = if a == lo {
            (bals[0].wrapping_sub(amt), bals[1].wrapping_add(amt))
        } else {
            (bals[0].wrapping_add(amt), bals[1].wrapping_sub(amt))
        };
        for (&c, nb) in [lo, hi].iter().zip([new_lo, new_hi]) {
            let (t, d) = owner(c);
            win.accumulate(&nb.to_le_bytes(), NumKind::U64, MpiOp::Replace, t, d + 8)?;
        }
        win.flush_all()?;
        for (k, &c) in [lo, hi].iter().enumerate() {
            let (t, d) = owner(c);
            let prev = win.compare_and_swap(versions[k] + 2, versions[k] + 1, t, d)?;
            if prev != versions[k] + 1 {
                v.push(violation(
                    "txn_transfer",
                    seed,
                    me,
                    format!("epoch {e}: publish CAS on cell {c} found {prev}, lock was stolen"),
                ));
            }
        }
        win.flush_all()?;
        win.unlock_all()?;
        // Next epoch's pairing may hand these cells to other ranks.
        ctx.barrier();
    }
    // Every rank replays the whole campaign locally: the schedule is a
    // pure function of the seed, so final balances are exactly known.
    let cells = 2 * p;
    let mut model: Vec<u64> = (0..cells).map(|c| txn_init_balance(seed, c)).collect();
    for e in 0..epochs {
        let perm = txn_pairing(seed, e, p);
        for r in 0..p {
            let (a, b) = (perm[2 * r], perm[2 * r + 1]);
            let amt = txn_amount(seed, e, r as u32);
            model[a] = model[a].wrapping_sub(amt);
            model[b] = model[b].wrapping_add(amt);
        }
    }
    let mut local_sum = 0u64;
    for slot in 0..2usize {
        let c = me as usize * 2 + slot;
        let mut b = [0u8; 8];
        win.read_local(slot * CELL, &mut b);
        let (got_v, want_v) = (u64::from_le_bytes(b), 2 * epochs as u64);
        if got_v != want_v {
            v.push(violation(
                "txn_transfer",
                seed,
                me,
                format!("cell {c} version = {got_v}, want {want_v}"),
            ));
        }
        win.read_local(slot * CELL + 8, &mut b);
        let got = u64::from_le_bytes(b);
        if got != model[c] {
            v.push(violation(
                "txn_transfer",
                seed,
                me,
                format!("cell {c} balance = {got:#x}, want {:#x}", model[c]),
            ));
        }
        local_sum = local_sum.wrapping_add(got);
    }
    // Conservation, asserted across ranks per seed: transfers move value,
    // they never mint or burn it.
    let total = ctx.allreduce_u64(local_sum, u64::wrapping_add);
    let want_total = (0..cells).fold(0u64, |s, c| s.wrapping_add(txn_init_balance(seed, c)));
    if total != want_total {
        v.push(violation(
            "txn_transfer",
            seed,
            me,
            format!("conserved sum = {total:#x}, want {want_total:#x}"),
        ));
    }
    quiescence(&win, "txn_transfer", seed, me, v);
    Ok(())
}

/// The credit-ring wire protocol ([`crate::lane`]) soaked under faults:
/// every rank streams `epochs` messages to its right neighbour over a
/// two-slot ring in the receiver's window copy and consumes its left
/// neighbour's — the lanes every `fompi-msg` / `fompi-rmc` end runs, with
/// a serve-while-starved credit intake so the cycle of ranks cannot
/// deadlock. Each slot region has a single writer and each credit pad a
/// single incrementer, so whatever latencies, delayed completions or
/// transient rejections the fault layer injects, every payload must land
/// exactly once, in order, and the notification ring must drain to empty
/// (the channel's bufferless rest state).
fn rmc_channel(
    ctx: &RankCtx,
    p: usize,
    epochs: usize,
    seed: u64,
    v: &mut Vec<String>,
) -> Result<()> {
    const SLOTS: usize = 2;
    const DATA_TAG: u32 = 0x00D0;
    const CREDIT_TAG: u32 = 0x00C0;
    // Layout: 8-byte credit-AMO pad at 0, then the left neighbour's ring.
    let geom = Geometry::new(SLOTS, 8)?;
    let win = lane::open(ctx, 8 + geom.ring_bytes())?;
    let me = ctx.rank();
    let (left, right) = neighbors(me, p);
    ctx.barrier();
    let mut tx = TxLane::new(right, 8, geom);
    let mut rx = RxLane::new(left, 8, geom);
    // Consumer step: check the payload, recycle its slot.
    let serve = |rx: &mut RxLane, rec: &Notification, v: &mut Vec<String>| {
        let n = rx.tail();
        let mut b = [0u8; 8];
        rx.take(&win, rec, &mut b)?;
        let (got, want) = (u64::from_le_bytes(b), payload(seed, n as usize, left));
        if got != want {
            v.push(violation(
                "rmc_channel",
                seed,
                me,
                format!("message {n} from rank {left} = {got:#x}, want {want:#x}"),
            ));
        }
        rx.credit(&win, CREDIT_TAG)
    };
    for e in 0..epochs {
        // Service the consumer side first so a blocked neighbour always
        // makes progress: drain every arrived payload.
        while let Some(rec) = win.test_notify(left, DATA_TAG)? {
            serve(&mut rx, &rec, v)?;
        }
        // Producer side: absorb credits, and keep draining while starved
        // — the ring would deadlock if every rank just waited.
        while tx.credits() == 0 && !tx.try_credit(&win, CREDIT_TAG)? {
            match win.test_notify(left, DATA_TAG)? {
                Some(rec) => serve(&mut rx, &rec, v)?,
                None => std::thread::yield_now(),
            }
        }
        tx.put(&win, &payload(seed, e, me).to_le_bytes(), DATA_TAG)?;
    }
    // Drain the remainder of the left neighbour's stream...
    while (rx.tail() as usize) < epochs {
        let rec = win.wait_notify(left, DATA_TAG)?;
        serve(&mut rx, &rec, v)?;
    }
    // ...and absorb the returning credits: one per message sent, so the
    // ring ends exactly as full as it started. A short count here is a
    // lost credit notification.
    while tx.credits() < SLOTS as u64 {
        tx.wait_credit(&win, CREDIT_TAG)?;
    }
    win.flush_all()?;
    ctx.barrier();
    // Bufferless rest state: every data and credit notification consumed.
    let pending = win.notify_pending();
    if pending != 0 {
        v.push(violation(
            "rmc_channel",
            seed,
            me,
            format!("{pending} notification record(s) left in the ring"),
        ));
    }
    win.unlock_all()?;
    ctx.barrier();
    quiescence(&win, "rmc_channel", seed, me, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_protocols_pass_clean() {
        for proto in Protocol::ALL {
            let out = run_case(proto, 4, 4, 42, FaultPlan::disabled());
            assert!(out.passed(), "{:?}: {:?}", proto, out.violations);
            assert_eq!(out.injected, 0);
        }
    }

    #[test]
    fn all_protocols_survive_heavy_faults() {
        for proto in Protocol::ALL {
            let out = run_case(proto, 4, 4, 1234, FaultPlan::heavy(0));
            assert!(out.passed(), "{:?}: {:?}", proto, out.violations);
            assert!(out.injected > 0, "{proto:?} saw no faults under a heavy plan");
        }
    }

    #[test]
    fn rmc_channel_racecheck_clean_under_heavy_faults() {
        // The acceptance bar for the channel wire protocol: all six fault
        // classes armed, race checker panicking on any flag. The slot
        // fences and single-writer layout must hold under any injected
        // schedule.
        let out = run_case_racecheck(
            Protocol::RmcChannel,
            4,
            6,
            7,
            FaultPlan::heavy(0),
            Some(fompi_fabric::RacecheckMode::Panic),
        );
        assert!(out.passed(), "{:?}", out.violations);
        assert_eq!(out.raceflags, 0);
        assert!(out.injected > 0, "heavy plan must inject");
    }

    #[test]
    fn seed_derivation_is_stable_and_nonzero() {
        let a = seeds(7, 8);
        let b = seeds(7, 8);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s != 0));
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
    }

    #[test]
    fn txn_pairings_are_disjoint_and_cover_every_cell() {
        for p in [2, 3, 5, 8] {
            for e in 0..6 {
                let mut perm = txn_pairing(0xDEAD_BEEF, e, p);
                assert_eq!(perm.len(), 2 * p);
                perm.sort_unstable();
                assert_eq!(perm, (0..2 * p).collect::<Vec<_>>(), "p={p} epoch={e}");
            }
        }
        // Pairings vary across epochs — the soak is not one fixed pattern.
        assert_ne!(txn_pairing(1, 0, 4), txn_pairing(1, 1, 4));
    }

    #[test]
    fn violations_name_the_seed() {
        let msg = violation("fence", 0xABC, 3, "boom".into());
        assert!(msg.contains("FOMPI_SEED=2748"), "{msg}");
        assert!(msg.contains("rank=3"), "{msg}");
    }
}
