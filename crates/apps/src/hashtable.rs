//! Distributed hashtable (§4.1, Figure 7a).
//!
//! "Each process manages a part of the hashtable called the local volume
//! consisting of a table of elements and an additional overflow heap to
//! store elements after collisions. [...] Pointers to most recently
//! inserted items as well as to the next free cells are stored along with
//! the remaining data in each local volume. The elements are 8-byte
//! integers."
//!
//! Three backends, mirroring the paper:
//!
//! * **RMA (foMPI)**: inserts use `compare_and_swap` on the slot; on
//!   collision the loser claims an overflow cell with `fetch_and_op(SUM)`
//!   and links it with a second CAS — all inside one `lock_all` epoch with
//!   flushes.
//! * **UPC**: the same algorithm over Cray-style `aadd`/`cas` extensions.
//! * **MPI-1**: active-message scheme — the element is *sent* to the owner,
//!   which applies it locally; termination via done-notifications from
//!   every process.
//!
//! Keys are unique and nonzero by construction, so tests can verify that
//! exactly `p × inserts` elements are present afterwards.

use crate::splitmix64;
use fompi::{MpiOp, NumKind, Win};
use fompi_msg::{Comm, ANY_SOURCE};
use fompi_pgas::SharedArray;
use fompi_runtime::RankCtx;

/// Hashtable geometry.
#[derive(Debug, Clone, Copy)]
pub struct HtConfig {
    /// Inserts performed by each rank.
    pub inserts_per_rank: usize,
    /// Direct-table slots per rank.
    pub table_slots: usize,
    /// Overflow-heap cells per rank.
    pub heap_cells: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HtConfig {
    fn default() -> Self {
        Self { inserts_per_rank: 256, table_slots: 512, heap_cells: 2048, seed: 42 }
    }
}

/// Outcome of one rank's run.
#[derive(Debug, Clone)]
pub struct HtResult {
    /// Virtual nanoseconds this rank spent in the insert phase.
    pub time_ns: f64,
    /// Elements stored in this rank's local volume afterwards.
    pub local_elements: usize,
}

// Window layout (bytes):
//   0                 next-free overflow index (u64)
//   8 .. 8+16T        table slots  [key u64][next u64]
//   8+16T .. +16H     heap cells   [key u64][next u64]
const HDR: usize = 8;
const NIL64: u64 = u64::MAX;

fn slot_off(s: usize) -> usize {
    HDR + s * 16
}

fn heap_off(cfg: &HtConfig, h: usize) -> usize {
    HDR + cfg.table_slots * 16 + h * 16
}

fn win_bytes(cfg: &HtConfig) -> usize {
    HDR + (cfg.table_slots + cfg.heap_cells) * 16
}

/// The key stream for `rank`: unique, nonzero, uniformly scattered.
pub fn keys_for(rank: u32, cfg: &HtConfig) -> impl Iterator<Item = u64> + '_ {
    (0..cfg.inserts_per_rank).map(move |i| splitmix64(((rank as u64) << 32) | (i as u64 + 1)) | 1)
}

fn owner_of(key: u64, p: usize) -> u32 {
    (splitmix64(key) % p as u64) as u32
}

fn slot_of(key: u64, cfg: &HtConfig) -> usize {
    (splitmix64(key ^ 0xABCD) % cfg.table_slots as u64) as usize
}

/// Count elements in a local volume after the run (verification): the
/// occupied direct slots plus every overflow cell reachable from its own
/// slot's chain, so a chain push that lost its link shows as a lost element.
/// The volume is read with one local read.
fn count_local(read: impl Fn(usize, &mut [u8]), cfg: &HtConfig) -> usize {
    let mut volume = vec![0u8; win_bytes(cfg)];
    read(0, &mut volume);
    let word = |off: usize| u64::from_le_bytes(volume[off..off + 8].try_into().unwrap());
    let mut n = 0;
    for s in 0..cfg.table_slots {
        n += (word(slot_off(s)) != 0) as usize;
        // Next pointers carry bit 63 as the "heap index" tag.
        let mut next = word(slot_off(s) + 8);
        while next != NIL64 {
            let h = (next & !(1 << 63)) as usize;
            assert!(
                h < cfg.heap_cells && slot_of(word(heap_off(cfg, h)), cfg) == s,
                "overflow cell {h} is on slot {s}'s chain"
            );
            n += 1;
            assert!(n <= cfg.table_slots + cfg.heap_cells, "cyclic overflow chain");
            next = word(heap_off(cfg, h) + 8);
        }
    }
    n
}

// ------------------------------------------------------------------ foMPI

/// RMA backend: CAS insert, FAA overflow claim, CAS list push.
pub fn run_rma(ctx: &RankCtx, cfg: &HtConfig) -> HtResult {
    let p = ctx.size();
    let win = Win::allocate(ctx, win_bytes(cfg), 1).expect("window");
    win.write_local(0, &empty_table(cfg));
    ctx.barrier();
    win.lock_all().expect("lock_all");
    let t0 = ctx.now();
    for key in keys_for(ctx.rank(), cfg) {
        let owner = owner_of(key, p);
        let slot = slot_of(key, cfg);
        // Fast path: claim the direct slot.
        let old = win.compare_and_swap(key, 0, owner, slot_off(slot)).expect("slot CAS");
        if old == 0 {
            continue;
        }
        // Collision: claim an overflow cell.
        let mut idx = [0u8; 8];
        win.fetch_and_op(&1u64.to_le_bytes(), &mut idx, NumKind::U64, MpiOp::Sum, owner, 0)
            .expect("next-free FAA");
        let h = u64::from_le_bytes(idx) as usize;
        assert!(h < cfg.heap_cells, "overflow heap exhausted");
        win.put(&key.to_le_bytes(), owner, heap_off(cfg, h)).expect("heap put");
        //

        // Push onto the slot's chain with a second CAS (Treiber). An
        // aligned 8-byte get is atomic on Gemini, so the head read needs no
        // lock.
        loop {
            let mut cur = [0u8; 8];
            win.get(&mut cur, owner, slot_off(slot) + 8).expect("chain read");
            win.flush(owner).expect("chain read flush");
            let head = u64::from_le_bytes(cur);
            win.put(&head.to_le_bytes(), owner, heap_off(cfg, h) + 8).expect("cell next put");
            win.flush(owner).expect("flush before CAS");
            let old = win
                .compare_and_swap(h as u64 | (1 << 63), head, owner, slot_off(slot) + 8)
                .expect("chain CAS");
            if old == head {
                break;
            }
        }
    }
    win.flush_all().expect("final flush");
    let time_ns = ctx.now() - t0;
    win.unlock_all().expect("unlock_all");
    ctx.barrier();
    let local = count_local(|o, b| win.read_local(o, b), cfg);
    win.free(ctx);
    HtResult { time_ns, local_elements: local }
}

/// The header and table of an empty volume: no overflow cell claimed,
/// every slot empty with an empty chain. One local write stores it.
fn empty_table(cfg: &HtConfig) -> Vec<u8> {
    let mut table = vec![0u8; slot_off(cfg.table_slots)];
    for s in 0..cfg.table_slots {
        table[slot_off(s) + 8..slot_off(s) + 16].copy_from_slice(&NIL64.to_le_bytes());
    }
    table
}

// -------------------------------------------------- notified (owner computes)

const HT_NOTIFY_TAG: u32 = 0x47_00A1;
const HT_DONE_TAG: u32 = 0x47_00FE;

// Inbox window layout (separate from the table window, whose layout stays
// byte-identical to the RMA backend so `count_local` works on either):
//   0..8    done-notification landing pad (operand is informational)
//   8..    one region of `inserts_per_rank` key slots (8 B) per sender
//
// Dedicated per-sender regions mean slot allocation is a local counter at
// the sender — the scatter needs *no remote atomics at all*, only notified
// puts; the notification records' `source` field tells the owner how far
// into each region to read.
fn inbox_bytes(cfg: &HtConfig, p: usize) -> usize {
    8 + p * cfg.inserts_per_rank * 8
}

fn inbox_slot_off(cfg: &HtConfig, sender: u32, seq: usize) -> usize {
    8 + (sender as usize * cfg.inserts_per_rank + seq) * 8
}

/// Apply one insert to this rank's own volume with window-local reads and
/// writes, preserving the exact RMA chain encoding. No atomics: the owner
/// is the only writer of its table under this backend.
fn insert_local(win: &Win, cfg: &HtConfig, key: u64) {
    let slot = slot_of(key, cfg);
    let mut b = [0u8; 8];
    win.read_local(slot_off(slot), &mut b);
    if u64::from_le_bytes(b) == 0 {
        win.write_local(slot_off(slot), &key.to_le_bytes());
        return;
    }
    win.read_local(0, &mut b);
    let h = u64::from_le_bytes(b) as usize;
    assert!(h < cfg.heap_cells, "overflow heap exhausted");
    win.write_local(0, &(h as u64 + 1).to_le_bytes());
    win.read_local(slot_off(slot) + 8, &mut b);
    let head = u64::from_le_bytes(b);
    win.write_local(heap_off(cfg, h), &key.to_le_bytes());
    win.write_local(heap_off(cfg, h) + 8, &head.to_le_bytes());
    win.write_local(slot_off(slot) + 8, &(h as u64 | (1 << 63)).to_le_bytes());
}

/// Notified-access backend ("owner computes"): instead of mutating
/// the owner's volume remotely with CAS/FAA polling loops, each rank
/// *ships the key* — a single `put_notify` into its own region of the
/// owner's inbox — and the owner applies inserts locally while consuming
/// its notification ring. The remote critical path per insert shrinks
/// from CAS (plus FAA + put + get/flush + CAS on every collision) to one
/// notified put, independent of the collision rate and free of the AMO
/// serialisation that hot table slots and cursors suffer.
///
/// Termination is fully one-sided, mirroring the MPI-1 backend: after its
/// last key each rank sends a notified done-AMO to every peer. Notified
/// puts are ordered per target, so once `p - 1` done records have been
/// consumed every incoming key record is already in the ring and a final
/// drain-until-dry yields the exact count. Ring overflow surfaces as a
/// transient backpressure error at the *sender*, which responds by
/// draining its own ring before retrying — that break of the
/// wait-while-full cycle is what makes the protocol deadlock-free at any
/// ring depth.
pub fn run_notified(ctx: &RankCtx, cfg: &HtConfig) -> HtResult {
    let p = ctx.size();
    let me = ctx.rank();
    let win = Win::allocate(ctx, win_bytes(cfg), 1).expect("table window");
    let inbox = Win::allocate(ctx, inbox_bytes(cfg, p), 1).expect("inbox window");
    win.write_local(0, &empty_table(cfg));
    inbox.write_local(0, &0u64.to_le_bytes());
    ctx.barrier();
    inbox.lock_all().expect("lock_all");
    let t0 = ctx.now();
    // Keys received so far, per sender: region read-depth in the absorb
    // phase below.
    let mut keys_in = vec![0usize; p];
    let mut dones = 0usize;
    let drain = |keys_in: &mut [usize], dones: &mut usize| {
        while let Some(rec) =
            inbox.test_notify(fompi::ANY_SOURCE, fompi::ANY_TAG).expect("inbox drain")
        {
            match rec.tag {
                HT_NOTIFY_TAG => keys_in[rec.source as usize] += 1,
                HT_DONE_TAG => *dones += 1,
                t => unreachable!("unexpected notification tag {t:#x}"),
            }
        }
    };
    let mut seq = vec![0usize; p];
    for key in keys_for(me, cfg) {
        let owner = owner_of(key, p);
        if owner == me {
            insert_local(&win, cfg, key);
            continue;
        }
        let off = inbox_slot_off(cfg, me, seq[owner as usize]);
        seq[owner as usize] += 1;
        loop {
            match inbox.put_notify(&key.to_le_bytes(), owner, off, HT_NOTIFY_TAG) {
                Ok(()) => break,
                Err(e) if e.is_transient() => drain(&mut keys_in, &mut dones),
                Err(e) => panic!("notified key put failed: {e}"),
            }
        }
        drain(&mut keys_in, &mut dones);
    }
    for r in 0..p as u32 {
        if r == me {
            continue;
        }
        loop {
            match inbox.accumulate_notify(1, MpiOp::Sum, r, 0, HT_DONE_TAG) {
                Ok(()) => break,
                Err(e) if e.is_transient() => drain(&mut keys_in, &mut dones),
                Err(e) => panic!("done notification failed: {e}"),
            }
        }
    }
    while dones < p - 1 {
        drain(&mut keys_in, &mut dones);
        std::thread::yield_now();
    }
    drain(&mut keys_in, &mut dones);
    for (sender, &n) in keys_in.iter().enumerate() {
        for i in 0..n {
            let mut b = [0u8; 8];
            inbox.read_local(inbox_slot_off(cfg, sender as u32, i), &mut b);
            insert_local(&win, cfg, u64::from_le_bytes(b));
        }
    }
    let time_ns = ctx.now() - t0;
    inbox.unlock_all().expect("unlock_all");
    inbox.free(ctx);
    ctx.barrier();
    let local = count_local(|o, b| win.read_local(o, b), cfg);
    win.free(ctx);
    HtResult { time_ns, local_elements: local }
}

// -------------------------------------------------------------------- UPC

/// UPC backend: identical algorithm over `aadd`/`cas`.
pub fn run_upc(ctx: &RankCtx, cfg: &HtConfig) -> HtResult {
    let p = ctx.size();
    let a = SharedArray::all_alloc(ctx, win_bytes(cfg));
    a.write_local(0, &empty_table(cfg));
    a.barrier();
    let t0 = ctx.now();
    for key in keys_for(ctx.rank(), cfg) {
        let owner = owner_of(key, p);
        let slot = slot_of(key, cfg);
        if a.cas(owner, slot_off(slot), key, 0) == 0 {
            continue;
        }
        let h = a.aadd(owner, 0, 1) as usize;
        assert!(h < cfg.heap_cells, "overflow heap exhausted");
        a.memput(owner, heap_off(cfg, h), &key.to_le_bytes());
        loop {
            let mut cur = [0u8; 8];
            a.memget(&mut cur, owner, slot_off(slot) + 8);
            let head = u64::from_le_bytes(cur);
            a.memput(owner, heap_off(cfg, h) + 8, &head.to_le_bytes());
            a.fence();
            if a.cas(owner, slot_off(slot) + 8, h as u64 | (1 << 63), head) == head {
                break;
            }
        }
    }
    a.fence();
    let time_ns = ctx.now() - t0;
    a.barrier();
    let local = count_local(|o, b| a.read_local(o, b), cfg);
    HtResult { time_ns, local_elements: local }
}

// ------------------------------------------------------------------ MPI-1

const HT_TAG: u32 = 0x47_0000;
const DONE_TAG: u32 = 0x47_FFFF;

/// MPI-1 backend: active messages to the owner; the owner inserts locally.
/// Termination: every rank notifies every other of local completion (§4.1).
pub fn run_mpi1(ctx: &RankCtx, comm: &Comm, cfg: &HtConfig) -> HtResult {
    let p = ctx.size();
    let me = ctx.rank();
    // Local volume as plain memory (no remote access).
    let mut table = vec![(0u64, NIL64); cfg.table_slots];
    let mut heap = vec![(0u64, NIL64); cfg.heap_cells];
    let mut next_free = 0usize;
    let mut dones = 0usize;
    ctx.barrier();
    let t0 = ctx.now();
    let apply = |key: u64,
                 table: &mut Vec<(u64, u64)>,
                 heap: &mut Vec<(u64, u64)>,
                 next_free: &mut usize| {
        let slot = slot_of(key, cfg);
        if table[slot].0 == 0 {
            table[slot].0 = key;
        } else {
            let h = *next_free;
            *next_free += 1;
            assert!(h < cfg.heap_cells, "overflow heap exhausted");
            heap[h] = (key, table[slot].1);
            table[slot].1 = h as u64 | (1 << 63);
        }
    };
    let mut pending: Vec<u64> = keys_for(me, cfg).collect();
    pending.reverse();
    let mut sent_done = false;
    loop {
        // Drain incoming inserts and done notifications.
        while let Some(st) = comm.iprobe(ANY_SOURCE, HT_TAG) {
            let mut b = [0u8; 8];
            comm.recv(&mut b, st.src, HT_TAG).expect("ht recv");
            apply(u64::from_le_bytes(b), &mut table, &mut heap, &mut next_free);
        }
        while comm.iprobe(ANY_SOURCE, DONE_TAG).is_some() {
            let mut b = [0u8; 1];
            comm.recv(&mut b, ANY_SOURCE, DONE_TAG).expect("done recv");
            dones += 1;
        }
        if let Some(key) = pending.pop() {
            let owner = owner_of(key, p);
            if owner == me {
                apply(key, &mut table, &mut heap, &mut next_free);
            } else {
                comm.send(&key.to_le_bytes(), owner, HT_TAG).expect("ht send");
            }
        } else if !sent_done {
            for r in 0..p as u32 {
                if r != me {
                    comm.send(&[1], r, DONE_TAG).expect("done send");
                }
            }
            sent_done = true;
        } else if dones == p - 1 {
            // One final drain: sends from peers that finished before us
            // may still be queued.
            while let Some(st) = comm.iprobe(ANY_SOURCE, HT_TAG) {
                let mut b = [0u8; 8];
                comm.recv(&mut b, st.src, HT_TAG).expect("ht recv");
                apply(u64::from_le_bytes(b), &mut table, &mut heap, &mut next_free);
            }
            break;
        } else {
            std::thread::yield_now();
        }
    }
    let time_ns = ctx.now() - t0;
    ctx.barrier();
    // There is a subtlety: messages can still be in flight when the first
    // DONE arrives; the barrier above plus a final drain closes the race.
    while let Some(st) = comm.iprobe(ANY_SOURCE, HT_TAG) {
        let mut b = [0u8; 8];
        comm.recv(&mut b, st.src, HT_TAG).expect("ht recv");
        apply(u64::from_le_bytes(b), &mut table, &mut heap, &mut next_free);
    }
    ctx.barrier();
    let local = table.iter().filter(|(k, _)| *k != 0).count() + next_free;
    HtResult { time_ns, local_elements: local }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_msg::MsgEngine;
    use fompi_runtime::Universe;

    fn verify_total(results: &[HtResult], cfg: &HtConfig, p: usize) {
        let total: usize = results.iter().map(|r| r.local_elements).sum();
        assert_eq!(total, p * cfg.inserts_per_rank, "elements lost or duplicated");
    }

    #[test]
    fn rma_inserts_all_elements() {
        let cfg = HtConfig { inserts_per_rank: 200, table_slots: 64, heap_cells: 2048, seed: 1 };
        let p = 4;
        let got = Universe::new(p).node_size(2).run(|ctx| run_rma(ctx, &cfg));
        verify_total(&got, &cfg, p);
    }

    #[test]
    fn upc_inserts_all_elements() {
        let cfg = HtConfig { inserts_per_rank: 150, table_slots: 64, heap_cells: 2048, seed: 1 };
        let p = 4;
        let got = Universe::new(p).node_size(2).run(|ctx| run_upc(ctx, &cfg));
        verify_total(&got, &cfg, p);
    }

    #[test]
    fn mpi1_inserts_all_elements() {
        let cfg = HtConfig { inserts_per_rank: 120, table_slots: 64, heap_cells: 2048, seed: 1 };
        let p = 4;
        let engine = MsgEngine::new(p);
        let got = Universe::new(p).node_size(2).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg)
        });
        verify_total(&got, &cfg, p);
    }

    #[test]
    fn notified_inserts_all_elements() {
        let cfg = HtConfig { inserts_per_rank: 200, table_slots: 64, heap_cells: 2048, seed: 1 };
        let p = 4;
        let got = Universe::new(p).node_size(2).run(|ctx| run_notified(ctx, &cfg));
        verify_total(&got, &cfg, p);
    }

    #[test]
    fn notified_survives_tiny_notification_rings() {
        // Depth 2 forces constant overflow backpressure; the
        // drain-own-ring-on-transient-error loop must keep the exchange
        // deadlock-free and lossless.
        let cfg = HtConfig { inserts_per_rank: 80, table_slots: 64, heap_cells: 1024, seed: 9 };
        let p = 3;
        let got = Universe::new(p).node_size(1).notify_depth(2).run(|ctx| run_notified(ctx, &cfg));
        verify_total(&got, &cfg, p);
    }

    #[test]
    fn notified_beats_amo_polling_under_collisions() {
        // Small table → long chains: the CAS/FAA/get-flush retry path of
        // the polling backend grows with the collision rate, while the
        // notified owner-computes path stays at one FAA + one notified put
        // per insert regardless.
        // The ring is sized for the worst-case fan-in so no overflow
        // stalls pollute the comparison (backpressure pricing is covered
        // by notified_survives_tiny_notification_rings).
        let cfg = HtConfig { inserts_per_rank: 100, table_slots: 8, heap_cells: 2048, seed: 7 };
        let p = 4;
        let rma = Universe::new(p).node_size(1).run(|ctx| run_rma(ctx, &cfg));
        let na = Universe::new(p).node_size(1).notify_depth(512).run(|ctx| run_notified(ctx, &cfg));
        let t_rma = crate::max_time(&rma.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_na = crate::max_time(&na.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(
            t_na < t_rma,
            "notified inserts ({t_na} ns) should beat AMO polling ({t_rma} ns) under collisions"
        );
    }

    #[test]
    fn heavy_collisions_exercise_overflow() {
        // Tiny table forces almost everything into the overflow heap.
        let cfg = HtConfig { inserts_per_rank: 100, table_slots: 2, heap_cells: 1024, seed: 7 };
        let p = 3;
        let got = Universe::new(p).node_size(1).run(|ctx| run_rma(ctx, &cfg));
        verify_total(&got, &cfg, p);
        // Overflow must actually have been used.
        assert!(got.iter().map(|r| r.local_elements).sum::<usize>() > 3 * 2);
    }

    #[test]
    fn rma_beats_mpi1_inter_node_rate() {
        let cfg = HtConfig { inserts_per_rank: 64, table_slots: 4096, heap_cells: 1024, seed: 3 };
        let p = 4;
        let rma = Universe::new(p).node_size(1).run(|ctx| run_rma(ctx, &cfg));
        let engine = MsgEngine::new(p);
        let mpi1 = Universe::new(p).node_size(1).run(move |ctx| {
            let comm = Comm::attach(ctx, &engine);
            run_mpi1(ctx, &comm, &cfg)
        });
        let t_rma = crate::max_time(&rma.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        let t_mpi = crate::max_time(&mpi1.iter().map(|r| r.time_ns).collect::<Vec<_>>());
        assert!(
            t_rma < t_mpi,
            "RMA ({t_rma} ns) should beat MPI-1 active messages ({t_mpi} ns) across nodes"
        );
    }
}
