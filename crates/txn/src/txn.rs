//! Optimistic multi-key transactions and the retry driver.
//!
//! A [`Txn`] accumulates a read set (cells read through the versioned
//! protocol, with the version each payload was consistent at) and a write
//! set (staged payloads for cells already in the read set). [`Txn::commit`]
//! then runs the four phases, built from `compare_and_swap`,
//! `accumulate`, pipelined fetching-AMO lists ([`Win::amo_fetch_list`]:
//! one wait per list) and `flush`:
//!
//! 1. **lock+validate** — write-set cells in global (rank, disp) order:
//!    CAS `v → v+1` where `v` is the version observed at read time, one
//!    at a time (the order is what makes symmetric conflicts
//!    deadlock-free). The CAS *is* the validation; a miss rolls back the
//!    locked prefix and aborts with [`TxnError::Conflict`].
//! 2. **validate reads** — the versions of the read-only cells are
//!    re-fetched, one list per target, and must still hold their observed
//!    values. A transaction with an **empty write set** skips the cell it
//!    read last (see below).
//! 3. **write** — staged payloads land via `accumulate(MPI_REPLACE)`,
//!    fenced by one flush.
//! 4. **publish** — CAS `v+1 → v+2` on every written cell, one list per
//!    target with every old value checked, fenced by a final flush.
//!
//! A read-only transaction runs phase 2 alone — it has nothing in flight,
//! so it issues no flush — and serialises at `t`, the second version fetch
//! in the list of its last [`Txn::read`]:
//!
//! * the cell read last held its observed version at `t` — that fetch is
//!   the seqlock's own check;
//! * every other cell was read before `t` and is validated after it, and a
//!   payload only changes under a version that never comes back (a rolled
//!   back lock `v → v+1 → v` wrote nothing), so it held its observed
//!   payload at `t` too;
//! * hence the values returned are the table as it stood at `t`, inside
//!   the transaction. A one-cell read is exactly one versioned read.
//!
//! The sorted lock order makes symmetric conflicts deadlock-free: two
//! transactions contending for the same pair always collide on the
//! *first* common cell, and the loser backs off holding nothing beyond
//! its rolled-back prefix.
//!
//! The caller must hold a passive-target access epoch covering every
//! target (in practice `lock_all`), mirroring how the paper's hashtable
//! drives its CAS inserts.

use crate::retry::RetryPolicy;
use crate::versioned::VersionedCell;
use crate::{Result, TxnError};
use fompi::win::Win;
use fompi::{FetchAmo, MpiOp, NumKind};
use fompi_fabric::rng::Rng;
use fompi_fabric::telemetry::{EventKind, NO_FLOW, NO_TARGET};

struct ReadEntry {
    cell: VersionedCell,
    version: u64,
}

struct WriteEntry {
    cell: VersionedCell,
    version: u64,
    /// Where the staged payload starts in [`TxnSets::payloads`].
    at: usize,
}

/// The storage of a transaction: its read set, its write set and the
/// payload bytes it staged. [`run_with`] lends it to every attempt and
/// takes it back, so a caller that keeps one across transactions (as
/// `fompi_apps::kv::KvStore` does) allocates only while the sets grow.
#[derive(Default)]
pub struct TxnSets {
    reads: Vec<ReadEntry>,
    writes: Vec<WriteEntry>,
    /// Every staged payload, back to back, in staging order.
    payloads: Vec<u8>,
}

impl TxnSets {
    /// Forget all three, keeping their storage.
    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.payloads.clear();
    }

    /// The payload `w` staged.
    fn payload(&self, w: &WriteEntry) -> &[u8] {
        &self.payloads[w.at..w.at + w.cell.payload_len]
    }
}

/// What a successful commit did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStats {
    /// Cells written (0 for a validated read-only transaction).
    pub keys: usize,
    /// Payload bytes published.
    pub bytes: usize,
}

/// One transaction attempt over a window.
pub struct Txn<'w> {
    win: &'w Win,
    sets: TxnSets,
    /// Index in `reads` of the cell the latest [`Txn::read`] read: where a
    /// read-only transaction serialises (module docs, phase 2).
    last_read: usize,
}

impl<'w> Txn<'w> {
    /// Start an empty transaction. Dropping it without
    /// [`commit`](Txn::commit) aborts for free — no remote state is
    /// touched before the commit phases.
    pub fn begin(win: &'w Win) -> Txn<'w> {
        Txn { win, sets: TxnSets::default(), last_read: 0 }
    }

    /// Versioned read of `cell` into `buf`, recording the observed
    /// version in the read set. A torn read fails the whole attempt
    /// (transient) — the retry driver re-runs the body.
    pub fn read(&mut self, cell: VersionedCell, buf: &mut [u8]) -> Result<u64> {
        let version = cell.read(self.win, buf)?;
        let reads = &mut self.sets.reads;
        match reads.iter().position(|r| r.cell == cell) {
            // Re-reading a cell inside one attempt must see one snapshot.
            Some(prev) if reads[prev].version != version => {
                return Err(TxnError::TornRead { target: cell.target, disp: cell.disp });
            }
            Some(prev) => self.last_read = prev,
            None => {
                self.last_read = reads.len();
                reads.push(ReadEntry { cell, version });
            }
        }
        Ok(version)
    }

    /// Stage `payload` for `cell`. The cell must have been read by *this*
    /// transaction — the observed version is what commit validates — so a
    /// blind write is rejected, and so are a cell that breaks the layout
    /// rules ([`TxnError::Layout`]) and a payload that is not the cell's
    /// size ([`TxnError::PayloadSize`]). Restaging replaces the earlier
    /// payload.
    pub fn write(&mut self, cell: VersionedCell, payload: &[u8]) -> Result<()> {
        cell.check(payload.len())?;
        let sets = &mut self.sets;
        let Some(read) = sets.reads.iter().find(|r| r.cell == cell) else {
            return Err(TxnError::BlindWrite { target: cell.target, disp: cell.disp });
        };
        let version = read.version;
        match sets.writes.iter().find(|w| w.cell == cell) {
            Some(w) => sets.payloads[w.at..w.at + payload.len()].copy_from_slice(payload),
            None => {
                sets.writes.push(WriteEntry { cell, version, at: sets.payloads.len() });
                sets.payloads.extend_from_slice(payload);
            }
        }
        Ok(())
    }

    /// Run the commit phases. On success every staged payload is
    /// remotely visible at version `v+2` and a `txn_commit` span is
    /// recorded; on conflict nothing is (the locked prefix was rolled
    /// back) and the error is transient.
    pub fn commit(mut self) -> Result<CommitStats> {
        self.commit_attempt()
    }

    /// [`Txn::commit`] on a transaction that [`run`] keeps for the next
    /// attempt.
    fn commit_attempt(&mut self) -> Result<CommitStats> {
        let win = self.win;
        let ep = win.endpoint();
        let t0 = ep.clock().now();
        // Global lock order: (rank, disp) sorts identically everywhere.
        self.sets.writes.sort_by_key(|w| (w.cell.target, w.cell.disp));
        let sets = &self.sets;

        // Phase 1: lock+validate the write set.
        for (i, w) in sets.writes.iter().enumerate() {
            let prev = w.cell.cas_version(win, w.version + 1, w.version)?;
            if prev != w.version {
                self.rollback(i)?;
                return Err(TxnError::Conflict { target: w.cell.target, disp: w.cell.disp });
            }
        }
        // Phase 2: validate read-only cells against their observed
        // versions, one list per target, issued where the target first
        // turns up. Write-set cells were validated by the lock CAS, and a
        // read-only transaction serialises at its last read, which needs
        // no second look.
        let read_only = sets.writes.is_empty();
        let checked = sets.reads.iter().enumerate().filter(|&(i, r)| {
            !(sets.writes.iter().any(|w| w.cell == r.cell) || (read_only && i == self.last_read))
        });
        for (first, (_, r)) in checked.clone().enumerate() {
            let target = r.cell.target;
            if checked.clone().take(first).any(|(_, e)| e.cell.target == target) {
                continue;
            }
            let group = checked.clone().skip(first).map(|(_, e)| e);
            if let Some(cell) = moved(win, target, group.filter(|e| e.cell.target == target))? {
                self.rollback(sets.writes.len())?;
                return Err(TxnError::Conflict { target: cell.target, disp: cell.disp });
            }
        }
        let mut bytes = 0usize;
        // A read-only transaction has nothing in flight to fence.
        if !read_only {
            // Phase 3: write payloads, fence before publication.
            for w in &sets.writes {
                let payload = sets.payload(w);
                win.accumulate(
                    payload,
                    NumKind::U64,
                    MpiOp::Replace,
                    w.cell.target,
                    w.cell.disp + 8,
                )?;
                bytes += payload.len();
            }
            win.flush_all()?;
            // Phase 4: publish, one list per target (the write set is
            // sorted by it) — the unlock CAS cannot miss (we hold v+1).
            for group in sets.writes.chunk_by(|a, b| a.cell.target == b.cell.target) {
                let (lo, hi) = (group[0].cell.disp, group[group.len() - 1].cell.disp + 8);
                let list = group
                    .iter()
                    .map(|w| FetchAmo::cas(w.cell.disp - lo, w.version + 2, w.version + 1));
                win.amo_fetch_list(group[0].cell.target, lo, hi - lo, list, |i, prev| {
                    debug_assert_eq!(prev, group[i].version + 1, "lock word stolen while held")
                })?;
            }
            win.flush_all()?;
        }
        let keys = sets.writes.len();
        ep.trace_flow_consume(EventKind::TxnCommit, NO_TARGET, t0, NO_FLOW, bytes as u64);
        Ok(CommitStats { keys, bytes })
    }

    /// Unlock the first `locked` write-set cells (`v+1 → v`) after a lost
    /// lock or failed validation.
    fn rollback(&self, locked: usize) -> Result<()> {
        for w in &self.sets.writes[..locked] {
            let prev = w.cell.cas_version(self.win, w.version, w.version + 1)?;
            debug_assert_eq!(prev, w.version + 1, "lock word stolen during rollback");
        }
        if locked > 0 {
            self.win.flush_all()?;
        }
        Ok(())
    }
}

/// Re-fetch the versions of `reads`, every cell on `target`, as one list;
/// the first cell whose version is not the one it was read at.
fn moved<'a>(
    win: &Win,
    target: u32,
    reads: impl Iterator<Item = &'a ReadEntry> + Clone,
) -> Result<Option<VersionedCell>> {
    let disps = reads.clone().map(|r| r.cell.disp);
    let lo = disps.clone().min().unwrap_or_default();
    let hi = disps.clone().max().map_or(lo, |d| d + 8);
    let (mut seen, mut stale) = (reads, None);
    win.amo_fetch_list(target, lo, hi - lo, disps.map(|d| FetchAmo::read(d - lo)), |_, v| {
        stale = stale.or(seen.next().filter(|r| r.version != v).map(|r| r.cell));
    })?;
    Ok(stale)
}

/// Run `body` under `policy` until it commits, a non-transient error
/// escapes, or the retry budget is exhausted. Each failed attempt records
/// a `txn_abort` telemetry span and charges the policy's backoff to the
/// rank's virtual clock; exhaustion surfaces as the *transient*
/// [`TxnError::RetriesExhausted`] so callers can shed load (the notify
/// backpressure idiom) instead of spinning forever.
pub fn run<T>(
    win: &Win,
    policy: &RetryPolicy,
    rng: &mut Rng,
    body: impl FnMut(&mut Txn) -> Result<T>,
) -> Result<T> {
    run_with(win, &mut TxnSets::default(), policy, rng, body)
}

/// [`run`] in the storage of `sets`, which every attempt starts from empty
/// and which holds its grown capacity again on return.
pub fn run_with<T>(
    win: &Win,
    sets: &mut TxnSets,
    policy: &RetryPolicy,
    rng: &mut Rng,
    mut body: impl FnMut(&mut Txn) -> Result<T>,
) -> Result<T> {
    let ep = win.endpoint();
    let mut attempts = 0u32;
    let mut txn = Txn { win, sets: std::mem::take(sets), last_read: 0 };
    let res = loop {
        let t0 = ep.clock().now();
        txn.sets.clear();
        let res = body(&mut txn).and_then(|v| txn.commit_attempt().map(|_| v));
        match res {
            Err(e) if e.is_transient() => {
                ep.trace_flow_consume(EventKind::TxnAbort, NO_TARGET, t0, NO_FLOW, 0);
                attempts += 1;
                if attempts >= policy.budget() {
                    break Err(TxnError::RetriesExhausted { attempts });
                }
                ep.charge(policy.backoff_ns(attempts, rng));
                // The backoff passes on the virtual clock only. On the wall
                // clock, let a peer that holds the lock we lost to run
                // first: rank threads share cores, and without this one
                // rank can spend its whole budget while the holder waits
                // for a core.
                std::thread::yield_now();
            }
            res => break res,
        }
    };
    *sets = txn.sets;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::FaultPlan;
    use fompi_runtime::Universe;

    const CELL: usize = 16; // version word + one u64 payload
    const PAY: usize = 8;

    fn cell(rank: u32, slot: usize) -> VersionedCell {
        VersionedCell::new(rank, slot * CELL, PAY)
    }

    fn read_u64(txn: &mut Txn, c: VersionedCell) -> Result<u64> {
        let mut b = [0u8; PAY];
        txn.read(c, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    #[test]
    fn single_key_commit_bumps_version_and_lands_payload() {
        let (_, fabric) = Universe::new(2)
            .node_size(1)
            .seed(3)
            .faults(FaultPlan::disabled())
            .metrics(true)
            .launch(|ctx| {
                let win = fompi::Win::allocate(ctx, CELL, 1).unwrap();
                VersionedCell::init_local(&win, 0, &7u64.to_le_bytes());
                ctx.barrier();
                win.lock_all().unwrap();
                if ctx.rank() == 0 {
                    let c = cell(1, 0);
                    let mut txn = Txn::begin(&win);
                    let old = read_u64(&mut txn, c).unwrap();
                    txn.write(c, &(old + 35).to_le_bytes()).unwrap();
                    let stats = txn.commit().unwrap();
                    assert_eq!(stats, CommitStats { keys: 1, bytes: PAY });
                    // A fresh read sees the new value at version 2.
                    let mut txn2 = Txn::begin(&win);
                    let mut b = [0u8; PAY];
                    assert_eq!(txn2.read(c, &mut b).unwrap(), 2);
                    assert_eq!(u64::from_le_bytes(b), 42);
                }
                win.unlock_all().unwrap();
                ctx.barrier();
            });
        // The metrics plane saw the commit and both versioned reads.
        let tel = fabric.telemetry();
        assert_eq!(tel.stats(EventKind::TxnCommit).count(), 1);
        assert_eq!(tel.stats(EventKind::TxnRead).count(), 2);
        assert_eq!(tel.stats(EventKind::TxnAbort).count(), 0);
    }

    #[test]
    fn blind_writes_are_rejected() {
        Universe::new(2).node_size(1).seed(5).faults(FaultPlan::disabled()).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, CELL, 1).unwrap();
            VersionedCell::init_local(&win, 0, &[0u8; PAY]);
            ctx.barrier();
            win.lock_all().unwrap();
            if ctx.rank() == 0 {
                let mut txn = Txn::begin(&win);
                let e = txn.write(cell(1, 0), &[0u8; PAY]).unwrap_err();
                assert!(matches!(e, TxnError::BlindWrite { target: 1, disp: 0 }));
                assert!(!e.is_transient(), "a blind write is a program bug, not contention");
            }
            win.unlock_all().unwrap();
            ctx.barrier();
        });
    }

    #[test]
    fn a_wrong_size_buffer_is_refused_before_any_fabric_op() {
        Universe::new(2).node_size(1).seed(7).faults(FaultPlan::disabled()).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, CELL, 1).unwrap();
            VersionedCell::init_local(&win, 0, &[0u8; PAY]);
            ctx.barrier();
            win.lock_all().unwrap();
            // Rank 1 issues nothing while rank 0 reads the job's counters.
            ctx.barrier();
            if ctx.rank() == 0 {
                let c = cell(1, 0);
                let counters = ctx.fabric().counters();
                let refused = |e: TxnError, len: usize| {
                    assert!(
                        matches!(e, TxnError::PayloadSize { target: 1, disp: 0, expected: PAY, got }
                            if got == len),
                        "{e:?}"
                    );
                    assert!(!e.is_transient(), "a retry passes the same buffer");
                };
                let mut txn = Txn::begin(&win);
                let before = counters.snapshot();
                for len in [0, 4, 2 * PAY] {
                    let mut buf = vec![0u8; len];
                    refused(c.read(&win, &mut buf).unwrap_err(), len);
                    refused(txn.read(c, &mut buf).unwrap_err(), len);
                    // The size is checked first, even on a blind write.
                    refused(txn.write(c, &buf).unwrap_err(), len);
                }
                assert_eq!(counters.snapshot().since(&before), Default::default());
                // The transaction is still usable: a read, a refused write of
                // the wrong size, the right one, and a commit.
                let v = read_u64(&mut txn, c).unwrap();
                refused(txn.write(c, &[0u8; 2 * PAY]).unwrap_err(), 2 * PAY);
                txn.write(c, &(v + 1).to_le_bytes()).unwrap();
                assert_eq!(txn.commit().unwrap(), CommitStats { keys: 1, bytes: PAY });
            }
            ctx.barrier();
            win.unlock_all().unwrap();
            ctx.barrier();
        });
    }

    #[test]
    fn symmetric_two_key_conflicts_are_deadlock_free() {
        // Both ranks run opposing transfers over the same two cells for
        // many rounds. The sorted lock order turns would-be deadlocks
        // into plain conflicts, so with retries every round terminates —
        // and the conserved sum proves no half-applied transfer leaked.
        const ROUNDS: usize = 25;
        const INIT: u64 = 1_000_000;
        let (outs, fabric) = Universe::new(2)
            .node_size(1)
            .seed(9)
            .faults(FaultPlan::disabled())
            .metrics(true)
            .launch(|ctx| {
                let win = fompi::Win::allocate(ctx, CELL, 1).unwrap();
                VersionedCell::init_local(&win, 0, &INIT.to_le_bytes());
                ctx.barrier();
                win.lock_all().unwrap();
                let me = ctx.rank();
                let (a, b) = (cell(me, 0), cell(1 - me, 0)); // opposite orders
                let policy = RetryPolicy::default();
                let mut rng = Rng::seed_from_u64(100 + me as u64);
                for round in 0..ROUNDS {
                    let amt = (round as u64 % 7) + 1;
                    run(&win, &policy, &mut rng, |txn| {
                        let from = read_u64(txn, a)?;
                        let to = read_u64(txn, b)?;
                        txn.write(a, &from.wrapping_sub(amt).to_le_bytes())?;
                        txn.write(b, &to.wrapping_add(amt).to_le_bytes())?;
                        Ok(())
                    })
                    .unwrap();
                }
                win.unlock_all().unwrap();
                ctx.barrier();
                let mut bal = [0u8; PAY];
                win.read_local(8, &mut bal);
                ctx.allreduce_u64(u64::from_le_bytes(bal), u64::wrapping_add)
            });
        let tel = fabric.telemetry();
        let commits = tel.stats(EventKind::TxnCommit).count();
        assert_eq!(commits, 2 * ROUNDS as u64, "every transfer must eventually commit");
        for sum in outs {
            assert_eq!(sum, 2 * INIT, "transfers must conserve the total balance");
        }
    }

    #[test]
    fn retry_budget_exhaustion_is_transient_not_a_spin() {
        let (outs, fabric) = Universe::new(2)
            .node_size(1)
            .seed(13)
            .faults(FaultPlan::disabled())
            .metrics(true)
            .launch(|ctx| {
                let win = fompi::Win::allocate(ctx, CELL, 1).unwrap();
                VersionedCell::init_local(&win, 0, &[0u8; PAY]);
                ctx.barrier();
                win.lock_all().unwrap();
                let c = cell(0, 0);
                let mut out = None;
                if ctx.rank() == 0 {
                    // Hold our own cell's lock across the peer's attempts.
                    assert_eq!(c.cas_version(&win, 1, 0).unwrap(), 0);
                    win.flush_all().unwrap();
                }
                ctx.barrier();
                if ctx.rank() == 1 {
                    let policy = RetryPolicy::Backoff { budget: 3, base_ns: 50, cap_ns: 400 };
                    let mut rng = Rng::seed_from_u64(77);
                    let before = ctx.now();
                    let err = run(&win, &policy, &mut rng, |txn| {
                        let v = read_u64(txn, c)?;
                        txn.write(c, &(v + 1).to_le_bytes())?;
                        Ok(())
                    })
                    .unwrap_err();
                    assert!(
                        matches!(err, TxnError::RetriesExhausted { attempts: 3 }),
                        "got {err:?}"
                    );
                    assert!(err.is_transient(), "exhaustion must be sheddable, like backpressure");
                    // The backoff charged virtual time: we waited, not spun.
                    out = Some(ctx.now() - before);
                }
                ctx.barrier();
                if ctx.rank() == 0 {
                    assert_eq!(c.cas_version(&win, 0, 1).unwrap(), 1);
                    win.flush_all().unwrap();
                }
                win.unlock_all().unwrap();
                ctx.barrier();
                out
            });
        assert!(outs[1].unwrap() > 0.0);
        assert_eq!(fabric.telemetry().stats(EventKind::TxnAbort).count(), 3);
        assert_eq!(fabric.telemetry().stats(EventKind::TxnCommit).count(), 0);
    }

    /// Validation fetches the versions of a target's cells as one list, and
    /// a conflict names the cell that moved, whichever list it was in.
    #[test]
    fn validation_covers_every_target_and_names_the_moved_cell() {
        fn bump(win: &fompi::Win, c: VersionedCell) {
            let mut txn = Txn::begin(win);
            let v = read_u64(&mut txn, c).unwrap();
            txn.write(c, &(v + 1).to_le_bytes()).unwrap();
            txn.commit().unwrap();
        }
        Universe::new(2).node_size(1).seed(21).faults(FaultPlan::disabled()).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, 3 * CELL, 1).unwrap();
            ctx.barrier();
            win.lock_all().unwrap();
            // Rank 1 issues nothing while rank 0 reads the job's counters.
            ctx.barrier();
            if ctx.rank() == 0 {
                // Read last, so never validated: (0, 2).
                let cells = [cell(1, 2), cell(0, 0), cell(1, 0), cell(0, 2)];
                let read_all = || {
                    let mut txn = Txn::begin(&win);
                    for &c in &cells {
                        read_u64(&mut txn, c).unwrap();
                    }
                    txn
                };
                let counters = ctx.fabric().counters();
                let txn = read_all();
                let before = counters.snapshot();
                txn.commit().unwrap();
                assert_eq!(counters.snapshot().since(&before).amos, 3);
                for moved in [cell(1, 0), cell(0, 0), cell(1, 2)] {
                    let txn = read_all();
                    bump(&win, moved);
                    let e = txn.commit().unwrap_err();
                    let (target, disp) = (moved.target, moved.disp);
                    assert!(
                        matches!(e, TxnError::Conflict { target: t, disp: d } if (t, d) == (target, disp)),
                        "{e:?}"
                    );
                }
            }
            ctx.barrier();
            win.unlock_all().unwrap();
            ctx.barrier();
        });
    }

    /// A read-only transaction serialises at its last read: commit looks
    /// again at every cell but that one, and fences nothing.
    #[test]
    fn read_only_transactions_validate_their_snapshot() {
        /// `cell += 1` in a transaction of its own.
        fn bump(win: &fompi::Win, c: VersionedCell) {
            let mut txn = Txn::begin(win);
            let v = read_u64(&mut txn, c).unwrap();
            txn.write(c, &(v + 1).to_le_bytes()).unwrap();
            txn.commit().unwrap();
        }
        Universe::new(2).node_size(1).seed(21).faults(FaultPlan::disabled()).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, 2 * CELL, 1).unwrap();
            VersionedCell::init_local(&win, 0, &5u64.to_le_bytes());
            VersionedCell::init_local(&win, CELL, &50u64.to_le_bytes());
            ctx.barrier();
            win.lock_all().unwrap();
            // Rank 1 issues nothing while rank 0 reads the job's counters.
            ctx.barrier();
            if ctx.rank() == 0 {
                let (a, b) = (cell(1, 0), cell(1, 1));
                let counters = ctx.fabric().counters();
                // A clean two-cell snapshot commits with one AMO (the
                // version of the cell read first), no flush and no gsync.
                let mut txn = Txn::begin(&win);
                assert_eq!(read_u64(&mut txn, a).unwrap(), 5);
                assert_eq!(read_u64(&mut txn, b).unwrap(), 50);
                let before = counters.snapshot();
                assert_eq!(txn.commit().unwrap(), CommitStats { keys: 0, bytes: 0 });
                let d = counters.snapshot().since(&before);
                assert_eq!((d.amos, d.flushes, d.gsyncs), (1, 0, 0));
                assert_eq!((d.puts, d.gets), (0, 0));
                // A one-cell read is its own snapshot: nothing left to do.
                let mut txn = Txn::begin(&win);
                read_u64(&mut txn, a).unwrap();
                let before = counters.snapshot();
                txn.commit().unwrap();
                assert_eq!(counters.snapshot().since(&before), Default::default());

                // The cell read first moves before commit: at the last read
                // the pair was no snapshot any more.
                let mut stale = Txn::begin(&win);
                read_u64(&mut stale, a).unwrap();
                read_u64(&mut stale, b).unwrap();
                bump(&win, a);
                let e = stale.commit().unwrap_err();
                assert!(matches!(e, TxnError::Conflict { target: 1, disp: 0 }), "{e:?}");

                // Only the cell read last moves: the values returned are the
                // table as it stood at that read, and the commit says so.
                let mut txn = Txn::begin(&win);
                let seen = (read_u64(&mut txn, a).unwrap(), read_u64(&mut txn, b).unwrap());
                bump(&win, b);
                assert_eq!(seen, (6, 50));
                txn.commit().unwrap();

                // Reading the first cell again makes it the one read last,
                // so the second is the one commit validates.
                let mut txn = Txn::begin(&win);
                read_u64(&mut txn, a).unwrap();
                read_u64(&mut txn, b).unwrap();
                read_u64(&mut txn, a).unwrap();
                bump(&win, b);
                let e = txn.commit().unwrap_err();
                assert!(matches!(e, TxnError::Conflict { target: 1, disp: CELL }), "{e:?}");
                let mut txn = Txn::begin(&win);
                read_u64(&mut txn, a).unwrap();
                read_u64(&mut txn, b).unwrap();
                read_u64(&mut txn, a).unwrap();
                bump(&win, a);
                txn.commit().unwrap();
            }
            ctx.barrier();
            win.unlock_all().unwrap();
            ctx.barrier();
        });
    }
}
