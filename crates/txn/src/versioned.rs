//! Versioned remote cells: the seqlock-style object layout transactions
//! operate on.
//!
//! A cell is an 8-byte **version word** followed by `payload_len` payload
//! bytes, both in ordinary window memory. Even version = unlocked; odd =
//! a commit holds the cell. Readers never lock: a read is one pipelined
//! list of fetching AMOs, `[version, payload…, version]`, and the read is
//! rejected as *torn* if either version is odd or the two differ — the
//! seqlock check, done locally once the list is back.
//!
//! A consistent read serialises at its second version fetch: the payload
//! was read under an even version `v`, `v` still stood at that fetch, and
//! no payload changes without the version moving on for good — so the
//! bytes returned are the cell's contents at that instant. This needs the
//! list's elements to take effect in list order (DESIGN.md "The data
//! path"). A read-only transaction is built on exactly this
//! ([`crate::txn`]): its last read is its serialisation point, and commit
//! re-checks only the others.
//!
//! Every remote access is an accumulate-class op — version and payload
//! reads are `MPI_NO_OP` fetches, payload writes `MPI_REPLACE`
//! accumulates, version transitions CAS — so the epoch-aware race checker
//! sees only MPI-permitted same-op/no-op accumulate overlap, never put/get
//! conflicts.

use crate::{Result, TxnError};
use fompi::win::Win;
use fompi::FetchAmo;
use fompi_fabric::telemetry::{EventKind, NO_FLOW};

/// One remote versioned cell: the version word lives at `disp` (which
/// must be 8-byte aligned in the target's window — CAS requires it), the
/// payload at `disp + 8`. Displacements are in window displacement units;
/// the transactional structures use byte-addressed windows
/// (`disp_unit = 1`). A cell that breaks either layout rule is refused by
/// every operation on it with [`TxnError::Layout`], before any fabric op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedCell {
    /// Rank owning the cell.
    pub target: u32,
    /// Displacement of the version word.
    pub disp: usize,
    /// Payload bytes (must be a multiple of 8: payloads move as atomic
    /// 8-byte accumulate elements).
    pub payload_len: usize,
}

/// Seqlock validation: a read is consistent iff the version was even
/// (unlocked) and unchanged across the payload read.
#[inline]
pub fn versions_consistent(v1: u64, v2: u64) -> bool {
    v1 & 1 == 0 && v1 == v2
}

impl VersionedCell {
    /// A cell handle. The layout is checked where the cell is used (a
    /// read or a staged write), which refuses a misaligned version word or
    /// a payload that is not a positive multiple of 8 bytes with
    /// [`TxnError::Layout`].
    pub fn new(target: u32, disp: usize, payload_len: usize) -> VersionedCell {
        VersionedCell { target, disp, payload_len }
    }

    /// Window bytes one cell occupies (version word + payload).
    pub fn footprint(&self) -> usize {
        8 + self.payload_len
    }

    /// Initialize this rank's *own* cell before any epoch opens: version
    /// zero (unlocked), payload as given. Local stores only — call it
    /// between allocation and the first barrier, like any window
    /// initialization. Window memory starts zeroed, and a zeroed cell is
    /// already a valid version-0 cell with an all-zero payload: only a
    /// cell that starts with another payload needs this.
    pub fn init_local(win: &Win, disp: usize, payload: &[u8]) {
        win.write_local(disp, &0u64.to_le_bytes());
        win.write_local(disp + 8, payload);
    }

    /// Try the seqlock transition `expect → desired` on the version word;
    /// returns the previous value (success iff it equals `expect`).
    pub(crate) fn cas_version(&self, win: &Win, desired: u64, expect: u64) -> Result<u64> {
        Ok(win.compare_and_swap(desired, expect, self.target, self.disp)?)
    }

    /// Refuse a cell that breaks the layout rules ([`TxnError::Layout`]),
    /// then a payload buffer of `got` bytes unless it is this cell's size
    /// ([`TxnError::PayloadSize`]); callers check before any fabric op.
    pub(crate) fn check(&self, got: usize) -> Result<()> {
        let (target, disp, expected) = (self.target, self.disp, self.payload_len);
        if !disp.is_multiple_of(8) || expected == 0 || !expected.is_multiple_of(8) {
            return Err(TxnError::Layout { target, disp, payload_len: expected });
        }
        if got != expected {
            return Err(TxnError::PayloadSize { target, disp, expected, got });
        }
        Ok(())
    }

    /// One versioned read, one window call: the list `[version,
    /// payload…, version]` ([`Win::amo_fetch_list`]) — one AMO round trip
    /// plus an injection per further word — then the seqlock check,
    /// locally. On success returns the (even) version the payload is
    /// consistent with and records a `txn_read` telemetry span; a locked
    /// or moving version fails with [`TxnError::TornRead`] (transient —
    /// retry, e.g. via [`crate::run`]). A cell that breaks the layout
    /// rules ([`TxnError::Layout`]) or a `buf` that is not `payload_len`
    /// bytes ([`TxnError::PayloadSize`]) is refused before the list.
    pub fn read(&self, win: &Win, buf: &mut [u8]) -> Result<u64> {
        self.check(buf.len())?;
        let ep = win.endpoint();
        let t0 = ep.clock().now();
        let words = self.payload_len / 8;
        // Element `i` reads word `i` of the cell; the last reads word 0 again.
        let list = (0..words + 2).map(|i| FetchAmo::read(8 * (i % (words + 1))));
        let (mut v1, mut v2) = (0, 0);
        win.amo_fetch_list(self.target, self.disp, self.footprint(), list, |i, old| match i {
            0 => v1 = old,
            i if i <= words => buf[8 * i - 8..8 * i].copy_from_slice(&old.to_le_bytes()),
            _ => v2 = old,
        })?;
        if !versions_consistent(v1, v2) {
            return Err(TxnError::TornRead { target: self.target, disp: self.disp });
        }
        ep.trace_flow_consume(
            EventKind::TxnRead,
            self.target,
            t0,
            NO_FLOW,
            self.payload_len as u64,
        );
        Ok(v1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::FaultPlan;
    use fompi_runtime::Universe;

    fn uni(p: usize) -> Universe {
        Universe::new(p).node_size(1).seed(11).faults(FaultPlan::disabled())
    }

    #[test]
    fn consistency_predicate_pins_the_seqlock_rules() {
        assert!(versions_consistent(0, 0));
        assert!(versions_consistent(4, 4));
        // Locked at first fetch…
        assert!(!versions_consistent(1, 1));
        // …or moved across the payload read (even→even still tears).
        assert!(!versions_consistent(0, 2));
        assert!(!versions_consistent(2, 0));
        // …or locked at the re-check.
        assert!(!versions_consistent(2, 3));
    }

    #[test]
    fn read_roundtrips_payload_and_version() {
        let (outs, _) = uni(2).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, 24, 1).unwrap();
            let me = ctx.rank();
            VersionedCell::init_local(&win, 0, &[me as u8; 16]);
            ctx.barrier();
            win.lock_all().unwrap();
            let peer = 1 - me;
            let cell = VersionedCell::new(peer, 0, 16);
            let mut buf = [0u8; 16];
            let v = cell.read(&win, &mut buf).unwrap();
            win.unlock_all().unwrap();
            ctx.barrier();
            (v, buf)
        });
        for (me, (v, buf)) in outs.iter().enumerate() {
            assert_eq!(*v, 0, "fresh cell must read at version 0");
            assert_eq!(*buf, [(1 - me) as u8; 16]);
        }
    }

    #[test]
    fn torn_read_rejected_when_version_odd() {
        let (outs, _) = uni(2).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, 24, 1).unwrap();
            VersionedCell::init_local(&win, 0, &[0u8; 16]);
            ctx.barrier();
            win.lock_all().unwrap();
            let cell = VersionedCell::new(1, 0, 16);
            let mut torn = false;
            if ctx.rank() == 0 {
                // Lock rank 1's cell (0 → 1) and leave it locked…
                assert_eq!(cell.cas_version(&win, 1, 0).unwrap(), 0);
                win.flush_all().unwrap();
            }
            ctx.barrier();
            if ctx.rank() == 1 {
                // …so a reader must reject the odd version as torn.
                let mut buf = [0u8; 16];
                match cell.read(&win, &mut buf) {
                    Err(TxnError::TornRead { target: 1, disp: 0 }) => torn = true,
                    other => panic!("expected TornRead, got {other:?}"),
                }
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                // Unlock so quiescent teardown sees an even version.
                assert_eq!(cell.cas_version(&win, 0, 1).unwrap(), 1);
                win.flush_all().unwrap();
            }
            win.unlock_all().unwrap();
            ctx.barrier();
            torn
        });
        assert!(outs[1], "rank 1 must observe the torn read");
    }

    #[test]
    fn torn_read_is_transient_and_named() {
        let e = TxnError::TornRead { target: 3, disp: 48 };
        assert!(e.is_transient());
        assert!(e.to_string().contains("rank=3"));
    }

    /// Rank 0 uses `cell` on rank 1 every way a cell is used — a read, a
    /// read inside a transaction, a staged write — and each use must be
    /// refused with [`TxnError::Layout`] before any fabric op.
    fn refused_before_any_fabric_op(disp: usize, payload_len: usize) {
        uni(2).launch(|ctx| {
            let win = fompi::Win::allocate(ctx, 64, 1).unwrap();
            ctx.barrier();
            win.lock_all().unwrap();
            // Rank 1 issues nothing while rank 0 reads the job's counters.
            ctx.barrier();
            if ctx.rank() == 0 {
                let cell = VersionedCell::new(1, disp, payload_len);
                let refused = |e: TxnError| {
                    assert!(
                        matches!(e, TxnError::Layout { target: 1, disp: d, payload_len: l }
                            if (d, l) == (disp, payload_len)),
                        "{e:?}"
                    );
                    assert!(!e.is_transient(), "a retry uses the same cell");
                    assert!(e.to_string().contains(&format!("disp={disp}")), "{e}");
                };
                let counters = ctx.fabric().counters();
                let before = counters.snapshot();
                let mut buf = vec![0u8; payload_len];
                let mut txn = crate::Txn::begin(&win);
                refused(cell.read(&win, &mut buf).unwrap_err());
                refused(txn.read(cell, &mut buf).unwrap_err());
                refused(txn.write(cell, &buf).unwrap_err());
                assert_eq!(counters.snapshot().since(&before), Default::default());
            }
            ctx.barrier();
            win.unlock_all().unwrap();
            ctx.barrier();
        });
    }

    #[test]
    fn a_misaligned_version_word_is_refused() {
        refused_before_any_fabric_op(4, 16);
    }

    #[test]
    fn a_payload_not_a_positive_multiple_of_8_is_refused() {
        refused_before_any_fabric_op(8, 0);
        refused_before_any_fabric_op(8, 12);
    }
}
