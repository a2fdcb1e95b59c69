//! Passive-target lock synchronisation (§2.3, Figure 3).
//!
//! Two-level 64-bit lock hierarchy:
//!
//! * one **global** lock word at a designated *master* — high 32 bits count
//!   processes registered for exclusive locks, low 32 bits count
//!   lock_all (global shared) holders; the two halves mutually exclude;
//! * one **local** reader-writer word per rank — bit 63 is the writer bit,
//!   the low bits count shared holders.
//!
//! Costs (uncontended) match the paper: a shared lock or lock_all is one
//! remote AMO; the first exclusive lock is two AMOs (global registration +
//! local CAS), later exclusive locks by the same origin skip the global
//! step; unlock is one AMO (plus one more when the last exclusive lock
//! releases the global registration). All waiting uses exponential
//! backoff.

use super::Spin;
use crate::error::{FompiError, Result};
use crate::meta::{off, split_global, GLOBAL_EXCL_ONE, WRITER_BIT};
use crate::win::{AccessEpoch, LockType, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use fompi_fabric::{AmoOp, SegKey};

/// Lock assertion: the user guarantees no conflicting lock is held or
/// attempted (MPI_MODE_NOCHECK) — the acquisition protocol is skipped
/// entirely, leaving only epoch bookkeeping.
pub const ASSERT_NOCHECK: u32 = 0x10;

impl Win {
    /// MPI_Win_lock: open a passive-target access epoch toward `target`.
    pub fn lock(&self, lock_type: LockType, target: u32) -> Result<()> {
        self.lock_assert(lock_type, target, 0)
    }

    /// [`Win::lock`] with assertions. With [`ASSERT_NOCHECK`] no protocol
    /// messages are sent at all — the paper's zero-cost path for
    /// statically race-free programs.
    pub fn lock_assert(&self, lock_type: LockType, target: u32, assert: u32) -> Result<()> {
        self.require(
            |st| matches!(st.access, AccessEpoch::None | AccessEpoch::Lock),
            "lock during non-passive epoch",
        )?;
        self.require(|st| !st.locks.contains_key(&target), "target already locked by this origin")?;
        let frame = self.enter();
        let nocheck = assert & ASSERT_NOCHECK != 0;
        if !nocheck {
            match lock_type {
                LockType::Shared => self.lock_shared(target)?,
                LockType::Exclusive => self.lock_exclusive(target)?,
            }
        }
        let mut st = self.state.borrow_mut();
        // A NOCHECK lock acquired nothing: it is recorded as shared (what
        // the race checker takes it for) and as having nothing to release.
        st.locks.insert(target, if nocheck { LockType::Shared } else { lock_type });
        st.access = AccessEpoch::Lock;
        if nocheck {
            st.nocheck.insert(target);
        }
        drop(st);
        // Sample the racecheck session *after* the protocol succeeded, so
        // a blocked acquirer observes the releasing holder's epoch bump.
        self.rc_lock_acquired(Some(target));
        self.leave(frame, EventKind::Lock, target);
        Ok(())
    }

    /// MPI_Win_unlock: completes all operations to `target`, then releases
    /// the lock.
    pub fn unlock(&self, target: u32) -> Result<()> {
        let lock_type = {
            let st = self.state.borrow();
            *st.locks.get(&target).ok_or(FompiError::InvalidEpoch("unlock without lock"))?
        };
        let frame = self.enter();
        // Unlock must guarantee completion at the target. `flush_target`
        // first retires any open injection burst to `target` (issue-side
        // batching), then joins that peer's completion horizon.
        self.ep.mfence();
        self.ep.flush_target(target);
        // Racecheck release edge: bump *before* the release AMOs become
        // visible, so the next acquirer samples the advanced epoch.
        self.rc_unlock(Some(target));
        // MPI_MODE_NOCHECK: nothing was acquired, nothing to release.
        if !self.state.borrow_mut().nocheck.remove(&target) {
            self.release(lock_type, target)?;
        }
        let mut st = self.state.borrow_mut();
        st.locks.remove(&target);
        if st.locks.is_empty() {
            st.access = AccessEpoch::None;
        }
        drop(st);
        self.leave(frame, EventKind::Unlock, target);
        Ok(())
    }

    /// The release AMOs of a lock of `lock_type` held on `target`.
    fn release(&self, lock_type: LockType, target: u32) -> Result<()> {
        let lkey = self.meta_key(target);
        match lock_type {
            // Releases are non-fetching AMOs: one injection, completion
            // in the background (Punlock = 0.4 µs, §3.2).
            LockType::Shared => {
                self.ep.amo_sync_release(lkey, off::LOCAL_LOCK, AmoOp::Add, u64::MAX)?;
                // -1
            }
            LockType::Exclusive => {
                // fetch_sub(WRITER_BIT) preserves concurrent reader
                // register/back-off deltas (a swap(0) would destroy them).
                self.ep.amo_sync_release(
                    lkey,
                    off::LOCAL_LOCK,
                    AmoOp::Add,
                    WRITER_BIT.wrapping_neg(),
                )?;
                let held = self.held_excl.get() - 1;
                self.held_excl.set(held);
                if held == 0 {
                    let gkey = self.meta_key(self.shared.master);
                    self.ep.amo_sync_release(
                        gkey,
                        off::GLOBAL_LOCK,
                        AmoOp::Add,
                        GLOBAL_EXCL_ONE.wrapping_neg(),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// MPI_Win_lock_all: shared lock on every rank — one remote AMO on the
    /// global lock (the MPI-3.0 specification does not allow an exclusive
    /// lock_all).
    pub fn lock_all(&self) -> Result<()> {
        self.require(|st| st.access == AccessEpoch::None, "lock_all during open epoch")?;
        let frame = self.enter();
        let gkey = self.meta_key(self.shared.master);
        let no_excl: fn(u64) -> bool = |w| split_global(w).0 == 0;
        let mut spin = Spin::new("global lock free of exclusive holders");
        while !self.try_register(gkey, off::GLOBAL_LOCK, 1, no_excl)? {
            spin.lost(&self.ep, gkey, off::GLOBAL_LOCK, "lock-all", no_excl);
        }
        self.state.borrow_mut().access = AccessEpoch::LockAll;
        self.rc_lock_acquired(None);
        self.leave(frame, EventKind::LockAll, NO_TARGET);
        Ok(())
    }

    /// MPI_Win_unlock_all.
    pub fn unlock_all(&self) -> Result<()> {
        self.require(|st| st.access == AccessEpoch::LockAll, "unlock_all without lock_all")?;
        let frame = self.enter();
        self.ep.mfence();
        self.ep.gsync();
        self.rc_unlock(None);
        let gkey = self.meta_key(self.shared.master);
        self.ep.amo_sync_release(gkey, off::GLOBAL_LOCK, AmoOp::Add, u64::MAX)?; // -1
        self.state.borrow_mut().access = AccessEpoch::None;
        self.leave(frame, EventKind::UnlockAll, NO_TARGET);
        Ok(())
    }

    // ----------------------------------------------------------- internals

    /// Register on a lock word: add `one` at `key`+`off` if the word found
    /// there was `free`, else take it back (so whoever holds the other half
    /// is not starved while we wait) and say so.
    fn try_register(
        &self,
        key: SegKey,
        off: usize,
        one: u64,
        free: fn(u64) -> bool,
    ) -> Result<bool> {
        let registered = free(self.ep.amo_sync(key, off, AmoOp::Add, one, 0)?);
        if !registered {
            self.ep.amo_sync(key, off, AmoOp::Add, one.wrapping_neg(), 0)?;
        }
        Ok(registered)
    }

    /// Shared lock: one fetch-and-add on the target's local lock; if a
    /// writer holds it, back off and spin-read until the writer bit clears.
    fn lock_shared(&self, target: u32) -> Result<()> {
        let lkey = self.meta_key(target);
        let no_writer: fn(u64) -> bool = |w| w & WRITER_BIT == 0;
        let mut spin = Spin::new("exclusive lock release");
        while !self.try_register(lkey, off::LOCAL_LOCK, 1, no_writer)? {
            // Under the model checker the writer's release wakes us, with
            // nothing to re-read.
            while !spin.lost(&self.ep, lkey, off::LOCAL_LOCK, "lock-shared", no_writer)
                && !no_writer(self.ep.read_sync(lkey, off::LOCAL_LOCK)?)
            {}
        }
        Ok(())
    }

    /// Exclusive lock: invariant 1 registers on the global lock (skipped
    /// when this origin already holds an exclusive lock); invariant 2 CASes
    /// the target's local lock from 0 to the writer bit. If the local CAS
    /// fails while we hold no other exclusive lock, release the global
    /// registration and retry both steps (Figure 3c, Process 2).
    fn lock_exclusive(&self, target: u32) -> Result<()> {
        let gkey = self.meta_key(self.shared.master);
        let lkey = self.meta_key(target);
        let no_lock_all: fn(u64) -> bool = |w| split_global(w).1 == 0;
        let mut spin = Spin::new("the target's lock and the global lock free of other holders");
        loop {
            // Invariant 1: no lock_all holders.
            let registered_here = self.held_excl.get() == 0;
            while registered_here
                && !self.try_register(gkey, off::GLOBAL_LOCK, GLOBAL_EXCL_ONE, no_lock_all)?
            {
                spin.lost(&self.ep, gkey, off::GLOBAL_LOCK, "lock-excl-global", no_lock_all);
            }
            // Invariant 2: acquire the local writer bit.
            let old = self.ep.amo_sync(lkey, off::LOCAL_LOCK, AmoOp::Cas, WRITER_BIT, 0)?;
            if old == 0 {
                self.held_excl.set(self.held_excl.get() + 1);
                return Ok(());
            }
            if registered_here {
                // Release the global registration while we wait, so
                // lock_all requests are not starved.
                self.ep.amo_sync(
                    gkey,
                    off::GLOBAL_LOCK,
                    AmoOp::Add,
                    GLOBAL_EXCL_ONE.wrapping_neg(),
                    0,
                )?;
            }
            spin.lost(&self.ep, lkey, off::LOCAL_LOCK, "lock-excl-local", |w| w == 0);
        }
    }
}
