//! MCS queue lock (extension; §2.3's remark: "The number of remote
//! requests while waiting can be bound by using MCS locks").
//!
//! The backoff-based exclusive lock of Figure 3 retries the remote CAS
//! while waiting — under contention that is unbounded remote traffic. The
//! classic Mellor-Crummey/Scott queue lock bounds it: a waiter enqueues
//! with **one** remote swap, links itself behind its predecessor with one
//! remote put, and then spins on a flag in its *own* memory. Release hands
//! the lock to the successor with a single remote put.
//!
//! This is a window-wide exclusive lock (an extension beyond MPI-3's
//! lock set — MPI has no exclusive lock_all). It opens an access epoch to
//! every rank while held. Queue-node state lives in the window metadata
//! (`MCS_TAIL` at the master, `MCS_FLAG`/`MCS_NEXT` per rank), so the
//! memory cost is O(1) per process. Being window-wide, it counts and
//! traces like `lock_all` / `unlock_all` (`locks` / `unlocks`, a
//! `LockAll` / `UnlockAll` span with no target).

use crate::error::Result;
use crate::meta::off;
use crate::win::{AccessEpoch, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use fompi_fabric::AmoOp;

impl Win {
    /// Acquire the window-wide MCS lock. Exactly one remote swap plus (if
    /// contended) one remote put; all waiting is local spinning.
    pub fn mcs_lock(&self) -> Result<()> {
        self.require(|st| st.access == AccessEpoch::None, "mcs_lock during open epoch")?;
        let frame = self.enter();
        let me = self.ep.rank();
        let my = self.meta_key(me);
        // Reset the local queue node before publishing ourselves.
        self.ep.write_sync(my, off::MCS_FLAG, 0)?;
        self.ep.write_sync(my, off::MCS_NEXT, 0)?;
        self.ep.mfence();
        let master = self.meta_key(self.shared.master);
        let old = self.ep.amo_sync(master, off::MCS_TAIL, AmoOp::Swap, me as u64 + 1, 0)?;
        if old != 0 {
            // Link behind the predecessor, then spin locally.
            let prev = (old - 1) as u32;
            self.ep.write_sync(self.meta_key(prev), off::MCS_NEXT, me as u64 + 1)?;
            self.wait_word(my, off::MCS_FLAG, "MCS predecessor release", |flag| flag != 0)?;
        }
        self.state.borrow_mut().access = AccessEpoch::LockAll;
        // Racecheck: the MCS lock is a window-wide exclusive session;
        // sample it only once the hand-off (or free tail) was observed.
        self.rc_lock_acquired(None);
        self.leave(frame, EventKind::LockAll, NO_TARGET);
        Ok(())
    }

    /// Release the window-wide MCS lock: complete all operations, then
    /// hand off to the successor (or clear the tail).
    pub fn mcs_unlock(&self) -> Result<()> {
        self.require(|st| st.access == AccessEpoch::LockAll, "mcs_unlock without mcs_lock")?;
        let frame = self.enter();
        self.ep.mfence();
        self.ep.gsync();
        // Racecheck release edge: before the tail CAS / successor flag
        // becomes visible, so the next holder samples the advanced epoch.
        self.rc_unlock(None);
        let me = self.ep.rank();
        let my = self.meta_key(me);
        let master = self.meta_key(self.shared.master);
        let mut next = self.ep.read_sync(my, off::MCS_NEXT)?;
        if next == 0 {
            // Nobody visible behind us: try to clear the tail.
            let old = self.ep.amo_sync(master, off::MCS_TAIL, AmoOp::Cas, 0, me as u64 + 1)?;
            if old != me as u64 + 1 {
                // A successor is mid-enqueue: wait for its link to appear.
                next = self.wait_word(my, off::MCS_NEXT, "MCS successor link", |next| next != 0)?;
            }
        }
        if next != 0 {
            self.ep.write_sync(self.meta_key((next - 1) as u32), off::MCS_FLAG, 1)?;
        }
        self.state.borrow_mut().access = AccessEpoch::None;
        self.leave(frame, EventKind::UnlockAll, NO_TARGET);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::win::{LockType, Win};
    use fompi_fabric::CostModel;
    use fompi_runtime::Universe;

    #[test]
    fn mcs_mutual_exclusion_counter() {
        let p = 8;
        let iters = 25;
        let got = Universe::new(p).node_size(4).model(CostModel::free()).run(move |ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            for _ in 0..iters {
                win.mcs_lock().unwrap();
                let mut cur = [0u8; 8];
                win.get(&mut cur, 0, 0).unwrap();
                win.flush(0).unwrap();
                let v = u64::from_le_bytes(cur) + 1;
                win.put(&v.to_le_bytes(), 0, 0).unwrap();
                win.mcs_unlock().unwrap();
            }
            ctx.barrier();
            let mut b = [0u8; 8];
            win.read_local(0, &mut b);
            u64::from_le_bytes(b)
        });
        assert_eq!(got[0], (p * iters) as u64);
    }

    #[test]
    fn mcs_uncontended_is_two_remote_ops() {
        let (res, _fabric) = Universe::new(2).node_size(1).launch(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            let mut ops = 0;
            ctx.barrier();
            if ctx.rank() == 1 {
                let before = ctx.fabric().counters().snapshot();
                win.mcs_lock().unwrap();
                win.mcs_unlock().unwrap();
                let after = ctx.fabric().counters().snapshot();
                ops = after.since(&before).total_ops();
            }
            ctx.barrier();
            ops
        });
        // lock: 2 local node resets + 1 swap; unlock: 1 local read + 1 CAS.
        // Bounded small constant either way.
        assert!(res[1] <= 8, "uncontended MCS cost: {} ops", res[1]);
    }

    /// The paper's point: while *waiting*, MCS spins locally whereas the
    /// backoff lock keeps issuing remote AMOs.
    #[test]
    fn mcs_waiting_issues_fewer_remote_ops_than_backoff() {
        let contended_ops = |mcs: bool| {
            let (_res, fabric) = Universe::new(6).node_size(1).launch(move |ctx| {
                let win = Win::allocate(ctx, 16, 1).unwrap();
                ctx.barrier();
                for _ in 0..10 {
                    if mcs {
                        win.mcs_lock().unwrap();
                        win.mcs_unlock().unwrap();
                    } else {
                        win.lock(LockType::Exclusive, 0).unwrap();
                        win.unlock(0).unwrap();
                    }
                }
                ctx.barrier();
            });
            fabric.counters().snapshot().amos
        };
        let mcs = contended_ops(true);
        let backoff = contended_ops(false);
        assert!(mcs < backoff, "MCS should bound waiting traffic: {mcs} AMOs vs backoff {backoff}");
    }
}
