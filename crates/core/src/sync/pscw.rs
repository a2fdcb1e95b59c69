//! General Active Target Synchronisation (Post/Start/Complete/Wait).
//!
//! The paper's scalable matching protocol (§2.3, Figure 2): a poster
//! announces itself by acquiring a free element in the *target's* matching
//! list through a purely one-sided free-storage-management protocol
//! (Figure 2c) and pushing it onto the target's match list; a starter spins
//! on its *local* list until every member of its access group is present;
//! `complete` commits all RMA operations and bumps a remote completion
//! counter at each exposure peer; `wait` spins locally on that counter.
//!
//! Message complexity: O(k) remote AMOs for post and complete, **zero**
//! remote operations for start and wait — the property Figure 6c measures
//! (flat PSCW latency in p for a ring, k = 2).
//!
//! Both remote lists are Treiber stacks whose head words carry an ABA tag
//! in the high 32 bits; elements live in a fixed pool sized by
//! `WinConfig::pscw_pool`, giving the O(k) memory bound.

use super::{Frame, Spin};
use crate::error::{FompiError, Result};
use crate::meta::{self, off};
use crate::win::{AccessEpoch, ExposureEpoch, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use fompi_fabric::AmoOp;
use fompi_runtime::Group;

impl Win {
    /// MPI_Win_post: open an exposure epoch for `group`. Announces this
    /// rank in every group member's matching list; never blocks on the
    /// peers' progress (only on pool space).
    pub fn post(&self, group: &Group) -> Result<()> {
        self.require(|st| st.exposure == ExposureEpoch::None, "post during open exposure epoch")?;
        let frame = self.enter();
        // Racecheck acquire edge for the new exposure epoch — bumped
        // *before* the announcement unblocks any starter, so their
        // accesses land in the new generation.
        self.rc_acquire_own();
        let me = self.ep.rank();
        if self.shared.cfg.pscw_fast {
            // Fast path: one FAA ticket + one put per neighbour. The ring
            // cursor lives in the MATCH_HEAD word; slots hold origin+1 (0 =
            // free). Bounded-outstanding assumption: ≤ pscw_pool posts in
            // flight per target (the paper's k ∈ O(log p)).
            let pool = self.shared.cfg.pscw_pool as u64;
            for target in group.iter() {
                let mkey = self.meta_key(target);
                let ticket = self.ep.amo_sync(mkey, off::MATCH_HEAD, AmoOp::Add, 1, 0)?;
                let slot = (ticket % pool) as u32;
                let soff = self.shared.cfg.pool_off(slot);
                // Wait for the slot to be free (only when lapped).
                let mut spin = Spin::new("a free PSCW announcement slot");
                while self.ep.read_sync(mkey, soff)? != 0 {
                    let misses = spin.miss();
                    if misses > self.shared.cfg.pool_retry_limit {
                        return Err(FompiError::PoolExhausted { target });
                    }
                    super::backoff_spin(&self.ep, misses);
                }
                self.ep.write_sync(mkey, soff, me as u64 + 1)?;
            }
        } else {
            for target in group.iter() {
                let idx = self.list_acquire_slot(target)?;
                self.list_push(target, off::MATCH_HEAD, idx, me)?;
            }
        }
        self.state.borrow_mut().exposure = ExposureEpoch::Pscw(group.clone());
        self.leave(frame, EventKind::Post, NO_TARGET);
        Ok(())
    }

    /// MPI_Win_start: open an access epoch toward `group`. Blocks until
    /// every member's post has arrived in the local matching list
    /// (§2.5 (b)). Purely local spinning — zero remote operations.
    pub fn start(&self, group: &Group) -> Result<()> {
        self.require(|st| st.access == AccessEpoch::None, "start during open access epoch")?;
        let frame = self.enter();
        // The origins still unmatched, in storage the window keeps between
        // epochs (taken out, so the scans below may borrow the state; a
        // start that returned left it empty).
        let mut needed = std::mem::take(&mut self.state.borrow_mut().unmatched);
        needed.extend(group.iter());
        // (An empty group has nothing to scan for, not even once.)
        if !group.is_empty() {
            let what = "matching MPI_Win_post calls";
            if self.shared.cfg.pscw_fast {
                // Posts announce into slot words after their FAA ticket: no
                // one word to park on yet (ROADMAP 4 b).
                let scan = || {
                    self.reap_matches_fast(&mut needed)?;
                    Ok(needed.is_empty().then_some(()))
                };
                self.spin_until(what, scan, || false)?;
            } else {
                // Every post CASes (and re-tags) the match-list head.
                self.wait_scan(self.meta_key(self.ep.rank()), off::MATCH_HEAD, what, || {
                    let head = self.reap_matches(&mut needed)?;
                    Ok((needed.is_empty(), head))
                })?;
            }
        }
        let mut st = self.state.borrow_mut();
        st.unmatched = needed;
        st.access = AccessEpoch::Pscw(group.clone());
        drop(st);
        self.leave(frame, EventKind::Start, NO_TARGET);
        Ok(())
    }

    /// MPI_Win_complete: close the access epoch. Guarantees remote
    /// visibility of all issued RMA operations, then increments the
    /// completion counter at every group member (one remote AMO each).
    pub fn complete(&self) -> Result<()> {
        let group = {
            let st = self.state.borrow();
            match &st.access {
                AccessEpoch::Pscw(g) => g.clone(),
                _ => return Err(FompiError::InvalidEpoch("complete without start")),
            }
        };
        let frame = self.enter();
        // `gsync` retires open injection bursts before joining the
        // completion horizon, so batched access epochs close correctly.
        self.ep.mfence();
        self.ep.gsync();
        for target in group.iter() {
            // Racecheck: complete orders this origin's own later accesses
            // (a phase edge only — bumping the generation here would mask
            // races between two origins sharing one exposure epoch).
            self.rc_flush(Some(target));
            // Non-fetching FAA: one injection per neighbour, latencies
            // overlapped — Pcomplete = 350 ns · k (§3.2).
            self.ep.amo_sync_release(self.meta_key(target), off::COMPLETION, AmoOp::Add, 1)?;
        }
        self.state.borrow_mut().access = AccessEpoch::None;
        self.leave(frame, EventKind::Complete, NO_TARGET);
        Ok(())
    }

    /// MPI_Win_wait: close the exposure epoch; blocks until every member
    /// of the exposure group has called complete (§2.5 (c)). Local
    /// spinning on the completion counter — zero remote operations.
    pub fn wait(&self) -> Result<()> {
        let want = self.exposed_to("wait without post")?;
        let frame = self.enter();
        let mkey = self.meta_key(self.ep.rank());
        self.wait_word(mkey, off::COMPLETION, "matching MPI_Win_complete calls", move |v| {
            v >= want
        })?;
        self.close_exposure(frame, want)
    }

    /// MPI_Win_test: nonblocking [`Win::wait`]. Returns `true` (and closes
    /// the exposure epoch) if all completes arrived.
    pub fn test(&self) -> Result<bool> {
        let want = self.exposed_to("test without post")?;
        let frame = self.enter();
        if self.ep.read_sync(self.meta_key(self.ep.rank()), off::COMPLETION)? < want {
            return Ok(false);
        }
        self.close_exposure(frame, want).map(|()| true)
    }

    /// How many completes the open exposure epoch waits for, or `refusal`
    /// when none is open.
    fn exposed_to(&self, refusal: &'static str) -> Result<u64> {
        match &self.state.borrow().exposure {
            ExposureEpoch::Pscw(g) => Ok(g.len() as u64),
            _ => Err(FompiError::InvalidEpoch(refusal)),
        }
    }

    /// All `want` completes of the exposure epoch were seen: consume them
    /// and close it.
    fn close_exposure(&self, frame: Frame, want: u64) -> Result<()> {
        // Consume the counter (epochs may repeat).
        self.ep.amo_sync(
            self.meta_key(self.ep.rank()),
            off::COMPLETION,
            AmoOp::Add,
            (want as i64).wrapping_neg() as u64,
            0,
        )?;
        self.state.borrow_mut().exposure = ExposureEpoch::None;
        // Racecheck acquire edge: every complete of this epoch has been
        // observed, so local reads that follow are ordered.
        self.rc_acquire_own();
        self.leave(frame, EventKind::WaitEpoch, NO_TARGET);
        Ok(())
    }

    // ---------------------------------------------------- protocol pieces

    /// Fast-path scan: the pool is a slot array; consume announcements by
    /// zeroing the slot (purely local operations).
    fn reap_matches_fast(&self, needed: &mut Vec<u32>) -> Result<()> {
        let me = self.ep.rank();
        let mkey = self.meta_key(me);
        for slot in 0..self.shared.cfg.pscw_pool as u32 {
            if needed.is_empty() {
                break;
            }
            let soff = self.shared.cfg.pool_off(slot);
            let v = self.ep.read_sync(mkey, soff)?;
            if v != 0 {
                let origin = (v - 1) as u32;
                if matched(needed, origin) {
                    self.ep.write_sync(mkey, soff, 0)?;
                }
            }
        }
        Ok(())
    }

    /// Scan the local match list, unlinking and recycling every element
    /// whose origin is still `needed`. Only the owner unlinks, so interior
    /// updates are safe; head removal races only with new pushes and is
    /// resolved by CAS. Returns the head word the final pass read.
    fn reap_matches(&self, needed: &mut Vec<u32>) -> Result<u64> {
        let me = self.ep.rank();
        let mkey = self.meta_key(me);
        let cfg = &self.shared.cfg;
        'restart: loop {
            let mh = self.ep.read_sync(mkey, off::MATCH_HEAD)?;
            let (tag, head) = meta::unpack_head(mh);
            let mut prev: Option<u32> = None;
            let mut cur = head;
            while cur != meta::NIL {
                let ev = self.ep.read_sync(mkey, cfg.pool_off(cur))?;
                let (origin, next) = meta::unpack_elem(ev);
                if needed.contains(&origin) {
                    match prev {
                        Some(p) => {
                            // Interior unlink: only we modify next links.
                            let pv = self.ep.read_sync(mkey, cfg.pool_off(p))?;
                            let (porigin, _) = meta::unpack_elem(pv);
                            self.ep.write_sync(
                                mkey,
                                cfg.pool_off(p),
                                meta::pack_elem(porigin, next),
                            )?;
                            matched(needed, origin);
                            self.list_free_local(cur)?;
                            cur = next;
                        }
                        None => {
                            // Head unlink: CAS against concurrent pushes.
                            let old = self.ep.amo_sync(
                                mkey,
                                off::MATCH_HEAD,
                                AmoOp::Cas,
                                meta::pack_head(tag.wrapping_add(1), next),
                                mh,
                            )?;
                            if old == mh {
                                matched(needed, origin);
                                self.list_free_local(cur)?;
                            }
                            continue 'restart;
                        }
                    }
                } else {
                    prev = Some(cur);
                    cur = next;
                }
            }
            return Ok(mh);
        }
    }
}

/// Strike `origin` off the unmatched origins; whether it was on them.
fn matched(needed: &mut Vec<u32>, origin: u32) -> bool {
    let at = needed.iter().position(|&r| r == origin);
    at.map(|i| needed.swap_remove(i)).is_some()
}
