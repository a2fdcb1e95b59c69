//! Shared one-sided intrusive-list operations (Figure 2c generalised).
//!
//! The PSCW matching list, the dynamic-window registered-readers list and
//! the invalidation mailbox all use the same machinery: a per-rank pool of
//! 16-byte elements managed by a remote Treiber free list, plus any number
//! of tagged list heads that elements can be pushed onto with one-sided
//! CAS sequences. Heads carry an ABA tag in the high 32 bits.

use super::Spin;
use crate::error::{FompiError, Result};
use crate::meta::{self, off};
use crate::win::Win;
use fompi_fabric::AmoOp;

impl Win {
    /// Acquire a free pool element at `target` (Figure 2c: get head → get
    /// element's next → CAS head). Spins while the pool is exhausted.
    pub(crate) fn list_acquire_slot(&self, target: u32) -> Result<u32> {
        let mkey = self.meta_key(target);
        let cfg = &self.shared.cfg;
        let mut spin = Spin::new("a free element of the matching pool");
        loop {
            let h = self.ep.read_sync(mkey, off::FREE_HEAD)?;
            let (tag, idx) = meta::unpack_head(h);
            if idx == meta::NIL {
                let misses = spin.miss();
                if misses > cfg.pool_retry_limit {
                    return Err(FompiError::PoolExhausted { target });
                }
                super::backoff_spin(&self.ep, misses);
                continue;
            }
            let elem = self.ep.read_sync(mkey, cfg.pool_off(idx))?;
            let (_, next) = meta::unpack_elem(elem);
            let old = self.ep.amo_sync(
                mkey,
                off::FREE_HEAD,
                AmoOp::Cas,
                meta::pack_head(tag.wrapping_add(1), next),
                h,
            )?;
            if old == h {
                return Ok(idx);
            }
            super::backoff_spin(&self.ep, spin.miss().min(6));
        }
    }

    /// Push pool element `idx` carrying `origin` onto `target`'s list at
    /// `head_off`.
    pub(crate) fn list_push(
        &self,
        target: u32,
        head_off: usize,
        idx: u32,
        origin: u32,
    ) -> Result<()> {
        let mkey = self.meta_key(target);
        let cfg = &self.shared.cfg;
        let mut spin = Spin::new("a list-head CAS to win");
        loop {
            let mh = self.ep.read_sync(mkey, head_off)?;
            let (tag, head_idx) = meta::unpack_head(mh);
            self.ep.write_sync(mkey, cfg.pool_off(idx), meta::pack_elem(origin, head_idx))?;
            let old = self.ep.amo_sync(
                mkey,
                head_off,
                AmoOp::Cas,
                meta::pack_head(tag.wrapping_add(1), idx),
                mh,
            )?;
            if old == mh {
                return Ok(());
            }
            super::backoff_spin(&self.ep, spin.miss().min(6));
        }
    }

    /// Return pool element `idx` to the *local* free list: a push onto it.
    pub(crate) fn list_free_local(&self, idx: u32) -> Result<()> {
        self.list_push(self.ep.rank(), off::FREE_HEAD, idx, 0)
    }

    /// Atomically take the whole local list at `head_off`, returning the
    /// origins of its elements (elements are recycled). Concurrent pushers
    /// retry against the tag bump, so no element is lost.
    pub(crate) fn list_drain_local(&self, head_off: usize) -> Result<Vec<u32>> {
        let me = self.ep.rank();
        let mkey = self.meta_key(me);
        let cfg = &self.shared.cfg;
        let mut spin = Spin::new("a list-head CAS to win");
        loop {
            let h = self.ep.read_sync(mkey, head_off)?;
            let (tag, idx) = meta::unpack_head(h);
            if idx == meta::NIL {
                return Ok(Vec::new());
            }
            let old = self.ep.amo_sync(
                mkey,
                head_off,
                AmoOp::Cas,
                meta::pack_head(tag.wrapping_add(1), meta::NIL),
                h,
            )?;
            if old == h {
                // The chain is now private: walk and recycle.
                let mut origins = Vec::new();
                let mut cur = idx;
                while cur != meta::NIL {
                    let ev = self.ep.read_sync(mkey, cfg.pool_off(cur))?;
                    let (origin, next) = meta::unpack_elem(ev);
                    origins.push(origin);
                    self.list_free_local(cur)?;
                    cur = next;
                }
                return Ok(origins);
            }
            super::backoff_spin(&self.ep, spin.miss().min(6));
        }
    }
}
