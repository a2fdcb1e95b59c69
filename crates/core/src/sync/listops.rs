//! Shared one-sided intrusive-list operations (Figure 2c generalised).
//!
//! The PSCW matching list's machinery: a per-rank pool of 16-byte
//! elements managed by a remote Treiber free list, plus tagged list heads
//! that elements can be pushed onto with one-sided CAS sequences. Heads
//! carry an ABA tag in the high 32 bits.

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
}
