//! Dynamic windows: attach/detach and the one-sided region-table cache
//! (§2.2).
//!
//! Attach and detach are *non-collective* and purely local: the owner
//! registers the region, appends `(addr, size, key)` to its region table in
//! the meta segment and bumps the table's id counter. A peer that wants to
//! communicate first reads the remote id (one get); if its cached table is
//! stale it fetches the whole table with one bulk get and re-resolves.
//! This is exactly the paper's cached protocol — O(1) memory per region
//! and one extra round trip only after attach/detach activity.

use crate::error::{FompiError, Result};
use crate::meta::{self, off, DYN_ENTRY_BYTES};
use crate::win::{LocalRegion, RemoteRegions, Win, WinKind};
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::{FabricError, SegKey, Segment};
use std::sync::Arc;

/// How many transient refusals ([`FabricError::is_transient`]) one issue
/// is retried through before the error surfaces. Under any plausible fault
/// plan (refusal probability < 1) the chance of this many consecutive
/// failures is negligible, so hitting the limit means the plan is
/// pathological — the error then carries the last retry hint.
const RETRY_LIMIT: u32 = 64;

impl Win {
    /// Issue something the fabric may refuse transiently — nothing was
    /// issued, so retrying has no ordering footprint — until it is accepted
    /// or refused [`RETRY_LIMIT`] times over. Each retry charges the hinted
    /// backoff, doubling up to 2⁶, to virtual time; a busy registration
    /// resource also traces it as a `FaultRetry` span (the injection queue's
    /// refusal was traced where it was drawn).
    pub(crate) fn retry_transient<T>(
        &self,
        mut issue: impl FnMut() -> std::result::Result<T, FabricError>,
    ) -> Result<T> {
        let mut attempt = 0u32;
        loop {
            let (retry_after_ns, busy) = match issue() {
                Ok(v) => return Ok(v),
                Err(e) if attempt == RETRY_LIMIT => return Err(e.into()),
                Err(FabricError::SegmentBusy { retry_after_ns }) => (retry_after_ns, true),
                Err(FabricError::Backpressure { retry_after_ns }) => (retry_after_ns, false),
                Err(e) => return Err(e.into()),
            };
            attempt += 1;
            let t0 = self.ep.clock().now();
            self.ep.charge(retry_after_ns as f64 * (1u64 << attempt.min(6)) as f64 / 2.0);
            if busy {
                self.ep.trace_sync(EventKind::FaultRetry, self.ep.rank(), t0);
            }
        }
    }

    /// MPI_Win_attach: expose `size` bytes (library-allocated — ranks are
    /// threads, so "user memory" is handed out by the window). Returns the
    /// region's address in the target address space.
    pub fn attach(&self, size: usize) -> Result<u64> {
        if self.kind() != WinKind::Dynamic {
            return Err(FompiError::InvalidEpoch("attach requires a dynamic window"));
        }
        let mut local = self.dyn_local.borrow_mut();
        if local.len() >= meta::MAX_DYN_REGIONS {
            return Err(FompiError::RegionTableFull);
        }
        let seg = Segment::new(size.max(8));
        // Registration may fail transiently (`SegmentBusy`) under an armed
        // fault plan, as NIC registration resources can on real hardware.
        // Retrying here is legal: the region is not yet visible to any
        // peer, so no MPI ordering guarantee is in force — attach is
        // local and non-collective (§2.2).
        let key =
            self.retry_transient(|| self.ep.fabric().try_register(self.ep.rank(), seg.clone()))?;
        self.ep.charge(self.ep.fabric().model().register_ns);
        // Page-aligned bump allocation of the virtual RMA address space.
        let addr = self.dyn_next_addr.get();
        let span = (size.max(8) as u64 + 0xFFF) & !0xFFF;
        self.dyn_next_addr.set(addr + span);
        // Publish: write the table entry, bump count, bump the id counter
        // (readers check the id first, so order matters).
        let idx = local.len();
        let ekey = self.meta_key(self.ep.rank());
        let eoff = meta::dyn_entry_off(idx);
        self.my_meta.write_u64(eoff, addr);
        self.my_meta.write_u64(eoff + 8, size as u64);
        self.my_meta.write_u64(eoff + 16, key.id);
        self.ep.write_sync(ekey, off::DYN_COUNT, (idx + 1) as u64)?;
        self.ep.amo_sync(ekey, off::DYN_ID, fompi_fabric::AmoOp::Add, 1, 0)?;
        local.push(LocalRegion { addr, size, key, seg });
        Ok(addr)
    }

    /// MPI_Win_detach: withdraw the region at `addr`. Remote peers with a
    /// cached descriptor notice via the id counter on their next access.
    pub fn detach(&self, addr: u64) -> Result<()> {
        if self.kind() != WinKind::Dynamic {
            return Err(FompiError::InvalidEpoch("detach requires a dynamic window"));
        }
        let mut local = self.dyn_local.borrow_mut();
        let idx = local
            .iter()
            .position(|r| r.addr == addr)
            .ok_or(FompiError::NotAttached { target: self.ep.rank(), addr })?;
        let removed = local.swap_remove(idx);
        // Rewrite the table: the swapped-in entry moves to `idx`.
        if idx < local.len() {
            let moved = &local[idx];
            let eoff = meta::dyn_entry_off(idx);
            self.my_meta.write_u64(eoff, moved.addr);
            self.my_meta.write_u64(eoff + 8, moved.size as u64);
            self.my_meta.write_u64(eoff + 16, moved.key.id);
        }
        let ekey = self.meta_key(self.ep.rank());
        self.ep.write_sync(ekey, off::DYN_COUNT, local.len() as u64)?;
        self.ep.amo_sync(ekey, off::DYN_ID, fompi_fabric::AmoOp::Add, 1, 0)?;
        self.ep.fabric().deregister(removed.key);
        Ok(())
    }

    /// Local data of an attached region (for verification in examples and
    /// tests).
    pub fn region_read(&self, addr: u64, off_in: usize, dst: &mut [u8]) -> Result<()> {
        self.region_seg(addr)?.read(off_in, dst);
        Ok(())
    }

    /// Write local data of an attached region.
    pub fn region_write(&self, addr: u64, off_in: usize, src: &[u8]) -> Result<()> {
        self.region_seg(addr)?.write(off_in, src);
        Ok(())
    }

    /// The memory of the region this rank attached at `addr`.
    fn region_seg(&self, addr: u64) -> Result<Arc<Segment>> {
        let local = self.dyn_local.borrow();
        let region = local.iter().find(|r| r.addr == addr);
        region
            .map(|r| r.seg.clone())
            .ok_or(FompiError::NotAttached { target: self.ep.rank(), addr })
    }

    /// Resolve `(target, addr, len)` against the cached remote region
    /// table: read the remote id counter per access, and refetch the table
    /// only when it moved (§2.2).
    pub(crate) fn dyn_resolve(
        &self,
        target: u32,
        addr: u64,
        len: usize,
    ) -> Result<(SegKey, usize)> {
        let mkey = self.meta_key(target);
        let mut tries = 0;
        loop {
            let remote_id = self.ep.read_sync(mkey, off::DYN_ID)?;
            if let Some(c) = self.dyn_cache.borrow().get(&target) {
                if c.id == remote_id {
                    return Self::find_region(c, target, addr, len);
                }
            }
            // Cache miss or stale: fetch count, then the table in one get.
            let count = self.ep.read_sync(mkey, off::DYN_COUNT)? as usize;
            let mut buf = vec![0u8; count * DYN_ENTRY_BYTES];
            if count > 0 {
                self.ep.get(mkey, off::DYN_TABLE, &mut buf)?;
            }
            // Re-read the id: if it moved while we copied, retry.
            let id_after = self.ep.read_sync(mkey, off::DYN_ID)?;
            if id_after != remote_id {
                tries += 1;
                if tries > 1_000_000 {
                    return Err(FompiError::NotAttached { target, addr });
                }
                continue;
            }
            let regions = (0..count)
                .map(|i| {
                    let b = &buf[i * DYN_ENTRY_BYTES..];
                    (
                        u64::from_le_bytes(b[0..8].try_into().unwrap()),
                        u64::from_le_bytes(b[8..16].try_into().unwrap()),
                        u64::from_le_bytes(b[16..24].try_into().unwrap()),
                    )
                })
                .collect();
            let entry = RemoteRegions { id: remote_id, regions };
            let out = Self::find_region(&entry, target, addr, len);
            self.dyn_cache.borrow_mut().insert(target, entry);
            return out;
        }
    }

    fn find_region(
        c: &RemoteRegions,
        target: u32,
        addr: u64,
        len: usize,
    ) -> Result<(SegKey, usize)> {
        for &(base, size, key_id) in &c.regions {
            if addr >= base && addr + len as u64 <= base + size {
                return Ok((SegKey { rank: target, id: key_id }, (addr - base) as usize));
            }
        }
        Err(FompiError::NotAttached { target, addr })
    }
}
