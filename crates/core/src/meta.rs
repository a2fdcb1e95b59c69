//! Window metadata segment layout.
//!
//! Every rank of a window owns, besides the user-visible data segment, a
//! small *meta* segment holding the protocol state other ranks manipulate
//! with one-sided operations:
//!
//! ```text
//! offset  contents (each sync var = 16 B: [u64 value][u64 stamp])
//! ------  ---------------------------------------------------------------
//!   0     completion counter         (PSCW wait — Figure 2b)
//!  16     matching-list head         (tag<<32 | idx, Figure 2b/2c)
//!  32     free-list head             (tag<<32 | idx, Figure 2c)
//!  48     accumulate lock            (lock-get-compute-put fallback §2.4)
//!  64     local reader-writer lock   (bit 63 writer, bits 0..62 readers §2.3)
//!  80     global lock                (hi32 = exclusive count, lo32 = lock_all
//!                                     count; only used at the master rank)
//!  96     dynamic-window id counter  (cache invalidation §2.2)
//! 112     dynamic region count
//! 128     unused (2 words; later offsets stay put)
//! 160     MCS queue tail             (master only; §2.3's MCS remark)
//! 176     MCS granted flag           (local spin target)
//! 192     MCS successor link
//! 208     notification counters      (NOTIFY_SLOTS × 16 B, foMPI-NA ext.)
//! 464     dynamic region table       (MAX_DYN_REGIONS × 24 B: addr,size,key)
//! 2000    PSCW matching pool         (pscw_pool × 16 B sync vars)
//! ```
//!
//! The pool element value packs `origin<<32 | next_idx`; index `NIL`
//! (0xFFFF_FFFF) terminates lists. List heads pack an ABA tag in the high
//! half, bumped on every CAS, so the remote Treiber stacks of Figure 2c are
//! safe against reuse.

/// Byte offsets of the fixed sync variables.
pub mod off {
    /// PSCW completion counter.
    pub const COMPLETION: usize = 0;
    /// Matching-list head.
    pub const MATCH_HEAD: usize = 16;
    /// Free-list head.
    pub const FREE_HEAD: usize = 32;
    /// Accumulate fallback lock.
    pub const ACC_LOCK: usize = 48;
    /// Local reader-writer lock word.
    pub const LOCAL_LOCK: usize = 64;
    /// Global lock word (master rank only).
    pub const GLOBAL_LOCK: usize = 80;
    /// Dynamic-window id counter.
    pub const DYN_ID: usize = 96;
    /// Dynamic-window region count.
    pub const DYN_COUNT: usize = 112;
    // 128 and 144 are unused; the offsets after them stay where they were.
    /// MCS lock: queue tail (master rank only).
    pub const MCS_TAIL: usize = 160;
    /// MCS lock: my queue node's granted flag.
    pub const MCS_FLAG: usize = 176;
    /// MCS lock: my queue node's successor link.
    pub const MCS_NEXT: usize = 192;
    /// Start of the notified-access counters (`NOTIFY_SLOTS` × 16 B), the
    /// foMPI-NA extension: put + remote notification in one call.
    pub const NOTIFY_BASE: usize = 208;
    /// Start of the dynamic region table, right after the counters.
    pub const DYN_TABLE: usize = NOTIFY_BASE + super::NOTIFY_SLOTS * super::POOL_ELEM_BYTES;
}

/// Signal counters per rank for the slot-based notified-access extension
/// ([`crate::win::Win::put_signal`]).
pub const NOTIFY_SLOTS: usize = 16;

/// Maximum simultaneously attached dynamic regions per rank.
pub const MAX_DYN_REGIONS: usize = 64;

/// Bytes per dynamic region table entry: `addr: u64, size: u64, key_id: u64`.
pub const DYN_ENTRY_BYTES: usize = 24;

/// Bytes per matching-pool element (one sync var).
pub const POOL_ELEM_BYTES: usize = 16;

/// Null index for intrusive lists.
pub const NIL: u32 = u32::MAX;

/// Writer bit of the local reader-writer lock (§2.3: "the highest order bit
/// of the lock variable indicates a write access").
pub const WRITER_BIT: u64 = 1 << 63;

/// Window tuning knobs.
#[derive(Debug, Clone)]
pub struct WinConfig {
    /// PSCW matching-pool slots per rank. Bounds the number of posts that
    /// can be simultaneously outstanding toward one rank; the paper assumes
    /// `k ∈ O(log p)` neighbours (§2.3).
    pub pscw_pool: usize,
    /// Retries before a pool acquisition gives up with
    /// [`crate::FompiError::PoolExhausted`] — the detector for programs
    /// whose PSCW fan-in exceeds `pscw_pool` in a dependency cycle.
    pub pool_retry_limit: u64,
}

impl Default for WinConfig {
    fn default() -> Self {
        Self { pscw_pool: 128, pool_retry_limit: 1_000_000 }
    }
}

/// Byte offset of notification counter `slot`.
pub fn notify_off(slot: usize) -> usize {
    debug_assert!(slot < NOTIFY_SLOTS);
    off::NOTIFY_BASE + slot * POOL_ELEM_BYTES
}

/// Byte offset of dynamic region entry `i`.
pub fn dyn_entry_off(i: usize) -> usize {
    debug_assert!(i < MAX_DYN_REGIONS);
    off::DYN_TABLE + i * DYN_ENTRY_BYTES
}

/// Start of the PSCW matching pool, right after the region table.
const POOL_BASE: usize = off::DYN_TABLE + MAX_DYN_REGIONS * DYN_ENTRY_BYTES;

impl WinConfig {
    /// Total bytes of the metadata segment under this configuration.
    pub fn meta_bytes(&self) -> usize {
        POOL_BASE + self.pscw_pool * POOL_ELEM_BYTES
    }

    /// Byte offset of pool element `idx`.
    pub fn pool_off(&self, idx: u32) -> usize {
        debug_assert!((idx as usize) < self.pscw_pool);
        POOL_BASE + idx as usize * POOL_ELEM_BYTES
    }
}

/// Pack a list head: `tag<<32 | idx`.
pub fn pack_head(tag: u32, idx: u32) -> u64 {
    (tag as u64) << 32 | idx as u64
}

/// Unpack a list head into `(tag, idx)`.
pub fn unpack_head(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Pack a pool element: `origin<<32 | next`.
pub fn pack_elem(origin: u32, next: u32) -> u64 {
    (origin as u64) << 32 | next as u64
}

/// Unpack a pool element into `(origin, next)`.
pub fn unpack_elem(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Split the global lock word into `(exclusive_count, lock_all_count)`.
pub fn split_global(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Increment value for the exclusive half of the global lock.
pub const GLOBAL_EXCL_ONE: u64 = 1 << 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_aligned_and_disjoint() {
        let cfg = WinConfig::default();
        for o in [
            off::COMPLETION,
            off::MATCH_HEAD,
            off::FREE_HEAD,
            off::ACC_LOCK,
            off::LOCAL_LOCK,
            off::GLOBAL_LOCK,
            off::DYN_ID,
            off::DYN_COUNT,
            off::MCS_TAIL,
            off::MCS_FLAG,
            off::MCS_NEXT,
            off::NOTIFY_BASE,
            off::DYN_TABLE,
            notify_off(0),
        ] {
            assert_eq!(o % 8, 0);
        }
        assert_eq!(cfg.pool_off(0) % 8, 0);
        assert!(cfg.pool_off(cfg.pscw_pool as u32 - 1) + POOL_ELEM_BYTES <= cfg.meta_bytes());
        assert!(dyn_entry_off(MAX_DYN_REGIONS - 1) + DYN_ENTRY_BYTES <= cfg.pool_off(0));
        // The layout the header above draws, to the byte.
        assert_eq!((off::DYN_TABLE, cfg.pool_off(0), cfg.meta_bytes()), (464, 2000, 4048));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (t, i) = unpack_head(pack_head(7, 42));
        assert_eq!((t, i), (7, 42));
        let (o, n) = unpack_elem(pack_elem(3, NIL));
        assert_eq!((o, n), (3, NIL));
        let (e, s) = split_global(GLOBAL_EXCL_ONE * 2 + 5);
        assert_eq!((e, s), (2, 5));
    }

    #[test]
    fn meta_is_small_and_constant_in_p() {
        // O(1) metadata per rank — the paper's scalability requirement.
        let cfg = WinConfig::default();
        assert!(cfg.meta_bytes() < 8192);
    }
}
