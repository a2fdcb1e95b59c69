//! Registered memory segments — the exposed window memory.
//!
//! A [`Segment`] is a fixed-size byte region that many threads access
//! concurrently with no external synchronisation, exactly like memory
//! behind an RDMA NIC. To keep this sound in Rust the storage is a slice of
//! `AtomicU64` words:
//!
//! * bulk data moves through relaxed atomic loads/stores, word-at-a-time on
//!   aligned spans and byte-at-a-time (via an `AtomicU8` view of the same
//!   words) on the ragged edges;
//! * 8-byte AMOs (§2.1) operate on the aligned `AtomicU64` directly.
//!
//! Racing accesses therefore produce nondeterministic *values* — which MPI
//! declares an application error — but never UB. Mixing the byte view and
//! the word view on the *same* word concurrently is the one de-facto
//! (x86/aarch64-sound, formally unspecified) mixed-size-atomics pattern; it
//! only occurs when an application races a put against an AMO on the same
//! address, which MPI also forbids.

use crate::amo::AmoOp;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Remote descriptor for a registered segment: the "rkey" returned by
/// memory registration, used by peers to address the memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegKey {
    /// Owning rank.
    pub rank: u32,
    /// Registration id, unique per rank.
    pub id: u64,
}

/// A registered memory region. See module docs for the concurrency rules.
pub struct Segment {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.len).finish()
    }
}

impl Segment {
    /// Allocate a zeroed segment of `len` bytes.
    pub fn new(len: usize) -> Arc<Self> {
        let n_words = len.div_ceil(8);
        let words = (0..n_words).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Self { words, len })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the segment has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn byte(&self, off: usize) -> &AtomicU8 {
        debug_assert!(off < self.len);
        // SAFETY: `off < len <= words.len()*8`, so the pointer stays inside
        // the allocation. AtomicU8 has size/align 1 and may alias any byte
        // of an AtomicU64 (same in-memory representation as u8).
        unsafe { &*(self.words.as_ptr().cast::<AtomicU8>().add(off)) }
    }

    /// Bounds-check a `[off, off+len)` access.
    #[inline]
    pub fn check(&self, off: usize, len: usize) -> bool {
        off.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// How many bytes of a `len`-byte span at `off` lie before its first
    /// word boundary (the whole span, if it ends before one).
    #[inline]
    fn ragged_head(off: usize, len: usize) -> usize {
        len.min(off.wrapping_neg() % 8)
    }

    /// Write `src` at byte offset `off` (relaxed atomics; word-at-a-time on
    /// the aligned middle).
    pub fn write(&self, off: usize, src: &[u8]) {
        assert!(self.check(off, src.len()), "segment write out of bounds");
        // One aligned word (the 8-byte put of the message-rate path) is the
        // middle loop's single iteration, taken without the loop's set-up:
        // that costs the 8-byte case about a nanosecond.
        if let (true, Ok(word)) = (off.is_multiple_of(8), <[u8; 8]>::try_from(src)) {
            return self.words[off / 8].store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        let (head, rest) = src.split_at(Self::ragged_head(off, src.len()));
        let (body, tail) = rest.split_at(rest.len() & !7);
        for (i, &b) in head.iter().enumerate() {
            self.byte(off + i).store(b, Ordering::Relaxed);
        }
        // Aligned middle: the words are sliced once and zipped with whole
        // chunks, so the loop is a load and a relaxed store per word with
        // no index left to check.
        let mid = off + head.len();
        let words = &self.words[mid / 8..][..body.len() / 8];
        for (w, chunk) in words.iter().zip(body.chunks_exact(8)) {
            w.store(u64::from_le_bytes(chunk.try_into().unwrap()), Ordering::Relaxed);
        }
        let end = mid + body.len();
        for (i, &b) in tail.iter().enumerate() {
            self.byte(end + i).store(b, Ordering::Relaxed);
        }
    }

    /// Read `dst.len()` bytes at offset `off` into `dst`: [`Segment::write`]
    /// mirrored, one relaxed load per aligned word.
    pub fn read(&self, off: usize, dst: &mut [u8]) {
        assert!(self.check(off, dst.len()), "segment read out of bounds");
        if let (true, Ok(word)) = (off.is_multiple_of(8), <&mut [u8; 8]>::try_from(&mut *dst)) {
            *word = self.words[off / 8].load(Ordering::Relaxed).to_le_bytes();
            return;
        }
        let (head, rest) = dst.split_at_mut(Self::ragged_head(off, dst.len()));
        let (body, tail) = rest.split_at_mut(rest.len() & !7);
        for (i, b) in head.iter_mut().enumerate() {
            *b = self.byte(off + i).load(Ordering::Relaxed);
        }
        let mid = off + head.len();
        let words = &self.words[mid / 8..][..body.len() / 8];
        for (w, chunk) in words.iter().zip(body.chunks_exact_mut(8)) {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        let end = mid + body.len();
        for (i, b) in tail.iter_mut().enumerate() {
            *b = self.byte(end + i).load(Ordering::Relaxed);
        }
    }

    /// The aligned 8-byte atomic word at byte offset `off` (must be
    /// 8-aligned and in bounds). This is the AMO target view.
    #[inline]
    pub fn word(&self, off: usize) -> &AtomicU64 {
        assert!(off.is_multiple_of(8), "AMO offset must be 8-byte aligned");
        assert!(self.check(off, 8), "AMO out of bounds");
        &self.words[off / 8]
    }

    /// Execute an AMO at aligned offset `off`. Returns the *old* value.
    /// Uses AcqRel so that sync-protocol words (completion counters, lock
    /// words, matching-list links) establish happens-before edges.
    pub fn amo(&self, off: usize, op: AmoOp, operand: u64, compare: u64) -> u64 {
        let w = self.word(off);
        match op {
            AmoOp::Add => w.fetch_add(operand, Ordering::AcqRel),
            AmoOp::And => w.fetch_and(operand, Ordering::AcqRel),
            AmoOp::Or => w.fetch_or(operand, Ordering::AcqRel),
            AmoOp::Xor => w.fetch_xor(operand, Ordering::AcqRel),
            AmoOp::Swap => w.swap(operand, Ordering::AcqRel),
            AmoOp::Cas => {
                match w.compare_exchange(compare, operand, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(old) => old,
                    Err(old) => old,
                }
            }
            AmoOp::Fetch => w.load(Ordering::Acquire),
        }
    }

    /// Convenience: read one u64 (little-endian) at arbitrary (possibly
    /// unaligned) byte offset. Not atomic as a unit unless aligned.
    pub fn read_u64(&self, off: usize) -> u64 {
        if off.is_multiple_of(8) && self.check(off, 8) {
            return self.words[off / 8].load(Ordering::Acquire);
        }
        let mut b = [0u8; 8];
        self.read(off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: write one u64 (little-endian) at byte offset `off`.
    pub fn write_u64(&self, off: usize, v: u64) {
        if off.is_multiple_of(8) && self.check(off, 8) {
            self.words[off / 8].store(v, Ordering::Release);
            return;
        }
        self.write(off, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_aligned() {
        let s = Segment::new(64);
        let data: Vec<u8> = (0..32).collect();
        s.write(0, &data);
        let mut out = vec![0u8; 32];
        s.read(0, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn roundtrip_unaligned() {
        let s = Segment::new(64);
        let data: Vec<u8> = (10..41).collect();
        s.write(3, &data);
        let mut out = vec![0u8; 31];
        s.read(3, &mut out);
        assert_eq!(out, data);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 3];
        s.read(0, &mut edge);
        assert_eq!(edge, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let s = Segment::new(16);
        s.write(10, &[0u8; 8]);
    }

    #[test]
    fn amo_add_and_cas() {
        let s = Segment::new(32);
        assert_eq!(s.amo(8, AmoOp::Add, 5, 0), 0);
        assert_eq!(s.amo(8, AmoOp::Add, 2, 0), 5);
        assert_eq!(s.read_u64(8), 7);
        assert_eq!(s.amo(8, AmoOp::Cas, 100, 7), 7);
        assert_eq!(s.read_u64(8), 100);
        assert_eq!(s.amo(8, AmoOp::Cas, 1, 7), 100); // fails, old returned
        assert_eq!(s.read_u64(8), 100);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_amo_panics() {
        let s = Segment::new(32);
        s.amo(3, AmoOp::Add, 1, 0);
    }

    #[test]
    fn u64_helpers_unaligned() {
        let s = Segment::new(32);
        s.write_u64(5, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(5), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn concurrent_amo_sum_is_exact() {
        let s = Segment::new(8);
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for _ in 0..10_000 {
                        s.amo(0, AmoOp::Add, 1, 0);
                    }
                });
            }
        });
        assert_eq!(s.read_u64(0), 80_000);
    }
}
