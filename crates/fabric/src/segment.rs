//! Registered memory segments — the exposed window memory.
//!
//! A [`Segment`] is a fixed-size byte region that many threads access
//! concurrently with no external synchronisation, exactly like memory
//! behind an RDMA NIC. To keep this sound in Rust the storage is a slice of
//! `AtomicU64` words, and every access is atomic at one of two grains:
//!
//! * **one aligned word** — an 8-byte [`Segment::read`] / [`Segment::write`]
//!   at an 8-aligned offset, [`Segment::read_u64`] / [`Segment::write_u64`]
//!   there, and every 8-byte AMO (§2.1, [`Segment::amo`]) — is one access to
//!   the `AtomicU64`: a racing reader sees the old word or the new one,
//!   never bytes of both;
//! * **every other span** is *per-byte* atomic (the `AtomicPerByte`
//!   semantics of Rust RFC 3301): each byte is read or written once, as by a
//!   relaxed `AtomicU8` access, in no particular order. A reader racing a
//!   multi-word write may see any mix of old and new bytes, even within a
//!   word. One pair of functions, `copy_in` / `copy_out`, moves these
//!   spans, chosen once per target: a single `rep movsb` on x86_64
//!   (outside Miri), and a portable loop of relaxed byte loads/stores on
//!   the ragged edges and word loads/stores in the aligned middle
//!   everywhere else.
//!
//! Racing accesses therefore produce nondeterministic *values* — which MPI
//! declares an application error — but never UB. Mixing the byte grain and
//! the word grain on the *same* word concurrently is the one de-facto
//! (x86/aarch64-sound, formally unspecified) mixed-size-atomics pattern; it
//! only occurs when an application races a put against an AMO on the same
//! address, which MPI also forbids. Completion is unaffected by the grain:
//! a copy's stores are ordered before any later store of the same thread
//! (on x86_64 the string stores too, Intel SDM §8.2.4.1), so the `Release`
//! a flush, an unlock or a notification makes after a put publishes all of
//! its bytes. DESIGN.md "The data path" has the argument and the numbers.

use crate::amo::AmoOp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// The copy of every span but one aligned word (module docs). Miri cannot
// run assembly, so it takes the portable loop.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
use portable as bulk;
#[cfg(all(target_arch = "x86_64", not(miri)))]
use rep_movsb as bulk;

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

    /// Bounds-check a `[off, off+len)` access.
    #[inline]
    pub fn check(&self, off: usize, len: usize) -> bool {
        off.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// Write `src` at byte offset `off`: one relaxed word store if the span
    /// is one aligned word, a per-byte-atomic copy otherwise (module docs).
    pub fn write(&self, off: usize, src: &[u8]) {
        assert!(self.check(off, src.len()), "segment write out of bounds");
        // One aligned word (the 8-byte put of the message-rate path) stays
        // one store, atomic as a word, and skips the call into the copy.
        if let (true, Ok(word)) = (off.is_multiple_of(8), <[u8; 8]>::try_from(src)) {
            return self.words[off / 8].store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        bulk::copy_in(self, off, src);
    }

    /// Read `dst.len()` bytes at offset `off` into `dst`: [`Segment::write`]
    /// mirrored.
    pub fn read(&self, off: usize, dst: &mut [u8]) {
        assert!(self.check(off, dst.len()), "segment read out of bounds");
        if let (true, Ok(word)) = (off.is_multiple_of(8), <&mut [u8; 8]>::try_from(&mut *dst)) {
            *word = self.words[off / 8].load(Ordering::Relaxed).to_le_bytes();
            return;
        }
        bulk::copy_out(self, off, dst);
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

/// The x86_64 copy: one `rep movsb` per span. Out of line, so the lint
/// stage can find the instruction in a release binary.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod rep_movsb {
    use super::Segment;

    /// Store `src` at `[off, off + src.len())`, which the caller has
    /// bounds-checked: each byte once, per-byte atomic.
    #[inline(never)]
    pub(super) fn copy_in(seg: &Segment, off: usize, src: &[u8]) {
        // SAFETY: the caller checked `off + src.len() <= len <= 8 *
        // words.len()`, so the destination stays inside the words'
        // allocation, and stores through it are allowed (the words are
        // `UnsafeCell`s). `src` cannot overlap it: no `&[u8]` over segment
        // memory is ever made. The ABI clears DF on entry to an asm block,
        // so `rep movsb` copies forward; it touches only rcx/rsi/rdi (all
        // declared), no stack and no flags. Its byte stores act as relaxed
        // `AtomicU8` stores, and without `nomem` the compiler orders them
        // like any other memory access.
        unsafe {
            std::arch::asm!(
                "rep movsb",
                inout("rcx") src.len() => _,
                inout("rdi") seg.words.as_ptr().cast::<u8>().cast_mut().add(off) => _,
                inout("rsi") src.as_ptr() => _,
                options(nostack, preserves_flags),
            );
        }
    }

    /// Load `[off, off + dst.len())`, which the caller has bounds-checked,
    /// into `dst`: [`copy_in`] mirrored.
    #[inline(never)]
    pub(super) fn copy_out(seg: &Segment, off: usize, dst: &mut [u8]) {
        // SAFETY: as in `copy_in`, with the roles swapped: the source is
        // `[off, off + dst.len())` of the words' allocation (bounds checked
        // by the caller), `dst` is an exclusive borrow of other memory, DF
        // is clear, and the byte loads act as relaxed `AtomicU8` loads.
        unsafe {
            std::arch::asm!(
                "rep movsb",
                inout("rcx") dst.len() => _,
                inout("rdi") dst.as_mut_ptr() => _,
                inout("rsi") seg.words.as_ptr().cast::<u8>().add(off) => _,
                options(nostack, preserves_flags),
            );
        }
    }
}

/// The portable copy: relaxed byte accesses on the ragged edges, one
/// relaxed word access per word of the aligned middle. x86_64 runs it only
/// in this module's tests, at the sizes `tests/proptest_segment.rs` runs
/// `rep movsb` at.
#[cfg_attr(not(test), allow(dead_code))]
mod portable {
    use super::Segment;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// The byte at `off` of `seg` as an atomic.
    #[inline]
    fn byte(seg: &Segment, off: usize) -> &AtomicU8 {
        debug_assert!(off < seg.len);
        // SAFETY: `off < len <= words.len()*8`, so the pointer stays inside
        // the allocation. AtomicU8 has size/align 1 and may alias any byte
        // of an AtomicU64 (same in-memory representation as u8).
        unsafe { &*(seg.words.as_ptr().cast::<AtomicU8>().add(off)) }
    }

    /// How many bytes of a `len`-byte span at `off` lie before its first
    /// word boundary (the whole span, if it ends before one).
    #[inline]
    fn ragged_head(off: usize, len: usize) -> usize {
        len.min(off.wrapping_neg() % 8)
    }

    /// Store `src` at `[off, off + src.len())`, which the caller has
    /// bounds-checked: ragged head bytes, one pre-sliced word loop (a
    /// relaxed store per word, no index left to check), ragged tail.
    #[inline]
    pub(super) fn copy_in(seg: &Segment, off: usize, src: &[u8]) {
        let (head, rest) = src.split_at(ragged_head(off, src.len()));
        let (body, tail) = rest.split_at(rest.len() & !7);
        for (i, &b) in head.iter().enumerate() {
            byte(seg, off + i).store(b, Ordering::Relaxed);
        }
        let mid = off + head.len();
        let words = &seg.words[mid / 8..][..body.len() / 8];
        for (w, chunk) in words.iter().zip(body.chunks_exact(8)) {
            w.store(u64::from_le_bytes(chunk.try_into().unwrap()), Ordering::Relaxed);
        }
        let end = mid + body.len();
        for (i, &b) in tail.iter().enumerate() {
            byte(seg, end + i).store(b, Ordering::Relaxed);
        }
    }

    /// Load `[off, off + dst.len())`, which the caller has bounds-checked,
    /// into `dst`: [`copy_in`] mirrored.
    #[inline]
    pub(super) fn copy_out(seg: &Segment, off: usize, dst: &mut [u8]) {
        let (head, rest) = dst.split_at_mut(ragged_head(off, dst.len()));
        let (body, tail) = rest.split_at_mut(rest.len() & !7);
        for (i, b) in head.iter_mut().enumerate() {
            *b = byte(seg, off + i).load(Ordering::Relaxed);
        }
        let mid = off + head.len();
        let words = &seg.words[mid / 8..][..body.len() / 8];
        for (w, chunk) in words.iter().zip(body.chunks_exact_mut(8)) {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        let end = mid + body.len();
        for (i, b) in tail.iter_mut().enumerate() {
            *b = byte(seg, end + i).load(Ordering::Relaxed);
        }
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

    /// The portable copy, which x86_64 runs nowhere else, against the copy
    /// this target runs (`tests/proptest_segment.rs` checks that one
    /// against a `Vec` model): every span `span_lens` sweeps there, up to
    /// 8 KiB, at every offset mod 8, written by each into a segment of its
    /// own leaves both segments equal, and reads back whole.
    #[test]
    fn the_portable_copy_agrees_with_the_target_copy() {
        let max = if cfg!(miri) { 1024 } else { 8192 };
        let (ours, theirs) = (Segment::new(max + 24), Segment::new(max + 24));
        let (mut a, mut b) = (vec![0u8; max + 24], vec![0u8; max + 24]);
        let pow2 = (7..14).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        for len in (0..=80).chain(pow2).filter(|&len| len <= max) {
            for off in 8..16 {
                let data: Vec<u8> = (0..len).map(|i| (i * 131 + off * 7 + len) as u8).collect();
                portable::copy_in(&ours, off, &data);
                bulk::copy_in(&theirs, off, &data);
                bulk::copy_out(&ours, 0, &mut a);
                bulk::copy_out(&theirs, 0, &mut b);
                assert!(a == b, "portable write at off {off} len {len}");
                let mut back = vec![0u8; len];
                portable::copy_out(&ours, off, &mut back);
                assert!(back == data, "portable read at off {off} len {len}");
            }
        }
    }

    /// The portable copy under a race (ThreadSanitizer sees its atomics; it
    /// cannot see inside `rep movsb`): a 4 KiB `copy_out` racing
    /// whole-span `copy_in` fills of 0xAA and 0x55 returns only those bytes.
    #[test]
    fn a_racing_portable_read_returns_only_written_bytes() {
        use std::sync::atomic::AtomicBool;
        const SPAN: usize = 4096;
        const ROUNDS: usize = if cfg!(miri) { 4 } else { 20_000 };
        let seg = Segment::new(SPAN);
        portable::copy_in(&seg, 0, &[0xAA; SPAN]);
        let (start, done) = (std::sync::Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let fills = [[0x55u8; SPAN], [0xAA; SPAN]];
                start.wait();
                for k in 0..ROUNDS {
                    portable::copy_in(&seg, 0, &fills[k % 2]);
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            let mut buf = vec![0u8; SPAN];
            let mut last = false;
            while !last {
                last = done.load(Ordering::Acquire);
                portable::copy_out(&seg, 0, &mut buf);
                if let Some(i) = buf.iter().position(|&b| b != 0xAA && b != 0x55) {
                    panic!("byte {i} reads {:#04x}, which no write stored", buf[i]);
                }
            }
        });
    }
}
