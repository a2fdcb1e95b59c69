//! Notified access: per-rank lock-free notification queues.
//!
//! The paper's protocols synchronize in bulk (fence/PSCW epochs) or per
//! peer (lock/flush), but producer-consumer apps really want *per-message*
//! completion signaling: "this put has landed, here is its tag". Notified
//! access — the primitive Quo-Vadis-MPI-RMA identifies as missing from
//! MPI-3 and that RAMC builds memory channels on — attaches a small
//! notification record to a put/AMO; when the operation retires at the
//! target, the record becomes visible in the *target rank's* notification
//! queue, where `wait_notify`/`test_notify` match it by (source, tag).
//!
//! ## The queue
//!
//! One fixed-size MPMC ring per rank ([`NotifyQueue`], Vyukov bounded
//! queue): any peer's endpoint may append concurrently (multi-producer),
//! and the owning rank pops — MPMC rather than MPSC so windows, channels
//! and the soak harness can drain defensively from helper threads. Each
//! cell carries `(tag, source, bytes, stamp)`; the stamp is the virtual
//! completion time of the notified operation, so a consumer that matches a
//! record joins its clock with the producer's completion — notification
//! *implies* data visibility in virtual time, exactly the DMAPP ordered
//! delivery the real foMPI relies on.
//!
//! ## Overflow is backpressure
//!
//! The ring is fixed-size on purpose: a real NIC's notification FIFO is a
//! hardware resource, and overrunning it backpressures the *producer*.
//! [`crate::Endpoint::notify_append`] accounts an overflowed append as an
//! injection stall in the LogGP cost model (scaled by the armed
//! [`crate::FaultPlan`]'s `bp_ns`, so chaos plans stretch it) and retries
//! a bounded number of times before surfacing
//! [`crate::FabricError::Backpressure`] to the caller. Fault draws happen
//! once per append — never inside the retry loop — preserving the
//! bit-determinism contract of [`crate::faults`].
//!
//! Depth is [`crate::Config::notify_depth`] (`FOMPI_NOTIFY_DEPTH`, default
//! [`DEFAULT_NOTIFY_DEPTH`], rounded up to a power of two).

use crate::clock::{bits_to_stamp, stamp_to_bits};
// Under `--cfg loom` the ring runs on loom's model-checked atomics so the
// interleaving tests below explore every Acquire/Release schedule. loom is
// NOT a dependency of this workspace: add it locally as a dev-dependency
// (do not commit) and run
// `RUSTFLAGS="--cfg loom" cargo test -p fompi-fabric --release loom_`.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Wildcard for [`notify_match`]: matches any source or any tag.
pub const NOTIFY_ANY: u32 = u32::MAX;

/// Default per-rank queue depth (records) when `FOMPI_NOTIFY_DEPTH` is
/// unset. 64 matches the injection-burst op cap: a full burst of notified
/// ops can land without overflow.
pub const DEFAULT_NOTIFY_DEPTH: usize = 64;

/// One notification: a notified put/AMO from `source` carrying `bytes`
/// payload retired at virtual time `stamp`, labelled `tag`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotifyRecord {
    /// User tag attached at the origin (must not be [`NOTIFY_ANY`]).
    pub tag: u32,
    /// Origin rank.
    pub source: u32,
    /// Payload bytes the notified operation moved.
    pub bytes: u64,
    /// Virtual completion time of the notified operation (origin clock);
    /// consumers join their clock with it on a match.
    pub stamp: f64,
    /// Causal flow id of the notified operation
    /// ([`crate::telemetry::flow_id`]), or 0. Carried so the consumer's
    /// `notify_wait` trace event joins the producer's flow — purely
    /// observational, never affects matching or virtual time.
    pub flow: u64,
}

/// Does a record from `(source, tag)` satisfy a wait for
/// `(want_source, want_tag)`? [`NOTIFY_ANY`] wildcards either side.
#[inline]
pub fn notify_match(want_source: u32, want_tag: u32, source: u32, tag: u32) -> bool {
    (want_source == NOTIFY_ANY || source == want_source)
        && (want_tag == NOTIFY_ANY || tag == want_tag)
}

/// One cell of the ring. `seq` is the Vyukov sequence word; the payload
/// words are published before the `seq` release-store and read after the
/// consumer's acquire-load, so they need no ordering of their own.
///
/// A line of its own: at 40 bytes, neighbouring cells would share lines,
/// and a push into cell k+1 would invalidate the line the consumer is
/// reading cell k from.
#[repr(align(64))]
struct Cell {
    seq: AtomicU64,
    tag_src: AtomicU64,
    bytes: AtomicU64,
    stamp: AtomicU64,
    flow: AtomicU64,
}

/// Fixed-size lock-free MPMC notification ring (Vyukov bounded queue).
///
/// Producers are peer endpoints appending on notified-op retirement;
/// the consumer is normally the owning rank's `wait_notify`/`test_notify`
/// loop. Full is a *normal* condition ([`NotifyQueue::try_push`] returns
/// `false`) — the endpoint turns it into modelled backpressure.
///
/// Three lines of its own: the read-only header (`cells`, `mask`), the
/// producers' `enqueue_pos` and the consumer's `dequeue_pos`. The hub keeps
/// the rings side by side, and two ranks' cursors on one line would make
/// every append to one ring invalidate the other's; one ring's two cursors
/// on one line would move it between producer and consumer on every push
/// and every pop (both measured on the benchmark's `stream`, see
/// EXPERIMENTS.md).
#[repr(C, align(64))]
pub struct NotifyQueue {
    cells: Box<[Cell]>,
    mask: u64,
    enqueue_pos: Line<AtomicU64>,
    dequeue_pos: Line<AtomicU64>,
}

/// A value padded out to a cache line of its own.
#[repr(align(64))]
struct Line<T>(T);

impl<T> std::ops::Deref for Line<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl NotifyQueue {
    /// A ring holding at least `depth` records (rounded up to a power of
    /// two, minimum 2 — the sequence arithmetic needs the mask).
    pub fn new(depth: usize) -> Self {
        let cap = depth.max(2).next_power_of_two();
        let cells = (0..cap as u64)
            .map(|i| Cell {
                seq: AtomicU64::new(i),
                tag_src: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                stamp: AtomicU64::new(0),
                flow: AtomicU64::new(0),
            })
            .collect();
        NotifyQueue {
            cells,
            mask: cap as u64 - 1,
            enqueue_pos: Line(AtomicU64::new(0)),
            dequeue_pos: Line(AtomicU64::new(0)),
        }
    }

    /// Records the ring can hold.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Approximate occupancy (exact when quiescent).
    pub fn len(&self) -> usize {
        let e = self.enqueue_pos.load(Ordering::Relaxed);
        let d = self.dequeue_pos.load(Ordering::Relaxed);
        e.saturating_sub(d) as usize
    }

    /// Is the ring (approximately) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one record; `false` when the ring is full (the caller
    /// accounts backpressure — see module docs).
    pub fn try_push(&self, rec: NotifyRecord) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[(pos & self.mask) as usize];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as i64 - pos as i64;
            if dif == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        cell.tag_src
                            .store(((rec.tag as u64) << 32) | rec.source as u64, Ordering::Relaxed);
                        cell.bytes.store(rec.bytes, Ordering::Relaxed);
                        cell.stamp.store(stamp_to_bits(rec.stamp), Ordering::Relaxed);
                        cell.flow.store(rec.flow, Ordering::Relaxed);
                        cell.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                return false; // full
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest record, if any.
    pub fn try_pop(&self) -> Option<NotifyRecord> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[(pos & self.mask) as usize];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as i64 - (pos + 1) as i64;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let ts = cell.tag_src.load(Ordering::Relaxed);
                        let rec = NotifyRecord {
                            tag: (ts >> 32) as u32,
                            source: ts as u32,
                            bytes: cell.bytes.load(Ordering::Relaxed),
                            stamp: bits_to_stamp(cell.stamp.load(Ordering::Relaxed)),
                            flow: cell.flow.load(Ordering::Relaxed),
                        };
                        cell.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(rec);
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

impl std::fmt::Debug for NotifyQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotifyQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

/// Per-rank notification queues, owned by [`crate::Fabric`] and sized
/// once, at construction: a rank's ring is a plain borrow, so an append or
/// a poll touches no word the other ranks' rings share.
pub struct NotifyHub {
    queues: Box<[NotifyQueue]>,
    depth: usize,
}

impl NotifyHub {
    /// Build `p` rings of `depth` records each.
    pub fn new(p: usize, depth: usize) -> Self {
        NotifyHub { queues: (0..p).map(|_| NotifyQueue::new(depth)).collect(), depth }
    }

    /// The ring of notifications *destined for* `rank`.
    #[inline]
    pub fn queue(&self, rank: u32) -> &NotifyQueue {
        &self.queues[rank as usize]
    }

    /// Configured depth (pre-rounding).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl std::fmt::Debug for NotifyHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotifyHub").field("depth", &self.depth()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn rec(tag: u32, source: u32, bytes: u64, stamp: f64) -> NotifyRecord {
        NotifyRecord { tag, source, bytes, stamp, flow: tag as u64 + 1 }
    }

    #[test]
    #[cfg(not(loom))]
    fn header_and_cursors_are_on_separate_lines() {
        use std::mem::{align_of, offset_of, size_of};
        // The line of a field's last byte (every field is 8-byte aligned).
        let line = |off: usize| (off + 7) / 64;
        assert_eq!(offset_of!(NotifyQueue, cells), 0);
        assert_eq!(line(offset_of!(NotifyQueue, mask)), 0);
        assert_eq!(line(offset_of!(NotifyQueue, enqueue_pos)), 1);
        assert_eq!(line(offset_of!(NotifyQueue, dequeue_pos)), 2);
        assert_eq!(align_of::<NotifyQueue>(), 64);
        assert_eq!((size_of::<Cell>(), align_of::<Cell>()), (64, 64));
    }

    #[test]
    fn fifo_order_and_payload_roundtrip() {
        let q = NotifyQueue::new(8);
        for i in 0..5u32 {
            assert!(q.try_push(rec(i, 100 + i, i as u64 * 8, i as f64 * 10.0)));
        }
        for i in 0..5u32 {
            let r = q.try_pop().expect("record");
            assert_eq!((r.tag, r.source, r.bytes), (i, 100 + i, i as u64 * 8));
            assert_eq!(r.stamp, i as f64 * 10.0);
            assert_eq!(r.flow, i as u64 + 1, "flow id rides the cell");
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn wraparound_reuses_cells() {
        let q = NotifyQueue::new(4);
        for round in 0..10u32 {
            for i in 0..4u32 {
                assert!(q.try_push(rec(round * 4 + i, 0, 0, 0.0)));
            }
            assert!(!q.try_push(rec(999, 0, 0, 0.0)), "full ring must refuse");
            for i in 0..4u32 {
                assert_eq!(q.try_pop().unwrap().tag, round * 4 + i);
            }
        }
    }

    #[test]
    fn full_ring_refuses_until_drained() {
        let q = NotifyQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.try_push(rec(1, 0, 0, 0.0)));
        assert!(q.try_push(rec(2, 0, 0, 0.0)));
        assert!(!q.try_push(rec(3, 0, 0, 0.0)));
        assert_eq!(q.try_pop().unwrap().tag, 1);
        assert!(q.try_push(rec(3, 0, 0, 0.0)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn depth_rounds_up_to_power_of_two() {
        assert_eq!(NotifyQueue::new(0).capacity(), 2);
        assert_eq!(NotifyQueue::new(1).capacity(), 2);
        assert_eq!(NotifyQueue::new(5).capacity(), 8);
        assert_eq!(NotifyQueue::new(64).capacity(), 64);
    }

    #[test]
    fn match_wildcards() {
        assert!(notify_match(NOTIFY_ANY, NOTIFY_ANY, 3, 7));
        assert!(notify_match(3, NOTIFY_ANY, 3, 7));
        assert!(notify_match(NOTIFY_ANY, 7, 3, 7));
        assert!(notify_match(3, 7, 3, 7));
        assert!(!notify_match(4, NOTIFY_ANY, 3, 7));
        assert!(!notify_match(NOTIFY_ANY, 8, 3, 7));
    }

    #[test]
    fn mpmc_storm_loses_nothing() {
        // 4 producers × 1000 records through a 16-cell ring, 2 consumers.
        // Every record must come out exactly once.
        let q = Arc::new(NotifyQueue::new(16));
        let popped = Arc::new(AtomicU32::new(0));
        let sum = Arc::new(AtomicU64::new(0));
        const PER: u32 = 1000;
        const PRODUCERS: u32 = 4;
        std::thread::scope(|s| {
            for pr in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        let tag = pr * PER + i;
                        while !q.try_push(rec(tag, pr, tag as u64, 0.0)) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let q = Arc::clone(&q);
                let popped = Arc::clone(&popped);
                let sum = Arc::clone(&sum);
                s.spawn(move || loop {
                    if let Some(r) = q.try_pop() {
                        sum.fetch_add(r.tag as u64, Ordering::Relaxed);
                        if popped.fetch_add(1, Ordering::Relaxed) + 1 == PRODUCERS * PER {
                            return;
                        }
                    } else if popped.load(Ordering::Relaxed) >= PRODUCERS * PER {
                        return;
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        let n = (PRODUCERS * PER) as u64;
        assert_eq!(popped.load(Ordering::Relaxed) as u64, n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn hub_rings_are_sized_at_construction_and_independent() {
        let hub = NotifyHub::new(3, 4);
        assert_eq!(hub.depth(), 4);
        assert!((0..3).all(|r| hub.queue(r).capacity() == 4));
        assert!(hub.queue(1).try_push(rec(9, 0, 0, 0.0)));
        assert!(hub.queue(0).is_empty() && hub.queue(2).is_empty());
        assert_eq!(hub.queue(1).try_pop().unwrap().tag, 9);
    }

    #[test]
    fn stamp_survives_bit_transport() {
        let q = NotifyQueue::new(2);
        for &s in &[0.0, 416.0, 1234.5678, 9.9e12] {
            assert!(q.try_push(rec(0, 0, 0, s)));
            assert_eq!(q.try_pop().unwrap().stamp.to_bits(), s.to_bits());
        }
    }

    /// Regression pin for the Vyukov cell protocol's Release/Acquire
    /// pairing on `seq`: the payload words are Relaxed on purpose, so
    /// every record popped under producer contention must still carry the
    /// complete payload its producer published before the `seq`
    /// release-store. A weakened ordering surfaces here as a stale or
    /// zero field on a reused cell.
    #[test]
    fn payload_publication_is_release_acquire_ordered() {
        let q = Arc::new(NotifyQueue::new(4));
        const PER: u32 = 500;
        const PRODUCERS: u32 = 3;
        std::thread::scope(|s| {
            for pr in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        let tag = pr * PER + i + 1;
                        let r = rec(tag, tag ^ 0xA5A5, tag as u64 * 3, tag as f64);
                        while !q.try_push(r) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let q = Arc::clone(&q);
            s.spawn(move || {
                let mut seen = 0;
                while seen < PRODUCERS * PER {
                    if let Some(r) = q.try_pop() {
                        assert_eq!(r.source, r.tag ^ 0xA5A5, "stale source on reused cell");
                        assert_eq!(r.bytes, r.tag as u64 * 3, "stale bytes on reused cell");
                        assert_eq!(r.stamp.to_bits(), (r.tag as f64).to_bits(), "stale stamp");
                        seen += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
    }
}

/// Exhaustive interleaving checks of the ring under loom (see the import
/// note at the top of the module for how to run them).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use loom::thread;
    use std::sync::Arc;

    fn rec(tag: u32) -> NotifyRecord {
        NotifyRecord {
            tag,
            source: tag ^ 0xA5,
            bytes: tag as u64 * 3,
            stamp: tag as f64,
            flow: tag as u64,
        }
    }

    fn coherent(r: &NotifyRecord) {
        assert_eq!(r.source, r.tag ^ 0xA5);
        assert_eq!(r.bytes, r.tag as u64 * 3);
        assert_eq!(r.stamp.to_bits(), (r.tag as f64).to_bits());
    }

    /// Two concurrent producers into a 2-cell ring: every interleaving
    /// must land both records with coherent payloads, drained in the
    /// order the enqueue slots were claimed.
    #[test]
    fn loom_two_producers_land_both_records() {
        loom::model(|| {
            let q = Arc::new(NotifyQueue::new(2));
            let p1 = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.try_push(rec(1)))
            };
            let p2 = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.try_push(rec(2)))
            };
            assert!(p1.join().unwrap(), "capacity-2 ring refused the first record");
            assert!(p2.join().unwrap(), "capacity-2 ring refused the second record");
            let mut tags = Vec::new();
            while let Some(r) = q.try_pop() {
                coherent(&r);
                tags.push(r.tag);
            }
            tags.sort_unstable();
            assert_eq!(tags, vec![1, 2]);
        });
    }

    /// Overflow racing a concurrent pop: the push may land (the pop freed
    /// a cell first) or be refused (full) — either way nothing is lost,
    /// duplicated, or torn, and FIFO order holds.
    #[test]
    fn loom_overflow_vs_pop_conserves_records() {
        loom::model(|| {
            let q = Arc::new(NotifyQueue::new(2));
            assert!(q.try_push(rec(1)));
            assert!(q.try_push(rec(2)));
            let p = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.try_push(rec(3)))
            };
            let c = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.try_pop())
            };
            let pushed = p.join().unwrap();
            let popped = c.join().unwrap();
            if let Some(r) = &popped {
                coherent(r);
                assert_eq!(r.tag, 1, "pop must take the oldest record");
            }
            let mut all: Vec<u32> = popped.into_iter().map(|r| r.tag).collect();
            while let Some(r) = q.try_pop() {
                coherent(&r);
                all.push(r.tag);
            }
            let want: Vec<u32> = if pushed { vec![1, 2, 3] } else { vec![1, 2] };
            assert_eq!(all, want);
        });
    }
}
