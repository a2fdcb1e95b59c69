//! Operation counters.
//!
//! Used by tests and benchmarks to assert the *message complexity* claims of
//! the paper (e.g. PSCW issues O(k) messages in post/complete and zero in
//! start/wait; fence is O(p log p) total; locks cost one or two AMOs).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of fabric activity, summed over the job when a
/// snapshot is taken.
///
/// Every rank owns a block of counters for every class of operation but
/// synchronisation, and an operation writes the block of the endpoint
/// that issues it: a line no other core writes, so two ranks issuing at
/// once do not pass a counter line back and forth. Synchronisation keeps
/// one line that the whole job shares:
///
/// | block | counts | written by |
/// |---|---|---|
/// | rank r's (one per rank, 128-byte aligned) | `puts`, `bytes_put`, `notify_posts`, `gets`, `bytes_get`, `notify_consumed`, `notify_overflows`, `notify_dropped`, `batched_ops`, `batch_flushes`, `batch_splits` | rank r's puts, gets, notified appends, consumers, backpressure and bursts |
/// | sync (one, shared, 128-byte aligned) | `amos`, `gsyncs`, `flushes`, `fences`, `locks`, `unlocks` | every rank's AMOs, completion and epoch calls |
///
/// The sync line is shared on purpose: folding it too makes the AMO-bound
/// `kv_txn` benchmark fast enough that its harness keeps many more
/// latency samples, and its peak RSS crosses the benchmark's 10 % bound
/// (DESIGN.md, "What is left on shared lines"). It is its own aligned
/// struct, so the blocks' pointer, which every operation reads, never
/// sits on a line that operations write.
///
/// A snapshot is O(p) relaxed loads; no operation takes one. An AMO's
/// volume is not stored: every AMO moves 8 bytes, so
/// [`CounterSnapshot::bytes_amo`] is `8 × amos` when the snapshot is
/// taken. Every write is in `crate::endpoint`.
#[derive(Debug)]
pub struct Counters {
    pub(crate) sync: SyncLine,
    ranks: Box<[RankCounters]>,
}

/// The counters of every class but synchronisation, for one rank: written
/// only by that rank's endpoints, and alone on its lines.
#[derive(Debug, Default)]
#[repr(C, align(128))]
pub(crate) struct RankCounters {
    /// Put operations issued.
    pub(crate) puts: AtomicU64,
    /// Bytes moved by puts.
    pub(crate) bytes_put: AtomicU64,
    /// Notification records appended by notified puts/AMOs
    /// (see [`crate::notify`]).
    pub(crate) notify_posts: AtomicU64,
    /// Get operations issued.
    pub(crate) gets: AtomicU64,
    /// Bytes moved by gets.
    pub(crate) bytes_get: AtomicU64,
    /// Notification records popped by a consumer.
    pub(crate) notify_consumed: AtomicU64,
    /// Notified appends that found the target ring full at least once
    /// (modelled as injection backpressure).
    pub(crate) notify_overflows: AtomicU64,
    /// Un-consumed notification records discarded (window free).
    pub(crate) notify_dropped: AtomicU64,
    /// Operations issued through the batching layer (members of bursts,
    /// including each burst's first op — see [`crate::batch`]).
    pub(crate) batched_ops: AtomicU64,
    /// Injection bursts retired (by drain or coalescing stop).
    pub(crate) batch_flushes: AtomicU64,
    /// Bursts retired specifically because coalescing stopped (next op
    /// non-adjacent / different kind / would cross the protocol change).
    pub(crate) batch_splits: AtomicU64,
}

/// The synchronisation counters, shared by the job on one line of their
/// own.
#[derive(Debug, Default)]
#[repr(C, align(128))]
pub(crate) struct SyncLine {
    /// AMOs issued.
    pub(crate) amos: AtomicU64,
    /// gsync (bulk completion) calls.
    pub(crate) gsyncs: AtomicU64,
    /// Per-target flushes (`flush_target` at the fabric layer — the
    /// substrate of `MPI_Win_flush`).
    pub(crate) flushes: AtomicU64,
    /// `MPI_Win_fence` epochs entered (counted by the sync layer).
    pub(crate) fences: AtomicU64,
    /// Lock acquisitions (`MPI_Win_lock` / `lock_all`).
    pub(crate) locks: AtomicU64,
    /// Lock releases (`MPI_Win_unlock` / `unlock_all`).
    pub(crate) unlocks: AtomicU64,
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Puts issued.
    pub puts: u64,
    /// Gets issued.
    pub gets: u64,
    /// AMOs issued.
    pub amos: u64,
    /// Bytes moved by puts.
    pub bytes_put: u64,
    /// Bytes moved by gets.
    pub bytes_get: u64,
    /// Bytes moved by AMOs: 8 per AMO, derived from `amos` at snapshot
    /// time (there is no such counter to increment).
    pub bytes_amo: u64,
    /// gsync calls.
    pub gsyncs: u64,
    /// Per-target flushes.
    pub flushes: u64,
    /// Fence epochs.
    pub fences: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Lock releases.
    pub unlocks: u64,
    /// Operations issued through the batching layer.
    pub batched_ops: u64,
    /// Injection bursts retired.
    pub batch_flushes: u64,
    /// Bursts retired by a coalescing stop.
    pub batch_splits: u64,
    /// Notification records appended.
    pub notify_posts: u64,
    /// Notification records consumed.
    pub notify_consumed: u64,
    /// Notified appends that hit a full ring.
    pub notify_overflows: u64,
    /// Un-consumed notification records discarded.
    pub notify_dropped: u64,
}

impl Counters {
    /// Zeroed counters for a job of `p` ranks.
    pub(crate) fn new(p: usize) -> Self {
        Self { sync: SyncLine::default(), ranks: (0..p).map(|_| RankCounters::default()).collect() }
    }

    /// Rank `r`'s block.
    #[inline(always)]
    pub(crate) fn rank(&self, r: u32) -> &RankCounters {
        &self.ranks[r as usize]
    }

    /// Ask for the shared sync line ahead of an AMO's increment. An AMO
    /// calls this first and counts itself last; the line's transfer from
    /// the rank that counted last then overlaps the translation and cost
    /// arithmetic in between instead of stalling the increment for its
    /// whole length.
    #[inline(always)]
    pub(crate) fn touch(&self) {
        // `black_box`: the compiler may delete a relaxed load nobody reads.
        std::hint::black_box(self.sync.amos.load(Ordering::Relaxed));
    }

    /// Take a snapshot: the sync line plus the sum of every rank's block.
    pub fn snapshot(&self) -> CounterSnapshot {
        let s = &self.sync;
        let amos = load(&s.amos);
        let mut snap = CounterSnapshot {
            amos,
            bytes_amo: 8 * amos,
            gsyncs: load(&s.gsyncs),
            flushes: load(&s.flushes),
            fences: load(&s.fences),
            locks: load(&s.locks),
            unlocks: load(&s.unlocks),
            ..CounterSnapshot::default()
        };
        for r in self.ranks.iter() {
            r.add_to(&mut snap);
        }
        snap
    }
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

impl RankCounters {
    /// Add this block's counts to `snap`.
    pub(crate) fn add_to(&self, snap: &mut CounterSnapshot) {
        snap.puts += load(&self.puts);
        snap.bytes_put += load(&self.bytes_put);
        snap.notify_posts += load(&self.notify_posts);
        snap.gets += load(&self.gets);
        snap.bytes_get += load(&self.bytes_get);
        snap.notify_consumed += load(&self.notify_consumed);
        snap.notify_overflows += load(&self.notify_overflows);
        snap.notify_dropped += load(&self.notify_dropped);
        snap.batched_ops += load(&self.batched_ops);
        snap.batch_flushes += load(&self.batch_flushes);
        snap.batch_splits += load(&self.batch_splits);
    }
}

impl CounterSnapshot {
    /// Difference `self - earlier`, field-wise. Saturating: unordered
    /// snapshots (taken while other ranks are mid-flight) never underflow.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            puts: self.puts.saturating_sub(earlier.puts),
            gets: self.gets.saturating_sub(earlier.gets),
            amos: self.amos.saturating_sub(earlier.amos),
            bytes_put: self.bytes_put.saturating_sub(earlier.bytes_put),
            bytes_get: self.bytes_get.saturating_sub(earlier.bytes_get),
            bytes_amo: self.bytes_amo.saturating_sub(earlier.bytes_amo),
            gsyncs: self.gsyncs.saturating_sub(earlier.gsyncs),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            fences: self.fences.saturating_sub(earlier.fences),
            locks: self.locks.saturating_sub(earlier.locks),
            unlocks: self.unlocks.saturating_sub(earlier.unlocks),
            batched_ops: self.batched_ops.saturating_sub(earlier.batched_ops),
            batch_flushes: self.batch_flushes.saturating_sub(earlier.batch_flushes),
            batch_splits: self.batch_splits.saturating_sub(earlier.batch_splits),
            notify_posts: self.notify_posts.saturating_sub(earlier.notify_posts),
            notify_consumed: self.notify_consumed.saturating_sub(earlier.notify_consumed),
            notify_overflows: self.notify_overflows.saturating_sub(earlier.notify_overflows),
            notify_dropped: self.notify_dropped.saturating_sub(earlier.notify_dropped),
        }
    }

    /// Total one-sided operations (puts + gets + amos).
    pub fn total_ops(&self) -> u64 {
        self.puts + self.gets + self.amos
    }

    /// Total bytes moved by one-sided operations.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_put + self.bytes_get + self.bytes_amo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// The layout the type's comment promises: a rank's block fills its
    /// own 128-byte lines, the six sync counters sit together on one
    /// line that nothing else shares, and the blocks' pointer is not on
    /// that line.
    #[test]
    fn rank_blocks_and_the_sync_line_are_alone_on_their_lines() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!((align_of::<RankCounters>(), size_of::<RankCounters>()), (128, 128));
        assert_eq!((align_of::<SyncLine>(), size_of::<SyncLine>()), (128, 128));
        let sync = [
            offset_of!(SyncLine, amos),
            offset_of!(SyncLine, gsyncs),
            offset_of!(SyncLine, flushes),
            offset_of!(SyncLine, fences),
            offset_of!(SyncLine, locks),
            offset_of!(SyncLine, unlocks),
        ];
        assert!(sync.iter().all(|off| off / 64 == 0), "a sync counter left line 0");
        let line = |off: usize| off / 128;
        assert_ne!(line(offset_of!(Counters, ranks)), line(offset_of!(Counters, sync)));
        let c = Counters::new(3);
        for r in 0..3 {
            assert_eq!(std::ptr::from_ref(c.rank(r)) as usize % 128, 0, "rank {r}'s block");
        }
    }

    #[test]
    fn a_snapshot_sums_every_rank_and_the_sync_line() {
        let c = Counters::new(3);
        bump(&c.rank(0).puts, 3);
        bump(&c.rank(2).puts, 4);
        bump(&c.rank(1).bytes_get, 16);
        bump(&c.rank(2).batch_splits, 1);
        bump(&c.sync.amos, 2);
        let s = c.snapshot();
        assert_eq!((s.puts, s.bytes_get, s.batch_splits, s.amos), (7, 16, 1, 2));
        assert_eq!(s.total_ops(), 9);
    }

    #[test]
    fn snapshot_and_diff() {
        let c = Counters::new(2);
        bump(&c.rank(0).puts, 3);
        bump(&c.rank(0).bytes_put, 24);
        let a = c.snapshot();
        bump(&c.rank(1).gets, 2);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.puts, 0);
        assert_eq!(d.gets, 2);
        assert_eq!(b.total_ops(), 5);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let c = Counters::new(1);
        bump(&c.sync.amos, 5);
        let later = c.snapshot();
        bump(&c.sync.amos, 1);
        let even_later = c.snapshot();
        // Reversed order: "later - even_later" would underflow with plain
        // subtraction; saturating gives 0.
        let d = later.since(&even_later);
        assert_eq!(d.amos, 0);
    }

    #[test]
    fn sync_layer_counters_roundtrip() {
        let c = Counters::new(1);
        bump(&c.sync.fences, 2);
        bump(&c.sync.locks, 4);
        bump(&c.sync.unlocks, 4);
        bump(&c.sync.flushes, 1);
        // A lock is one or two AMOs; their volume is derived, not stored.
        bump(&c.sync.amos, 2);
        let s = c.snapshot();
        assert_eq!((s.fences, s.locks, s.unlocks, s.flushes), (2, 4, 4, 1));
        assert_eq!((s.bytes_amo, s.total_bytes()), (16, 16));
        bump(&c.sync.amos, 1);
        assert_eq!(c.snapshot().since(&s).bytes_amo, 8);
    }
}
