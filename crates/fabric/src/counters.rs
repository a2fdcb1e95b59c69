//! Global operation counters.
//!
//! Used by tests and benchmarks to assert the *message complexity* claims of
//! the paper (e.g. PSCW issues O(k) messages in post/complete and zero in
//! start/wait; fence is O(p log p) total; locks cost one or two AMOs).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of fabric activity.
///
/// One instance is shared by every rank of the job, so each increment is a
/// read-modify-write on a line the other ranks write too, and the layout
/// decides how many such lines an operation touches. It is pinned
/// (`repr(C)`, line-aligned, padded) as one line per class of operation,
/// so that every fabric op writes exactly one line:
///
/// | line | counts | written by |
/// |---|---|---|
/// | 0 put | `puts`, `bytes_put`, `notify_posts` | puts, `write_sync`, notified appends |
/// | 1 get | `gets`, `bytes_get` | gets, a remote `read_sync` |
/// | 2 sync | `amos`, `gsyncs`, `flushes`, `fences`, `locks`, `unlocks` | AMOs, completion, epoch calls |
/// | 3 rare | `notify_consumed`, `notify_overflows`, `notify_dropped`, `batched_ops`, `batch_flushes`, `batch_splits` | consumers, backpressure, bursts |
///
/// An AMO's volume is not stored: every AMO moves 8 bytes, so
/// [`CounterSnapshot::bytes_amo`] is `8 × amos` when the snapshot is
/// taken. Nothing that an operation only *reads* (topology, cost model,
/// registry generation) can land on a counter line. Left to the compiler,
/// `puts` shared its line with read-mostly fields of [`crate::Fabric`]:
/// an operation then took two or three line transfers depending on how
/// the ranks interleaved, and the rate of a contended put spread half
/// again as widely from one second to the next (EXPERIMENTS.md,
/// "Translate once, not per op").
#[derive(Debug, Default)]
#[repr(C, align(64))]
pub struct Counters {
    // ---- line 0: puts
    /// Number of put operations issued.
    pub puts: AtomicU64,
    /// Total bytes moved by puts.
    pub bytes_put: AtomicU64,
    /// Notification records appended by notified puts/AMOs
    /// (see [`crate::notify`]).
    pub notify_posts: AtomicU64,
    _put_pad: [u64; 5],
    // ---- line 1: gets
    /// Number of get operations issued.
    pub gets: AtomicU64,
    /// Total bytes moved by gets.
    pub bytes_get: AtomicU64,
    _get_pad: [u64; 6],
    // ---- line 2: AMOs and synchronisation
    /// Number of AMOs issued.
    pub amos: AtomicU64,
    /// Number of gsync (bulk completion) calls.
    pub gsyncs: AtomicU64,
    /// Number of per-target flushes (`flush_target` at the fabric layer —
    /// the substrate of `MPI_Win_flush`).
    pub flushes: AtomicU64,
    /// Number of `MPI_Win_fence` epochs entered (counted by the sync layer).
    pub fences: AtomicU64,
    /// Number of lock acquisitions (`MPI_Win_lock` / `lock_all`).
    pub locks: AtomicU64,
    /// Number of lock releases (`MPI_Win_unlock` / `unlock_all`).
    pub unlocks: AtomicU64,
    _sync_pad: [u64; 2],
    // ---- line 3: consumers and the rare paths
    /// Notification records popped by a consumer.
    pub notify_consumed: AtomicU64,
    /// Notified appends that found the target ring full at least once
    /// (modelled as injection backpressure).
    pub notify_overflows: AtomicU64,
    /// Un-consumed notification records discarded (window free).
    pub notify_dropped: AtomicU64,
    /// Operations issued through the batching layer (members of bursts,
    /// including each burst's first op — see [`crate::batch`]).
    pub batched_ops: AtomicU64,
    /// Injection bursts retired (by drain or coalescing stop).
    pub batch_flushes: AtomicU64,
    /// Bursts retired specifically because coalescing stopped (next op
    /// non-adjacent / different kind / would cross the protocol change).
    pub batch_splits: AtomicU64,
}

/// The line of [`Counters`] an operation on a segment writes, which
/// [`Counters::touch`] asks for ahead of the increment.
#[derive(Clone, Copy)]
pub(crate) enum Line {
    Put,
    Get,
    Sync,
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
    /// Ask for `line` ahead of the increment. An operation calls this
    /// first and counts itself last; the line's transfer from the rank
    /// that counted last then overlaps the translation and cost
    /// arithmetic in between instead of stalling the increment for its
    /// whole length.
    #[inline(always)]
    pub(crate) fn touch(&self, line: Line) {
        let first = match line {
            Line::Put => &self.puts,
            Line::Get => &self.gets,
            Line::Sync => &self.amos,
        };
        // `black_box`: the compiler may delete a relaxed load nobody reads.
        std::hint::black_box(first.load(Ordering::Relaxed));
    }

    /// Take a snapshot.
    pub fn snapshot(&self) -> CounterSnapshot {
        let amos = self.amos.load(Ordering::Relaxed);
        CounterSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            amos,
            bytes_put: self.bytes_put.load(Ordering::Relaxed),
            bytes_get: self.bytes_get.load(Ordering::Relaxed),
            bytes_amo: 8 * amos,
            gsyncs: self.gsyncs.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            locks: self.locks.load(Ordering::Relaxed),
            unlocks: self.unlocks.load(Ordering::Relaxed),
            batched_ops: self.batched_ops.load(Ordering::Relaxed),
            batch_flushes: self.batch_flushes.load(Ordering::Relaxed),
            batch_splits: self.batch_splits.load(Ordering::Relaxed),
            notify_posts: self.notify_posts.load(Ordering::Relaxed),
            notify_consumed: self.notify_consumed.load(Ordering::Relaxed),
            notify_overflows: self.notify_overflows.load(Ordering::Relaxed),
            notify_dropped: self.notify_dropped.load(Ordering::Relaxed),
        }
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

    /// The layout the type's comment promises: each class of operation
    /// has its counters on one line of its own.
    #[test]
    fn each_op_class_writes_one_line() {
        use std::mem::{align_of, offset_of};
        assert_eq!(align_of::<Counters>(), 64);
        let classes = [
            (
                "put",
                vec![
                    offset_of!(Counters, puts),
                    offset_of!(Counters, bytes_put),
                    offset_of!(Counters, notify_posts),
                ],
            ),
            ("get", vec![offset_of!(Counters, gets), offset_of!(Counters, bytes_get)]),
            (
                "sync",
                vec![
                    offset_of!(Counters, amos),
                    offset_of!(Counters, gsyncs),
                    offset_of!(Counters, flushes),
                    offset_of!(Counters, fences),
                    offset_of!(Counters, locks),
                    offset_of!(Counters, unlocks),
                ],
            ),
            (
                "rare",
                vec![
                    offset_of!(Counters, notify_consumed),
                    offset_of!(Counters, notify_overflows),
                    offset_of!(Counters, notify_dropped),
                    offset_of!(Counters, batched_ops),
                    offset_of!(Counters, batch_flushes),
                    offset_of!(Counters, batch_splits),
                ],
            ),
        ];
        for (line, (class, fields)) in classes.iter().enumerate() {
            for &off in fields {
                assert_eq!(off / 64, line, "a {class} counter left line {line}");
            }
        }
    }

    #[test]
    fn snapshot_and_diff() {
        let c = Counters::default();
        c.puts.fetch_add(3, Ordering::Relaxed);
        c.bytes_put.fetch_add(24, Ordering::Relaxed);
        let a = c.snapshot();
        c.gets.fetch_add(2, Ordering::Relaxed);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.puts, 0);
        assert_eq!(d.gets, 2);
        assert_eq!(b.total_ops(), 5);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let c = Counters::default();
        c.amos.fetch_add(5, Ordering::Relaxed);
        let later = c.snapshot();
        c.amos.fetch_add(1, Ordering::Relaxed);
        let even_later = c.snapshot();
        // Reversed order: "later - even_later" would underflow with plain
        // subtraction; saturating gives 0.
        let d = later.since(&even_later);
        assert_eq!(d.amos, 0);
    }

    #[test]
    fn sync_layer_counters_roundtrip() {
        let c = Counters::default();
        c.fences.fetch_add(2, Ordering::Relaxed);
        c.locks.fetch_add(4, Ordering::Relaxed);
        c.unlocks.fetch_add(4, Ordering::Relaxed);
        c.flushes.fetch_add(1, Ordering::Relaxed);
        // A lock is one or two AMOs; their volume is derived, not stored.
        c.amos.fetch_add(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!((s.fences, s.locks, s.unlocks, s.flushes), (2, 4, 4, 1));
        assert_eq!((s.bytes_amo, s.total_bytes()), (16, 16));
        c.amos.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.snapshot().since(&s).bytes_amo, 8);
    }
}
