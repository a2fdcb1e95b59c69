//! Trace event vocabulary.
//!
//! One [`Event`] is recorded per RMA operation (put/get/AMO, §2.1's DMAPP
//! completion flavours) and per synchronisation action (fence, PSCW
//! post/start/complete/wait, lock/unlock, flush/gsync — the §2.3 epoch
//! operations). Events are `Copy` and fixed-size so the recording path never
//! allocates; timestamps are *virtual* nanoseconds from the origin rank's
//! [`crate::clock::Clock`].

use crate::cost::Transport;

/// Sentinel target for events with no single peer (fence, lock_all, gsync).
pub const NO_TARGET: u32 = u32::MAX;

/// Sentinel window id for operations outside any window scope.
pub const NO_WIN: u64 = 0;

/// Sentinel flow id for events outside any causal flow.
pub const NO_FLOW: u64 = 0;

/// Pack a causal flow id from its origin rank and per-rank sequence
/// number. Ranks are offset by one so rank 0's flows are nonzero
/// ([`NO_FLOW`] stays free); 24 bits of rank and 40 bits of sequence
/// comfortably exceed any simulated job.
#[inline]
pub fn flow_id(origin: u32, seq: u64) -> u64 {
    ((origin as u64 + 1) << 40) | (seq & ((1u64 << 40) - 1))
}

/// Origin rank encoded in a flow id (see [`flow_id`]).
#[inline]
pub fn flow_origin(flow: u64) -> u32 {
    ((flow >> 40) as u32).wrapping_sub(1)
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Remote put (data movement).
    Put,
    /// Remote get (data movement).
    Get,
    /// Remote atomic memory operation.
    Amo,
    /// `MPI_Win_fence` (collective epoch boundary).
    Fence,
    /// `MPI_Win_post` (PSCW exposure epoch open).
    Post,
    /// `MPI_Win_start` (PSCW access epoch open).
    Start,
    /// `MPI_Win_complete` (PSCW access epoch close).
    Complete,
    /// `MPI_Win_wait` / successful `MPI_Win_test` (exposure epoch close).
    WaitEpoch,
    /// `MPI_Win_lock` (passive-target epoch open).
    Lock,
    /// `MPI_Win_unlock` (passive-target epoch close).
    Unlock,
    /// `MPI_Win_lock_all`.
    LockAll,
    /// `MPI_Win_unlock_all`.
    UnlockAll,
    /// `MPI_Win_flush` / `flush_all` (remote completion inside an epoch).
    Flush,
    /// `MPI_Win_flush_local` / `flush_local_all`.
    FlushLocal,
    /// DMAPP bulk completion (`gsync`) at the fabric layer.
    Gsync,
    /// `MPI_Win_sync` (memory-barrier only).
    WinSync,
    /// Injected latency jitter/spike ([`crate::faults`]); the span covers
    /// the extra wire latency added to the op it hit.
    FaultJitter,
    /// Injected completion-retirement delay (nonblocking flavours only).
    FaultDelay,
    /// Injected injection-queue backpressure (issue stall or rejected
    /// nonblocking issue).
    FaultBackpressure,
    /// Injected rank pause (simulated OS noise).
    FaultPause,
    /// A bounded retry after a transient fault (e.g. re-attempted
    /// registration after `SegmentBusy`).
    FaultRetry,
    /// An issue-side injection burst retired by an explicit drain
    /// (flush/gsync/ordered release — see [`crate::batch`]). The span
    /// covers the burst's issue window (open → retire).
    BatchFlush,
    /// An injection burst retired because coalescing stopped: the next
    /// operation was non-adjacent, a different kind, or would cross the
    /// protocol-change size or op cap.
    BatchSplit,
    /// A notification record appended on notified put/AMO retirement
    /// (see [`crate::notify`]). The span covers the notified operation's
    /// issue → notification-visible window.
    NotifyPost,
    /// A consumer matched a notification (`wait_notify`/`test_notify`).
    /// The span covers the wait's start → match.
    NotifyWait,
    /// An un-consumed notification record discarded at window free.
    NotifyDrop,
    /// A racecheck violation ([`crate::shadow`]): two conflicting accesses
    /// overlapped inside one epoch. `origin`/`target` are the two access
    /// origins, `bytes` the overlap length, and the span covers the union
    /// of both accesses' virtual-time windows. Full records (kind, byte
    /// interval, epoch, lock context) are retained by
    /// [`crate::shadow::Shadow::violations`].
    RaceReport,
    /// A versioned remote read (`fompi-txn`): version get + payload get +
    /// re-validation. The span covers the whole read including torn-read
    /// retries.
    TxnRead,
    /// A committed optimistic multi-key transaction. The span covers lock
    /// acquisition through version publication; `bytes` is the total
    /// payload written.
    TxnCommit,
    /// An aborted transaction attempt (lock conflict, validation failure
    /// or retry-budget exhaustion). The span covers the failed attempt
    /// including rollback.
    TxnAbort,
    /// A message appended onto a remote-memory channel (`fompi-rmc` fan-in
    /// producer or fan-out publisher). The span covers the notified put
    /// including any credit stall; `bytes` is the payload length.
    RmcSend,
    /// A message drained from a remote-memory channel (fan-in consumer or
    /// fan-out subscriber). The span covers the match → credit-return
    /// window.
    RmcRecv,
    /// One complete RPC round trip at the caller (`fompi-rmc::rpc`):
    /// request send through reply match. `bytes` is request + reply
    /// payload.
    RpcCall,
}

impl EventKind {
    /// Number of distinct kinds (size of per-class stat arrays).
    pub const COUNT: usize = 33;

    /// All kinds, in `index` order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::Put,
        EventKind::Get,
        EventKind::Amo,
        EventKind::Fence,
        EventKind::Post,
        EventKind::Start,
        EventKind::Complete,
        EventKind::WaitEpoch,
        EventKind::Lock,
        EventKind::Unlock,
        EventKind::LockAll,
        EventKind::UnlockAll,
        EventKind::Flush,
        EventKind::FlushLocal,
        EventKind::Gsync,
        EventKind::WinSync,
        EventKind::FaultJitter,
        EventKind::FaultDelay,
        EventKind::FaultBackpressure,
        EventKind::FaultPause,
        EventKind::FaultRetry,
        EventKind::BatchFlush,
        EventKind::BatchSplit,
        EventKind::NotifyPost,
        EventKind::NotifyWait,
        EventKind::NotifyDrop,
        EventKind::RaceReport,
        EventKind::TxnRead,
        EventKind::TxnCommit,
        EventKind::TxnAbort,
        EventKind::RmcSend,
        EventKind::RmcRecv,
        EventKind::RpcCall,
    ];

    /// Dense index for per-class stat arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (used in reports and trace JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Put => "put",
            EventKind::Get => "get",
            EventKind::Amo => "amo",
            EventKind::Fence => "fence",
            EventKind::Post => "post",
            EventKind::Start => "start",
            EventKind::Complete => "complete",
            EventKind::WaitEpoch => "wait",
            EventKind::Lock => "lock",
            EventKind::Unlock => "unlock",
            EventKind::LockAll => "lock_all",
            EventKind::UnlockAll => "unlock_all",
            EventKind::Flush => "flush",
            EventKind::FlushLocal => "flush_local",
            EventKind::Gsync => "gsync",
            EventKind::WinSync => "win_sync",
            EventKind::FaultJitter => "fault_jitter",
            EventKind::FaultDelay => "fault_delay",
            EventKind::FaultBackpressure => "fault_backpressure",
            EventKind::FaultPause => "fault_pause",
            EventKind::FaultRetry => "fault_retry",
            EventKind::BatchFlush => "batch_flush",
            EventKind::BatchSplit => "batch_split",
            EventKind::NotifyPost => "notify_post",
            EventKind::NotifyWait => "notify_wait",
            EventKind::NotifyDrop => "notify_drop",
            EventKind::RaceReport => "race_report",
            EventKind::TxnRead => "txn_read",
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnAbort => "txn_abort",
            EventKind::RmcSend => "rmc_send",
            EventKind::RmcRecv => "rmc_recv",
            EventKind::RpcCall => "rpc_call",
        }
    }

    /// Is this a data-movement operation (vs a synchronisation action)?
    #[inline]
    pub fn is_rma(self) -> bool {
        matches!(self, EventKind::Put | EventKind::Get | EventKind::Amo)
    }

    /// Is this an injected perturbation ([`crate::faults`])?
    #[inline]
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            EventKind::FaultJitter
                | EventKind::FaultDelay
                | EventKind::FaultBackpressure
                | EventKind::FaultPause
                | EventKind::FaultRetry
        )
    }
}

/// DMAPP completion flavour of an RMA operation (§2.1). Sync events carry
/// [`Flavor::NotApplicable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Flavor {
    /// Returned only when remotely complete.
    Blocking,
    /// Explicit nonblocking (`*_nb`, completed by `wait`).
    Nonblocking,
    /// Implicit nonblocking (completed in bulk by `gsync`/`flush`).
    Implicit,
    /// Synchronisation events have no completion flavour.
    NotApplicable,
}

impl Flavor {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Blocking => "blocking",
            Flavor::Nonblocking => "nonblocking",
            Flavor::Implicit => "implicit",
            Flavor::NotApplicable => "-",
        }
    }
}

/// One recorded operation. `t_start`/`t_end` are virtual ns on the origin's
/// clock; for nonblocking flavours `t_end` is the *remote completion* time
/// (the op's latency horizon), not the local return time.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Completion flavour (RMA ops only).
    pub flavor: Flavor,
    /// Physical path, when a single peer is involved.
    pub transport: Option<Transport>,
    /// Issuing rank.
    pub origin: u32,
    /// Peer rank, or [`NO_TARGET`].
    pub target: u32,
    /// Window id ([`crate::Fabric`]-symmetric meta id), or [`NO_WIN`].
    pub win: u64,
    /// Payload bytes (0 for pure sync events; 8 for AMOs).
    pub bytes: u64,
    /// Causal flow id ([`flow_id`]), or [`NO_FLOW`]. Issue-side RMA events
    /// and their target-side consumption events (notify waits, signal
    /// waits) share a flow id, which the Perfetto exporter turns into flow
    /// arrows across rank tracks.
    pub flow: u64,
    /// Virtual start time (ns).
    pub t_start: f64,
    /// Virtual completion time (ns).
    pub t_end: f64,
}

impl Event {
    /// Latency in virtual ns (clamped non-negative).
    #[inline]
    pub fn latency_ns(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }
}

impl Default for Event {
    fn default() -> Self {
        Event {
            kind: EventKind::Put,
            flavor: Flavor::NotApplicable,
            transport: None,
            origin: 0,
            target: NO_TARGET,
            win: NO_WIN,
            bytes: 0,
            flow: NO_FLOW,
            t_start: 0.0,
            t_end: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(EventKind::ALL.len(), EventKind::COUNT);
    }

    #[test]
    fn latency_clamps_negative() {
        let ev = Event { t_start: 10.0, t_end: 5.0, ..Event::default() };
        assert_eq!(ev.latency_ns(), 0.0);
        let ev = Event { t_start: 5.0, t_end: 15.0, ..Event::default() };
        assert_eq!(ev.latency_ns(), 10.0);
    }

    #[test]
    fn rma_classification() {
        assert!(EventKind::Put.is_rma());
        assert!(EventKind::Amo.is_rma());
        assert!(!EventKind::Fence.is_rma());
        assert!(!EventKind::Flush.is_rma());
        assert!(!EventKind::FaultJitter.is_rma());
    }

    #[test]
    fn flow_ids_pack_and_unpack() {
        assert_ne!(flow_id(0, 0), NO_FLOW);
        assert_eq!(flow_origin(flow_id(0, 0)), 0);
        assert_eq!(flow_origin(flow_id(17, 999)), 17);
        assert_ne!(flow_id(0, 1), flow_id(1, 1));
        assert_ne!(flow_id(3, 1), flow_id(3, 2));
    }

    #[test]
    fn fault_classification() {
        for k in EventKind::ALL {
            assert_eq!(k.is_fault(), k.name().starts_with("fault_"), "{k:?}");
        }
    }
}
