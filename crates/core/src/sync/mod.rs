//! Synchronisation protocols (§2.3): fence, general active target (PSCW),
//! passive-target locks, and the flush family.
//!
//! What they share is here, once: an epoch call's check and frame
//! ([`Win::require`], [`Win::enter`] / [`Win::leave`]) and how a rank waits
//! — [`Win::spin_until`] on its own memory, [`Spin::lost`] after a lost
//! remote race. Nothing else under `sync/` knows the spin limit, the thread
//! yield or the model checker's parking hooks.

pub mod fence;
pub mod flush;
pub mod listops;
pub mod lock;
pub mod mcs;
pub mod notify;
pub mod pscw;

use crate::error::{FompiError, Result};
use crate::win::{EpochState, Win};
use fompi_fabric::telemetry::EventKind;
use fompi_fabric::{Endpoint, SegKey};
use std::sync::atomic::Ordering;

// ------------------------------------------------------- the epoch-call frame

/// An epoch call in flight: when it began. Not `Copy`: [`Win::leave`]
/// consumes it, so a call counts and traces at most once.
#[must_use]
pub(crate) struct Frame {
    t_start: f64,
}

impl Win {
    /// Refuse an epoch call, before anything moves, unless the epoch state
    /// allows it.
    pub(crate) fn require(
        &self,
        allowed: impl FnOnce(&EpochState) -> bool,
        refusal: &'static str,
    ) -> Result<()> {
        allowed(&self.state.borrow()).then_some(()).ok_or(FompiError::InvalidEpoch(refusal))
    }

    /// Open the frame of an admitted epoch call: scope the trace to this
    /// window and note the time.
    #[inline]
    pub(crate) fn enter(&self) -> Frame {
        self.trace_scope();
        Frame { t_start: self.ep.clock().now() }
    }

    /// Close the frame, the call's one exit: count it where its `kind` (a
    /// constant of the call site) has a sync counter, trace its span.
    #[inline]
    pub(crate) fn leave(&self, frame: Frame, kind: EventKind, target: u32) {
        let c = self.ep.fabric().counters();
        let counter = match kind {
            EventKind::Fence => Some(&c.fences),
            EventKind::Lock | EventKind::LockAll => Some(&c.locks),
            EventKind::Unlock | EventKind::UnlockAll => Some(&c.unlocks),
            EventKind::Flush | EventKind::FlushLocal => Some(&c.flushes),
            _ => None,
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.ep.trace_sync(kind, target, frame.t_start);
    }
}

// ---------------------------------------------------------------------- waits

/// Bound for protocol spin loops: generous enough for any legal schedule,
/// small enough that a deadlocked test fails fast instead of hanging CI.
const SPIN_LIMIT: u64 = 200_000_000;

/// The misses of one wait or retry loop, and what it is waiting for.
pub(crate) struct Spin {
    what: &'static str,
    misses: u64,
}

impl Spin {
    pub(crate) fn new(what: &'static str) -> Spin {
        Spin { what, misses: 0 }
    }

    /// Count one miss and return how many that makes. Past [`SPIN_LIMIT`]
    /// the program is illegal (cyclic PSCW matching, a lock cycle): panic.
    #[inline]
    pub(crate) fn miss(&mut self) -> u64 {
        self.misses += 1;
        if self.misses > SPIN_LIMIT {
            spin_overflow(self.what);
        }
        self.misses
    }

    /// An attempt on the sync word at `key`+`off` found it taken: wait
    /// before the retry. Under the model checker park until `free(word)`
    /// (a free retry is always enabled: the explored spin would never end)
    /// and return `true`; else count the miss, back off, return `false`.
    pub(crate) fn lost(
        &mut self,
        ep: &Endpoint,
        key: SegKey,
        off: usize,
        label: &'static str,
        free: fn(u64) -> bool,
    ) -> bool {
        let parked = ep.mc_poll_word(key, off, label, free);
        if !parked {
            backoff_spin(ep, self.miss());
        }
        parked
    }
}

#[cold]
fn spin_overflow(what: &str) -> ! {
    panic!(
        "foMPI protocol spin limit exceeded while waiting for {what}: \
            the program is likely deadlocked (illegal matching or lock cycle)"
    );
}

/// Exponential backoff for remote retry loops ("all waits/retries can be
/// performed with exponential back off to avoid congestion", §2.3).
/// Charges virtual time for the wait and yields the OS thread so peer rank
/// threads can make real progress.
pub(crate) fn backoff_spin(ep: &Endpoint, attempt: u64) {
    let exp = attempt.min(8);
    let ns = 100.0 * (1u64 << exp) as f64;
    ep.charge(ns.min(25_000.0));
    std::thread::yield_now();
}

impl Win {
    /// Poll until `poll` yields: the loop of every wait that spins for free
    /// on this rank's own memory, one `poll` and one thread yield per miss.
    /// `park` is its model-checker hook: `true` once it has parked the rank
    /// until a poll can succeed (a waiter with nothing to observe must be
    /// *disabled* there, or exploration never ends and deadlocks look like
    /// spins), `false` with no gate armed or nothing to park on.
    #[inline]
    pub(crate) fn spin_until<T>(
        &self,
        what: &'static str,
        mut poll: impl FnMut() -> Result<Option<T>>,
        park: impl Fn() -> bool,
    ) -> Result<T> {
        let mut spin = Spin::new(what);
        loop {
            if let Some(v) = poll()? {
                return Ok(v);
            }
            if !park() {
                spin.miss();
                std::thread::yield_now();
            }
        }
    }

    /// Spin until the sync word at `key`+`off` satisfies `pred`; returns
    /// the value that did.
    #[inline]
    pub(crate) fn wait_word(
        &self,
        key: SegKey,
        off: usize,
        what: &'static str,
        pred: impl Fn(u64) -> bool + Copy + Send + Sync + 'static,
    ) -> Result<u64> {
        self.spin_until(
            what,
            || Ok(Some(self.ep.read_sync(key, off)?).filter(|&v| pred(v))),
            || self.ep.mc_poll_word(key, off, what, pred),
        )
    }

    /// Spin until `take` finds its record among those queued for this rank.
    #[inline]
    pub(crate) fn wait_ring<T>(
        &self,
        what: &'static str,
        mut take: impl FnMut() -> Option<T>,
    ) -> Result<T> {
        self.spin_until(what, || Ok(take()), || self.ep.mc_poll_my_ring("wait-notify"))
    }
}
