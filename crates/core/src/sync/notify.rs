//! Notified access: RMA operations with integrated remote notifications.
//!
//! The paper's applications (MILC §4.4, the UPC port it mirrors) pair
//! every data transfer with a separate atomic-add flag update; the target
//! spins on the flag. Notified access — the direction foMPI later took
//! with foMPI-NA (Belli & Hoefler, IPDPS'15) — fuses the two. Two API
//! generations live here:
//!
//! * **Signals** ([`Win::put_signal`] / [`Win::signal_wait`] /
//!   [`Win::signal_test`]): the original slot-counter scheme. The origin's
//!   call delivers the data *and* bumps one of `NOTIFY_SLOTS` monotonic
//!   counters in the target's window metadata; the target spins on its
//!   local counter. No payload metadata travels with the signal — the
//!   consumer must know from the slot number alone what arrived.
//!
//! * **Notifications** ([`Win::put_notify`] / [`Win::get_notify`] /
//!   [`Win::accumulate_notify`] / the data-less [`Win::notify`], matched
//!   by [`Win::wait_notify`] /
//!   [`Win::test_notify`]): full foMPI-NA-style notified access over the
//!   fabric's per-rank notification rings ([`fompi_fabric::notify`]).
//!   Every notified operation appends a `(tag, source, bytes)` record to
//!   the target's ring, ordered after the operation's data (an open
//!   injection burst toward the target is drained first, so the record
//!   trails the burst's completion). Consumers match with tag and source
//!   wildcards ([`ANY_TAG`] / [`ANY_SOURCE`]); records popped while
//!   looking for a different match are stashed FIFO and re-offered to
//!   later waits, so a wait never steals or reorders another match.
//!
//! Matching a notification *is* the consumption fence: the matched
//! record's stamp joins the consumer's virtual clock, so a local read
//! after [`Win::wait_notify`] observes the notified operation's data.
//! Un-consumed records (ring + stash) are discarded and counted when the
//! window is freed.

use super::Frame;
use crate::error::{FompiError, Result};
use crate::meta;
use crate::racecheck::acc_tag;
use crate::win::Win;
use fompi_fabric::shadow::AccessKind;
use fompi_fabric::telemetry::{flow_origin, EventKind, NO_FLOW};
use fompi_fabric::{notify_match, AmoOp, NotifyRecord, NOTIFY_ANY};

/// Wildcard tag for [`Win::wait_notify`] / [`Win::test_notify`].
pub const ANY_TAG: u32 = NOTIFY_ANY;

/// Wildcard source rank for [`Win::wait_notify`] / [`Win::test_notify`].
pub const ANY_SOURCE: u32 = NOTIFY_ANY;

impl Win {
    // ------------------------------------------------- signals (slot API)

    /// Put `origin` into `target` at `target_disp` and raise the target's
    /// signal counter `slot` by one, all completing together.
    /// Requires an access epoch covering `target`.
    pub fn put_signal(
        &self,
        origin: &[u8],
        target: u32,
        target_disp: usize,
        slot: usize,
    ) -> Result<()> {
        let noff = self.signal_off(slot)?;
        self.admit(target, true)?;
        // One causal flow covers the data put and its signal release; the
        // release hands the flow to the waiter via the signal mailbox.
        let prev = self.ep.flow_open();
        let r = (|| -> Result<()> {
            let at = self.resolve(target, target_disp, origin.len())?;
            self.ep.put_implicit(at.key, at.off, origin)?;
            // Only the data interval is shadowed; the signal AMO lands in
            // window metadata, outside user-addressable bytes.
            self.landed(&at, 0, origin.len(), AccessKind::Put);
            // The signal is NIC-ordered after the data (no origin-side
            // blocking): one non-fetching AMO whose visibility trails the put.
            Ok(self.ep.amo_sync_release_ordered(self.meta_key(target), noff, AmoOp::Add, 1)?)
        })();
        self.ep.flow_close(prev);
        r
    }

    /// Block until this rank's signal counter `slot` reaches `count`
    /// (absolute, monotonic). Purely local spinning.
    pub fn signal_wait(&self, slot: usize, count: u64) -> Result<()> {
        let noff = self.signal_off(slot)?;
        let mkey = self.meta_key(self.ep.rank());
        let t0 = self.ep.clock().now();
        self.wait_word(mkey, noff, "put_signal counters", move |v| v >= count)?;
        // Racecheck acquire edge: the signal is release-ordered after its
        // data, so reads that follow are synchronized.
        self.rc_acquire_own();
        // Join the producer's flow (latest release wins the mailbox); the
        // consume span closes its arrow.
        let flow = self.ep.fabric().telemetry().take_signal_flow(self.ep.rank());
        if flow != NO_FLOW {
            self.ep.trace_flow_consume(EventKind::NotifyWait, flow_origin(flow), t0, flow, 0);
        }
        Ok(())
    }

    /// Nonblocking check of signal counter `slot`.
    pub fn signal_test(&self, slot: usize) -> Result<u64> {
        let v = self.ep.read_sync(self.meta_key(self.ep.rank()), self.signal_off(slot)?)?;
        if v > 0 {
            // A nonzero counter proves at least one producer's release was
            // observed — an acquire edge for the data behind it.
            self.rc_acquire_own();
        }
        Ok(v)
    }

    /// Where signal counter `slot` lies in a rank's window metadata.
    fn signal_off(&self, slot: usize) -> Result<usize> {
        if slot >= meta::NOTIFY_SLOTS {
            return Err(FompiError::InvalidEpoch("signal slot out of range"));
        }
        Ok(meta::notify_off(slot))
    }

    // ------------------------------------------- notifications (ring API)

    /// Put `origin` into `target` at `target_disp` and append a `(tag,
    /// source, bytes)` notification to `target`'s ring, ordered after the
    /// data. Requires an access epoch covering `target`; `tag` must not be
    /// [`ANY_TAG`] (reserved for matching). A full target ring surfaces as
    /// transient [`FompiError::Fabric`] backpressure after a bounded
    /// stall-and-retry (see [`fompi_fabric::Endpoint::notify_append`]).
    pub fn put_notify(
        &self,
        origin: &[u8],
        target: u32,
        target_disp: usize,
        tag: u32,
    ) -> Result<()> {
        self.notify_tag_ok(tag)?;
        let at = self.begin(target, target_disp, origin.len(), true)?;
        self.ep.put_notified(at.key, at.off, origin, tag)?;
        self.landed(&at, 0, origin.len(), AccessKind::Put);
        Ok(())
    }

    /// Get from `target` at `target_disp` into `dst` and notify *the
    /// target* that the read retired — the buffer-reuse handshake of
    /// notified access (the owner may overwrite once it matches the
    /// notification).
    pub fn get_notify(
        &self,
        dst: &mut [u8],
        target: u32,
        target_disp: usize,
        tag: u32,
    ) -> Result<()> {
        self.notify_tag_ok(tag)?;
        let at = self.begin(target, target_disp, dst.len(), true)?;
        self.ep.get_notified(at.key, at.off, dst, tag)?;
        self.landed(&at, 0, dst.len(), AccessKind::Get);
        Ok(())
    }

    /// Notified 8-byte accumulate: apply `op` to the u64 at `target_disp`
    /// and append a notification, ordered after the update. Only
    /// hardware-accelerated ops ([`crate::MpiOp::hw_amo`] on `U64`) are
    /// accepted.
    pub fn accumulate_notify(
        &self,
        operand: u64,
        op: crate::MpiOp,
        target: u32,
        target_disp: usize,
        tag: u32,
    ) -> Result<()> {
        self.notify_tag_ok(tag)?;
        let amo = op
            .hw_amo(crate::NumKind::U64)
            .ok_or(FompiError::BadAccumulate("accumulate_notify needs a hardware AMO op"))?;
        let at = self.begin(target, target_disp, 8, true)?;
        self.ep.amo_notified(at.key, at.off, amo, operand, tag)?;
        self.landed(&at, 0, 8, AccessKind::Acc(acc_tag(op)));
        Ok(())
    }

    /// A notification with no data: append `(tag, source, count)` to
    /// `target`'s ring, ordered after everything this rank already issued
    /// to `target`. The record's `bytes` field carries `count` — the bulk
    /// credit return of [`crate::lane`]. Admitted and charged like
    /// [`Win::put_notify`]; it touches no window memory, so the race
    /// checker has no interval to record, and the consumer's match is the
    /// acquire edge as for every notified call.
    pub fn notify(&self, target: u32, tag: u32, count: u64) -> Result<()> {
        self.notify_tag_ok(tag)?;
        self.admit(target, true)?;
        let prev = self.ep.flow_open();
        let r = self.ep.notify_append(target, tag, count);
        self.ep.flow_close(prev);
        Ok(r?)
    }

    /// Block until a notification matching `(source, tag)` — either may be
    /// a wildcard ([`ANY_SOURCE`] / [`ANY_TAG`]) — arrives at this rank,
    /// and return it. Previously-popped non-matching records are offered
    /// first, in arrival order, so concurrent waits on disjoint matches
    /// never lose records to each other. The matched record's stamp joins
    /// this rank's virtual clock: the notified operation's data is visible
    /// after the call. Spinning is free in virtual time (local ring poll).
    pub fn wait_notify(&self, source: u32, tag: u32) -> Result<NotifyRecord> {
        let frame = self.enter();
        let rec = self.wait_ring("a matching notification", || self.notify_take(source, tag))?;
        self.notify_matched(&rec, frame);
        Ok(rec)
    }

    /// Nonblocking [`Win::wait_notify`]: one matching pass over the stash
    /// and ring; `None` if no queued notification matches `(source, tag)`.
    pub fn test_notify(&self, source: u32, tag: u32) -> Result<Option<NotifyRecord>> {
        let frame = self.enter();
        Ok(self.notify_take(source, tag).inspect(|rec| self.notify_matched(rec, frame)))
    }

    /// The exit of a consuming call that matched `rec`.
    fn notify_matched(&self, rec: &NotifyRecord, frame: Frame) {
        self.ep.notify_join(rec);
        // Racecheck acquire edge: matching consumes the notification's
        // ordering guarantee.
        self.rc_acquire_own();
        // The consume span carries the record's flow: the arrow from the
        // producing put/post terminates here.
        let t0 = frame.t_start;
        self.ep.trace_flow_consume(EventKind::NotifyWait, rec.source, t0, rec.flow, rec.bytes);
    }

    /// Notifications queued for this rank and not yet matched (stash +
    /// ring; the ring count is approximate under concurrent producers).
    pub fn notify_pending(&self) -> usize {
        self.notify_stash.borrow().len() + self.ep.notify_backlog()
    }

    /// One matching pass: stash first (FIFO), then drain the ring into the
    /// stash until a match pops out. Unmatched records keep arrival order.
    /// No clock joins happen here — only the *matched* record may touch
    /// the consumer's clock (see [`fompi_fabric::Endpoint::notify_poll`]),
    /// so consumer time never depends on unrelated queue traffic.
    fn notify_take(&self, source: u32, tag: u32) -> Option<NotifyRecord> {
        let mut stash = self.notify_stash.borrow_mut();
        if let Some(i) = stash.iter().position(|r| notify_match(source, tag, r.source, r.tag)) {
            return stash.remove(i);
        }
        while let Some(rec) = self.ep.notify_poll() {
            if notify_match(source, tag, rec.source, rec.tag) {
                return Some(rec);
            }
            stash.push_back(rec);
        }
        None
    }

    fn notify_tag_ok(&self, tag: u32) -> Result<()> {
        if tag == ANY_TAG {
            return Err(FompiError::InvalidEpoch("ANY_TAG is reserved for matching"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{ANY_SOURCE, ANY_TAG};
    use crate::win::{LockType, Win};
    use fompi_fabric::FaultPlan;
    use fompi_runtime::Universe;

    // ------------------------------------------------------ signals (slots)

    #[test]
    fn put_signal_producer_consumer() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            if ctx.rank() == 0 {
                win.lock(LockType::Shared, 1).unwrap();
                for i in 0..5u64 {
                    win.put_signal(&(i * 11).to_le_bytes(), 1, (i as usize) * 8, 0).unwrap();
                }
                win.unlock(1).unwrap();
                ctx.barrier();
                Vec::new()
            } else {
                win.signal_wait(0, 5).unwrap();
                let mut vals = Vec::new();
                for i in 0..5usize {
                    let mut b = [0u8; 8];
                    win.read_local(i * 8, &mut b);
                    vals.push(u64::from_le_bytes(b));
                }
                ctx.barrier();
                vals
            }
        });
        assert_eq!(got[1], vec![0, 11, 22, 33, 44]);
    }

    #[test]
    fn signal_data_visible_before_notification() {
        // The ordered AMO inside put_signal trails the data: the consumer
        // reading after signal_wait must never see stale bytes.
        let rounds = 25u64;
        let got = Universe::new(2).node_size(1).run(move |ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            if ctx.rank() == 0 {
                win.lock(LockType::Shared, 1).unwrap();
                for i in 1..=rounds {
                    win.put_signal(&i.to_le_bytes(), 1, 0, 3).unwrap();
                }
                win.unlock(1).unwrap();
                ctx.barrier();
                true
            } else {
                let mut ok = true;
                for i in 1..=rounds {
                    win.signal_wait(3, i).unwrap();
                    let mut b = [0u8; 8];
                    win.read_local(0, &mut b);
                    // Value must be at least i (later puts may have landed).
                    ok &= u64::from_le_bytes(b) >= i;
                }
                ctx.barrier();
                ok
            }
        });
        assert!(got[1]);
    }

    #[test]
    fn distinct_slots_are_independent() {
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            if ctx.rank() != 0 {
                win.lock(LockType::Shared, 0).unwrap();
                win.put_signal(
                    &[ctx.rank() as u8; 8],
                    0,
                    ctx.rank() as usize * 8,
                    ctx.rank() as usize,
                )
                .unwrap();
                win.unlock(0).unwrap();
                ctx.barrier();
                0
            } else {
                win.signal_wait(1, 1).unwrap();
                win.signal_wait(2, 1).unwrap();
                let c1 = win.signal_test(1).unwrap();
                let c2 = win.signal_test(2).unwrap();
                ctx.barrier();
                (c1 + c2) as u32
            }
        });
        assert_eq!(got[0], 2);
    }

    #[test]
    fn slot_bounds_checked() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            let r = if ctx.rank() == 0 {
                win.lock(LockType::Shared, 1).unwrap();
                let e = win.put_signal(&[1u8; 4], 1, 0, 99).is_err();
                win.unlock(1).unwrap();
                e
            } else {
                win.signal_test(99).is_err()
            };
            ctx.barrier();
            r
        });
        assert!(got.iter().all(|&e| e));
    }

    // ------------------------------------------------- notifications (ring)

    #[test]
    fn put_notify_wait_notify_roundtrip() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.lock_all().unwrap();
            if ctx.rank() == 0 {
                win.put_notify(&0xAB12u64.to_le_bytes(), 1, 8, 7).unwrap();
                win.unlock_all().unwrap();
                ctx.barrier();
                0
            } else {
                let rec = win.wait_notify(0, 7).unwrap();
                assert_eq!((rec.source, rec.tag, rec.bytes), (0, 7, 8));
                let mut b = [0u8; 8];
                win.read_local(8, &mut b);
                win.unlock_all().unwrap();
                ctx.barrier();
                u64::from_le_bytes(b)
            }
        });
        assert_eq!(got[1], 0xAB12);
    }

    #[test]
    fn wildcard_waits_preserve_arrival_order() {
        // Rank 0 sends tags 1, 2, 3 in order. The consumer first asks for
        // tag 2 specifically (stashing 1), then a wildcard wait must return
        // the *stashed* record (tag 1) before the still-queued tag 3.
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.lock_all().unwrap();
            if ctx.rank() == 0 {
                for tag in 1..=3u32 {
                    win.put_notify(&[tag as u8; 4], 1, tag as usize * 4, tag).unwrap();
                }
                win.unlock_all().unwrap();
                ctx.barrier();
                Vec::new()
            } else {
                let first = win.wait_notify(ANY_SOURCE, 2).unwrap();
                let second = win.wait_notify(0, ANY_TAG).unwrap();
                let third = win.wait_notify(ANY_SOURCE, ANY_TAG).unwrap();
                assert_eq!(win.notify_pending(), 0);
                win.unlock_all().unwrap();
                ctx.barrier();
                vec![first.tag, second.tag, third.tag]
            }
        });
        assert_eq!(got[1], vec![2, 1, 3]);
    }

    #[test]
    fn test_notify_is_nonblocking_and_matches() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            win.lock_all().unwrap();
            if ctx.rank() == 0 {
                // Nothing queued yet: a probe for a never-sent tag is None.
                assert!(win.test_notify(ANY_SOURCE, 99).unwrap().is_none());
                win.put_notify(&[7u8; 8], 1, 0, 5).unwrap();
                win.unlock_all().unwrap();
                ctx.barrier();
                true
            } else {
                ctx.barrier(); // producer already unlocked ⇒ record queued
                let rec = win.test_notify(1, ANY_TAG).unwrap();
                assert!(rec.is_none(), "no notification from rank 1 expected");
                let rec = win.test_notify(0, 5).unwrap().expect("queued record");
                assert_eq!(rec.bytes, 8);
                win.unlock_all().unwrap();
                true
            }
        });
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn any_tag_is_rejected_for_sending() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 16, 1).unwrap();
            win.lock_all().unwrap();
            let e = win.put_notify(&[1u8; 4], (ctx.rank() + 1) % 2, 0, ANY_TAG).is_err();
            win.unlock_all().unwrap();
            ctx.barrier();
            e
        });
        assert!(got.iter().all(|&e| e));
    }

    #[test]
    fn notified_op_inside_fault_delayed_burst_stays_ordered_and_deterministic() {
        // Batching on + a delay/backpressure-heavy fault plan: each round
        // puts a payload (opening a burst) and then a notified put, whose
        // notification must trail the whole burst. Virtual clocks of both
        // ranks must be bit-identical across two runs, and every matched
        // record's stamp must be monotone (ordered class).
        let run = || {
            let plan = FaultPlan { delay_prob: 0.5, bp_prob: 0.3, ..FaultPlan::heavy(99) };
            Universe::new(2).node_size(1).seed(99).faults(plan).batch(true).run(|ctx| {
                // One 512 B zone per round: the producer runs ahead of the
                // consumer, so zones must never be reused within a run.
                let win = Win::allocate(ctx, 20 * 512, 1).unwrap();
                win.lock_all().unwrap();
                if ctx.rank() == 0 {
                    for round in 0..20u32 {
                        let base = round as usize * 512;
                        win.put(&[round as u8; 256], 1, base).unwrap();
                        win.put_notify(&round.to_le_bytes(), 1, base + 256, round).unwrap();
                    }
                    win.unlock_all().unwrap();
                    ctx.barrier();
                } else {
                    let mut last_stamp = 0.0f64;
                    for round in 0..20u32 {
                        let rec = win.wait_notify(0, round).unwrap();
                        assert!(rec.stamp >= last_stamp, "notification stamps went backwards");
                        last_stamp = rec.stamp;
                        let base = round as usize * 512;
                        let mut b = [0u8; 4];
                        win.read_local(base + 256, &mut b);
                        assert_eq!(u32::from_le_bytes(b), round);
                        // The burst data travelled with the notification.
                        let mut d = [0u8; 256];
                        win.read_local(base, &mut d);
                        assert!(d.iter().all(|&x| x == round as u8));
                    }
                    win.unlock_all().unwrap();
                    ctx.barrier();
                }
                ctx.now().to_bits()
            })
        };
        assert_eq!(run(), run(), "virtual clocks must not depend on the real schedule");
    }

    #[test]
    fn overflow_backpressures_and_surfaces_transient_error() {
        // A 2-record ring and a parked consumer: the third append stalls
        // (backpressure accounting) and, with nobody draining, surfaces a
        // transient error after the bounded retry.
        let got = Universe::new(2).node_size(1).notify_depth(2).run(|ctx| {
            let win = Win::allocate(ctx, 32, 1).unwrap();
            win.lock_all().unwrap();
            let r = if ctx.rank() == 0 {
                win.put_notify(&[1u8; 4], 1, 0, 1).unwrap();
                win.put_notify(&[2u8; 4], 1, 4, 2).unwrap();
                let before = ctx.now();
                let err = win.put_notify(&[3u8; 4], 1, 8, 3).unwrap_err();
                assert!(err.is_transient(), "ring overflow must be retryable: {err}");
                assert!(ctx.now() > before, "the stall must charge virtual time");
                let c = ctx.fabric().counters().snapshot();
                assert!(c.notify_overflows >= 1);
                assert_eq!(c.notify_posts, 2, "the failed append must not count as posted");
                true
            } else {
                true
            };
            win.unlock_all().unwrap();
            ctx.barrier();
            // Drain the two queued records: the overflow left them intact.
            if ctx.rank() == 1 {
                win.wait_notify(ANY_SOURCE, ANY_TAG).unwrap();
                win.wait_notify(ANY_SOURCE, ANY_TAG).unwrap();
            }
            ctx.barrier();
            r
        });
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn window_free_drops_unconsumed_notifications() {
        let drops = Universe::new(2).node_size(1).run(|ctx| {
            let win = Win::allocate(ctx, 64, 1).unwrap();
            win.lock_all().unwrap();
            if ctx.rank() == 0 {
                for tag in 1..=3u32 {
                    win.put_notify(&[9u8; 8], 1, tag as usize * 8, tag).unwrap();
                }
            }
            win.unlock_all().unwrap();
            ctx.barrier();
            if ctx.rank() == 1 {
                // Consume one (stashing tag 1), leave tag 1 + tag 3 behind.
                win.wait_notify(0, 2).unwrap();
                assert_eq!(win.notify_pending(), 2);
            }
            // The counters are fabric-global, so only one rank may bracket
            // the free — rank 0 drops nothing, making rank 1's delta exact.
            let before = ctx.fabric().counters().snapshot();
            win.free(ctx);
            ctx.fabric().counters().snapshot().since(&before).notify_dropped
        });
        // Rank 1 freed a window with tag-1 (stashed) and tag-3 (queued)
        // records outstanding.
        assert_eq!(drops[1], 2);
    }
}
