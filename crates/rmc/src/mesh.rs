//! All-to-all MPMC mesh: every rank is simultaneously a producer toward
//! every other rank and the consumer of its own fan-in.
//!
//! Why a single structure instead of `p` [`crate::fanin`] channels: the
//! notification *ring* is per rank but the unmatched-record *stash* is per
//! window, so two windows receiving concurrently on one rank would stash
//! each other's records where the other window's wait can never find
//! them. The mesh therefore lives on ONE symmetric window — every
//! record a rank ever polls belongs to this structure and stash-first
//! matching stays lossless.
//!
//! Window layout on every rank's copy (`p` ranks, one credit ring —
//! [`fompi::lane`]; DESIGN.md, "Remote-memory rings" — of `S` slots of
//! `B` bytes per ordered pair):
//!
//! ```text
//! | 8 B credit pad | ring 0: S×B | ring 1: S×B | ... | ring p-1 |
//! ```
//!
//! Ring `s` on rank `c`'s copy is where rank `s`'s messages to `c` land,
//! so the notification record's `source` field routes each record to its
//! ring — the FAA-free trick of the fan-in channel, now in both
//! directions at once. Credit AMOs land in the shared pad (same-op `Sum`
//! accumulates may overlap under the racecheck, per MPI-3.0 §11.7.1).
//!
//! Credits are returned **lazily**: [`Mesh::try_recv`] only records the
//! debt, and [`Mesh::flush_credits`] pays it. Batching the returns off
//! the receive path keeps the drain exactly as cheap as a raw
//! `test_notify` loop — the property the DSDE port's "RMC matches
//! notified access" claim rests on. Call `flush_credits` at phase
//! boundaries (after a drain, before the next send burst); a mesh used
//! for continuous streaming should call it every few receives.

use crate::{put_in_flow, RmcConfig};
use fompi::lane::{self, Geometry, RxLane, TxLane};
use fompi::{FompiError, Notification, Result, Win, ANY_SOURCE};
use fompi_fabric::telemetry::EventKind;
use fompi_runtime::RankCtx;

/// Tag of mesh data notifications.
pub const MESH_DATA_TAG: u32 = 0x00F2_00DA;

/// Tag of mesh credit notifications.
pub const MESH_CREDIT_TAG: u32 = 0x00F2_00CE;

/// One rank's end of the all-to-all mesh (see the module docs).
pub struct Mesh {
    win: Win,
    /// Per-target lane into *my* ring on the target's copy.
    tx: Vec<TxLane>,
    /// Per-source lane out of that source's ring on my copy.
    rx: Vec<RxLane>,
    /// Per-source credits consumed but not yet returned.
    owed: Vec<u64>,
}

/// Collectively build a mesh over the whole universe. Every rank gets an
/// end; geometry comes from `cfg` (`slots` per ordered pair, `slot_bytes`
/// payload capacity; zero capacity is a typed error, [`Geometry::new`]).
pub fn mesh(ctx: &RankCtx, cfg: &RmcConfig) -> Result<Mesh> {
    let geom = Geometry::new(cfg.slots, cfg.slot_bytes)?;
    let p = ctx.size() as u32;
    let win = lane::open(ctx, 8 + p as usize * geom.ring_bytes())?;
    let ring = |producer: u32| 8 + producer as usize * geom.ring_bytes();
    Ok(Mesh {
        tx: (0..p).map(|t| TxLane::new(t, ring(ctx.rank()), geom)).collect(),
        rx: (0..p).map(|s| RxLane::new(s, ring(s), geom)).collect(),
        owed: vec![0; p as usize],
        win,
    })
}

impl Mesh {
    /// Append `msg` to `target`'s copy of my ring (self-sends allowed —
    /// the record lands in my own ring). Blocks on the target's credit
    /// when my window of `slots` in-flight messages toward it is full.
    pub fn send(&mut self, target: u32, msg: &[u8]) -> Result<()> {
        let tx = &mut self.tx[target as usize];
        if tx.credits() == 0 && tx.poll_credits(&self.win, MESH_CREDIT_TAG)? == 0 {
            tx.wait_credit(&self.win, MESH_CREDIT_TAG)?;
        }
        let (t0, flow) = put_in_flow(&self.win, tx, msg, MESH_DATA_TAG)?;
        let ep = self.win.endpoint();
        ep.trace_flow_consume(EventKind::RmcSend, target, t0, flow, msg.len() as u64);
        Ok(())
    }

    fn consume(&mut self, rec: Notification, t0: f64, buf: &mut [u8]) -> Result<(u32, usize)> {
        let s = rec.source as usize;
        let rx = self
            .rx
            .get_mut(s)
            .ok_or(FompiError::InvalidEpoch("mesh data record from outside the universe"))?;
        // A refused (oversize) payload still frees its slot.
        let taken = rx.take(&self.win, &rec, buf);
        self.owed[s] += 1;
        let len = taken?;
        let ep = self.win.endpoint();
        ep.trace_flow_consume(EventKind::RmcRecv, rec.source, t0, rec.flow, rec.bytes);
        Ok((rec.source, len))
    }

    /// Nonblocking receive from any producer: `(source, len)` with the
    /// payload in `buf[..len]`, or `None` when nothing is queued — the
    /// drain-until-dry primitive. The consumed slot's credit is *owed*,
    /// not sent; see [`Mesh::flush_credits`].
    pub fn try_recv(&mut self, buf: &mut [u8]) -> Result<Option<(u32, usize)>> {
        let t0 = self.win.endpoint().clock().now();
        match self.win.test_notify(ANY_SOURCE, MESH_DATA_TAG)? {
            Some(rec) => self.consume(rec, t0, buf).map(Some),
            None => Ok(None),
        }
    }

    /// Blocking [`Mesh::try_recv`].
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<(u32, usize)> {
        let t0 = self.win.endpoint().clock().now();
        let rec = self.win.wait_notify(ANY_SOURCE, MESH_DATA_TAG)?;
        self.consume(rec, t0, buf)
    }

    /// Return every owed credit to its producer (one notified AMO per
    /// slot, so producers can count records). Senders blocked on a full
    /// pair window resume once these arrive.
    pub fn flush_credits(&mut self) -> Result<()> {
        for (rx, owed) in self.rx.iter().zip(&mut self.owed) {
            while *owed > 0 {
                rx.credit(&self.win, MESH_CREDIT_TAG)?;
                *owed -= 1;
            }
        }
        Ok(())
    }

    /// Data notifications queued for this rank and not yet matched.
    pub fn pending(&self) -> usize {
        self.win.notify_pending()
    }

    /// Tear down (collective across the universe). Unpaid credits are
    /// fine — the window dies with them.
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        lane::close(self.win, ctx)
    }
}

/// Loom model of the lazy batched credit return.
///
/// A mesh end is single-threaded per rank, so what loom checks is the
/// concurrent substrate [`Mesh::flush_credits`] leans on: the consumer's
/// batched burst of `MESH_CREDIT_TAG` records landing in the producer's
/// notification ring *while* the producer drains it from [`Mesh::send`]'s
/// blocked path. The property is credit conservation — across every
/// interleaving of the batched return and the drain, exactly `owed`
/// credits arrive, none lost, duplicated or torn, including when several
/// consumers pay one producer concurrently (the all-to-all case).
///
/// loom is NOT a dependency of this workspace: add it locally as a
/// dev-dependency (do not commit) and run
/// `RUSTFLAGS="--cfg loom" cargo test -p fompi-rmc --release loom_`.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::MESH_CREDIT_TAG;
    use fompi_fabric::{NotifyQueue, NotifyRecord};
    use loom::thread;
    use std::sync::Arc;

    /// The record `accumulate_notify` appends per returned credit.
    fn credit(consumer: u32) -> NotifyRecord {
        NotifyRecord {
            tag: MESH_CREDIT_TAG,
            source: consumer,
            bytes: 8,
            stamp: 1.0,
            flow: consumer as u64,
        }
    }

    /// One consumer flushes a batch of owed credits while the blocked
    /// producer drains its ring concurrently (the `send` credit-wait
    /// loop). Every interleaving must hand the producer exactly `owed`
    /// credits.
    #[test]
    fn loom_batched_return_conserves_credits() {
        const OWED: usize = 2;
        loom::model(|| {
            let ring = Arc::new(NotifyQueue::new(4));
            let consumer = {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    // flush_credits: one notified AMO per owed slot, back
                    // to back — the lazy batch, not one-per-recv.
                    for _ in 0..OWED {
                        assert!(ring.try_push(credit(1)), "sized ring refused a credit");
                    }
                })
            };
            // Producer side of the interleaving: bounded drain attempts
            // racing the batch (test_notify's nonblocking pops).
            let mut credits = 0usize;
            for _ in 0..OWED {
                if let Some(r) = ring.try_pop() {
                    assert_eq!(r.tag, MESH_CREDIT_TAG);
                    assert_eq!(r.source, 1);
                    credits += 1;
                }
            }
            consumer.join().unwrap();
            // Whatever the race left queued is still there afterward.
            while let Some(r) = ring.try_pop() {
                assert_eq!(r.tag, MESH_CREDIT_TAG);
                credits += 1;
            }
            assert_eq!(credits, OWED, "a credit was lost or duplicated");
        });
    }

    /// Two consumers pay the same producer concurrently — the MPMC case
    /// `flush_credits` creates in an all-to-all phase boundary. Per-source
    /// conservation must hold (the producer tracks credits per target).
    #[test]
    fn loom_concurrent_payers_conserve_per_source() {
        loom::model(|| {
            let ring = Arc::new(NotifyQueue::new(4));
            let payers: Vec<_> = [1u32, 2]
                .into_iter()
                .map(|c| {
                    let ring = Arc::clone(&ring);
                    thread::spawn(move || assert!(ring.try_push(credit(c))))
                })
                .collect();
            for p in payers {
                p.join().unwrap();
            }
            let mut per_source = [0usize; 3];
            while let Some(r) = ring.try_pop() {
                assert_eq!(r.tag, MESH_CREDIT_TAG);
                assert_eq!(r.flow, r.source as u64, "torn credit record");
                per_source[r.source as usize] += 1;
            }
            assert_eq!(per_source, [0, 1, 1], "per-source credit conservation");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn every_pair_exchanges_and_drains_dry() {
        // Each rank sends one tagged payload to every rank (itself
        // included — self-sends must work for periodic halos).
        let p = 4usize;
        let got = Universe::new(p).node_size(2).notify_depth(64).run(move |ctx| {
            let mut m =
                mesh(ctx, &RmcConfig { slots: 2, slot_bytes: 16, ..RmcConfig::default() }).unwrap();
            let me = ctx.rank();
            for t in 0..p as u32 {
                m.send(t, &(((me as u64) << 32) | t as u64).to_le_bytes()).unwrap();
            }
            ctx.barrier();
            let mut from = vec![false; p];
            let mut buf = [0u8; 16];
            while let Some((src, len)) = m.try_recv(&mut buf).unwrap() {
                assert_eq!(len, 8);
                let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
                assert_eq!(v, ((src as u64) << 32) | me as u64, "wrong payload routing");
                from[src as usize] = true;
            }
            m.flush_credits().unwrap();
            ctx.barrier();
            m.close(ctx).unwrap();
            from.iter().all(|&b| b)
        });
        assert!(got.iter().all(|&b| b), "some pair lost its message: {got:?}");
    }

    #[test]
    fn credits_recycle_across_rounds() {
        // More rounds than slots: round N+1's sends need round N's
        // flushed credits, exercising the lazy return path end to end.
        let (p, rounds, slots) = (3usize, 6u64, 2usize);
        let got = Universe::new(p).node_size(1).notify_depth(128).run(move |ctx| {
            let mut m =
                mesh(ctx, &RmcConfig { slots, slot_bytes: 16, ..RmcConfig::default() }).unwrap();
            let me = ctx.rank();
            let mut seen = 0u64;
            for r in 0..rounds {
                for t in 0..p as u32 {
                    if t != me {
                        m.send(t, &((r << 8) | t as u64).to_le_bytes()).unwrap();
                    }
                }
                ctx.barrier();
                let mut buf = [0u8; 16];
                while let Some((_, len)) = m.try_recv(&mut buf).unwrap() {
                    let v = u64::from_le_bytes(buf[..len].try_into().unwrap());
                    assert_eq!(v, (r << 8) | me as u64);
                    seen += 1;
                }
                m.flush_credits().unwrap();
                ctx.barrier();
            }
            m.close(ctx).unwrap();
            seen
        });
        assert!(got.iter().all(|&s| s == rounds * (p as u64 - 1)), "{got:?}");
    }

    #[test]
    fn racecheck_stays_clean_under_concurrent_credit_amos() {
        // Every rank floods every other rank; all credit AMOs land in the
        // same shared pad byte-range concurrently. Same-op accumulate
        // overlap is legal — the shadow must not fire.
        let p = 3usize;
        let rc = fompi_fabric::RacecheckMode::Panic;
        Universe::new(p).node_size(1).notify_depth(256).racecheck(rc).run(move |ctx| {
            let mut m =
                mesh(ctx, &RmcConfig { slots: 4, slot_bytes: 8, ..RmcConfig::default() }).unwrap();
            for r in 0..8u64 {
                for t in 0..p as u32 {
                    if t != ctx.rank() {
                        m.send(t, &r.to_le_bytes()).unwrap();
                    }
                }
                ctx.barrier();
                let mut buf = [0u8; 8];
                while m.try_recv(&mut buf).unwrap().is_some() {}
                m.flush_credits().unwrap();
                ctx.barrier();
            }
            m.close(ctx).unwrap();
        });
    }
}
