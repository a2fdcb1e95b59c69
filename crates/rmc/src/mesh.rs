//! All-to-all MPMC mesh: every rank is simultaneously a producer toward
//! every other rank and the consumer of its own fan-in.
//!
//! Why a single structure instead of `p` [`crate::fanin()`] channels: the
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
//! | ring 0: S×B | ring 1: S×B | ... | ring p-1 |
//! ```
//!
//! Ring `s` on rank `c`'s copy is where rank `s`'s messages to `c` land,
//! so the notification record's `source` field routes each record to its
//! ring — the FAA-free trick of the fan-in channel, now in both
//! directions at once.
//!
//! Credits are returned **lazily**: [`Mesh::try_recv`] only lets the
//! source's lane record the debt, and [`Mesh::flush_credits`] pays each
//! source's whole debt as one count-carrying record. Keeping the returns
//! off the receive path keeps the drain exactly as cheap as a raw
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
    /// Per-source lane out of that source's ring on my copy; it holds the
    /// credits owed to that source.
    rx: Vec<RxLane>,
}

/// Collectively build a mesh over the whole universe. Every rank gets an
/// end; geometry comes from `cfg` (`slots` per ordered pair, `slot_bytes`
/// payload capacity; zero capacity is a typed error, [`Geometry::new`]).
pub fn mesh(ctx: &RankCtx, cfg: &RmcConfig) -> Result<Mesh> {
    let geom = Geometry::new(cfg.slots, cfg.slot_bytes)?;
    let p = ctx.size() as u32;
    let win = lane::open(ctx, p as usize * geom.ring_bytes())?;
    let ring = |producer: u32| producer as usize * geom.ring_bytes();
    Ok(Mesh {
        tx: (0..p).map(|t| TxLane::new(t, ring(ctx.rank()), geom)).collect(),
        rx: (0..p).map(|s| RxLane::new(s, ring(s), geom)).collect(),
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
        let rx = self
            .rx
            .get_mut(rec.source as usize)
            .ok_or(FompiError::InvalidEpoch("mesh data record from outside the universe"))?;
        let len = rx.take(&self.win, &rec, buf)?;
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

    /// Return every owed credit to its producer: one record per source
    /// that is owed anything, carrying the count. Senders blocked on a
    /// full pair window resume once these arrive.
    pub fn flush_credits(&mut self) -> Result<()> {
        for rx in &mut self.rx {
            rx.flush_credits(&self.win, MESH_CREDIT_TAG)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn every_pair_exchanges_and_drains_dry() {
        // Each rank sends one tagged payload to every rank (itself
        // included — self-sends must work for periodic halos); at p = 1
        // every message is a self-send.
        for (p, node_size) in [(4usize, 2usize), (1, 1)] {
            let got = Universe::new(p).node_size(node_size).notify_depth(64).run(move |ctx| {
                let cfg = RmcConfig { slots: 2, slot_bytes: 16, ..RmcConfig::default() };
                let mut m = mesh(ctx, &cfg).unwrap();
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
            assert!(got.iter().all(|&b| b), "p = {p}: some pair lost its message: {got:?}");
        }
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
    fn racecheck_stays_clean_under_concurrent_credit_returns() {
        // Every rank floods every other rank and pays its credits while
        // the others do: every slot is rewritten a lap after its credit
        // came back, and the shadow must not fire.
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
