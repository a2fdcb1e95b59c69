//! Fan-out channel: one publisher multicasting to a subscriber set.
//!
//! Every subscriber's window copy holds its own credit ring
//! ([`fompi::lane`]; DESIGN.md, "Remote-memory rings") at offset 0; the
//! publisher keeps one producer lane per subscriber, so a publication is
//! one notified put per subscriber — the injections serialise on the
//! publisher's CPU while the wire latencies overlap (the
//! `rmc_fanout_publish` model twin).
//!
//! When a subscriber runs out of credits the [`LaggingPolicy`] decides:
//! `Block` waits for its credit (lossless — the slowest subscriber paces
//! the fan-out), `Drop` skips it and counts the drop (lossy — fast
//! subscribers never wait; the subscriber's own cursor stays consistent
//! because its head simply doesn't advance).

use crate::{check_spokes, LaggingPolicy};
use fompi::lane::{self, Geometry, RxLane, TxLane};
use fompi::{Result, Win};
use fompi_fabric::telemetry::{EventKind, NO_TARGET};
use fompi_runtime::RankCtx;

/// Tag carried by fan-out data notifications (publisher → subscriber).
pub const FANOUT_DATA_TAG: u32 = 0x00F0_00DA;

/// Tag carried by fan-out credit notifications (subscriber → publisher).
pub const FANOUT_CREDIT_TAG: u32 = 0x00F0_00CE;

/// Publishing half of a fan-out channel.
pub struct Publisher {
    win: Win,
    lagging: LaggingPolicy,
    /// One lane per subscriber, in the order the subscribers were listed.
    tx: Vec<TxLane>,
    /// Per-subscriber messages dropped under [`LaggingPolicy::Drop`].
    dropped: Vec<u64>,
}

/// Subscribing half of a fan-out channel.
pub struct Subscriber {
    win: Win,
    rx: RxLane,
}

/// What [`fanout`] hands each participating rank.
pub enum FanoutEnd {
    /// This rank is the publisher.
    Publisher(Publisher),
    /// This rank is one of the subscribers.
    Subscriber(Subscriber),
}

/// Collectively build a fan-out channel from `publisher` to
/// `subscribers`, each subscriber ring `slots` cells of `slot_bytes`.
/// Every rank of the universe must call; ranks that are neither publisher
/// nor subscriber get `None`. Subscribers must be distinct and must not
/// include the publisher; a zero-capacity ring is a typed error on every
/// rank ([`Geometry::new`]). Each subscriber's ring lives in its own
/// window copy. All ends hold a `lock_all` passive epoch for the channel's
/// lifetime — drop via the ends' `close`.
pub fn fanout(
    ctx: &RankCtx,
    publisher: u32,
    subscribers: &[u32],
    slots: usize,
    slot_bytes: usize,
    lagging: LaggingPolicy,
) -> Result<Option<FanoutEnd>> {
    let geom = Geometry::new(slots, slot_bytes)?;
    check_spokes(publisher, subscribers, "fan-out subscriber");
    let win = lane::open(ctx, geom.ring_bytes())?;
    let me = ctx.rank();
    if me == publisher {
        let tx = subscribers.iter().map(|&s| TxLane::new(s, 0, geom)).collect();
        let dropped = vec![0; subscribers.len()];
        Ok(Some(FanoutEnd::Publisher(Publisher { win, lagging, tx, dropped })))
    } else if subscribers.contains(&me) {
        Ok(Some(FanoutEnd::Subscriber(Subscriber { win, rx: RxLane::new(publisher, 0, geom) })))
    } else {
        lane::close(win, ctx)?;
        Ok(None)
    }
}

impl Publisher {
    /// Publish `msg` (at most `slot_bytes`) to every subscriber, applying
    /// the lagging policy per subscriber. Returns how many subscribers
    /// received the message (all of them under [`LaggingPolicy::Block`]).
    /// One causal flow covers the whole multicast, so the trace fans
    /// arrows from this `rmc_send` span into every subscriber's wait.
    pub fn publish(&mut self, msg: &[u8]) -> Result<usize> {
        let t0 = self.win.endpoint().clock().now();
        let prev = self.win.endpoint().flow_open();
        let r = self.publish_inner(msg);
        let ep = self.win.endpoint();
        let flow = ep.current_flow();
        ep.flow_close(prev);
        let delivered = r?;
        let bytes = (delivered * msg.len()) as u64;
        ep.trace_flow_consume(EventKind::RmcSend, NO_TARGET, t0, flow, bytes);
        Ok(delivered)
    }

    fn publish_inner(&mut self, msg: &[u8]) -> Result<usize> {
        let mut delivered = 0;
        for (tx, dropped) in self.tx.iter_mut().zip(&mut self.dropped) {
            // Absorb any credits already queued before deciding the
            // subscriber is lagging.
            if tx.credits() == 0 && tx.poll_credits(&self.win, FANOUT_CREDIT_TAG)? == 0 {
                match self.lagging {
                    LaggingPolicy::Block => tx.wait_credit(&self.win, FANOUT_CREDIT_TAG)?,
                    LaggingPolicy::Drop => {
                        *dropped += 1;
                        continue;
                    }
                }
            }
            tx.put(&self.win, msg, FANOUT_DATA_TAG)?;
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Messages dropped per subscriber (same order as the subscriber
    /// list) under [`LaggingPolicy::Drop`].
    pub fn dropped(&self) -> &[u64] {
        &self.dropped
    }

    /// Total drops across the subscriber set.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Tear down this end (collective with every other end's `close`).
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        lane::close(self.win, ctx)
    }
}

impl Subscriber {
    /// Receive the next publication into `buf`, returning the payload
    /// length. Blocks on the publisher's data notification; the slot is
    /// owed to the publisher, and half a ring of owed slots goes back as
    /// one credit notification.
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<usize> {
        let ep = self.win.endpoint();
        let t0 = ep.clock().now();
        let rec = self.win.wait_notify(self.rx.peer(), FANOUT_DATA_TAG)?;
        let len = self.rx.take_and_credit(&self.win, &rec, buf, FANOUT_CREDIT_TAG)?;
        ep.trace_flow_consume(EventKind::RmcRecv, rec.source, t0, rec.flow, rec.bytes);
        Ok(len)
    }

    /// Notification records queued for this rank and not yet matched
    /// (approximate under a concurrent publisher; counts every queued
    /// record of this rank, so only `0` is exact).
    pub fn pending(&self) -> usize {
        self.win.notify_pending()
    }

    /// Tear down this end (collective with every other end's `close`).
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        lane::close(self.win, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn blocking_fanout_is_lossless_and_ordered() {
        const MSGS: u64 = 20;
        let got = Universe::new(4).node_size(1).run(|ctx| {
            let end = fanout(ctx, 0, &[1, 2, 3], 2, 8, LaggingPolicy::Block).unwrap().unwrap();
            match end {
                FanoutEnd::Publisher(mut px) => {
                    for i in 0..MSGS {
                        let n = px.publish(&i.to_le_bytes()).unwrap();
                        assert_eq!(n, 3, "block policy delivers to every subscriber");
                    }
                    assert_eq!(px.dropped_total(), 0);
                    px.close(ctx).unwrap();
                    MSGS
                }
                FanoutEnd::Subscriber(mut sx) => {
                    let mut buf = [0u8; 8];
                    let mut ok = 0u64;
                    for i in 0..MSGS {
                        sx.recv(&mut buf).unwrap();
                        if u64::from_le_bytes(buf) == i {
                            ok += 1;
                        }
                    }
                    sx.close(ctx).unwrap();
                    ok
                }
            }
        });
        assert_eq!(got, vec![MSGS; 4]);
    }

    #[test]
    fn drop_policy_counts_lagging_subscribers() {
        // Both subscribers park until the publisher is done: with 2-slot
        // rings, every publication past the second must drop, and each
        // subscriber is left with a clean *prefix* — drops happen at the
        // publisher, so nothing is torn or reordered.
        const MSGS: u64 = 10;
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let end = fanout(ctx, 0, &[1, 2], 2, 8, LaggingPolicy::Drop).unwrap().unwrap();
            match end {
                FanoutEnd::Publisher(mut px) => {
                    let mut delivered = 0;
                    for i in 0..MSGS {
                        delivered += px.publish(&i.to_le_bytes()).unwrap() as u64;
                    }
                    assert_eq!(delivered, 4, "2 slots per parked subscriber");
                    assert_eq!(px.dropped(), &[MSGS - 2, MSGS - 2]);
                    assert_eq!(px.dropped_total(), 2 * (MSGS - 2));
                    ctx.barrier(); // the laggards may drain now
                    let total = px.dropped_total();
                    px.close(ctx).unwrap();
                    total
                }
                FanoutEnd::Subscriber(mut sx) => {
                    ctx.barrier(); // park until the publisher is done
                    let mut buf = [0u8; 8];
                    let mut seq = Vec::new();
                    for _ in 0..2 {
                        sx.recv(&mut buf).unwrap();
                        seq.push(u64::from_le_bytes(buf));
                    }
                    assert_eq!(seq, vec![0, 1], "drops keep a clean prefix");
                    assert_eq!(sx.pending(), 0, "dropped messages never arrive");
                    sx.close(ctx).unwrap();
                    2
                }
            }
        });
        assert_eq!(got[1], 2);
        assert_eq!(got[2], 2);
    }

    #[test]
    fn third_party_ranks_pass_through() {
        let got = Universe::new(4).node_size(2).run(|ctx| {
            match fanout(ctx, 1, &[3], 2, 16, LaggingPolicy::Block).unwrap() {
                Some(FanoutEnd::Publisher(mut px)) => {
                    px.publish(b"cast").unwrap();
                    px.close(ctx).unwrap();
                    1u8
                }
                Some(FanoutEnd::Subscriber(mut sx)) => {
                    let mut b = [0u8; 16];
                    let n = sx.recv(&mut b).unwrap();
                    assert_eq!(&b[..n], b"cast");
                    sx.close(ctx).unwrap();
                    2u8
                }
                None => 0u8,
            }
        });
        assert_eq!(got, vec![0, 1, 0, 2]);
    }
}
