//! MPMC fan-in channel: N producers, one consumer, FAA-free data path.
//!
//! The consumer's window copy holds one private credit ring
//! ([`fompi::lane`]; DESIGN.md, "Remote-memory rings") per producer:
//!
//! ```text
//! | producer 0: slot 0..slots | producer 1: slot 0..slots | ...
//! ```
//!
//! Each producer appends into its own ring, so no shared cursor exists and
//! nothing is fetch-and-added on the data path — the notification record's
//! `source` field tells the consumer whose ring a message landed in,
//! exactly like the notified DSDE port. Backpressure is per-producer: a
//! producer out of credits blocks in [`FaninProducer::send`] for exactly
//! one credit record from the consumer.
//!
//! The consumer drains until dry: [`FaninConsumer::try_recv`] is one
//! nonblocking matching pass, so `while let Some(..) = q.try_recv(..)?`
//! consumes exactly the messages whose notifications have arrived.

use crate::{check_spokes, put_in_flow};
use fompi::lane::{self, Geometry, RxLane, TxLane};
use fompi::{FompiError, Notification, Result, Win, ANY_SOURCE};
use fompi_fabric::telemetry::EventKind;
use fompi_runtime::RankCtx;

/// Tag carried by fan-in data notifications (producer → consumer).
pub const FANIN_DATA_TAG: u32 = 0x00F1_00DA;

/// Tag carried by fan-in credit notifications (consumer → producer).
pub const FANIN_CREDIT_TAG: u32 = 0x00F1_00CE;

/// Producer half of a fan-in channel.
pub struct FaninProducer {
    win: Win,
    tx: TxLane,
}

/// Consumer half of a fan-in channel.
pub struct FaninConsumer {
    win: Win,
    /// One ring per producer, in the order the producers were listed.
    rx: Vec<RxLane>,
}

/// What [`fanin`] hands each participating rank.
pub enum FaninEnd {
    /// This rank is one of the producers.
    Producer(FaninProducer),
    /// This rank is the consumer.
    Consumer(FaninConsumer),
}

/// Collectively build a fan-in channel from `producers` to `consumer`
/// with `slots` ring cells of `slot_bytes` each per producer. Every rank
/// of the universe must call (window creation is collective); ranks that
/// are neither producer nor consumer get `None`. Producers must be
/// distinct and must not include the consumer; a zero-capacity ring is a
/// typed error on every rank ([`Geometry::new`]). The rings live in the
/// consumer's window copy. All ends hold a `lock_all` passive epoch for
/// the channel's lifetime — drop via the ends' `close`.
pub fn fanin(
    ctx: &RankCtx,
    consumer: u32,
    producers: &[u32],
    slots: usize,
    slot_bytes: usize,
) -> Result<Option<FaninEnd>> {
    let geom = Geometry::new(slots, slot_bytes)?;
    check_spokes(consumer, producers, "fan-in producer");
    let win = lane::open(ctx, producers.len() * geom.ring_bytes())?;
    let me = ctx.rank();
    if me == consumer {
        let ring = |(i, &p)| RxLane::new(p, i * geom.ring_bytes(), geom);
        let rx = producers.iter().enumerate().map(ring).collect();
        Ok(Some(FaninEnd::Consumer(FaninConsumer { win, rx })))
    } else if let Some(i) = producers.iter().position(|&p| p == me) {
        let tx = TxLane::new(consumer, i * geom.ring_bytes(), geom);
        Ok(Some(FaninEnd::Producer(FaninProducer { win, tx })))
    } else {
        lane::close(win, ctx)?;
        Ok(None)
    }
}

impl FaninProducer {
    /// Append `msg` (at most `slot_bytes`) to this producer's ring.
    /// Blocks on the consumer's credit notifications when the ring is
    /// full. The send span (`rmc_send`) shares its flow id with the
    /// notified put, so the trace draws an arrow into the consumer's
    /// matching wait.
    pub fn send(&mut self, msg: &[u8]) -> Result<()> {
        let t0 = self.win.endpoint().clock().now();
        if self.tx.credits() == 0 {
            self.tx.wait_credit(&self.win, FANIN_CREDIT_TAG)?;
        }
        let (_, flow) = put_in_flow(&self.win, &mut self.tx, msg, FANIN_DATA_TAG)?;
        let (ep, to) = (self.win.endpoint(), self.tx.peer());
        ep.trace_flow_consume(EventKind::RmcSend, to, t0, flow, msg.len() as u64);
        Ok(())
    }

    /// Credits currently in hand (free slots known to this side).
    pub fn credits(&self) -> u64 {
        self.tx.credits()
    }

    /// Absorb any credit notifications that already arrived (nonblocking).
    pub fn poll_credits(&mut self) -> Result<u64> {
        self.tx.poll_credits(&self.win, FANIN_CREDIT_TAG)
    }

    /// Tear down this end (collective with every other end's `close`).
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        lane::close(self.win, ctx)
    }
}

impl FaninConsumer {
    /// Receive the next message from any producer into `buf`; returns the
    /// producing rank and payload length. Blocks until a data
    /// notification arrives. The slot is owed to the producing rank, and
    /// half a ring of owed slots goes back as one credit notification.
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<(u32, usize)> {
        let t0 = self.win.endpoint().clock().now();
        let rec = self.win.wait_notify(ANY_SOURCE, FANIN_DATA_TAG)?;
        self.consume(&rec, buf, t0)
    }

    /// One nonblocking matching pass — the drain-until-dry primitive:
    /// `None` once every arrived message has been consumed.
    pub fn try_recv(&mut self, buf: &mut [u8]) -> Result<Option<(u32, usize)>> {
        let t0 = self.win.endpoint().clock().now();
        match self.win.test_notify(ANY_SOURCE, FANIN_DATA_TAG)? {
            Some(rec) => self.consume(&rec, buf, t0).map(Some),
            None => Ok(None),
        }
    }

    fn consume(&mut self, rec: &Notification, buf: &mut [u8], t0: f64) -> Result<(u32, usize)> {
        let rx = self
            .rx
            .iter_mut()
            .find(|rx| rx.peer() == rec.source)
            .ok_or(FompiError::InvalidEpoch("fan-in data record from a non-producer rank"))?;
        let len = rx.take_and_credit(&self.win, rec, buf, FANIN_CREDIT_TAG)?;
        let ep = self.win.endpoint();
        ep.trace_flow_consume(EventKind::RmcRecv, rec.source, t0, rec.flow, rec.bytes);
        Ok((rec.source, len))
    }

    /// Data notifications queued and not yet consumed (approximate under
    /// concurrent producers; counts every queued record of this rank).
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
    fn many_producers_drain_until_dry() {
        const MSGS: u64 = 12;
        let p = 5usize;
        let got = Universe::new(p).node_size(1).notify_depth(256).run(move |ctx| {
            let producers: Vec<u32> = (1..p as u32).collect();
            let end = fanin(ctx, 0, &producers, 4, 16).unwrap().unwrap();
            match end {
                FaninEnd::Producer(mut tx) => {
                    for i in 0..MSGS {
                        let word = (u64::from(ctx.rank()) << 32) | i;
                        tx.send(&word.to_le_bytes()).unwrap();
                    }
                    tx.close(ctx).unwrap();
                    Vec::new()
                }
                FaninEnd::Consumer(mut rx) => {
                    let mut per_src = vec![0u64; p];
                    let mut buf = [0u8; 16];
                    let mut seen = 0;
                    while seen < MSGS * (p as u64 - 1) {
                        // Drain-until-dry, then block for the next batch.
                        while let Some((src, len)) = rx.try_recv(&mut buf).unwrap() {
                            assert_eq!(len, 8);
                            let word = u64::from_le_bytes(buf[..8].try_into().unwrap());
                            assert_eq!(word >> 32, u64::from(src), "payload names its producer");
                            // FIFO per producer: low word counts up.
                            assert_eq!(word & 0xFFFF_FFFF, per_src[src as usize]);
                            per_src[src as usize] += 1;
                            seen += 1;
                        }
                        if seen < MSGS * (p as u64 - 1) {
                            let (src, len) = rx.recv(&mut buf).unwrap();
                            assert_eq!(len, 8);
                            let word = u64::from_le_bytes(buf[..8].try_into().unwrap());
                            assert_eq!(word >> 32, u64::from(src));
                            assert_eq!(word & 0xFFFF_FFFF, per_src[src as usize]);
                            per_src[src as usize] += 1;
                            seen += 1;
                        }
                    }
                    assert_eq!(rx.pending(), 0, "dry means dry");
                    rx.close(ctx).unwrap();
                    per_src
                }
            }
        });
        assert_eq!(got[0][1..], vec![MSGS; p - 1]);
    }

    #[test]
    fn credits_bound_each_producer_independently() {
        // Two producers, a 2-slot ring each, far more messages than slots:
        // every send spends a credit and nothing interleaves across
        // regions.
        const MSGS: u64 = 40;
        let got = Universe::new(3).node_size(1).run(|ctx| {
            let end = fanin(ctx, 2, &[0, 1], 2, 8).unwrap().unwrap();
            match end {
                FaninEnd::Producer(mut tx) => {
                    for i in 0..MSGS {
                        tx.send(&i.to_le_bytes()).unwrap();
                        assert!(tx.credits() < 2, "a send always spends a credit");
                    }
                    tx.close(ctx).unwrap();
                    0
                }
                FaninEnd::Consumer(mut rx) => {
                    let mut next = [0u64; 2];
                    let mut buf = [0u8; 8];
                    for _ in 0..2 * MSGS {
                        let (src, _) = rx.recv(&mut buf).unwrap();
                        let v = u64::from_le_bytes(buf);
                        assert_eq!(v, next[src as usize], "per-producer FIFO");
                        next[src as usize] += 1;
                    }
                    rx.close(ctx).unwrap();
                    next.iter().sum::<u64>()
                }
            }
        });
        assert_eq!(got[2], 2 * MSGS);
    }

    #[test]
    fn third_party_ranks_pass_through() {
        let got =
            Universe::new(4).node_size(2).run(|ctx| match fanin(ctx, 3, &[1], 2, 16).unwrap() {
                Some(FaninEnd::Producer(mut tx)) => {
                    tx.send(b"ping").unwrap();
                    tx.close(ctx).unwrap();
                    1u8
                }
                Some(FaninEnd::Consumer(mut rx)) => {
                    let mut b = [0u8; 16];
                    let (src, n) = rx.recv(&mut b).unwrap();
                    assert_eq!((src, &b[..n]), (1, &b"ping"[..]));
                    rx.close(ctx).unwrap();
                    2u8
                }
                None => 0u8,
            });
        assert_eq!(got, vec![0, 1, 0, 2]);
    }

    #[test]
    fn duplicate_or_self_producers_are_rejected() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = fanin(ctx, 0, &[1, 1], 2, 8);
            }))
            .is_err();
            ctx.barrier();
            let selfp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = fanin(ctx, 0, &[0, 1], 2, 8);
            }))
            .is_err();
            ctx.barrier();
            dup && selfp
        });
        assert!(got.iter().all(|&b| b));
    }
}
