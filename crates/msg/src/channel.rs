//! One-sided producer-consumer channels over notified access.
//!
//! The classic RMA producer-consumer pattern needs *two* mechanisms: the
//! data put, and a separately-synchronised flag the consumer polls (plus a
//! reverse flag so the producer knows a slot is free again). Notified
//! access collapses both directions into single calls: the producer's
//! [`Sender::send`] is one `put_notify` (data + arrival notification,
//! ordered), and the consumer's [`Receiver::recv`] returns the slots it
//! freed in bulk, one data-less notification per half ring whose record
//! carries the count. No two-sided message, no tag-matching engine, no
//! polling AMOs over the wire.
//!
//! The channel is SPSC (one producer rank, one consumer rank), the
//! degenerate but dominant case of the paper's halo/pipeline patterns:
//! one credit ring ([`fompi::lane`]; DESIGN.md, "Remote-memory rings") at
//! offset 0 of the consumer's window copy. A producer out of credits
//! blocks in [`Sender::send`] for exactly one credit notification
//! ([`CREDIT_TAG`]). Both endpoints are built collectively by [`channel`]
//! over one window.

use fompi::lane::{self, Geometry, RxLane, TxLane};
use fompi::{FompiError, Result, Win};
use fompi_runtime::RankCtx;

/// Tag carried by data notifications (producer → consumer).
pub const DATA_TAG: u32 = 0x00C4_07DA;

/// Tag carried by credit-return notifications (consumer → producer).
pub const CREDIT_TAG: u32 = 0x00C4_07CE;

/// Producer half of a notified-access channel.
pub struct Sender {
    win: Win,
    tx: TxLane,
}

/// Consumer half of a notified-access channel.
pub struct Receiver {
    win: Win,
    rx: RxLane,
}

/// Collectively build an SPSC channel from `producer` to `consumer` with
/// `slots` ring cells of `slot_bytes` each. Every rank of the universe
/// must call (window creation is collective); ranks other than the two
/// endpoints get `None`. The ring memory lives in the consumer's window;
/// both endpoints hold a `lock_all` passive epoch for the channel's
/// lifetime — drop via [`Sender::close`] / [`Receiver::close`].
///
/// A zero-capacity configuration (`slots == 0` or `slot_bytes == 0`) is
/// rejected with a typed error rather than a panic ([`Geometry::new`]).
pub fn channel(
    ctx: &RankCtx,
    producer: u32,
    consumer: u32,
    slots: usize,
    slot_bytes: usize,
) -> Result<Option<ChannelEnd>> {
    let geom = Geometry::new(slots, slot_bytes)?;
    assert_ne!(producer, consumer, "SPSC channel endpoints must differ");
    // Symmetric-heap window: every rank exposes the same size, and only
    // the consumer's copy holds ring data.
    let win = lane::open(ctx, geom.ring_bytes())?;
    if ctx.rank() == producer {
        Ok(Some(ChannelEnd::Sender(Sender { win, tx: TxLane::new(consumer, 0, geom) })))
    } else if ctx.rank() == consumer {
        Ok(Some(ChannelEnd::Receiver(Receiver { win, rx: RxLane::new(producer, 0, geom) })))
    } else {
        lane::close(win, ctx)?;
        Ok(None)
    }
}

/// What [`channel`] hands each participating rank.
pub enum ChannelEnd {
    /// This rank is the producer.
    Sender(Sender),
    /// This rank is the consumer.
    Receiver(Receiver),
}

impl Sender {
    /// Send `msg` (at most `slot_bytes`). Blocks on credit notifications
    /// when the ring is full — backpressure is the consumer's pace, felt
    /// through returned credits, not through ring overflow.
    pub fn send(&mut self, msg: &[u8]) -> Result<()> {
        if self.tx.credits() == 0 {
            self.tx.wait_credit(&self.win, CREDIT_TAG)?;
        }
        self.tx.put(&self.win, msg, DATA_TAG)
    }

    /// Credits currently in hand (free slots known to this side).
    pub fn credits(&self) -> u64 {
        self.tx.credits()
    }

    /// Absorb any credit notifications that already arrived (nonblocking).
    pub fn poll_credits(&mut self) -> Result<u64> {
        self.tx.poll_credits(&self.win, CREDIT_TAG)
    }

    /// Tear down this half (collective with [`Receiver::close`]).
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        lane::close(self.win, ctx)
    }
}

impl Receiver {
    /// Receive the next message into `buf`, returning the payload length.
    /// Blocks on the producer's data notification. The slot is owed to
    /// the producer after the copy — also when `buf` is too short, which
    /// loses the message (a typed error) — and half a ring of owed slots
    /// goes back as one credit notification.
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<usize> {
        let rec = self.win.wait_notify(self.rx.peer(), DATA_TAG)?;
        self.rx.take_and_credit(&self.win, &rec, buf, CREDIT_TAG)
    }

    /// Notification records queued for this rank and not yet matched.
    /// Approximate under a concurrent producer, and it counts *every*
    /// queued record of this rank — credits and other windows' records
    /// parked in the shared ring included — so only `0` is exact.
    pub fn pending(&self) -> usize {
        self.win.notify_pending()
    }

    /// Tear down this half (collective with [`Sender::close`]).
    ///
    /// Closing with undelivered data still in the ring is a typed error:
    /// the undrained messages vanish with the window. Drain with
    /// [`Receiver::recv`] until the producer's count is met (the two
    /// sides must agree on it out of band or via a barrier) before
    /// closing. The teardown itself still runs — `Win::free` is
    /// collective, so refusing here would deadlock the producer's close —
    /// but the loss is reported instead of silent. The sender side
    /// carries no such check: unabsorbed *credit* notifications at the
    /// producer are benign, they only mean the producer never needed the
    /// freed slots.
    pub fn close(self, ctx: &RankCtx) -> Result<()> {
        let undrained = self.pending();
        lane::close(self.win, ctx)?;
        if undrained != 0 {
            return Err(FompiError::InvalidEpoch(
                "receiver closed with undrained messages in the ring",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_runtime::Universe;

    #[test]
    fn round_trip_preserves_order_and_bytes() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let end = channel(ctx, 0, 1, 4, 64).unwrap().unwrap();
            match end {
                ChannelEnd::Sender(mut tx) => {
                    for i in 0..10u8 {
                        let msg = vec![i; (i as usize % 64) + 1];
                        tx.send(&msg).unwrap();
                    }
                    tx.close(ctx).unwrap();
                    Vec::new()
                }
                ChannelEnd::Receiver(mut rx) => {
                    let mut sums = Vec::new();
                    let mut buf = [0u8; 64];
                    for i in 0..10u8 {
                        let n = rx.recv(&mut buf).unwrap();
                        assert_eq!(n, (i as usize % 64) + 1);
                        assert!(buf[..n].iter().all(|&b| b == i));
                        sums.push(n);
                    }
                    rx.close(ctx).unwrap();
                    sums
                }
            }
        });
        assert_eq!(got[1], (0..10).map(|i| (i % 64) + 1).collect::<Vec<_>>());
    }

    #[test]
    fn credit_flow_bounds_the_producer() {
        // Many more messages than slots: the producer must block on
        // credits rather than overrun the 2-slot ring, and every payload
        // must still arrive intact and in order.
        const MSGS: u64 = 50;
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let end = channel(ctx, 0, 1, 2, 8).unwrap().unwrap();
            match end {
                ChannelEnd::Sender(mut tx) => {
                    for i in 0..MSGS {
                        tx.send(&i.to_le_bytes()).unwrap();
                        assert!(tx.credits() < 2, "a send always spends a credit");
                    }
                    tx.close(ctx).unwrap();
                    0
                }
                ChannelEnd::Receiver(mut rx) => {
                    let mut ok = 0u64;
                    let mut buf = [0u8; 8];
                    for i in 0..MSGS {
                        rx.recv(&mut buf).unwrap();
                        if u64::from_le_bytes(buf) == i {
                            ok += 1;
                        }
                    }
                    rx.close(ctx).unwrap();
                    ok
                }
            }
        });
        assert_eq!(got[1], MSGS);
    }

    #[test]
    fn receiver_close_before_drain_is_a_typed_error() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let end = channel(ctx, 0, 1, 4, 8).unwrap().unwrap();
            match end {
                ChannelEnd::Sender(mut tx) => {
                    tx.send(b"payload!").unwrap();
                    ctx.barrier(); // message is in the ring before the close attempt
                    ctx.barrier();
                    tx.close(ctx).unwrap();
                    0
                }
                ChannelEnd::Receiver(rx) => {
                    ctx.barrier();
                    // The ring still holds the undelivered message: the
                    // close must refuse rather than drop it on the floor.
                    assert_eq!(rx.pending(), 1);
                    let err = rx.close(ctx).unwrap_err();
                    assert!(
                        matches!(err, FompiError::InvalidEpoch(m) if m.contains("undrained")),
                        "expected an undrained-close error, got {err:?}"
                    );
                    ctx.barrier();
                    1
                }
            }
        });
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn third_party_ranks_pass_through() {
        let got = Universe::new(4).node_size(2).run(|ctx| {
            let end = channel(ctx, 1, 3, 2, 16).unwrap();
            match end {
                Some(ChannelEnd::Sender(mut tx)) => {
                    tx.send(b"ping").unwrap();
                    tx.close(ctx).unwrap();
                    1u8
                }
                Some(ChannelEnd::Receiver(mut rx)) => {
                    let mut b = [0u8; 16];
                    let n = rx.recv(&mut b).unwrap();
                    assert_eq!(&b[..n], b"ping");
                    rx.close(ctx).unwrap();
                    2u8
                }
                None => 0u8,
            }
        });
        assert_eq!(got, vec![0, 1, 0, 2]);
    }
}
