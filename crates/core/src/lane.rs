//! The credit ring: the one remote-memory ring protocol under
//! `fompi-msg`'s channel and every `fompi-rmc` shape.
//!
//! A ring is `slots` cells of `slot_bytes` at byte `base` of the
//! *consumer's* window copy. The producer owns `head` and a credit count,
//! the consumer owns `tail` and the credits it owes; both cursors advance
//! monotonically mod `slots`, so neither ever travels over the wire. A
//! message is one `put_notify` (its length rides in the record's `bytes`
//! field). Freed slots go back in bulk: one data-less [`Win::notify`]
//! whose record's `bytes` field is the number of slots it frees. DESIGN.md,
//! "Remote-memory rings", has the picture, the three invariants and what
//! each façade adds.
//!
//! The lanes hold that protocol and nothing else, its one repayment
//! policy included: a consumer repays at half the ring
//! ([`RxLane::take_and_credit`]). Which record to match and when to wait
//! for a credit, where rings lie in the window, and tracing belong to the
//! façade that owns the lanes.

use crate::{FompiError, Notification, Result, Win};
use fompi_runtime::RankCtx;

/// Collectively allocate the window (`bytes` on every rank) a structure's
/// rings live in, held in one `lock_all` passive epoch until [`close`]:
/// lanes flush and issue notified operations at any time, and both need
/// that epoch.
pub fn open(ctx: &RankCtx, bytes: usize) -> Result<Win> {
    let win = Win::allocate(ctx, bytes, 1)?;
    win.lock_all()?;
    Ok(win)
}

/// End the epoch of [`open`] and free the window (collective). A
/// metadata word left out of its rest state by then is a protocol bug the
/// structure's teardown reports ([`FompiError::NotAtRest`]).
pub fn close(win: Win, ctx: &RankCtx) -> Result<()> {
    win.unlock_all()?;
    match win.free(ctx).first() {
        Some(&(word, got, want)) => Err(FompiError::NotAtRest { word, got, want }),
        None => Ok(()),
    }
}

/// Shape of one ring.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    slots: usize,
    slot_bytes: usize,
}

impl Geometry {
    /// The single place a zero-capacity ring is rejected — with a typed
    /// error, not a panic. Collective constructors call this first: every
    /// rank takes the same branch before any collective allocation, so the
    /// rejection is itself collective and no window leaks.
    pub fn new(slots: usize, slot_bytes: usize) -> Result<Geometry> {
        if slots == 0 || slot_bytes == 0 {
            return Err(FompiError::InvalidEpoch("a ring needs at least one non-empty slot"));
        }
        Ok(Geometry { slots, slot_bytes })
    }

    /// Cells in the ring.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Payload capacity of one slot.
    pub fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// Window bytes one ring occupies.
    pub fn ring_bytes(&self) -> usize {
        self.slots * self.slot_bytes
    }

    /// Byte offset of the slot cursor value `cursor` maps to, in a ring
    /// that starts at `base`.
    pub fn cell(&self, base: usize, cursor: u64) -> usize {
        base + (cursor % self.slots as u64) as usize * self.slot_bytes
    }

    /// Book `count` credits `peer` returned into `credits`, the free slots
    /// of this ring a producer holds. Past `slots` it fails loudly: `peer`
    /// freed a slot that was never filled (a stray or duplicated credit),
    /// and absorbing it would let a later burst overrun the ring.
    fn book_credit(&self, credits: &mut u64, count: u64, peer: u32) -> Result<()> {
        if count > self.slots as u64 - *credits {
            return Err(FompiError::StrayCredit { peer });
        }
        *credits += count;
        Ok(())
    }
}

/// Producer end of one ring in `peer`'s window copy.
pub struct TxLane {
    peer: u32,
    base: usize,
    geom: Geometry,
    head: u64,
    credits: u64,
    /// `head` at the last flush toward `peer` (see [`TxLane::fence`]).
    flushed_at: u64,
}

impl TxLane {
    /// A producer with a full window of `slots` credits.
    pub fn new(peer: u32, base: usize, geom: Geometry) -> TxLane {
        TxLane { peer, base, geom, head: 0, credits: geom.slots as u64, flushed_at: 0 }
    }

    /// The consuming rank.
    pub fn peer(&self) -> u32 {
        self.peer
    }

    /// Messages put so far (the sequence number of the next one).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Credits in hand (free slots known to this side).
    pub fn credits(&self) -> u64 {
        self.credits
    }

    /// One nonblocking matching pass: absorb a credit record if one has
    /// arrived.
    fn try_credit(&mut self, win: &Win, credit_tag: u32) -> Result<bool> {
        match win.test_notify(self.peer, credit_tag)? {
            Some(rec) => self.book(&rec).map(|()| true),
            None => Ok(false),
        }
    }

    /// Absorb every credit that has already arrived (nonblocking);
    /// returns the credits in hand.
    pub fn poll_credits(&mut self, win: &Win, credit_tag: u32) -> Result<u64> {
        while self.try_credit(win, credit_tag)? {}
        Ok(self.credits)
    }

    /// Block for one credit record. Its stamp joins our clock, so waiting
    /// here *is* the flow-control time.
    pub fn wait_credit(&mut self, win: &Win, credit_tag: u32) -> Result<()> {
        let rec = win.wait_notify(self.peer, credit_tag)?;
        self.book(&rec)
    }

    /// A credit record frees as many slots as its `bytes` field says.
    fn book(&mut self, rec: &Notification) -> Result<()> {
        self.geom.book_credit(&mut self.credits, rec.bytes, self.peer)
    }

    /// Slot-reuse fence: put N+slots lands where put N did. The returned
    /// credit proves the consumer drained the old payload, but two
    /// same-origin puts in one passive epoch are unordered in MPI — a
    /// flush between them completes the old put before its slot is
    /// rewritten (and bumps the racecheck phase). One flush covers a whole
    /// lap of slots. Found by the fompi-mc model checker on a one-slot
    /// channel. [`TxLane::put`] fences for itself; a façade calls this
    /// first only to keep the lap's flush out of a span it times.
    pub fn fence(&mut self, win: &Win) -> Result<()> {
        if self.head >= self.flushed_at + self.geom.slots as u64 {
            win.flush(self.peer)?;
            self.flushed_at = self.head;
        }
        Ok(())
    }

    /// Send `msg` (at most `slot_bytes`) into the next slot and spend a
    /// credit. The caller takes the credit first ([`TxLane::poll_credits`]
    /// / [`TxLane::wait_credit`]): backpressure is the consumer's pace,
    /// felt through returned credits, never through ring overflow. An
    /// oversize message is refused like a missing credit: a typed error,
    /// nothing sent, no cursor moved.
    pub fn put(&mut self, win: &Win, msg: &[u8], data_tag: u32) -> Result<()> {
        if msg.len() > self.geom.slot_bytes {
            return Err(FompiError::InvalidEpoch("message exceeds the ring's slot size"));
        }
        if self.credits == 0 {
            return Err(FompiError::InvalidEpoch("ring put without a credit in hand"));
        }
        self.fence(win)?;
        win.put_notify(msg, self.peer, self.geom.cell(self.base, self.head), data_tag)?;
        self.head += 1;
        self.credits -= 1;
        Ok(())
    }
}

/// Consumer end of the ring `peer` produces into, at `base` of this
/// rank's window copy.
pub struct RxLane {
    peer: u32,
    base: usize,
    geom: Geometry,
    tail: u64,
    /// Slots taken and not yet handed back.
    owed: u64,
}

impl RxLane {
    /// A consumer at the start of an empty ring.
    pub fn new(peer: u32, base: usize, geom: Geometry) -> RxLane {
        RxLane { peer, base, geom, tail: 0, owed: 0 }
    }

    /// The producing rank.
    pub fn peer(&self) -> u32 {
        self.peer
    }

    /// Messages taken so far (the sequence number of the next one).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Copy the message out of the next slot; the slot is owed to the
    /// producer until [`RxLane::flush_credits`].
    fn take(&mut self, win: &Win, rec: &Notification, buf: &mut [u8]) -> Result<usize> {
        let len = rec.bytes as usize;
        let cell = self.geom.cell(self.base, self.tail);
        self.tail += 1;
        self.owed += 1;
        if len > self.geom.slot_bytes || len > buf.len() {
            return Err(FompiError::InvalidEpoch("slot payload exceeds the recv buffer"));
        }
        win.read_local(cell, &mut buf[..len]);
        Ok(len)
    }

    /// Copy the message announced by the matched data record `rec` out of
    /// the next slot into `buf` and return its length, then repay the
    /// whole debt once it reaches half the ring, rounded up. The record's
    /// stamp has joined our clock, which fences the ring read: the payload
    /// is visible.
    ///
    /// A payload longer than `buf` (or than a slot: a forged record) is a
    /// typed error with MPI's truncation semantics: the record is matched,
    /// so its message is consumed and lost, the cursor moves past it, and
    /// its slot is owed exactly as after a success — a refused message
    /// still frees its slot, or a one-slot ring would never move again.
    ///
    /// Repaying earlier — say, before blocking for the next message — is
    /// never needed for progress: a producer out of credits still has at
    /// least `slots − ⌈slots/2⌉ + 1 ≥ 1` messages here to take. And while
    /// a rank's windows share one notification ring it can deadlock: a
    /// credit that lands while another window of the producer's rank is
    /// polling is stashed in that window, and the lane's producer never
    /// sees it (DESIGN.md, "Remote-memory rings").
    pub fn take_and_credit(
        &mut self,
        win: &Win,
        rec: &Notification,
        buf: &mut [u8],
        credit_tag: u32,
    ) -> Result<usize> {
        let taken = self.take(win, rec, buf);
        if self.owed >= (self.geom.slots as u64).div_ceil(2) {
            self.flush_credits(win, credit_tag)?;
        }
        taken
    }

    /// Hand every owed slot back with one data-less notification whose
    /// record carries the count. Nothing is sent when nothing is owed.
    fn flush_credits(&mut self, win: &Win, credit_tag: u32) -> Result<()> {
        if self.owed > 0 {
            win.notify(self.peer, credit_tag, self.owed)?;
            self.owed = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fompi_fabric::rng::Rng;
    use fompi_runtime::Universe;

    const DATA: u32 = 0xDA;
    const CREDIT: u32 = 0xCE;
    const SLOT_BYTES: usize = 24;
    /// The ring starts past the window's first word, as every ring but the
    /// first of a multi-ring layout does.
    const BASE: usize = 8;

    /// Message `i` of the stream `seed` names: a random length up to a
    /// whole slot, random bytes. Both ranks derive it independently.
    fn message(seed: u64, i: u64) -> Vec<u8> {
        let mut rng = Rng::seed_from_u64(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut m = vec![0u8; rng.range(0, SLOT_BYTES + 1)];
        rng.fill_bytes(&mut m);
        m
    }

    /// `n` messages over one ring of `slots`, both ends choosing their
    /// next step at random. The consumer repays only at the threshold,
    /// then once more after the last message. Returns the flushes and the
    /// notification posts the whole run issued.
    fn stream(slots: usize, seed: u64, n: u64) -> (u64, u64) {
        let got = Universe::new(2).node_size(1).seed(seed).run(move |ctx| {
            let geom = Geometry::new(slots, SLOT_BYTES).unwrap();
            let win = open(ctx, BASE + geom.ring_bytes()).unwrap();
            ctx.barrier();
            let before = ctx.fabric().counters().snapshot();
            ctx.barrier();
            let mut rng = Rng::seed_from_u64(seed ^ u64::from(ctx.rank()));
            if ctx.rank() == 0 {
                let mut tx = TxLane::new(1, BASE, geom);
                while tx.head() < n {
                    match rng.next_below(3) {
                        0 => drop(tx.poll_credits(&win, CREDIT).unwrap()),
                        _ if tx.credits() == 0 => {
                            // Refused, not a ring overrun, and no cursor moves.
                            assert!(tx.put(&win, b"", DATA).is_err());
                            // A message the consumer has not taken is
                            // left, so its debt reaches the threshold.
                            tx.wait_credit(&win, CREDIT).unwrap()
                        }
                        _ => tx.put(&win, &message(seed, tx.head()), DATA).unwrap(),
                    }
                    assert!(tx.credits() <= slots as u64, "more credits than slots");
                }
                // Rest state: every credit comes home, none beyond.
                while tx.credits() < slots as u64 {
                    tx.wait_credit(&win, CREDIT).unwrap();
                }
            } else {
                let mut rx = RxLane::new(0, BASE, geom);
                let mut buf = [0u8; SLOT_BYTES];
                while rx.tail() < n {
                    // Blocking for data with a debt in hand is safe: the
                    // threshold leaves a producer out of credits with a
                    // message still to take.
                    let rec = if rng.next_below(2) == 0 {
                        win.wait_notify(0, DATA).unwrap()
                    } else if let Some(rec) = win.test_notify(0, DATA).unwrap() {
                        rec
                    } else {
                        std::thread::yield_now();
                        continue;
                    };
                    let want = message(seed, rx.tail());
                    let len = rx.take_and_credit(&win, &rec, &mut buf, CREDIT).unwrap();
                    assert_eq!(buf[..len], want[..], "message {} torn or reordered", rx.tail() - 1);
                }
                rx.flush_credits(&win, CREDIT).unwrap();
            }
            ctx.barrier();
            assert_eq!(win.notify_pending(), 0, "the ring must drain to empty");
            let d = ctx.fabric().counters().snapshot().since(&before);
            ctx.barrier();
            close(win, ctx).unwrap();
            (d.flushes, d.notify_posts)
        });
        assert_eq!(got[0], got[1]);
        got[0]
    }

    #[test]
    fn a_credit_count_past_the_ring_is_a_stray_credit_naming_the_peer() {
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let geom = Geometry::new(4, SLOT_BYTES).unwrap();
            let win = open(ctx, BASE + geom.ring_bytes()).unwrap();
            let said = if ctx.rank() == 0 {
                let mut tx = TxLane::new(1, BASE, geom);
                tx.put(&win, b"one", DATA).unwrap();
                // One slot is out: a record freeing two is one too many,
                // and booking it is refused whole.
                let stray = tx.wait_credit(&win, CREDIT);
                assert_eq!(tx.credits(), 3);
                tx.wait_credit(&win, CREDIT).unwrap();
                assert_eq!(tx.credits(), 4);
                stray
            } else {
                win.wait_notify(0, DATA).unwrap();
                win.notify(0, CREDIT, 2).unwrap();
                win.notify(0, CREDIT, 1)
            };
            close(win, ctx).unwrap();
            said
        });
        assert_eq!(got, vec![Err(FompiError::StrayCredit { peer: 1 }), Ok(())]);
    }

    #[test]
    fn close_names_a_metadata_word_a_peer_left_off_rest() {
        // Rank 0 posts toward rank 1, which never starts: the announcement
        // stays in rank 1's PSCW match list, and only its teardown can see it.
        let got = Universe::new(2).node_size(1).run(|ctx| {
            let win = open(ctx, 8).unwrap();
            if ctx.rank() == 0 {
                win.post(&fompi_runtime::Group::new([1])).unwrap();
            }
            close(win, ctx)
        });
        assert_eq!(got[0], Ok(()));
        match &got[1] {
            Err(FompiError::NotAtRest { word: "MATCH_HEAD index", got, want }) => {
                assert_eq!(*want, crate::meta::NIL as u64);
                assert_ne!(got, want);
            }
            other => panic!("rank 1's close returned {other:?}"),
        }
    }

    #[test]
    fn random_interleavings_keep_fifo_bytes_bulk_credits_and_one_flush_per_lap() {
        for slots in [1usize, 2, 3, 8] {
            let repay_at = (slots as u64).div_ceil(2);
            for seed in 1..=6u64 {
                let n = 20 + 7 * seed;
                let (flushes, posts) = stream(slots, seed, n);
                let run = format!("slots={slots} seed={seed} n={n}");
                // The fence rule as a number: one flush each time the head
                // starts a new lap, none for the first.
                assert_eq!(flushes, (n - 1) / slots as u64, "{run}");
                // One data record per message, one credit record per
                // ⌈slots/2⌉ of them and one for the remainder.
                assert_eq!(posts, n + n.div_ceil(repay_at), "{run}");
            }
        }
    }
}
