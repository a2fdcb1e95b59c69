//! The credit ring: the one remote-memory ring protocol under
//! `fompi-msg`'s channel and every `fompi-rmc` shape.
//!
//! A ring is `slots` cells of `slot_bytes` at byte `base` of the
//! *consumer's* window copy. The producer owns `head` and a credit count,
//! the consumer owns `tail`; both cursors advance monotonically mod
//! `slots`, so neither ever travels over the wire. A message is one
//! `put_notify` (its length rides in the record's `bytes` field), a freed
//! slot is one `accumulate_notify` back — the credit. DESIGN.md,
//! "Remote-memory rings", has the picture, the three invariants and what
//! each façade adds.
//!
//! The lanes hold that protocol and nothing else. Which record to match
//! and when to wait for a credit, where rings lie in the window, and
//! tracing belong to the façade that owns the lanes.

use crate::{FompiError, MpiOp, Notification, Result, Win};
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

    /// Book one credit `peer` returned into `credits`, the free slots of
    /// this ring a producer holds. Past `slots` it fails loudly: `peer`
    /// freed a slot that was never filled (a stray or duplicated credit),
    /// and absorbing it would let a later burst overrun the ring.
    pub fn book_credit(&self, credits: &mut u64, peer: u32) -> Result<()> {
        if *credits >= self.slots as u64 {
            return Err(FompiError::StrayCredit { peer });
        }
        *credits += 1;
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

    /// One nonblocking matching pass: absorb a credit if one has arrived.
    pub fn try_credit(&mut self, win: &Win, credit_tag: u32) -> Result<bool> {
        match win.test_notify(self.peer, credit_tag)? {
            Some(_) => self.geom.book_credit(&mut self.credits, self.peer).map(|()| true),
            None => Ok(false),
        }
    }

    /// Absorb every credit that has already arrived (nonblocking);
    /// returns the credits in hand.
    pub fn poll_credits(&mut self, win: &Win, credit_tag: u32) -> Result<u64> {
        while self.try_credit(win, credit_tag)? {}
        Ok(self.credits)
    }

    /// Block for one credit. There is one credit notification per freed
    /// slot and its stamp joins our clock, so waiting here *is* the
    /// flow-control time.
    pub fn wait_credit(&mut self, win: &Win, credit_tag: u32) -> Result<()> {
        win.wait_notify(self.peer, credit_tag)?;
        self.geom.book_credit(&mut self.credits, self.peer)
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
}

impl RxLane {
    /// A consumer at the start of an empty ring.
    pub fn new(peer: u32, base: usize, geom: Geometry) -> RxLane {
        RxLane { peer, base, geom, tail: 0 }
    }

    /// The producing rank.
    pub fn peer(&self) -> u32 {
        self.peer
    }

    /// Messages taken so far (the sequence number of the next one).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Copy the message announced by the matched data record `rec` out of
    /// the next slot into `buf`; returns its length. The record's stamp
    /// has joined our clock, which fences the ring read: the payload is
    /// visible. The slot stays the consumer's until [`RxLane::credit`].
    ///
    /// A payload longer than `buf` (or than a slot: a forged record) is a
    /// typed error with MPI's truncation semantics: the record is matched,
    /// so its message is consumed and lost, the cursor moves past it, and
    /// the caller owes the slot's credit exactly as after a success.
    pub fn take(&mut self, win: &Win, rec: &Notification, buf: &mut [u8]) -> Result<usize> {
        let len = rec.bytes as usize;
        let cell = self.geom.cell(self.base, self.tail);
        self.tail += 1;
        if len > self.geom.slot_bytes || len > buf.len() {
            return Err(FompiError::InvalidEpoch("slot payload exceeds the recv buffer"));
        }
        win.read_local(cell, &mut buf[..len]);
        Ok(len)
    }

    /// [`RxLane::take`], then [`RxLane::credit`] whether or not the payload
    /// fitted — a refused message still frees its slot, or a one-slot
    /// ring would never move again. For consumers that return each credit
    /// at once.
    pub fn take_and_credit(
        &mut self,
        win: &Win,
        rec: &Notification,
        buf: &mut [u8],
        credit_tag: u32,
    ) -> Result<usize> {
        let taken = self.take(win, rec, buf);
        self.credit(win, credit_tag)?;
        taken
    }

    /// Hand one taken slot back: a notified AMO on the producer's credit
    /// pad (offset 0 of its copy). The operand is informational — flow
    /// control rides the notification itself, one record per slot.
    pub fn credit(&self, win: &Win, credit_tag: u32) -> Result<()> {
        win.accumulate_notify(1, MpiOp::Sum, self.peer, 0, credit_tag)
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
    /// The ring sits behind an 8-byte credit pad, like the mesh's.
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
    /// next step at random. Returns the flushes the whole run issued.
    fn stream(slots: usize, seed: u64, n: u64) -> u64 {
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
                let mut owed = 0u64;
                let mut buf = [0u8; SLOT_BYTES];
                while rx.tail() < n || owed > 0 {
                    if owed > 0 && (rx.tail() == n || rng.next_below(2) == 0) {
                        rx.credit(&win, CREDIT).unwrap();
                        owed -= 1;
                        continue;
                    }
                    // Block for data only with no credit owed: a producer
                    // out of credits would wait for us forever.
                    let rec = if owed == 0 && rng.next_below(2) == 0 {
                        win.wait_notify(0, DATA).unwrap()
                    } else if let Some(rec) = win.test_notify(0, DATA).unwrap() {
                        rec
                    } else {
                        std::thread::yield_now();
                        continue;
                    };
                    let want = message(seed, rx.tail());
                    let len = rx.take(&win, &rec, &mut buf).unwrap();
                    assert_eq!(buf[..len], want[..], "message {} torn or reordered", rx.tail() - 1);
                    owed += 1;
                }
            }
            ctx.barrier();
            assert_eq!(win.notify_pending(), 0, "the ring must drain to empty");
            let flushes = ctx.fabric().counters().snapshot().since(&before).flushes;
            ctx.barrier();
            close(win, ctx).unwrap();
            flushes
        });
        assert_eq!(got[0], got[1]);
        got[0]
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
    fn random_interleavings_keep_fifo_bytes_credits_and_one_flush_per_lap() {
        for slots in [1usize, 2, 8] {
            for seed in 1..=6u64 {
                let n = 20 + 7 * seed;
                let flushes = stream(slots, seed, n);
                // The fence rule as a number: one flush each time the head
                // starts a new lap, none for the first.
                assert_eq!(flushes, (n - 1) / slots as u64, "slots={slots} seed={seed} n={n}");
            }
        }
    }
}
