//! `stream`: the three transports built on notified access, side by side —
//! `msg::channel` (SPSC), `rmc::fanin` with one producer, and
//! `RpcClient::call` echoes. Rank 1 produces and calls, rank 0 consumes and
//! serves. Both channel implementations are timed in the same batch, so a
//! merge of the two (RAMC: SPSC is fan-in with P = 1) has a before and after.
//!
//! ## Why the phases are fenced off from each other
//!
//! All notifications of a rank share one ring, and `Win::wait_notify` parks
//! records that do not match *in the stash of the window that polled*. A
//! record left in the ring when another window starts polling is therefore
//! lost to its owner, which later deadlocks on a credit that never comes.
//! So a phase hands over only once its ring traffic is gone: channel and
//! fan-in credits are absorbed with `poll_credits` after a rendezvous. The
//! RPC client has no such call for its request credits, so the RPC endpoint
//! is built for each batch and closed after it (`Win::free` discards what is
//! left); building and closing are not timed.

use crate::harness::{Meter, Shared, Tally, Workload};
use crate::probe::{Probe, Span};
use crate::report::Bill;
use fompi::Result;
use fompi_msg::channel::{channel, ChannelEnd, Receiver, Sender};
use fompi_rmc::{fanin, rpc, FaninConsumer, FaninEnd, FaninProducer, RmcConfig, RpcEnd};
use fompi_runtime::RankCtx;
use std::time::Instant;

const PRODUCER: u32 = 1;
const CONSUMER: u32 = 0;
const SLOTS: usize = 8;
const MSG_BYTES: usize = 64;
/// Messages per cycle on each of the two channels, then RPC calls.
const MSGS: u64 = 64;
const RPC_CALLS: u64 = 16;
const OPS_PER_CYCLE: u64 = 2 * MSGS + RPC_CALLS;
/// About 0.3 ms per cycle, so 4 per batch.
const CYCLES: u64 = 4;

/// The two one-way transports, in the order a cycle runs them.
#[derive(Clone, Copy)]
enum Lane {
    Channel = 0,
    Fanin = 1,
}

impl Lane {
    const BOTH: [Lane; 2] = [Lane::Channel, Lane::Fanin];

    fn spans(self) -> (Span, Span, Span) {
        match self {
            Lane::Channel => (Span::PhaseChannel, Span::MsgChannelSend, Span::MsgChannelRecv),
            Lane::Fanin => (Span::PhaseFanin, Span::RmcFaninSend, Span::RmcFaninRecv),
        }
    }
}

const RPC_LANE: u64 = 2;

/// This rank's end of both one-way transports.
enum Ends {
    Producer(Sender, FaninProducer),
    Consumer(Receiver, FaninConsumer),
}

pub struct Stream;

pub struct State {
    ends: Ends,
    rpc_cfg: RmcConfig,
    seed: u64,
    /// Next sequence number per lane; both ends count alike.
    seq: [u64; 3],
    phase_round: u64,
}

/// A message: its seeded sequence word repeated over the payload.
fn message(seed: u64, lane: u64, seq: u64) -> [u8; MSG_BYTES] {
    let word = (seed << 40) ^ (lane << 32) ^ seq;
    let mut m = [0u8; MSG_BYTES];
    for chunk in m.chunks_exact_mut(8) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    m
}

impl State {
    fn next_message(&mut self, lane: u64) -> [u8; MSG_BYTES] {
        let msg = message(self.seed, lane, self.seq[lane as usize]);
        self.seq[lane as usize] += 1;
        msg
    }

    /// Producer: send `msg` on `lane`. Consumer: receive the next message on
    /// `lane` and compare it with `msg`. Returns whether the op failed.
    fn transfer<P: Probe>(&mut self, lane: Lane, msg: &[u8; MSG_BYTES], p: &mut P) -> bool {
        let (_, send_span, recv_span) = lane.spans();
        let mut buf = [0u8; MSG_BYTES];
        match (&mut self.ends, lane) {
            (Ends::Producer(tx, _), Lane::Channel) => {
                let m = p.begin();
                let r = tx.send(msg);
                p.end(send_span, m);
                r.is_err()
            }
            (Ends::Producer(_, tx), Lane::Fanin) => {
                let m = p.begin();
                let r = tx.send(msg);
                p.end(send_span, m);
                r.is_err()
            }
            (Ends::Consumer(rx, _), Lane::Channel) => {
                let m = p.begin();
                let r = rx.recv(&mut buf);
                p.end(recv_span, m);
                !matches!(r, Ok(MSG_BYTES)) || buf != *msg
            }
            (Ends::Consumer(_, rx), Lane::Fanin) => {
                let m = p.begin();
                let r = rx.recv(&mut buf);
                p.end(recv_span, m);
                !matches!(r, Ok((PRODUCER, MSG_BYTES))) || buf != *msg
            }
        }
    }

    /// Producer: absorb every credit the consumer has returned on `lane`.
    fn absorb_credits(&mut self, lane: Lane) -> Result<()> {
        match (&mut self.ends, lane) {
            (Ends::Producer(tx, _), Lane::Channel) => tx.poll_credits().map(drop),
            (Ends::Producer(_, tx), Lane::Fanin) => tx.poll_credits().map(drop),
            (Ends::Consumer(..), _) => Ok(()),
        }
    }
}

/// `calls` echo round trips over `end`, which is then closed. Returns the
/// failures and the time spent closing.
fn rpc_round<P: Probe>(
    st: &mut State,
    ctx: &RankCtx,
    end: RpcEnd,
    calls: u64,
    p: &mut P,
) -> (u64, std::time::Duration) {
    let mut failed = 0u64;
    let mut buf = [0u8; MSG_BYTES];
    let (t_close, closed) = match end {
        RpcEnd::Client(mut client) => {
            for _ in 0..calls {
                let req = st.next_message(RPC_LANE);
                let m = p.begin();
                let r = client.call(&req, &mut buf);
                p.end(Span::RmcRpcCall, m);
                failed += (!matches!(r, Ok(MSG_BYTES)) || buf != req) as u64;
            }
            (Instant::now(), client.close(ctx))
        }
        RpcEnd::Server(mut server) => {
            for _ in 0..calls {
                let m = p.begin();
                let r = server.recv().and_then(|req| server.reply(&req, &req.data));
                p.end(Span::RmcRpcServe, m);
                failed += r.is_err() as u64;
            }
            (Instant::now(), server.close(ctx))
        }
    };
    (failed + closed.is_err() as u64, t_close.elapsed())
}

fn build_rpc(st: &State, ctx: &RankCtx) -> RpcEnd {
    rpc(ctx, CONSUMER, &[PRODUCER], &st.rpc_cfg).expect("rpc").expect("both ranks are rpc ends")
}

impl Workload for Stream {
    const PARK: bool = false;
    type State = State;

    fn setup(ctx: &RankCtx, seed: u64) -> State {
        let chan = channel(ctx, PRODUCER, CONSUMER, SLOTS, MSG_BYTES)
            .expect("channel")
            .expect("both ranks are channel ends");
        let fan = fanin(ctx, CONSUMER, &[PRODUCER], SLOTS, MSG_BYTES)
            .expect("fanin")
            .expect("both ranks are fan-in ends");
        let ends = match (chan, fan) {
            (ChannelEnd::Sender(c), FaninEnd::Producer(f)) => Ends::Producer(c, f),
            (ChannelEnd::Receiver(c), FaninEnd::Consumer(f)) => Ends::Consumer(c, f),
            _ => unreachable!("rank 1 produces on both lanes, rank 0 consumes on both"),
        };
        let rpc_cfg = RmcConfig { slots: SLOTS, slot_bytes: MSG_BYTES, ..RmcConfig::default() };
        State { ends, rpc_cfg, seed, seq: [0; 3], phase_round: 0 }
    }

    fn batch<P: Probe>(st: &mut State, ctx: &RankCtx, sh: &Shared, p: &mut P) -> Tally {
        let mut failed = 0u64;
        for _ in 0..CYCLES {
            for lane in Lane::BOTH {
                p.open(lane.spans().0);
                for _ in 0..MSGS {
                    let msg = st.next_message(lane as u64);
                    failed += st.transfer(lane, &msg, p) as u64;
                }
                // Hand-over: every message is consumed and every credit is
                // in the producer's ring; absorb them before the next
                // window polls that ring.
                sh.phase_rv.wait(&mut st.phase_round);
                failed += st.absorb_credits(lane).is_err() as u64;
                p.close();
            }
        }
        // RPC: the endpoint lives for this batch only (module docs).
        let t_build = Instant::now();
        let end = build_rpc(st, ctx);
        let building = t_build.elapsed();
        p.open(Span::PhaseRpc);
        let (bad, closing) = rpc_round(st, ctx, end, CYCLES * RPC_CALLS, p);
        p.close();
        if matches!(st.ends, Ends::Consumer(..)) {
            st.seq[RPC_LANE as usize] += CYCLES * RPC_CALLS;
        }
        Tally { ops: CYCLES * OPS_PER_CYCLE, failed: failed + bad, untimed: building + closing }
    }

    /// Everything is checked where it is received, inside the batch: the
    /// comparison is the consumer's own first touch of the 64-byte payload.
    fn verify(_: &mut State, _: &RankCtx) -> u64 {
        0
    }

    fn finish(st: State, ctx: &RankCtx) -> u64 {
        let (chan, fan) = match st.ends {
            Ends::Producer(c, f) => (c.close(ctx), f.close(ctx)),
            Ends::Consumer(c, f) => (c.close(ctx), f.close(ctx)),
        };
        chan.is_err() as u64 + fan.is_err() as u64
    }
}

/// Exact fabric-op counts of one call on one side, for the itemised bills.
/// The global counters cannot tell the two ranks apart while both run, so
/// here they take turns: the producer fills the ring while the consumer is
/// parked, then the consumer drains it while the producer is parked. One RPC
/// call cannot be split into turns (the caller blocks on the server), so its
/// bill covers both sides of the round trip. Rank 0 returns the bills.
pub fn bills(ctx: &RankCtx, seed: u64) -> Vec<Bill> {
    const ROUNDS: u64 = 16;
    let mut st = Stream::setup(ctx, seed);
    let mut p = crate::probe::Off;
    let mut bills = [
        Bill::new("msg.channel_send"),
        Bill::new("msg.channel_recv"),
        Bill::new("rmc.fanin_send"),
        Bill::new("rmc.fanin_recv"),
        Bill::new("rmc.rpc_call"),
    ];
    let mut meter = Meter::start(ctx);
    for _ in 0..ROUNDS {
        for lane in Lane::BOTH {
            // SLOTS messages fit the ring, so no turn waits on the peer.
            let msgs: Vec<_> = (0..SLOTS).map(|_| st.next_message(lane as u64)).collect();
            for (turn, active) in [PRODUCER, CONSUMER].into_iter().enumerate() {
                if ctx.rank() == active {
                    for msg in &msgs {
                        assert!(!st.transfer(lane, msg, &mut p), "stream bill transfer failed");
                    }
                }
                bills[2 * lane as usize + turn].add(&meter.lap(ctx), SLOTS as u64);
            }
            // The producer picks its credits up outside both turns.
            st.absorb_credits(lane).expect("credits");
            meter.lap(ctx);
        }
    }
    let calls = ROUNDS * SLOTS as u64;
    let end = build_rpc(&st, ctx);
    meter.lap(ctx);
    let (failed, _) = rpc_round(&mut st, ctx, end, calls, &mut p);
    assert_eq!(failed, 0, "stream bill rpc failed");
    bills[4].add(&meter.lap(ctx), calls);
    Stream::finish(st, ctx);
    if ctx.rank() == 0 {
        bills.into()
    } else {
        Vec::new()
    }
}
