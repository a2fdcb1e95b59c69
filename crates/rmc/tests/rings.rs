//! One behaviour, every ring constructor. `msg::channel` and the two
//! `fompi-rmc` shapes are façades over the same lanes (`fompi::lane`), so
//! the misuse contract and the fabric-op bill are checked once per
//! behaviour with the constructor as an input, not once per file.

use fompi::{lane, FompiError};
use fompi_msg::channel::{channel, ChannelEnd, CREDIT_TAG};
use fompi_rmc::fanin::FANIN_CREDIT_TAG;
use fompi_rmc::rpc::REQ_CREDIT_TAG;
use fompi_rmc::{fanin, rpc, FaninEnd, RmcConfig, RpcEnd};
use fompi_runtime::{RankCtx, Universe};

/// Rank 0 produces (publishes, calls), rank 1 consumes (subscribes, serves).
const PRODUCER: u32 = 0;
const CONSUMER: u32 = 1;

fn cfg(slots: usize, slot_bytes: usize) -> RmcConfig {
    RmcConfig { slots, slot_bytes, ..RmcConfig::default() }
}

#[test]
fn zero_capacity_is_rejected_with_a_typed_error() {
    type Build = fn(&RankCtx, usize, usize) -> Option<FompiError>;
    let shapes: [(&str, Build); 3] = [
        ("channel", |ctx, s, b| channel(ctx, PRODUCER, CONSUMER, s, b).err()),
        ("fanin", |ctx, s, b| fanin(ctx, CONSUMER, &[PRODUCER], s, b).err()),
        ("rpc", |ctx, s, b| rpc(ctx, CONSUMER, &[PRODUCER], &cfg(s, b)).err()),
    ];
    // Both degenerate shapes, rejected on every rank before any
    // collective allocation — the universe still tears down cleanly.
    Universe::new(2).node_size(1).run(move |ctx| {
        for (name, build) in shapes {
            for (slots, slot_bytes) in [(0usize, 64usize), (4, 0), (0, 0)] {
                match build(ctx, slots, slot_bytes) {
                    Some(FompiError::InvalidEpoch(msg)) => assert!(msg.contains("slot")),
                    Some(e) => panic!("{name}: wrong rejection for ({slots},{slot_bytes}): {e}"),
                    None => panic!("{name}: zero-capacity ({slots},{slot_bytes}) was accepted"),
                }
            }
        }
    });
}

/// A one-slot ring of the shape under test, driven through one message
/// and one forged credit record. The consumer receives the message
/// (returning the legitimate credit), calls `forge` and meets the producer
/// at the barrier; the producer sends, waits at the barrier, then absorbs
/// credits and returns what that absorbing call said.
type StrayCredit = fn(&RankCtx, &dyn Fn()) -> fompi::Result<()>;

const STRAY_CREDIT: [(&str, u32, StrayCredit); 3] = [
    ("channel", CREDIT_TAG, |ctx, forge| match channel(ctx, PRODUCER, CONSUMER, 1, 8)?.unwrap() {
        ChannelEnd::Sender(mut tx) => {
            tx.send(b"one-----")?;
            ctx.barrier();
            let absorbed = tx.poll_credits().map(drop);
            tx.close(ctx).and(absorbed)
        }
        ChannelEnd::Receiver(mut rx) => {
            rx.recv(&mut [0u8; 8])?;
            forge();
            ctx.barrier();
            rx.close(ctx)
        }
    }),
    ("fanin", FANIN_CREDIT_TAG, |ctx, forge| {
        match fanin(ctx, CONSUMER, &[PRODUCER], 1, 8)?.unwrap() {
            FaninEnd::Producer(mut tx) => {
                tx.send(b"one-----")?;
                ctx.barrier();
                let absorbed = tx.poll_credits().map(drop);
                tx.close(ctx).and(absorbed)
            }
            FaninEnd::Consumer(mut rx) => {
                rx.recv(&mut [0u8; 8])?;
                forge();
                ctx.barrier();
                rx.close(ctx)
            }
        }
    }),
    ("rpc", REQ_CREDIT_TAG, |ctx, forge| {
        match rpc(ctx, CONSUMER, &[PRODUCER], &cfg(1, 8))?.unwrap() {
            RpcEnd::Client(mut cl) => {
                cl.call(b"one-----", &mut [0u8; 8])?;
                ctx.barrier();
                let absorbed = cl.call_async(b"two-----").map(drop);
                cl.close(ctx).and(absorbed)
            }
            RpcEnd::Server(mut srv) => {
                let req = srv.recv()?;
                srv.reply(&req, b"pong----")?;
                forge();
                ctx.barrier();
                srv.close(ctx)
            }
        }
    }),
];

#[test]
fn stray_credit_is_a_loud_underflow_error() {
    // A consumer that returns more credits than the producer ever spent
    // (here: one real + one forged) must trip the producer's underflow
    // check instead of silently inflating the window.
    for (name, credit_tag, shape) in STRAY_CREDIT {
        let got = Universe::new(2).node_size(1).run(move |ctx| {
            // The forgery comes from another window: a rank's records
            // share one ring and match by (source, tag) alone.
            let forger = lane::open(ctx, 8).unwrap();
            let forge = || forger.notify(PRODUCER, credit_tag, 1).unwrap();
            let said = shape(ctx, &forge);
            lane::close(forger, ctx).unwrap();
            said.map_err(|e| e.to_string())
        });
        let producer = got[PRODUCER as usize].as_ref().expect_err("the stray credit was absorbed");
        assert!(producer.contains("underflow"), "{name}: wrong error: {producer}");
        assert_eq!(got[CONSUMER as usize], Ok(()), "{name}");
    }
}

/// `[puts, amos, notify_posts, flushes]` of a structure's whole life, in a
/// fabric of its own.
fn ops(life: impl Fn(&mut RankCtx) + Send + Sync) -> [u64; 4] {
    let c = Universe::new(2).node_size(1).launch(life).1.counters().snapshot();
    [c.puts, c.amos, c.notify_posts, c.flushes]
}

/// `n` 64-byte messages over a channel of `slots`, then closed.
fn channel_life(slots: usize, n: u64) -> [u64; 4] {
    ops(move |ctx| match channel(ctx, PRODUCER, CONSUMER, slots, 64).unwrap().unwrap() {
        ChannelEnd::Sender(mut tx) => {
            (0..n).for_each(|_| tx.send(&[7; 64]).unwrap());
            tx.close(ctx).unwrap();
        }
        ChannelEnd::Receiver(mut rx) => {
            (0..n).for_each(|_| _ = rx.recv(&mut [0; 64]).unwrap());
            rx.close(ctx).unwrap();
        }
    })
}

/// The same over a one-producer fan-in.
fn fanin_life(slots: usize, n: u64) -> [u64; 4] {
    ops(move |ctx| match fanin(ctx, CONSUMER, &[PRODUCER], slots, 64).unwrap().unwrap() {
        FaninEnd::Producer(mut tx) => {
            (0..n).for_each(|_| tx.send(&[7; 64]).unwrap());
            tx.close(ctx).unwrap();
        }
        FaninEnd::Consumer(mut rx) => {
            (0..n).for_each(|_| _ = rx.recv(&mut [0; 64]).unwrap());
            rx.close(ctx).unwrap();
        }
    })
}

/// `n` 64-byte echo calls of one client over rings of `slots`, then closed.
fn rpc_life(slots: usize, n: u64) -> [u64; 4] {
    ops(move |ctx| match rpc(ctx, CONSUMER, &[PRODUCER], &cfg(slots, 64)).unwrap().unwrap() {
        RpcEnd::Client(mut cl) => {
            (0..n).for_each(|_| _ = cl.call(&[7; 64], &mut [0; 64]).unwrap());
            cl.close(ctx).unwrap();
        }
        RpcEnd::Server(mut srv) => {
            for _ in 0..n {
                let req = srv.recv().unwrap();
                srv.reply(&req, &req.data).unwrap();
            }
            srv.close(ctx).unwrap();
        }
    })
}

#[test]
fn channel_and_one_producer_fanin_issue_the_same_fabric_ops() {
    // perfgate's `channel_round_64_ns == rmc_fanin_round_64_ns` as an
    // assertion on counts: SPSC is fan-in with P = 1.
    const SLOTS: usize = 4;
    const N: u64 = 3 * SLOTS as u64 + 1;
    let (chan, fan) = (channel_life(SLOTS, N), fanin_life(SLOTS, N));
    assert_eq!(chan, fan, "[puts, amos, notify_posts, flushes] of {N} messages");
}

#[test]
fn the_wire_bill_per_message_and_per_call_at_eight_slots() {
    // What one more message costs: the life of 2n minus the life of n, with
    // n whole laps, so setup, teardown and the debt left unpaid at close
    // cancel out. Credits go back as one record per ⌈8/2⌉ = 4 slots, and
    // the slot-reuse fence flushes once per lap of 8.
    const SLOTS: usize = 8;
    const N: u64 = 8 * SLOTS as u64;
    let per = |life: fn(usize, u64) -> [u64; 4]| {
        let (once, twice) = (life(SLOTS, N), life(SLOTS, 2 * N));
        std::array::from_fn(|i| (twice[i] - once[i]) as f64 / N as f64)
    };
    //                  [puts, amos, notify_posts, flushes]
    let message: [f64; 4] = [1.0, 0.0, 1.25, 0.125];
    assert_eq!(per(channel_life), message, "channel, per message");
    assert_eq!(per(fanin_life), message, "fan-in, per message");
    // A call is a request message plus a reply, whose ring returns no
    // credits (the request vouches for its slot) and fences a lap of its own.
    let call: [f64; 4] = [2.0, 0.0, 2.25, 0.25];
    assert_eq!(per(rpc_life), call, "rpc, per call");
}

/// A one-slot, 8-byte ring of the shape under test, misused twice: the
/// producer sends 9 bytes (refused: nothing goes out), then 8 bytes that the
/// consumer receives into 4 (refused: the message is lost, its slot is
/// not). A third, well-sized message must then cross the same slot, which
/// on one slot proves the short receive returned its credit. Each rank
/// returns the misuse errors it saw.
type Missized = fn(&RankCtx) -> fompi::Result<Vec<FompiError>>;

const LONG: &[u8; 8] = b"long----";
const FITS: &[u8; 8] = b"fits----";

const MISSIZED: [(&str, Missized); 3] = [
    ("channel", |ctx| match channel(ctx, PRODUCER, CONSUMER, 1, 8)?.unwrap() {
        ChannelEnd::Sender(mut tx) => {
            let over = tx.send(&[0; 9]).unwrap_err();
            tx.send(LONG)?;
            tx.send(FITS)?;
            tx.close(ctx).map(|()| vec![over])
        }
        ChannelEnd::Receiver(mut rx) => {
            let mut buf = [0u8; 8];
            let short = rx.recv(&mut buf[..4]).unwrap_err();
            assert_eq!((rx.recv(&mut buf)?, &buf), (8, FITS));
            rx.close(ctx).map(|()| vec![short])
        }
    }),
    ("fanin", |ctx| match fanin(ctx, CONSUMER, &[PRODUCER], 1, 8)?.unwrap() {
        FaninEnd::Producer(mut tx) => {
            let over = tx.send(&[0; 9]).unwrap_err();
            tx.send(LONG)?;
            tx.send(FITS)?;
            tx.close(ctx).map(|()| vec![over])
        }
        FaninEnd::Consumer(mut rx) => {
            let mut buf = [0u8; 8];
            let short = rx.recv(&mut buf[..4]).unwrap_err();
            assert_eq!((rx.recv(&mut buf)?, &buf), ((PRODUCER, 8), FITS));
            rx.close(ctx).map(|()| vec![short])
        }
    }),
    // The short receive of an RPC is the client's reply buffer, and the
    // server can oversize a reply as the client can a request.
    ("rpc", |ctx| match rpc(ctx, CONSUMER, &[PRODUCER], &cfg(1, 8))?.unwrap() {
        RpcEnd::Client(mut cl) => {
            let mut buf = [0u8; 8];
            let over = cl.call(&[0; 9], &mut buf).unwrap_err();
            let short = cl.call(LONG, &mut buf[..4]).unwrap_err();
            assert_eq!((cl.call(FITS, &mut buf)?, &buf), (8, FITS));
            assert_eq!(cl.outstanding(), 0);
            cl.close(ctx).map(|()| vec![over, short])
        }
        RpcEnd::Server(mut srv) => {
            let req = srv.recv()?;
            let over = srv.reply(&req, &[0; 9]).unwrap_err();
            srv.reply(&req, &req.data)?; // echo
            let req = srv.recv()?;
            srv.reply(&req, &req.data)?;
            srv.close(ctx).map(|()| vec![over])
        }
    }),
];

#[test]
fn oversize_send_and_short_recv_are_typed_errors_and_the_ring_survives() {
    for (name, shape) in MISSIZED {
        let got = Universe::new(2).node_size(1).run(move |ctx| {
            shape(ctx).map(|seen| seen.iter().map(|e| e.to_string()).collect::<Vec<_>>())
        });
        let seen = |rank: u32| got[rank as usize].clone().unwrap_or_else(|e| panic!("{name}: {e}"));
        let (sent, received) = (seen(PRODUCER), seen(CONSUMER));
        assert!(sent[0].contains("slot size"), "{name}: oversize send said {sent:?}");
        let short = if name == "rpc" { &sent[1] } else { &received[0] };
        assert!(short.contains("recv buffer"), "{name}: short recv said {short}");
        if name == "rpc" {
            assert!(received[0].contains("slot size"), "{name}: oversize reply said {received:?}");
        }
    }
}
