//! The model programs: small-rank protocol kernels the checker
//! exhaustively interleaves, plus deliberately broken twins (mutants)
//! proving the checker actually catches the bug classes it claims to.
//!
//! Sizing rule: every program is the *smallest* instance that still
//! exercises the protocol's ordering decisions — one or two slots, one
//! or two messages per edge — because exploration cost is exponential in
//! announced conflicting operations. A program's return value is its
//! **declared-stable digest**: the checker requires it to be byte-equal
//! across every explored schedule, so digests must fold
//! arrival-order-*insensitive* data (per-record hashes summed) wherever
//! the protocol leaves arrival order unspecified, and may fold ordered
//! data only where the protocol guarantees FIFO.

use fompi::Win;
use fompi_msg::channel::{channel, ChannelEnd};
use fompi_rmc::{fanin, fanout, mesh, rpc, FaninEnd, FanoutEnd, LaggingPolicy, RmcConfig, RpcEnd};
use fompi_runtime::RankCtx;
use fompi_txn::{RetryPolicy, Txn, VersionedCell};

/// One checkable program: a name for reports, a rank count, and the
/// per-rank body returning that rank's declared-stable digest.
#[derive(Clone, Copy)]
pub struct Model {
    /// Name used in schedules, CSV rows and test output.
    pub name: &'static str,
    /// Ranks the program runs on.
    pub p: usize,
    /// Per-rank body; the return value must be schedule-independent.
    pub prog: fn(&mut RankCtx) -> u64,
}

/// splitmix64 finalizer — the unit hash order-insensitive digests sum.
fn h1(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-*sensitive* fold for FIFO edges.
fn mix(h: u64, v: u64) -> u64 {
    h1(h ^ h1(v))
}

fn le(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[..8].try_into().expect("8-byte payload"))
}

/// The seven well-formed protocol kernels.
pub fn all_models() -> Vec<Model> {
    vec![
        Model { name: "msg-channel", p: 2, prog: msg_channel },
        Model { name: "rmc-fanin", p: 3, prog: rmc_fanin },
        Model { name: "rmc-fanout", p: 3, prog: rmc_fanout },
        Model { name: "rmc-mesh", p: 2, prog: rmc_mesh },
        Model { name: "rpc-timeout", p: 2, prog: rpc_timeout },
        Model { name: "txn-commit", p: 2, prog: txn_commit },
        Model { name: "txn-readonly", p: 2, prog: txn_readonly },
    ]
}

/// The broken twins. Each must produce a replayable counterexample.
pub fn mutants() -> Vec<Model> {
    vec![
        Model { name: "mesh-credit-leak", p: 2, prog: mesh_credit_leak },
        Model { name: "txn-lost-publish", p: 2, prog: txn_lost_publish },
        Model { name: "txn-skip-first-validate", p: 2, prog: txn_skip_first_validate },
    ]
}

/// Look a model up by name across both sets.
pub fn find_model(name: &str) -> Option<Model> {
    all_models().into_iter().chain(mutants()).find(|m| m.name == name)
}

/// SPSC channel, one slot, two messages: the second send must wait for
/// the consumer's credit, so flow control is on the explored path. The
/// edge is FIFO — the receiver folds in order.
fn msg_channel(ctx: &mut RankCtx) -> u64 {
    match channel(ctx, 0, 1, 1, 8).unwrap().unwrap() {
        ChannelEnd::Sender(mut s) => {
            s.send(&11u64.to_le_bytes()).unwrap();
            s.send(&22u64.to_le_bytes()).unwrap();
            s.close(ctx).unwrap();
            0
        }
        ChannelEnd::Receiver(mut r) => {
            let mut h = 0u64;
            let mut buf = [0u8; 8];
            for _ in 0..2 {
                r.recv(&mut buf).unwrap();
                h = mix(h, le(&buf));
            }
            r.close(ctx).unwrap();
            h
        }
    }
}

/// Two producers fan into one consumer. Arrival *order* across producers
/// is schedule-dependent by design, so the consumer's digest sums
/// per-record hashes — the set of deliveries is the stable output.
fn rmc_fanin(ctx: &mut RankCtx) -> u64 {
    match fanin(ctx, 2, &[0, 1], 1, 8).unwrap().unwrap() {
        FaninEnd::Producer(mut p) => {
            let v = (ctx.rank() as u64 + 1) * 7;
            p.send(&v.to_le_bytes()).unwrap();
            p.close(ctx).unwrap();
            0
        }
        FaninEnd::Consumer(mut c) => {
            let mut h = 0u64;
            let mut buf = [0u8; 8];
            for _ in 0..2 {
                let (src, _) = c.recv(&mut buf).unwrap();
                h = h.wrapping_add(h1(((src as u64) << 32) ^ le(&buf)));
            }
            c.close(ctx).unwrap();
            h
        }
    }
}

/// One publisher, two subscribers, one slot: the second publish blocks
/// on both subscribers' credits. Each subscriber's edge is FIFO.
fn rmc_fanout(ctx: &mut RankCtx) -> u64 {
    match fanout(ctx, 0, &[1, 2], 1, 8, LaggingPolicy::Block).unwrap().unwrap() {
        FanoutEnd::Publisher(mut p) => {
            p.publish(&31u64.to_le_bytes()).unwrap();
            p.publish(&32u64.to_le_bytes()).unwrap();
            let dropped = p.dropped_total();
            p.close(ctx).unwrap();
            dropped
        }
        FanoutEnd::Subscriber(mut s) => {
            let mut h = 0u64;
            let mut buf = [0u8; 8];
            for _ in 0..2 {
                s.recv(&mut buf).unwrap();
                h = mix(h, le(&buf));
            }
            s.close(ctx).unwrap();
            h
        }
    }
}

/// Two ranks exchange two rounds over a one-slot mesh: round 1's sends
/// need round 0's *lazily flushed* credits, so the batched credit-return
/// path is what the checker interleaves.
fn rmc_mesh(ctx: &mut RankCtx) -> u64 {
    let mut m = mesh(ctx, &RmcConfig { slots: 1, slot_bytes: 8, ..RmcConfig::default() }).unwrap();
    let me = ctx.rank();
    let peer = 1 - me;
    let mut h = 0u64;
    let mut buf = [0u8; 8];
    for round in 0..2u64 {
        m.send(peer, &(((me as u64) << 8) | round).to_le_bytes()).unwrap();
        let (src, _) = m.recv(&mut buf).unwrap();
        h = h.wrapping_add(h1(((src as u64) << 32) ^ le(&buf)));
        m.flush_credits().unwrap();
    }
    m.close(ctx).unwrap();
    h
}

/// MUTANT of [`rmc_mesh`]: the round-0 credit return is dropped. Both
/// ranks' round-1 sends then wait forever for a credit nobody will
/// flush — the checker must report a global deadlock.
fn mesh_credit_leak(ctx: &mut RankCtx) -> u64 {
    let mut m = mesh(ctx, &RmcConfig { slots: 1, slot_bytes: 8, ..RmcConfig::default() }).unwrap();
    let me = ctx.rank();
    let peer = 1 - me;
    let mut h = 0u64;
    let mut buf = [0u8; 8];
    for round in 0..2u64 {
        m.send(peer, &(((me as u64) << 8) | round).to_le_bytes()).unwrap();
        let (src, _) = m.recv(&mut buf).unwrap();
        h = h.wrapping_add(h1(((src as u64) << 32) ^ le(&buf)));
        if round > 0 {
            // BUG under test: round 0's consumed slot is never credited
            // back to the producer.
            m.flush_credits().unwrap();
        }
    }
    m.close(ctx).unwrap();
    h
}

/// Request/response with a virtual-time deadline: call 1 completes, the
/// server then charges 1 ms before answering call 2, blowing its 100 µs
/// deadline in *every* schedule — the timeout result is deterministic
/// and the late reply still settles the slot credit.
fn rpc_timeout(ctx: &mut RankCtx) -> u64 {
    let cfg = RmcConfig {
        slots: 1,
        slot_bytes: 8,
        rpc_budget: 1,
        rpc_timeout_ns: 100_000,
        ..RmcConfig::default()
    };
    match rpc(ctx, 0, &[1], &cfg).unwrap().unwrap() {
        RpcEnd::Server(mut s) => {
            let q1 = s.recv().unwrap();
            s.reply(&q1, &99u64.to_le_bytes()).unwrap();
            let q2 = s.recv().unwrap();
            ctx.ep().charge(1_000_000.0);
            s.reply(&q2, &77u64.to_le_bytes()).unwrap();
            s.close(ctx).unwrap();
            0
        }
        RpcEnd::Client(mut c) => {
            let mut buf = [0u8; 8];
            c.call(&1u64.to_le_bytes(), &mut buf).unwrap();
            let mut h = mix(0, le(&buf));
            let late = c.call(&2u64.to_le_bytes(), &mut buf);
            h = mix(h, if late.is_err() { 0xDEAD } else { 0xBEEF });
            c.close(ctx).unwrap();
            h
        }
    }
}

const CELL: usize = 16; // version word + one u64 payload

/// Both ranks run the full optimistic commit protocol (lock-CAS,
/// validate, publish) against *disjoint* cells on rank 0, then everyone
/// reads both payloads back. Disjoint cells keep the exploration small
/// while still interleaving every phase of two commits; the shared-cell
/// contention path is covered by [`txn_lost_publish`]'s correct prefix
/// and by `fompi-txn`'s own stress tests.
fn txn_commit(ctx: &mut RankCtx) -> u64 {
    let win = Win::allocate(ctx, 2 * CELL, 1).unwrap();
    VersionedCell::init_local(&win, 0, &0u64.to_le_bytes());
    VersionedCell::init_local(&win, CELL, &0u64.to_le_bytes());
    ctx.barrier();
    win.lock_all().unwrap();
    let me = ctx.rank();
    let cell = VersionedCell::new(0, me as usize * CELL, 8);
    let policy = RetryPolicy::for_win(&win);
    let mut rng = fompi_fabric::rng::Rng::seed_from_u64(7 + me as u64);
    fompi_txn::run(&win, &policy, &mut rng, |txn| {
        let mut b = [0u8; 8];
        txn.read(cell, &mut b)?;
        let v = le(&b).wrapping_add(me as u64 + 1);
        txn.write(cell, &v.to_le_bytes())?;
        Ok(v)
    })
    .unwrap();
    ctx.barrier();
    let mut h = 0u64;
    for c in [VersionedCell::new(0, 0, 8), VersionedCell::new(0, CELL, 8)] {
        let mut b = [0u8; 8];
        c.read(&win, &mut b).unwrap();
        h = mix(h, le(&b));
    }
    win.unlock_all().unwrap();
    win.free(ctx);
    h
}

/// MUTANT: rank 1 hand-rolls the commit's lock phase on a shared cell
/// and *drops the publish CAS*, leaving the seqlock version odd forever.
/// Rank 0's bounded versioned-read retry then exhausts and panics — the
/// counterexample every schedule must reach.
fn txn_lost_publish(ctx: &mut RankCtx) -> u64 {
    let win = Win::allocate(ctx, CELL, 1).unwrap();
    VersionedCell::init_local(&win, 0, &0u64.to_le_bytes());
    ctx.barrier();
    win.lock_all().unwrap();
    if ctx.rank() == 1 {
        // Lock phase of the commit protocol: version 0 -> 1 (odd =
        // locked)...
        let prev = win.compare_and_swap(1, 0, 0, 0).unwrap();
        assert_eq!(prev, 0, "lock CAS lost with no contention");
        // ...BUG under test: the publish CAS (1 -> 2) never happens.
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let cell = VersionedCell::new(0, 0, 8);
        let mut b = [0u8; 8];
        let published = (0..3).any(|_| cell.read(&win, &mut b).is_ok());
        assert!(published, "cell never published: version stuck odd (lost publish CAS)");
    }
    win.unlock_all().unwrap();
    win.free(ctx);
    0
}

/// A cell with a two-word payload `[value | !value]`: its versioned read
/// is a multi-element `get_accumulate`, so the fetching AMO span is on the
/// explored path.
const WIDE: usize = 24;
const WIDE_PAYLOAD: usize = 16;
/// What cells A and B hold between them, before and after the transfer.
const HELD: (u64, u64) = (60, 40);
const MOVED: u64 = 7;

fn wide(value: u64) -> [u8; WIDE_PAYLOAD] {
    let mut payload = [0u8; WIDE_PAYLOAD];
    payload[..8].copy_from_slice(&value.to_le_bytes());
    payload[8..].copy_from_slice(&(!value).to_le_bytes());
    payload
}

fn read_wide(txn: &mut Txn, cell: VersionedCell) -> fompi_txn::Result<u64> {
    let mut payload = [0u8; WIDE_PAYLOAD];
    txn.read(cell, &mut payload)?;
    let value = le(&payload);
    assert_eq!(le(&payload[8..]), !value, "torn payload passed the version check");
    Ok(value)
}

/// Rank 1 moves value from cell A to cell B in one two-key transaction
/// while rank 0 reads A, then B, in a read-only one. A snapshot that
/// `commit` (or, in the mutant, nothing) accepted must show the conserved
/// sum; one it refused is dropped, as a retry would. Both ranks then
/// digest the final cells.
fn readonly_against_transfer(ctx: &mut RankCtx, validated: bool) -> u64 {
    let win = Win::allocate(ctx, 2 * WIDE, 1).unwrap();
    VersionedCell::init_local(&win, 0, &wide(HELD.0));
    VersionedCell::init_local(&win, WIDE, &wide(HELD.1));
    ctx.barrier();
    win.lock_all().unwrap();
    let a = VersionedCell::new(0, 0, WIDE_PAYLOAD);
    let b = VersionedCell::new(0, WIDE, WIDE_PAYLOAD);
    if ctx.rank() == 1 {
        let mut rng = fompi_fabric::rng::Rng::seed_from_u64(7);
        fompi_txn::run(&win, &RetryPolicy::for_win(&win), &mut rng, |txn| {
            let (from, to) = (read_wide(txn, a)?, read_wide(txn, b)?);
            txn.write(a, &wide(from - MOVED))?;
            txn.write(b, &wide(to + MOVED))
        })
        .unwrap();
    } else {
        let mut txn = Txn::begin(&win);
        let seen = read_wide(&mut txn, a).and_then(|x| Ok((x, read_wide(&mut txn, b)?)));
        let accepted = !validated || txn.commit().is_ok();
        if let (Ok((x, y)), true) = (seen, accepted) {
            assert!(
                x + y == HELD.0 + HELD.1,
                "accepted a snapshot that never existed: A={x} B={y}"
            );
        }
    }
    ctx.barrier();
    let mut h = 0u64;
    for cell in [a, b] {
        let mut payload = [0u8; WIDE_PAYLOAD];
        cell.read(&win, &mut payload).unwrap();
        h = mix(h, le(&payload));
    }
    win.unlock_all().unwrap();
    win.free(ctx);
    h
}

/// The read-only commit rule: validate every cell but the one read last.
fn txn_readonly(ctx: &mut RankCtx) -> u64 {
    readonly_against_transfer(ctx, true)
}

/// MUTANT of [`txn_readonly`]: the read-only commit validates nothing.
/// With the whole transfer between the reader's two reads, A is old and B
/// is new — the schedule the checker must find.
fn txn_skip_first_validate(ctx: &mut RankCtx) -> u64 {
    readonly_against_transfer(ctx, false)
}
